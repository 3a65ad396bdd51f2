"""Graph passes against networkx on seeded random graphs.

Trees with chords and graphs split into several components (a tree with
some of its edges removed, plus chords) are checked for connectivity,
blocks and cut nodes, reachability along retained arcs, strongly
connected components of the arc digraph, and structural balance.
"""

import numpy as np
import pytest

from fsnlab import (DirectedNetwork, GraphError, Network, block_cut_tree,
                    reachable_from, structural_balance_partition)
from fsnlab.selection import _strong_components

from oracles import is_connected

nx = pytest.importorskip("networkx")

SEEDS = range(200)


def random_graph(rng) -> Network:
    """A uniform-attachment tree on 1..n, some tree edges cut, plus chords."""
    n = int(rng.integers(1, 40))
    cut = rng.choice([0.0, 0.15])
    keys = {(int(rng.integers(1, k)), k) for k in range(2, n + 1)
            if rng.random() >= cut}
    for _ in range(int(rng.integers(0, n + 1))):
        a, b = (int(v) for v in rng.integers(1, n + 1, size=2))
        if a != b:
            keys.add((min(a, b), max(a, b)))
    pairs = np.array(sorted(keys), dtype=np.int64).reshape(-1, 2)
    pairs = pairs[rng.permutation(len(pairs))]
    return Network.from_arrays(n, pairs[:, 0], pairs[:, 1],
                               rng.uniform(0.5, 2, len(pairs)))


def undirected(net: Network):
    g = nx.Graph()
    g.add_nodes_from(range(1, net.n + 1))
    g.add_edges_from(zip(net.i.tolist(), net.j.tolist()))
    return g


def random_arcs(rng, net: Network) -> DirectedNetwork:
    """Each orientation of each edge kept with probability 1/2."""
    keep = rng.random((len(net.w), 2)) < 0.5
    follower = np.stack((net.i, net.j), axis=1)[keep]
    followed = np.stack((net.j, net.i), axis=1)[keep]
    return DirectedNetwork.from_arrays(net.n, follower, followed,
                                       np.ones(len(follower)))


def test_connectivity_and_blocks():
    connected = 0
    for seed in SEEDS:
        net = random_graph(np.random.default_rng(seed))
        g = undirected(net)
        assert is_connected(net) == nx.is_connected(g), seed
        if nx.is_connected(g):
            connected += 1
            check_blocks(net, g)
    assert 0.2 * len(SEEDS) < connected < 0.8 * len(SEEDS)


def check_blocks(net: Network, g) -> None:
    decomp = block_cut_tree(net)
    assert decomp.cut_nodes == frozenset(nx.articulation_points(g))
    want = {frozenset(c) for c in nx.biconnected_components(g)} or {frozenset({1})}
    assert set(decomp.blocks) == want and len(decomp.blocks) == len(want)
    holder = {}
    for edges in nx.biconnected_component_edges(g):
        nodes = frozenset(v for e in edges for v in e)
        holder.update((frozenset(e), nodes) for e in edges)
    for e, b in zip(net.edges, decomp.edge_block.tolist()):
        assert decomp.blocks[b] == holder[frozenset((e.i, e.j))]


def test_reachability_and_strong_components():
    for seed in SEEDS:
        check_arcs(np.random.default_rng([seed, 1]))


def check_arcs(rng) -> None:
    dnet = random_arcs(rng, random_graph(rng))
    arcs = nx.DiGraph()
    arcs.add_nodes_from(range(1, dnet.n + 1))
    arcs.add_edges_from(zip(dnet.i.tolist(), dnet.j.tolist()))
    sources = {int(s) for s in rng.integers(1, dnet.n + 1, size=int(rng.integers(0, 4)))}
    influence = arcs.reverse()
    want = set(sources).union(*(nx.descendants(influence, s) for s in sources))
    assert reachable_from(dnet, sources) == {
        v: v in want for v in range(1, dnet.n + 1)}
    comp = _strong_components(dnet)
    assert comp.dtype == np.intp and comp.shape == (dnet.n,)
    assert set(comp.tolist()) == set(range(comp.max() + 1))
    # Completion order: a component completes after those its arcs lead to.
    assert (comp[dnet.i - 1] >= comp[dnet.j - 1]).all()
    assert {frozenset((np.flatnonzero(comp == c) + 1).tolist())
            for c in range(comp.max() + 1)} == {
        frozenset(c) for c in nx.strongly_connected_components(arcs)}


def balance_oracle(net: Network):
    """Structural balance by contraction: the components of the positive
    edges become single nodes, and the network is balanced when no
    negative edge lies inside one and the negative edges between them form
    a bipartite graph.  Returns the sides of that 2-colouring, node 1's
    side first, None when unbalanced, or the refusal message when the
    network is disconnected (refused before an unbalanced one); and
    whether the contraction test alone finds it balanced."""
    positive, negative = nx.Graph(), nx.Graph()
    positive.add_nodes_from(range(1, net.n + 1))
    for a, b, w in net.edges:
        (positive if w > 0 else negative).add_edge(a, b)
    comp = {v: k for k, c in enumerate(nx.connected_components(positive))
            for v in c}
    contracted = nx.Graph()
    contracted.add_nodes_from(set(comp.values()))
    contracted.add_edges_from((comp[a], comp[b]) for a, b in negative.edges)
    balanced = (nx.number_of_selfloops(contracted) == 0
                and nx.is_bipartite(contracted))
    if not nx.is_connected(nx.compose(positive, negative)):
        return "balance partition requires a connected network", balanced
    if not balanced:
        return None, balanced
    color = nx.bipartite.color(contracted)
    side = [frozenset(v for v in comp if (color[comp[v]] == color[comp[1]]) == s)
            for s in (True, False)]
    return tuple(side), balanced


def signed_graph(rng) -> Network:
    """A :func:`random_graph` signed by a random gauge (balanced) or by
    independent random signs."""
    net = random_graph(rng)
    if rng.random() < 0.5:
        sigma = rng.choice([-1.0, 1.0], size=net.n)
        signs = sigma[net.i - 1] * sigma[net.j - 1]
    else:
        signs = rng.choice([-1.0, 1.0], size=len(net.w))
    return Network.from_arrays(net.n, net.i, net.j, signs * net.w)


def test_structural_balance():
    outcomes = {"sides": 0, "unbalanced": 0, "disconnected": 0,
                "disconnected and unbalanced": 0}
    for seed in SEEDS:
        net = signed_graph(np.random.default_rng([seed, 2]))
        want, balanced = balance_oracle(net)
        try:
            got = structural_balance_partition(net)
        except GraphError as exc:
            got = str(exc)
        assert got == want, seed
        outcomes["sides" if isinstance(want, tuple) else
                 "unbalanced" if want is None else
                 "disconnected" if balanced else
                 "disconnected and unbalanced"] += 1
    assert min(outcomes.values()) > 0.05 * len(SEEDS), outcomes
