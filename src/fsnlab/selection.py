"""Reduced-network construction from eigenvector entry ratios.

Each agent keeps only the neighbors whose eigenvector entry is smaller than
its own (the "slower" neighbors); ties are dropped on both sides so that
mutually symmetric agents never follow each other.  The fully-autonomous
variant works blockwise on the Fiedler vector and keeps the core region
bidirectional.  The leader-driven rules serve every sign: on a structurally
balanced signed network they compare entry magnitudes, which is the
unsigned rule on the magnitude network after gauging the signs away.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .graphs import (DirectedNetwork, GraphError, Network,
                     SemiAutonomousConfig, _bump_leaders, _reach, signed_cover)
from .blocks import FiedlerClassification
from .spectral import symmetric_eigh
from .thresholds import SYMMETRY_TOL, follows


def _edge_arcs(net: Network, keep: np.ndarray, name: str) -> DirectedNetwork:
    """The arcs of the edges where ``keep`` holds, (i <- j) in its first row
    and (j <- i) in its second, in edge order, an edge's forward arc first.

    Each is an orientation of a distinct edge of a valid network, and a
    follower's load sums part of its edges' weights in edge order, so the
    arcs are valid by construction and are not checked again.
    """
    keep = keep.ravel(order="F")
    ends = np.stack((net.i, net.j))
    return DirectedNetwork._valid_arrays(
        net.n, ends.ravel(order="F")[keep], ends[::-1].ravel(order="F")[keep],
        np.repeat(net.w, 2)[keep], name)


def _checked_positive_vector(net: Network, cfg: SemiAutonomousConfig,
                             v1: np.ndarray) -> np.ndarray:
    """v1, or its magnitudes on a balanced signed wiring; refused unless positive."""
    v1 = np.asarray(v1, dtype=float)
    if len(v1) != net.n:
        raise GraphError(f"eigenvector length {len(v1)} != n={net.n}")
    cfg.leader_rows(net.n)              # refuses a leader outside 1..n
    if net.is_signed or cfg.is_signed:
        signed_cover(net).check_wiring(cfg)
        v1 = np.abs(v1)
    if float(v1.min()) <= 0:
        raise GraphError("principal eigenvector must be strictly positive")
    return v1


def _ratio_arcs(net: Network, v: np.ndarray,
                faster: bool = False) -> DirectedNetwork:
    """Arcs (i <- j) whose entry ratio v[i]/v[j] exceeds 1, edge by edge;
    with ``faster`` the ratio is v[j]/v[i] instead."""
    ends = v[np.stack((net.i, net.j)) - 1]
    if faster:
        ends = ends[::-1]
    suffix = "ffn" if faster else "fsn"
    return _edge_arcs(net, follows(ends, ends[::-1]), f"{net.name}-{suffix}")


def fsn_san(net: Network, cfg: SemiAutonomousConfig,
            v1: np.ndarray) -> DirectedNetwork:
    """Keep the slower neighbors of a leader-driven network of any sign.

    ``v1`` is the principal eigenvector of the perturbed Laplacian; the arc
    (i <- j) survives exactly when |v1[i]|/|v1[j]| > 1.  A signed network
    must be connected, and with its input wiring structurally balanced
    (:meth:`~fsnlab.graphs.SignedCover.check_wiring`): its gauge
    D = diag(+-1) then maps v1 onto the positive vector of the magnitude
    network, so the rule keeps that network's arcs.  An unsigned v1 must
    be positive.  The result is acyclic because retained arcs strictly
    descend in |v1|.
    """
    return _ratio_arcs(net, _checked_positive_vector(net, cfg, v1))


def ffn_san(net: Network, cfg: SemiAutonomousConfig,
            v1: np.ndarray) -> DirectedNetwork:
    """Keep the faster neighbors instead: the arc reversal of the slower rule.

    Isolates followers from the external inputs; ties are dropped on both
    sides exactly as in :func:`fsn_san`.
    """
    return _ratio_arcs(net, _checked_positive_vector(net, cfg, v1), faster=True)


def fsn_fan(net: Network, v2: np.ndarray,
            cls: FiedlerClassification) -> DirectedNetwork:
    """Slower-neighbor reduction of an autonomous network via its Fiedler vector.

    Edges of the core block and of zero blocks stay bidirectional; inside a
    positive or negative block the arc (i <- j) survives when the entry
    ratio exceeds 1 or is negative.  A neighbor sitting exactly at zero (a
    core node) is always retained by its nonzero neighbors, never the other
    way around.  ``cls`` must classify a network with the same node count
    and the same edge arrays, in the same order.
    """
    v2 = np.asarray(v2, dtype=float)
    if len(v2) != net.n:
        raise GraphError(f"eigenvector length {len(v2)} != n={net.n}")
    decomp = cls.decomposition
    if not (decomp.n == net.n and np.array_equal(decomp.i, net.i)
            and np.array_equal(decomp.j, net.j)):
        raise GraphError("classification was built from a different edge list")
    labels = cls.block_labels
    both = ((labels == "core") | (labels == "zero"))[decomp.edge_block]

    # Row 0 tests the arcs (i <- j), row 1 the arcs (j <- i), so the
    # reversed rows hold the followed nodes.  A zero follower is dropped; a
    # zero followed node is retained, and so is a neighbor of the other
    # sign, whose ratio is negative.
    ends = np.stack((net.i, net.j)) - 1
    s, v = cls.node_sign[ends], v2[ends]
    keep = (s != 0) & ((s[::-1] == 0) | (s != s[::-1]) | follows(v, v[::-1]))
    return _edge_arcs(net, both | keep, f"{net.name}-fsn")


def reachable_from(dnet: DirectedNetwork, sources: Iterable[int]) -> dict[int, bool]:
    """Which nodes the given sources influence through retained arcs.

    Influence travels from a followed node to its follower.
    """
    start = []
    for s in sources:
        if not 1 <= s <= dnet.n:
            raise GraphError(f"source {s} outside 1..{dnet.n}")
        start.append(s - 1)
    indptr, cols, _ = dnet.followers
    return dict(zip(range(1, dnet.n + 1), (_reach(indptr, cols, start) >= 0).tolist()))


def reachable_from_inputs(dnet: DirectedNetwork,
                          cfg: SemiAutonomousConfig) -> dict[int, bool]:
    """Which agents the external inputs still influence after reduction."""
    return reachable_from(dnet, cfg.leader_nodes)


def _strong_components(dnet: DirectedNetwork) -> np.ndarray:
    """Strongly connected components of the arc digraph (iterative Tarjan
    over the CSR successor lists): the component of each node, numbered
    from 0 in completion order."""
    indptr, cols = (a.tolist() for a in dnet.successors[:2])
    nxt = indptr[:-1]                   # next successor entry to scan
    index = [0] * dnet.n                # visit order from 1; 0 = unvisited
    low = [0] * dnet.n
    comp = [-1] * dnet.n                # -1 until its component completes
    comp_stack: list[int] = []
    label = 0
    counter = 1
    for start in range(dnet.n):
        if index[start]:
            continue
        work = [start]
        index[start] = low[start] = counter
        counter += 1
        comp_stack.append(start)
        while work:
            u = work[-1]
            k, end = nxt[u], indptr[u + 1]
            while k < end:
                v = cols[k]
                k += 1
                if not index[v]:
                    index[v] = low[v] = counter
                    counter += 1
                    comp_stack.append(v)
                    work.append(v)
                    break
                if comp[v] < 0 and index[v] < low[u]:   # v is on comp_stack
                    low[u] = index[v]
            nxt[u] = k
            if work[-1] != u:
                continue
            work.pop()
            if work and low[u] < low[work[-1]]:
                low[work[-1]] = low[u]
            if low[u] == index[u]:
                w = -1
                while w != u:
                    w = comp_stack.pop()
                    comp[w] = label
                label += 1
    return np.array(comp, dtype=np.intp)


def reduced_spectrum(dnet: DirectedNetwork,
                     cfg: Optional[SemiAutonomousConfig] = None) -> np.ndarray:
    """Eigenvalues of the reduced generator, read off its block structure.

    After condensing strongly connected components the generator is block
    triangular, so its spectrum is the union of the diagonal blocks'
    spectra; every nontrivial component our constructions produce is
    symmetric, so no general non-symmetric solve is ever needed.

    The generator itself is never built.  Its diagonal comes from one
    ``bincount`` over the arcs in arc order (the additions
    :func:`reduced_laplacian` makes, in its order), a singleton component's
    eigenvalue is its diagonal entry, and a nontrivial component's block is
    filled from that diagonal and the component's own arcs.
    """
    n, follower, followed, w = dnet.n, dnet.i - 1, dnet.j - 1, dnet.w
    diag = np.bincount(follower, weights=np.abs(w),
                       minlength=n).astype(float, copy=False)  # int when m = 0
    if cfg is not None:
        _bump_leaders(diag, cfg)

    # A singleton's eigenvalue is its diagonal entry; a nontrivial
    # component's entries are overwritten by its block's eigenvalues once
    # the block has read them.
    comp = _strong_components(dnet)
    for c in np.flatnonzero(np.bincount(comp) > 1):
        nodes = np.flatnonzero(comp == c)
        arcs = np.flatnonzero((comp[follower] == c) & (comp[followed] == c))
        block = np.diag(diag[nodes])
        block[np.searchsorted(nodes, follower[arcs]),
              np.searchsorted(nodes, followed[arcs])] -= w[arcs]
        sym_defect = float(np.abs(block - block.T).max())
        if sym_defect > SYMMETRY_TOL * float(np.abs(block).max()):
            raise GraphError(
                "strongly connected component has an asymmetric generator "
                "block; spectrum cannot be read structurally")
        diag[nodes] = symmetric_eigh(block)[0]
    return np.sort(diag)
