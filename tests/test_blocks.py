import numpy as np
import pytest

from fsnlab import (ClassificationError, Edge, GraphError, Network,
                    block_cut_tree, classify_fiedler, fiedler_pair, laplacian)
from fsnlab.blocks import _audit_monotonicity
from fsnlab.thresholds import eig_tol

from conftest import random_connected_net
from oracles import audit_monotonicity

PATH3 = Network(3, (Edge(1, 2), Edge(2, 3)))


def winged_path():
    """P5 with a pendant triangle on its middle node.

    The mirror symmetry 1<->5, 2<->4 fixes nodes 3, 6, 7, so the Fiedler
    entries there vanish exactly: node 3 is a zero cut node and {3,6,7} a
    zero block.
    """
    return Network(7, (Edge(1, 2), Edge(2, 3), Edge(3, 4), Edge(4, 5),
                       Edge(3, 6), Edge(3, 7), Edge(6, 7)))


def weight(rng):
    return rng.uniform(0.5, 2.0)


def mirrored_net(rng, k):
    """Two copies of a random k-node graph whose copies of one node are
    joined to a centre node 2k + 1 by equal weights: the mirror symmetry
    puts the centre at a zero entry of every antisymmetric eigenvector."""
    half = random_connected_net(rng, k, extra=int(rng.integers(0, k // 3 + 1)),
                                weights=weight)
    a, w = int(rng.integers(1, k + 1)), weight(rng)
    return Network(2 * k + 1, [*half.edges, *(Edge(e.i + k, e.j + k, e.w)
                                              for e in half.edges),
                               Edge(a, 2 * k + 1, w), Edge(a + k, 2 * k + 1, w)])


class TestBlockCutTree:
    def test_g12_blocks_and_cut_nodes(self, g12):
        net, _, _ = g12
        decomp = block_cut_tree(net)
        expected = [{1, 2, 3, 4}, {1, 11}, {1, 12}, {4, 5, 6},
                    {6, 7, 8}, {6, 9, 10}]
        assert [set(b) for b in decomp.blocks] == expected
        assert decomp.cut_nodes == frozenset({1, 4, 6})

    def test_tree_blocks_are_edges(self, t12):
        net, _, _ = t12
        decomp = block_cut_tree(net)
        assert all(len(b) == 2 for b in decomp.blocks)
        assert len(decomp.blocks) == len(net.edges)
        leaves = {i for i in range(1, 13) if len(net.neighbors[i]) == 1}
        assert decomp.cut_nodes == frozenset(range(1, 13)) - leaves

    def test_single_cycle_is_one_block(self):
        cycle = Network(5, tuple(Edge(i, i % 5 + 1) for i in range(1, 6)))
        decomp = block_cut_tree(cycle)
        assert [set(b) for b in decomp.blocks] == [{1, 2, 3, 4, 5}]
        assert not decomp.cut_nodes

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            block_cut_tree(Network(3, (Edge(1, 2),)))

    def test_single_node(self):
        decomp = block_cut_tree(Network(1, ()))
        assert decomp.blocks == (frozenset({1}),)

    def test_edge_partition_property(self):
        # Each edge lies in exactly one block: block-local edge counts must
        # add up to |E|.
        rng = np.random.default_rng(10)
        for _ in range(500):
            net = random_connected_net(rng, int(rng.integers(2, 15)))
            decomp = block_cut_tree(net)
            per_block = 0
            for members in decomp.blocks:
                per_block += sum(1 for e in net.edges
                                 if e.i in members and e.j in members)
            assert per_block == len(net.edges)

    def test_tree_link_count(self):
        # The block-cut incidence forms a tree over blocks and cut nodes.
        rng = np.random.default_rng(11)
        for _ in range(200):
            net = random_connected_net(rng, int(rng.integers(2, 13)))
            decomp = block_cut_tree(net)
            assert (len(decomp.blocks) + len(decomp.cut_nodes) - 1
                    == decomp.is_cut[decomp.member].sum())


class TestClassifyFiedler:
    def test_g12_core_block(self, g12):
        net, _, _ = g12
        decomp = block_cut_tree(net)
        pair = fiedler_pair(laplacian(net))
        cls = classify_fiedler(decomp, pair.vector)
        assert cls.case == "core-block"
        assert set(decomp.blocks[cls.core_block]) == {4, 5, 6}

    def test_t12_core_block(self, t12):
        net, _, _ = t12
        decomp = block_cut_tree(net)
        pair = fiedler_pair(laplacian(net))
        cls = classify_fiedler(decomp, pair.vector)
        assert cls.case == "core-block"
        assert set(decomp.blocks[cls.core_block]) == {4, 6}

    def test_path3_core_node(self):
        decomp = block_cut_tree(PATH3)
        pair = fiedler_pair(laplacian(PATH3))
        cls = classify_fiedler(decomp, pair.vector)
        assert cls.case == "core-node"
        assert cls.core_node == 2
        assert cls.core_nodes == frozenset({2})

    def test_zero_block_labeling(self):
        net = winged_path()
        pair = fiedler_pair(laplacian(net))
        assert pair.is_simple
        decomp = block_cut_tree(net)
        cls = classify_fiedler(decomp, pair.vector)
        assert cls.case == "core-node"
        assert cls.core_node == 3
        assert cls.zero_block_nodes == frozenset({3, 6, 7})
        [k] = np.flatnonzero((net.i == 6) & (net.j == 7))
        assert cls.block_labels[decomp.edge_block[k]] == "zero"

    def test_exactly_one_case_on_random_graphs(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 200:
            net = random_connected_net(rng, int(rng.integers(3, 13)))
            pair = fiedler_pair(laplacian(net))
            if not pair.is_simple:
                continue
            checked += 1
            cls = classify_fiedler(block_cut_tree(net), pair.vector)
            assert cls.case in ("core-block", "core-node")
            assert (cls.core_block is None) != (cls.core_node is None)
            assert _audit_monotonicity(cls, pair.vector) == 0.0

    def test_audit_equals_the_path_carrying_search(self):
        # The audit of perturbed Fiedler vectors (each entry scaled by
        # 1 + N(0, 0.3), one sign in ten flipped) against the reference
        # search, on classifications classify_fiedler accepts: random
        # trees plus up to n/3 chords (core blocks, n = 3..40) and, at odd
        # n, mirrored doubles of such graphs (core nodes).
        rng = np.random.default_rng(13)
        cases = {"core-block": 0, "core-node": 0}
        defects = 0
        while min(cases.values()) < 150:
            n = int(rng.integers(3, 41))
            if n % 2 and cases["core-node"] < 150:
                net = mirrored_net(rng, n // 2)
            else:
                chords = int(rng.integers(0, n // 3 + 1))
                net = random_connected_net(rng, n, extra=chords, weights=weight)
            pair = fiedler_pair(laplacian(net))
            if not pair.is_simple:
                continue
            try:
                cls = classify_fiedler(block_cut_tree(net), pair.vector)
            except ClassificationError:
                continue
            cases[cls.case] += 1
            v = pair.vector * (1.0 + rng.normal(0.0, 0.3, net.n))
            v[rng.random(net.n) < 0.1] *= -1.0
            audit = _audit_monotonicity(cls, v)
            assert audit == audit_monotonicity(cls, v)
            defects += audit != 0.0
        assert defects > sum(cases.values()) / 2

    def test_garbage_vector_rejected(self, g12):
        net, _, _ = g12
        decomp = block_cut_tree(net)
        # Alternating signs put mixed nodes into several blocks at once.
        fake = np.array([(-1.0) ** k for k in range(12)])
        fake /= np.linalg.norm(fake)
        with pytest.raises(ClassificationError):
            classify_fiedler(decomp, fake)

    def test_cut_entries_shrinking_away_from_the_core_are_refused(self):
        # Node 4 is the core node; cut node 6 shrinks after cut node 5.
        net = Network(7, [Edge(k, k + 1) for k in range(1, 7)])
        v = np.array([-1.0, -0.7, -0.3, 0.0, 0.5, 0.2, 0.9])
        with pytest.raises(ClassificationError, match="violate monotonicity"):
            classify_fiedler(block_cut_tree(net), v)

    def test_monotone_cut_entries_along_t12_paths(self, t12):
        net, _, _ = t12
        decomp = block_cut_tree(net)
        pair = fiedler_pair(laplacian(net))
        cls = classify_fiedler(decomp, pair.vector)
        # Walking 6 -> 4 -> 1: magnitudes of cut entries must not shrink.
        v = pair.vector
        assert abs(v[0]) >= abs(v[3]) - eig_tol(v)
