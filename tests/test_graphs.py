import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsnlab import (Arc, DirectedNetwork, Edge, GraphError, LeaderLink,
                    Network, SemiAutonomousConfig, augmented_signed_network,
                    is_connected, laplacian, perturbed_laplacian,
                    reduced_laplacian, structural_balance_partition)
from fsnlab.graphs import MAX_NODES
from fsnlab.selection import fsn_san
from fsnlab.spectral import principal_pair_perturbed

from oracles import diameter, gauge_matrix
from conftest import T12_FSN, random_connected_net, random_balanced_signed_net

K2 = Network(2, (Edge(1, 2),))
PATH3 = Network(3, (Edge(1, 2), Edge(2, 3)))


def leaders(*nodes, signs=None):
    signs = signs or [1] * len(nodes)
    return SemiAutonomousConfig(
        len(nodes),
        tuple(LeaderLink(n, i + 1, s) for i, (n, s) in enumerate(zip(nodes, signs))))


class TestNetworkModel:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Network(2, (Edge(1, 1),))

    def test_rejects_duplicate_pair(self):
        with pytest.raises(GraphError, match="duplicate"):
            Network(2, (Edge(1, 2), Edge(2, 1, 3.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="outside"):
            Network(2, (Edge(1, 3),))

    def test_rejects_zero_weight(self):
        with pytest.raises(GraphError, match="weight"):
            Network(2, (Edge(1, 2, 0.0),))

    @pytest.mark.parametrize("w", [1e308, -1e308])
    def test_rejects_overflowing_degree(self, w):
        # Node 2's Laplacian diagonal, 1e308 + |w|, is past the float range.
        with pytest.raises(GraphError, match=r"node 2: .* \[1e\+308, "):
            Network(3, (Edge(1, 2, 1e308), Edge(2, 3, w)))

    def test_duplicate_arc_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            DirectedNetwork(2, (Arc(1, 2), Arc(1, 2)))

    @pytest.mark.parametrize("make", [Network, DirectedNetwork])
    @pytest.mark.parametrize("n,message", [
        (0, "node count must be positive, got 0"),
        (-3, "node count must be positive, got -3"),
        (MAX_NODES + 1, "cannot be addressed"),
        (10**20, "cannot be addressed")])
    def test_rejects_node_count(self, make, n, message):
        with pytest.raises(GraphError, match=message):
            make(n, ())

    def test_largest_node_count_needs_no_per_node_work(self):
        t0 = time.perf_counter()
        net = Network(MAX_NODES, (Edge(1, MAX_NODES),))
        assert not is_connected(net) and not net.is_signed
        assert "adjacency" not in vars(net)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("make,record", [(Network, Edge), (DirectedNetwork, Arc)])
    def test_rejects_non_integer_node_id(self, make, record):
        with pytest.raises(GraphError, match=r"\(1.5,2\) has a node id that is "
                                             "not an integer"):
            make(3, (record(1, 2), record(1.5, 2)))

    @pytest.mark.parametrize("make,record", [(Network, Edge), (DirectedNetwork, Arc)])
    @pytest.mark.parametrize("w", ["heavy", None, "1.5", b"2", 1 + 2j])
    def test_weight_that_is_not_a_number_is_refused(self, make, record, w):
        # A string is refused even where a float cast would parse it, and a
        # complex number even where one would drop its imaginary part.
        text = re.escape(str(w))
        for build in (lambda: make(3, (record(1, 2), record(2, 3, w))),
                      lambda: make.from_arrays(3, [1, 2], [2, 3], [1.0, w]),
                      lambda: make.from_arrays(3, [1, 2], [2, 3],
                                               np.array([1.0, w], dtype=object))):
            with pytest.raises(GraphError, match=rf"\(2,3\) has invalid weight {text}$"):
                build()
        with pytest.raises(GraphError, match=rf"\(1,2\) has invalid weight {text}$"):
            make.from_arrays(3, [1, 2], [2, 3], np.array([w, w]))

    @pytest.mark.parametrize("make,record", [(Network, Edge), (DirectedNetwork, Arc)])
    def test_first_bad_record_wins_over_a_later_non_integer_id(self, make, record):
        loop = "self-loop" if make is Network else "self-arc"
        for records, message in (
                ([(1, 1), (1.5, 2)], f"^{loop} at node 1$"),
                ([(1, 2), (1.5, 2), (1, 1)],
                 r"\(1.5,2\) has a node id that is not an integer$")):
            with pytest.raises(GraphError, match=message):
                make(3, [record(*r) for r in records])
            with pytest.raises(GraphError, match=message):
                make.from_arrays(3, *zip(*records), [1.0] * len(records))

    def test_arrays_and_views(self):
        net = Network.from_arrays(3, [1, 2], [2, 3], [1, -2.5], name="p")
        assert net == Network(3, (Edge(1, 2, 1.0), Edge(2, 3, -2.5)), name="p")
        assert net != Network(3, (Edge(2, 1, 1.0), Edge(2, 3, -2.5)), name="p")
        assert net.edges == (Edge(1, 2, 1.0), Edge(2, 3, -2.5))
        assert [type(v) for v in net.edges[0]] == [int, int, float]
        assert net.neighbors == {1: (2,), 2: (1, 3), 3: (2,)}
        assert net.weights == {(1, 2): 1.0, (2, 1): 1.0, (2, 3): -2.5, (3, 2): -2.5}
        dnet = DirectedNetwork.from_arrays(3, np.array([2, 2]), np.array([3, 1]),
                                           np.array([1.0, 2.0]))
        assert dnet.arcs == (Arc(2, 3, 1.0), Arc(2, 1, 2.0))
        assert dnet.retained == {1: (), 2: (1, 3), 3: ()}
        assert dnet.arc_set == {(2, 3), (2, 1)}

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PATH3.n = 4
        with pytest.raises(ValueError):
            PATH3.w[0] = 2.0

    def test_leader_appears_once(self):
        with pytest.raises(GraphError, match="twice"):
            SemiAutonomousConfig(2, (LeaderLink(1, 1), LeaderLink(1, 2)))

    def test_input_index_range(self):
        with pytest.raises(GraphError, match="input 3"):
            SemiAutonomousConfig(2, (LeaderLink(1, 3),))


class TestLaplacian:
    def test_k2(self):
        assert np.array_equal(laplacian(K2), [[1, -1], [-1, 1]])

    def test_path3(self):
        assert np.array_equal(laplacian(PATH3),
                              [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_g8_degree_of_node_3(self, g8):
        net, _, _ = g8
        incident = sum(1 for e in net.edges if 3 in (e.i, e.j))
        assert incident == 5
        assert laplacian(net)[2, 2] == incident

    def test_row_sums_vanish_on_random_nets(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            net = random_connected_net(rng, int(rng.integers(2, 13)),
                                       weights=lambda r: r.random() * 3 + 0.1)
            L = laplacian(net)
            assert np.abs(L.sum(axis=1)).max() < 1e-12
            assert np.abs(L - L.T).max() == 0.0


class TestPerturbedLaplacian:
    def test_path3_single_leader(self):
        LB = perturbed_laplacian(PATH3, leaders(1))
        assert np.array_equal(LB - laplacian(PATH3), np.diag([1, 0, 0]))

    def test_g8_leader_rows(self, g8):
        net, cfg, _ = g8
        bump = perturbed_laplacian(net, cfg) - laplacian(net)
        assert np.array_equal(np.diag(bump), [0, 0, 0, 1, 0, 0, 0, 1])

    def test_k2_all_leaders_is_l_plus_identity(self):
        LB = perturbed_laplacian(K2, leaders(1, 2))
        assert np.array_equal(LB, laplacian(K2) + np.eye(2))

    def test_bump_matches_leader_set_on_random_nets(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            net = random_connected_net(rng, n)
            k = int(rng.integers(1, n + 1))
            nodes = sorted(int(v) for v in
                           rng.choice(np.arange(1, n + 1), k, replace=False))
            cfg = SemiAutonomousConfig(
                k, tuple(LeaderLink(v, i + 1) for i, v in enumerate(nodes)))
            bump = perturbed_laplacian(net, cfg) - laplacian(net)
            assert np.array_equal(bump, np.diag(bump.diagonal()))
            expectation = [1.0 if i in nodes else 0.0 for i in range(1, n + 1)]
            assert np.array_equal(bump.diagonal(), expectation)


class TestSignedLaplacian:
    def test_single_negative_edge(self):
        net = Network(2, (Edge(1, 2, -1.0),))
        assert np.array_equal(laplacian(net), [[1, 1], [1, 1]])

    def test_mixed_path(self):
        net = Network(3, (Edge(1, 2, 1.0), Edge(2, 3, -1.0)))
        assert np.array_equal(laplacian(net),
                              [[1, -1, 0], [-1, 2, 1], [0, 1, 1]])

    def test_g8_signed_negative_edge_entry(self, g8_signed):
        net, _, _ = g8_signed
        Ls = laplacian(net)
        assert Ls[1, 2] == 1.0  # edge (2,3) has weight -1
        assert Ls[1, 1] == 2.0  # node 2 degree counts magnitudes


class TestStructuralBalance:
    def test_all_positive_graph(self):
        part = structural_balance_partition(PATH3)
        assert part == (frozenset({1, 2, 3}), frozenset())

    def test_g8_signed_partition(self, g8_signed):
        net, _, _ = g8_signed
        part = structural_balance_partition(net)
        assert part == (frozenset({1, 2, 5, 6}), frozenset({3, 4, 7, 8}))

    def test_one_negative_triangle_unbalanced(self):
        net = Network(3, (Edge(1, 2), Edge(2, 3), Edge(1, 3, -1.0)))
        assert structural_balance_partition(net) is None

    def test_requires_connected(self):
        net = Network(3, (Edge(1, 2),))
        with pytest.raises(GraphError, match="connected"):
            structural_balance_partition(net)

    def test_node_one_anchored_and_relabel_stable(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(3, 11))
            net, sides = random_balanced_signed_net(rng, n)
            part = structural_balance_partition(net)
            assert part is not None
            v1, v2 = part
            assert 1 in v1
            # The two-coloring is forced by the edge signs, so it must equal
            # the generating sides up to the anchor's side.
            expected_v1 = frozenset(i + 1 for i in range(n) if sides[i] == sides[0])
            assert v1 == expected_v1
            # Relabel by a random permutation: the partition must permute
            # along, with the set containing the new node 1 listed first.
            perm = {old: new + 1 for new, old in
                    enumerate(rng.permutation(np.arange(1, n + 1)))}
            relabeled = Network(n, tuple(
                Edge(min(perm[e.i], perm[e.j]), max(perm[e.i], perm[e.j]), e.w)
                for e in net.edges))
            rpart = structural_balance_partition(relabeled)
            mapped = frozenset(perm[i] for i in v1)
            complement = frozenset(range(1, n + 1)) - mapped
            assert rpart == ((mapped, complement) if 1 in mapped
                             else (complement, mapped))


class TestGauge:
    def test_all_positive_gauge_is_identity(self):
        part = structural_balance_partition(PATH3)
        assert np.array_equal(gauge_matrix(part), np.eye(3))

    def test_g8_signed_gauge(self, g8_signed):
        net, _, _ = g8_signed
        G = gauge_matrix(structural_balance_partition(net))
        assert np.array_equal(G.diagonal(), [1, 1, -1, -1, 1, 1, -1, -1])

    def test_conjugation_recovers_unsigned_laplacian(self, g8_signed):
        net, _, _ = g8_signed
        G = gauge_matrix(structural_balance_partition(net))
        lhs = G @ laplacian(net) @ G
        assert np.abs(lhs - laplacian(net.absolute())).max() < 1e-12

    def test_conjugation_identity_on_random_balanced_nets(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            net, _ = random_balanced_signed_net(rng, int(rng.integers(2, 13)))
            part = structural_balance_partition(net)
            assert part is not None
            G = gauge_matrix(part)
            defect = np.abs(G @ laplacian(net) @ G
                            - laplacian(net.absolute())).max()
            assert defect < 1e-12


class TestConnectivity:
    def test_k2_connected(self):
        assert is_connected(K2)

    def test_isolated_nodes(self):
        assert not is_connected(Network(2, ()))

    def test_g12_connected(self, g12):
        assert is_connected(g12[0])

    def test_diameter_path(self):
        assert diameter(PATH3) == 2

    def test_diameter_t12(self, t12):
        assert diameter(t12[0]) == 4


class TestReducedLaplacian:
    def test_g6_fsn_row_of_agent_2(self, g6):
        net, cfg, _ = g6
        pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
        L = reduced_laplacian(fsn_san(net, cfg, pair.vector))
        assert np.array_equal(L[1], [-1, 1, 0, 0, 0, 0])

    def test_empty_reduction_is_zero(self):
        assert np.array_equal(reduced_laplacian(DirectedNetwork(3, ())),
                              np.zeros((3, 3)))

    def test_t12_core_rows_have_single_offdiagonal(self):
        dnet = DirectedNetwork(12, tuple(Arc(a, b) for a, b in sorted(T12_FSN)))
        L = reduced_laplacian(dnet)
        for row in (3, 5):  # agents 4 and 6
            off = [v for k, v in enumerate(L[row]) if k != row and v != 0]
            assert off == [-1.0]

    def test_unit_weight_diagonals_are_counts(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            net = random_connected_net(rng, n)
            cfg = SemiAutonomousConfig(1, (LeaderLink(1, 1),))
            pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
            L = reduced_laplacian(fsn_san(net, cfg, pair.vector))
            diag = L.diagonal()
            assert np.array_equal(diag, np.round(diag))
            assert diag.min() >= 0

    def test_signed_reduced_uses_magnitudes(self):
        dnet = DirectedNetwork(2, (Arc(1, 2, -2.0),))
        L = reduced_laplacian(dnet)
        assert np.array_equal(L, [[2, 2], [0, 0]])


class TestAugmented:
    def test_adds_one_node_per_input(self, g8_signed):
        net, cfg, _ = g8_signed
        aug = augmented_signed_network(net, cfg)
        assert aug.n == net.n + cfg.m
        assert len(aug.edges) == len(net.edges) + len(cfg.leader_links)
        assert aug.weights[(4, 9)] == -1.0


def reference_network_check(n, edges):
    """The per-edge check the array validation replaced, as the reference."""
    seen, load = set(), {}
    for e in edges:
        if e.i == e.j:
            return f"self-loop at node {e.i}"
        if not (1 <= e.i <= n and 1 <= e.j <= n):
            return f"edge ({e.i},{e.j}) outside 1..{n}"
        if e.w == 0 or not math.isfinite(e.w):
            return f"edge ({e.i},{e.j}) has invalid weight {e.w}"
        if e.key() in seen:
            return f"duplicate edge ({e.i},{e.j})"
        seen.add(e.key())
        for node in (e.i, e.j):
            load[node] = load.get(node, 0.0) + abs(e.w)
            if not math.isfinite(load[node]):
                return f"node {node}: "
    return None


def reference_arc_check(n, arcs):
    seen, load = set(), {}
    for a in arcs:
        if a.follower == a.followed:
            return f"self-arc at node {a.follower}"
        if not (1 <= a.follower <= n and 1 <= a.followed <= n):
            return f"arc ({a.follower},{a.followed}) outside 1..{n}"
        if (a.follower, a.followed) in seen:
            return f"duplicate arc ({a.follower},{a.followed})"
        seen.add((a.follower, a.followed))
        load[a.follower] = load.get(a.follower, 0.0) + abs(a.w)
        if not math.isfinite(load[a.follower]):
            return f"node {a.follower}: "
    return None


WEIGHTS = st.one_of(st.sampled_from([1.0, -2.0, 0.0, -0.0, 1e308, -1e308, 9e307,
                                     math.inf, math.nan]),
                    st.floats(-3, 3))
RECORDS = st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6), WEIGHTS),
                   max_size=10)


@given(st.integers(1, 5), RECORDS)
@settings(max_examples=400, deadline=None)
def test_array_validation_refuses_as_the_per_edge_check(n, records):
    """Constructor and from_arrays accept what the per-edge check accepts and
    refuse the rest with its message for the first bad edge or arc."""
    for make, record, reference in ((Network, Edge, reference_network_check),
                                    (DirectedNetwork, Arc, reference_arc_check)):
        want = reference(n, [record(*r) for r in records])
        for build in (lambda: make(n, [record(*r) for r in records]),
                      lambda: make.from_arrays(n, *(list(c) for c in zip(*records)))
                      if records else make.from_arrays(n, [], [], [])):
            if want is None:
                assert len(build().w) == len(records)
            else:
                with pytest.raises(GraphError) as err:
                    build()
                assert str(err.value).startswith(want)
