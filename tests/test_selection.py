import ast
import importlib
import inspect
import pkgutil
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fsnlab
from fsnlab import (Arc, DirectedNetwork, Edge, GraphError, LeaderLink,
                    Network, SemiAutonomousConfig, block_cut_tree,
                    classify_fiedler, ffn_san,
                    fiedler_pair, fsn_fan, fsn_san,
                    laplacian, load_fixture, perturbed_laplacian,
                    principal_pair_perturbed,
                    reachable_from, reachable_from_inputs, reduced_spectrum,
                    reduced_laplacian)
from fsnlab import cli
from fsnlab.model import MODES, Model
from fsnlab.spectral import SpectralError, symmetric_eigh
from fsnlab.thresholds import EIG_TOL, SYMMETRY_TOL

from test_perfbench_names import SCRIPTS, package_reads
from oracles import (diameter, fiedler_lower_bound, reduced_symmetric_fiedler,
                     tree_diameter_bound)
from conftest import (G6_FSN, G8_FFN, G8_FSN, G12_FSN, T12_FSN, edge_weight,
                      random_balanced_signed_net, random_connected_net,
                      random_leader_cfg, random_tree)


def all_leaders(n):
    return SemiAutonomousConfig(
        n, tuple(LeaderLink(i, i) for i in range(1, n + 1)))


def san_pair(net, cfg):
    return principal_pair_perturbed(perturbed_laplacian(net, cfg))


def fan_selection(net):
    pair = fiedler_pair(laplacian(net))
    cls = classify_fiedler(block_cut_tree(net), pair.vector)
    return fsn_fan(net, pair.vector, cls), pair, cls


def is_acyclic(dnet):
    out = {u: [b for a, b in dnet.arc_set if a == u] for u in range(1, dnet.n + 1)}
    state = {i: 0 for i in range(1, dnet.n + 1)}  # 0 new, 1 open, 2 done
    for s in state:
        if state[s]:
            continue
        stack = [(s, iter(out[s]))]
        state[s] = 1
        while stack:
            u, it = stack[-1]
            for v in it:
                if state[v] == 1:
                    return False
                if state[v] == 0:
                    state[v] = 1
                    stack.append((v, iter(out[v])))
                    break
            else:
                state[u] = 2
                stack.pop()
    return True


class TestFsnSan:
    def test_g6_chain(self, g6):
        net, cfg, _ = g6
        dnet = fsn_san(net, cfg, san_pair(net, cfg).vector)
        assert dnet.arc_set == G6_FSN

    def test_g8_matches_reference_drawing(self, g8):
        net, cfg, _ = g8
        dnet = fsn_san(net, cfg, san_pair(net, cfg).vector)
        assert dnet.arc_set == G8_FSN

    def test_all_leaders_drops_everything(self):
        net = Network(4, (Edge(1, 2), Edge(2, 3), Edge(3, 4), Edge(1, 4)))
        cfg = all_leaders(4)
        dnet = fsn_san(net, cfg, san_pair(net, cfg).vector)
        assert dnet.arc_set == frozenset()

    def test_rejects_non_positive_vector(self, g8):
        net, cfg, _ = g8
        with pytest.raises(GraphError, match="positive"):
            fsn_san(net, cfg, np.linspace(-1, 1, 8))


class TestFfnSan:
    def test_g8_is_reversal(self, g8):
        net, cfg, _ = g8
        assert ffn_san(net, cfg, san_pair(net, cfg).vector).arc_set == G8_FFN

    def test_g6_is_reversal_of_fsn(self, g6):
        net, cfg, _ = g6
        v1 = san_pair(net, cfg).vector
        fsn = fsn_san(net, cfg, v1).arc_set
        assert ffn_san(net, cfg, v1).arc_set == frozenset(
            (b, a) for a, b in fsn)

    def test_all_leaders_drops_everything(self):
        net = Network(3, (Edge(1, 2), Edge(2, 3), Edge(1, 3)))
        cfg = all_leaders(3)
        assert ffn_san(net, cfg, san_pair(net, cfg).vector).arc_set == frozenset()


class TestFsnFan:
    def test_g12_matches_reference_drawing(self, g12):
        net, _, _ = g12
        dnet, _, _ = fan_selection(net)
        assert dnet.arc_set == G12_FSN

    def test_t12_matches_reference_drawing(self, t12):
        net, _, _ = t12
        dnet, _, _ = fan_selection(net)
        assert dnet.arc_set == T12_FSN

    def test_k2_unchanged(self):
        net = Network(2, (Edge(1, 2),))
        dnet, _, _ = fan_selection(net)
        assert dnet.arc_set == frozenset({(1, 2), (2, 1)})

    def test_core_node_retained_by_neighbors_only(self):
        # Odd path: the middle node is the core; its neighbors keep it,
        # it keeps nobody.
        net = Network(5, tuple(Edge(i, i + 1) for i in range(1, 5)))
        dnet, _, cls = fan_selection(net)
        assert cls.case == "core-node" and cls.core_node == 3
        assert (2, 3) in dnet.arc_set and (4, 3) in dnet.arc_set
        assert 3 not in dnet.i.tolist()

    def test_zero_block_stays_bidirectional(self):
        net = Network(7, (Edge(1, 2), Edge(2, 3), Edge(3, 4), Edge(4, 5),
                          Edge(3, 6), Edge(3, 7), Edge(6, 7)))
        dnet, _, cls = fan_selection(net)
        for a, b in ((3, 6), (6, 3), (3, 7), (7, 3), (6, 7), (7, 6)):
            assert (a, b) in dnet.arc_set

    def test_classification_of_another_edge_list_is_refused(self, g12):
        # Each edge's block is read by edge index, so only the classified
        # network's own edge arrays, in their order, are accepted.
        net, _, _ = g12
        _, pair, cls = fan_selection(net)
        edges = net.edges
        for other in (Network(12, edges[::-1]), Network(12, edges[1:] + edges[:1]),
                      Network(13, edges + (Edge(12, 13),))):
            with pytest.raises(GraphError, match="different edge list"):
                fsn_fan(other, np.resize(pair.vector, other.n), cls)
        assert fsn_fan(Network(12, edges), pair.vector, cls).arc_set == G12_FSN

    def test_fan_reduction_leaves_the_block_views_unbuilt(self, g12):
        net, _, _ = g12
        model = Model(net, None)
        model.reduce("fan-fsn")
        assert {"blocks", "cut_nodes"}.isdisjoint(vars(model.blocks))


class TestFsnSignedSan:
    def test_g8_signed_matches_reference_drawing(self, g8_signed):
        net, cfg, _ = g8_signed
        pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
        dnet = fsn_san(net, cfg, pair.vector)
        assert dnet.arc_set == G8_FSN
        negatives = {(a.follower, a.followed) for a in dnet.arcs if a.w < 0}
        assert negatives == {(2, 3), (6, 3), (6, 7)}

    def test_all_positive_input_reduces_to_unsigned_rule(self, g8):
        net, cfg, _ = g8
        v1 = san_pair(net, cfg).vector
        assert fsn_san(net, cfg, v1).arc_set == \
            fsn_san(net, cfg, v1).arc_set

    def test_two_node_negative_edge(self):
        net = Network(2, (Edge(1, 2, -1.0),))
        cfg = SemiAutonomousConfig(1, (LeaderLink(1, 1),))
        pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
        dnet = fsn_san(net, cfg, pair.vector)
        # Gauge oracle: flip node 2, solve the unsigned problem, map back.
        gauge = np.diag([1.0, -1.0])
        unsigned = Network(2, (Edge(1, 2, 1.0),))
        ref = fsn_san(unsigned, cfg, np.abs(gauge @ pair.vector))
        assert dnet.arc_set == ref.arc_set == frozenset({(2, 1)})

    def test_unbalanced_rejected(self):
        net = Network(3, (Edge(1, 2), Edge(2, 3), Edge(1, 3, -1.0)))
        cfg = SemiAutonomousConfig(1, (LeaderLink(1, 1),))
        with pytest.raises(GraphError, match="balanced"):
            fsn_san(net, cfg, np.array([0.5, 0.5, 0.7]))


class TestModelPair:
    """The unsigned leader-driven modes refuse signed input by name."""

    K2 = Network(2, (Edge(1, 2),))

    def test_rejects_signed_leader_link(self):
        cfg = SemiAutonomousConfig(1, (LeaderLink(1, 1, -1),))
        for mode in ("san-fsn", "san-ffn"):
            with pytest.raises(GraphError, match="signed variant"):
                Model(self.K2, cfg).pair(mode)

    def test_rejects_signed_network(self):
        net = Network(2, (Edge(1, 2, -1.0),))
        cfg = SemiAutonomousConfig(1, (LeaderLink(1, 1),))
        for mode in ("san-fsn", "san-ffn"):
            with pytest.raises(GraphError, match="signed variant"):
                Model(net, cfg).pair(mode)

    def test_network_is_checked_before_leader_links(self):
        net = Network(2, (Edge(1, 2, -1.0),))
        cfg = SemiAutonomousConfig(1, (LeaderLink(1, 1, -1),))
        with pytest.raises(GraphError, match="^network has negative weights"):
            Model(net, cfg).pair("san-fsn")


class TestModelModes:
    """A mode outside ``MODES`` is refused by name, never run as another."""

    UNKNOWN = ("unknown mode {!r}; valid modes: san-fsn, san-ffn, fan-fsn, "
               "signed-san-fsn")

    @pytest.mark.parametrize("call", ["pair", "select", "reduce"])
    def test_unknown_mode_is_refused(self, g8, call):
        with pytest.raises(GraphError) as info:
            getattr(Model(*g8[:2]), call)("san-fsm")
        assert str(info.value) == self.UNKNOWN.format("san-fsm")

    def test_unknown_mode_of_an_autonomous_model_is_not_a_leader_refusal(
            self, g12):
        with pytest.raises(GraphError) as info:
            Model(g12[0], None).pair("bogus")
        assert str(info.value) == self.UNKNOWN.format("bogus")

    def test_select_parser_offers_every_mode(self):
        parser = cli.build_parser()
        for mode in MODES:
            assert parser.parse_args(["select", "g8", "--mode", mode]).mode == mode


def test_one_name_per_function():
    """Every function of the package is bound under its own name in the
    module that defines it.  ``fsnlab`` itself binds other names only for
    the functions the benchmark harness reads by an older name, and each
    of those is the canonical function."""
    for info in pkgutil.iter_modules(fsnlab.__path__):
        module = importlib.import_module(f"fsnlab.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not obj.__name__.startswith("_")):
                assert name == obj.__name__, f"{module.__name__}.{name}"
    reads = set()
    for script in SCRIPTS:
        reads |= package_reads(ast.parse(script.read_text(), str(script)))
    harness = {name for _, name in (d.split(".", 1) for d in reads if d.count(".") == 1)
               if inspect.isfunction(obj := getattr(fsnlab, name)) and name != obj.__name__}
    aliases = {name for name, obj in vars(fsnlab).items()
               if inspect.isfunction(obj) and name != obj.__name__}
    assert aliases == harness
    for name in aliases:
        canonical = getattr(fsnlab, name)
        assert canonical is getattr(fsnlab, canonical.__name__)
        assert canonical is getattr(sys.modules[canonical.__module__], canonical.__name__)


class TestReachability:
    def test_g8_fsn_reaches_everyone(self, g8):
        net, cfg, _ = g8
        dnet = fsn_san(net, cfg, san_pair(net, cfg).vector)
        assert all(reachable_from_inputs(dnet, cfg).values())

    def test_g8_ffn_reaches_only_leaders(self, g8):
        net, cfg, _ = g8
        dnet = ffn_san(net, cfg, san_pair(net, cfg).vector)
        reach = reachable_from_inputs(dnet, cfg)
        assert {i for i, ok in reach.items() if ok} == {4, 8}

    def test_no_arcs_all_leaders(self):
        dnet = DirectedNetwork(3, ())
        assert all(reachable_from(dnet, {1, 2, 3}).values())


class TestFsnSanProperties:
    def test_reachability_on_random_networks(self):
        # 300 random connected leader-driven networks: every node reachable.
        rng = np.random.default_rng(20)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            net = random_connected_net(rng, n)
            cfg = random_leader_cfg(rng, n)
            dnet = fsn_san(net, cfg, san_pair(net, cfg).vector)
            assert all(reachable_from_inputs(dnet, cfg).values())
            assert is_acyclic(dnet)

    def test_rate_never_degrades(self):
        # Reduced smallest eigenvalue >= original, equality only when every
        # agent is a leader; with unit weights the reduced value is exactly 1.
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            net = random_connected_net(rng, n)
            cfg = random_leader_cfg(rng, n)
            pair = san_pair(net, cfg)
            dnet = fsn_san(net, cfg, pair.vector)
            lam_red = float(reduced_spectrum(dnet, cfg=cfg)[0])
            if len(cfg.leader_nodes) == net.n:
                assert dnet.arc_set == frozenset()
                assert abs(lam_red - 1.0) < 1e-12
                assert abs(pair.value - 1.0) < 1e-9
            else:
                assert abs(lam_red - 1.0) < 1e-12
                assert lam_red > pair.value

    def test_ffn_acyclic_too(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            net = random_connected_net(rng, n)
            cfg = random_leader_cfg(rng, n)
            assert is_acyclic(ffn_san(net, cfg, san_pair(net, cfg).vector))


class TestFsnFanProperties:
    def test_core_reaches_everyone(self):
        # 200 random connected autonomous networks with a separated second
        # eigenvalue: all agents reachable from the core region.
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 200:
            net = random_connected_net(rng, int(rng.integers(3, 13)))
            pair = fiedler_pair(laplacian(net))
            if not pair.is_simple:
                continue
            checked += 1
            cls = classify_fiedler(block_cut_tree(net), pair.vector)
            dnet = fsn_fan(net, pair.vector, cls)
            assert all(reachable_from(dnet, cls.core_nodes).values())

    def test_tree_reduction_hits_rate_one(self):
        # Non-star trees without zero blocks: the reduced second eigenvalue
        # is exactly 1 and beats the original, which stays below 0.59.
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 200:
            n = int(rng.integers(4, 13))
            net = random_tree(rng, n)
            if max(len(net.neighbors[i]) for i in range(1, n + 1)) == n - 1:
                continue  # star
            pair = fiedler_pair(laplacian(net))
            if not pair.is_simple:
                continue
            eps_zero = 1e-8 * float(np.abs(pair.vector).max())
            if any(abs(pair.vector[e.i - 1]) <= eps_zero
                   and abs(pair.vector[e.j - 1]) <= eps_zero
                   for e in net.edges):
                continue  # zero block
            checked += 1
            assert pair.value < 0.59
            cls = classify_fiedler(block_cut_tree(net), pair.vector)
            dnet = fsn_fan(net, pair.vector, cls)
            lam2_red = float(reduced_spectrum(dnet)[1])
            assert abs(lam2_red - 1.0) < 1e-12
            assert lam2_red > pair.value

    def test_diameter_bound_on_random_trees(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            net = random_tree(rng, int(rng.integers(2, 13)))
            lam2 = fiedler_pair(laplacian(net)).value
            assert lam2 <= tree_diameter_bound(diameter(net)) + 1e-9


@pytest.mark.parametrize("name", ["g6", "g8", "g12", "t12"])
@given(exponent=st.floats(-12.0, 12.0))
@example(exponent=-12.0)
@example(exponent=-9.0)
@example(exponent=12.0)
@settings(max_examples=30, deadline=None)
def test_fan_arcs_do_not_depend_on_the_weight_scale(name, exponent):
    # Every tolerance of the FAN path is relative to the matrix or vector
    # it judges, so scaling all weights by s changes no decision.
    net, _, _ = load_fixture(name)
    scaled = Network.from_arrays(net.n, net.i, net.j, 10.0**exponent * net.w)
    assert fan_selection(scaled)[0].arc_set == fan_selection(net)[0].arc_set


class TestSignedProperties:
    def test_gauge_equivariance(self):
        # The signed reduction equals the unsigned reduction of the
        # magnitude network, arcs identical and weights matching in size.
        rng = np.random.default_rng(26)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            net, _ = random_balanced_signed_net(rng, n)
            cfg = random_leader_cfg(rng, n)
            pair_s = principal_pair_perturbed(perturbed_laplacian(net, cfg))
            dnet_s = fsn_san(net, cfg, pair_s.vector)
            absnet = net.absolute()
            dnet_u = fsn_san(absnet, cfg, san_pair(absnet, cfg).vector)
            assert dnet_s.arc_set == dnet_u.arc_set
            for arc in dnet_s.arcs:
                assert abs(arc.w) == edge_weight(absnet, arc.follower, arc.followed)

    def test_unsigned_rules_accept_signed_pair(self):
        # fsn_san and ffn_san take the signed network and the pair of its
        # own perturbed Laplacian, and keep the arcs of |W|'s reduction.
        rng = np.random.default_rng(26)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            net, _ = random_balanced_signed_net(rng, n)
            cfg = random_leader_cfg(rng, n)
            v1 = principal_pair_perturbed(perturbed_laplacian(net, cfg)).vector
            absnet = net.absolute()
            v1_abs = san_pair(absnet, cfg).vector
            for rule in (fsn_san, ffn_san):
                assert (rule(net, cfg, v1).arc_set
                        == rule(absnet, cfg, v1_abs).arc_set)

    def test_signed_vector_with_zero_magnitude_rejected(self):
        net = Network(3, (Edge(1, 2, -1.0), Edge(2, 3)))
        cfg = SemiAutonomousConfig(1, (LeaderLink(1, 1),))
        for rule in (fsn_san, ffn_san):
            assert rule(net, cfg, np.array([0.5, -0.4, -0.3])).arcs
            with pytest.raises(GraphError, match="strictly positive"):
                rule(net, cfg, np.array([0.5, -0.4, 0.0]))

    def test_signed_rate_never_degrades(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            net, _ = random_balanced_signed_net(rng, n)
            cfg = random_leader_cfg(rng, n)
            pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
            dnet = fsn_san(net, cfg, pair.vector)
            lam_red = float(reduced_spectrum(dnet, cfg=cfg)[0])
            assert lam_red >= pair.value - 1e-9


    def test_fan_reduction_is_gauge_invariant(self):
        # The Laplacian of a balanced signed network is the gauge image of
        # the Laplacian of |W|, and so is that of its fan-fsn reduction:
        # the same arcs and the same reduced lambda2.
        rng = np.random.default_rng(28)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 13))
            net, _ = random_balanced_signed_net(rng, n)
            absolute = Model(net.absolute(), None)
            if not absolute.pair("fan-fsn").is_simple:
                continue
            dnet_u, report_u = absolute.reduce("fan-fsn")
            dnet_s, report_s = Model(net, None).reduce("fan-fsn")
            assert dnet_s.arc_set == dnet_u.arc_set
            scale = float(np.abs(laplacian(net)).max())
            lam_s = report_s["reduced"]["lambda2"]["value"]
            lam_u = report_u["reduced"]["lambda2"]["value"]
            assert abs(lam_s - lam_u) <= EIG_TOL * scale
            checked += 1
        assert checked >= 100


class TestFiedlerLowerBound:
    def test_nothing_removed_returns_lambda2(self, g12):
        net, _, _ = g12
        full = DirectedNetwork(net.n, tuple(
            Arc(a, b, e.w) for e in net.edges for a, b in ((e.i, e.j), (e.j, e.i))))
        lam2 = fiedler_pair(laplacian(net)).value
        _, vbar = reduced_symmetric_fiedler(full)
        assert abs(fiedler_lower_bound(laplacian(net), full, vbar) - lam2) < 1e-9

    @pytest.mark.parametrize("fixture", ["t12", "g12"])
    def test_bound_below_measured_on_fixtures(self, fixture, request):
        net, _, _ = request.getfixturevalue(fixture)
        dnet, _, _ = fan_selection(net)
        lam2_sym, vbar = reduced_symmetric_fiedler(dnet)
        bound = fiedler_lower_bound(laplacian(net), dnet, vbar)
        assert bound <= lam2_sym + 1e-9

    def test_bound_below_measured_on_random_networks(self):
        rng = np.random.default_rng(28)
        checked = 0
        while checked < 200:
            net = random_connected_net(rng, int(rng.integers(3, 13)))
            pair = fiedler_pair(laplacian(net))
            if not pair.is_simple:
                continue
            checked += 1
            cls = classify_fiedler(block_cut_tree(net), pair.vector)
            dnet = fsn_fan(net, pair.vector, cls)
            lam2_sym, vbar = reduced_symmetric_fiedler(dnet)
            bound = fiedler_lower_bound(laplacian(net), dnet, vbar)
            assert bound <= lam2_sym + 1e-9


class TestTreeDiameterBound:
    def test_diameter_two(self):
        assert abs(tree_diameter_bound(2) - 1.0) < 1e-12

    def test_diameter_four(self):
        assert abs(tree_diameter_bound(4) - 0.3819660112501051) < 1e-9

    def test_t12_within_bound(self, t12):
        net, _, _ = t12
        lam2 = fiedler_pair(laplacian(net)).value
        assert abs(lam2 - 0.2148) < 1e-3
        assert lam2 <= tree_diameter_bound(4)

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_monotone_decreasing_to_zero(self, diam):
        assert tree_diameter_bound(diam + 1) < tree_diameter_bound(diam)
        assert tree_diameter_bound(diam) > 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tree_diameter_bound(0)


def dense_reduced_spectrum(dnet, cfg=None):
    """The spectrum as first written: the dense n x n generator, with its
    diagonal blocks cut out of it one strongly connected component at a time."""
    L = reduced_laplacian(dnet)
    if cfg is not None:
        for link in cfg.leader_links:
            L[link.node - 1, link.node - 1] += 1.0
    nx = pytest.importorskip("networkx")
    arcs = nx.DiGraph()
    arcs.add_nodes_from(range(1, dnet.n + 1))
    arcs.add_edges_from(zip(dnet.i.tolist(), dnet.j.tolist()))
    values = []
    for comp in map(sorted, nx.strongly_connected_components(arcs)):
        idx = np.array([c - 1 for c in comp])
        block = L[np.ix_(idx, idx)]
        if len(comp) == 1:
            values.append(float(block[0, 0]))
        else:
            sym_defect = float(np.abs(block - block.T).max())
            if sym_defect > 1e-9 * max(1.0, float(np.abs(block).max())):
                raise GraphError(
                    "strongly connected component has an asymmetric generator "
                    "block; spectrum cannot be read structurally")
            w, _ = symmetric_eigh(block)
            values.extend(float(x) for x in w)
    return np.sort(np.array(values))


def assert_same_spectrum(dnet, cfg=None):
    """reduced_spectrum equals the dense construction bit for bit, or both
    refuse with the same message."""
    try:
        want = dense_reduced_spectrum(dnet, cfg)
    except GraphError as exc:
        with pytest.raises(GraphError, match=f"^{exc}$"):
            reduced_spectrum(dnet, cfg)
        return
    got = reduced_spectrum(dnet, cfg)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestReducedSpectrumOracle:
    """reduced_spectrum never builds the dense generator, yet returns its
    block spectrum bit for bit."""

    @pytest.mark.parametrize("name", ["g6", "g8", "g8-signed", "g12", "t12"])
    def test_fixtures_every_mode(self, name):
        net, cfg, _ = load_fixture(name)
        model = Model(net, cfg)
        checked = 0
        for mode in ("san-fsn", "san-ffn", "fan-fsn", "signed-san-fsn"):
            try:
                dnet = model.select(mode)
            except (GraphError, SpectralError):
                continue  # not a mode of this fixture
            checked += 1
            assert_same_spectrum(dnet, None)
            if cfg is not None:
                assert_same_spectrum(dnet, cfg)
        assert checked >= 1

    def test_random_reductions(self):
        # Every edge kept one way, both ways or not at all, with signed
        # weights: acyclic parts, symmetric components and asymmetric cycles.
        rng = np.random.default_rng(40)
        for _ in range(300):
            n = int(rng.integers(1, 14))
            net = random_connected_net(rng, n, weights=lambda r: r.uniform(-2, 2))
            arcs = []
            for e in net.edges:
                keep = int(rng.integers(0, 4))
                if keep & 1:
                    arcs.append(Arc(e.i, e.j, e.w))
                if keep & 2:
                    arcs.append(Arc(e.j, e.i, e.w))
            rng.shuffle(arcs)
            dnet = DirectedNetwork(n, tuple(arcs))
            cfg = random_leader_cfg(rng, n)
            assert_same_spectrum(dnet, None)
            assert_same_spectrum(dnet, cfg)

    def test_random_fan_selections(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            net = random_connected_net(rng, int(rng.integers(3, 13)))
            pair = fiedler_pair(laplacian(net))
            if pair.is_simple:
                assert_same_spectrum(fan_selection(net)[0])

    def test_chained_mutual_pairs(self):
        # 200 two-node components, each pair following the next one way:
        # every block is nontrivial and every pair is its own component.
        rng = np.random.default_rng(42)
        pairs = 200
        arcs = []
        for k in range(pairs):
            a, b, w = 2 * k + 1, 2 * k + 2, float(rng.uniform(0.5, 2))
            arcs += [Arc(a, b, w), Arc(b, a, w)]
            if k + 1 < pairs:
                arcs.append(Arc(b, b + 1, float(rng.uniform(0.5, 2))))
        dnet = DirectedNetwork(2 * pairs, tuple(arcs))
        assert_same_spectrum(dnet, None)
        assert_same_spectrum(dnet, random_leader_cfg(rng, 2 * pairs))

    def test_large_fan_selection(self):
        rng = np.random.default_rng(43)
        while True:
            net = random_connected_net(rng, 300)
            if fiedler_pair(laplacian(net)).is_simple:
                break
        dnet = fan_selection(net)[0]
        arcs = set(zip(dnet.i.tolist(), dnet.j.tolist()))
        assert {(j, i) for i, j in arcs} & arcs     # a nontrivial component
        assert_same_spectrum(dnet)

    @pytest.mark.parametrize("exponent", range(-12, 13))
    def test_asymmetric_cycle_is_refused_at_every_scale(self, exponent):
        # A directed 3-cycle has eigenvalues 1.5 w +- 0.866 w i; no weight
        # scale may let its block pass as symmetric.
        w = 10.0**exponent
        dnet = DirectedNetwork(3, (Arc(1, 2, w), Arc(2, 3, w), Arc(3, 1, w)))
        with pytest.raises(GraphError, match="asymmetric generator block"):
            reduced_spectrum(dnet)

    @pytest.mark.parametrize("defect", [5e-10, 5e-9])
    def test_asymmetric_block_is_refused_at_the_solver_tolerance(self, defect):
        # Above the eigensolver's symmetry tolerance the block is refused
        # by reduced_spectrum itself, before the solver sees it.
        assert defect > SYMMETRY_TOL
        dnet = DirectedNetwork(3, (Arc(1, 2, 1.0), Arc(2, 1, 1.0 + defect),
                                   Arc(3, 1, 1.0)))
        with pytest.raises(GraphError, match="asymmetric generator block"):
            reduced_spectrum(dnet)

    def test_no_dense_generator(self):
        # The dense generator of a 4000-node path alone is 128 MB.
        n = 4000
        dnet = DirectedNetwork(n, tuple(Arc(i + 1, i, 1.0) for i in range(1, n)))
        tracemalloc.start()
        try:
            values = reduced_spectrum(dnet)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values[0] == 0.0 and values[-1] == 1.0
        assert peak < 16e6
