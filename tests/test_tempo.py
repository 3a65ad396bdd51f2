import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fsnlab import (Edge, Model, Network, SemiAutonomousConfig, LeaderLink,
                    SimulationConfig, TempoError, block_cut_tree,
                    classify_fiedler, distributed_select,
                    fiedler_pair, fsn_fan, fsn_san,
                    g_ratio_series, laplacian, perturbed_laplacian,
                    principal_pair_perturbed, simulate)

from fsnlab import tempo
from fsnlab.dynamics import BLOCK, step_map, step_powers
from fsnlab.graphs import DirectedNetwork
from fsnlab.thresholds import DEFAULT_EPS, TIE_MARGIN, UNIT_ROUNDOFF, zero_entries

from oracles import tempo_limit_from_eigvec, tempo_limit_oracle
from conftest import (G6_FSN, G8_FSN, T12_FSN, edge_weight, random_connected_net,
                      random_leader_cfg, random_tree)


def san_traj(net, cfg, x0, horizon=60.0, dt=0.01):
    L_B = perturbed_laplacian(net, cfg)
    forcing = cfg.input_matrix(net.n) @ cfg.input_vectors()
    return simulate(L_B, forcing, x0, SimulationConfig(dt=dt, horizon=horizon))


def at_time(traj, series, t):
    k = int(np.argmin(np.abs(traj.times - t)))
    return float(series[k - 1])


class TestTempoLimit:
    def test_g8_pair_ratios(self, g8):
        net, cfg, _ = g8
        v1 = principal_pair_perturbed(perturbed_laplacian(net, cfg)).vector
        assert abs(tempo_limit_from_eigvec(v1, [7], [3]) - 1.0577) < 1e-3
        assert abs(tempo_limit_from_eigvec(v1, [7], [6]) - 0.8113) < 1e-3
        assert abs(tempo_limit_from_eigvec(v1, [7], [8]) - 1.4694) < 1e-3

    def test_equal_groups_give_one(self, g8):
        net, cfg, _ = g8
        v1 = principal_pair_perturbed(perturbed_laplacian(net, cfg)).vector
        assert tempo_limit_from_eigvec(v1, [2, 5], [2, 5]) == 1.0

    def test_t12_leaf_ratio(self, t12):
        net, _, _ = t12
        v2 = fiedler_pair(laplacian(net)).vector
        assert abs(tempo_limit_from_eigvec(v2, [1], [11]) - 0.785) < 1e-2

    def test_zero_group_rejected(self):
        # An entry 1e-10 of the largest is zero to the selections as well.
        for small in (0.0, 1e-10):
            v = np.array([1.0, small])
            assert zero_entries(v).tolist() == [False, True]
            with pytest.raises(TempoError, match="zero"):
                tempo_limit_from_eigvec(v, [1], [2])


class TestGRatioSeries:
    def test_g8_values_at_t10(self, g8):
        net, cfg, _ = g8
        x0 = np.random.default_rng(7).random((8, 3))
        traj = san_traj(net, cfg, x0, horizon=12.0)
        assert abs(at_time(traj, g_ratio_series(traj, 7, 3), 10.0) - 1.057) < 0.02
        assert abs(at_time(traj, g_ratio_series(traj, 7, 6), 10.0) - 0.8123) < 0.02
        assert abs(at_time(traj, g_ratio_series(traj, 7, 8), 10.0) - 1.47) < 0.02

    def test_t12_long_horizon_limit(self, t12):
        net, _, x0 = t12
        traj = simulate(laplacian(net), None, x0,
                        SimulationConfig(horizon=60.0))
        series = g_ratio_series(traj, 1, 3)
        assert abs(series[-1] - 3.299) < 0.02
        series = g_ratio_series(traj, 1, 11)
        assert abs(series[-1] - 0.785) < 0.02

    def test_too_short_rejected(self):
        traj = simulate(laplacian(Network(2, (Edge(1, 2),))), None,
                        np.array([0.0, 1.0]), SimulationConfig(dt=1e-3,
                                                               horizon=1e-3))
        from fsnlab import Trajectory
        single = Trajectory(traj.times[:1], traj.states[:1])
        with pytest.raises(TempoError, match="short"):
            g_ratio_series(single, 1, 2)

    @pytest.mark.parametrize("first_component", [False, True])
    def test_holds_the_last_ratio_above_the_noise_floor(self, g8,
                                                        first_component):
        # Per-sample reference: M is the running maximum of |x| over both
        # agents' coordinates from x0 on, and a step updates the estimate
        # only while |obs_j| > u M / eps.  By t = 400 the differences of g8
        # have sunk below that floor, so the tail repeats the last estimate.
        net, cfg, _ = g8
        x0 = np.random.default_rng(7).random((8, 3))
        traj = san_traj(net, cfg, x0, horizon=400.0, dt=0.05)
        x = traj.states[:, [6, 2]]
        peak, held, want, below = float(np.abs(x[0]).max()), np.nan, [], 0
        for k in range(1, len(x)):
            peak = max(peak, float(np.abs(x[k]).max()))
            dx = x[k] - x[k - 1]
            obs = (dx[:, 0] if first_component
                   else [math.sqrt(sum(v * v for v in row.tolist()))
                         for row in dx])
            if abs(obs[1]) > peak * (UNIT_ROUNDOFF / DEFAULT_EPS):
                held = obs[0] / obs[1]
            else:
                below += 1
            want.append(held)
        got = g_ratio_series(traj, 7, 3, first_component)
        assert below > 1000
        assert got.tobytes() == np.array(want).tobytes()

    def test_stalled_rounds_marked_nan(self):
        from fsnlab import Trajectory
        states = np.zeros((3, 2, 1))
        states[:, 0, 0] = [0.0, 1.0, 2.0]  # agent 2 never moves
        traj = Trajectory(np.array([0.0, 1.0, 2.0]), states)
        series = g_ratio_series(traj, 1, 2)
        assert np.isnan(series).all()


class TestFirstComponentRatio:
    def test_t12_core_pair_is_negative(self, t12):
        net, _, x0 = t12
        traj = simulate(laplacian(net), None, x0,
                        SimulationConfig(horizon=60.0))
        series = g_ratio_series(traj, 4, 6, first_component=True)
        v2 = fiedler_pair(laplacian(net)).vector
        expect = v2[3] / v2[5]
        assert abs(series[-1] - expect) < 1e-3
        assert abs(series[-1] - (-0.307)) < 0.01
        assert series[-1] < 0

    def test_same_agent_gives_one(self, t12):
        net, _, x0 = t12
        traj = simulate(laplacian(net), None, x0,
                        SimulationConfig(horizon=5.0))
        series = g_ratio_series(traj, 4, 4, first_component=True)
        assert np.allclose(series[~np.isnan(series)], 1.0)

    def test_core_node_denominator_diverges(self):
        # Odd path: the middle node's derivative dies fastest, so ratios
        # against it blow up instead of settling.
        net = Network(5, tuple(Edge(i, i + 1) for i in range(1, 5)))
        x0 = np.random.default_rng(3).random(5)
        traj = simulate(laplacian(net), None, x0,
                        SimulationConfig(horizon=40.0))
        series = g_ratio_series(traj, 2, 3, first_component=True)
        finite = series[~np.isnan(series)]
        assert abs(finite[-1]) > 100.0


class TestAlgorithm1:
    def test_g8_matches_centralized(self, g8):
        net, cfg, _ = g8
        x0 = np.random.default_rng(7).random((8, 3))
        dnet, report = distributed_select(Model(net, cfg), x0)
        assert dnet.arc_set == G8_FSN
        assert all(e.rounds > 0 for e in report.entries)

    def test_g6_matches_centralized(self, g6):
        net, cfg, _ = g6
        x0 = np.random.default_rng(11).random((6, 1))
        dnet, _ = distributed_select(Model(net, cfg), x0)
        assert dnet.arc_set == G6_FSN

    def test_all_leaders_retain_nothing(self):
        net = Network(3, (Edge(1, 2), Edge(2, 3), Edge(1, 3)))
        cfg = SemiAutonomousConfig(
            3, tuple(LeaderLink(i, i) for i in (1, 2, 3)),
            ((0.5,), (0.5,), (0.5,)))
        x0 = np.random.default_rng(5).random((3, 1))
        dnet, report = distributed_select(Model(net, cfg), x0)
        assert dnet.arc_set == frozenset()
        for e in report.entries:
            assert abs(e.g - 1.0) < 0.02

    def test_report_is_deterministic(self, g6):
        net, cfg, _ = g6
        x0 = np.random.default_rng(2).random((6, 1))
        _, r1 = distributed_select(Model(net, cfg), x0)
        _, r2 = distributed_select(Model(net, cfg), x0)
        assert r1 == r2

    def test_retained_flag_matches_threshold(self, g8):
        net, cfg, _ = g8
        x0 = np.random.default_rng(7).random((8, 3))
        dnet, report = distributed_select(Model(net, cfg), x0)
        for e in report.entries:
            assert e.retained == ((e.follower, e.followed) in dnet.arc_set)
            assert e.retained == (e.g is not None and e.g > 1.02)

    def test_round_cap_reported(self, g8):
        net, cfg, _ = g8
        x0 = np.random.default_rng(7).random((8, 3))
        with pytest.raises(TempoError, match="did not settle"):
            distributed_select(Model(net, cfg), x0, round_cap=10)

    def test_round_cap_message_shows_the_eps_passed(self, g8):
        net, cfg, _ = g8
        x0 = np.random.default_rng(7).random((8, 3))
        with pytest.raises(TempoError) as exc:
            distributed_select(Model(net, cfg), x0, round_cap=10)
        assert str(exc.value).endswith("within 10 rounds (delta=0.01, eps=0.0001)")
        with pytest.raises(TempoError) as exc:
            distributed_select(Model(net, cfg), x0, eps=1e-3, round_cap=10)
        assert str(exc.value).endswith("within 10 rounds (delta=0.01, eps=0.001)")

    def test_ordering_settles_before_termination(self, g8):
        # The sign of (g - 1) is fixed over the last quarter of the rounds:
        # agents know their ranking well before the estimates stop moving.
        net, cfg, _ = g8
        x0 = np.random.default_rng(7).random((8, 3))
        _, report = distributed_select(Model(net, cfg), x0)
        rounds = max(e.rounds for e in report.entries)
        traj = san_traj(net, cfg, x0, horizon=rounds * 0.01, dt=0.01)
        for e in report.entries:
            series = g_ratio_series(traj, e.follower, e.followed)
            tail = series[3 * rounds // 4:]
            tail = tail[~np.isnan(tail)]
            signs = np.sign(tail - 1.0)
            assert len(set(signs.tolist())) == 1

    @pytest.mark.parametrize("seed,sizes,dims,count", [
        (30, (3, 10), (1,), 100), (30, (8, 24), (1, 3), 60)],
        ids=["small", "large"])
    def test_matches_centralized_on_random_networks(self, seed, sizes, dims,
                                                    count):
        # Random leader-driven networks with generic initial data.
        # Near-ties are excluded, scaled to what the termination accuracy
        # eps/(delta*gap) can separate at the default settings.
        from fsnlab import smallest_eigenpairs
        rng = np.random.default_rng(seed)
        checked = 0
        while checked < count:
            n = int(rng.integers(sizes[0], sizes[1] + 1))
            d = int(rng.choice(dims))
            net = random_connected_net(rng, n)
            cfg = random_leader_cfg(rng, n, d=d, homogeneous=False)
            L_B = perturbed_laplacian(net, cfg)
            pair = principal_pair_perturbed(L_B)
            lam = smallest_eigenpairs(L_B, 2)
            gap = lam[1].value - lam[0].value
            accuracy = 1e-4 / (0.01 * max(gap, 1e-6))
            margins = []
            for e in net.edges:
                r = pair.vector[e.i - 1] / pair.vector[e.j - 1]
                margins.append(abs(r - 1.0))
                margins.append(abs(1.0 / r - 1.0))
            if min(margins) < max(0.05, 8.0 * accuracy):
                continue
            checked += 1
            x0 = rng.random((n, d))
            dnet, _ = distributed_select(Model(net, cfg), x0)
            assert dnet.arc_set == fsn_san(net, cfg, pair.vector).arc_set

    def test_g8_estimates_match_eigvec_ratios(self, g8):
        net, cfg, _ = g8
        v1 = principal_pair_perturbed(perturbed_laplacian(net, cfg)).vector
        x0 = np.random.default_rng(7).random((8, 3))
        _, report = distributed_select(Model(net, cfg), x0)
        for e in report.entries:
            assert abs(e.g - v1[e.follower - 1] / v1[e.followed - 1]) < 1e-3

    def test_g8_zero_inputs(self, g8):
        # The states decay to zero with the signal; the floor must not.
        net, cfg, _ = g8
        cfg = dataclasses.replace(cfg, inputs=((0.0,) * 3,) * cfg.m)
        x0 = np.random.default_rng(7).random((8, 3))
        assert distributed_select(Model(net, cfg), x0)[0].arc_set == G8_FSN

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_g8_scale_invariant(self, g8, scale):
        net, cfg, _ = g8
        x0 = np.random.default_rng(7).random((8, 3))
        scaled = dataclasses.replace(
            cfg, inputs=tuple(tuple(scale * v for v in u) for u in cfg.inputs))
        want_net, want = distributed_select(Model(net, cfg), x0)
        got_net, got = distributed_select(Model(net, scaled), scale * x0)
        assert got_net.arc_set == want_net.arc_set
        assert [e.rounds for e in got.entries] == [e.rounds for e in want.entries]

    @pytest.mark.parametrize("kind", ["leaders", "tree"])
    @pytest.mark.parametrize("arg,value", [
        ("delta", 0.0), ("delta", -0.01), ("delta", np.nan), ("delta", np.inf),
        ("eps", 0.0), ("eps", -1.0), ("eps", np.nan), ("eps", np.inf)])
    def test_bad_delta_or_eps_rejected(self, g8, t12, kind, arg, value):
        if kind == "leaders":
            net, cfg, _ = g8
            run = distributed_select
            args = (Model(net, cfg), np.random.default_rng(7).random((8, 3)))
        else:
            net, _, x0 = t12
            run, args = distributed_select, (Model(net, None), x0)
        with pytest.raises(TempoError, match=f"{arg} must be finite and "
                                             f"positive, got {value}$"):
            run(*args, **{arg: value})


class TestSampledTempoMatchesEigvec:
    def test_settled_g_on_random_networks(self):
        # 100 random leader-driven networks: the settled sampled ratio
        # agrees with the eigenvector ratio to 1e-2 relative error.
        from fsnlab import smallest_eigenpairs
        rng = np.random.default_rng(34)
        evaluated = 0
        for _ in range(100):
            n = int(rng.integers(2, 11))
            net = random_connected_net(rng, n)
            cfg = random_leader_cfg(rng, n)
            L_B = perturbed_laplacian(net, cfg)
            pair = principal_pair_perturbed(L_B)
            lam = smallest_eigenpairs(L_B, 2)
            gap = max(lam[1].value - lam[0].value, 0.05)
            # The ratio error shrinks like exp(-gap t) but the derivative
            # signal itself dies like exp(-lam1 t); skip cases where it
            # drops below the noise floor before the ratio can settle.
            stall_time = np.log(5e8 * max(lam[0].value, 1e-3)) / lam[0].value
            if np.exp(-gap * stall_time) > 5e-3:
                continue
            horizon = min(300.0, max(20.0, 14.0 / gap))
            x0 = rng.random((n, 1))
            traj = simulate(L_B, cfg.input_matrix(n) @ cfg.input_vectors(),
                            x0, SimulationConfig(dt=0.05, horizon=horizon))
            edge = net.edges[int(rng.integers(0, len(net.edges)))]
            series = g_ratio_series(traj, edge.i, edge.j)
            # The above-floor estimates, without the held repeats between.
            fresh = series[~np.isnan(series)]
            fresh = fresh[np.r_[True, fresh[1:] != fresh[:-1]]]
            if len(fresh) < 40:
                continue
            # Only a series that visibly settled can be compared; an
            # unluckily weak dominant mode may die before converging.
            tail = fresh[-40:]
            if float(tail.max() - tail.min()) > 1e-3:
                continue
            evaluated += 1
            want = tempo_limit_from_eigvec(pair.vector, [edge.i], [edge.j])
            assert abs(float(series[-1]) - want) < 1e-2 * max(1.0, want)
        assert evaluated >= 60


class TestDistributedFanTree:
    def test_t12_matches_reference_drawing(self, t12):
        net, _, x0 = t12
        dnet, report = distributed_select(Model(net, None), x0)
        assert dnet.arc_set == T12_FSN
        assert max(e.rounds for e in report.entries) > 0

    def test_star_rejected(self):
        star = Network(4, (Edge(1, 2), Edge(1, 3), Edge(1, 4)))
        x0 = np.random.default_rng(1).random(4)
        with pytest.raises(TempoError, match="repeated"):
            distributed_select(Model(star, None), x0)

    def test_zero_block_rejected(self):
        # Fiedler value 0.382 is simple; the vector is zero on nodes 1 and 6.
        spider = Network(6, tuple(Edge(i, j) for i, j in
                                  [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6)]))
        pair = fiedler_pair(laplacian(spider))
        assert pair.is_simple and abs(pair.value - 0.381966) < 1e-6
        with pytest.raises(TempoError, match=r"edge \(1,6\) joins two zero"):
            distributed_select(Model(spider, None), np.arange(6.0))

    def test_non_tree_rejected(self):
        net = Network(3, (Edge(1, 2), Edge(2, 3), Edge(1, 3)))
        with pytest.raises(TempoError, match="tree"):
            distributed_select(Model(net, None), np.zeros(3))

    def test_p4_matches_centralized(self):
        net = Network(4, tuple(Edge(i, i + 1) for i in range(1, 4)))
        pair = fiedler_pair(laplacian(net))
        cls = classify_fiedler(block_cut_tree(net), pair.vector)
        ref = fsn_fan(net, pair.vector, cls)
        x0 = np.random.default_rng(3).random(4)
        dnet, _ = distributed_select(Model(net, None), x0)
        assert dnet.arc_set == ref.arc_set

    def test_p5_core_node_handled_via_divergence(self):
        net = Network(5, tuple(Edge(i, i + 1) for i in range(1, 5)))
        pair = fiedler_pair(laplacian(net))
        cls = classify_fiedler(block_cut_tree(net), pair.vector)
        ref = fsn_fan(net, pair.vector, cls)
        x0 = np.random.default_rng(9).random(5)
        dnet, _ = distributed_select(Model(net, None), x0)
        assert dnet.arc_set == ref.arc_set
        assert 3 not in dnet.i.tolist()

    def test_signed_tree_rejected_with_cause(self):
        net = Network(6, tuple(Edge(i, i + 1, -1.0 if i == 3 else 1.0)
                               for i in range(1, 6)))
        x0 = np.random.default_rng(4).random(6)
        with pytest.raises(TempoError, match="negative"):
            distributed_select(Model(net, None), x0)

    def test_matches_centralized_on_random_trees(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 12:
            n = int(rng.integers(4, 13))
            edges = []
            for k in range(2, n + 1):
                edges.append(Edge(int(rng.integers(1, k)), k))
            net = Network(n, tuple(edges))
            pair = fiedler_pair(laplacian(net))
            if not pair.is_simple:
                continue
            v2 = pair.vector
            ez = 1e-8 * float(np.abs(v2).max())
            if any(abs(v2[e.i - 1]) <= ez and abs(v2[e.j - 1]) <= ez
                   for e in net.edges):
                continue
            margins = []
            for e in net.edges:
                if abs(v2[e.j - 1]) > ez and abs(v2[e.i - 1]) > ez:
                    r = v2[e.i - 1] / v2[e.j - 1]
                    margins.extend([abs(abs(r) - 1.0), abs(r), abs(1.0 / r)])
            if margins and min(margins) < 0.05:
                continue
            checked += 1
            cls = classify_fiedler(block_cut_tree(net), v2)
            ref = fsn_fan(net, v2, cls)
            x0 = rng.random(n)
            dnet, _ = distributed_select(Model(net, None), x0, eps=1e-6)
            assert dnet.arc_set == ref.arc_set


class TestTempoOracle:
    def test_k2_singletons(self):
        M = -laplacian(Network(2, (Edge(1, 2),)))
        x0 = np.array([0.3, 0.9])
        assert abs(tempo_limit_oracle(M, x0, [1], [2]) - 1.0) < 1e-12

    def test_g8_matches_eigvec_limit(self, g8):
        net, cfg, _ = g8
        L_B = perturbed_laplacian(net, cfg)
        pair = principal_pair_perturbed(L_B)
        rng = np.random.default_rng(17)
        x0 = rng.random(8)
        xdot0 = -(L_B @ x0) + (cfg.input_matrix(8) @ cfg.input_vectors())[:, 0]
        got = tempo_limit_oracle(-L_B, xdot0, [7], [3])
        assert abs(got - 1.0577) < 1e-3
        assert abs(got - tempo_limit_from_eigvec(pair.vector, [7], [3])) < 1e-9

    def test_repeated_dominant_eigenvalue_against_simulation(self):
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        M = Q @ np.diag([-3.0, -1.2, -0.4, -0.4]) @ Q.T
        x0 = rng.normal(size=4)
        traj = simulate(-M, None, x0, SimulationConfig(horizon=40.0))
        series = g_ratio_series(traj, 1, 2)
        finite = series[~np.isnan(series)]
        assert abs(tempo_limit_oracle(M, x0, [1], [2]) - finite[-1]) < 1e-3

    def test_orthogonal_start_rejected(self):
        M = np.diag([-2.0, -1.0])
        with pytest.raises(TempoError, match="orthogonal"):
            tempo_limit_oracle(M, np.array([1.0, 0.0]), [1], [2])

    def test_oracle_consistent_with_eigvec_limits_on_random_systems(self):
        # 200 random leader-driven networks: the trajectory-based limit
        # formula agrees with the eigenvector ratio whenever the dominant
        # eigenvalue is simple.
        rng = np.random.default_rng(32)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            net = random_connected_net(rng, n)
            cfg = random_leader_cfg(rng, n)
            L_B = perturbed_laplacian(net, cfg)
            pair = principal_pair_perturbed(L_B)
            x0 = rng.random(n)
            xdot0 = -(L_B @ x0) + (cfg.input_matrix(n) @
                                   cfg.input_vectors())[:, 0]
            i = int(rng.integers(1, n + 1))
            j = int(rng.integers(1, n + 1))
            try:
                got = tempo_limit_oracle(-L_B, xdot0, [i], [j])
            except TempoError:
                continue  # unlucky orthogonal start
            want = tempo_limit_from_eigvec(pair.vector, [i], [j])
            assert abs(got - want) < 1e-8 * max(1.0, want)

    def test_oracle_tracks_simulated_ratios(self):
        # Constructed spectra with a guaranteed gap: simulated difference
        # ratios converge to the oracle value within 1e-3.
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            lams = -np.sort(rng.uniform(1.0, 3.0, size=n))[::-1]
            lams[-1] = -0.4  # dominant, well separated
            if n > 2 and rng.random() < 0.3:
                lams[-2] = -0.4  # sometimes repeated
            M = Q @ np.diag(lams) @ Q.T
            x0 = rng.normal(size=n)
            i, j = 1, 2
            try:
                want = tempo_limit_oracle(M, x0, [i], [j])
            except TempoError:
                continue
            traj = simulate(-M, None, x0, SimulationConfig(horizon=40.0))
            series = g_ratio_series(traj, i, j)
            finite = series[~np.isnan(series)]
            assert abs(finite[-1] - want) < 1e-3


# (follower, followed, round of the agent's last estimate, retained, g) of
# every report entry of three reference runs.  Rounds and flags must repeat
# exactly: they decide the arc set; g may move only in its last bits.
PINNED_G8 = [
    (1, 6, 14328, True, 1.164857266885098),
    (2, 3, 14328, True, 1.239526981738169),
    (2, 6, 14328, False, 0.9505913940906774),
    (3, 2, 14364, False, 0.8066910569172745),
    (3, 4, 14364, True, 1.8582992094101258),
    (3, 6, 14364, False, 0.7670425307562654),
    (3, 7, 14364, False, 0.9453630590267769),
    (3, 8, 14364, True, 1.3893271794364201),
    (4, 3, 14212, False, 0.5379986190856696),
    (5, 6, 14328, True, 1.164831187019237),
    (6, 1, 14436, False, 0.8585986853950062),
    (6, 2, 14436, True, 1.0519296023548048),
    (6, 3, 14436, True, 1.303551656535167),
    (6, 5, 14436, False, 0.8585814030259592),
    (6, 7, 14436, True, 1.2325643582446015),
    (7, 3, 14328, True, 1.0575538916227252),
    (7, 6, 14328, False, 0.8112270419559726),
    (7, 8, 14328, True, 1.469215792472492),
    (8, 3, 14212, False, 0.7196916198066734),
    (8, 7, 14212, False, 0.6804925317501868),
]
PINNED_T12 = [
    (1, 4, 9450, True, 4.1992003280705354),
    (1, 11, 9450, False, 0.7850400164169916),
    (1, 12, 9450, False, 0.7850400164169916),
    (2, 4, 8858, True, 1.273468759618344),
    (3, 4, 8761, True, 1.27339747594652),
    (4, 1, 9338, False, 0.23826158430083222),
    (4, 2, 9338, False, 0.784847087751652),
    (4, 3, 9338, False, 0.7853220169745382),
    (4, 5, 9338, False, 0.7855034437520498),
    (4, 6, 9338, True, -0.3089588377723971),
    (5, 4, 8887, True, 1.2735910878112713),
    (6, 4, 9406, True, -3.2359632139399808),
    (6, 7, 9406, False, 0.7852641783809986),
    (6, 8, 9406, False, 0.7852641783809986),
    (6, 9, 9406, False, 0.7852641783809986),
    (6, 10, 9406, False, 0.7852641783809986),
    (7, 6, 9293, True, 1.273365617433414),
    (8, 6, 9293, True, 1.2734866828087168),
    (9, 6, 9293, True, 1.2734866828087168),
    (10, 6, 9293, True, 1.2734866828087168),
    (11, 1, 9338, True, 1.2735025172094934),
    (12, 1, 9338, True, 1.273605260454125),
]
PINNED_P5 = [
    (1, 2, 4895, True, 1.6177584031203396),
    (2, 1, 5021, False, 0.6179710810190499),
    (2, 3, 5021, True, 433897.5680536504),
    (3, 2, 4971, False, 0.00015339776039269826),
    (3, 4, 4971, False, 0.00012818869375721061),
    (4, 3, 5050, True, -381014.44943963323),
    (4, 5, 5050, False, 0.6181258812972695),
    (5, 4, 4924, True, 1.6182540699910268),
]

class TestEnginePinned:
    def check(self, report, pinned):
        got = [(e.follower, e.followed, e.rounds, e.retained)
               for e in report.entries]
        assert got == [p[:4] for p in pinned]
        for e, p in zip(report.entries, pinned):
            assert e.g == pytest.approx(p[4], rel=1e-12, abs=0)

    def test_g8(self, g8):
        net, cfg, _ = g8
        x0 = np.random.default_rng(7).random((8, 3))
        self.check(distributed_select(Model(net, cfg), x0)[1], PINNED_G8)

    def test_t12(self, t12):
        net, _, x0 = t12
        self.check(distributed_select(Model(net, None), x0)[1], PINNED_T12)

    def test_p5_core_node(self):
        net = Network(5, tuple(Edge(i, i + 1) for i in range(1, 5)))
        x0 = np.random.default_rng(9).random(5)
        self.check(distributed_select(Model(net, None), x0)[1], PINNED_P5)


# ------------------------------------------- super-blocked settle vs per-block


def per_block_settle(net, G, forcing, x0, observable, eps, delta,
                     round_cap, stall_hint):
    """The settle loop with all bookkeeping once per block, as it was before
    super-blocks, kept as the reference the super-blocked loop must match.

    ``observable`` is the engine's (agent-major); the reference takes the
    same quantity from its round-major differences with numpy's own
    reductions.
    """
    if observable is tempo._norm_over_d:
        observable = lambda dx: np.linalg.norm(dx, axis=2)  # noqa: E731
    else:
        observable = lambda dx: dx[:, :, 0]  # noqa: E731
    for name, value in (("eps", eps), ("delta", delta)):
        if not (math.isfinite(value) and value > 0):
            raise TempoError(f"{name} must be finite and positive, got {value}")
    n, d = x0.shape
    indptr, arc_j, edge = net.adjacency
    arc_i = np.repeat(np.arange(n), np.diff(indptr))
    floor = UNIT_ROUNDOFF / eps

    R, c = step_map(G, forcing, delta, "rk4")
    block = max(1, min(BLOCK, 2**20 // n**2))
    P, (C,) = step_powers(R, [c], block)

    g = np.zeros(len(arc_j))
    last = np.zeros(len(arc_j), dtype=int)
    hit = np.ones(len(arc_j), dtype=bool)
    cur, peak = x0, np.abs(x0).max(axis=1)
    for start in range(0, round_cap, block):
        b = min(block, round_cap - start)
        states = (P[:b * n] @ cur + C[:b * n]).reshape(b, n, d)
        obs = observable(np.diff(states, axis=0, prepend=cur[None]))
        seen = np.maximum.accumulate(
            np.vstack([peak, np.abs(states).max(axis=2)]), axis=0)[1:]
        scale = np.maximum(seen[:, arc_i], seen[:, arc_j])
        above = np.abs(obs[:, arc_j]) > floor * scale
        cur, peak = states[-1], seen[-1]
        hit = above.any(axis=0)
        if not hit.any():
            break
        k = b - 1 - np.argmax(above[::-1, hit], axis=0)
        g[hit] = obs[k, arc_i[hit]] / obs[k, arc_j[hit]]
        last[hit] = start + 1 + k
    else:
        raise TempoError(f"agents {sorted(set((arc_i[hit] + 1).tolist()))} did "
                         f"not settle within {round_cap} rounds{stall_hint}")

    rounds = np.zeros(n, dtype=int)
    np.maximum.at(rounds, arc_i, last)
    entries = []
    for a, (i, j) in enumerate(zip(arc_i.tolist(), arc_j.tolist())):
        ga = float(g[a]) if last[a] else None
        retained = ga is not None and (ga > 1.0 + TIE_MARGIN
                                       or ga < -TIE_MARGIN)
        entries.append(tempo.TempoEstimate(i + 1, j + 1, ga, int(rounds[i]),
                                           retained))
    kept = np.array([e.retained for e in entries], dtype=bool)
    dnet = DirectedNetwork.from_arrays(n, arc_i[kept] + 1, arc_j[kept] + 1,
                                       net.w[edge[kept]],
                                       name=f"{net.name}-fsn-distributed")
    return dnet, tempo.TempoReport(tuple(entries))


def outcome(run, *args, **kwargs):
    """(arcs, report) of a run, or the text of the TempoError it raised."""
    try:
        dnet, report = run(*args, **kwargs)
    except TempoError as exc:
        return str(exc)
    arcs = (dnet.n, dnet.name, dnet.i.tolist(), dnet.j.tolist(),
            dnet.w.tolist())
    return arcs, report


def settle_span(net, d):
    """Rounds per super-block of a run on ``net`` with d coordinates."""
    n = net.n
    block = max(1, min(BLOCK, 2**20 // n**2))
    m = 2 * len(net.edges)
    return block * max(1, tempo.SPAN_ELEMENTS // (block * max(m, n * d)))


@st.composite
def settle_cases(draw):
    n = draw(st.integers(3, 24))
    d = draw(st.integers(1, 3))
    tree = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if tree:
        net, cfg = random_tree(rng, n), None
    else:
        net = random_connected_net(rng, n)
        cfg = random_leader_cfg(rng, n, d=d)
    x0 = rng.random((n, d))
    eps = draw(st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5, 1e-6]))
    span = settle_span(net, d)
    cap = draw(st.one_of(st.none(), st.sampled_from(
        [1, BLOCK - 1, BLOCK, BLOCK + 1, span - 1, span, span + 1,
         2 * span - 1, 2 * span + 1, 3 * span])))
    return net, cfg, x0, eps, cap


@given(settle_cases())
@settings(max_examples=100, deadline=None)
def test_super_blocked_settle_matches_per_block_loop(case):
    net, cfg, x0, eps, cap = case
    if cfg is None:
        run, args = distributed_select, (Model(net, None), x0)
        cap = 2 * tempo.ROUND_CAP if cap is None else cap
    else:
        run, args = distributed_select, (Model(net, cfg), x0)
        cap = tempo.ROUND_CAP if cap is None else cap
    got = outcome(run, *args, eps=eps, round_cap=cap)
    with mock.patch.object(tempo, "_settle", per_block_settle):
        want = outcome(run, *args, eps=eps, round_cap=cap)
    assert got == want


def fixture_run(name, g8, t12):
    if name == "g8":
        net, cfg, _ = g8
        return net, distributed_select, (Model(net, cfg), np.random.default_rng(7).random((8, 3)))
    net, _, x0 = t12
    return net, distributed_select, (Model(net, None), x0)


@pytest.mark.parametrize("name", ["g8", "t12"])
def test_super_blocked_settle_ends_inside_a_super_block(name, g8, t12):
    # At the default caps the fixtures settle in a later super-block than
    # the first, with blocks computed past the first quiet one.
    net, run, args = fixture_run(name, g8, t12)
    got = outcome(run, *args)
    with mock.patch.object(tempo, "_settle", per_block_settle):
        assert got == outcome(run, *args)
    per_span = settle_span(net, args[-1].reshape(net.n, -1).shape[1]) // BLOCK
    quiet = (max(e.rounds for e in got[1].entries) - 1) // BLOCK + 1
    assert quiet >= per_span and (quiet + 1) % per_span != 0


@pytest.mark.parametrize("cap", [8900, 9000, 9100, 9400])
def test_super_blocked_settle_names_agents_of_the_last_block(cap, g8, t12):
    # t12's agents settle between rounds 8761 and 9450: at these caps some
    # were last above their floor inside the final super-block but not in
    # its last block, and the message leaves them out.
    _, run, args = fixture_run("t12", g8, t12)
    got = outcome(run, *args, round_cap=cap)
    with mock.patch.object(tempo, "_settle", per_block_settle):
        assert got == outcome(run, *args, round_cap=cap)
    assert "did not settle" in got


def edited_observable(monkeypatch, edit):
    """Make the leader observable call ``edit(index, obs)`` on the values of
    each super-block (agents x rounds, ``index`` counting super-blocks from
    0) before the engine sees them."""
    norm, index = tempo._norm_over_d, itertools.count()

    def observable(dx):
        obs = norm(dx)
        edit(next(index), obs)
        return obs

    monkeypatch.setattr(tempo, "_norm_over_d", observable)


def settle_paths(model, x0, monkeypatch):
    """The report of a run, and per super-block whether it took the full
    floor test: every super-block takes the observable once, and only the
    ones the certificate does not cover run ``above_floor``."""
    full, floor_test = [], tempo.above_floor

    def above_floor(*args):
        full[-1] = True
        return floor_test(*args)

    edited_observable(monkeypatch, lambda index, obs: full.append(False))
    monkeypatch.setattr(tempo, "above_floor", above_floor)
    got = outcome(distributed_select, model, x0)
    monkeypatch.undo()
    return got, full


def test_g8_takes_both_settle_paths(g8, monkeypatch):
    # The certified super-blocks come first; the last ones, where arcs go
    # quiet, take the full test.  Both give the per-block loop's report.
    net, cfg, _ = g8
    x0 = np.random.default_rng(7).random((8, 3))
    got, full = settle_paths(Model(net, cfg), x0, monkeypatch)
    with mock.patch.object(tempo, "_settle", per_block_settle):
        assert got == outcome(distributed_select, Model(net, cfg), x0)
    assert not full[0] and full[-1]


def test_certified_super_block_with_rising_states(g8, monkeypatch):
    # Inputs of ten times the leaders' x0 rows lift the states well above
    # x0 within the first super-block, so its running maximum rises while
    # the certificate, which bounds it by the super-block's largest state,
    # holds.
    net, cfg, _ = g8
    x0 = np.random.default_rng(7).random((8, 3))
    cfg = dataclasses.replace(cfg, inputs=tuple(
        tuple((10 * x0[link.node - 1]).tolist()) for link in cfg.leader_links))
    model = Model(net, cfg)
    got, full = settle_paths(model, x0, monkeypatch)
    with mock.patch.object(tempo, "_settle", per_block_settle):
        assert got == outcome(distributed_select, model, x0)
    assert got[1].entries and not full[0] and full[-1]
    span = settle_span(net, 3)
    traj = simulate(model.generator(), model.forcing, x0,
                    SimulationConfig(dt=0.01, horizon=0.01 * span))
    peak = np.abs(traj.states).max(axis=(0, 2))
    assert (peak > 2 * np.abs(x0).max(axis=1)).any()


def test_quiet_block_ends_a_super_block_whose_last_round_is_above(
        g8, monkeypatch):
    # Every arc is above its floor in the first super-block's last round,
    # but its second block is quiet: the run ends there and every arc
    # decides on round 64.  A certificate that read the last round alone
    # would run on.
    net, cfg, _ = g8
    x0 = np.random.default_rng(7).random((8, 3))

    def quiet(index, obs):
        if index == 0:
            obs[:, BLOCK:2 * BLOCK] = 0.0

    edited_observable(monkeypatch, quiet)
    _, report = distributed_select(Model(net, cfg), x0)
    assert {e.rounds for e in report.entries} == {BLOCK}


def test_run_ending_at_a_super_block_boundary_keeps_the_certified_estimates(
        g8, monkeypatch):
    # The first super-block is certified and the second one's first block
    # is quiet: every arc decides on the certified super-block's last round.
    net, cfg, _ = g8
    x0 = np.random.default_rng(7).random((8, 3))
    first = []

    def quiet_second(index, obs):
        if index == 0:
            first.append(obs.copy())
        else:
            obs[:, :BLOCK] = 0.0

    edited_observable(monkeypatch, quiet_second)
    _, report = distributed_select(Model(net, cfg), x0)
    obs = first[0]
    assert {e.rounds for e in report.entries} == {settle_span(net, 3)}
    assert [e.g for e in report.entries] == [
        obs[e.follower - 1, -1] / obs[e.followed - 1, -1] for e in report.entries]


def test_round_cap_after_a_certified_super_block_names_every_agent(
        g8, monkeypatch):
    # Agent 6's differences drop below the floor in the last block of the
    # first super-block, so it takes the full test and its last block
    # leaves out agents 1 and 5, whose only neighbor is 6.  The second
    # super-block is certified again and ends at the cap: every arc was
    # above its floor in its last block.
    net, cfg, _ = g8
    x0 = np.random.default_rng(7).random((8, 3))
    span = settle_span(net, 3)

    def dip(index, obs):
        if index == 0:
            obs[5, -BLOCK:] = 0.0

    edited_observable(monkeypatch, dip)
    with pytest.raises(TempoError) as exc:
        distributed_select(Model(net, cfg), x0, round_cap=2 * span)
    assert str(exc.value) == (f"agents [1, 2, 3, 4, 5, 6, 7, 8] did not settle "
                              f"within {2 * span} rounds (delta=0.01, eps=0.0001)")


def engine_and_simulated_estimates(model, x0, delta):
    """Per arc, the engine's estimate and the one ``g_ratio_series`` holds
    at its agent's last round on a ``simulate`` run of the same steps: a
    whole number of full blocks of ``BLOCK`` steps, at least BLOCK n (so
    that simulate's block is not capped by steps // n) and at least the
    engine's rounds."""
    _, report = distributed_select(model, x0, delta)
    rounds = max(e.rounds for e in report.entries)
    steps = BLOCK * -(-max(BLOCK * model.net.n, rounds) // BLOCK)
    sim = SimulationConfig(dt=delta, horizon=delta * steps)
    assert sim.steps == steps
    traj = simulate(model.generator(), model.forcing, x0, sim)
    return [(e.g, g_ratio_series(traj, e.follower, e.followed)[e.rounds - 1])
            for e in report.entries]


@pytest.mark.parametrize("delta", [0.01, 0.02, 0.05])
def test_engine_steps_g6_as_simulate_does(g6, delta):
    net, cfg, _ = g6
    x0 = np.random.default_rng(6).random((net.n, 1))
    pairs = engine_and_simulated_estimates(Model(net, cfg), x0, delta)
    assert pairs and all(g == held for g, held in pairs)


@given(st.integers(3, 12), st.integers(0, 2**32 - 1),
       st.sampled_from([0.01, 0.02, 0.05]))
@settings(max_examples=40, deadline=None)
def test_engine_steps_as_simulate_does(n, seed, delta):
    # Both step x' = f - G x with the same step map and full blocks, so
    # every estimate is the simulated one bit for bit.
    rng = np.random.default_rng(seed)
    net = random_connected_net(rng, n)
    model = Model(net, random_leader_cfg(rng, n, d=1))
    try:
        pairs = engine_and_simulated_estimates(model, rng.random((n, 1)), delta)
    except TempoError:
        assume(False)
    assert pairs and all(g == held for g, held in pairs)


def _agent_major(x):
    return np.ascontiguousarray(x.transpose(1, 2, 0))


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5),
                                        st.integers(1, 7)),
                  elements=st.floats(allow_nan=False)))
@example(np.array([[[5e-324, 2.2e-308, -1e-310], [1e300, -1e200, 3e154]]]))
@settings(max_examples=300, deadline=None)
def test_reductions_over_d_match_numpy_bit_for_bit(x):
    # x is (rounds, agents, d), the engine's norm reads (agents, d, rounds);
    # subnormal and huge entries underflow or overflow the squares.  Below
    # d = 8 numpy sums a contiguous d axis in order too (the wider case is
    # test_wide_leader_network_matches_centralized).
    with np.errstate(over="ignore", under="ignore"):
        norm = np.linalg.norm(x, axis=2).T
        got = tempo._norm_over_d(_agent_major(x))
    assert got.tobytes() == np.ascontiguousarray(norm).tobytes()


def test_wide_leader_network_matches_centralized(g8):
    # d = 12: the engine reduces the strided d axis in coordinate order,
    # round-major np.linalg.norm sums it pairwise; they may differ by rounding.
    net, cfg, _ = g8
    rng = np.random.default_rng(12)
    cfg = dataclasses.replace(cfg, inputs=tuple(
        tuple(rng.random(12).tolist()) for _ in range(cfg.m)))
    x0 = rng.random((8, 12))
    dnet, _ = distributed_select(Model(net, cfg), x0)
    v1 = principal_pair_perturbed(perturbed_laplacian(net, cfg)).vector
    assert dnet.arc_set == fsn_san(net, cfg, v1).arc_set == G8_FSN
    dx = np.diff(san_traj(net, cfg, x0, horizon=20.0).states, axis=0)
    want = np.linalg.norm(dx, axis=2).T
    got = tempo._norm_over_d(_agent_major(dx))
    assert (np.abs(got - want) <= 4 * np.spacing(want)).all()


# ------------------------------------------------ signed leader networks


@st.composite
def gauged_leader_cases(draw):
    """A leader network whose eigenvector ratios clear 1 by what the default
    settings resolve (as in test_matches_centralized_on_random_networks),
    its x0, and a gauge: the nodes whose sign flips."""
    n = draw(st.integers(3, 16))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        net = random_connected_net(rng, n)
        cfg = random_leader_cfg(rng, n, d=d)
        L_B = perturbed_laplacian(net, cfg)
        w = np.linalg.eigvalsh(L_B)
        v = principal_pair_perturbed(L_B).vector
        r = v[net.i - 1] / v[net.j - 1]
        accuracy = 1e-4 / (0.01 * max(w[1] - w[0], 1e-6))
        if np.abs(np.r_[r, 1.0 / r] - 1.0).min() >= max(0.05, 8.0 * accuracy):
            break
    flip = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return net, cfg, rng.random((n, d)), flip


@given(gauged_leader_cases())
@settings(max_examples=100, deadline=None)
def test_gauged_leader_network_runs_as_the_unsigned_one(case):
    # Flipping the sign of the nodes of V2 (the edges across the cut, the
    # leader links of V2 and the rows of x0) gives a balanced signed network
    # whose states are D x with D = diag(+-1): every difference norm, and
    # with it the whole report, is the unsigned run's, and so is the
    # centralized selection.  The signed run therefore equals fsn_san on the
    # signed network wherever the unsigned run equals it on the unsigned one.
    net, cfg, x0, flip = case
    side = np.where(flip, -1.0, 1.0)
    signed = Network.from_arrays(net.n, net.i, net.j,
                                 net.w * side[net.i - 1] * side[net.j - 1])
    links = tuple(dataclasses.replace(link, sign=int(side[link.node - 1]))
                  for link in cfg.leader_links)
    signed_cfg = dataclasses.replace(cfg, leader_links=links)
    dnet, report = distributed_select(Model(signed, signed_cfg),
                                      side[:, None] * x0)
    assert report == distributed_select(Model(net, cfg), x0)[1]
    assert all(a.w == edge_weight(signed, a.follower, a.followed)
               for a in dnet.arcs)
    pair = principal_pair_perturbed(perturbed_laplacian(signed, signed_cfg))
    v1 = principal_pair_perturbed(perturbed_laplacian(net, cfg)).vector
    assert (fsn_san(signed, signed_cfg, pair.vector).arc_set
            == fsn_san(net, cfg, v1).arc_set)


@pytest.mark.parametrize("seed", range(1, 21))
def test_g8_signed_matches_signed_centralized(g8_signed, seed):
    net, cfg, _ = g8_signed
    x0 = np.random.default_rng(seed).random((net.n, cfg.d or 1))
    pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
    dnet, _ = distributed_select(Model(net, cfg), x0)
    assert dnet.arc_set == fsn_san(net, cfg, pair.vector).arc_set
