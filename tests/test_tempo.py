import numpy as np
import pytest

from fsnlab import (Edge, Network, SemiAutonomousConfig, LeaderLink,
                    SimulationConfig, TempoError, block_cut_tree,
                    classify_fiedler, fiedler_pair, first_component_ratio,
                    fsn_fan, fsn_san, g_ratio_series, laplacian,
                    perturbed_laplacian, principal_pair_perturbed,
                    run_algorithm1, run_distributed_fan_tree, simulate,
                    tempo_limit_from_eigvec, tempo_limit_oracle)

from conftest import (G6_FSN, G8_FSN, T12_FSN, random_connected_net,
                      random_leader_cfg)


def san_traj(net, cfg, x0, horizon=60.0, dt=0.01):
    L_B = perturbed_laplacian(net, cfg)
    drive = (cfg.input_matrix(net.n), cfg.input_vectors())
    return simulate(L_B, drive, x0, SimulationConfig(dt=dt, horizon=horizon))


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
        with pytest.raises(TempoError, match="zero"):
            tempo_limit_from_eigvec(np.array([1.0, 0.0]), [1], [2])


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
        series = first_component_ratio(traj, 4, 6)
        v2 = fiedler_pair(laplacian(net)).vector
        expect = v2[3] / v2[5]
        assert abs(series[-1] - expect) < 1e-3
        assert abs(series[-1] - (-0.307)) < 0.01
        assert series[-1] < 0

    def test_same_agent_gives_one(self, t12):
        net, _, x0 = t12
        traj = simulate(laplacian(net), None, x0,
                        SimulationConfig(horizon=5.0))
        series = first_component_ratio(traj, 4, 4)
        assert np.allclose(series[~np.isnan(series)], 1.0)

    def test_core_node_denominator_diverges(self):
        # Odd path: the middle node's derivative dies fastest, so ratios
        # against it blow up instead of settling.
        net = Network(5, tuple(Edge(i, i + 1) for i in range(1, 5)))
        x0 = np.random.default_rng(3).random(5)
        traj = simulate(laplacian(net), None, x0,
                        SimulationConfig(horizon=40.0))
        series = first_component_ratio(traj, 2, 3)
        finite = series[~np.isnan(series)]
        assert abs(finite[-1]) > 100.0


class TestAlgorithm1:
    def test_g8_matches_centralized(self, g8):
        net, cfg, _ = g8
        x0 = np.random.default_rng(7).random((8, 3))
        dnet, report = run_algorithm1(net, cfg, x0)
        assert dnet.arc_set == G8_FSN
        assert all(e.rounds > 0 for e in report.entries)

    def test_g6_matches_centralized(self, g6):
        net, cfg, _ = g6
        x0 = np.random.default_rng(11).random((6, 1))
        dnet, _ = run_algorithm1(net, cfg, x0)
        assert dnet.arc_set == G6_FSN

    def test_all_leaders_retain_nothing(self):
        net = Network(3, (Edge(1, 2), Edge(2, 3), Edge(1, 3)))
        cfg = SemiAutonomousConfig(
            3, tuple(LeaderLink(i, i) for i in (1, 2, 3)),
            ((0.5,), (0.5,), (0.5,)))
        x0 = np.random.default_rng(5).random((3, 1))
        dnet, report = run_algorithm1(net, cfg, x0)
        assert dnet.arc_set == frozenset()
        for e in report.entries:
            assert abs(e.g - 1.0) < 0.02

    def test_report_is_deterministic(self, g6):
        net, cfg, _ = g6
        x0 = np.random.default_rng(2).random((6, 1))
        _, r1 = run_algorithm1(net, cfg, x0)
        _, r2 = run_algorithm1(net, cfg, x0)
        assert r1 == r2

    def test_retained_flag_matches_threshold(self, g8):
        net, cfg, _ = g8
        x0 = np.random.default_rng(7).random((8, 3))
        dnet, report = run_algorithm1(net, cfg, x0)
        for e in report.entries:
            assert e.retained == ((e.follower, e.followed) in dnet.arc_set)
            assert e.retained == (e.g is not None and e.g > 1.02)

    def test_round_cap_reported(self, g8):
        net, cfg, _ = g8
        x0 = np.random.default_rng(7).random((8, 3))
        with pytest.raises(TempoError, match="did not settle"):
            run_algorithm1(net, cfg, x0, round_cap=10)

    def test_ordering_settles_before_termination(self, g8):
        # The sign of (g - 1) is fixed over the last quarter of the rounds:
        # agents know their ranking well before the estimates stop moving.
        net, cfg, _ = g8
        x0 = np.random.default_rng(7).random((8, 3))
        _, report = run_algorithm1(net, cfg, x0)
        rounds = max(e.rounds for e in report.entries)
        traj = san_traj(net, cfg, x0, horizon=rounds * 0.01, dt=0.01)
        for e in report.entries:
            series = g_ratio_series(traj, e.follower, e.followed)
            tail = series[3 * rounds // 4:]
            tail = tail[~np.isnan(tail)]
            signs = np.sign(tail - 1.0)
            assert len(set(signs.tolist())) == 1

    def test_matches_centralized_on_random_networks(self):
        # 100 random leader-driven networks with generic initial data.
        # Near-ties are excluded, scaled to what the termination accuracy
        # eps/(delta*gap) can separate at the default settings.
        from fsnlab import smallest_eigenpairs
        rng = np.random.default_rng(30)
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 11))
            net = random_connected_net(rng, n)
            cfg = random_leader_cfg(rng, n, homogeneous=False)
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
            x0 = rng.random((n, 1))
            dnet, _ = run_algorithm1(net, cfg, x0)
            assert dnet.arc_set == fsn_san(net, cfg, pair.vector).arc_set


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
            # drops below the stall floor before the ratio can settle.
            stall_time = np.log(5e8 * max(lam[0].value, 1e-3)) / lam[0].value
            if np.exp(-gap * stall_time) > 5e-3:
                continue
            horizon = min(300.0, max(20.0, 14.0 / gap))
            x0 = rng.random((n, 1))
            traj = simulate(L_B, (cfg.input_matrix(n), cfg.input_vectors()),
                            x0, SimulationConfig(dt=0.05, horizon=horizon))
            edge = net.edges[int(rng.integers(0, len(net.edges)))]
            # A large stall threshold keeps the tail clear of float
            # cancellation in the sample differences.
            series = g_ratio_series(traj, edge.i, edge.j, eps_still=1e-10)
            finite = series[~np.isnan(series)]
            if len(finite) < 40:
                continue
            # Only a series that visibly settled can be compared; an
            # unluckily weak dominant mode may die before converging.
            tail = finite[-40:]
            if float(tail.max() - tail.min()) > 1e-3:
                continue
            evaluated += 1
            want = tempo_limit_from_eigvec(pair.vector, [edge.i], [edge.j])
            assert abs(float(finite[-1]) - want) < 1e-2 * max(1.0, want)
        assert evaluated >= 60


class TestDistributedFanTree:
    def test_t12_matches_reference_drawing(self, t12):
        net, _, x0 = t12
        dnet, report = run_distributed_fan_tree(net, x0)
        assert dnet.arc_set == T12_FSN
        assert max(e.rounds for e in report.entries) > 0

    def test_star_rejected(self):
        star = Network(4, (Edge(1, 2), Edge(1, 3), Edge(1, 4)))
        x0 = np.random.default_rng(1).random(4)
        with pytest.raises(TempoError, match="repeated"):
            run_distributed_fan_tree(star, x0)

    def test_non_tree_rejected(self):
        net = Network(3, (Edge(1, 2), Edge(2, 3), Edge(1, 3)))
        with pytest.raises(TempoError, match="tree"):
            run_distributed_fan_tree(net, np.zeros(3))

    def test_p4_matches_centralized(self):
        net = Network(4, tuple(Edge(i, i + 1) for i in range(1, 4)))
        pair = fiedler_pair(laplacian(net))
        cls = classify_fiedler(block_cut_tree(net), pair.vector)
        ref = fsn_fan(net, pair.vector, cls)
        x0 = np.random.default_rng(3).random(4)
        dnet, _ = run_distributed_fan_tree(net, x0)
        assert dnet.arc_set == ref.arc_set

    def test_p5_core_node_handled_via_divergence(self):
        net = Network(5, tuple(Edge(i, i + 1) for i in range(1, 5)))
        pair = fiedler_pair(laplacian(net))
        cls = classify_fiedler(block_cut_tree(net), pair.vector)
        ref = fsn_fan(net, pair.vector, cls)
        x0 = np.random.default_rng(9).random(5)
        dnet, _ = run_distributed_fan_tree(net, x0)
        assert dnet.arc_set == ref.arc_set
        assert not dnet.retained[3]

    def test_signed_tree_rejected_with_cause(self):
        net = Network(6, tuple(Edge(i, i + 1, -1.0 if i == 3 else 1.0)
                               for i in range(1, 6)))
        x0 = np.random.default_rng(4).random(6)
        with pytest.raises(TempoError, match="negative"):
            run_distributed_fan_tree(net, x0)

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
            dnet, _ = run_distributed_fan_tree(net, x0, eps=1e-6)
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


# (follower, followed, settle round, retained, g) of every report entry of
# three reference runs.  Rounds and flags must repeat exactly: they decide
# the arc set; g may move only in its last bits.
PINNED_G8 = [
    (1, 6, 793, True, 1.1552608326493088),
    (2, 3, 673, True, 1.2364349667148644),
    (2, 6, 673, False, 0.9602297860587911),
    (3, 2, 758, False, 0.8077510932765993),
    (3, 4, 758, True, 1.849117667765273),
    (3, 6, 758, False, 0.7716789329304621),
    (3, 7, 758, False, 0.9457815014731149),
    (3, 8, 758, True, 1.3860289529291856),
    (4, 3, 615, False, 0.5474437479487135),
    (5, 6, 437, True, 1.1515133558196193),
    (6, 1, 761, False, 0.867845118168888),
    (6, 2, 761, True, 1.0468721284229392),
    (6, 3, 761, True, 1.296071632260353),
    (6, 5, 761, False, 0.8592994253736522),
    (6, 7, 761, True, 1.2257906554032072),
    (7, 3, 675, True, 1.0569819253422643),
    (7, 6, 675, False, 0.8206929921199732),
    (7, 8, 675, True, 1.4615219170744953),
    (8, 3, 559, False, 0.7288938894074326),
    (8, 7, 559, False, 0.6903050320411903),
]
PINNED_T12 = [
    (1, 4, 484, True, 4.236814293898755),
    (1, 11, 484, False, 0.7812115657563279),
    (1, 12, 484, False, 0.7881760280280102),
    (2, 4, 637, True, 1.281834292593188),
    (3, 4, 904, True, 1.2829272290661284),
    (4, 1, 871, False, 0.23731394018817625),
    (4, 2, 871, False, 0.7851168237020898),
    (4, 3, 871, False, 0.7775944348824053),
    (4, 5, 871, False, 0.7961856033100262),
    (4, 6, 871, True, -0.3082957426326097),
    (5, 4, 930, True, 1.2621250002042377),
    (6, 4, 718, True, -3.2474093339910315),
    (6, 7, 718, False, 0.7796563462282923),
    (6, 8, 718, False, 0.7821558342670539),
    (6, 9, 718, False, 0.7842081449425851),
    (6, 10, 718, False, 0.7955852838012499),
    (7, 6, 702, True, 1.2838518366837415),
    (8, 6, 628, True, 1.2838029456385192),
    (9, 6, 497, True, 1.2836778233083588),
    (10, 6, 776, True, 1.2629613077141477),
    (11, 1, 406, True, 1.2849944663386221),
    (12, 1, 405, True, 1.264052537557247),
]
PINNED_P5 = [
    (1, 2, 785, True, 1.6102269654708181),
    (2, 1, 990, False, 0.6184186291033923),
    (2, 3, 990, True, 1023.2765038803619),
    (3, 2, 759, False, 0.007728380370511813),
    (3, 4, 759, False, -0.007765471391605496),
    (4, 3, 990, True, -1022.6584698102088),
    (4, 5, 990, False, 0.6176496623489183),
    (5, 4, 786, True, 1.6257871485165438),
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
        self.check(run_algorithm1(net, cfg, x0)[1], PINNED_G8)

    def test_t12(self, t12):
        net, _, x0 = t12
        self.check(run_distributed_fan_tree(net, x0)[1], PINNED_T12)

    def test_p5_core_node(self):
        net = Network(5, tuple(Edge(i, i + 1) for i in range(1, 5)))
        x0 = np.random.default_rng(9).random(5)
        self.check(run_distributed_fan_tree(net, x0)[1], PINNED_P5)
