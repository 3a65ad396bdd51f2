import re

import numpy as np
import pytest

from fsnlab import (Arc, DirectedNetwork, Edge, Network,
                    SimulationConfig, SimulationError, Trajectory,
                    block_cut_tree, classify_fiedler,
                    fan_fsn_consensus_value, fiedler_pair, fsn_fan, fsn_san,
                    laplacian, perturbed_laplacian, principal_pair_perturbed,
                    reduced_laplacian, simulate, steady_state_san)

from fsnlab import dynamics
from fsnlab.dynamics import fitted_rate, step_powers

from conftest import T12_FSN, random_connected_net, random_leader_cfg

K2 = Network(2, (Edge(1, 2),))


def san_system(net, cfg):
    return (perturbed_laplacian(net, cfg), cfg.input_matrix(net.n),
            cfg.input_vectors())


def reduced_generator(dnet, cfg=None):
    G = reduced_laplacian(dnet)
    if cfg is not None:
        for link in cfg.leader_links:
            G[link.node - 1, link.node - 1] += 1.0
    return G


def ref_step_euler(generator, forcing, x, dt):
    return x + dt * (forcing - generator @ x)


def ref_step_rk4(generator, forcing, x, dt):
    k1 = forcing - generator @ x
    k2 = forcing - generator @ (x + 0.5 * dt * k1)
    k3 = forcing - generator @ (x + 0.5 * dt * k2)
    k4 = forcing - generator @ (x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestSimulate:
    def test_g8_consensus_on_homogeneous_input(self, g8):
        net, cfg, _ = g8
        L_B, B, u = san_system(net, cfg)
        x0 = np.random.default_rng(7).random((8, 3))
        traj = simulate(L_B, B @ u, x0, SimulationConfig(horizon=80.0))
        assert np.abs(traj.states[-1] - np.array([0.7, 0.8, 0.9])).max() < 1e-3

    def test_k2_average_consensus(self):
        traj = simulate(laplacian(K2), None, np.array([0.0, 1.0]),
                        SimulationConfig(horizon=20.0))
        assert np.abs(traj.states[-1] - 0.5).max() < 1e-6

    def test_t12_reduced_reaches_core_average(self, t12):
        net, _, x0 = t12
        dnet = DirectedNetwork(12, tuple(Arc(a, b) for a, b in sorted(T12_FSN)))
        traj = simulate(reduced_generator(dnet), None, x0, SimulationConfig())
        assert np.abs(traj.states[-1] - 0.6395).max() < 1e-3

    def test_euler_stability_guard(self):
        with pytest.raises(SimulationError, match="unstable"):
            simulate(laplacian(K2), None, np.array([0.0, 1.0]),
                     SimulationConfig(dt=0.6, horizon=10.0, method="euler"))

    @pytest.mark.parametrize("name", ["g6", "g8", "g8-signed", "g12", "t12"])
    def test_euler_agrees_with_rk4_to_first_order(self, name, request):
        net, cfg, x0 = request.getfixturevalue(name.replace("-", "_"))
        if cfg is not None:
            G = perturbed_laplacian(net, cfg)
            f = cfg.input_matrix(net.n) @ cfg.input_vectors()
            d = cfg.d
        else:
            G, f, d = laplacian(net), None, 1
        if x0 is None:
            x0 = np.random.default_rng(8).random((net.n, d))
        cfg_e = SimulationConfig(dt=0.01, horizon=20.0, method="euler")
        cfg_r = SimulationConfig(dt=0.01, horizon=20.0, method="rk4")
        xe = simulate(G, f, x0, cfg_e).states[-1]
        xr = simulate(G, f, x0, cfg_r).states[-1]
        assert np.abs(xe - xr).max() < 5 * 0.01

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("name", ["g6", "g8", "g8-signed", "g12", "t12",
                                      "rand40"])
    def test_matches_reference_steppers(self, name, method, request):
        # The step map against the stage formulas, column by column.  On
        # rand40, 30 steps of a 40-node network, the stack collapses to b = 1.
        horizon = 20.0
        if name == "rand40":
            rng = np.random.default_rng(40)
            net, cfg, x0 = random_connected_net(rng, 40), None, rng.random((40, 1))
            horizon = 0.3
        else:
            net, cfg, x0 = request.getfixturevalue(name.replace("-", "_"))
        if cfg is None:
            G, f, d = laplacian(net), None, 1
        else:
            G = perturbed_laplacian(net, cfg)
            f = cfg.input_matrix(net.n) @ cfg.input_vectors()
            d = cfg.d
        if x0 is None:
            x0 = np.random.default_rng(8).random((net.n, d))
        forcing = np.zeros_like(x0) if f is None else f
        sim = SimulationConfig(dt=0.01, horizon=horizon, method=method)
        got = simulate(G, f, x0, sim).states
        step = ref_step_euler if method == "euler" else ref_step_rk4
        want = np.empty_like(got)
        want[0] = x0
        for dim in range(x0.shape[1]):
            x = x0[:, dim].copy()
            for k in range(sim.steps):
                x = step(G, forcing[:, dim], x, sim.dt)
                want[k + 1, :, dim] = x
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_mean_conserved_for_symmetric_generator(self):
        rng = np.random.default_rng(9)
        net = random_connected_net(rng, 9)
        x0 = rng.random((9, 2))
        traj = simulate(laplacian(net), None, x0,
                        SimulationConfig(dt=0.01, horizon=10.0))
        means = traj.states.mean(axis=1)
        drift = np.abs(means - means[0]).max()
        assert drift < 1e-9 * traj.times[-1] + 1e-12

    def test_dimension_mismatch_rejected(self, g8):
        net, cfg, _ = g8
        L_B, B, u = san_system(net, cfg)
        with pytest.raises(SimulationError, match="dimension"):
            simulate(L_B, B @ u, np.zeros((8, 2)), SimulationConfig())

    @pytest.mark.parametrize("shape", [(8,), (7, 1), (8, 2), (8, 1, 1)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_forcing_of_another_shape_rejected(self, g8, shape):
        # Only an n-by-d forcing is taken: not a 1-D one, nor one of
        # another n, d or rank.
        net, cfg, _ = g8
        L_B, _, _ = san_system(net, cfg)
        with pytest.raises(SimulationError, match=re.escape(
                f"forcing of shape {shape} does not match n=8 and the state "
                f"dimension d=1")):
            simulate(L_B, np.ones(shape), np.zeros((8, 1)), SimulationConfig())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_x0_that_is_not_finite_is_refused(self, value):
        # Such an x0 used to run and be refused as states that left the
        # float range, with the advice to take a smaller dt.
        with pytest.raises(SimulationError, match=rf"^x0\[1\]\[0\]: expected a "
                                                  rf"finite number, got {value}$"):
            simulate(laplacian(K2), None, [0.5, value], SimulationConfig())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["generator", "forcing"])
    def test_generator_or_forcing_that_is_not_finite_is_refused(self, name, value):
        # Such an entry used to be refused as rk4 steps that leave the float
        # range, with the advice to take a smaller dt, which no dt follows.
        G, forcing = laplacian(K2), np.ones((2, 1))
        (G if name == "generator" else forcing)[1, 0] = value
        with pytest.raises(SimulationError, match=rf"^{name}\[1\]\[0\]: expected "
                                                  rf"a finite number, got {value}$"):
            simulate(G, forcing, [0.5, 0.25], SimulationConfig(dt=0.01, horizon=1.0))

    def test_trajectory_shape_and_times(self):
        traj = simulate(laplacian(K2), None, np.array([1.0, 0.0]),
                        SimulationConfig(dt=0.5, horizon=2.0))
        assert traj.states.shape == (5, 2, 1)
        assert np.array_equal(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0])


def stepped(generator, forcing, x0, dt, steps, step):
    """Reference trajectory: ``step`` applied one step at a time per column."""
    want = np.empty((steps + 1,) + x0.shape)
    want[0] = x0
    for dim in range(x0.shape[1]):
        x = x0[:, dim].copy()
        for k in range(steps):
            x = step(generator, forcing[:, dim], x, dt)
            want[k + 1, :, dim] = x
    return want


class TestBlockStepping:
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 100])
    def test_partial_and_single_blocks_match_reference(self, g8, steps, method):
        net, cfg, _ = g8
        L_B, B, u = san_system(net, cfg)
        x0 = np.random.default_rng(21).random((8, 3))
        sim = SimulationConfig(dt=0.01, horizon=0.01 * steps, method=method)
        assert sim.steps == steps
        got = simulate(L_B, B @ u, x0, sim).states
        step = ref_step_euler if method == "euler" else ref_step_rk4
        want = stepped(L_B, B @ u, x0, sim.dt, steps, step)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_block_cap_binds_on_large_network(self):
        rng = np.random.default_rng(22)
        n = 150
        assert 2**20 // n**2 < 64
        net = random_connected_net(rng, n)
        cfg = random_leader_cfg(rng, n, d=2)
        L_B, B, u = san_system(net, cfg)
        x0 = rng.random((n, 2))
        # 6900 steps, so that steps // n does not bind before 2**20 // n**2.
        sim = SimulationConfig(dt=0.01, horizon=69.0)
        assert sim.steps // n >= 2**20 // n**2
        got = simulate(L_B, B @ u, x0, sim).states
        want = stepped(L_B, B @ u, x0, sim.dt, sim.steps, ref_step_rk4)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("n, steps", [(40, 30), (256, 50)])
    def test_stack_costs_no_more_than_stepping(self, n, steps, monkeypatch):
        # Building b powers costs (b - 1) n^3 flops and stepping steps n^2,
        # so with steps < 2 n a stack of more than one power never pays.
        built = []

        def spy(R, c, size):
            built.append(size)
            return step_powers(R, c, size)

        monkeypatch.setattr(dynamics, "step_powers", spy)
        rng = np.random.default_rng(n)
        G = laplacian(random_connected_net(rng, n))
        simulate(G, None, rng.random((n, 1)),
                 SimulationConfig(dt=0.01, horizon=0.01 * steps))
        assert built == [1]

    def test_power_stack_is_built_once_per_run(self, g8, monkeypatch):
        # P depends on R alone: a d = 3 run builds one power stack and one
        # offset stack, of all three state columns.
        calls = []

        def spy(R, c, size):
            calls.append(c.shape)
            return step_powers(R, c, size)

        monkeypatch.setattr(dynamics, "step_powers", spy)
        net, cfg, _ = g8
        L_B, B, u = san_system(net, cfg)
        x0 = np.random.default_rng(7).random((8, 3))
        simulate(L_B, B @ u, x0, SimulationConfig(dt=0.01, horizon=5.0))
        assert calls == [(8, 3)]

    def test_step_powers_are_matrix_power_stacks(self):
        rng = np.random.default_rng(23)
        n, b = 5, 7
        R = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        c = rng.standard_normal((n, 2))
        P, C = step_powers(R, c, b)
        assert P.shape == (b * n, n) and C.shape == (b * n, 2)
        offset = np.zeros_like(c)
        for k in range(1, b + 1):
            offset = offset + np.linalg.matrix_power(R, k - 1) @ c
            rows = slice((k - 1) * n, k * n)
            np.testing.assert_allclose(P[rows], np.linalg.matrix_power(R, k),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(C[rows], offset, rtol=1e-12, atol=1e-12)


class TestSteadyState:
    def test_homogeneous_input_replicated(self, g8):
        net, cfg, _ = g8
        L_B, B, u = san_system(net, cfg)
        out = steady_state_san(L_B, B @ u)
        assert np.abs(out - np.array([0.7, 0.8, 0.9])).max() < 1e-12

    def test_zero_input_gives_zero_state(self, g8):
        net, cfg, _ = g8
        L_B, B, _ = san_system(net, cfg)
        assert np.abs(steady_state_san(L_B, B @ np.zeros((2, 3)))).max() == 0.0

    def test_heterogeneous_inputs_stay_in_hull(self, g8):
        net, cfg, _ = g8
        L_B, B, _ = san_system(net, cfg)
        u = np.array([[0.0], [1.0]])
        out = steady_state_san(L_B, B @ u)
        assert out.min() >= -1e-12 and out.max() <= 1.0 + 1e-12
        # Cross-check against a long simulation.
        traj = simulate(L_B, B @ u, np.zeros((8, 1)),
                        SimulationConfig(horizon=100.0))
        assert np.abs(traj.states[-1] - out).max() < 1e-4

    def test_singular_matrix_rejected(self):
        with pytest.raises(SimulationError, match="singular"):
            steady_state_san(laplacian(K2), np.zeros((2, 1)) @ np.zeros((1, 1)))

    def test_simulation_error_bounded_by_spectral_decay(self, g8):
        net, cfg, _ = g8
        L_B, B, u = san_system(net, cfg)
        pair = principal_pair_perturbed(L_B)
        x0 = np.random.default_rng(10).random((8, 3))
        target = steady_state_san(L_B, B @ u)
        for horizon in (10.0, 20.0, 40.0):
            traj = simulate(L_B, B @ u, x0, SimulationConfig(horizon=horizon))
            err = np.abs(traj.states[-1] - target).max()
            c0 = np.linalg.norm(x0 - target)
            assert err <= 1.01 * c0 * np.exp(-pair.value * horizon) + 1e-12


class TestConsensusValue:
    def test_t12_core_average(self, t12):
        net, _, x0 = t12
        pair = fiedler_pair(laplacian(net))
        cls = classify_fiedler(block_cut_tree(net), pair.vector)
        value = fan_fsn_consensus_value(x0, cls)
        assert abs(value[0] - 0.6395) < 1e-12

    def test_path3_core_node_value(self):
        net = Network(3, (Edge(1, 2), Edge(2, 3)))
        pair = fiedler_pair(laplacian(net))
        cls = classify_fiedler(block_cut_tree(net), pair.vector)
        x0 = np.array([[0.2], [0.9], [0.4]])
        assert fan_fsn_consensus_value(x0, cls)[0] == 0.9

    def test_g12_value_matches_long_simulation(self, g12):
        net, _, _ = g12
        pair = fiedler_pair(laplacian(net))
        cls = classify_fiedler(block_cut_tree(net), pair.vector)
        rng = np.random.default_rng(11)
        x0 = rng.random((12, 1))
        predicted = fan_fsn_consensus_value(x0, cls)
        assert predicted[0] == x0[[3, 4, 5], 0].mean()
        dnet = fsn_fan(net, pair.vector, cls)
        traj = simulate(reduced_generator(dnet), None, x0,
                        SimulationConfig(horizon=40.0))
        assert np.abs(traj.states[-1] - predicted).max() < 1e-3

    def test_random_fans_match_simulation(self):
        # Reachability-from-core plus consensus value against simulation on
        # 200 random autonomous networks.
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 200:
            net = random_connected_net(rng, int(rng.integers(3, 13)))
            pair = fiedler_pair(laplacian(net))
            if not pair.is_simple:
                continue
            checked += 1
            cls = classify_fiedler(block_cut_tree(net), pair.vector)
            dnet = fsn_fan(net, pair.vector, cls)
            x0 = rng.random((net.n, 1))
            predicted = fan_fsn_consensus_value(x0, cls)
            G = reduced_generator(dnet)
            # Source region mixes at its own pace; scale the horizon to it.
            src = sorted(cls.core_nodes | cls.zero_block_nodes)
            idx = [s - 1 for s in src]
            rate = 1.0
            if len(src) > 1:
                sub = G[np.ix_(idx, idx)]
                rate = float(np.sort(np.linalg.eigvalsh((sub + sub.T) / 2))[1])
            horizon = min(200.0, max(30.0, 9.0 / max(rate, 0.05)))
            traj = simulate(G, None, x0, SimulationConfig(dt=0.05,
                                                          horizon=horizon))
            assert np.abs(traj.states[-1] - predicted).max() < 1e-3


class TestEmpiricalRate:
    def test_g8_original_rate(self, g8):
        net, cfg, _ = g8
        L_B, B, u = san_system(net, cfg)
        x0 = np.random.default_rng(13).random((8, 3))
        target = steady_state_san(L_B, B @ u)
        traj = simulate(L_B, B @ u, x0, SimulationConfig(horizon=60.0))
        rate = fitted_rate(traj, target)[0]
        assert abs(rate - 0.1414) < 0.1 * 0.1414

    def test_g8_reduced_rate_close_to_one(self, g8):
        net, cfg, _ = g8
        pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
        dnet = fsn_san(net, cfg, pair.vector)
        G = reduced_generator(dnet, cfg)
        B, u = cfg.input_matrix(8), cfg.input_vectors()
        x0 = np.random.default_rng(14).random((8, 3))
        long = simulate(G, B @ u, x0, SimulationConfig(horizon=90.0))
        target = long.states[-1]
        keep = long.times <= 60.0
        window = Trajectory(long.times[keep], long.states[keep])
        rate = fitted_rate(window, target)[0]
        assert abs(rate - 1.0) < 0.1

    def test_k2_autonomous_rate(self):
        x0 = np.array([0.0, 1.0])
        traj = simulate(laplacian(K2), None, x0, SimulationConfig(horizon=15.0))
        rate = fitted_rate(traj, np.array([0.5, 0.5]))[0]
        assert abs(rate - 2.0) < 0.2

    def test_non_converging_signal_flagged(self):
        times = np.arange(11) * 0.1
        states = np.ones((11, 2, 1))
        traj = Trajectory(times, states)
        with pytest.raises(SimulationError):
            fitted_rate(traj, np.zeros((2, 1)))


class TestBipartiteConsensus:
    def test_g8_signed_reduced_splits_to_plus_minus_u(self, g8_signed):
        net, cfg, _ = g8_signed
        pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
        dnet = fsn_san(net, cfg, pair.vector)
        G = reduced_generator(dnet, cfg)
        B, u = cfg.input_matrix(8), cfg.input_vectors()
        x0 = np.random.default_rng(15).random((8, 3))
        traj = simulate(G, B @ u, x0, SimulationConfig(horizon=60.0))
        final = traj.states[-1]
        u0 = np.array([0.7, 0.8, 0.9])
        for node in (1, 2, 5, 6):
            assert np.abs(final[node - 1] - u0).max() < 1e-3
        for node in (3, 4, 7, 8):
            assert np.abs(final[node - 1] + u0).max() < 1e-3
