"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each test prints one `criterion N: PASS|FAIL` line (run pytest with -s or
-rA to see them) and then asserts, so a red run names exactly the criterion
that broke.
"""

import time

import numpy as np

from fsnlab import (Model, block_cut_tree, classify_fiedler,
                    distributed_select, fan_fsn_consensus_value, ffn_san,
                    fiedler_pair, fsn_fan, fsn_san,
                    g_ratio_series, laplacian,
                    perturbed_laplacian, principal_pair_perturbed,
                    reachable_from,
                    reachable_from_inputs, reduced_laplacian, reduced_spectrum,
                    simulate, structural_balance_partition, SimulationConfig)
from fsnlab.cli import main as cli_main

from oracles import (diameter, fiedler_lower_bound, gauge_matrix,
                     reduced_symmetric_fiedler, tempo_limit_from_eigvec,
                     tempo_limit_oracle, tree_diameter_bound)
from conftest import (G6_FSN, G8_FFN, G8_FSN, G8_V1, G12_FSN, T12_FSN, T12_V2,
                      random_balanced_signed_net, random_connected_net,
                      random_leader_cfg, random_tree)


def report(number, ok_map):
    ok = all(ok_map.values())
    status = "PASS" if ok else "FAIL"
    detail = ", ".join(k for k, v in ok_map.items() if not v) or "all checks"
    print(f"criterion {number}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {ok_map}"


def test_criterion_1_g8_eigenvector(g8):
    net, cfg, _ = g8
    start = time.perf_counter()
    pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
    elapsed = time.perf_counter() - start
    report(1, {
        "entries_within_0.005": bool(
            np.abs(pair.vector - np.array(G8_V1)).max() < 0.005),
        "runtime_under_1s": elapsed < 1.0,
    })


def test_criterion_2_g8_rates(g8, capsys):
    net, cfg, _ = g8
    pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
    dnet = fsn_san(net, cfg, pair.vector)
    lam_red = float(reduced_spectrum(dnet, cfg=cfg)[0])
    code = cli_main(["compare", "g8"])
    out = capsys.readouterr().out
    with capsys.disabled():
        report(2, {
            "lambda1_0.1414": abs(pair.value - 0.1414) < 1e-3,
            "reduced_lambda1_is_1": abs(lam_red - 1.0) < 1e-9,
            "compare_shows_both": ("0.141408" in out and "reduced 1" in out
                                   and code == 0),
        })


def test_criterion_3_g8_topology(g8):
    net, cfg, _ = g8
    v1 = principal_pair_perturbed(perturbed_laplacian(net, cfg)).vector
    fsn = fsn_san(net, cfg, v1)
    ffn = ffn_san(net, cfg, v1)
    reach_fsn = reachable_from_inputs(fsn, cfg)
    reach_ffn = reachable_from_inputs(ffn, cfg)
    report(3, {
        "fsn_matches_drawing": fsn.arc_set == G8_FSN,
        "ffn_is_reversal": ffn.arc_set == G8_FFN,
        "fsn_all_reachable": all(reach_fsn.values()),
        "ffn_followers_cut_off": {i for i, ok in reach_ffn.items() if ok}
                                 == {4, 8},
    })


def test_criterion_4_tempo_numbers(g8):
    net, cfg, _ = g8
    v1 = principal_pair_perturbed(perturbed_laplacian(net, cfg)).vector
    ratios = {j: tempo_limit_from_eigvec(v1, [7], [j]) for j in (3, 6, 8)}
    x0 = np.random.default_rng(7).random((8, 3))
    start = time.perf_counter()
    traj = simulate(perturbed_laplacian(net, cfg),
                    (cfg.input_matrix(8), cfg.input_vectors()), x0,
                    SimulationConfig(dt=0.01, horizon=60.0))
    elapsed = time.perf_counter() - start
    k10 = int(np.argmin(np.abs(traj.times - 10.0)))
    sampled = {j: float(g_ratio_series(traj, 7, j)[k10 - 1]) for j in (3, 6, 8)}
    report(4, {
        "eig_ratio_7_3": abs(ratios[3] - 1.0577) < 1e-3,
        "eig_ratio_7_6": abs(ratios[6] - 0.8113) < 1e-3,
        "eig_ratio_7_8": abs(ratios[8] - 1.4694) < 1e-3,
        "sampled_7_3": abs(sampled[3] - 1.057) < 0.02,
        "sampled_7_6": abs(sampled[6] - 0.8123) < 0.02,
        "sampled_7_8": abs(sampled[8] - 1.47) < 0.02,
        "horizon60_under_5s": elapsed < 5.0,
    })


def test_criterion_5_distributed_equivalence(g6, g8):
    net8, cfg8, _ = g8
    x08 = np.random.default_rng(7).random((8, 3))
    arcs8, _ = distributed_select(Model(net8, cfg8), x08)
    net6, cfg6, _ = g6
    x06 = np.random.default_rng(11).random((6, 1))
    arcs6, _ = distributed_select(Model(net6, cfg6), x06)
    report(5, {
        "g8_matches_drawing": arcs8.arc_set == G8_FSN,
        "g6_matches_drawing": arcs6.arc_set == G6_FSN,
    })


def test_criterion_6_g12_blocks(g12):
    net, _, _ = g12
    decomp = block_cut_tree(net)
    pair = fiedler_pair(laplacian(net))
    cls = classify_fiedler(decomp, pair.vector)
    dnet = fsn_fan(net, pair.vector, cls)
    expected_blocks = [{1, 2, 3, 4}, {1, 11}, {1, 12}, {4, 5, 6},
                       {6, 7, 8}, {6, 9, 10}]
    report(6, {
        "six_blocks": [set(b) for b in decomp.blocks] == expected_blocks,
        "cut_nodes_1_4_6": decomp.cut_nodes == frozenset({1, 4, 6}),
        "case1_core_456": (cls.case == "core-block"
                           and set(decomp.blocks[cls.core_block]) == {4, 5, 6}),
        "fsn_matches_drawing": dnet.arc_set == G12_FSN,
    })


def test_criterion_7_t12_tree(t12):
    net, _, x0 = t12
    pair = fiedler_pair(laplacian(net))
    ref = np.array(T12_V2)
    v_err = min(np.abs(pair.vector - ref).max(), np.abs(pair.vector + ref).max())
    cls = classify_fiedler(block_cut_tree(net), pair.vector)
    dnet = fsn_fan(net, pair.vector, cls)
    predicted = fan_fsn_consensus_value(x0, cls)
    traj_red = simulate(reduced_laplacian(dnet), None, x0,
                        SimulationConfig(dt=0.01, horizon=60.0))
    simulated = float(traj_red.states[-1].mean())
    traj_full = simulate(laplacian(net), None, x0,
                         SimulationConfig(dt=0.01, horizon=60.0))
    g13 = g_ratio_series(traj_full, 1, 3)
    g1_11 = g_ratio_series(traj_full, 1, 11)
    report(7, {
        "lambda2_0.2148": abs(pair.value - 0.2148) < 1e-3,
        "v2_entries_0.005": v_err < 0.005,
        "fsn_matches_drawing": dnet.arc_set == T12_FSN,
        "simulated_consensus_0.6396": abs(simulated - 0.6396) < 1e-3,
        "analytic_value_matches": abs(predicted[0] - 0.6396) < 1e-3,
        "g13_3.299": abs(float(g13[-1]) - 3.299) < 0.02,
        "g1_11_0.785": abs(float(g1_11[-1]) - 0.785) < 0.02,
    })


def test_criterion_8_signed_suite(g8_signed):
    net, cfg, _ = g8_signed
    part = structural_balance_partition(net)
    pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
    signs = np.sign(pair.vector)
    dnet = fsn_san(net, cfg, pair.vector)
    G = reduced_laplacian(dnet)
    for link in cfg.leader_links:
        G[link.node - 1, link.node - 1] += 1.0
    x0 = np.random.default_rng(15).random((8, 3))
    traj = simulate(G, (cfg.input_matrix(8), cfg.input_vectors()), x0,
                    SimulationConfig(dt=0.01, horizon=60.0))
    final = traj.states[-1]
    u0 = np.array([0.7, 0.8, 0.9])
    plus_ok = all(np.abs(final[i - 1] - u0).max() < 1e-3 for i in (1, 2, 5, 6))
    minus_ok = all(np.abs(final[i - 1] + u0).max() < 1e-3 for i in (3, 4, 7, 8))
    report(8, {
        "partition": part == (frozenset({1, 2, 5, 6}), frozenset({3, 4, 7, 8})),
        "magnitudes_match_unsigned": bool(
            np.abs(np.abs(pair.vector) - np.array(G8_V1)).max() < 0.005),
        "signs_match_drawing": bool(
            np.array_equal(signs, [1, 1, -1, -1, 1, 1, -1, -1])),
        "fsn_matches_drawing": dnet.arc_set == G8_FSN,
        "bipartite_consensus_1e-3": plus_ok and minus_ok,
    })


def test_criterion_9_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    ok = {}

    # Smallest perturbed eigenvalue: positive, simple, positive eigenvector.
    good = True
    for _ in range(200):
        n = int(rng.integers(2, 13))
        net = random_connected_net(rng, n)
        cfg = random_leader_cfg(rng, n)
        pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
        good &= pair.value > 0 and pair.is_simple and pair.vector.min() > 0
    ok["principal_pair_positive_simple"] = good

    # Every agent of the reduced leader-driven network stays reachable.
    good = True
    for _ in range(200):
        n = int(rng.integers(2, 13))
        net = random_connected_net(rng, n)
        cfg = random_leader_cfg(rng, n)
        dnet = fsn_san(net, cfg,
                       principal_pair_perturbed(perturbed_laplacian(net, cfg)).vector)
        good &= all(reachable_from_inputs(dnet, cfg).values())
    ok["reduced_san_reachable"] = good

    # Rate inequality, strict unless everyone is a leader.
    good = True
    for _ in range(200):
        n = int(rng.integers(2, 13))
        net = random_connected_net(rng, n)
        cfg = random_leader_cfg(rng, n)
        pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
        lam_red = float(reduced_spectrum(
            fsn_san(net, cfg, pair.vector), cfg=cfg)[0])
        if len(cfg.leader_nodes) == net.n:
            good &= abs(lam_red - pair.value) < 1e-9
        else:
            good &= lam_red > pair.value and abs(lam_red - 1.0) < 1e-9
    ok["reduced_rate_not_worse"] = good

    # Autonomous reduction: core reaches everyone and the consensus value
    # matches a simulation to 1e-3.
    good = True
    checked = 0
    while checked < 200:
        net = random_connected_net(rng, int(rng.integers(3, 13)))
        pair = fiedler_pair(laplacian(net))
        if not pair.is_simple:
            continue
        checked += 1
        cls = classify_fiedler(block_cut_tree(net), pair.vector)
        dnet = fsn_fan(net, pair.vector, cls)
        good &= all(reachable_from(dnet, cls.core_nodes).values())
        x0 = rng.random((net.n, 1))
        predicted = fan_fsn_consensus_value(x0, cls)
        G = reduced_laplacian(dnet)
        src = sorted(cls.core_nodes | cls.zero_block_nodes)
        rate = 1.0
        if len(src) > 1:
            idx = [s - 1 for s in src]
            sub = G[np.ix_(idx, idx)]
            rate = float(np.sort(np.linalg.eigvalsh((sub + sub.T) / 2))[1])
        horizon = min(200.0, max(30.0, 9.0 / max(rate, 0.05)))
        traj = simulate(G, None, x0, SimulationConfig(dt=0.05, horizon=horizon))
        good &= bool(np.abs(traj.states[-1] - predicted).max() < 1e-3)
    ok["reduced_fan_reach_and_value"] = good

    # Non-star trees without zero entries: reduced rate exactly 1, original
    # below the 0.59 ceiling.
    good = True
    checked = 0
    while checked < 200:
        n = int(rng.integers(4, 13))
        net = random_tree(rng, n)
        if max(len(net.neighbors[i]) for i in range(1, n + 1)) == n - 1:
            continue
        pair = fiedler_pair(laplacian(net))
        if not pair.is_simple:
            continue
        ez = 1e-8 * float(np.abs(pair.vector).max())
        if any(abs(pair.vector[e.i - 1]) <= ez and abs(pair.vector[e.j - 1]) <= ez
               for e in net.edges):
            continue
        checked += 1
        cls = classify_fiedler(block_cut_tree(net), pair.vector)
        lam_red = float(reduced_spectrum(fsn_fan(net, pair.vector, cls))[1])
        good &= (abs(lam_red - 1.0) < 1e-12 and lam_red > pair.value
                 and pair.value < 0.59)
    ok["tree_rate_one_and_ceiling"] = good

    # Fiedler threshold sets induce connected subgraphs.
    good = True
    checked = 0
    while checked < 200:
        net = random_connected_net(rng, int(rng.integers(3, 13)))
        pair = fiedler_pair(laplacian(net))
        if not pair.is_simple:
            continue
        checked += 1
        v = pair.vector
        for r in rng.uniform(0.0, float(np.abs(v).max()), size=2):
            keep = {i + 1 for i in range(net.n) if v[i] + r >= 0}
            seen = {min(keep)}
            stack = [min(keep)]
            while stack:
                u = stack.pop()
                for w in net.neighbors[u]:
                    if w in keep and w not in seen:
                        seen.add(w)
                        stack.append(w)
            good &= seen == keep
    ok["fiedler_level_sets_connected"] = good

    # Convergence lower bound never exceeds the measured symmetrized rate.
    good = True
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
        good &= fiedler_lower_bound(laplacian(net), dnet, vbar) <= lam2_sym + 1e-9
    ok["fiedler_lower_bound_holds"] = good

    # Diameter bound on random trees.
    good = True
    for _ in range(200):
        net = random_tree(rng, int(rng.integers(2, 13)))
        lam2 = fiedler_pair(laplacian(net)).value
        good &= lam2 <= tree_diameter_bound(diameter(net)) + 1e-9
    ok["tree_diameter_bound"] = good

    # Gauge conjugation recovers the unsigned matrix exactly.
    good = True
    for _ in range(200):
        net, _ = random_balanced_signed_net(rng, int(rng.integers(2, 13)))
        part = structural_balance_partition(net)
        G = gauge_matrix(part)
        defect = float(np.abs(G @ laplacian(net) @ G
                              - laplacian(net.absolute())).max())
        good &= defect < 1e-12
    ok["gauge_identity_1e-12"] = good

    # Closed-form tempo limit against simulated difference ratios.
    good = True
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 8))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lams = -np.sort(rng.uniform(1.0, 3.0, size=n))[::-1]
        lams[-1] = -0.4
        if n > 2 and rng.random() < 0.25:
            lams[-2] = -0.4
        M = Q @ np.diag(lams) @ Q.T
        x0 = rng.normal(size=n)
        try:
            want = tempo_limit_oracle(M, x0, [1], [2])
        except Exception:
            continue
        checked += 1
        traj = simulate(-M, None, x0, SimulationConfig(dt=0.02, horizon=24.0))
        series = g_ratio_series(traj, 1, 2)
        finite = series[~np.isnan(series)]
        good &= abs(float(finite[-1]) - want) < 1e-3
    ok["tempo_oracle_vs_simulation"] = good

    elapsed = time.perf_counter() - start
    ok["total_runtime_under_2min"] = elapsed < 120.0
    print(f"  [property suites took {elapsed:.1f}s]")
    report(9, ok)
