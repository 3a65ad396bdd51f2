import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fsnlab import (FIXTURE_NAMES, DirectedNetwork, Network, SimulationConfig,
                    TempoReport, g_ratio_series, load_fixture, parse_arc_file,
                    parse_network_file, parse_trajectory, serialize_network,
                    simulate)
from fsnlab import cli, netfile, tempo
from fsnlab.cli import main
from fsnlab.model import Model
from fsnlab.netfile import fixture_text
from fsnlab.thresholds import DEFAULT_EPS, TEMPO_TOL

from conftest import G8_FSN, G12_FSN
from oracles import tempo_limit_from_eigvec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def spider_file(tmp_path):
    """A tree whose Fiedler vector is zero on nodes 1 and 6 (a zero block)."""
    path = tmp_path / "spider.json"
    path.write_text(json.dumps({"n": 6, "edges": [
        {"i": i, "j": j} for i, j in [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6)]]}))
    return str(path)


def path3_file(tmp_path):
    """The path 1-2-3, whose Fiedler vector is zero on node 2."""
    path = tmp_path / "path3.json"
    path.write_text(json.dumps({"n": 3, "edges": [{"i": 1, "j": 2},
                                                  {"i": 2, "j": 3}]}))
    return str(path)


def unbalanced_triangle_file(tmp_path):
    """A triangle with one antagonistic edge, plus a pendant so that the
    Fiedler value of |W| is simple: no structural balance."""
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"n": 4, "edges": [
        {"i": 1, "j": 2, "w": -1.0}, {"i": 2, "j": 3}, {"i": 1, "j": 3},
        {"i": 3, "j": 4, "w": 2.0}]}))
    return str(path)


GOLDEN = Path(__file__).parent / "golden"


def _noise_free(text):
    """The text with the smallest Laplacian eigenvalue, zero up to a
    rounding the LAPACK build decides, printed as 0."""
    return re.sub(r"(spectrum \(smallest \d+\): )([^,]+)",
                  lambda m: m[1] + ("0" if abs(float(m[2])) < 1e-12 else m[2]),
                  text)


class TestAnalyze:
    @pytest.mark.parametrize("name", ["g6", "g8", "g8-signed", "g12", "t12"])
    def test_fixture_stdout_is_the_golden_text(self, name, capsys):
        # The blocks and cut nodes lines print the decomposition's views.
        code, out, err = run(capsys, "analyze", name)
        assert (code, err) == (0, "")
        golden = (GOLDEN / f"analyze-{name}.txt").read_text()
        assert _noise_free(out) == _noise_free(golden)

    def test_g8_summary(self, capsys):
        code, out, _ = run(capsys, "analyze", "g8")
        assert code == 0
        assert "n=8, 10 edges" in out
        assert "0.141408" in out
        assert "connected: True" in out

    def test_signed_fixture_reports_partition(self, capsys):
        code, out, _ = run(capsys, "analyze", "g8-signed")
        assert code == 0
        assert "balanced, partition [1, 2, 5, 6] | [3, 4, 7, 8]" in out

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "analyze", "no-such-network")
        assert code == 2
        assert "neither a readable file nor a bundled fixture" in err

    def test_core_node_classification(self, capsys, tmp_path):
        # The 3-node path's Fiedler vector is zero on its middle node.
        code, out, err = run(capsys, "analyze", path3_file(tmp_path))
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "Fiedler classification: core node 2"


# The thresholded decisions of select, tempo and distributed-select, pinned
# as the stdout of each run at FSNLAB_SEED=7: every mode a fixture accepts,
# and the tempo pairs and distributed runs of perfbench's fixtures-cli.
ALL_MODES = ("san-fsn", "san-ffn", "signed-san-fsn", "fan-fsn")
GOLDEN_RUNS = [
    *[(f"select-{name}-{mode}", ["select", name, "--mode", mode])
      for name, modes in (("g6", ALL_MODES), ("g8", ALL_MODES),
                          ("g8-signed", ALL_MODES[2:]), ("g12", ALL_MODES[3:]),
                          ("t12", ALL_MODES[3:]))
      for mode in modes],
    *[(f"tempo-{name}", ["tempo", name, "--pairs", pairs])
      for name, pairs in (("g6", "2:1,2:3,2:5"), ("g8", "7:3,7:6,7:8"),
                          ("g8-signed", "3:2,3:4,3:6,3:7,3:8"),
                          ("g12", "6:4,6:5,6:7,6:8,6:9,6:10"),
                          ("t12", "4:1,4:2,4:3,4:5,4:6"))],
    ("distributed-select-g8", ["distributed-select", "g8"]),
    ("distributed-select-t12-fan-tree", ["distributed-select", "t12", "--fan-tree"]),
]


@pytest.mark.parametrize("golden,argv", GOLDEN_RUNS, ids=[g for g, _ in GOLDEN_RUNS])
def test_decision_stdout_is_the_golden_text(golden, argv, capsys, monkeypatch):
    monkeypatch.setenv("FSNLAB_SEED", "7")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{golden}.txt").read_text()


@pytest.mark.parametrize("case", ["network-is-directory", "network-not-utf8",
                                  "out-is-directory"])
def test_unreadable_or_unwritable_path_is_input_error(case, capsys, tmp_path):
    if case == "network-is-directory":
        argv = ["analyze", str(tmp_path)]
    elif case == "network-not-utf8":
        path = tmp_path / "net.json"
        path.write_bytes(b'{"n": 2, "name": "\xff\xfe", "edges": []}')
        argv = ["analyze", str(path)]
    else:
        argv = ["select", "g8", "--mode", "san-fsn", "--out", str(tmp_path)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


def test_overflowing_weights_are_input_error(capsys, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"n": 3, "edges": [{"i": 1, "j": 2, "w": 1e308},
                                                  {"i": 2, "j": 3, "w": 1e308}]}))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert ("error: edges: node 2: the magnitudes of its weights "
            "[1e+308, 1e+308] do not sum to a finite float") in err
    assert "Traceback" not in err


def test_unallocatable_laplacian_is_refused_by_name(capsys, tmp_path):
    # n passes the parser's addressability cap, but its 8e16-byte dense
    # Laplacian cannot be allocated.
    path = tmp_path / "net.json"
    path.write_text('{"n": 100000000, "edges": []}')
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "connected: False" in out
    assert err == ("error: the dense 100000000 x 100000000 Laplacian needs "
                   "80000000000000000 bytes, more than can be allocated\n")


class TestSelect:
    def test_g8_fsn_arcs_and_report(self, capsys, tmp_path):
        arcs = tmp_path / "arcs.json"
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "select", "g8", "--mode", "san-fsn",
                           "--out", str(arcs), "--report", str(report))
        assert code == 0
        dnet = parse_arc_file(arcs.read_text())
        assert dnet.arc_set == G8_FSN
        doc = json.loads(report.read_text())
        assert abs(doc["original"]["lambda1"]["value"] - 0.1414) < 1e-3
        assert doc["reduced"]["lambda1"]["value"] == 1.0
        assert doc["original"]["lambda1"]["tolerance"] == 1e-8
        assert len(doc["eigenvector"]["entries"]) == 8
        assert all(doc["reachable"].values())
        assert len(doc["arcs"]) == 10 and len(doc["removed"]) == 10

    def test_ffn_keeps_followers_unreachable(self, capsys):
        code, out, _ = run(capsys, "select", "g8", "--mode", "san-ffn")
        assert code == 0
        assert "unreachable nodes [1, 2, 3, 5, 6, 7]" in out

    def test_fan_mode_on_san_fixture_works(self, capsys):
        code, out, _ = run(capsys, "select", "g12", "--mode", "fan-fsn")
        assert code == 0
        assert "all nodes reachable" in out

    def test_signed_fan_reduced_lambda2_is_that_of_its_magnitudes(
            self, capsys, tmp_path):
        # g8-signed is balanced: its fan-fsn reduction is the gauge image of
        # that of |W|, whose reduced lambda2 is 1.
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "select", "g8-signed", "--mode", "fan-fsn",
                           "--report", str(report))
        assert code == 0
        assert "reduced  lambda2 = 1 (tol 1e-08)" in out
        doc = json.loads(report.read_text())
        assert doc["reduced"]["lambda2"]["value"] == 1.0

    @pytest.mark.parametrize("mode", ["san-fsn", "san-ffn"])
    def test_unsigned_san_mode_refuses_signed_network(self, mode, capsys):
        code, out, err = run(capsys, "select", "g8-signed", "--mode", mode)
        assert (code, out) == (1, "")
        assert err == "error: network has negative weights; use the signed variant\n"

    def test_san_mode_needs_leaders(self, capsys):
        code, _, err = run(capsys, "select", "g12", "--mode", "san-fsn")
        assert code == 1
        assert "needs leaders" in err

    def test_unbalanced_autonomous_network_is_refused(self, capsys, tmp_path):
        # analyze reports the imbalance; select refuses and writes nothing.
        path = unbalanced_triangle_file(tmp_path)
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "structural balance: unbalanced" in out
        arcs, report = tmp_path / "arcs.json", tmp_path / "report.json"
        code, out, err = run(capsys, "select", path, "--mode", "fan-fsn",
                             "--out", str(arcs), "--report", str(report))
        assert (code, out) == (1, "")
        assert err == ("error: signed network is not structurally balanced; "
                       "its consensus limit is undefined\n")
        assert not arcs.exists() and not report.exists()

    def test_leaderless_signed_component_is_refused(self, capsys, tmp_path):
        # Two antagonistic pairs, a leader on the first only: the perturbed
        # Laplacian is singular, whatever the signs.
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"n": 4, "edges": [
            {"i": 1, "j": 2, "w": -1.0}, {"i": 3, "j": 4, "w": -1.0}],
            "leaders": [{"node": 1, "input": 1}], "inputs": [[1.0]]}))
        code, out, err = run(capsys, "select", str(path),
                             "--mode", "signed-san-fsn")
        assert (code, out) == (1, "")
        assert err.startswith("error: smallest eigenvalue ")
        assert err.endswith("is not positive; the network is disconnected "
                            "or has no leader\n")


class TestSimulate:
    def test_writes_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "simulate", "g8", "--horizon", "5",
                           "--out", str(out_csv))
        assert code == 0
        traj = parse_trajectory(out_csv.read_text())
        assert traj.states.shape == (501, 8, 3)

    def test_reduced_run_accepts_arc_file(self, capsys, tmp_path):
        arcs = tmp_path / "arcs.json"
        run(capsys, "select", "g8", "--mode", "san-fsn", "--out", str(arcs))
        out_csv = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "simulate", "g8", "--reduced", str(arcs),
                           "--horizon", "20", "--out", str(out_csv))
        assert code == 0
        traj = parse_trajectory(out_csv.read_text())
        assert np.abs(traj.states[-1] - np.array([0.7, 0.8, 0.9])).max() < 1e-3

    def test_arc_file_of_another_size_is_refused(self, capsys, tmp_path):
        arcs = tmp_path / "arcs.json"
        run(capsys, "select", "g6", "--mode", "san-fsn", "--out", str(arcs))
        code, out, err = run(capsys, "simulate", "g8", "--reduced", str(arcs),
                             "--out", str(tmp_path / "traj.csv"))
        assert (code, out, err) == (2, "", "error: arc file has n=6, network "
                                           "has n=8\n")

    def test_x0_of_another_dimension_is_refused(self, capsys, tmp_path):
        doc = json.loads(fixture_text("g8"))
        doc["x0"] = [[0.0, 0.0]] * 8
        path = tmp_path / "g8-x0.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "simulate", str(path),
                             "--out", str(tmp_path / "traj.csv"))
        assert (code, out, err) == (2, "", "error: x0: dimension 2 != input "
                                           "dimension 3\n")

    @pytest.mark.parametrize("seed", ["abc", "-1"])
    def test_malformed_seed_is_refused(self, seed, capsys, tmp_path,
                                       monkeypatch):
        monkeypatch.setenv("FSNLAB_SEED", seed)
        code, out, err = run(capsys, "simulate", "g8",
                             "--out", str(tmp_path / "traj.csv"))
        assert (code, out, err) == (2, "", "error: FSNLAB_SEED must be a "
                                    f"non-negative integer, got {seed!r}\n")

    def test_unstable_euler_is_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "g8", "--method", "euler",
                           "--dt", "0.2", "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert "unstable" in err

    @pytest.mark.parametrize("dt, horizon, message", [
        # RK4 is unstable on g6 at dt = 10: the states overflow.
        ("10", "1000", "states left the float range within 100 steps of "
                       "dt=10.0; take a smaller dt"),
        # The step map itself overflows.
        ("1e80", "1e82", "rk4 steps of dt=1e+80 leave the float range on this "
                         "generator; take a smaller dt")])
    def test_step_past_the_float_range_is_refused(self, dt, horizon, message,
                                                  capsys, tmp_path):
        out_csv = tmp_path / "x.csv"
        code, out, err = run(capsys, "simulate", "g6", "--dt", dt,
                             "--horizon", horizon, "--out", str(out_csv))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_csv.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "g8", "--dt", "nan"], ["simulate", "g8", "--horizon", "nan"],
    ["simulate", "g8", "--horizon", "inf"],
    ["tempo", "g8", "--pairs", "7:3", "--horizon", "nan"]])
def test_non_finite_simulation_time_is_refused(argv, capsys, tmp_path):
    if argv[0] == "simulate":
        argv = [*argv, "--out", str(tmp_path / "x.csv")]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: dt and horizon must be finite")


@pytest.mark.parametrize("argv, message", [
    (["simulate", "g8", "--dt", "1e-300", "--horizon", "1e300"],
     "error: horizon 1e+300 over dt 1e-300 is not a finite number of steps"),
    # 6e14 samples: the state array is larger than any address space, so
    # the allocation is refused at once and no memory is touched.
    (["simulate", "g8", "--dt", "1e-13"], "error: "),
    (["tempo", "g8", "--pairs", "7:3", "--dt", "1e-13"], "error: "),
    # 1e300 samples: more than numpy can index.
    (["simulate", "g8", "--dt", "1e-300", "--horizon", "1"],
     "error: the states of 1e+300 steps of dt=1e-300 do not fit in memory; "
     "take a larger dt or a shorter horizon\n"),
    (["tempo", "g8", "--pairs", "7:3", "--dt", "1e-300", "--horizon", "1"],
     "error: the states of 1e+300 steps of dt=1e-300 do not fit in memory; "
     "take a larger dt or a shorter horizon\n")],
    ids=["steps-overflow", "simulate-memory", "tempo-memory",
         "simulate-dimension", "tempo-dimension"])
def test_impossible_step_count_is_refused(argv, message, capsys, tmp_path):
    out_csv = tmp_path / "x.csv"
    code, _, err = run(capsys, *argv, "--out", str(out_csv))
    assert code == 1
    assert err.startswith(message)
    assert not out_csv.exists()


class TestTempo:
    def test_g8_pairs_match_eigvec(self, capsys, tmp_path):
        series = tmp_path / "g.csv"
        code, out, _ = run(capsys, "tempo", "g8", "--pairs", "7:3,7:6,7:8",
                           "--out", str(series))
        assert code == 0
        assert "1.0576" in out or "1.05767" in out
        assert series.read_text().startswith("t,follower,followed,value")

    def test_first_component_mode(self, capsys):
        code, out, _ = run(capsys, "tempo", "t12", "--pairs", "4:6",
                           "--first-component")
        assert code == 0
        assert "-0.30" in out

    def test_first_component_zero_neighbor_diverges(self, capsys, tmp_path):
        # Entry 1 is zero within eig_tol (7.6e-17 of 0.6), so the
        # ratio has no limit to check against, as in norm mode.
        code, out, _ = run(capsys, "tempo", spider_file(tmp_path), "--pairs",
                           "2:1", "--first-component")
        assert code == 0
        assert out.splitlines()[1].endswith(
            "  diverges (neighbor sits at a zero entry)")

    @pytest.mark.parametrize("flags", [[], ["--first-component"]])
    def test_zero_entries_read_alike_in_both_modes(self, flags, capsys,
                                                   tmp_path):
        # Entries 1 and 6 are zero: a zero follower's reference is 0, a zero
        # neighbor diverges, and two zero entries have no limit.
        code, out, err = run(capsys, "tempo", spider_file(tmp_path), "--pairs",
                             "1:2,2:1,1:6", *flags)
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert rows[0].startswith("  1:2  ") and rows[0].split()[-1] == "0"
        assert rows[1].startswith("  2:1  ") and rows[1].endswith(
            "  diverges (neighbor sits at a zero entry)")
        assert rows[2].startswith("  1:6  ") and rows[2].endswith(
            "  none (both entries sit at zero: no eigenvector limit)")
        assert len(rows) == 3

    def test_pair_outside_the_network_is_refused(self, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "simulate", lambda *args: runs.append(args))
        code, out, err = run(capsys, "tempo", "g8", "--pairs", "7:3,9:3")
        assert (code, out, err, runs) == (
            2, "", "error: pair 9:3 outside 1..8\n", [])

    def test_zero_neighbor_diverges_and_run_goes_on(self, capsys, tmp_path):
        # Pair 2:1 has no norm-ratio limit (entry 1 is zero); the command
        # reports it as compare does and still writes every pair's series.
        series = tmp_path / "f.csv"
        code, out, _ = run(capsys, "tempo", spider_file(tmp_path), "--pairs",
                           "2:3,2:1", "--out", str(series))
        assert code == 0
        rows = out.splitlines()
        assert rows[1].split()[0] == "2:3" and rows[1].split()[-1] == "0.618034"
        assert rows[2].split()[0] == "2:1"
        assert rows[2].endswith("  diverges (neighbor sits at a zero entry)")
        lines = series.read_text().splitlines()
        assert len(lines) == 1 + 2 * 6000
        assert lines[6001].split(",")[1:3] == ["2", "1"]

    def test_first_component_two_zero_entries_have_no_limit(self, capsys,
                                                          tmp_path):
        # Entries 6 and 1 both sit in the zero block: 0/0 = 1 is only
        # entry_ratio's convention, so the sampled ratio is not checked.
        code, out, _ = run(capsys, "tempo", spider_file(tmp_path), "--pairs",
                           "6:1", "--first-component")
        assert code == 0
        assert out.splitlines()[1].endswith(
            "  none (both entries sit at zero: no eigenvector limit)")
        assert "FAILED" not in out

    def test_first_component_of_a_gauged_autonomous_path(self, capsys,
                                                         tmp_path):
        # Every edge antagonistic: the states are the gauge image of the
        # all-positive path's, so the first-coordinate ratio of neighbors
        # is negative, and so is the reference.
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"n": 6, "edges": [
            {"i": i, "j": i + 1, "w": -1.0} for i in range(1, 6)],
            "x0": [0.9, 0.1, 0.5, 0.3, 0.7, 0.2]}))
        code, out, err = run(capsys, "tempo", str(path), "--pairs", "1:2",
                             "--first-component")
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split() == ["1:2", "-1.36603", "-1.36603"]

    def test_bad_pair_spec(self, capsys):
        code, _, err = run(capsys, "tempo", "g8", "--pairs", "7;3")
        assert code == 2

    @pytest.mark.parametrize("first_component", [False, True])
    def test_series_csv_bytes(self, first_component, capsys, tmp_path,
                              monkeypatch):
        # The CSV must hold exactly the rows the original per-row f-string
        # loop wrote, rebuilt here from the same trajectory.
        monkeypatch.setenv("FSNLAB_SEED", "7")
        path = tmp_path / "g.csv"
        argv = ["tempo", "g8", "--pairs", "7:3,7:6,7:8", "--out", str(path)]
        if first_component:
            argv.append("--first-component")
        code, _, _ = run(capsys, *argv)
        net, cfg, _ = load_fixture("g8")
        model = Model(net, cfg)
        x0 = np.random.default_rng(7).random((net.n, cfg.d))
        traj = simulate(model.generator(), model.forcing, x0, SimulationConfig())
        rows = ["t,follower,followed,value"]
        for i, j in [(7, 3), (7, 6), (7, 8)]:
            for k, v in enumerate(g_ratio_series(traj, i, j, first_component)):
                rows.append(f"{traj.times[k+1]:.17g},{i},{j},{v:.17g}")
        assert path.read_text() == "\n".join(rows) + "\n"
        assert code == 0

    @pytest.mark.parametrize("flags", [[], ["--first-component"]])
    def test_unbalanced_autonomous_network_is_refused_before_simulating(
            self, flags, capsys, tmp_path, monkeypatch):
        # Norm ratios have a limit only on a balanced network: both modes
        # refuse with the gauge's message instead of a tempo mismatch.
        runs = []
        monkeypatch.setattr(cli, "simulate", lambda *args: runs.append(args))
        code, out, err = run(capsys, "tempo", unbalanced_triangle_file(tmp_path),
                             "--pairs", "1:3,3:4", *flags)
        assert (code, out, runs) == (1, "", [])
        assert err == ("error: signed network is not structurally balanced; "
                       "its consensus limit is undefined\n")

    def test_balanced_signed_autonomous_network_in_norm_mode(self, capsys,
                                                            tmp_path):
        # Every edge antagonistic: the norm ratios are those of |W|.
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"n": 6, "edges": [
            {"i": i, "j": i + 1, "w": -1.0} for i in range(1, 6)],
            "x0": [0.9, 0.1, 0.5, 0.3, 0.7, 0.2]}))
        code, out, err = run(capsys, "tempo", str(path), "--pairs", "2:1,3:2,3:4")
        assert (code, err) == (0, "")
        assert [row.split() for row in out.splitlines()[1:]] == [
            ["2:1", "0.732051", "0.732051"], ["3:2", "0.366025", "0.366025"],
            ["3:4", "1", "1"]]


class TestDistributedSelect:
    def test_g8_matches_centralized(self, capsys, tmp_path):
        arcs = tmp_path / "arcs.json"
        code, out, _ = run(capsys, "distributed-select", "g8",
                           "--out", str(arcs))
        assert code == 0
        assert "matches the centralized construction" in out
        assert parse_arc_file(arcs.read_text()).arc_set == G8_FSN

    def test_g6_matches_centralized(self, capsys):
        code, out, _ = run(capsys, "distributed-select", "g6")
        assert code == 0
        assert "matches the centralized construction" in out

    def test_tree_variant(self, capsys):
        code, out, _ = run(capsys, "distributed-select", "t12", "--fan-tree")
        assert code == 0
        assert "matches the centralized construction" in out

    @pytest.mark.parametrize("flags", [["--delta", "0"], ["--eps", "-1"],
                                       ["--fan-tree", "--eps", "nan"]])
    def test_bad_delta_or_eps_is_refused(self, capsys, flags):
        net = "t12" if "--fan-tree" in flags else "g8"
        code, _, err = run(capsys, "distributed-select", net, *flags)
        assert code == 1
        assert "must be finite and positive" in err

    @pytest.mark.parametrize("delta, message", [
        ("10", "RK4 steps of delta=10.0 leave the float range on this "
               "network; take a smaller delta"),
        ("2", "states left the float range by round 640; take a smaller "
              "delta than 2.0")])
    def test_step_past_the_float_range_is_refused(self, delta, message,
                                                  capsys):
        code, out, err = run(capsys, "distributed-select", "g8",
                             "--delta", delta)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("net, flags, arcs, suffix", [
        ("g8", ["--delta", "1e-300"], "(1, 6), (2, 3), (2, 6)",
         "(delta=1e-300, eps=0.0001)"),
        ("t12", ["--fan-tree", "--eps", "1e-300"], "(1, 4), (1, 11), (1, 12)",
         "(delta=0.01, eps=1e-300)")])
    def test_run_without_an_estimate_is_refused(self, net, flags, arcs,
                                                suffix, capsys):
        # Every difference is below its floor from the first round on.
        code, out, err = run(capsys, "distributed-select", net, *flags)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: arcs [{arcs}, ")
        assert err.endswith(f"] got no estimate above the noise floor {suffix}\n")

    def test_tree_with_zero_block_is_refused(self, capsys, tmp_path):
        code, _, err = run(capsys, "distributed-select", spider_file(tmp_path),
                           "--fan-tree")
        assert code == 1
        assert err == ("error: edge (1,6) joins two zero entries (zero block); "
                       "not supported distributively\n")

    def test_disagreement_is_reported(self, capsys, monkeypatch):
        # An engine that keeps one centralized arc, (2, 3), and one arc
        # the centralized construction drops, (3, 2).
        dnet = DirectedNetwork.from_arrays(8, [2, 3], [3, 2], [1.0, 1.0])
        monkeypatch.setattr(cli, "distributed_select",
                            lambda *args, **kw: (dnet, TempoReport(())))
        code, out, err = run(capsys, "distributed-select", "g8")
        assert (code, err) == (1, "")
        missing = sorted(G8_FSN - {(2, 3)})
        assert out.splitlines() == [
            "settled after 0 rounds (delta=0.01, eps=0.0001)",
            "  2 <- 3   w=1", "  3 <- 2   w=1",
            f"FAILED: differs from centralized construction (extra [(3, 2)], "
            f"missing {missing})"]

    def test_fan_fixture_without_leaders_needs_flag(self, capsys):
        code, _, err = run(capsys, "distributed-select", "g12")
        assert code == 1
        assert "fan-tree" in err


class TestSignedDistributedSelect:
    def test_g8_signed_matches_centralized(self, capsys, tmp_path):
        arcs = tmp_path / "arcs.json"
        code, out, err = run(capsys, "distributed-select", "g8-signed",
                             "--out", str(arcs))
        assert (code, err) == (0, "")
        assert "matches the centralized construction" in out
        want = tmp_path / "want.json"
        assert run(capsys, "select", "g8-signed", "--mode", "signed-san-fsn",
                   "--out", str(want))[0] == 0
        got, want = (set(parse_arc_file(p.read_text()).arcs) for p in (arcs, want))
        assert got == want and min(a.w for a in got) < 0

    def test_unbalanced_leader_network_is_refused(self, capsys, tmp_path):
        # A triangle with one antagonistic edge, plus a pendant node.
        path = tmp_path / "unbalanced.json"
        path.write_text(json.dumps({
            "n": 4, "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 3},
                              {"i": 1, "j": 3, "w": -1.0}, {"i": 3, "j": 4}],
            "leaders": [{"node": 1, "input": 1}], "inputs": [[0.5]]}))
        code, _, err = run(capsys, "distributed-select", str(path))
        assert code == 1
        assert err == ("error: network plus input wiring is not "
                       "structurally balanced\n")

    def test_signed_tree_keeps_the_fan_tree_refusal(self, capsys, tmp_path):
        path = tmp_path / "signed-tree.json"
        path.write_text(json.dumps({"n": 6, "edges": [
            {"i": i, "j": i + 1, "w": -1.0 if i == 3 else 1.0}
            for i in range(1, 6)]}))
        code, _, err = run(capsys, "distributed-select", str(path),
                           "--fan-tree")
        assert code == 1
        assert err == ("error: distributed autonomous selection needs "
                       "nonnegative weights; the tree has antagonistic "
                       "(negative) links\n")

    def test_unbalanced_leader_network_is_refused_before_the_rounds(
            self, capsys, tmp_path, monkeypatch):
        def rounds(*args):
            raise AssertionError("the round loop ran")

        monkeypatch.setattr(tempo, "_settle", rounds)
        path = tmp_path / "unbalanced.json"
        path.write_text(json.dumps({
            "n": 4, "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 3, "w": -1.0},
                              {"i": 1, "j": 3}, {"i": 3, "j": 4, "w": 2.0}],
            "leaders": [{"node": 4, "input": 1}], "inputs": [[1.0]]}))
        code, out, err = run(capsys, "distributed-select", str(path))
        assert (code, out) == (1, "")
        assert err == ("error: network plus input wiring is not "
                       "structurally balanced\n")


def unused_input_file(tmp_path, w):
    """The path 1-2-3-4 with edge 1-2 of weight ``w`` and one leader on
    node 1, wired to input 1 of two."""
    path = tmp_path / f"unused-input{w:+g}.json"
    path.write_text(json.dumps({
        "n": 4, "edges": [{"i": 1, "j": 2, "w": w}, {"i": 2, "j": 3},
                          {"i": 3, "j": 4}],
        "leaders": [{"node": 1, "input": 1}], "inputs": [[1.0], [2.0]]}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["select", "--mode", "signed-san-fsn"], ["compare"], ["distributed-select"]])
def test_signed_wiring_with_an_unused_input_runs(argv, capsys, tmp_path):
    # An input no leader reads is no node of the balance test; the signed
    # file keeps the arcs san-fsn keeps on its w = +1 copy.
    want = tmp_path / "want.json"
    assert run(capsys, "select", unused_input_file(tmp_path, 1.0),
               "--mode", "san-fsn", "--out", str(want))[0] == 0
    code, out, err = run(capsys, argv[0], unused_input_file(tmp_path, -1.0),
                         *argv[1:])
    assert (code, err) == (0, "")
    shown = {tuple(map(int, line.split()[:3:2])) for line in out.splitlines()
             if " <- " in line}
    assert shown == parse_arc_file(want.read_text()).arc_set


@pytest.mark.parametrize("argv", [
    ["select", "--mode", "signed-san-fsn"], ["compare"],
    ["tempo", "--pairs", "1:2"], ["distributed-select"], ["analyze"]])
def test_unbalanced_leader_network_is_refused_by_name(argv, capsys, tmp_path):
    # The triangle with one antagonistic edge, plus a pendant that holds the
    # leader: the perturbed Laplacian's smallest eigenvalue is repeated, so
    # the balance test has to come before the eigen checks.
    path = tmp_path / "unbalanced.json"
    path.write_text(json.dumps({
        "n": 4, "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 3},
                          {"i": 1, "j": 3, "w": -1.0}, {"i": 3, "j": 4}],
        "leaders": [{"node": 4, "input": 1}], "inputs": [[1.0]]}))
    code, _, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert err == "error: network plus input wiring is not structurally balanced\n"


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e9, 1e12])
def test_fan_selection_of_scaled_weights(scale, capsys, tmp_path):
    net, _, _ = load_fixture("g12")
    path, arcs = tmp_path / "scaled.json", tmp_path / "arcs.json"
    path.write_text(serialize_network(
        Network.from_arrays(net.n, net.i, net.j, scale * net.w)))
    code, _, err = run(capsys, "select", str(path), "--mode", "fan-fsn",
                       "--out", str(arcs))
    assert (code, err) == (0, "")
    assert parse_arc_file(arcs.read_text()).arc_set == G12_FSN


class TestCompare:
    def test_g8_shows_before_after_rates(self, capsys):
        code, out, _ = run(capsys, "compare", "g8")
        assert code == 0
        assert "original 0.141408" in out
        assert "reduced 1" in out
        assert "all checks passed" in out

    def test_t12_consensus_value(self, capsys):
        code, out, _ = run(capsys, "compare", "t12")
        assert code == 0
        assert "0.6395" in out

    def test_signed_bipartite_split(self, capsys):
        code, out, _ = run(capsys, "compare", "g8-signed")
        assert code == 0
        assert "[1, 2, 5, 6] -> +u | [3, 4, 7, 8] -> -u" in out

    def test_signed_autonomous_path(self, capsys, tmp_path):
        # Every edge antagonistic: the limit alternates in sign along the
        # path, one value per node on one line.
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"n": 6, "edges": [
            {"i": i, "j": i + 1, "w": -1.0} for i in range(1, 6)],
            "x0": [0.9, 0.1, 0.5, 0.3, 0.7, 0.2]}))
        code, out, err = run(capsys, "compare", str(path))
        assert (code, err) == (0, "")
        assert ("predicted [[ 0.1] [-0.1] [ 0.1] [-0.1] [ 0.1] [-0.1]], "
                "simulation err") in out
        assert "->  reduced 1 (tol 1e-08)" in out
        assert "all checks passed" in out

    def test_unbalanced_autonomous_network_is_refused(self, capsys, tmp_path):
        # A triangle with one antagonistic edge, plus a pendant so that the
        # Fiedler value of |W| is simple.
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({"n": 4, "edges": [
            {"i": 1, "j": 2, "w": -1.0}, {"i": 2, "j": 3}, {"i": 1, "j": 3},
            {"i": 3, "j": 4, "w": 2.0}]}))
        code, _, err = run(capsys, "compare", str(path))
        assert code == 1
        assert err == ("error: signed network is not structurally balanced; "
                       "its consensus limit is undefined\n")

    def test_zero_entries_at_the_hub(self, capsys, tmp_path):
        # The spider's hub, node 1, sits at a zero entry, and so does its
        # neighbor 6: references 0 for the nonzero neighbors, none for 6.
        code, out, err = run(capsys, "compare", spider_file(tmp_path))
        assert (code, err) == (0, "")
        rows = out.splitlines()[-4:]
        for row, j in zip(rows, (2, 4)):
            assert row.startswith(f"  g_1,{j}: t=10 ")
            assert row.endswith(", eigen 0.0000")
        assert rows[2:] == [
            "  g_1,6: none (both entries sit at zero: no eigenvector limit)",
            "all checks passed"]

    def test_original_rate_band_is_the_base_tolerance(self, capsys, tmp_path):
        # Node 1 with three legs of 5 nodes, leg 1's weights 1 + 5.6e-7: the
        # original generator has a near-repeated simple eigenvalue, and
        # being symmetric it is never defective, so its band stays 10%.
        path = tmp_path / "spider16.json"
        path.write_text(json.dumps({"n": 16, "edges": [
            {"i": 1 if k == 0 else 2 + 5 * leg + k - 1, "j": 2 + 5 * leg + k,
             "w": 1 + 5.6e-7 if leg == 0 else 1.0}
            for leg in range(3) for k in range(5)]}))
        code, out, err = run(capsys, "compare", str(path))
        assert (code, err) == (0, "")
        assert "original 0.08117 (predicted 0.08101, tol 10%)" in out

    def test_unbalanced_autonomous_network_is_refused_before_simulating(
            self, capsys, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "_verification_runs",
                            lambda *args: runs.append(args))
        code, out, err = run(capsys, "compare", unbalanced_triangle_file(tmp_path))
        assert (code, runs) == (1, [])
        assert "structurally balanced" in err
        assert "retained" not in out


FIXTURES = ["g6", "g8", "g8-signed", "g12", "t12"]


class TestCompareNoiseFloor:
    @pytest.mark.parametrize("seed", range(1, 13))
    @pytest.mark.parametrize("name", FIXTURES)
    def test_all_checks_pass(self, name, seed, capsys, monkeypatch):
        # Covers g6 seed 4 (a rate fitted in rounding noise) and g12 seeds 8
        # and 11 (no sample above the old floor, so the fit was skipped).
        monkeypatch.setenv("FSNLAB_SEED", str(seed))
        code, out, _ = run(capsys, "compare", name)
        assert code == 0, out
        assert "all checks passed" in out

    def _compare(self, capsys, monkeypatch, name, perturb):
        rates = []
        fit, resolve = cli.fitted_rate, cli._resolve_x0
        monkeypatch.setattr(cli, "fitted_rate",
                            lambda traj, target: rates.append(fit(traj, target))
                            or rates[-1])
        monkeypatch.setattr(cli, "_resolve_x0",
                            lambda net, cfg, x0: perturb(resolve(net, cfg, x0)))
        code, out, _ = run(capsys, "compare", name)
        return code, out.splitlines()[-1], np.array([rate for rate, _ in rates])

    @pytest.mark.parametrize("seed", [1, 4, 7, 11])
    @pytest.mark.parametrize("name", FIXTURES)
    def test_verdicts_and_rates_survive_roundoff_perturbation(
            self, name, seed, capsys, monkeypatch):
        monkeypatch.setenv("FSNLAB_SEED", str(seed))
        code, verdict, rates = self._compare(capsys, monkeypatch, name,
                                             lambda x0: x0)
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=(12, 3))
        code_p, verdict_p, rates_p = self._compare(
            capsys, monkeypatch, name,
            lambda x0: x0 * (1 + 1e-13 * signs[:x0.shape[0], :x0.shape[1]]))
        assert (code_p, verdict_p) == (code, verdict)
        assert len(rates) == len(rates_p) == 2
        assert np.all(np.abs(rates_p - rates) < 1e-3 * rates)

    def test_failed_rate_fit_is_a_failed_check(self, capsys, monkeypatch):
        def no_fit(traj, target):
            raise cli.SimulationError("error signal already at numerical floor")
        monkeypatch.setattr(cli, "fitted_rate", no_fit)
        code, out, _ = run(capsys, "compare", "g8")
        assert code == 1
        assert "rate fit failed: error signal already at numerical floor" in out
        assert "'rate_fit'" in out
        assert "all checks passed" not in out


def g12_hub_pairs():
    net, _, _ = load_fixture("g12")
    indptr, nbr, _ = net.adjacency
    hub = int(np.argmax(np.diff(indptr))) + 1
    return [(hub, j) for j in (nbr[indptr[hub - 1]:indptr[hub]] + 1).tolist()]


class TestHeldEstimate:
    @pytest.mark.parametrize("first_component", [False, True])
    def test_pair_without_estimate_fails(self, first_component, capsys,
                                         tmp_path):
        # A consensus x0 never moves, so no sample difference clears the
        # noise floor and neither pair gets an estimate to check.
        doc = json.loads(fixture_text("t12"))
        doc["x0"] = [0.5] * 12
        path = tmp_path / "still.json"
        path.write_text(json.dumps(doc))
        argv = ["tempo", str(path), "--pairs", "1:3,4:6"]
        if first_component:
            argv.append("--first-component")
        code, out, _ = run(capsys, *argv)
        rows = out.splitlines()
        assert code == 1
        for row in rows[1:3]:
            assert "  none (no sample above the noise floor)  " in row
        # No horizon helps a pair that never moves: no horizon hint.
        assert rows[3:] == ["FAILED: no sampled tempo for 1:3, 4:6: no sample "
                            "difference of the followed agent rose above the "
                            "noise floor"]

    @pytest.mark.parametrize("seed", [70, 240])
    def test_g12_hub_pairs_end_on_the_eigenvector_ratio(
            self, seed, capsys, tmp_path, monkeypatch):
        # At these seeds every ratio of g12's last 50 samples lies below the
        # noise floor; the held estimate still ends on the limit.
        monkeypatch.setenv("FSNLAB_SEED", str(seed))
        pairs = g12_hub_pairs()
        path = tmp_path / "g12.csv"
        code, _, _ = run(capsys, "tempo", "g12", "--pairs",
                         ",".join(f"{i}:{j}" for i, j in pairs),
                         "--out", str(path))
        assert code == 0
        net, cfg, _ = load_fixture("g12")
        vec = Model(net, cfg).pair().vector
        rows = path.read_text().splitlines()[1:]
        steps = len(rows) // len(pairs)
        for p, (i, j) in enumerate(pairs):
            last = float(rows[(p + 1) * steps - 1].rsplit(",", 1)[1])
            ref = tempo_limit_from_eigvec(vec, [i], [j])
            assert abs(last - ref) <= TEMPO_TOL * max(1.0, ref)

    @pytest.mark.parametrize("seed", [13, 39])
    def test_held_finals_survive_roundoff_perturbation(self, seed, capsys,
                                                       monkeypatch):
        # The final held estimate of every g12 hub pair, in tempo and in
        # compare, moves by at most 10 eps relative when x0 moves by 1e-13
        # relative.  At these seeds the last raw ratio above an absolute
        # 1e-14 moved by more (1.9e-3 and 1.8e-3).
        monkeypatch.setenv("FSNLAB_SEED", str(seed))
        series, resolve = cli.g_ratio_series, cli._resolve_x0
        pairs = ",".join(f"{i}:{j}" for i, j in g12_hub_pairs())
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=(12, 1))

        def finals(scale):
            got = []

            def record(*args):
                held = series(*args)
                got.append(held[-1])
                return held

            monkeypatch.setattr(cli, "g_ratio_series", record)
            monkeypatch.setattr(cli, "_resolve_x0", lambda net, cfg, x0:
                                resolve(net, cfg, x0) * (1 + scale * signs))
            assert run(capsys, "tempo", "g12", "--pairs", pairs)[0] == 0
            assert run(capsys, "compare", "g12")[0] == 0
            return np.array(got)

        base, moved = finals(0.0), finals(1e-13)
        assert len(base) == 12 and np.isfinite(base).all()
        assert np.all(np.abs(moved - base) <= 10 * DEFAULT_EPS * np.abs(base))


class TestSeedEnv:
    def test_seed_controls_random_x0(self, capsys, tmp_path, monkeypatch):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        c = tmp_path / "c.csv"
        monkeypatch.setenv("FSNLAB_SEED", "1")
        run(capsys, "simulate", "g8", "--horizon", "1", "--out", str(a))
        run(capsys, "simulate", "g8", "--horizon", "1", "--out", str(b))
        monkeypatch.setenv("FSNLAB_SEED", "2")
        run(capsys, "simulate", "g8", "--horizon", "1", "--out", str(c))
        assert a.read_text() == b.read_text()
        assert a.read_text() != c.read_text()


def test_spectrum_past_the_float_range_is_refused(capsys, tmp_path):
    """Weight 1e308 is finite, the Laplacian's eigenvalue 2e308 is not: the
    decomposition is refused instead of printed as nan with exit 0."""
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"n": 2, "edges": [{"i": 1, "j": 2, "w": 1e308}]}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "nan" not in out
    assert err == ("error: eigendecomposition is not finite: the eigenvalues "
                   "exceed the float range\n")


def test_spectrum_near_the_float_range_is_printed(capsys, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"n": 2, "edges": [{"i": 1, "j": 2, "w": 6e307}]}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0 and err == ""
    assert "Laplacian spectrum (smallest 2): 0, 1.2e+308  " in out
    assert "Fiedler value 1.2e+308, simple" in out


@pytest.mark.parametrize("name, solves", [("g8", 2), ("g8-signed", 3)])
def test_analyze_decomposes_each_matrix_once(name, solves, capsys, monkeypatch):
    """An unsigned network's Laplacian is also the matrix of its Fiedler
    pair, so with the perturbed Laplacian g8 needs two decompositions; the
    signed g8 has a signed, an absolute and a perturbed matrix."""
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(1) or eigh(M))
    code, _, _ = run(capsys, "analyze", name)
    assert code == 0
    assert len(calls) == solves


# Every fixture and mode whose selection is defined (the others need leaders).
DEFINED_SELECTIONS = ([(name, mode) for name in ("g6", "g8")
                       for mode in ("san-fsn", "san-ffn", "fan-fsn",
                                    "signed-san-fsn")]
                      + [("g8-signed", "fan-fsn"), ("g8-signed", "signed-san-fsn"),
                         ("g12", "fan-fsn"), ("t12", "fan-fsn")])


def leader_network_128_file(tmp_path):
    """A connected leader network of 128 nodes with random weights: a path
    plus chords, two leaders on one input."""
    rng = np.random.default_rng(128)
    pairs = {(k, k + 1) for k in range(1, 128)}
    pairs |= {tuple(sorted(p)) for p in rng.integers(1, 129, (200, 2)).tolist()
              if p[0] != p[1]}
    path = tmp_path / "n128.json"
    path.write_text(json.dumps({"n": 128, "edges": [
        {"i": i, "j": j, "w": rng.uniform(0.1, 10.0)} for i, j in sorted(pairs)],
        "leaders": [{"node": 1, "input": 1}, {"node": 100, "input": 1}]}))
    return str(path)


@pytest.mark.parametrize("name, mode", DEFINED_SELECTIONS + [
    ("n128", mode) for mode in ("san-fsn", "san-ffn", "fan-fsn", "signed-san-fsn")])
def test_report_file_is_json_dumps_of_the_reduction(name, mode, capsys, tmp_path):
    """orjson alone writes the report and the arc list: a None or NaN that
    crept into a report would put every select on the json module's
    pure-Python indenting encoder."""
    if name == "n128":
        name = leader_network_128_file(tmp_path)
    arcs, report = tmp_path / "arcs.json", tmp_path / "report.json"
    with mock.patch.object(netfile.json, "dumps",
                           side_effect=AssertionError("json.dumps called")):
        code, _, _ = run(capsys, "select", name, "--mode", mode,
                         "--out", str(arcs), "--report", str(report))
    assert code in (0, 1)
    net, cfg, _ = (load_fixture(name) if name in FIXTURE_NAMES
                   else parse_network_file(Path(name).read_text()))
    dnet, want = Model(net, cfg).reduce(mode)
    assert report.read_text() == json.dumps(want, indent=2) + "\n"
    assert parse_arc_file(arcs.read_text()) == dnet


def test_report_the_json_module_writes(capsys, tmp_path):
    """A report whose network name holds a backslash and a non-ASCII
    letter is written by the json module, with its escapes."""
    net, cfg, x0 = load_fixture("g8")
    path = tmp_path / "named.json"
    path.write_text(serialize_network(
        Network.from_arrays(net.n, net.i, net.j, net.w, name="r\u00e9seau\\1e5"),
        cfg, x0))
    report = tmp_path / "report.json"
    with mock.patch.object(netfile.json, "dumps", wraps=json.dumps) as dumps:
        code, _, _ = run(capsys, "select", str(path), "--mode", "san-fsn",
                         "--report", str(report))
    assert code == 0 and dumps.called
    named, cfg, _ = parse_network_file(path.read_text())
    want = Model(named, cfg).reduce("san-fsn")[1]
    assert want["network"] == "r\u00e9seau\\1e5"
    assert report.read_text() == json.dumps(want, indent=2) + "\n"


class TestParserReuse:
    # Flags set by one command must not leak into the next, and a usage
    # error or --version (both SystemExit) must not spoil the parser.
    SEQUENCE = [
        ["select", "g8", "--mode", "san-fsn", "--out", "{tmp}/arcs.json",
         "--report", "{tmp}/report.json"],
        ["select", "g8", "--mode", "san-fsn"],
        ["tempo", "g8", "--pairs", "7:3,7:6", "--first-component",
         "--horizon", "20", "--out", "{tmp}/first.csv"],
        ["select", "g8", "--mode", "no-such-mode"],
        ["--version"],
        ["tempo", "g8", "--pairs", "7:3,7:6", "--horizon", "20",
         "--out", "{tmp}/norm.csv"],
        ["analyze", "g8-signed"],
        ["distributed-select", "t12", "--fan-tree", "--out", "{tmp}/dist.json"],
    ]

    def run_sequence(self, capsys, tmp):
        tmp.mkdir()
        runs = []
        for argv in self.SEQUENCE:
            try:
                code = main([a.format(tmp=tmp) for a in argv])
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            runs.append((code, out.out.replace(str(tmp), "TMP"), out.err))
        return runs, {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}

    def test_reused_parser_matches_fresh_parsers(self, capsys, tmp_path,
                                                 monkeypatch):
        build, builds = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser",
                            lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        reused = self.run_sequence(capsys, tmp_path / "reused")
        assert len(builds) == 1
        monkeypatch.setattr(cli, "_parser", build)   # a new parser per call
        fresh = self.run_sequence(capsys, tmp_path / "fresh")
        assert reused == fresh
        runs, files = reused
        assert [code for code, _, _ in runs] == [0, 0, 0, 2, 0, 0, 0, 0]
        assert "wrote report" in runs[0][1] and "wrote report" not in runs[1][1]
        assert runs[2][1] != runs[5][1]
        assert "invalid choice: 'no-such-mode'" in runs[3][2]
        assert runs[4][1].startswith("fsnlab ")
        assert sorted(files) == ["arcs.json", "dist.json", "first.csv",
                                 "norm.csv", "report.json"]

    def test_handler_rebound_after_the_first_call_runs(self, capsys,
                                                       monkeypatch):
        assert run(capsys, "analyze", "g8")[0] == 0
        monkeypatch.setattr(cli, "cmd_compare",
                            lambda args: 42 if args.network == "g8" else 0)
        assert run(capsys, "compare", "g8")[0] == 42


def loaded_modules(script, *args):
    """The modules loaded in a fresh interpreter after ``script``, which
    reads ``args`` from sys.argv and prints nothing itself."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", script + "\nprint(*sys.modules)", *args],
        env=env, capture_output=True, text=True, check=True).stdout.split()


def oracle_modules(loaded):
    return [m for m in loaded if m.split(".")[0] in ("scipy", "networkx")]


def test_cli_import_loads_no_scipy_or_networkx():
    """Importing the CLI, which every command and the benchmark's set-up
    pay for, loads neither scipy nor networkx (the tests' oracles)."""
    loaded = loaded_modules("import sys, fsnlab.cli")
    assert "fsnlab.cli" in loaded
    assert oracle_modules(loaded) == []


def test_commands_load_no_scipy_or_networkx(tmp_path):
    """Nor does running each command: scipy alone would cost every
    benchmark workload its memory bound."""
    runs = [["analyze", "g12"],
            ["select", "g8", "--mode", "san-fsn"],
            ["select", "g12", "--mode", "fan-fsn"],
            ["simulate", "g8", "--horizon", "5", "--out", str(tmp_path / "x.csv")],
            ["tempo", "g8", "--pairs", "7:3"],
            ["distributed-select", "t12", "--fan-tree"],
            ["compare", "g8"]]
    script = ("import contextlib, io, json, sys\n"
              "from fsnlab.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "assert codes == [0] * len(codes), codes")
    loaded = loaded_modules(script, json.dumps(runs))
    assert "fsnlab.tempo" in loaded
    assert oracle_modules(loaded) == []
