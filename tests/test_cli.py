import json

import numpy as np
import pytest

from fsnlab import parse_arc_file, parse_trajectory
from fsnlab.cli import main

from conftest import G8_FSN


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
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

    def test_san_mode_needs_leaders(self, capsys):
        code, _, err = run(capsys, "select", "g12", "--mode", "san-fsn")
        assert code == 1
        assert "needs leaders" in err


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

    def test_unstable_euler_is_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "g8", "--method", "euler",
                           "--dt", "0.2", "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert "unstable" in err


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

    def test_bad_pair_spec(self, capsys):
        code, _, err = run(capsys, "tempo", "g8", "--pairs", "7;3")
        assert code == 2


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

    def test_fan_fixture_without_leaders_needs_flag(self, capsys):
        code, _, err = run(capsys, "distributed-select", "g12")
        assert code == 1
        assert "fan-tree" in err


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
