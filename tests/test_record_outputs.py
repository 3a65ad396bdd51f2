"""The same-outputs recorder, tools/record_outputs.py, run on one fixture at
one seed: every command is recorded, with the temporary directory spelled
``$TMP`` and each written file by its sha256."""

import hashlib
import importlib.util
import os
from pathlib import Path

from fsnlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "record_outputs", ROOT / "tools" / "record_outputs.py")
record_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_outputs)


def test_g6_at_one_seed_records_every_command(tmp_path, monkeypatch):
    monkeypatch.setenv("FSNLAB_SEED", "3")
    records = record_outputs.record(ROOT / "src", fixtures=("g6",), seeds=("7",))
    assert os.environ["FSNLAB_SEED"] == "3"
    assert "/tmp" not in str(records)
    commands = record_outputs.commands("g6", "2:1,2:3,2:5")
    failing = record_outputs.failing_checks()
    records, checks, refused = (records[:len(commands)],
                                records[len(commands):len(commands) + len(failing)],
                                records[len(commands) + len(failing):])
    assert [r["argv"] for r in records] == commands
    assert all(r["seed"] == "7" and r["exit"] in (0, 1) for r in records)

    # Each failing check exits 1 with a FAILED line, for every command that
    # checks sampled data; its input is in the record.
    assert [r["argv"] for r in checks] == [a for a, _ in failing]
    assert all(r["exit"] == 1 and any(line.startswith("FAILED") for line in
                                      r["stdout"].splitlines()) for r in checks)
    assert {r["argv"][0] for r in checks} == {"tempo", "compare", "distributed-select"}
    assert [sorted(r["files"]) for r in checks] == [sorted(i) for _, i in failing]

    # Every refusal exits 2 and says why; its input is in the record.
    assert [r["argv"] for r in refused] == [a for a, _ in record_outputs.refusals()]
    assert all(r["exit"] == 2 and r["stderr"].startswith("error: ") for r in refused)
    assert refused[0]["stderr"] == "error: edges: self-loop at node 2\n"
    assert sorted(refused[0]["files"]) == ["self-loop.json"]

    select = records[2]
    assert select["argv"][:4] == ["select", "g6", "--mode", "san-fsn"]
    assert (select["exit"], select["stderr"]) == (0, "")
    assert "wrote arcs to $TMP/arcs.json\n" in select["stdout"]
    assert sorted(select["files"]) == ["arcs.json", "report.json"]

    # The record is of what the command writes: the same run by hand gives
    # the same file.
    monkeypatch.setenv("FSNLAB_SEED", "7")
    out = tmp_path / "arcs.json"
    assert main(["select", "g6", "--mode", "san-fsn", "--out", str(out)]) == 0
    assert select["files"]["arcs.json"] == hashlib.sha256(out.read_bytes()).hexdigest()
