"""The committed record, tests/records.json, against a run of
tools/record_outputs.py on this tree: every command's exit code, stdout,
stderr and written files, under the record's fingerprint.  A change meant
to change an output re-records the file:

    python tools/record_outputs.py src tests/records.json
"""

import argparse
import copy
import hashlib
import importlib.util
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from fsnlab import cli
from fsnlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
RECORDS = json.loads((ROOT / "tests" / "records.json").read_text())
spec = importlib.util.spec_from_file_location(
    "record_outputs", ROOT / "tools" / "record_outputs.py")
record_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_outputs)


def test_every_command_gives_its_recorded_output():
    running = {"fingerprint": record_outputs.fingerprint(),
               "records": record_outputs.record(ROOT / "src")}
    moved = record_outputs.differences(RECORDS, running)
    if moved:
        pytest.fail("\n\n".join(moved), pytrace=False)


def test_every_subcommand_has_a_passing_and_a_failing_record():
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    exits = {}
    for r in RECORDS["records"]:
        exits.setdefault(r["argv"][0], set()).add(r["exit"] == 0)
    assert {name: exits.get(name) for name in action.choices} == {
        name: {True, False} for name in action.choices}


def test_a_one_digit_edit_to_a_stdout_names_its_command():
    edited = copy.deepcopy(RECORDS)
    r = next(r for r in edited["records"] if r["argv"] == ["analyze", "g8"])
    r["stdout"] = re.sub(r"\d", lambda m: str((int(m[0]) + 1) % 10), r["stdout"], count=1)
    moved = record_outputs.differences(edited, RECORDS)
    assert len(moved) == 1
    assert moved[0].startswith(f"analyze g8 (FSNLAB_SEED={r['seed']})\n")
    assert "--- recorded stdout" in moved[0] and "+++ running stdout" in moved[0]


def test_another_blas_core_names_the_fingerprint_field():
    faked = copy.deepcopy(RECORDS)
    faked["fingerprint"]["openblas configuration"] = "OpenBLAS 0.3.31 DYNAMIC_ARCH Haswell"
    assert record_outputs.differences(faked, RECORDS) == [
        "fingerprint 'openblas configuration': recorded "
        "'OpenBLAS 0.3.31 DYNAMIC_ARCH Haswell', running "
        f"{RECORDS['fingerprint']['openblas configuration']!r}"]


def test_g6_at_one_seed_records_every_command(tmp_path, monkeypatch):
    # What the committed record cannot show: the temporary directory is
    # spelled $TMP, FSNLAB_SEED is restored after the run, and a written
    # file's hash is that of the same command run by hand.
    monkeypatch.setenv("FSNLAB_SEED", "3")
    records = record_outputs.record(ROOT / "src", fixtures=("g6",), seeds=("7",))
    assert os.environ["FSNLAB_SEED"] == "3"
    assert tempfile.gettempdir() not in str(records)
    assert "$TMP" in str(records)
    select = records[2]
    assert select["argv"] == ["select", "g6", "--mode", "san-fsn", "--out",
                              "$TMP/arcs.json", "--report", "$TMP/report.json"]
    monkeypatch.setenv("FSNLAB_SEED", "7")
    out = tmp_path / "arcs.json"
    assert main(["select", "g6", "--mode", "san-fsn", "--out", str(out)]) == 0
    assert select["files"]["arcs.json"] == hashlib.sha256(out.read_bytes()).hexdigest()
