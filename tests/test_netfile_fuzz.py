"""Mutation fuzzing of the three parsers and of ``fsnlab analyze``.

Each example starts from a valid document (a bundled fixture, an arc list,
a trajectory CSV), applies a few random mutations and feeds the result to
the parser.  Whatever the mutation, only ``NetworkFileError`` may escape,
an accepted document must parse to exactly the records the ``json`` module
reads from it, and the CLI must end in exit code 0, 1 or 2.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fsnlab import (FIXTURE_NAMES, NetworkFileError, Trajectory,
                    emit_trajectory, parse_arc_file, parse_network_file,
                    parse_trajectory)
from fsnlab.cli import main
from fsnlab.netfile import _plain_columns, _row_columns, fixture_text

from conftest import G8_FSN, T12_FSN

KEYS = ["name", "n", "directed", "edges", "leaders", "inputs", "x0", "i", "j",
        "w", "node", "input", "sign", "arcs", "follower", "followed", "extra"]
HUGE = [10**400, -10**400, 2**1023, 2**1024, 10**308, 1e308, -1e-320]
leaves = st.one_of(st.none(), st.booleans(), st.integers(-3, 14),
                   st.sampled_from(HUGE), st.floats(), st.text(max_size=3))
values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3)),
    max_leaves=6)

NETWORK_BASES = [json.loads(fixture_text(name)) for name in FIXTURE_NAMES]
ARC_BASES = [
    {"name": name, "n": 12 if name == "t12" else 8,
     "arcs": [{"follower": a, "followed": b, "w": 1.0} for a, b in sorted(arcs)]}
    for name, arcs in (("g8", G8_FSN), ("t12", T12_FSN))]
ARC_BASES.append({"name": "x", "n": 3,
                  "arcs": [{"follower": 1, "followed": 2},
                           {"follower": 3, "followed": 2, "w": -2}]})
TRAJECTORY_BASE = emit_trajectory(Trajectory(
    np.array([0.0, 0.5, 1.0]), np.random.default_rng(0).normal(size=(3, 2, 2))))
CELLS = ["", "nan", "-inf", "0", "-1", "3", "1.5", "1e400", "9" * 30, "x", " 2"]


def _containers(doc, path=()):
    """Paths of every list and object in a JSON value, the root first."""
    if isinstance(doc, (dict, list)):
        yield path
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, child in items:
            yield from _containers(child, path + (key,))


@st.composite
def mutated(draw, bases):
    """A base document with one to three random edits of its JSON tree."""
    doc = json.loads(json.dumps(draw(st.sampled_from(bases))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_containers(doc))))
        node = doc
        for key in path:
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["replace", "delete", "insert"]))
        if op == "insert" or not keys:
            if isinstance(node, dict):
                node[draw(st.sampled_from(KEYS))] = draw(values)
            else:
                node.insert(draw(st.integers(0, len(node))), draw(values))
        elif op == "delete":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = draw(values)
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 2])))
    if draw(st.integers(0, 9)) == 0:  # now and then, broken syntax
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.sampled_from(["", "}", "[", ",", "\x00"]))
    return text


@st.composite
def mutated_trajectory(draw):
    """The base trajectory CSV with random cells, rows or header changed."""
    lines = TRAJECTORY_BASE.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["cell", "delete", "duplicate", "columns"]))
        if op == "cell":
            cells = lines[k].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELLS))
            lines[k] = ",".join(cells)
        elif op == "delete" and len(lines) > 1:
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        else:
            lines[k] += "," + draw(st.sampled_from(CELLS))
    return "\n".join(lines) + "\n"


def _json_records(raw_list, keys):
    """Records as the json module reads them: ids as given, w as a float."""
    return [tuple(r[k] for k in keys) + (float(r.get("w", 1.0)),)
            for r in raw_list]


@given(mutated(NETWORK_BASES))
@settings(max_examples=150, deadline=None)
def test_network_parser_refuses_or_reads_the_document(text):
    try:
        net, cfg, _ = parse_network_file(text)
    except NetworkFileError:
        return
    doc = json.loads(text)
    assert [(e.i, e.j, e.w) for e in net.edges] == _json_records(doc["edges"], "ij")
    assert all(type(e.i) is type(e.j) is int and type(e.w) is float
               for e in net.edges)
    assert (net.n, net.name) == (doc["n"], doc.get("name", ""))
    assert sorted(cfg.leader_nodes if cfg else []) == sorted(
        raw["node"] for raw in doc.get("leaders", []))


@given(mutated(ARC_BASES))
@settings(max_examples=150, deadline=None)
def test_arc_parser_refuses_or_reads_the_document(text):
    try:
        dnet = parse_arc_file(text)
    except NetworkFileError:
        return
    doc = json.loads(text)
    assert [(a.follower, a.followed, a.w) for a in dnet.arcs] == _json_records(
        doc["arcs"], ["follower", "followed"])
    assert all(type(a.follower) is type(a.followed) is int
               and type(a.w) is float for a in dnet.arcs)
    assert (dnet.n, dnet.name) == (doc["n"], doc.get("name", ""))


@given(mutated_trajectory())
@settings(max_examples=150, deadline=None)
def test_trajectory_parser_refuses_or_reads_a_trajectory(text):
    try:
        traj = parse_trajectory(text)
    except NetworkFileError:
        return
    assert traj.states.shape[0] == len(traj.times)


@st.composite
def plain_trajectory(draw):
    """The base trajectory CSV with cells replaced by short strings of the
    characters a plain-number body may hold, or by cells that ``float`` or
    ``int`` read and ``np.loadtxt`` does not, or reads differently."""
    lines = TRAJECTORY_BASE.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, len(lines) - 1))
        cells = lines[k].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.one_of(
            st.text("0123456789+-.eE,\n", max_size=5),
            st.sampled_from(["-nan", "nan", "inf", "1_0", " 1", "1\x0c1", "\u0663",
                             "# 1", "1\r\n1"])))
        lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


@given(st.one_of(plain_trajectory(), mutated_trajectory()))
@settings(max_examples=300, deadline=None)
def test_plain_number_reader_agrees_with_the_row_parser(text):
    """``np.loadtxt`` never accepts a document the row parser refuses, and
    reads the same doubles whenever both accept."""
    fast = _plain_columns(text)
    try:
        slow = _row_columns(text)
    except NetworkFileError:
        assert fast is None
        return
    if fast is not None:
        for a, b in zip(fast, slow):
            assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                  np.ascontiguousarray(b).view(np.uint64))


def test_plain_number_reader_reads_written_trajectories():
    assert _plain_columns(TRAJECTORY_BASE) is not None


@given(mutated(NETWORK_BASES))
@settings(max_examples=40, deadline=None)
def test_analyze_exits_with_a_documented_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.json")
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["analyze", path])
    assert code in (0, 1, 2)
