"""Mutation fuzzing of the three parsers and of ``fsnlab analyze``.

Each example starts from a valid document (a bundled fixture, an arc list,
a trajectory CSV), applies a few random mutations and feeds the result to
the parser.  Whatever the mutation, only ``NetworkFileError`` may escape,
an accepted document must parse to exactly the records the ``json`` module
reads from it, and the CLI must end in exit code 0, 1 or 2.

The network and arc parsers read documents with orjson and fall back on
the json module; their result must be the json-only reading, bit for bit,
and their refusals json's, message for message.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsnlab import (FIXTURE_NAMES, DirectedNetwork, Network, NetworkFileError,
                    Trajectory, emit_trajectory, parse_arc_file, parse_network_file,
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
    characters a plain-number body may hold, by ``-0`` cells, whose sign a
    JSON reading loses, by cells that ``float`` or ``int`` read and a JSON
    reading does not, or reads differently, or by cells that end a line
    with a line break other than a newline."""
    lines = TRAJECTORY_BASE.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, len(lines) - 1))
        cells = lines[k].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.one_of(
            st.text("0123456789+-.eE,\n", max_size=5),
            st.sampled_from(["-nan", "nan", "inf", "1_0", " 1", "1\x0c1", "\u0663",
                             "# 1", "1\r\n1", "-0", "-0", "-0.0", "-0e0", "+0",
                             "01", "1.", ".5", "1e400", "-1e-400",
                             "18446744073709551616", "-9223372036854775809",
                             "0.5\r0,9,1,0.5", "0.5\x0c0,9,1,0.5"])))
        lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


@given(st.one_of(plain_trajectory(), mutated_trajectory()))
@settings(max_examples=300, deadline=None)
def test_plain_number_reader_agrees_with_the_row_parser(text):
    """The block reader of plain numbers never accepts a document the row
    parser refuses, and reads the same doubles whenever both accept."""
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


# Differential check of the orjson reading against the json-only reading.

def _reading(parse, text):
    """What ``parse`` makes of ``text``, as bytes and reprs that are equal
    only for bit-equal arrays: the graph, config and x0 it returns, or the
    type and message of what it raises."""
    try:
        result = parse(text)
    except Exception as exc:     # a refusal is a reading too
        return type(exc), str(exc)
    graph, cfg, x0 = result if isinstance(result, tuple) else (result, None, None)
    return (type(graph), graph.n, graph.name,
            *[(a.dtype.str, a.tobytes()) for a in (graph.i, graph.j, graph.w)],
            repr(cfg), None if x0 is None else (x0.dtype.str, x0.shape, x0.tobytes()))


def _json_only_reading(parse, text):
    """``_reading`` with orjson refusing every text, so the json module
    reads each document."""
    with mock.patch.object(orjson, "loads", side_effect=ValueError("refused")):
        return _reading(parse, text)


def assert_reads_as_json(parse, text):
    assert _reading(parse, text) == _json_only_reading(parse, text)


@given(mutated(NETWORK_BASES), st.booleans())
@settings(max_examples=150, deadline=None)
def test_network_reading_is_the_json_reading(text, as_bytes):
    assert_reads_as_json(parse_network_file, text.encode() if as_bytes else text)


@given(mutated(ARC_BASES), st.booleans())
@settings(max_examples=150, deadline=None)
def test_arc_reading_is_the_json_reading(text, as_bytes):
    assert_reads_as_json(parse_arc_file, text.encode() if as_bytes else text)


SLOT = "\0slot"
NETWORK_SLOTS = [("n",), ("edges", 0, "i"), ("edges", 0, "j"), ("edges", 0, "w"),
                 ("leaders", 0, "node"), ("leaders", 0, "input"),
                 ("leaders", 0, "sign"), ("inputs", 0, 1), ("x0", 2, 1)]
ARC_SLOTS = [("n",), ("arcs", 0, "follower"), ("arcs", 0, "followed"),
             ("arcs", 0, "w")]
LITERALS = [str(v) for v in (
    2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 2049, -2**63, -2**63 - 1, -2**64,
    10**20, -10**20, 10**400, -10**400, 2**1024 - 2**970, 2**1024 - 2**970 - 1)]
LITERALS += ["1e20", "-1e20", "1e400", "-1e400", "NaN", "Infinity", "-Infinity",
             "7" * 5000, "1" * 400 + ".5"]


def _with_literal(doc, path, literal):
    """The JSON text of ``doc`` with the value at ``path`` written as
    ``literal``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = SLOT
    return json.dumps(doc).replace(json.dumps(SLOT), literal)


G8_WITH_X0 = dict(json.loads(fixture_text("g8")), x0=[[0.5, 0.25, 2.0]] * 8)
T12 = json.loads(fixture_text("t12"))


@pytest.mark.parametrize("literal", LITERALS)
def test_numbers_past_64_bits_or_the_float_range_read_as_json(literal):
    for path in NETWORK_SLOTS:
        assert_reads_as_json(parse_network_file, _with_literal(G8_WITH_X0, path, literal))
    assert_reads_as_json(parse_network_file, _with_literal(T12, ("x0", 3), literal))
    for path in ARC_SLOTS:
        assert_reads_as_json(parse_arc_file, _with_literal(ARC_BASES[0], path, literal))


def _odd_texts():
    """Documents that orjson and json may read apart: lone surrogate escapes,
    duplicate keys, deep nesting, bytes that are not UTF-8, and a BOM."""
    arc = json.dumps(ARC_BASES[2])
    for name in ["\\ud800", "\\udfff", "a\\ud800b", "\\ude00\\ud83d",
                 "\\ud83d\\ude00", "\\u00e9"]:
        yield arc.replace('"x"', f'"{name}"')
    yield arc.replace('"x"', '"\ud800"')         # a lone surrogate in the str
    yield '{"n": 2, "n": 3, "arcs": [], "name": "a", "name": "b"}'
    yield arc.replace('"w": -2', '"w": -2, "w": 4')
    yield arc.replace('"arcs": [', '"arcs": [], "arcs": [')
    for depth in range(1000, 1031):
        nest = "[" * depth + "]" * depth
        yield nest
        yield arc.replace('"x"', nest)
        yield arc.replace("-2", nest)
    data = arc.encode()
    for bad in [b"\xff", b"\x80", b"\xc0\xaf", b"\xed\xa0\x80", b"\xe2\x82",
                b"\xf4\x90\x80\x80", "\u00e9".encode()]:
        yield data.replace(b'"x"', b'"' + bad + b'"')
    yield b"\xef\xbb\xbf" + data
    yield "\ufeff" + arc
    yield data + b"\xff"


@pytest.mark.parametrize("parse", [parse_network_file, parse_arc_file])
def test_surrogates_duplicates_nesting_and_encodings_read_as_json(parse):
    for text in _odd_texts():
        assert_reads_as_json(parse, text)


def _halfway_literals(count: int, seed: int) -> list[str]:
    """Decimal literals at the exact midpoint of two adjacent doubles, and
    one digit above and below it, for normal and subnormal doubles of
    either sign."""
    rng = np.random.default_rng(seed)
    bits = np.concatenate([
        rng.integers(1, 0x7FEF_FFFF_FFFF_FFFF, count, dtype=np.int64),
        rng.integers(1, 1 << 52, count // 4, dtype=np.int64),
        rng.integers(0x3F50_0000_0000_0000, 0x4090_0000_0000_0000, count,
                     dtype=np.int64)])
    lows = bits.view(np.float64)
    literals = []
    for k, (low, high) in enumerate(zip(lows, np.nextafter(lows, np.inf))):
        mid = (Fraction(float(low)) + Fraction(float(high))) / 2
        shift = mid.denominator.bit_length() - 1      # mid = N / 2**shift
        digits, exp = mid.numerator * 5**shift, -shift
        sign = "-" if k % 2 else ""
        for d, e in [(digits, exp), (digits * 10 + 1, exp - 1),
                     (digits * 10 - 1, exp - 1)]:
            text = str(d)
            literals.append(f"{sign}{text}e{e}" if k % 3 else
                            f"{sign}{text[0]}.{text[1:] or '0'}e{e + len(text) - 1}")
    return literals


def test_halfway_decimal_literals_read_as_json():
    literals = _halfway_literals(1000, 20)
    for k in range(0, len(literals), 500):
        chunk = literals[k:k + 500]
        arcs = ", ".join(f'{{"follower": {a + 2}, "followed": 1, "w": {w}}}'
                         for a, w in enumerate(chunk))
        text = f'{{"n": {len(chunk) + 1}, "arcs": [{arcs}]}}'
        assert _reading(parse_arc_file, text)[0] is DirectedNetwork
        assert_reads_as_json(parse_arc_file, text)
        text = f'{{"n": {len(chunk)}, "edges": [], "x0": [{", ".join(chunk)}]}}'
        assert _reading(parse_network_file, text)[0] is Network
        assert_reads_as_json(parse_network_file, text)


def test_halfway_decimal_literals_read_as_float_in_a_trajectory():
    literals = _halfway_literals(1000, 21)
    literals += [str(v) for v in (2**53 + 1, 2**63 + 1025, 2**64 - 1, 2**64 + 2049,
                                  -2**63 - 1025, 10**30 + 1)]
    body = "".join(f"{t},1,1,{v}\n" for t, v in zip(literals, reversed(literals)))
    text = "t,agent,dim,value\n" + body
    fast, slow = _plain_columns(text), _row_columns(text)
    assert fast is not None
    for a, b in zip(fast, slow):
        assert np.array_equal(np.ascontiguousarray(a).view(np.uint64), b.view(np.uint64))


def test_well_formed_documents_need_no_json_module():
    with mock.patch.object(json, "loads", side_effect=AssertionError):
        for name in FIXTURE_NAMES:
            parse_network_file(fixture_text(name))
        for base in ARC_BASES:
            parse_arc_file(json.dumps(base, indent=2).encode())
