import json
import math
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fsnlab import (FIXTURE_NAMES, Arc, DirectedNetwork, NetworkFileError,
                    SimulationConfig, Trajectory, emit_trajectory, laplacian,
                    load_fixture, parse_arc_file, parse_network_file,
                    parse_trajectory, serialize_arcs, serialize_network,
                    simulate)
from fsnlab import netfile
from fsnlab.cli import main
from fsnlab.graphs import Edge, LeaderLink, Network, SemiAutonomousConfig
from fsnlab.model import Model
from fsnlab.netfile import csv_rows, csv_stamps, fixture_text, json_text


JSON_NUMBERS = st.one_of(
    st.integers(-10**30, 10**30), st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.nan,
                     math.inf, -math.inf]))
# Lists of equal-length rows of numbers, as x0 and inputs hold them.
JSON_TABLES = st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(JSON_NUMBERS, min_size=k, max_size=k)
    | st.tuples(*[JSON_NUMBERS] * k), min_size=1, max_size=5))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_NUMBERS | st.text() | JSON_TABLES,
    lambda items: (st.lists(items, max_size=5)
                   | st.lists(items, max_size=5).map(tuple)
                   | st.dictionaries(st.text(), items, max_size=5)),
    max_leaves=30)

# Values orjson writes exactly, so json_text needs no json module for them:
# finite numbers within 64 bits, no None, and strings without a C0 control
# character, a lone surrogate, a quote or a backslash, some holding number
# texts, some DEL or characters beyond ASCII, which json_text escapes as
# json does.
ORJSON_STRINGS = (st.text(st.characters(min_codepoint=0x20, blacklist_categories=["Cs"],
                                        blacklist_characters='"\\'), max_size=8)
                  .filter(lambda s: "null" not in s)
                  | st.sampled_from(["1e5", "0.00001", ": 1e-8", "x 1e+16", "-0.0000"]))
ORJSON_VALUES = st.recursive(
    st.booleans() | st.integers(-2**63, 2**64 - 1) | ORJSON_STRINGS
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda items: (st.lists(items, max_size=5)
                   | st.lists(items, max_size=5).map(tuple)
                   | st.dictionaries(ORJSON_STRINGS, items, max_size=5)),
    max_leaves=30)


def ref_emit_trajectory(traj):
    """The original writer: one f-string per value, in three nested loops."""
    lines = ["t,agent,dim,value"]
    for k, t in enumerate(traj.times):
        for agent in range(1, traj.n + 1):
            for dim in range(1, traj.d + 1):
                v = traj.states[k, agent - 1, dim - 1]
                lines.append(f"{t:.17g},{agent},{dim},{v:.17g}")
    return "\n".join(lines) + "\n"


def ref_csv_rows(times, ids, values):
    """One f-string per row: what ``csv_rows`` over ``csv_stamps(times)``
    must write."""
    return "".join(f"{t:.17g},{i},{v:.17g}\n" for t, row in zip(times, values)
                   for i, v in zip(ids, row))


# The doubles whose text is easiest to get wrong, drawn often.
SPECIAL_DOUBLES = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                   1.7976931348623157e308])
CSV_DOUBLES = SPECIAL_DOUBLES | st.floats()


def assert_same_doubles(got, want):
    """Bit-for-bit equality, except that any NaN matches any NaN."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestFixtures:
    def test_all_fixtures_load(self):
        for name in FIXTURE_NAMES:
            net, _, _ = load_fixture(name)
            assert net.name == name

    @pytest.mark.parametrize("name,n,edges", [
        ("g6", 6, 5), ("g8", 8, 10), ("g8-signed", 8, 10),
        ("g12", 12, 16), ("t12", 12, 11)])
    def test_fixture_counts(self, name, n, edges):
        net, _, _ = load_fixture(name)
        assert net.n == n
        assert len(net.edges) == edges

    def test_g8_leader_wiring(self):
        _, cfg, _ = load_fixture("g8")
        assert cfg.m == 2
        assert cfg.leader_nodes == frozenset({4, 8})
        assert cfg.inputs == ((0.7, 0.8, 0.9), (0.7, 0.8, 0.9))

    def test_t12_initial_state(self):
        _, cfg, x0 = load_fixture("t12")
        assert cfg is None
        assert x0.shape == (12, 1)
        assert x0[0, 0] == 0.973

    def test_unknown_fixture(self):
        with pytest.raises(NetworkFileError, match="unknown fixture"):
            fixture_text("g99")


class TestParsing:
    def test_self_loop_diagnostic(self):
        doc = '{"n": 2, "edges": [{"i": 1, "j": 1}]}'
        with pytest.raises(NetworkFileError, match="self-loop"):
            parse_network_file(doc)

    def test_duplicate_edge_diagnostic(self):
        doc = '{"n": 2, "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 1}]}'
        with pytest.raises(NetworkFileError, match="duplicate"):
            parse_network_file(doc)

    def test_node_out_of_range(self):
        doc = '{"n": 2, "edges": [{"i": 1, "j": 5}]}'
        with pytest.raises(NetworkFileError, match="outside"):
            parse_network_file(doc)

    def test_repeated_leader(self):
        doc = ('{"n": 2, "edges": [{"i": 1, "j": 2}], '
               '"leaders": [{"node": 1, "input": 1}, {"node": 1, "input": 1}]}')
        with pytest.raises(NetworkFileError, match="twice"):
            parse_network_file(doc)

    def test_malformed_number_names_field(self):
        doc = '{"n": 2, "edges": [{"i": 1, "j": 2, "w": "heavy"}]}'
        with pytest.raises(NetworkFileError, match=r"edges\[0\].w"):
            parse_network_file(doc)

    def test_unknown_key_rejected(self):
        doc = '{"n": 2, "edges": [], "weighted": true}'
        with pytest.raises(NetworkFileError, match="unknown keys"):
            parse_network_file(doc)

    @pytest.mark.parametrize("records,message", [
        ('{"i": 1, "j": 2}, {"i": 2, "j": 3, "x": 1}', r"edges\[1\]: unknown keys \['x'\]"),
        ('{"i": 1, "j": 2, "w": 2}, {"i": 2, "j": 3, "w": 1, "W": 1}',
         r"edges\[1\]: unknown keys \['W'\]"),
        ('{"i": 1, "j": 2, "w": 1}, {"i": 2, "w": 1}', r"edges\[1\]: needs keys 'i' and 'j'"),
        ('{"i": 1, "j": 2}, [2, 3]', r"edges\[1\]: each edge must be an object"),
        ('{"i": 1, "j": 2.0}', r"edges\[0\]\.j: expected an integer, got 2\.0"),
        ('{"i": true, "j": 2}', r"edges\[0\]\.i: expected an integer, got True"),
        ('{"i": 1, "j": 2, "w": false}', r"edges\[0\]\.w: expected a number, got False"),
        ('{"i": 1, "j": 2, "w": 1}, {"i": 2, "j": 3, "w": "1"}',
         r"edges\[1\]\.w: expected a number, got '1'"),
    ])
    def test_bad_record_is_named(self, records, message):
        with pytest.raises(NetworkFileError, match=f"^{message}$"):
            parse_network_file('{"n": 3, "edges": [%s]}' % records)

    @pytest.mark.parametrize("x0,message", [
        ("[[1, 2], [], [3, 4]]", r"x0\[1\]: each row must be a nonempty vector"),
        ("[[], [], []]", r"x0\[0\]: each row must be a nonempty vector"),
        ("[[1], [2, 3], [4]]", r"x0: ragged rows: widths \[1, 2\]"),
        ("[1, [2], 3]", r"x0\[0\]: each row must be a nonempty vector"),
        ("[1, 2, true]", r"x0\[0\]: each row must be a nonempty vector"),
        ("[[1], [2], [null]]", r"x0\[2\]\[0\]: expected a number, got None"),
        ("[1, 2, %s]" % ("9" * 400), r"x0\[2\]: integer of 1329 bits is too large for a float"),
    ])
    def test_bad_x0_entry_is_named(self, x0, message):
        with pytest.raises(NetworkFileError, match=f"^{message}$"):
            parse_network_file('{"n": 3, "edges": [], "x0": %s}' % x0)

    def test_directed_true_rejected(self):
        doc = '{"n": 2, "directed": true, "edges": [{"i": 1, "j": 2}]}'
        with pytest.raises(NetworkFileError, match="undirected"):
            parse_network_file(doc)

    def test_syntax_error_carries_line(self):
        with pytest.raises(NetworkFileError, match="line 2"):
            parse_network_file('{"n": 2,\n "edges": }')

    def test_inputs_without_leaders_rejected(self):
        doc = '{"n": 2, "edges": [{"i": 1, "j": 2}], "inputs": [[1.0]]}'
        with pytest.raises(NetworkFileError, match="without any leaders"):
            parse_network_file(doc)

    def test_x0_dimension_checked_against_inputs(self):
        doc = ('{"n": 2, "edges": [{"i": 1, "j": 2}], '
               '"leaders": [{"node": 1, "input": 1}], "inputs": [[1.0, 2.0]], '
               '"x0": [[1.0], [2.0]]}')
        with pytest.raises(NetworkFileError, match="dimension"):
            parse_network_file(doc)

    def test_default_weight_is_one(self):
        net, _, _ = parse_network_file('{"n": 2, "edges": [{"i": 1, "j": 2}]}')
        assert net.edges[0].w == 1.0


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_round_trips(self, name):
        net, cfg, x0 = load_fixture(name)
        text = serialize_network(net, cfg, x0)
        net2, cfg2, x02 = parse_network_file(text)
        assert net2 == net
        assert cfg2 == cfg
        if x0 is None:
            assert x02 is None
        else:
            assert np.array_equal(x02, x0)

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_serialize_network_is_json_dumps(self, n, data):
        """The network document is ``json.dumps(doc, indent=2)`` byte for
        byte, with leaders, inputs and x0."""
        weights = st.one_of(st.floats(-1e300, 1e300).filter(bool),
                            st.sampled_from([5e-324, -1e-5, 1e16, 0.1, -2.0]))
        pairs = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n),
                                             weights),
                                   max_size=12, unique_by=lambda t: frozenset(t[:2])))
        edges = tuple(Edge(i, j, w) for i, j, w in pairs if i != j)
        name = data.draw(st.text(max_size=6))
        net = Network(n, edges, name=name)
        cfg = x0 = None
        d = data.draw(st.integers(1, 3))
        numbers = st.floats(allow_nan=False, allow_infinity=False)
        if data.draw(st.booleans()):
            nodes = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=n,
                                       unique=True))
            m = data.draw(st.integers(1, 3))
            links = tuple(LeaderLink(v, data.draw(st.integers(1, m)),
                                     data.draw(st.sampled_from([1, -1])))
                          for v in nodes)
            m = max(link.input_index for link in links)
            inputs = (tuple(tuple(data.draw(st.lists(numbers, min_size=d, max_size=d)))
                            for _ in range(m)) if data.draw(st.booleans()) else None)
            cfg = SemiAutonomousConfig(m, links, inputs)
        if data.draw(st.booleans()):
            x0 = data.draw(hnp.arrays(np.float64, (n, d), elements=numbers))
        doc = {"name": name, "n": n, "directed": False,
               "edges": [{"i": e.i, "j": e.j, "w": e.w} for e in net.edges]}
        if cfg is not None:
            doc["leaders"] = [{"node": l.node, "input": l.input_index, "sign": l.sign}
                              for l in cfg.leader_links]
            if cfg.inputs is not None:
                doc["inputs"] = [list(u) for u in cfg.inputs]
        if x0 is not None:
            doc["x0"] = [list(map(float, row)) for row in x0]
        assert serialize_network(net, cfg, x0) == json.dumps(doc, indent=2) + "\n"

    def test_arc_file_round_trip(self):
        from fsnlab import Arc, DirectedNetwork
        dnet = DirectedNetwork(3, (Arc(1, 2, 1.0), Arc(3, 2, -0.5)), name="x")
        again = parse_arc_file(serialize_arcs(dnet))
        assert again == dnet

    def test_equal_graphs_write_the_same_bytes(self):
        # Records and arrays give equal graphs, so they must give equal
        # records and equal files: an int weight is stored as a float.
        dnet = DirectedNetwork(2, (Arc(1, 2, 1),))
        same = DirectedNetwork.from_arrays(2, [1], [2], [1])
        assert dnet == same and dnet.arcs == same.arcs
        assert type(dnet.arcs[0].w) is float
        assert serialize_arcs(dnet) == serialize_arcs(same)
        assert '"w": 1.0\n' in serialize_arcs(dnet)
        net = Network(2, (Edge(1, 2, 3),))
        again = Network.from_arrays(2, [1], [2], [3])
        assert net.edges == again.edges and type(net.edges[0].w) is float
        assert serialize_network(net) == serialize_network(again)

    @given(st.text(), st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 6),
                  st.one_of(st.integers(-10**20, 10**20),
                            st.floats(-1e307, 1e307),
                            st.sampled_from([5e-324, -5e-324, 1e-300, 1e307,
                                             -0.0, 0.1, 1.0, 1e16]))),
        max_size=12, unique_by=lambda t: t[:2]))
    @example("", [])
    @example('q"uo\\te \u00e9\u4e2d\U0001f600\n', [(1, 2, 1), (2, 1, -2.5)])
    @settings(max_examples=120, deadline=None)
    def test_serialize_arcs_is_json_dumps(self, name, arcs):
        """The template writer gives the bytes of the json module; a
        weight is stored, and written, as a float."""
        arcs = [Arc(i, j, w) for i, j, w in arcs if i != j]
        dnet = DirectedNetwork(6, tuple(arcs), name=name)
        doc = {"name": name, "n": 6,
               "arcs": [{"follower": a.follower, "followed": a.followed,
                         "w": float(a.w)} for a in arcs]}
        assert serialize_arcs(dnet) == json.dumps(doc, indent=2) + "\n"

    @given(JSON_VALUES)
    @example({"nested": {"list": [1, [2.5, []], {}], "empty": {}},
              "floats": [-0.0, 5e-324, 1.7976931348623157e308, math.nan,
                         math.inf, -math.inf],
              "table": [[1, -0.0, math.nan], [10**30, math.inf, 5e-324]],
              "not a table": [[True, 1], [None, 2.5], [1, 2, 3]],
              "scalars": [10**40, -10**40, True, False, None, ""],
              "strings": ["\u00e9\u4e2d\U0001f600", "\x00\x1f\x7f\"\\/\n\t"]})
    @example([(1, 2.0), (3, 4.0)])
    @example(["\x7f", {"a\x7fb": 1e-5}])     # DEL: json escapes it, orjson not
    @example(['a "quoted" 1e5', 1e-5, {'"': 1e16}])    # escaped quotes
    @example({"": [0], "0": [0]})     # dict values of equal-length rows
    @settings(max_examples=300, deadline=None)
    def test_json_text_is_json_dumps(self, value):
        assert json_text(value) == json.dumps(value, indent=2)

    def test_number_texts_are_the_json_modules(self):
        # orjson writes the numbers, and only the texts where they may
        # differ from repr's are spelled again; on a seeded sweep every
        # text is the json module's.
        # Finite floats are written by orjson in chunks of their own; the
        # json module writes the non-finite ones and ints past 64 bits.
        rng = np.random.default_rng(27)
        logs = [rng.uniform(lo, hi, 150_000) for lo, hi in
                [(-5.5, -4.5), (-4.5, -3.5), (15.5, 16.5)]]
        floats = np.concatenate([
            rng.integers(0, 2**64, 1_000_000, dtype=np.uint64).view(np.float64),
            *[10.0 ** x for x in logs],
            [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072009e-308,
             1e-5, 1e-4, 1e16, 1.7976931348623157e308]])
        floats.view(np.uint64)[rng.random(len(floats)) < 0.5] ^= np.uint64(1 << 63)
        assert np.isnan(floats).sum() > 100 and np.isinf(floats).sum() >= 2
        assert ((floats != 0) & (np.abs(floats) < 2.2250738585072014e-308)).sum() > 100
        finite = floats[np.isfinite(floats)]
        ints = [0, 2**63 - 1, -(2**63 - 1), -2**63, 2**63, 2**64 - 1]
        chunks = [finite[k:k + (1 << 16)].tolist()
                  for k in range(0, len(finite), 1 << 16)]
        chunks += [floats[~np.isfinite(floats)].tolist(), ints, tuple(ints),
                   ints + [2**64], ints + [-2**63 - 1], [2.5, 2**64, -0.0]]
        for values in chunks:
            texts = [t.strip() for t in json_text(values)[1:-1].split(",")]
            assert texts == json.dumps(values)[1:-1].split(", ")

    @given(ORJSON_VALUES)
    @example({"1e5": [1e-5, "0.00001", {": 1e-8": 1e16}], "a, 0.00001": -1e-300,
              "ints": [2**64 - 1, -2**63, 0], "e": [True, False, "e-", "-0.0000"],
              "0.0000 inside": [10.00001, -100.00002, 1.00001e-7]})
    @example({"name": "r\u00e9seau", "n": 3, "arcs": [
        {"follower": 1, "followed": 2, "w": 1e-5},
        {"follower": 3, "followed": 2, "w": 2.5}]})
    @example(["\x7f", {"a\x7fb \u2028\U0001f600 1e5": 1e16}, "\u00e9\u4e2d 0.00001"])
    @settings(max_examples=200, deadline=None)
    def test_orjson_alone_writes_what_it_writes_exactly(self, value):
        want = json.dumps(value, indent=2)
        with mock.patch.object(netfile.json, "dumps",
                               side_effect=AssertionError("json.dumps called")):
            assert json_text(value) == want

    def test_arc_file_rejects_duplicates(self):
        doc = ('{"n": 2, "arcs": [{"follower": 1, "followed": 2}, '
               '{"follower": 1, "followed": 2}]}')
        with pytest.raises(NetworkFileError, match="duplicate"):
            parse_arc_file(doc)

    def test_arc_file_rejects_overflowing_degree(self):
        doc = ('{"n": 3, "arcs": [{"follower": 1, "followed": 2, "w": 1e308}, '
               '{"follower": 1, "followed": 3, "w": 1e308}]}')
        with pytest.raises(NetworkFileError, match="^arcs: node 1: .*finite"):
            parse_arc_file(doc)

    @pytest.mark.parametrize("doc,field", [
        ('{"n": 2, "arcs": 5}', "arcs"),
        ('{"n": 2, "arcs": {"follower": 1, "followed": 2}}', "arcs"),
        ('{"n": 2, "arcs": [], "name": 7}', "name"),
    ])
    def test_arc_file_type_errors_name_field(self, doc, field):
        with pytest.raises(NetworkFileError, match=f"^{field}: "):
            parse_arc_file(doc)


@pytest.mark.parametrize("parse", [parse_network_file, parse_arc_file])
def test_non_utf8_document_is_network_file_error(parse):
    with pytest.raises(NetworkFileError, match="not UTF-8"):
        parse(b"\xff{}")


HUGE = "1" + "0" * 400          # an integer literal past the float range
REFUSALS = {
    "edge-w": (parse_network_file,
               '{"n": 2, "edges": [{"i": 1, "j": 2, "w": %s}]}' % HUGE,
               r"^edges\[0\]\.w: integer of 1329 bits is too large for a float$"),
    "arc-w": (parse_arc_file,
              '{"n": 6, "arcs": [{"follower": 1, "followed": 2, "w": %s}]}' % HUGE,
              r"^arcs\[0\]\.w: integer .* too large"),
    "x0": (parse_network_file,
           '{"n": 2, "edges": [{"i": 1, "j": 2}], "x0": [1, -%s]}' % HUGE,
           r"^x0\[1\]: integer .* too large"),
    "x0-row": (parse_network_file,
               '{"n": 2, "edges": [{"i": 1, "j": 2}], "x0": [[%s], [1]]}' % HUGE,
               r"^x0\[0\]\[0\]: integer .* too large"),
    "inputs": (parse_network_file,
               '{"n": 2, "edges": [{"i": 1, "j": 2}], '
               '"leaders": [{"node": 1, "input": 1}], "inputs": [[0.5, %s]]}' % HUGE,
               r"^inputs\[0\]\[1\]: integer .* too large"),
    "arc-n": (parse_arc_file, '{"n": -3, "arcs": []}', r"^n: must be positive, got -3$"),
    "huge-n": (parse_network_file, '{"n": 100000000000000000000, "edges": []}',
               r"^n: 100000000000000000000 is above \d+: its dense n-by-n float64 "
               r"generator cannot be addressed$"),
    "arc-huge-n": (parse_arc_file, '{"n": 100000000000000000000, "arcs": []}',
                   r"^n: .* cannot be addressed$"),
    "digit-limit": (parse_network_file, '{"n": %s, "edges": []}' % ("7" * 5000),
                    r"^document: Exceeds the limit"),
    "deep-network": (parse_network_file, "[" * 100000,
                     r"^document nests too deeply$"),
    "deep-arcs": (parse_arc_file, '{"n": 2, "arcs": ' + "[" * 100000,
                  r"^document nests too deeply$"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_unreadable_number_or_nesting_is_refused(case, tmp_path, capsys):
    """An integer no float holds, or a document nested past the recursion
    limit, is a NetworkFileError naming the field, and exit 2 in the CLI."""
    parse, text, message = REFUSALS[case]
    with pytest.raises(NetworkFileError, match=message):
        parse(text)
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = (["analyze", str(path)] if parse is parse_network_file else
            ["simulate", "g6", "--reduced", str(path),
             "--out", str(tmp_path / "x.csv")])
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


PATH_DOC = '{"n": 3, "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 3}], %s}'
NON_FINITE = {
    "x0-nan": ('"x0": [0.1, NaN, 0.3]', "x0[1]: expected a finite number, got nan"),
    "x0-row-inf": ('"x0": [[0.1], [0.2], [Infinity]]',
                   "x0[2][0]: expected a finite number, got inf"),
    "x0-past-the-floats": ('"x0": [0.1, 1e400, 0.3]',
                           "x0[1]: expected a finite number, got inf"),
    "inputs-inf": ('"leaders": [{"node": 1, "input": 1}], '
                   '"inputs": [[0.5, -Infinity]]',
                   "inputs[0][1]: expected a finite number, got -inf"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_state_or_input_is_refused(case, tmp_path, capsys):
    """An x0 or inputs entry is a finite number, and a command that reads
    the file exits 2 naming the field.  Such entries used to be read:
    simulate then failed with the advice to take a smaller dt, and select
    ran on an infinite input."""
    fields, message = NON_FINITE[case]
    text = PATH_DOC % fields
    with pytest.raises(NetworkFileError) as exc:
        parse_network_file(text)
    assert str(exc.value) == message
    path = tmp_path / "net.json"
    path.write_text(text)
    for argv in (["simulate", str(path), "--out", str(tmp_path / "x.csv")],
                 ["select", str(path), "--mode", "san-fsn"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestTrajectoryCsv:
    def test_single_step_row_count(self):
        net = Network(2, (Edge(1, 2),))
        traj = simulate(laplacian(net), None, np.array([0.0, 1.0]),
                        SimulationConfig(dt=0.5, horizon=0.5))
        text = emit_trajectory(traj)
        lines = text.strip().splitlines()
        assert lines[0] == "t,agent,dim,value"
        assert len(lines) == 1 + 2 * traj.n * traj.d

    def test_reparse_is_bit_exact(self):
        net = Network(3, (Edge(1, 2), Edge(2, 3)))
        x0 = np.random.default_rng(0).random((3, 2))
        traj = simulate(laplacian(net), None, x0,
                        SimulationConfig(dt=0.07, horizon=1.4))
        again = parse_trajectory(emit_trajectory(traj))
        assert np.array_equal(again.states, traj.states)

    def test_sample_count_at_reference_settings(self):
        net, cfg, _ = load_fixture("g8")
        from fsnlab import perturbed_laplacian
        traj = simulate(perturbed_laplacian(net, cfg),
                        cfg.input_matrix(8) @ cfg.input_vectors(),
                        np.zeros((8, 3)), SimulationConfig(dt=0.01, horizon=60.0))
        assert len(traj.times) == 6001

    def test_bad_header_rejected(self):
        with pytest.raises(NetworkFileError, match="header|start"):
            parse_trajectory("time,agent,dim,value\n0,1,1,0.5")

    def test_bytes_are_read_as_utf8_text(self):
        text = "t,agent,dim,value\n0,1,1,1\n0.5,1,1,-2.5\n"
        again = parse_trajectory(text.encode())
        assert_same_doubles(again.times, parse_trajectory(text).times)
        assert_same_doubles(again.states, np.array([[[1.0]], [[-2.5]]]))
        with pytest.raises(NetworkFileError, match="not UTF-8"):
            parse_trajectory(text.encode() + b"\xff")

    def test_header_only_rejected(self):
        with pytest.raises(NetworkFileError, match="and rows"):
            parse_trajectory("t,agent,dim,value\n")

    def test_agent_zero_rejected(self):
        with pytest.raises(NetworkFileError, match="at least 1"):
            parse_trajectory("t,agent,dim,value\n0,0,1,0.5\n0,1,1,0.5\n")

    def test_block_with_two_times_rejected(self):
        with pytest.raises(NetworkFileError, match="sample 1: "):
            parse_trajectory("t,agent,dim,value\n0,1,1,0.5\n0.1,2,1,0.5\n")

    def test_nan_time_round_trips(self):
        traj = Trajectory(np.array([0.0, np.nan]), np.arange(4.0).reshape(2, 2, 1))
        again = parse_trajectory(emit_trajectory(traj))
        assert_same_doubles(again.times, traj.times)
        assert_same_doubles(again.states, traj.states)

    def test_repeated_and_missing_pair_rejected(self):
        with pytest.raises(NetworkFileError, match="sample 2: "):
            parse_trajectory("t,agent,dim,value\n0,1,1,0.5\n0,2,1,0.5\n"
                             "1,2,1,0.5\n1,2,1,0.5\n")

    @pytest.mark.parametrize("body,message", [
        ("0,1,1\n0,1,1,1,1\n", "line 2: expected 4 columns, got 3"),
        ("0,1,1,1,1\n0,1,1\n", "line 2: expected 4 columns, got 5"),
        ("0,1,1,0.5\n0,2,1,0.5,1\n0,1,1\n", "line 3: expected 4 columns, got 5"),
        ("0,1,1,0.5\n0,2,1,0.5,7,8,9,1,2\n", "line 3: expected 4 columns, got 9"),
        ("0,1,1,\r0.5\n0,2,1,0.5\n", "line 2: could not convert string to float: ''"),
        ("0,1.0,1,0.5\n", "line 2: invalid literal for int"),
        ("0,1,1e0,0.5\n", "line 2: invalid literal for int"),
        ("0,1,1,0.5\n0,2,1,0.5\n\n0.5,1,1,0.5\n0.5,2,1,1.\n0.5,3,1,x\n",
         "line 7: could not convert"),
    ])
    def test_plain_lines_the_row_parser_refuses(self, body, message):
        # Lines of other widths can add up to whole rows of four numbers,
        # and JSON reads a carriage return, where str.splitlines breaks a
        # line, as a space.
        with pytest.raises(NetworkFileError, match=f"^{message}"):
            parse_trajectory("t,agent,dim,value\n" + body)

    @pytest.mark.parametrize("row", [
        "1,1,1,1_0.5",          # float reads 10.5
        "1_0,1,1,0.5", "1,1,1_0,0.5", "1,1,1,0.5\u00a0",
        "1,\u0661,1,0.5",        # an Arabic-Indic one: int reads agent 1
        "1,1,1,\uff10.5",        # a fullwidth zero
        "\u0661,1,1,inf"])
    def test_underscore_or_non_ascii_field_is_refused(self, row):
        text = "t,agent,dim,value\n0,1,1,0.5\n" + row + "\n"
        with pytest.raises(NetworkFileError, match=re.escape(
                f"line 3: a field holds '_' or a non-ASCII character: {row!r}")):
            parse_trajectory(text)
        with pytest.raises(NetworkFileError, match="^line 3: "):
            parse_trajectory(text.encode())

    def test_spaces_signs_and_words_are_still_read(self):
        # The forms float and int read in ASCII: the row parser keeps them.
        traj = parse_trajectory("t,agent,dim,value\n 0 , +1,1 ,-Infinity\n"
                                "1e0,1,1,nan\n2.,1,1,+0.25e1\n")
        assert_same_doubles(traj.times, np.array([0.0, 1.0, 2.0]))
        assert_same_doubles(traj.states.ravel(), np.array([-np.inf, np.nan, 2.5]))

    @pytest.mark.parametrize("brk", ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85"])
    @pytest.mark.parametrize("block", [8, 1 << 13])
    def test_other_line_breaks_read_as_newlines(self, brk, block, monkeypatch):
        # str.splitlines breaks lines at these too, so the row parser reads
        # whole rows after them; the blocks hold newlines only.
        monkeypatch.setattr(netfile, "CSV_BLOCK", block)
        rows = ["0,1,1,0.5", "0,2,1,0.25", "1,1,1,0.5", "1,2,1,-3"]
        want = parse_trajectory("t,agent,dim,value\n" + "\n".join(rows) + "\n")
        for k in range(1, len(rows)):
            text = ("t,agent,dim,value\n" + "\n".join(rows[:k]) + brk
                    + "\n".join(rows[k:]) + "\n")
            got = parse_trajectory(text)
            assert_same_doubles(got.times, want.times)
            assert_same_doubles(got.states, want.states)

    @pytest.mark.parametrize("block", [8, 1 << 13])
    def test_negative_zero_in_a_plain_body_round_trips(self, block, monkeypatch):
        # JSON reads -0 as the int 0: a reader of JSON numbers loses the
        # sign that float("-0") keeps.  The body holds no inf or nan, so it
        # is all plain numbers, and with 8-value blocks -0 falls first,
        # last or within some blocks only.
        monkeypatch.setattr(netfile, "CSV_BLOCK", block)
        times = np.array([-0.0, 0.0, 0.25, 1.0, 2.0, 3.5])
        states = np.random.default_rng(4).normal(size=(6, 3, 2))
        states[0, 1, 0] = states[3, 2, 1] = states[5, 0, 0] = -0.0
        states[1, 0, 1] = states[4, 1, 1] = 0.0
        traj = Trajectory(times, states)
        text = emit_trajectory(traj)
        assert text.startswith("t,agent,dim,value\n-0,1,1,")
        assert "\n-0,2,1,-0\n" in text and "\n1,3,2,-0\n" in text
        assert netfile._plain_columns(text) is None     # read by the row parser
        again = parse_trajectory(text)
        assert np.array_equal(again.times.view(np.uint64), times.view(np.uint64))
        assert np.array_equal(again.states.view(np.uint64), states.view(np.uint64))


class TestTrajectoryWriter:
    """emit_trajectory must match the original three-loop writer byte for byte."""

    @pytest.mark.parametrize("name,d", [
        ("g6", 1), ("g8", 3), ("g8-signed", 3), ("g12", 1), ("g12", 3),
        ("t12", 1), ("t12", 3)])
    def test_fixture_simulations(self, name, d):
        net, cfg, _ = load_fixture(name)
        model = Model(net, cfg)
        x0 = np.random.default_rng(5).random((net.n, d))
        traj = simulate(model.generator(), model.forcing, x0,
                        SimulationConfig(horizon=12.0))
        assert emit_trajectory(traj) == ref_emit_trajectory(traj)

    def test_partial_last_block(self, monkeypatch):
        # 64 values over a width of 6 (rounded up to 8) is 8 samples a
        # block, so 17 samples end on a block of one.
        monkeypatch.setattr(netfile, "CSV_BLOCK", 64)
        samples = 17
        rng = np.random.default_rng(3)
        traj = Trajectory(np.arange(samples) * 0.01, rng.normal(size=(samples, 3, 2)))
        blocks = list(csv_rows(csv_stamps(traj.times), list("abcdef"),
                               traj.states.reshape(samples, 6)))
        assert [b.count("\n") for b in blocks] == [48, 48, 6]
        assert emit_trajectory(traj) == ref_emit_trajectory(traj)
        no_agents = Trajectory(traj.times, np.empty((samples, 0, 2)))
        assert emit_trajectory(no_agents) == "t,agent,dim,value\n"

    @given(st.sampled_from([4, 16, 64]), st.integers(0, 70), st.integers(0, 40),
           st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_blocks_match_row_by_row_reference(self, block, width, samples,
                                               held, data):
        # Widths 0, 1, a few and past the block size; sample counts across
        # several block ends; the special doubles drawn often.  A held
        # series is tempo's shape: NaN until a first estimate, then each
        # estimate repeated until the next.
        times = data.draw(hnp.arrays(np.float64, samples, elements=CSV_DOUBLES))
        values = data.draw(hnp.arrays(np.float64, (samples, width),
                                      elements=CSV_DOUBLES))
        if held:
            fresh = data.draw(hnp.arrays(bool, samples))
            prefix = data.draw(st.integers(0, samples))
            fresh[:prefix], values[:prefix] = True, np.nan
            values = values[np.maximum.accumulate(
                np.where(fresh, np.arange(samples), 0))]
        ids = [f"{k},{k % 3}" for k in range(width)]
        split = data.draw(st.sampled_from([(width, 1), (1, width)]))
        traj = Trajectory(times, values.reshape(samples, *split))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netfile, "CSV_BLOCK", block)
            rows = "".join(csv_rows(csv_stamps(times), ids, values))
            text = emit_trajectory(traj)
        assert rows == ref_csv_rows(times, ids, values)
        assert text == ref_emit_trajectory(traj)

    def test_special_values(self):
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-300, 1e22,
                   1.7976931348623157e308]
        states = np.array(special + [-v for v in special]).reshape(4, 2, 2)
        traj = Trajectory(np.array([-0.0, 5e-324, 1e22, np.inf]), states)
        text = emit_trajectory(traj)
        assert text == ref_emit_trajectory(traj)
        assert "\n-0,1,2,inf\n-0,2,1,-inf\n-0,2,2,-0\n" in text
        assert "\ninf,2,2,-1.7976931348623157e+308\n" in text
        again = parse_trajectory(text)
        assert_same_doubles(again.times, traj.times)
        assert_same_doubles(again.states, traj.states)

    @given(st.integers(1, 1100), st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_doubles_round_trip(self, samples, n, d, data):
        times = data.draw(hnp.arrays(np.float64, samples,
                                     elements=st.floats(allow_nan=False)))
        states = data.draw(hnp.arrays(np.float64, (samples, n, d)))
        traj = Trajectory(times, states)
        text = emit_trajectory(traj)
        assert text == ref_emit_trajectory(traj)
        again = parse_trajectory(text)
        assert_same_doubles(again.times, traj.times)
        assert_same_doubles(again.states, traj.states)


def percent_17g(x):
    """``"%.17g" % v`` of each double of x, by netfile's array formatter,
    2**16 values at a time."""
    texts = []
    for k in range(0, len(x), 1 << 16):
        text = netfile._g17(x[k:k + (1 << 16)])
        rows = np.column_stack([text, np.full(len(text), ord("\n"), np.uint8)])
        texts += rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return texts


def python_17g(x):
    return ("%.17g\n" * len(x) % tuple(x.tolist())).split("\n")[:-1]


def tie_doubles(rng, count):
    """Doubles halfway between two 17-digit texts: m / 2**j with m odd has
    exactly j decimals, the last a 5, so with j = 17 - d, for values in
    [10**d, 10**(d + 1)), it has 18 significant digits."""
    d = rng.integers(-4, 16, count)
    j = 17 - d
    low = np.ceil(10.0 ** d * 2.0 ** j)
    high = np.minimum(10.0 ** (d + 1) * 2.0 ** j, 2.0 ** 53)
    m = np.floor(low + rng.random(count) * (high - low)).astype(np.int64) | 1
    ties = m / 2.0 ** j
    keep = (ties >= 10.0 ** d) & (ties < 10.0 ** (d + 1))
    return ties[keep]


class TestPercent17g:
    """The array formatter of trajectory and tempo CSV writes exactly what
    ``"%.17g" %`` writes."""

    @given(hnp.arrays(np.float64, st.integers(0, 50), elements=CSV_DOUBLES))
    @settings(max_examples=200, deadline=None)
    def test_matches_percent_format(self, x):
        assert percent_17g(x) == python_17g(x)

    def test_ties(self):
        ties = np.array([123456789012345.125, 123456789012345.375, 0.5 ** 60 * 3])
        assert percent_17g(ties) == python_17g(ties)
        assert percent_17g(ties[:2]) == ["123456789012345.12", "123456789012345.38"]

    def test_sweep_of_ties_powers_of_ten_and_range_edges(self):
        rng = np.random.default_rng(2025)
        near = [10.0 ** np.arange(-5, 18), np.array([1e-4, 1e16])]
        for anchor in list(near):
            below = above = anchor
            for _ in range(8):
                below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
                near += [below, above]
        x = np.concatenate([
            tie_doubles(rng, 450_000), *near,
            rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64),
            10.0 ** rng.uniform(-6, 18, 420_000)])
        x.view(np.uint64)[rng.random(len(x)) < 0.5] ^= np.uint64(1 << 63)
        got, want = percent_17g(x), python_17g(x)
        assert len(got) == len(x) > 900_000
        assert got == want, next((v, g, w) for v, g, w in zip(x, got, want) if g != w)

    def test_transient_memory_per_block(self, monkeypatch):
        # The bound csv_rows's docstring states: about 120 bytes a value
        # beside the text, here checked with room to spare.
        monkeypatch.setattr(netfile, "CSV_BLOCK", 1 << 12)
        rng = np.random.default_rng(9)
        values = rng.normal(size=(4096, 24)) * 30
        stamps = csv_stamps(np.arange(4096) * 0.01)
        rows = csv_rows(stamps, [f"{k},1" for k in range(24)], values)
        tracemalloc.start()
        try:
            transient = []
            for block in rows:
                now, peak = tracemalloc.get_traced_memory()
                transient.append(peak - now)
                tracemalloc.reset_peak()
        finally:
            tracemalloc.stop()
        assert len(transient) == 32       # 128 samples a block
        assert max(transient) < 160 * netfile.CSV_BLOCK


class TestTrajectoryReader:
    def test_transient_memory_per_block(self, monkeypatch):
        # The plain-number reader holds one block's JSON text, Python
        # numbers and array at a time beside the array of all the rows:
        # about 80 bytes a value, here checked with room to spare.  A
        # reader of the whole body at once would take 24 times that.
        monkeypatch.setattr(netfile, "CSV_BLOCK", 1 << 12)
        rng = np.random.default_rng(9)
        traj = Trajectory(np.arange(4096) * 0.01, rng.normal(size=(4096, 8, 3)) * 30)
        text = emit_trajectory(traj)
        tracemalloc.start()
        try:
            columns = netfile._plain_columns(text)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert columns is not None and len(columns[0]) == 24 * 4096
        assert now >= 32 * len(columns[0])         # the rows it returns
        assert peak - now < 120 * netfile.CSV_BLOCK
        again = parse_trajectory(text)
        assert np.array_equal(again.states, traj.states)
