"""Network documents, arc lists, trajectory CSV, and bundled fixtures.

Network files are JSON objects with keys ``n``, ``directed`` (must be
false), ``edges``, and optional ``name``, ``leaders``, ``inputs``, ``x0``.
Unknown keys are rejected so typos fail loudly.  Serialization round-trips:
parsing what we emit reproduces the parsed model exactly.
"""

from __future__ import annotations

import io
import json
import sys
from importlib import resources
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Optional

import numpy as np

from .dynamics import Trajectory, as_columns
from .graphs import (MAX_NODES, DirectedNetwork, GraphError, LeaderLink,
                     Network, SemiAutonomousConfig)

FIXTURE_NAMES = ("g6", "g8", "g8-signed", "g12", "t12")
CSV_BLOCK = 1 << 16     # values formatted per block by csv_rows

_TRAJECTORY_HEADER = "t,agent,dim,value"
_CSV_DTYPE = [("t", "f8"), ("agent", "i8"), ("dim", "i8"), ("value", "f8")]
_PLAIN_CSV = b"0123456789+-.eE,\n"     # every byte of a plain-number CSV body

# float.__repr__ of the non-finite floats, as the json module spells them.
_JSON_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_ARC_TEMPLATE = ('    {\n      "follower": %d,\n      "followed": %d,\n'
                 '      "w": %s\n    }')


class NetworkFileError(ValueError):
    """Malformed network document; the message names the offending field."""


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise NetworkFileError(f"{where}: {msg}")


def _only_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    _require(not unknown, where, f"unknown keys {sorted(unknown)}")


def _as_int(value, where: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             where, f"expected an integer, got {value!r}")
    return value


def _as_number(value, where: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             where, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise NetworkFileError(
            f"{where}: integer of {value.bit_length()} bits is too large "
            "for a float") from None


def _json_object(text: str | bytes) -> dict:
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        doc = json.loads(text)
    except UnicodeDecodeError as exc:
        raise NetworkFileError(f"document is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise NetworkFileError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise NetworkFileError(f"document: {exc}") from exc
    except RecursionError:
        raise NetworkFileError("document nests too deeply") from None
    _require(isinstance(doc, dict), "document", "top level must be an object")
    return doc


def _node_count(doc: dict) -> int:
    n = _as_int(doc["n"], "n")
    _require(n >= 1, "n", f"must be positive, got {n}")
    _require(n <= MAX_NODES, "n", f"{n} is above {MAX_NODES}: its dense n-by-n "
             "float64 generator cannot be addressed")
    return n


def _records(raws: list, field: str, kind: str, a: str,
             b: str) -> tuple[list[int], list[int], list[float]]:
    """The ``a`` ids, ``b`` ids and weights (default 1.0) of the records of
    an edge or arc list, as three columns.

    A record of exactly the right types (a dict of known keys, exact-int
    ids, a float weight or an int within the float range) is read
    directly; any other goes through the per-field checks, which raise a
    ``NetworkFileError`` naming its first bad field.
    """
    keys = frozenset({a, b, "w"})
    ia, ib, ws = [], [], []
    for k, raw in enumerate(raws):
        if not (type(raw) is dict and raw.keys() <= keys
                and type(i := raw.get(a)) is int and type(j := raw.get(b)) is int
                and (type(w := raw.get("w", 1.0)) is float
                     or type(w) is int and abs(w) <= sys.float_info.max)):
            where = f"{field}[{k}]"
            _require(isinstance(raw, dict), where, f"each {kind} must be an object")
            _only_keys(raw, keys, where)
            _require(a in raw and b in raw, where, f"needs keys '{a}' and '{b}'")
            i, j = _as_int(raw[a], f"{where}.{a}"), _as_int(raw[b], f"{where}.{b}")
            w = _as_number(raw.get("w", 1.0), f"{where}.w")
        ia.append(i)
        ib.append(j)
        ws.append(float(w))
    return ia, ib, ws


def parse_network_file(
        text: str | bytes,
) -> tuple[Network, Optional[SemiAutonomousConfig], Optional[np.ndarray]]:
    """Parse a network document into (Network, config or None, x0 or None)."""
    doc = _json_object(text)
    _only_keys(doc, {"name", "n", "directed", "edges", "leaders", "inputs", "x0"},
               "document")
    _require("n" in doc, "document", "missing required key 'n'")
    _require("edges" in doc, "document", "missing required key 'edges'")

    n = _node_count(doc)
    if "directed" in doc:
        _require(doc["directed"] is False, "directed",
                 "only undirected inputs are supported")
    name = doc.get("name", "")
    _require(isinstance(name, str), "name", "must be a string")

    _require(isinstance(doc["edges"], list), "edges", "must be a list")
    edges = _records(doc["edges"], "edges", "edge", "i", "j")

    cfg = None
    if "leaders" in doc:
        _require(isinstance(doc["leaders"], list) and doc["leaders"],
                 "leaders", "must be a nonempty list")
        links = []
        for k, raw in enumerate(doc["leaders"]):
            where = f"leaders[{k}]"
            _require(isinstance(raw, dict), where, "each leader must be an object")
            _only_keys(raw, {"node", "input", "sign"}, where)
            _require("node" in raw and "input" in raw, where,
                     "needs keys 'node' and 'input'")
            links.append(LeaderLink(_as_int(raw["node"], f"{where}.node"),
                                    _as_int(raw["input"], f"{where}.input"),
                                    _as_int(raw.get("sign", 1), f"{where}.sign")))
        inputs = None
        m = max(link.input_index for link in links)
        if "inputs" in doc:
            _require(isinstance(doc["inputs"], list) and doc["inputs"],
                     "inputs", "must be a nonempty list")
            inputs = []
            for k, raw in enumerate(doc["inputs"]):
                where = f"inputs[{k}]"
                _require(isinstance(raw, list) and raw, where,
                         "each input must be a nonempty vector")
                inputs.append(tuple(_as_number(v, f"{where}[{p}]")
                                    for p, v in enumerate(raw)))
            m = max(m, len(inputs))
        try:
            cfg = SemiAutonomousConfig(m, tuple(links),
                                       tuple(inputs) if inputs else None)
        except GraphError as exc:
            raise NetworkFileError(f"leaders: {exc}") from exc
        for k, link in enumerate(links):
            _require(1 <= link.node <= n, f"leaders[{k}].node",
                     f"node {link.node} outside 1..{n}")
    elif "inputs" in doc:
        raise NetworkFileError("inputs: present without any leaders")

    x0 = None
    if "x0" in doc:
        raw = doc["x0"]
        _require(isinstance(raw, list) and len(raw) == n, "x0",
                 f"must list one row per node ({n})")
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in raw):
            x0 = np.array([[_as_number(v, f"x0[{k}]")] for k, v in enumerate(raw)])
        else:
            rows = []
            for k, row in enumerate(raw):
                where = f"x0[{k}]"
                _require(isinstance(row, list) and row, where,
                         "each row must be a nonempty vector")
                rows.append([_as_number(v, f"{where}[{p}]")
                             for p, v in enumerate(row)])
            widths = {len(r) for r in rows}
            _require(len(widths) == 1, "x0", f"ragged rows: widths {sorted(widths)}")
            x0 = np.array(rows)
        if cfg is not None and cfg.d is not None:
            _require(x0.shape[1] == cfg.d, "x0",
                     f"dimension {x0.shape[1]} != input dimension {cfg.d}")

    try:
        net = Network.from_arrays(n, *edges, name=name)
    except GraphError as exc:
        raise NetworkFileError(f"edges: {exc}") from exc
    return net, cfg, x0


def serialize_network(net: Network, cfg: Optional[SemiAutonomousConfig] = None,
                      x0: Optional[np.ndarray] = None) -> str:
    doc: dict = {"name": net.name, "n": net.n, "directed": False}
    doc["edges"] = [{"i": e.i, "j": e.j, "w": e.w} for e in net.edges]
    if cfg is not None:
        doc["leaders"] = [{"node": l.node, "input": l.input_index, "sign": l.sign}
                          for l in cfg.leader_links]
        if cfg.inputs is not None:
            doc["inputs"] = [list(u) for u in cfg.inputs]
    if x0 is not None:
        doc["x0"] = [list(map(float, row)) for row in as_columns(x0)]
    return json.dumps(doc, indent=2) + "\n"


def parse_arc_file(text: str | bytes) -> DirectedNetwork:
    doc = _json_object(text)
    _only_keys(doc, {"name", "n", "arcs"}, "document")
    _require("n" in doc and "arcs" in doc, "document", "needs keys 'n' and 'arcs'")
    n = _node_count(doc)
    name = doc.get("name", "")
    _require(isinstance(name, str), "name", "must be a string")
    _require(isinstance(doc["arcs"], list), "arcs", "must be a list")
    arcs = _records(doc["arcs"], "arcs", "arc", "follower", "followed")
    try:
        return DirectedNetwork.from_arrays(n, *arcs, name=name)
    except GraphError as exc:
        raise NetworkFileError(f"arcs: {exc}") from exc


def serialize_arcs(dnet: DirectedNetwork) -> str:
    """The arc document, byte for byte ``json.dumps(doc, indent=2) + "\\n"``
    of ``{"name", "n", "arcs": [{"follower", "followed", "w"}, ...]}``.

    Each arc fills one ``%``-template; the weights are written together,
    as :func:`json_text` writes a list of scalars (a float by
    ``float.__repr__``), which is how the json module writes them.
    """
    weights = _json_items(dnet.w.tolist(), "")
    arcs = ",\n".join([_ARC_TEMPLATE % arc for arc in
                        zip(dnet.i.tolist(), dnet.j.tolist(), weights)])
    return '{\n  "name": %s,\n  "n": %d,\n  "arcs": %s\n}\n' % (
        json.dumps(dnet.name), dnet.n, f"[\n{arcs}\n  ]" if arcs else "[]")


# The writer of each scalar type, as json.dumps writes it.
_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
                 float: lambda value: _JSON_FLOAT_WORDS.get(
                     text := float.__repr__(value), text),
                 bool: {True: "true", False: "false"}.get,
                 type(None): lambda value: "null"}


def _json_scalar(value) -> str:
    writer = _JSON_SCALARS.get(type(value))
    if writer is not None:
        return writer(value)
    for base in (str, int, float):      # a subclass is written as its base
        if isinstance(value, base):
            return _JSON_SCALARS[base](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_text(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for a value built of
    dicts with string keys, lists, tuples, strings, ints, floats, bools and
    None, without the json module's pure-Python indenting encoder.

    The items of a container that holds only scalars are written by one
    ``map``, and a list of equal-length rows of numbers (a table) by one
    ``%``-template.  Ints and floats are written by ``repr``, which is
    ``float.__repr__`` for a float, with NaN and the infinities spelled as
    json spells them.
    """
    return _json_value(value, "\n")


def _json_value(value, indent: str) -> str:
    """:func:`json_text` of a value that starts after ``indent``, a newline
    and the indentation of its line."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [k + ": " + v for k, v in zip(
            map(encode_basestring_ascii, value),
            _json_items(value.values(), inner))]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        # A table, equal-length rows of ints and floats, is written from
        # one %-template.
        cells = (list(chain.from_iterable(value))
                 if set(map(type, value)) <= {list, tuple}
                 and len(widths := set(map(len, value))) == 1 else [])
        if cells and set(map(type, cells)) <= {int, float}:
            cell = inner + "  "
            row = "[" + cell + ("," + cell).join(["%s"] * widths.pop()) + inner + "]"
            body = ("," + inner).join([row] * len(value)) % tuple(_json_numbers(cells))
        else:
            body = ("," + inner).join(_json_items(value, inner))
        return "[" + inner + body + indent + "]"
    return _json_scalar(value)


def _json_items(values, inner: str) -> Iterable[str]:
    """The texts of the items of one container, each starting after
    ``inner``."""
    kinds = set(map(type, values))
    if kinds <= {int, float}:
        return _json_numbers(values)
    if kinds <= _JSON_SCALARS.keys():
        return map(_json_scalar, values)
    return [_json_value(v, inner) for v in values]


def _json_numbers(values) -> list[str]:
    texts = list(map(repr, values))
    return list(map(_JSON_FLOAT_WORDS.get, texts, texts))


def csv_stamps(times: np.ndarray) -> np.ndarray:
    """The time stamps of ``csv_rows``: each time formatted once as
    ``%.17g``, which a re-parse turns back into the same double."""
    return np.array(list(map("%.17g".__mod__, times.tolist())), dtype=object)


def csv_rows(stamps: np.ndarray, ids: list[str],
             values: np.ndarray) -> Iterator[str]:
    """CSV rows ``<stamp>,<id>,value`` of samples, one joined string per block.

    ``values`` is (samples, len(ids)) and ``stamps`` the ``csv_stamps`` of
    the sample times; sample k gives one row per id, in order, each stamped
    with ``stamps[k]``.  Values are written as ``%.17g``.  A block of
    samples is one ``%``-template, the row template with the ids baked in
    repeated once per sample, filled from one object array of stamps and
    values interleaved row by row.  Blocks are sized by values: at most
    ``CSV_BLOCK`` unless a single sample is wider, and at least one sample,
    so the transient floats and strings stay bounded whatever the length.
    """
    m = len(ids)
    template = "".join("%%s,%s,%%.17g\n" % i for i in ids)
    # Samples per block: CSV_BLOCK over the width rounded up to a power of
    # two, by a shift rather than a division, so width 0 needs no case of
    # its own (its blocks are empty strings).
    step = max(1, CSV_BLOCK >> (m - 1).bit_length())
    for k in range(0, len(stamps), step):
        rows = values[k:k + step]
        block = np.empty((len(rows), m, 2), dtype=object)
        block[:, :, 0] = stamps[k:k + step, None]
        block[:, :, 1] = rows
        yield template * len(rows) % tuple(block.ravel().tolist())


def emit_trajectory(traj: Trajectory) -> str:
    """Trajectory as CSV: header ``t,agent,dim,value``, then one row per value.

    Rows run time-major, then by agent, then by dimension.  Agents and
    dimensions are 1-based plain integers; times and values are written as
    ``%.17g``, enough digits to reproduce the binary doubles exactly on
    re-parse (``parse_trajectory``).  Each time is formatted once
    (``csv_stamps``) and the rows go through ``csv_rows`` in blocks of at
    most ``CSV_BLOCK`` values, so the transient memory beside the text
    itself stays bounded whatever the trajectory's length.
    """
    ids = [f"{agent},{dim}" for agent in range(1, traj.n + 1)
           for dim in range(1, traj.d + 1)]
    values = traj.states.reshape(len(traj.times), traj.n * traj.d)
    return "".join([_TRAJECTORY_HEADER, "\n",
                    *csv_rows(csv_stamps(traj.times), ids, values)])


def _plain_columns(text: str) -> Optional[tuple[np.ndarray, ...]]:
    """The (t, agent, dim, value) float columns of a trajectory CSV whose
    body holds only plain numbers, read by ``np.loadtxt``; None for any
    other text, or when ``loadtxt`` refuses it.

    On such a body (digits, signs, points, exponents, commas and newlines,
    at least one row) ``loadtxt`` reads each field as ``float`` and ``int``
    do, and refuses what they refuse.  Any other text, such as ``nan``
    values, spaces or ``#`` lines (which ``loadtxt`` would skip as
    comments), goes to the row-by-row parser.
    """
    head = _TRAJECTORY_HEADER + "\n"
    if not (isinstance(text, str) and text.startswith(head) and text.isascii()):
        return None
    body = text[len(head):].encode("ascii")
    if body.translate(None, _PLAIN_CSV) or not body.strip(b"\n"):
        return None
    try:
        rows = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=_CSV_DTYPE,
                          comments=None, ndmin=1)
    except (ValueError, OverflowError):
        return None
    return (rows["t"], rows["agent"].astype(float), rows["dim"].astype(float),
            rows["value"])


def _row_columns(text: str) -> tuple[np.ndarray, ...]:
    """The (t, agent, dim, value) float columns of a trajectory CSV, read
    line by line; raises on the first bad line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or lines[0] != _TRAJECTORY_HEADER:
        raise NetworkFileError("trajectory needs header 't,agent,dim,value' and rows")
    rows = []
    for k, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 4:
            raise NetworkFileError(f"line {k}: expected 4 columns, got {len(parts)}")
        try:
            rows.append((float(parts[0]), int(parts[1]), int(parts[2]),
                         float(parts[3])))
        except ValueError as exc:
            raise NetworkFileError(f"line {k}: {exc}") from exc
    try:
        return tuple(np.fromiter(
            chain.from_iterable(rows), float, 4 * len(rows)).reshape(-1, 4).T)
    except OverflowError as exc:
        raise NetworkFileError(f"agent or dim id out of range: {exc}") from exc


def parse_trajectory(text: str) -> Trajectory:
    """Read a trajectory CSV as ``emit_trajectory`` writes it; raises
    ``NetworkFileError`` naming the first problem."""
    columns = _plain_columns(text)
    t, agent, dim, value = columns if columns is not None else _row_columns(text)
    if min(agent.min(), dim.min()) < 1:
        raise NetworkFileError("agent and dim ids must be at least 1")
    n, d = int(agent.max()), int(dim.max())
    if len(t) % (n * d) != 0:
        raise NetworkFileError(f"row count {len(t)} is not a multiple of n*d")
    shape = (len(t) // (n * d), n * d)
    t = t.reshape(shape)
    slot = ((agent - 1) * d + dim - 1).astype(np.intp).reshape(shape)
    same_time = (t == t[:, :1]) | (np.isnan(t) & np.isnan(t[:, :1]))
    bad = (~same_time | (np.sort(slot, axis=1) != np.arange(n * d))).any(axis=1)
    if bad.any():
        raise NetworkFileError(
            f"sample {int(np.argmax(bad)) + 1}: its rows must share one time value "
            f"and list each (agent, dim) pair exactly once")
    states = np.empty(shape)
    np.put_along_axis(states, slot, value.reshape(shape), axis=1)
    return Trajectory(t[:, 0], states.reshape(shape[0], n, d))


def fixture_text(name: str) -> str:
    """Raw JSON of a bundled fixture network."""
    if name not in FIXTURE_NAMES:
        raise NetworkFileError(
            f"unknown fixture {name!r}; bundled: {', '.join(FIXTURE_NAMES)}")
    return (resources.files("fsnlab") / "fixtures" / f"{name}.json").read_text()


def load_fixture(
        name: str,
) -> tuple[Network, Optional[SemiAutonomousConfig], Optional[np.ndarray]]:
    return parse_network_file(fixture_text(name))
