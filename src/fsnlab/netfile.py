"""Network documents, arc lists, trajectory CSV, and bundled fixtures.

Network files are JSON objects with keys ``n``, ``directed`` (must be
false), ``edges``, and optional ``name``, ``leaders``, ``inputs``, ``x0``.
Unknown keys are rejected so typos fail loudly.  Serialization round-trips:
parsing what we emit reproduces the parsed model exactly.

One rule holds in both directions: orjson reads and writes JSON, and the
json module reads or writes whatever orjson cannot match.  Network and arc
documents are read by ``orjson``.  When orjson refuses the text, or the
document it reads fails a check, the json module reads it again and its
result is the answer: a refusal, or a document only json reads (NaN and
infinity literals, integers past 64 bits, lone surrogate escapes).  So
every refusal and its message is the json module's.  Their records are
read as columns behind exact-type gates (``_records``).  Network documents,
arc lists and reports are written by ``json_text``, whose contract is the
value, not the spelling: ``json.loads`` of the text equals the value
written, floats bit for bit.  The text is orjson's, as UTF-8, or the json
module's when orjson refuses the value (ints past 64 bits, keys that are
not strings, lone surrogates) or writes ``null`` (for None, NaN and the
infinities).  The command-line front end writes every file as UTF-8.

Trajectory and tempo CSV follow the same rule, and their contract too is
the value: ``float`` of a field, and ``parse_trajectory`` of the file, give
back every double bit for bit.  Times and values are written by
``csv_stamps``: orjson's shortest round-trip texts, and ``repr``'s for NaN
and the infinities, which orjson writes as ``null``.  ``parse_trajectory``
reads a body of plain numbers by ``orjson.loads`` in blocks
(``_plain_columns``).
"""

from __future__ import annotations

import json
import math
from importlib import resources
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Iterator, Optional, TypeVar

import numpy as np
import orjson

from .dynamics import Trajectory, as_columns
from .graphs import (MAX_NODES, DirectedNetwork, GraphError, LeaderLink,
                     Network, SemiAutonomousConfig)

FIXTURE_NAMES = ("g6", "g8", "g8-signed", "g12", "t12")
CSV_BLOCK = 1 << 13     # values formatted per block by csv_rows

_TRAJECTORY_HEADER = "t,agent,dim,value"
_PLAIN_CSV = b"0123456789+-.eE,\n"     # every byte of a plain-number CSV body


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


def _as_finite(value, where: str) -> float:
    number = _as_number(value, where)
    _require(math.isfinite(number), where,
             f"expected a finite number, got {number!r}")
    return number


def _decoded(text: str | bytes) -> str:
    """The text of a document given as str or as UTF-8 bytes."""
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NetworkFileError(f"document is not UTF-8: {exc}") from exc


def _json_object(text: str | bytes) -> dict:
    text = _decoded(text)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFileError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise NetworkFileError(f"document: {exc}") from exc
    except RecursionError:
        raise NetworkFileError("document nests too deeply") from None
    _require(isinstance(doc, dict), "document", "top level must be an object")
    return doc


_Doc = TypeVar("_Doc")


def _read(text: str | bytes, build: Callable[[dict], _Doc]) -> _Doc:
    """``build`` of the document object in ``text`` as the json module
    reads it, built from orjson's reading wherever that is the same.

    orjson's reading is built first.  When orjson refuses the text (NaN
    and infinity literals, numbers past the float range, lone surrogate
    escapes), its top level is not an object, or ``build`` refuses what it
    read (``NetworkFileError`` is a ``ValueError``), the json module reads
    the text again and that reading is built, so every refusal is json's.
    orjson reads an integer past 64 bits as a float, rounded as ``float``
    rounds the integer, which ``build`` refuses where an integer is
    required.
    """
    try:
        doc = orjson.loads(text)
        if type(doc) is dict:
            return build(doc)
    except (ValueError, RecursionError):
        pass
    return build(_json_object(text))


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

    The columns are read by C-level ``map``s, the ids by ``itemgetter``
    and the weights by ``dict.get``, behind exact-type gates: every record
    a dict of both ids and at most a weight, every id an int, every weight
    a float or an int that ``float`` converts.  When a gate fails, the
    per-record checks find the first bad field and raise a
    ``NetworkFileError`` naming it.
    """
    try:
        if set(map(type, raws)) <= {dict}:
            ia, ib = list(map(itemgetter(a), raws)), list(map(itemgetter(b), raws))
            ws = list(map(dict.get, raws, repeat("w"), repeat(1.0)))
            weighted = sum(map(dict.__contains__, raws, repeat("w")))
            kinds = set(map(type, ws))
            # A record that holds both ids has no other key than "w"
            # exactly when its length is 2, or 3 with a weight.
            if (sum(map(len, raws)) == 2 * len(raws) + weighted
                    and set(map(type, ia)) | set(map(type, ib)) <= {int}
                    and kinds <= {float, int}):
                return ia, ib, ws if int not in kinds else list(map(float, ws))
    except (KeyError, OverflowError):    # an id missing, a weight past the floats
        pass
    return _checked_records(raws, field, kind, a, b, "w", _as_number, 1.0)


def _checked_records(raws: list, field: str, kind: str, a: str, b: str, c: str,
                     read: Callable, default) -> tuple[list, list, list]:
    """The ``a``, ``b`` (integers) and ``c`` (``default`` when absent, read
    by ``read``) columns of the records of ``field``, one record at a time;
    a ``NetworkFileError`` names the first bad field.  Leaders come here,
    and edges and arcs when a gate of :func:`_records` fails."""
    keys = {a, b, c}
    ia, ib, ic = [], [], []
    for k, raw in enumerate(raws):
        where = f"{field}[{k}]"
        _require(isinstance(raw, dict), where, f"each {kind} must be an object")
        _only_keys(raw, keys, where)
        _require(a in raw and b in raw, where, f"needs keys '{a}' and '{b}'")
        ia.append(_as_int(raw[a], f"{where}.{a}"))
        ib.append(_as_int(raw[b], f"{where}.{b}"))
        ic.append(read(raw.get(c, default), f"{where}.{c}"))
    return ia, ib, ic


def parse_network_file(
        text: str | bytes,
) -> tuple[Network, Optional[SemiAutonomousConfig], Optional[np.ndarray]]:
    """Parse a network document into (Network, config or None, x0 or None)."""
    return _read(text, _network)


def _network(
        doc: dict,
) -> tuple[Network, Optional[SemiAutonomousConfig], Optional[np.ndarray]]:
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
        nodes, indices, signs = _checked_records(
            doc["leaders"], "leaders", "leader", "node", "input", "sign", _as_int, 1)
        inputs = None
        m = max(indices)
        if "inputs" in doc:
            _require(isinstance(doc["inputs"], list) and doc["inputs"],
                     "inputs", "must be a nonempty list")
            inputs = []
            for k, raw in enumerate(doc["inputs"]):
                where = f"inputs[{k}]"
                _require(isinstance(raw, list) and raw, where,
                         "each input must be a nonempty vector")
                inputs.append(tuple(_as_finite(v, f"{where}[{p}]")
                                    for p, v in enumerate(raw)))
            m = max(m, len(inputs))
        try:
            cfg = SemiAutonomousConfig(m, tuple(map(LeaderLink, nodes, indices, signs)),
                                       tuple(inputs) if inputs else None)
        except GraphError as exc:
            raise NetworkFileError(f"leaders: {exc}") from exc
        k = next((k for k, node in enumerate(nodes) if not 1 <= node <= n), None)
        if k is not None:
            raise NetworkFileError(f"leaders[{k}].node: node {nodes[k]} outside 1..{n}")
    elif "inputs" in doc:
        raise NetworkFileError("inputs: present without any leaders")

    x0 = None
    if "x0" in doc:
        raw = doc["x0"]
        _require(isinstance(raw, list) and len(raw) == n, "x0",
                 f"must list one row per node ({n})")
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in raw):
            x0 = np.array([[_as_finite(v, f"x0[{k}]")] for k, v in enumerate(raw)])
        else:
            rows = []
            for k, row in enumerate(raw):
                where = f"x0[{k}]"
                _require(isinstance(row, list) and row, where,
                         "each row must be a nonempty vector")
                rows.append([_as_finite(v, f"{where}[{p}]")
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
    doc["edges"] = [{"i": i, "j": j, "w": w} for i, j, w in
                    zip(net.i.tolist(), net.j.tolist(), net.w.tolist())]
    if cfg is not None:
        doc["leaders"] = [{"node": l.node, "input": l.input_index, "sign": l.sign}
                          for l in cfg.leader_links]
        if cfg.inputs is not None:
            doc["inputs"] = [list(u) for u in cfg.inputs]
    if x0 is not None:
        doc["x0"] = [list(map(float, row)) for row in as_columns(x0)]
    return json_text(doc) + "\n"


def parse_arc_file(text: str | bytes) -> DirectedNetwork:
    return _read(text, _arcs)


def _arcs(doc: dict) -> DirectedNetwork:
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
    """The arc document ``{"name", "n", "arcs": [{"follower", "followed",
    "w"}, ...]}`` as :func:`json_text` writes it, plus a newline."""
    arcs = [{"follower": i, "followed": j, "w": w} for i, j, w in
            zip(dnet.i.tolist(), dnet.j.tolist(), dnet.w.tolist())]
    return json_text({"name": dnet.name, "n": dnet.n, "arcs": arcs}) + "\n"


def json_text(value) -> str:
    """The JSON text of ``value``, indented by two spaces, which
    ``json.loads`` reads back as ``value`` (tuples as lists): orjson's, or
    the json module's where orjson refuses the value or writes a null token,
    the whole text or one after a space before a comma or a newline."""
    try:
        text = orjson.dumps(value, option=orjson.OPT_INDENT_2)
    except orjson.JSONEncodeError:
        return json.dumps(value, indent=2)
    null = text == b"null" or b" null," in text or b" null\n" in text
    return json.dumps(value, indent=2) if null else text.decode()


def csv_stamps(x: np.ndarray) -> list[bytes]:
    """The CSV text of each double of ``x``, as ASCII bytes: orjson's, the
    shortest text that ``float`` reads back as the same double, or for NaN
    and the infinities, which orjson writes as ``null``, ``repr``'s
    (``nan``, ``inf``, ``-inf``).  ``csv_rows`` writes its stamps and its
    values with it; each ``CSV_BLOCK`` values are one ``orjson.dumps`` call,
    split at its commas."""
    x = np.asarray(x, dtype=np.float64).ravel()
    texts = []
    for k in range(0, len(x), CSV_BLOCK):
        texts += orjson.dumps(x[k:k + CSV_BLOCK],
                              option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    for k in np.flatnonzero(~np.isfinite(x)).tolist():
        texts[k] = repr(float(x[k])).encode()
    return texts


def csv_rows(stamps: list[bytes], ids: list[str],
             values: np.ndarray) -> Iterator[str]:
    """CSV rows ``<stamp>,<id>,value`` of samples, one string per block.

    ``values`` is (samples, len(ids)) and ``stamps`` the ``csv_stamps`` of
    the sample times; sample k gives one row per id, in order, each stamped
    with ``stamps[k]``.  Values are written by ``csv_stamps``.  A block of
    samples is one bytes ``%`` template, ``b"%s,<id>,%s\n"`` per id and
    sample, filled with the stamp and value texts and decoded once.

    Blocks are sized by values: at most ``CSV_BLOCK`` unless a single
    sample is wider, and at least one sample.  Beside the text, a block's
    transient memory peaks at about 50 bytes a value with 24 ids (90 with
    2000 ids, whose template is longer), in the value texts, the template
    and its fields: under 100 * ``CSV_BLOCK`` bytes, 800 kB, whatever the
    number of samples.
    """
    m = len(ids)
    row = b"".join([b"%s," + i.encode() + b",%s\n" for i in ids])
    # Samples per block: CSV_BLOCK over the width rounded up to a power of
    # two, by a shift rather than a division, so width 0 needs no case of
    # its own (its blocks are empty strings).
    step = max(1, CSV_BLOCK >> (m - 1).bit_length())
    for k in range(0, len(stamps), step):
        stamp = stamps[k:k + step]
        s = len(stamp)
        fields = [b""] * (2 * s * m)
        fields[1::2] = csv_stamps(values[k:k + step])
        # Each stamp goes in m fields: one slice a sample or one an id,
        # whichever is fewer Python steps.
        if s < m:
            for j in range(s):
                fields[2 * j * m:2 * (j + 1) * m:2] = [stamp[j]] * m
        else:
            for j in range(m):
                fields[2 * j::2 * m] = stamp
        yield (row * s % tuple(fields)).decode("ascii")


def emit_trajectory(traj: Trajectory) -> str:
    """Trajectory as CSV: header ``t,agent,dim,value``, then one row per value.

    Rows run time-major, then by agent, then by dimension.  Agents and
    dimensions are 1-based plain integers; times and values are written by
    ``csv_stamps``, texts that ``parse_trajectory`` reads back as the same
    doubles, bit for bit, NaN as NaN.  Each time is written once
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
    body is lines of four plain numbers, read in blocks; None for any other
    text, which the row parser reads whole, as it does a body with a block
    that orjson refuses, that fails a gate or that holds a ``-0`` field.

    The body is cut at newlines into blocks of about ``CSV_BLOCK`` values
    (at its mean length of a value), and each block's rows, read by
    ``_block_rows``, go into one array allocated for all the lines, so the
    transient memory beside that array is about one block's.  A block read
    holds only newlines as line breaks, so the blocks' rows fill the array.
    """
    head = _TRAJECTORY_HEADER + "\n"
    if not (text.startswith(head) and text.isascii()):
        return None
    stop = len(text) - text.endswith("\n")
    lines = text.count("\n", len(head), stop) + 1
    size = max(1, CSV_BLOCK * (stop - len(head)) // (4 * lines))
    rows = np.empty((lines, 4))
    k, pos = 0, len(head)
    while pos < stop:
        end = text.find("\n", pos + size, stop)
        end = stop if end < 0 else end
        block = _block_rows(text[pos:end])
        if block is None:
            return None
        rows[k:k + len(block)] = block
        k, pos = k + len(block), end + 1
    return tuple(rows[:k].T) if k else None


def _block_rows(chunk: str) -> Optional[np.ndarray]:
    """The rows of some lines of a trajectory body, as a (lines, 4) float
    array; None when they are not all lines of four plain numbers that
    orjson reads as ``float`` and ``int`` do.

    Lines of plain numbers (digits, signs, points, exponents, commas and
    newlines) are read by one ``orjson.loads``, of the lines with each
    newline written as ``,null,``.  The nulls must come after every fourth
    number, so each line holds four, and every agent and dim must be an
    int (the sum of ints is an int), as ``int`` requires.  A JSON number
    is a text that ``float`` reads, and orjson rounds it as ``float`` does,
    except that ``-0`` reads as the int 0, whose sign is lost: a ``-0``
    field also gives None.
    """
    data = chunk.encode("ascii")
    if data.translate(None, _PLAIN_CSV):
        return None
    breaks = data.count(b"\n")
    doc = b"[" + data.replace(b"\n", b",null,") + b"]"
    try:
        flat = orjson.loads(doc)
    except orjson.JSONDecodeError:
        return None
    if not (len(flat) == 5 * breaks + 4 and flat[4::5].count(None) == breaks
            and type(sum(flat[1::5])) is int and type(sum(flat[2::5])) is int):
        return None
    del flat[4::5]
    rows = np.fromiter(flat, float, len(flat)).reshape(-1, 4)
    # A zero and a minus sign: is some field -0?
    if b"-" in data and not rows.all() and (
            b",-0," in doc or doc.startswith(b"[-0,") or doc.endswith(b",-0]")):
        return None
    return rows


def _row_columns(text: str) -> tuple[np.ndarray, ...]:
    """The (t, agent, dim, value) float columns of a trajectory CSV, read
    line by line; raises on the first bad line."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if len(lines) < 2 or lines[0][1] != _TRAJECTORY_HEADER:
        raise NetworkFileError("trajectory needs header 't,agent,dim,value' and rows")
    rows = []
    for k, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise NetworkFileError(f"line {k}: expected 4 columns, got {len(parts)}")
        # float and int would read 1_0 as 10, and any script's digits and spaces
        if "_" in ln or not ln.isascii():
            raise NetworkFileError(f"line {k}: a field holds '_' or a non-ASCII "
                                   f"character: {ln!r}")
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


def parse_trajectory(text: str | bytes) -> Trajectory:
    """Read a trajectory CSV as ``emit_trajectory`` writes it, given as str
    or as UTF-8 bytes; raises ``NetworkFileError`` naming the first
    problem."""
    text = _decoded(text)
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
