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

Trajectory and tempo CSV hold times and values as the bytes of ``"%.17g" %
v``, written from array arithmetic by ``_g17``: exactly, in fixed notation,
for magnitudes in [1e-4, 1e16), and by one batched ``"%.17g"`` call for
every other double.  ``parse_trajectory`` reads them back bit for bit, a
body of plain numbers by ``orjson.loads`` in blocks (``_plain_columns``).
"""

from __future__ import annotations

import json
import math
from functools import cache
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


# "%.17g" of many doubles at once.  A double x with 1e-4 <= |x| < 1e16 is
# written in fixed notation, which "%.17g" uses for every such x: its 17
# significant digits, the integer n in [10**16, 10**17), and its decimal
# exponent e come from array arithmetic that is exact (_digits17), and the
# text from four-digit words looked up in _word_table().  Every other
# double (0, -0, NaN, the infinities, subnormals, and magnitudes outside
# that range) is written by one batched "%.17g" call.
_FIXED_MIN, _FIXED_MAX = 1e-4, 1e16
_POW10 = np.array([10.0 ** k for k in range(22)])   # exact: 5**21 < 2**53
_POW10_INT = np.array([10 ** k for k in range(18)], np.int64)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into hi + lo, each of at most 26
    significant bits, so that products of two halves are exact."""
    c = a * 134217729.0             # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


@cache
def _word_table() -> np.ndarray:
    """The words that ``_fixed_words`` writes, four ASCII bytes each read
    as one uint32, a blank written as NUL (the rows of a CSV block are
    joined with their NULs deleted).  Built on first use, so commands that
    write no CSV never build it.

    From _PLAIN, _LEAD, _UNITS and _TRAIL on, the four-digit group k: in
    full, with leading zeros blank (0 is all blank), as the units group of
    an integer part (0 is "   0"), and with trailing zeros blank (0 is all
    blank, 1000 * d the single digit d).  From _POINT, the point followed
    by 0 to 3 zeros, then blank; from _SIGN, blank and then a minus sign.
    """
    k = np.arange(10000, dtype=np.int16)[:, None]
    place = np.array([1000, 100, 10, 1], np.int16)
    digits = (k // place % 10 + ord("0")).astype(np.uint8)
    groups = [digits, np.where(k < place, 0, digits),
              np.where(k < place * [1, 1, 1, 0], 0, digits),
              np.where(k % (10 * place) == 0, 0, digits)]
    marks = np.frombuffer(b".\0\0\0.0\0\0.00\0.000" + bytes(11) + b"-", np.uint8)
    return np.concatenate([*groups, marks.reshape(-1, 4)]).view(np.uint32).ravel()


_PLAIN, _LEAD, _UNITS, _TRAIL, _POINT, _SIGN = 0, 10000, 20000, 30000, 40000, 40005


def _floor_scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, ...]:
    """floor(a * 10**(16 - e)) as int64 when the product is at least 2**53,
    with err and floor(err) for the exact product p + err.

    p = fl(a * 10**k) and err = a * 10**k - p (Dekker's product: 10**k
    and a are split in halves whose products are exact), so for p >= 2**53,
    an integer, the floor is p + floor(err).  A smaller product (e too
    large) gives a result below 10**16, which is all its callers test.
    """
    k = 16 - e
    p = a * _POW10[k]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    floor_err = np.floor(err)
    return p.astype(np.int64) + floor_err.astype(np.int64), err, floor_err


def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits (int64 in [10**16, 10**17)) and decimal
    exponent of each a in [1e-4, 1e16), rounded as "%.17g" rounds: to
    nearest, ties to even, a carry to 10**17 moving into the exponent.

    log10 can miss the exponent by one next to a power of ten, so each
    value whose floor falls outside [10**16, 10**17) is scaled again.  The
    tie test compares err with floor(err) + 0.5, both exact; the fraction
    err - floor(err) could itself round onto 0.5 (err = -(0.5 - 2**-54)).
    """
    e = np.floor(np.log10(a)).astype(np.int64)
    n, err, floor_err = _floor_scaled(a, e)
    while len(off := np.flatnonzero((n - 10**16).view(np.uint64) >= 9 * 10**16)):
        e[off] += np.where(n[off] < 10**16, -1, 1)
        n[off], err[off], floor_err[off] = _floor_scaled(a[off], e[off])
    half = floor_err + 0.5
    n += (err > half) | ((err == half) & (n & 1).astype(bool))
    carry = n == 10**17
    n[carry] = 10**16
    return n, e + carry


def _groups(v: np.ndarray, count: int) -> list[np.ndarray]:
    """The last ``count`` four-digit groups of each v (int64), most
    significant first; the first holds all the digits above the others."""
    groups = []
    for _ in range(count - 1):
        top = v // 10**4
        groups.append(v - top * 10**4)
        v = top
    return [v, *reversed(groups)]


def _fixed_words(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``"%.17g" % v`` of each v of x (1e-4 <= |v| < 1e16), as one row of
    ``_word_table()`` words: a minus sign (a column only when some v is
    negative), the integer part in right-aligned groups, the point and any
    zeros after it, 16 fraction digits in four groups and the 17th in a word
    of its own.  Also the bitwise or of each column, which marks the bytes
    in use."""
    n, e = _digits17(np.abs(x))
    # The integer part, and the fraction's digits left-aligned in 17.
    k = np.minimum(16 - e, 17)
    whole = n // _POW10_INT[k]
    frac = (n - whole * _POW10_INT[k]) * _POW10_INT[17 - k]
    ints = (max(int(e.max(initial=0)), 0) + 4) // 4
    negative = x < 0
    signed = int(negative.any())
    words = np.empty((len(x), signed + ints + 6), np.uint32)
    seen = np.empty(words.shape[1], np.uint32)

    table = _word_table()

    def put(j: int, index: np.ndarray) -> None:
        words[:, j] = column = table[index]
        seen[j] = np.bitwise_or.reduce(column)

    if signed:
        put(0, _SIGN + negative)
    lead = np.ones(len(x), bool)
    units = signed + ints - 1
    for j, group in enumerate(_groups(whole, ints), start=signed):
        put(j, group + np.where(lead, _UNITS if j == units else _LEAD, _PLAIN))
        lead &= group == 0
    high = frac // 10
    last = frac - high * 10
    put(-1, _TRAIL + 1000 * last)
    tail = last == 0
    for j, group in reversed(list(enumerate(_groups(high, 4), start=units + 2))):
        put(j, group + np.where(tail, _TRAIL, _PLAIN))
        tail &= group == 0
    put(units + 1, _POINT + np.where(tail, 4, np.maximum(-e - 1, 0)))
    return words, seen


def _g17(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of each double v of x, as the rows of a uint8 matrix
    padded with NUL bytes, trimmed of the columns blank in every row."""
    x = np.asarray(x, dtype=np.float64).ravel()
    magnitude = np.abs(x)
    fixed = (magnitude >= _FIXED_MIN) & (magnitude < _FIXED_MAX)
    rest = np.flatnonzero(~fixed)
    words, seen = _fixed_words(np.where(fixed, x, 1.0) if len(rest) else x)
    text = words.view(np.uint8)
    if len(rest):
        values = x[rest].tolist()
        texts = np.array(("%.17g " * len(values) % tuple(values)).split(),
                         dtype=f"S{text.shape[1]}")
        text[rest] = texts.view(np.uint8).reshape(len(values), -1)
        seen |= np.bitwise_or.reduce(words[rest], axis=0)
    used = np.flatnonzero(seen.view(np.uint8))
    return text[:, used[0]:used[-1] + 1] if len(used) else text[:, :0]


def csv_stamps(times: np.ndarray) -> np.ndarray:
    """The time stamps of ``csv_rows``: each time's ``%.17g`` text, which a
    re-parse turns back into the same double, as one row of a uint8 matrix
    padded with NUL bytes.  Times are formatted ``CSV_BLOCK`` at a time."""
    starts = range(0, len(times), CSV_BLOCK)
    texts = [_g17(times[k:k + CSV_BLOCK]) for k in starts]
    stamps = np.zeros((len(times), max((t.shape[1] for t in texts), default=0)),
                      np.uint8)
    for k, text in zip(starts, texts):
        stamps[k:k + len(text), :text.shape[1]] = text
    return stamps


def csv_rows(stamps: np.ndarray, ids: list[str],
             values: np.ndarray) -> Iterator[str]:
    """CSV rows ``<stamp>,<id>,value`` of samples, one string per block.

    ``values`` is (samples, len(ids)) and ``stamps`` the ``csv_stamps`` of
    the sample times; sample k gives one row per id, in order, each stamped
    with ``stamps[k]``.  Values are written as ``%.17g``, by ``_g17``.  A
    block of samples is one uint8 matrix of rows ``[stamp | ,id, | value |
    newline]``, each part NUL-padded to its widest text, and its text is
    that matrix with the NUL bytes deleted, decoded once.

    Blocks are sized by values: at most ``CSV_BLOCK`` unless a single
    sample is wider, and at least one sample.  Beside the text, a block's
    transient memory peaks at about 120 bytes a value, in the formatter's
    int64 and float64 arrays of the exact product; the row matrix and the
    text after it are smaller.  That is about 120 * ``CSV_BLOCK`` bytes,
    1 MB, whatever the number of samples.
    """
    m = len(ids)
    labels = np.array([f",{i}," for i in ids], dtype=bytes)
    labels = labels.view(np.uint8).reshape(m, labels.itemsize)
    # Samples per block: CSV_BLOCK over the width rounded up to a power of
    # two, by a shift rather than a division, so width 0 needs no case of
    # its own (its blocks are empty strings).
    step = max(1, CSV_BLOCK >> (m - 1).bit_length())
    for k in range(0, len(stamps), step):
        stamp = stamps[k:k + step]
        text = _g17(values[k:k + step])
        ws, wl, wv = stamp.shape[1], labels.shape[1], text.shape[1]
        width = ws + wl + wv + 1
        block = bytearray(len(stamp) * m * width)
        rows = np.frombuffer(block, np.uint8).reshape(len(stamp), m, width)
        rows[:, :, :ws] = stamp[:, None]
        rows[:, :, ws:ws + wl] = labels
        rows[:, :, ws + wl:-1] = text.reshape(len(stamp), m, wv)
        rows[:, :, -1] = ord("\n")
        del rows, text      # only the block's bytes stay for the text
        yield block.translate(None, b"\0").decode("ascii")


def emit_trajectory(traj: Trajectory) -> str:
    """Trajectory as CSV: header ``t,agent,dim,value``, then one row per value.

    Rows run time-major, then by agent, then by dimension.  Agents and
    dimensions are 1-based plain integers; times and values are written as
    ``%.17g`` (byte for byte, by the array formatter ``_g17``), enough
    digits to reproduce the binary doubles exactly on re-parse
    (``parse_trajectory``).  Each time is formatted once (``csv_stamps``)
    and the rows go through ``csv_rows`` in blocks of at most ``CSV_BLOCK``
    values, so the transient memory beside the text itself stays bounded
    whatever the trajectory's length.
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
