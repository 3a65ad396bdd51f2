"""Graph data model and Laplacian-type matrix constructions.

Nodes are 1-based integer ids throughout, matching the usual drawing
convention for small consensus networks.  Undirected edges are stored once
per unordered pair; a DirectedNetwork stores the per-agent neighbor choices
that remain after a selection step.

Both kinds of graph are stored as arrays, one entry per edge or arc: int
arrays ``i`` and ``j`` (for an arc, follower and followed) and a float
array ``w``.  The passes over edges (validation, Laplacians, traversals,
selection) work on these arrays and on a CSR adjacency built from them on
first use; the tuples of ``Edge`` or ``Arc`` records and the per-node
dicts are views, built only when read.  Every Laplacian has sum |w| on its
diagonal and -w off it, for every sign, and one builder per matrix: the
graph Laplacian, its leader-perturbed form and the reduced Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional

import numpy as np

# The largest node count whose dense n-by-n float64 generator has a byte
# size an index can address; a larger n is refused before any per-node work.
MAX_NODES = math.isqrt(np.iinfo(np.intp).max // 8)
_LOAD_BOUND = np.finfo(float).max / 4


class GraphError(ValueError):
    """Invalid graph construction or a violated precondition."""


class Edge(NamedTuple):
    i: int
    j: int
    w: float = 1.0

    def key(self) -> tuple[int, int]:
        return (self.i, self.j) if self.i < self.j else (self.j, self.i)


class Arc(NamedTuple):
    """A retained neighbor choice: ``follower`` keeps listening to ``followed``."""

    follower: int
    followed: int
    w: float = 1.0


# Not a weight, although a float cast would take it.
_NOT_NUMBERS = (str, bytes, bool, np.bool_)


def _integer(v) -> bool:
    """Whether ``v`` is an int or a numpy integer; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _columns(i, j, w) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Copies of the id and weight columns as int64 and float arrays, or
    None when an id is not an int64 or a weight not a real number.  A
    string or a bool is not one, although a cast would take it."""
    cols = (i, j, w)
    try:
        i, j, w = np.asarray(i), np.asarray(j), np.asarray(w)
        if w.dtype.kind not in "iufO" or w.dtype.kind == "O" and any(
                isinstance(x, _NOT_NUMBERS) for x in w.flat):
            return None
        w = w.astype(float)
        ids = []
        for a in (i, j):
            if a.size and a.dtype.kind not in "iu" or a.ndim != 1:
                return None
            ids.append(a.astype(np.int64))
        if not (ids[0].shape == ids[1].shape == w.shape
                and all(map(_bool_free, cols, (*ids, w)))):
            return None
    except (TypeError, ValueError, OverflowError):
        return None
    return (*ids, w)


def _bool_free(column, cast: np.ndarray) -> bool:
    """Whether no entry of ``column`` is a bool, which numpy casts among
    numbers to 0 or 1: only the entries that ``cast`` reads as 0 or 1 are
    looked at, by type, at C level."""
    if isinstance(column, np.ndarray):
        return True
    at = np.flatnonzero((cast == 0) | (cast == 1)).tolist()
    return {bool, np.bool_}.isdisjoint(map(type, map(column.__getitem__, at)))


def _csr(n: int, rows: np.ndarray, cols: np.ndarray):
    """CSR of the entries (rows[k], cols[k]), 0-based and without repeats:
    (indptr, cols in row-major order, k of each entry)."""
    order = np.argsort(rows * n + cols)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order], order


def _reach(indptr: np.ndarray, cols: np.ndarray, start) -> np.ndarray:
    """The depth-first search tree from the ``start`` nodes along CSR rows
    (read as Python lists), 0-based: per node, the node it was reached
    from, itself for a start node and -1 for one not reached."""
    ptr, nbr = indptr.tolist(), cols.tolist()
    tree = [-1] * (len(ptr) - 1)
    stack = []
    for s in start:
        if tree[s] < 0:
            tree[s] = s
            stack.append(s)
    while stack:
        u = stack.pop()
        for v in nbr[ptr[u]:ptr[u + 1]]:
            if tree[v] < 0:
                tree[v] = u
                stack.append(v)
    return np.array(tree)


class _Graph:
    """Storage shared by :class:`Network` and :class:`DirectedNetwork`.

    ``i``, ``j`` (int64 node ids) and ``w`` (float) are read-only arrays
    with one entry per edge or arc.  The records view is built from the
    arrays when first read, so equal graphs have equal records.  Instances
    are immutable; two are equal when their node counts, names and arrays
    are.
    """

    _record: type           # Edge or Arc
    _word: str              # "edge" or "arc"; the records view is its plural
    _loop: str              # "self-loop" or "self-arc"
    _ordered: bool          # (i, j) and (j, i) differ; only i carries the load
    _finite_nonzero: bool   # a weight must be finite and nonzero

    def __init__(self, n: int, records: Iterable = (), name: str = ""):
        """The graph of ``Edge`` (or ``Arc``) records, validated; a refusal
        names the first bad record."""
        records = tuple(records)
        self._build(n, [list(map(attrgetter(f), records))
                        for f in self._record._fields], name)

    @classmethod
    def from_arrays(cls, n: int, i, j, w, name: str = ""):
        """The graph of parallel id and weight columns (arrays or lists),
        validated as the constructor validates records; no record is built."""
        graph = cls.__new__(cls)
        graph._build(n, (i, j, w), name)
        return graph

    @classmethod
    def _valid_arrays(cls, n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray,
                      name: str):
        """The graph of new int64 and float arrays that are valid by
        construction; they are stored without a check."""
        graph = cls.__new__(cls)
        graph._store(n, name, (i, j, w))
        return graph

    def _store(self, n, name, arrays) -> None:
        for a in arrays:
            a.flags.writeable = False
        d = self.__dict__
        d["n"], d["name"] = n, name
        d["i"], d["j"], d["w"] = arrays

    def _build(self, n, cols, name) -> None:
        if n < 1:
            raise GraphError(f"node count must be positive, got {n}")
        if n > MAX_NODES:
            raise GraphError(f"node count {n} is above {MAX_NODES}: its dense "
                             "n-by-n float64 generator cannot be addressed")
        arrays = _columns(*cols)
        if arrays is None or self._broken(*arrays, n):
            raise self._refusal(n, cols)
        self._store(n, name, arrays)

    def _broken(self, i, j, w, n) -> bool:
        """Whether the records break a rule: a self-loop, an id outside
        1..n, an edge weight that is zero or not finite, a duplicate, or a
        node whose load, the sum of the magnitudes of its records' weights
        in record order (an arc's goes to its follower), is not finite.

        The loads are summed only when len(w) * max|w| reaches
        ``_LOAD_BOUND``: below it every such sum is finite, since rounding
        grows a sum of k terms by at most a factor (1 + u)^k.  They are
        numbered densely, so no array spans 1..n."""
        if not len(w):
            return False
        if self._ordered:
            lo, hi = i, j
            low, high = min(i.min(), j.min()), max(i.max(), j.max())
        else:
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            low, high = lo.min(), hi.max()
        a = np.abs(w)
        top = float(a.max())
        # a.min() > 0 and top < inf also fail on a NaN.
        if not ((lo != hi).all() and low >= 1 and high <= n) or (
                self._finite_nonzero and not (a.min() > 0 and top < math.inf)):
            return True
        keys = np.sort(lo * n + hi)
        if (keys[1:] == keys[:-1]).any():
            return True
        if len(a) * top < _LOAD_BOUND:
            return False
        if not self._ordered:
            i, a = np.stack((i, j), axis=1).ravel(), np.repeat(a, 2)
        with np.errstate(over="ignore"):
            loads = np.bincount(np.unique(i, return_inverse=True)[1], weights=a)
        return not np.isfinite(loads).all()

    def _refusal(self, n: int, cols) -> GraphError:
        """The refusal of the first bad record of columns :meth:`_broken`
        or the array conversion refused, from one pass over the records in
        order.  Each record is checked for, in turn: an id that is not an
        integer, a self-loop, an id outside 1..n, a weight that is not a
        number (for an edge, also zero or not finite), a duplicate, and a
        load of one of its ends that is no longer finite."""
        word = self._word
        try:
            i, j, w = (list(c.tolist() if isinstance(c, np.ndarray) else c)
                       for c in cols)
        except TypeError:       # a column that is not a sequence
            i = j = w = ()
        if len(i) == len(j) == len(w):
            seen, load = set(), {}
            for a, b, x in zip(i, j, w):
                if not (_integer(a) and _integer(b)):
                    return GraphError(f"{word} ({a},{b}) has a node id that is "
                                      "not an integer")
                if a == b:
                    return GraphError(f"{self._loop} at node {a}")
                if not (1 <= a <= n and 1 <= b <= n):
                    return GraphError(f"{word} ({a},{b}) outside 1..{n}")
                try:
                    magnitude = None if isinstance(x, _NOT_NUMBERS) else abs(float(x))
                except (TypeError, ValueError, OverflowError):
                    magnitude = None
                if magnitude is None or self._finite_nonzero and not (
                        0 < magnitude < math.inf):
                    return GraphError(f"{word} ({a},{b}) has invalid weight {x}")
                key = (a, b) if self._ordered or a < b else (b, a)
                if key in seen:
                    return GraphError(f"duplicate {word} ({a},{b})")
                seen.add(key)
                for node in (a,) if self._ordered else (a, b):
                    load[node] = load.get(node, 0.0) + magnitude
                    if not math.isfinite(load[node]):
                        ends = zip(i) if self._ordered else zip(i, j)
                        weights = [y for y, e in zip(w, ends) if node in e]
                        return GraphError(f"node {node}: the magnitudes of its "
                                          f"weights {weights} do not sum to a "
                                          "finite float")
        return GraphError(f"{word}s cannot be stored as arrays")

    def _records(self) -> tuple:
        """The records view built from the arrays, as Python ints and floats."""
        columns = zip(self.i.tolist(), self.j.tolist(), self.w.tolist())
        return tuple(map(tuple.__new__, repeat(self._record), columns))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.n == other.n and self.name == other.name
                and all(np.array_equal(a, b) for a, b in
                        ((self.i, other.i), (self.j, other.j), (self.w, other.w))))

    __hash__ = None

    def __repr__(self) -> str:
        view = self._word + "s"
        return (f"{type(self).__name__}(n={self.n}, "
                f"{view}={getattr(self, view)!r}, name={self.name!r})")


class Network(_Graph):
    """Undirected weighted graph, possibly signed (negative weights)."""

    _record, _word, _loop = Edge, "edge", "self-loop"
    _ordered, _finite_nonzero = False, True

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return self._records()

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR neighbor lists, 0-based: (indptr, neighbor, edge index).

        Row u lists u's neighbors ascending, each with the index of the
        edge that joins them.
        """
        m = len(self.w)
        indptr, cols, order = _csr(self.n, np.concatenate((self.i, self.j)) - 1,
                                   np.concatenate((self.j, self.i)) - 1)
        return indptr, cols, order % m if m else order

    @cached_property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        indptr, cols, _ = self.adjacency
        ids, ptr = (cols + 1).tolist(), indptr.tolist()
        return {u + 1: tuple(ids[ptr[u]:ptr[u + 1]]) for u in range(self.n)}

    @property
    def is_signed(self) -> bool:
        return bool((self.w < 0).any())

    def absolute(self) -> "Network":
        """The same topology with all weights replaced by their magnitude."""
        return Network.from_arrays(self.n, self.i, self.j, np.abs(self.w),
                                   name=self.name)


@dataclass(frozen=True)
class LeaderLink:
    node: int
    input_index: int
    sign: int = 1


@dataclass(frozen=True)
class SemiAutonomousConfig:
    """External-input wiring: which agents are leaders and what drives them.

    Each leader is attached to exactly one of the ``m`` inputs; ``sign`` is
    +1 except in signed networks, where a leader may be repelled by its
    input.  ``inputs`` may be omitted when only the topology matters.
    """

    m: int
    leader_links: tuple[LeaderLink, ...]
    inputs: Optional[tuple[tuple[float, ...], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "leader_links", tuple(self.leader_links))
        if not _integer(self.m):
            raise GraphError(f"input count must be an integer, got {self.m!r}")
        if self.m < 1:
            raise GraphError(f"input count must be positive, got {self.m}")
        if not self.leader_links:
            raise GraphError("at least one leader is required")
        seen = set()
        for link in self.leader_links:
            if not _integer(link.node):
                raise GraphError(f"leader node {link.node!r} is not an integer")
            if link.node in seen:
                raise GraphError(f"node {link.node} appears as leader twice")
            seen.add(link.node)
            if not (_integer(link.input_index) and 1 <= link.input_index <= self.m):
                raise GraphError(
                    f"leader {link.node} references input {link.input_index}, "
                    f"valid range is 1..{self.m}")
            if not (_integer(link.sign) and link.sign in (-1, 1)):
                raise GraphError(f"leader sign must be +1 or -1, got {link.sign}")
        if self.inputs is not None:
            inputs = tuple(tuple(float(v) for v in u) for u in self.inputs)
            object.__setattr__(self, "inputs", inputs)
            for k, u in enumerate(inputs):
                if not all(map(math.isfinite, u)):
                    raise GraphError(f"input vector {k + 1} is not finite: {u}")
            if len(inputs) != self.m:
                raise GraphError(f"expected {self.m} input vectors, got {len(inputs)}")
            dims = {len(u) for u in inputs}
            if len(dims) != 1:
                raise GraphError(f"input vectors disagree on dimension: {sorted(dims)}")

    @property
    def leader_nodes(self) -> frozenset[int]:
        return frozenset(link.node for link in self.leader_links)

    @property
    def is_signed(self) -> bool:
        return any(link.sign < 0 for link in self.leader_links)

    @property
    def d(self) -> Optional[int]:
        return len(self.inputs[0]) if self.inputs is not None else None

    def leader_rows(self, n: int) -> np.ndarray:
        """The leaders' 0-based rows in a network of n nodes, in link order;
        raises GraphError naming the first leader node outside 1..n."""
        for link in self.leader_links:
            if not 1 <= link.node <= n:
                raise GraphError(f"leader node {link.node} outside 1..{n}")
        return np.array([link.node for link in self.leader_links]) - 1

    def input_matrix(self, n: int) -> np.ndarray:
        """Signed n-by-m incidence of leaders onto inputs: the sign of each
        leader's link at its :meth:`leader_rows` row and its input's column."""
        B = np.zeros((n, self.m))
        links = self.leader_links
        B[self.leader_rows(n), [link.input_index - 1 for link in links]] = [
            link.sign for link in links]
        return B

    def input_vectors(self) -> np.ndarray:
        if self.inputs is None:
            raise GraphError("configuration carries no input vectors")
        return np.array(self.inputs, dtype=float)


class DirectedNetwork(_Graph):
    """Reduced network: ``i`` follows ``j`` along each arc, with weight ``w``."""

    _record, _word, _loop = Arc, "arc", "self-arc"
    _ordered, _finite_nonzero = True, False

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        return self._records()

    @cached_property
    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self.i.tolist(), self.j.tolist()))

    @cached_property
    def successors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR of the followed nodes per follower, 0-based: (indptr,
        followed, arc index), each row ascending."""
        return _csr(self.n, self.i - 1, self.j - 1)

    @cached_property
    def followers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR of the followers per followed node, the direction influence
        travels, 0-based: (indptr, follower, arc index)."""
        return _csr(self.n, self.j - 1, self.i - 1)


def _fill(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The dense n x n Laplacian of arcs i -> j (0-based) of weights w:
    -w at (i, j), and on row i's diagonal the sum of its |w| taken in arc
    order, as an arc-by-arc ``L[i, i] += |w|`` takes it.

    Raises GraphError, naming n and the bytes needed, when the matrix
    cannot be allocated.
    """
    try:
        L = np.zeros((n, n))
    except MemoryError:
        raise GraphError(f"the dense {n} x {n} Laplacian needs {8 * n * n} "
                         "bytes, more than can be allocated") from None
    L[i, j] -= w
    L.flat[::n + 1] = np.bincount(i, weights=np.abs(w), minlength=n)
    return L


def laplacian(net: Network) -> np.ndarray:
    """Graph Laplacian: sum |w| on the diagonal, -w off it (also signed);
    the :func:`_fill` of both orientations of every edge, in edge order."""
    i, j = net.i - 1, net.j - 1
    return _fill(net.n, np.stack((i, j), axis=1).ravel(),
                 np.stack((j, i), axis=1).ravel(), np.repeat(net.w, 2))


def perturbed_laplacian(net: Network, cfg: SemiAutonomousConfig) -> np.ndarray:
    """Laplacian plus a unit diagonal bump on every leader node, for every
    sign of the edge weights and leader links."""
    return _bump_leaders(laplacian(net), cfg)


def _bump_leaders(L: np.ndarray, cfg: SemiAutonomousConfig) -> np.ndarray:
    """Add the unit leader gain to L's diagonal in place; returns L.

    L is a matrix, or the vector of its diagonal.
    """
    L[(cfg.leader_rows(L.shape[0]),) * L.ndim] += 1.0
    return L


def reduced_laplacian(dnet: DirectedNetwork) -> np.ndarray:
    """Laplacian of a reduced network: each row sums retained |w| only.

    Rows of agents that retain nobody are zero.
    """
    return _fill(dnet.n, dnet.i - 1, dnet.j - 1, dnet.w)


def is_connected(net: Network) -> bool:
    """Whether every node is reachable from node 1.

    A network with fewer than n - 1 edges is disconnected; it is answered
    without a traversal.
    """
    if len(net.w) < net.n - 1:
        return False
    indptr, cols, _ = net.adjacency
    return bool((_reach(indptr, cols, [0]) >= 0).all())


def structural_balance_partition(
        net: Network) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Two-color the nodes so positive edges join same-color endpoints.

    Returns (V1, V2) with node 1 anchored in V1, or None when no such
    bipartition exists.  An all-positive graph yields an empty V2.

    One search of Harary's signed double cover decides it: node u has a
    "+" copy and a "-" copy, a positive edge joins copies of equal sign
    and a negative edge copies of opposite sign.  From node 1's "+" copy
    the search reaches a copy of every node exactly when the network is
    connected, and then both copies of some node exactly when a cycle has
    an odd number of negative edges.  Otherwise V1 holds the nodes whose "+"
    copy it reached and V2 those whose "-" copy it reached.
    """
    n = net.n
    indptr, cols, edge = net.adjacency
    # Row u is node u's "+" copy, row u + n its "-" copy.
    flip = n * (net.w < 0)[edge]
    seen = _reach(np.concatenate((indptr, indptr[1:] + len(cols))),
                  np.concatenate((cols + flip, cols + n - flip)), [0]) >= 0
    plus, minus = seen[:n], seen[n:]
    if not (plus | minus).all():
        raise GraphError("balance partition requires a connected network")
    if (plus & minus).any():
        return None
    return (frozenset((np.flatnonzero(plus) + 1).tolist()),
            frozenset((np.flatnonzero(minus) + 1).tolist()))


def augmented_signed_network(net: Network, cfg: SemiAutonomousConfig) -> Network:
    """Graph plus one extra node per input that some leader reads, wired to
    its leaders with the link sign.

    Used to test structural balance of the leader wiring together with the
    network itself.  The inputs read get ids n+1, n+2, ... in input order;
    an input no leader reads drives nothing and gets no node, which would
    leave the augmented network disconnected.
    """
    links = cfg.leader_links
    read, slot = np.unique([link.input_index for link in links],
                           return_inverse=True)
    return Network.from_arrays(
        net.n + len(read),
        np.concatenate((net.i, cfg.leader_rows(net.n) + 1)),
        np.concatenate((net.j, net.n + 1 + slot)),
        np.concatenate((net.w, [float(link.sign) for link in links])),
        name=f"{net.name}+inputs")
