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
from bisect import bisect_left
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


def _columns(i, j, w) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Copies of the id and weight columns as int64 and float arrays, or
    None when an id is not an int64 or a weight not a real number.  A
    string is not one, although a float cast would parse it."""
    try:
        i, j, w = np.asarray(i), np.asarray(j), np.asarray(w)
        if w.dtype.kind not in "biufO" or w.dtype.kind == "O" and any(
                isinstance(x, (str, bytes)) for x in w.flat):
            return None
        w = w.astype(float)
    except (TypeError, ValueError, OverflowError):
        return None
    ids = []
    for a in (i, j):
        if a.size and a.dtype.kind not in "iu" or a.ndim != 1:
            return None
        ids.append(a.astype(np.int64))
    return (*ids, w) if ids[0].shape == ids[1].shape == w.shape else None


def _csr(n: int, rows: np.ndarray, cols: np.ndarray):
    """CSR of the entries (rows[k], cols[k]), 0-based and without repeats:
    (indptr, cols in row-major order, k of each entry)."""
    order = np.argsort(rows * n + cols)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order], order


def _reach(indptr: np.ndarray, cols: np.ndarray, start) -> list[bool]:
    """Per node (0-based), whether it is reachable from the ``start`` nodes
    along CSR rows: a depth-first search over the rows as Python lists."""
    ptr, nbr = indptr.tolist(), cols.tolist()
    seen = [False] * (len(ptr) - 1)
    stack = []
    for s in start:
        if not seen[s]:
            seen[s] = True
            stack.append(s)
    while stack:
        u = stack.pop()
        for v in nbr[ptr[u]:ptr[u + 1]]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


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

    def _loads(self, i, j, a) -> tuple[np.ndarray, np.ndarray]:
        """The distinct nodes and each one's load, the sum of the magnitudes
        ``a`` of its records (an arc's goes to its follower) in record
        order, numbered densely so no array spans 1..n.  The array checks
        need this only when len(a) * max(a) reaches ``_LOAD_BOUND``: below
        it every such sum is finite, since rounding grows a sum of k terms
        by at most a factor (1 + u)^k."""
        if not self._ordered:
            i, a = np.stack((i, j), axis=1).ravel(), np.repeat(a, 2)
        with np.errstate(over="ignore"):
            distinct, dense = np.unique(i, return_inverse=True)
            return distinct, np.bincount(dense, weights=a)

    def _broken(self, i, j, w, n) -> Optional[str]:
        """The first rule the records break, in the order self-loop, range,
        weight, duplicate, load (a node's sum of |w| is not finite); None
        when they break none."""
        if not len(w):
            return None
        if self._ordered:
            lo, hi = i, j
            low, high = min(i.min(), j.min()), max(i.max(), j.max())
        else:
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            low, high = lo.min(), hi.max()
        a = np.abs(w)
        top = float(a.max())
        if not (lo != hi).all():
            return "self-loop"
        if not (low >= 1 and high <= n):
            return "range"
        # a.min() > 0 and top < inf also fail on a NaN.
        if self._finite_nonzero and not (a.min() > 0 and top < math.inf):
            return "weight"
        keys = np.sort(lo * n + hi)
        if not (keys[1:] != keys[:-1]).all():
            return "duplicate"
        finite = len(a) * top < _LOAD_BOUND or np.isfinite(
            self._loads(i, j, a)[1]).all()
        return None if finite else "load"

    def _refusal(self, n: int, cols) -> GraphError:
        """The refusal of the first bad record of columns the array checks
        failed: an id that is not an integer, else the first rule of
        :meth:`_broken` it breaks.  A bisection finds the shortest prefix
        :meth:`_broken` refuses; its arrays hold 0 for an id that is not an
        integer and NaN for a weight that is not a number, which breaks the
        weight rule of an edge and the load rule of an arc."""
        word, ints = self._word, (int, np.integer)
        i, j, w = (c.tolist() if isinstance(c, np.ndarray) else list(c) for c in cols)
        m = len(w)
        if not len(i) == len(j) == m:
            return GraphError(f"{word}s cannot be stored as arrays")
        ids = [[int(x) if isinstance(x, ints) else 0 for x in c] for c in (i, j)]
        try:
            ids = np.array(ids, dtype=np.int64)
        except OverflowError:           # ids past int64 stay Python ints
            ids = np.array(ids, dtype=object)
        numbers = []        # None for a weight that is not a number
        for x in w:
            try:
                numbers.append(None if isinstance(x, (str, bytes)) else float(x))
            except (TypeError, ValueError, OverflowError):
                numbers.append(None)
        arrays = [*ids, np.array(numbers, dtype=float)]
        r = bisect_left(range(1, m + 1), True, key=lambda p: bool(
            self._broken(*(c[:p] for c in arrays), n)))
        if r == m:
            return GraphError(f"{word}s cannot be stored as arrays")
        a, b = i[r], j[r]
        if not (isinstance(a, ints) and isinstance(b, ints)):
            return GraphError(f"{word} ({a},{b}) has a node id that is not an integer")
        prefix = [c[:r + 1] for c in arrays]
        rule = self._broken(*prefix, n)
        if rule == "load" and numbers[r] is not None:
            # Record r took the load of one of its ends past the float range.
            nodes, loads = self._loads(*prefix[:2], np.abs(prefix[2]))
            node = a if a in nodes[~np.isfinite(loads)].tolist() else b
            ends = zip(i) if self._ordered else zip(i, j)
            weights = [x for x, e in zip(w, ends) if node in e]
            return GraphError(f"node {node}: the magnitudes of its weights "
                              f"{weights} do not sum to a finite float")
        return GraphError({"self-loop": f"{self._loop} at node {a}",
                           "range": f"{word} ({a},{b}) outside 1..{n}",
                           "duplicate": f"duplicate {word} ({a},{b})"}.get(
            rule, f"{word} ({a},{b}) has invalid weight {w[r]}"))

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

    def __init__(self, n: int, edges: Iterable[Edge] = (), name: str = ""):
        edges = tuple(edges)
        self._build(n, [list(map(attrgetter(f), edges)) for f in "ijw"], name)

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
        return _row_tuples(indptr, cols)

    @cached_property
    def weights(self) -> dict[tuple[int, int], float]:
        """Weight lookup for both orientations of every edge."""
        i, j, w = self.i.tolist(), self.j.tolist(), self.w.tolist()
        return {**dict(zip(zip(i, j), w)), **dict(zip(zip(j, i), w))}

    @property
    def is_signed(self) -> bool:
        return bool((self.w < 0).any())

    def absolute(self) -> "Network":
        """The same topology with all weights replaced by their magnitude."""
        return Network.from_arrays(self.n, self.i, self.j, np.abs(self.w),
                                   name=self.name)


def _row_tuples(indptr: np.ndarray, cols: np.ndarray) -> dict[int, tuple[int, ...]]:
    """Per 1-based node, the 1-based ids of its CSR row."""
    ids, ptr = (cols + 1).tolist(), indptr.tolist()
    return {u + 1: tuple(ids[ptr[u]:ptr[u + 1]]) for u in range(len(ptr) - 1)}


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
        if self.m < 1:
            raise GraphError(f"input count must be positive, got {self.m}")
        if not self.leader_links:
            raise GraphError("at least one leader is required")
        seen = set()
        for link in self.leader_links:
            if link.node in seen:
                raise GraphError(f"node {link.node} appears as leader twice")
            seen.add(link.node)
            if not 1 <= link.input_index <= self.m:
                raise GraphError(
                    f"leader {link.node} references input {link.input_index}, "
                    f"valid range is 1..{self.m}")
            if link.sign not in (-1, 1):
                raise GraphError(f"leader sign must be +1 or -1, got {link.sign}")
        if self.inputs is not None:
            inputs = tuple(tuple(float(v) for v in u) for u in self.inputs)
            object.__setattr__(self, "inputs", inputs)
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

    def input_matrix(self, n: int) -> np.ndarray:
        """Signed n-by-m incidence of leaders onto inputs."""
        B = np.zeros((n, self.m))
        for link in self.leader_links:
            B[link.node - 1, link.input_index - 1] = link.sign
        return B

    def input_vectors(self) -> np.ndarray:
        if self.inputs is None:
            raise GraphError("configuration carries no input vectors")
        return np.array(self.inputs, dtype=float)


class DirectedNetwork(_Graph):
    """Reduced network: ``i`` follows ``j`` along each arc, with weight ``w``."""

    _record, _word, _loop = Arc, "arc", "self-arc"
    _ordered, _finite_nonzero = True, False

    def __init__(self, n: int, arcs: Iterable[Arc] = (), name: str = ""):
        arcs = tuple(arcs)
        self._build(n, [list(map(attrgetter(f), arcs)) for f in Arc._fields], name)

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

    @cached_property
    def retained(self) -> dict[int, tuple[int, ...]]:
        """Per node, the neighbors it still follows."""
        indptr, cols, _ = self.successors
        return _row_tuples(indptr, cols)


def _with_diagonal(L: np.ndarray, nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Set L's diagonal to the sums of ``w`` per 0-based node, each sum
    taken in entry order as an entry-by-entry ``L[u, u] += w`` takes it."""
    L.flat[::L.shape[0] + 1] = np.bincount(nodes, weights=w, minlength=L.shape[0])
    return L


def _dense_zeros(n: int) -> np.ndarray:
    """The n x n zero matrix a dense Laplacian builder fills.

    Raises GraphError, naming n and the bytes needed, when it cannot be
    allocated.
    """
    try:
        return np.zeros((n, n))
    except MemoryError:
        raise GraphError(f"the dense {n} x {n} Laplacian needs {8 * n * n} "
                         "bytes, more than can be allocated") from None


def laplacian(net: Network) -> np.ndarray:
    """Graph Laplacian: sum |w| on the diagonal, -w off it (also signed)."""
    i, j = net.i - 1, net.j - 1
    L = _dense_zeros(net.n)
    L[i, j] = L[j, i] = -net.w
    return _with_diagonal(L, np.stack((i, j), axis=1).ravel(),
                          np.repeat(np.abs(net.w), 2))


def perturbed_laplacian(net: Network, cfg: SemiAutonomousConfig) -> np.ndarray:
    """Laplacian plus a unit diagonal bump on every leader node, for every
    sign of the edge weights and leader links."""
    return _bump_leaders(laplacian(net), cfg)


def _bump_leaders(L: np.ndarray, cfg: SemiAutonomousConfig) -> np.ndarray:
    """Add the unit leader gain to L's diagonal in place; returns L.

    L is a matrix, or the vector of its diagonal.
    """
    n = L.shape[0]
    for link in cfg.leader_links:
        if link.node > n:
            raise GraphError(f"leader node {link.node} outside 1..{n}")
        L[(link.node - 1,) * L.ndim] += 1.0
    return L


def reduced_laplacian(dnet: DirectedNetwork) -> np.ndarray:
    """Laplacian of a reduced network: each row sums retained |w| only.

    Rows of agents that retain nobody are zero.
    """
    i, j = dnet.i - 1, dnet.j - 1
    L = _dense_zeros(dnet.n)
    L[i, j] -= dnet.w
    return _with_diagonal(L, i, np.abs(dnet.w))


def is_connected(net: Network) -> bool:
    """Whether every node is reachable from node 1.

    A network with fewer than n - 1 edges is disconnected; it is answered
    without a traversal.
    """
    if len(net.w) < net.n - 1:
        return False
    indptr, cols, _ = net.adjacency
    return all(_reach(indptr, cols, [0]))


def structural_balance_partition(
        net: Network) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Two-color the nodes so positive edges join same-color endpoints.

    Returns (V1, V2) with node 1 anchored in V1, or None when no such
    bipartition exists.  An all-positive graph yields an empty V2.
    """
    disconnected = GraphError("balance partition requires a connected network")
    if len(net.w) < net.n - 1:
        raise disconnected
    # Color a depth-first tree from node 1, each node by its parent's
    # color and the sign of the tree edge, then test every edge.
    indptr, cols, edge = (a.tolist() for a in net.adjacency)
    negative = net.w < 0
    flip = negative.tolist()
    colors = [-1] * net.n
    colors[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for k in range(indptr[u], indptr[u + 1]):
            v = cols[k]
            if colors[v] < 0:
                colors[v] = colors[u] ^ flip[edge[k]]
                stack.append(v)
    if -1 in colors:
        raise disconnected
    color = np.array(colors, dtype=bool)
    if ((color[net.i - 1] ^ color[net.j - 1]) != negative).any():
        return None
    return (frozenset((np.flatnonzero(~color) + 1).tolist()),
            frozenset((np.flatnonzero(color) + 1).tolist()))


def augmented_signed_network(net: Network, cfg: SemiAutonomousConfig) -> Network:
    """Graph plus one extra node per input, wired to leaders with the link sign.

    Used to test structural balance of the leader wiring together with the
    network itself; input nodes get ids n+1 .. n+m.
    """
    links = cfg.leader_links
    return Network.from_arrays(
        net.n + cfg.m,
        np.concatenate((net.i, [link.node for link in links])),
        np.concatenate((net.j, [net.n + link.input_index for link in links])),
        np.concatenate((net.w, [float(link.sign) for link in links])),
        name=f"{net.name}+inputs")
