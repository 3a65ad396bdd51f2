"""Block decomposition and sign classification of the Fiedler vector.

A block is a maximal subgraph without cut nodes (a biconnected component or
a bridge edge).  For a connected graph the bipartite incidence between
blocks and cut nodes is a tree; the classification below locates the unique
"source" of that tree with respect to the Fiedler vector: either a single
block carrying both signs, or a single zero-valued cut node separating the
signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .graphs import GraphError, Network
from .spectral import default_eps_zero, zero_entries


class ClassificationError(ValueError):
    """Fiedler sign pattern does not match either admissible case."""


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks, cut nodes, and the bipartite tree linking them.

    ``tree_links`` pairs a block index with a cut node contained in it.
    Blocks are ordered by their smallest member so the decomposition is
    stable under re-runs.  ``edge_keys`` holds the sorted keys
    (lo - 1) * n + (hi - 1) of the decomposed network's edges {lo < hi},
    and ``edge_block`` the block of each.
    """

    n: int
    blocks: tuple[frozenset[int], ...]
    cut_nodes: frozenset[int]
    tree_links: tuple[tuple[int, int], ...]
    edge_keys: np.ndarray = field(compare=False, repr=False)
    edge_block: np.ndarray = field(compare=False, repr=False)

    def blocks_of_edges(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Index of the block of each edge (i[k], j[k]) of the network."""
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        keys = (lo - 1) * self.n + (hi - 1)
        pos = np.searchsorted(self.edge_keys, keys)
        found = (lo >= 1) & (hi <= self.n) & (pos < len(self.edge_keys))
        found[found] = self.edge_keys[pos[found]] == keys[found]
        if not found.all():
            k = int(np.argmin(found))
            raise GraphError(f"no block contains edge ({i[k]},{j[k]})")
        return self.edge_block[pos]


def block_cut_tree(net: Network) -> BlockDecomposition:
    """Split a connected network into blocks and cut nodes.

    Iterative depth-first low-link computation with an explicit stack, so
    long path graphs do not hit the recursion limit.
    """
    disconnected = GraphError("block decomposition requires a connected network")
    n = net.n
    if len(net.w) < n - 1:
        raise disconnected
    if n == 1:
        none = np.zeros(0, dtype=np.intp)
        return BlockDecomposition(1, (frozenset({1}),), frozenset(), (), none, none)
    indptr, cols, edge = (a.tolist() for a in net.adjacency)
    nxt = indptr[:-1]               # next CSR entry to scan, per node
    disc = [0] * n                  # discovery time from 1; 0 = unvisited
    low = [0] * n
    tree_edge = [-1] * n            # the edge that discovered each node
    at = [0] * n                    # edge_stack length when it was pushed
    edge_stack: list[int] = []
    block = [0] * len(net.w)        # block of each edge, in completion order
    blocks_done = 0
    cut_nodes: set[int] = set()
    disc[0] = low[0] = 1
    timer = 2
    root_children = 0
    stack = [0]
    while stack:
        u = stack[-1]
        k, end = nxt[u], indptr[u + 1]
        while k < end:
            v, e = cols[k], edge[k]
            k += 1
            if not disc[v]:
                tree_edge[v], at[v] = e, len(edge_stack)
                edge_stack.append(e)
                disc[v] = low[v] = timer
                timer += 1
                root_children += u == 0
                stack.append(v)
                break
            if e != tree_edge[u] and disc[v] < disc[u]:
                edge_stack.append(e)
                low[u] = min(low[u], disc[v])
        nxt[u] = k
        if stack[-1] != u:
            continue
        stack.pop()
        if stack:
            p = stack[-1]
            low[p] = min(low[p], low[u])
            if low[u] >= disc[p]:
                # p separates the subtree at u: the edges pushed since the
                # tree edge (p, u) form one block.  The root has the least
                # discovery time, so each of its subtrees empties the stack.
                for e in edge_stack[at[u]:]:
                    block[e] = blocks_done
                del edge_stack[at[u]:]
                blocks_done += 1
                if p != 0 or root_children > 1:
                    cut_nodes.add(p + 1)
    if timer <= n:
        raise disconnected

    block = np.array(block, dtype=np.intp)
    # The (block, node) incidences, sorted by block, then node.
    inc = np.sort(np.concatenate((block * n + net.i - 1, block * n + net.j - 1)))
    inc = inc[_run_starts(inc)]
    of, node = inc // n, inc % n + 1
    starts = np.flatnonzero(_run_starts(of))
    # Two blocks share at most one node, so the two smallest members of a
    # block order it as its whole sorted member list does.
    order = np.lexsort((node[starts + 1], node[starts]))
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    ids, bounds = node.tolist(), np.append(starts, len(node)).tolist()
    blocks = tuple(frozenset(ids[bounds[b]:bounds[b + 1]]) for b in order.tolist())
    is_cut = np.zeros(n + 1, dtype=bool)
    is_cut[list(cut_nodes)] = True
    link = np.flatnonzero(is_cut[node])
    link = link[np.lexsort((node[link], rank[of[link]]))]
    links = tuple(zip(rank[of[link]].tolist(), node[link].tolist()))
    lo, hi = np.minimum(net.i, net.j), np.maximum(net.i, net.j)
    keys = (lo - 1) * n + (hi - 1)
    by_key = np.argsort(keys)
    return BlockDecomposition(n, blocks, frozenset(cut_nodes), links,
                              keys[by_key], rank[block[by_key]])


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the entries that differ from their predecessor."""
    first = np.ones(len(sorted_values), dtype=bool)
    first[1:] = sorted_values[1:] != sorted_values[:-1]
    return first


@dataclass(frozen=True)
class FiedlerClassification:
    """Per-node signs, per-block labels, and the located core.

    ``case`` is "core-block" when a single block mixes positive and
    negative nodes, or "core-node" when instead a single zero cut node
    separates them.
    """

    node_sign: tuple[int, ...]          # index 0 = node 1; values -1, 0, +1
    block_labels: tuple[str, ...]       # positive | negative | zero | core
    case: str                           # "core-block" | "core-node"
    decomposition: BlockDecomposition
    core_block: Optional[int] = None
    core_node: Optional[int] = None

    @property
    def core_nodes(self) -> frozenset[int]:
        if self.case == "core-block":
            return self.decomposition.blocks[self.core_block]
        return frozenset({self.core_node})

    @property
    def zero_block_nodes(self) -> frozenset[int]:
        out: set[int] = set()
        for b, label in enumerate(self.block_labels):
            if label == "zero":
                out |= self.decomposition.blocks[b]
        return frozenset(out)


def _labels(pos: np.ndarray, neg: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """Per block, positive/negative/zero if its counted nodes are all of
    that sign (a block with none counted is positive), else ""."""
    return np.select([(neg == 0) & (zero == 0), (pos == 0) & (zero == 0),
                      (pos == 0) & (neg == 0)], ["positive", "negative", "zero"], "")


def classify_fiedler(decomp: BlockDecomposition,
                     v2: np.ndarray) -> FiedlerClassification:
    """Locate the core block or core node of a Fiedler vector.

    Exactly one of the two admissible sign patterns must hold; anything
    else means the eigenvector is unusable (a repeated eigenvalue or a
    wrong vector) and raises.  An entry is zero within
    :func:`default_eps_zero`.  Every other block must then carry one sign
    (or only zeros), and cut-node entries must not shrink in magnitude or
    flip sign away from the core by more than 10 times that tolerance.
    """
    v2 = np.asarray(v2, dtype=float)
    if len(v2) != decomp.n:
        raise ClassificationError(f"vector length {len(v2)} != n={decomp.n}")
    sign = np.where(zero_entries(v2), 0, np.where(v2 > 0, 1, -1))

    # Block memberships, and the count of each sign per block.
    sizes = [len(members) for members in decomp.blocks]
    member = np.fromiter(chain.from_iterable(decomp.blocks), np.intp, sum(sizes))
    of = np.repeat(np.arange(len(sizes)), sizes)
    pos, neg, zero = (np.bincount(of[sign[member - 1] == s], minlength=len(sizes))
                      for s in (1, -1, 0))
    mixed = np.flatnonzero((pos > 0) & (neg > 0))

    if len(mixed) > 1:
        raise ClassificationError(
            f"{len(mixed)} blocks mix positive and negative nodes; expected one")
    core_block = core_node = None
    if len(mixed) == 1:
        core_block, where = int(mixed[0]), "outside the core block"
    else:
        # A zero cut node touches a nonzero node when one of its blocks has one.
        cut = np.zeros(decomp.n + 1, dtype=bool)
        cut[list(decomp.cut_nodes)] = True
        touching = (cut[member] & (sign[member - 1] == 0)
                    & (pos + neg > 0)[of])
        candidates = sorted(set(member[touching].tolist()))
        if len(candidates) != 1:
            raise ClassificationError(
                f"expected exactly one zero cut node adjacent to nonzero nodes, "
                f"found {candidates}")
        core_node, where = candidates[0], "away from the core node"
        zero[of[member == core_node]] -= 1   # the core node is exempt from its blocks

    labels = _labels(pos, neg, zero)
    if core_block is not None:
        labels[core_block] = "core"
    bad = np.flatnonzero(labels == "")
    if len(bad):
        raise ClassificationError(f"block {sorted(decomp.blocks[bad[0]])} "
                                  f"mixes signs {where}")
    cls = FiedlerClassification(
        tuple(sign.tolist()), tuple(labels.tolist()),
        "core-node" if core_block is None else "core-block", decomp,
        core_block=core_block, core_node=core_node)
    worst = _audit_monotonicity(cls, v2)
    if worst > 10 * default_eps_zero(v2):
        raise ClassificationError(
            f"cut-node entries violate monotonicity away from the core "
            f"by {worst:.3e} (> 10*eps_zero); eigenvector unusable")
    return cls


def _audit_monotonicity(cls: FiedlerClassification, v2: np.ndarray) -> float:
    """The worst defect of |v2| over cut nodes shrinking walking away from
    the core, 0.0 when there is none above :func:`default_eps_zero`.

    A defect is the drop in magnitude from the previous cut node on the
    path, plus the magnitude when the two entries have opposite nonzero
    signs.
    """
    decomp = cls.decomposition
    eps = default_eps_zero(v2)
    values = v2.tolist()
    # Bipartite tree nodes: blocks 0..B-1, then the cut nodes (``cut``
    # lists their ids) in the order of their first link.
    adj: list[list[int]] = [[] for _ in decomp.blocks]
    cut: list[int] = []
    slot: dict[int, int] = {}
    for b, c in decomp.tree_links:
        if c not in slot:
            slot[c] = len(adj)
            adj.append([])
            cut.append(c)
        adj[b].append(slot[c])
        adj[slot[c]].append(b)

    B = len(decomp.blocks)
    root = cls.core_block if cls.case == "core-block" else slot[cls.core_node]
    worst = 0.0
    # DFS carrying the last cut-node entry seen on the path from the root.
    stack = [(root, None)]
    seen = [False] * len(adj)
    seen[root] = True
    while stack:
        node, last = stack.pop()
        if node >= B and node != root:
            val = values[cut[node - B] - 1]
            if last is not None:
                drop = abs(last) - abs(val)
                opposite = abs(last) > eps and abs(val) > eps and last * val < 0
                if drop > eps or opposite:
                    worst = max(worst, max(drop, 0.0)
                                + (abs(val) if opposite else 0.0))
            last = val
        for nxt in adj[node]:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append((nxt, last))
    return worst
