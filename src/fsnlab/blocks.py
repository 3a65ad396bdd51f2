"""Block decomposition and sign classification of the Fiedler vector.

A block is a maximal subgraph without cut nodes (a biconnected component or
a bridge edge).  For a connected graph the bipartite incidence between
blocks and cut nodes is a tree; the classification below locates the unique
"source" of that tree with respect to the Fiedler vector: either a single
block carrying both signs, or a single zero-valued cut node separating the
signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .graphs import GraphError, Network, _csr
from .thresholds import AUDIT_FACTOR, eig_tol, zero_entries


class ClassificationError(ValueError):
    """Fiedler sign pattern does not match either admissible case."""


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Blocks and cut nodes of a connected network, as arrays.

    Blocks are ordered by their smallest member, so the decomposition is
    stable under re-runs.  Block b holds the nodes
    ``member[start[b]:start[b + 1]]``, ascending; ``edge_block`` is the
    block of each edge (i[k], j[k]) of the decomposed network, whose edge
    arrays ``i`` and ``j`` are kept; ``is_cut`` marks the cut nodes by id
    (entry 0 is unused).  ``blocks``, ``cut_nodes`` and ``member_block``
    are views built from the arrays when first read.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    member: np.ndarray
    start: np.ndarray
    edge_block: np.ndarray
    is_cut: np.ndarray

    @cached_property
    def blocks(self) -> tuple[frozenset[int], ...]:
        ids, bounds = self.member.tolist(), self.start.tolist()
        return tuple(frozenset(ids[a:b]) for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def cut_nodes(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.is_cut).tolist())

    @cached_property
    def member_block(self) -> np.ndarray:
        """The block of each entry of ``member``."""
        return np.repeat(np.arange(len(self.start) - 1), np.diff(self.start))


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
        return BlockDecomposition(1, net.i, net.j, np.ones(1, dtype=np.intp),
                                  np.array([0, 1]), np.zeros(0, dtype=np.intp),
                                  np.zeros(2, dtype=bool))
    indptr, cols, edge = (a.tolist() for a in net.adjacency)
    nxt = indptr[:-1]               # next CSR entry to scan, per node
    disc = [0] * n                  # discovery time from 1; 0 = unvisited
    low = [0] * n
    tree_edge = [-1] * n            # the edge that discovered each node
    at = [0] * n                    # edge_stack length when it was pushed
    edge_stack: list[int] = []
    block = [0] * len(net.w)        # block of each edge, in completion order
    blocks_done = 0
    is_cut = [False] * (n + 1)      # by node id
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
                    is_cut[p + 1] = True
    if timer <= n:
        raise disconnected

    block = np.array(block, dtype=np.intp)
    # The (block, node) incidences, sorted by block, then node, without
    # repeats (a sort and a mask: np.unique takes many times as long).
    inc = np.sort(np.concatenate((block * n + net.i - 1, block * n + net.j - 1)))
    new = np.ones(len(inc), dtype=bool)
    new[1:] = inc[1:] != inc[:-1]
    of, node = np.divmod(inc[new], n)
    node += 1
    sizes = np.bincount(of)
    first = np.cumsum(sizes) - sizes
    # Two blocks share at most one node, so the two smallest members of a
    # block order it as its whole sorted member list does.
    order = np.lexsort((node[first + 1], node[first]))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return BlockDecomposition(
        n, net.i, net.j, node[np.argsort(rank[of], kind="stable")],
        np.concatenate(([0], np.cumsum(sizes[order]))), rank[block],
        np.array(is_cut))


@dataclass(frozen=True, eq=False)
class FiedlerClassification:
    """Per-node signs, per-block labels, and the located core.

    ``case`` is "core-block" when a single block mixes positive and
    negative nodes, or "core-node" when instead a single zero cut node
    separates them.
    """

    node_sign: np.ndarray               # index 0 = node 1; values -1, 0, +1
    block_labels: np.ndarray            # positive | negative | zero | core
    case: str                           # "core-block" | "core-node"
    decomposition: BlockDecomposition
    core_block: Optional[int] = None
    core_node: Optional[int] = None

    @property
    def core_nodes(self) -> frozenset[int]:
        if self.case == "core-node":
            return frozenset({self.core_node})
        d, b = self.decomposition, self.core_block
        return frozenset(d.member[d.start[b]:d.start[b + 1]].tolist())

    @property
    def zero_block_nodes(self) -> frozenset[int]:
        d = self.decomposition
        zero = self.block_labels[d.member_block] == "zero"
        return frozenset(d.member[zero].tolist())


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
    wrong vector) and raises.  An entry is zero as :func:`zero_entries`
    says.  Every other block must then carry one sign (or only zeros), and
    cut-node entries must not shrink in magnitude or flip sign away from
    the core by more than ``AUDIT_FACTOR`` times that tolerance.
    """
    v2 = np.asarray(v2, dtype=float)
    if len(v2) != decomp.n:
        raise ClassificationError(f"vector length {len(v2)} != n={decomp.n}")
    sign = np.where(zero_entries(v2), 0, np.where(v2 > 0, 1, -1))

    # The sign of each block entry, and the count of each sign per block.
    member, of, blocks = decomp.member, decomp.member_block, len(decomp.start) - 1
    entry = sign[member - 1]
    pos, neg, zero = (np.bincount(of[entry == s], minlength=blocks)
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
        touching = decomp.is_cut[member] & (entry == 0) & (pos + neg > 0)[of]
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
        raise ClassificationError(f"block {member[of == bad[0]].tolist()} "
                                  f"mixes signs {where}")
    cls = FiedlerClassification(
        sign, labels, "core-node" if core_block is None else "core-block", decomp,
        core_block=core_block, core_node=core_node)
    worst = _audit_monotonicity(cls, v2)
    if worst > AUDIT_FACTOR * eig_tol(v2):
        raise ClassificationError(
            f"cut-node entries violate monotonicity away from the core "
            f"by {worst:.3e} (> {AUDIT_FACTOR}*eps_zero); eigenvector unusable")
    return cls


def _audit_monotonicity(cls: FiedlerClassification, v2: np.ndarray) -> float:
    """The worst defect of |v2| over cut nodes shrinking walking away from
    the core, 0.0 when there is none above :func:`~fsnlab.thresholds.eig_tol`.

    A defect is the drop in magnitude from the previous cut node on the
    path, plus the magnitude when the two entries have opposite nonzero
    signs.
    """
    decomp = cls.decomposition
    eps = eig_tol(v2)
    values = v2.tolist()
    # Bipartite tree nodes: blocks 0..B-1, then node v as B + v - 1, linked
    # to its blocks when it is a cut node.
    B = len(decomp.start) - 1
    link = decomp.is_cut[decomp.member]
    blk, cut = decomp.member_block[link], B + decomp.member[link] - 1
    indptr, adj, _ = _csr(B + decomp.n, np.concatenate((blk, cut)),
                          np.concatenate((cut, blk)))
    ptr, adj = indptr.tolist(), adj.tolist()

    root = cls.core_block if cls.case == "core-block" else B + cls.core_node - 1
    worst = 0.0
    # DFS carrying the last cut-node entry seen on the path from the root.
    stack = [(root, None)]
    seen = [False] * len(ptr)
    seen[root] = True
    while stack:
        node, last = stack.pop()
        if node >= B and node != root:
            val = values[node - B]
            if last is not None:
                drop = abs(last) - abs(val)
                opposite = abs(last) > eps and abs(val) > eps and last * val < 0
                if drop > eps or opposite:
                    worst = max(worst, max(drop, 0.0)
                                + (abs(val) if opposite else 0.0))
            last = val
        for nxt in adj[ptr[node]:ptr[node + 1]]:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append((nxt, last))
    return worst
