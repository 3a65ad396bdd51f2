"""Block decomposition and sign classification of the Fiedler vector.

A block is a maximal subgraph without cut nodes (a biconnected component or
a bridge edge).  For a connected graph the bipartite incidence between
blocks and cut nodes is a tree; the classification below locates the unique
"source" of that tree with respect to the Fiedler vector: either a single
block carrying both signs, or a single zero-valued cut node separating the
signs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .graphs import GraphError, Network, is_connected
from .spectral import default_eps_zero


class ClassificationError(ValueError):
    """Fiedler sign pattern does not match either admissible case."""


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks, cut nodes, and the bipartite tree linking them.

    ``tree_links`` pairs a block index with a cut node contained in it.
    Blocks are ordered by their smallest member so the decomposition is
    stable under re-runs.
    """

    n: int
    blocks: tuple[frozenset[int], ...]
    cut_nodes: frozenset[int]
    tree_links: tuple[tuple[int, int], ...]

    @cached_property
    def _node_blocks(self) -> dict[int, tuple[int, ...]]:
        """Per node, the indices of the blocks containing it, ascending."""
        out: dict[int, list[int]] = {}
        for b, members in enumerate(self.blocks):
            for node in members:
                out.setdefault(node, []).append(b)
        return {node: tuple(bs) for node, bs in out.items()}

    def blocks_of(self, node: int) -> tuple[int, ...]:
        return self._node_blocks.get(node, ())

    def block_of_edge(self, i: int, j: int) -> int:
        """Index of the unique block containing both endpoints."""
        for b in self.blocks_of(i):
            if j in self.blocks[b]:
                return b
        raise GraphError(f"no block contains edge ({i},{j})")


def block_cut_tree(net: Network) -> BlockDecomposition:
    """Split a connected network into blocks and cut nodes.

    Iterative depth-first low-link computation with an explicit stack, so
    long path graphs do not hit the recursion limit.
    """
    if not is_connected(net):
        raise GraphError("block decomposition requires a connected network")

    n = net.n
    disc = {u: 0 for u in range(1, n + 1)}  # 0 = unvisited
    low = {}
    parent: dict[int, int | None] = {}
    edge_stack: list[tuple[int, int]] = []
    blocks: list[frozenset[int]] = []
    cut_nodes: set[int] = set()
    timer = 1

    if n == 1:
        return BlockDecomposition(1, (frozenset({1}),), frozenset(), ())

    root = 1
    disc[root] = low[root] = timer
    timer += 1
    parent[root] = None
    root_children = 0
    # Each stack frame holds the node and an iterator over its neighbors.
    stack = [(root, iter(net.neighbors[root]))]
    while stack:
        u, it = stack[-1]
        advanced = False
        for v in it:
            if disc[v] == 0:
                parent[v] = u
                edge_stack.append((u, v))
                disc[v] = low[v] = timer
                timer += 1
                if u == root:
                    root_children += 1
                stack.append((v, iter(net.neighbors[v])))
                advanced = True
                break
            elif v != parent[u] and disc[v] < disc[u]:
                edge_stack.append((u, v))
                low[u] = min(low[u], disc[v])
        if advanced:
            continue
        stack.pop()
        if stack:
            p = stack[-1][0]
            low[p] = min(low[p], low[u])
            if low[u] >= disc[p]:
                # p separates the subtree at u: pop one block.
                members: set[int] = set()
                while edge_stack:
                    a, b = edge_stack[-1]
                    if disc[a] >= disc[u] or (a == p and b == u):
                        edge_stack.pop()
                        members.update((a, b))
                        if (a, b) == (p, u):
                            break
                    else:
                        break
                blocks.append(frozenset(members))
                if p != root or root_children > 1:
                    cut_nodes.add(p)

    if edge_stack:
        members = set()
        for a, b in edge_stack:
            members.update((a, b))
        blocks.append(frozenset(members))

    blocks.sort(key=lambda b: (min(b), sorted(b)))
    links = tuple((bi, c) for bi, members in enumerate(blocks)
                  for c in sorted(cut_nodes & members))
    return BlockDecomposition(n, tuple(blocks), frozenset(cut_nodes), links)


@dataclass(frozen=True)
class FiedlerClassification:
    """Per-node signs, per-block labels, and the located core.

    ``case`` is "core-block" when a single block mixes positive and
    negative nodes, or "core-node" when instead a single zero cut node
    separates them.  ``violations`` lists monotonicity defects of cut-node
    entries along tree paths away from the core (within tolerance they are
    empty; large defects raise instead).
    """

    node_sign: tuple[int, ...]          # index 0 = node 1; values -1, 0, +1
    block_labels: tuple[str, ...]       # positive | negative | zero | core
    case: str                           # "core-block" | "core-node"
    decomposition: BlockDecomposition
    core_block: Optional[int] = None
    core_node: Optional[int] = None
    eps_zero: float = 0.0
    violations: tuple[str, ...] = ()

    def sign_of(self, node: int) -> int:
        return self.node_sign[node - 1]

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


def _label_block(members: frozenset[int], signs: tuple[int, ...],
                 exempt: Optional[int]) -> Optional[str]:
    """positive/negative/zero if pure (ignoring the exempt node), else None."""
    vals = {signs[m - 1] for m in members if m != exempt}
    if vals <= {1}:
        return "positive"
    if vals <= {-1}:
        return "negative"
    if vals <= {0}:
        return "zero"
    return None


def classify_fiedler(decomp: BlockDecomposition,
                     v2: np.ndarray) -> FiedlerClassification:
    """Locate the core block or core node of a Fiedler vector.

    Exactly one of the two admissible sign patterns must hold; anything
    else means the eigenvector is unusable (a repeated eigenvalue or a
    wrong vector) and raises.  An entry is zero within
    :func:`default_eps_zero`.
    """
    v2 = np.asarray(v2, dtype=float)
    if len(v2) != decomp.n:
        raise ClassificationError(f"vector length {len(v2)} != n={decomp.n}")
    eps_zero = default_eps_zero(v2)
    signs = tuple(0 if abs(x) <= eps_zero else (1 if x > 0 else -1) for x in v2)

    mixed = [b for b, members in enumerate(decomp.blocks)
             if any(signs[m - 1] > 0 for m in members)
             and any(signs[m - 1] < 0 for m in members)]

    if len(mixed) > 1:
        raise ClassificationError(
            f"{len(mixed)} blocks mix positive and negative nodes; expected one")

    if len(mixed) == 1:
        core = mixed[0]
        labels = []
        for b, members in enumerate(decomp.blocks):
            if b == core:
                labels.append("core")
                continue
            label = _label_block(members, signs, exempt=None)
            if label is None:
                raise ClassificationError(
                    f"block {sorted(members)} mixes signs outside the core block")
            labels.append(label)
        cls = FiedlerClassification(signs, tuple(labels), "core-block", decomp,
                                    core_block=core, eps_zero=eps_zero)
    else:
        zero_cuts = [c for c in sorted(decomp.cut_nodes) if signs[c - 1] == 0]
        candidates = []
        for c in zero_cuts:
            touches_nonzero = any(
                any(signs[m - 1] != 0 for m in decomp.blocks[b] if m != c)
                for b in decomp.blocks_of(c))
            if touches_nonzero:
                candidates.append(c)
        if len(candidates) != 1:
            raise ClassificationError(
                f"expected exactly one zero cut node adjacent to nonzero nodes, "
                f"found {candidates}")
        w = candidates[0]
        labels = []
        for members in decomp.blocks:
            label = _label_block(members, signs, exempt=w if w in members else None)
            if label is None:
                raise ClassificationError(
                    f"block {sorted(members)} mixes signs away from the core node")
            labels.append(label)
        cls = FiedlerClassification(signs, tuple(labels), "core-node", decomp,
                                    core_node=w, eps_zero=eps_zero)

    violations = _audit_monotonicity(cls, v2)
    if any(v[0] > 10 * eps_zero for v in violations):
        worst = max(v[0] for v in violations)
        raise ClassificationError(
            f"cut-node entries violate monotonicity away from the core "
            f"by {worst:.3e} (> 10*eps_zero); eigenvector unusable")
    return replace(cls, violations=tuple(v[1] for v in violations))


def _audit_monotonicity(cls: FiedlerClassification,
                        v2: np.ndarray) -> list[tuple[float, str]]:
    """Check |v2| over cut nodes never shrinks walking away from the core.

    Returns (defect magnitude, description) pairs; sub-tolerance noise is
    reported, larger defects make classify_fiedler raise.
    """
    decomp = cls.decomposition
    eps = cls.eps_zero
    # Bipartite tree nodes: ("B", idx) and ("C", cut node).
    adj: dict[tuple, list[tuple]] = {}
    for b, c in decomp.tree_links:
        adj.setdefault(("B", b), []).append(("C", c))
        adj.setdefault(("C", c), []).append(("B", b))
    for b in range(len(decomp.blocks)):
        adj.setdefault(("B", b), [])

    root = ("B", cls.core_block) if cls.case == "core-block" else ("C", cls.core_node)
    out: list[tuple[float, str]] = []
    # DFS carrying the last cut-node entry seen on the path from the root.
    stack = [(root, None)]
    seen = {root}
    while stack:
        node, last = stack.pop()
        new_last = last
        if node[0] == "C" and node != root:
            val = float(v2[node[1] - 1])
            if last is not None:
                drop = abs(last) - abs(val)
                opposite = abs(last) > eps and abs(val) > eps and last * val < 0
                if drop > eps or opposite:
                    out.append((max(drop, 0.0) + (abs(val) if opposite else 0.0),
                                f"cut node {node[1]}: |{val:.6f}| after "
                                f"|{last:.6f}| on a path leaving the core"))
            new_last = val
        for nxt in adj.get(node, []):
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, new_last))
    return out
