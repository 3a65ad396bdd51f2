"""Graph data model and Laplacian-type matrix constructions.

Nodes are 1-based integer ids throughout, matching the usual drawing
convention for small consensus networks.  Undirected edges are stored once
per unordered pair; a DirectedNetwork stores the per-agent neighbor choices
that remain after a selection step.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np


class GraphError(ValueError):
    """Invalid graph construction or a violated precondition."""


@dataclass(frozen=True)
class Edge:
    i: int
    j: int
    w: float = 1.0

    def key(self) -> tuple[int, int]:
        return (self.i, self.j) if self.i < self.j else (self.j, self.i)


def _overflow_error(node: int, weights: list[float]) -> GraphError:
    """The refusal of a node whose Laplacian diagonal, sum |w|, overflows."""
    return GraphError(f"node {node}: the magnitudes of its weights {weights} "
                      "do not sum to a finite float")


@dataclass(frozen=True)
class Network:
    """Undirected weighted graph, possibly signed (negative weights)."""

    n: int
    edges: tuple[Edge, ...]
    name: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"node count must be positive, got {self.n}")
        object.__setattr__(self, "edges", tuple(self.edges))
        seen = set()
        load: dict[int, float] = {}
        for e in self.edges:
            if e.i == e.j:
                raise GraphError(f"self-loop at node {e.i}")
            if not (1 <= e.i <= self.n and 1 <= e.j <= self.n):
                raise GraphError(f"edge ({e.i},{e.j}) outside 1..{self.n}")
            if e.w == 0 or not math.isfinite(e.w):
                raise GraphError(f"edge ({e.i},{e.j}) has invalid weight {e.w}")
            if e.key() in seen:
                raise GraphError(f"duplicate edge ({e.i},{e.j})")
            seen.add(e.key())
            for node in (e.i, e.j):
                total = load[node] = load.get(node, 0.0) + abs(e.w)
                if not math.isfinite(total):
                    raise _overflow_error(node, [f.w for f in self.edges
                                                 if node in (f.i, f.j)])

    @cached_property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {i: [] for i in range(1, self.n + 1)}
        for e in self.edges:
            adj[e.i].append(e.j)
            adj[e.j].append(e.i)
        return {i: tuple(sorted(v)) for i, v in adj.items()}

    @cached_property
    def weights(self) -> dict[tuple[int, int], float]:
        """Weight lookup for both orientations of every edge."""
        w = {}
        for e in self.edges:
            w[(e.i, e.j)] = e.w
            w[(e.j, e.i)] = e.w
        return w

    @property
    def is_signed(self) -> bool:
        return any(e.w < 0 for e in self.edges)

    def absolute(self) -> "Network":
        """The same topology with all weights replaced by their magnitude."""
        return Network(self.n, tuple(Edge(e.i, e.j, abs(e.w)) for e in self.edges),
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


@dataclass(frozen=True)
class Arc:
    """A retained neighbor choice: ``follower`` keeps listening to ``followed``."""

    follower: int
    followed: int
    w: float = 1.0


@dataclass(frozen=True)
class DirectedNetwork:
    n: int
    arcs: tuple[Arc, ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))
        seen = set()
        load: dict[int, float] = {}
        for a in self.arcs:
            if a.follower == a.followed:
                raise GraphError(f"self-arc at node {a.follower}")
            if not (1 <= a.follower <= self.n and 1 <= a.followed <= self.n):
                raise GraphError(f"arc ({a.follower},{a.followed}) outside 1..{self.n}")
            if (a.follower, a.followed) in seen:
                raise GraphError(f"duplicate arc ({a.follower},{a.followed})")
            seen.add((a.follower, a.followed))
            total = load[a.follower] = load.get(a.follower, 0.0) + abs(a.w)
            if not math.isfinite(total):
                raise _overflow_error(a.follower, [b.w for b in self.arcs
                                                   if b.follower == a.follower])

    @cached_property
    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((a.follower, a.followed) for a in self.arcs)

    @cached_property
    def retained(self) -> dict[int, tuple[int, ...]]:
        """Per node, the neighbors it still follows."""
        out: dict[int, list[int]] = {i: [] for i in range(1, self.n + 1)}
        for a in self.arcs:
            out[a.follower].append(a.followed)
        return {i: tuple(sorted(v)) for i, v in out.items()}


def laplacian(net: Network) -> np.ndarray:
    """Graph Laplacian: degree (weight sum) on the diagonal, -w off it."""
    L = np.zeros((net.n, net.n))
    for e in net.edges:
        i, j = e.i - 1, e.j - 1
        L[i, j] -= e.w
        L[j, i] -= e.w
        L[i, i] += e.w
        L[j, j] += e.w
    return L


def signed_laplacian(net: Network) -> np.ndarray:
    """Laplacian variant for signed graphs: |w| on the diagonal, -w off it."""
    L = np.zeros((net.n, net.n))
    for e in net.edges:
        i, j = e.i - 1, e.j - 1
        L[i, j] -= e.w
        L[j, i] -= e.w
        L[i, i] += abs(e.w)
        L[j, j] += abs(e.w)
    return L


def perturbed_laplacian(net: Network, cfg: SemiAutonomousConfig) -> np.ndarray:
    """Laplacian plus a unit diagonal bump on every leader node.

    Only the unsigned variant: negative edge weights or repelling leader
    links must go through :func:`signed_perturbed_laplacian`.
    """
    if net.is_signed:
        raise GraphError("network has negative weights; use the signed variant")
    if cfg.is_signed:
        raise GraphError("leader link with negative sign; use the signed variant")
    return _bump_leaders(laplacian(net), cfg)


def signed_perturbed_laplacian(net: Network, cfg: SemiAutonomousConfig) -> np.ndarray:
    """Signed Laplacian plus unit diagonal bumps on leaders (sign-insensitive)."""
    return _bump_leaders(signed_laplacian(net), cfg)


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
    """Laplacian of a reduced network: each row sums retained weights only.

    Rows of agents that retain nobody are zero.
    """
    L = np.zeros((dnet.n, dnet.n))
    for a in dnet.arcs:
        i, j = a.follower - 1, a.followed - 1
        L[i, i] += a.w
        L[i, j] -= a.w
    return L


def signed_reduced_laplacian(dnet: DirectedNetwork) -> np.ndarray:
    """Reduced Laplacian with |w| accumulated on the diagonal (signed graphs)."""
    L = np.zeros((dnet.n, dnet.n))
    for a in dnet.arcs:
        i, j = a.follower - 1, a.followed - 1
        L[i, i] += abs(a.w)
        L[i, j] -= a.w
    return L


def is_connected(net: Network) -> bool:
    seen = {1}
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for v in net.neighbors[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == net.n


def diameter(net: Network) -> int:
    """Longest shortest-path length (in hops); requires connectivity."""
    if not is_connected(net):
        raise GraphError("diameter undefined for a disconnected network")
    best = 0
    for s in range(1, net.n + 1):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in net.neighbors[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        best = max(best, max(dist.values()))
    return best


def structural_balance_partition(
        net: Network) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Two-color the nodes so positive edges join same-color endpoints.

    Returns (V1, V2) with node 1 anchored in V1, or None when no such
    bipartition exists.  An all-positive graph yields an empty V2.
    """
    if not is_connected(net):
        raise GraphError("balance partition requires a connected network")
    color = {1: 0}
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for v in net.neighbors[u]:
            want = color[u] if net.weights[(u, v)] > 0 else 1 - color[u]
            if v not in color:
                color[v] = want
                queue.append(v)
            elif color[v] != want:
                return None
    v1 = frozenset(i for i, c in color.items() if c == 0)
    v2 = frozenset(i for i, c in color.items() if c == 1)
    return v1, v2


def gauge_matrix(partition: tuple[Iterable[int], Iterable[int]]) -> np.ndarray:
    """Diagonal +-1 matrix that conjugates the signed Laplacian onto L(|W|)."""
    v1, v2 = frozenset(partition[0]), frozenset(partition[1])
    n = len(v1) + len(v2)
    if v1 | v2 != frozenset(range(1, n + 1)) or (v1 & v2):
        raise GraphError("partition must split 1..n into two disjoint sets")
    sigma = np.ones(n)
    for i in v2:
        sigma[i - 1] = -1.0
    return np.diag(sigma)


def augmented_signed_network(net: Network, cfg: SemiAutonomousConfig) -> Network:
    """Graph plus one extra node per input, wired to leaders with the link sign.

    Used to test structural balance of the leader wiring together with the
    network itself; input nodes get ids n+1 .. n+m.
    """
    edges = list(net.edges)
    for link in cfg.leader_links:
        edges.append(Edge(link.node, net.n + link.input_index, float(link.sign)))
    return Network(net.n + cfg.m, tuple(edges), name=f"{net.name}+inputs")
