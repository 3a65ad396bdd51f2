"""Reference computations the test suites compare the library against.

None of these is run by a command: they are independent checks (a
breadth-first diameter, the explicit gauge matrix, the symmetrized Fiedler
data and lower bound of the rate certificate, the tree-diameter bound, the
entry-norm tempo limit of an eigenvector, the closed-form tempo limit, a
path-carrying search of the Fiedler monotonicity audit and the Jordan depth
of a reduced generator's eigenvalue from a general eigensolve)
kept next to the tests that use them.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable

import numpy as np

from fsnlab.blocks import FiedlerClassification
from fsnlab.graphs import (DirectedNetwork, GraphError, Network, _csr,
                           is_connected, reduced_laplacian)
from fsnlab.spectral import symmetric_eigh
from fsnlab.thresholds import RANK_TOL, eig_tol
from fsnlab.tempo import TempoError


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


def reduced_symmetric_fiedler(dnet: DirectedNetwork) -> tuple[float, np.ndarray]:
    """Second eigenvalue of the symmetrized reduced generator, and the
    mean-free unit vector minimizing its quadratic form.

    The minimizer over vectors orthogonal to the all-ones direction is the
    certificate the convergence lower bound is evaluated on; for a symmetric
    reduced generator it coincides with the ordinary Fiedler vector.
    """
    n = dnet.n
    if n < 2:
        raise GraphError("symmetrized Fiedler data needs at least two nodes")
    L = reduced_laplacian(dnet)
    M = (L + L.T) / 2.0
    w, _ = symmetric_eigh(M)
    lam2 = float(w[1])
    # Orthonormal basis of the mean-free subspace: the eigenvectors of I - J/n
    # after the first, the all-ones direction (eigenvalue 0; the rest are 1).
    P = symmetric_eigh(np.eye(n) - 1.0 / n)[1][:, 1:]
    wq, Vq = symmetric_eigh(P.T @ M @ P)
    vbar = P @ Vq[:, 0]
    vbar = vbar / np.linalg.norm(vbar)
    return lam2, vbar


def fiedler_lower_bound(L: np.ndarray, dnet: DirectedNetwork,
                        vbar: np.ndarray) -> float:
    """Lower bound on the reduced network's algebraic connectivity.

    Adds, over every dropped neighbor choice (i, j), the weighted term
    w_ij * vbar[i] * (vbar[j] - vbar[i]) to the original second eigenvalue.
    With nothing dropped the bound is that eigenvalue itself.
    """
    L = np.asarray(L, dtype=float)
    vbar = np.asarray(vbar, dtype=float)
    w, _ = symmetric_eigh(L)
    dropped = L != 0.0
    np.fill_diagonal(dropped, False)
    dropped[dnet.i - 1, dnet.j - 1] = False
    i, j = np.nonzero(dropped)
    return float(w[1]) + float(np.sum(-L[i, j] * vbar[i] * (vbar[j] - vbar[i])))


def tree_diameter_bound(diam: int) -> float:
    """Upper bound on a tree's algebraic connectivity from its diameter."""
    if diam < 1:
        raise ValueError(f"diameter must be at least 1, got {diam}")
    return 2.0 * (1.0 - math.cos(math.pi / (diam + 1)))


def tempo_limit_from_eigvec(v: np.ndarray, group1: Iterable[int],
                            group2: Iterable[int]) -> float:
    """Entry-norm ratio ||v[group1]|| / ||v[group2]|| with 1-based groups.

    Raises when the second group's norm is zero within
    :func:`~fsnlab.thresholds.eig_tol`, the test the selections apply to one entry.
    """
    v = np.asarray(v, dtype=float)
    idx1 = [i - 1 for i in group1]
    idx2 = [j - 1 for j in group2]
    if not idx1 or not idx2:
        raise TempoError("both groups must be nonempty")
    den = float(np.linalg.norm(v[idx2]))
    if den <= eig_tol(v):
        raise TempoError("second group selects only zero entries")
    return float(np.linalg.norm(v[idx1])) / den


def tempo_limit_oracle(M: np.ndarray, x0: np.ndarray, group1: Iterable[int],
                       group2: Iterable[int]) -> float:
    """Closed-form limit of the difference-norm ratio for x' = M x.

    Works directly from the eigendecomposition of the symmetric generator:
    only the eigenspace of the largest nonzero eigenvalue survives in the
    derivative as t grows, and the limit is a quadratic-form ratio over
    that eigenspace.  Serves as an independent check on simulated ratios,
    including the case of a repeated dominant eigenvalue.  Raises when the
    projection of x0 on that eigenspace is at most 1e-6 max(1, ||x0||).
    """
    M = np.asarray(M, dtype=float)
    x0 = np.asarray(x0, dtype=float).ravel()
    eps_gap = eig_tol(M)
    w, V = symmetric_eigh(M)
    nonzero = [i for i in range(len(w)) if abs(w[i]) > eps_gap]
    if not nonzero:
        raise TempoError("generator has no nonzero eigenvalue")
    lam_dom = max(w[i] for i in nonzero)
    dom = [i for i in nonzero if abs(w[i] - lam_dom) <= eps_gap]

    beta = V.T @ x0
    proj = math.sqrt(sum(beta[i] ** 2 for i in dom))
    if proj <= 1e-6 * max(1.0, float(np.linalg.norm(x0))):
        raise TempoError("initial state is orthogonal to the dominant "
                         "eigenspace; the limit formula degenerates")

    idx1 = [i - 1 for i in group1]
    idx2 = [j - 1 for j in group2]
    if not idx1 or not idx2:
        raise TempoError("both groups must be nonempty")

    y = V[:, dom] @ (w[dom] * beta[dom])
    num = float(y[idx1] @ y[idx1])
    den = float(y[idx2] @ y[idx2])
    if den <= 0.0 or den < 1e-24 * max(num, 1.0):
        raise TempoError("second group has no component on the dominant "
                         "eigenspace; the limit formula degenerates")
    return math.sqrt(num / den)


def audit_monotonicity(cls: FiedlerClassification, v2: np.ndarray) -> float:
    """The worst defect of |v2| over cut nodes shrinking walking away from
    the core, 0.0 when there is none above :func:`~fsnlab.thresholds.eig_tol`.

    A defect is the drop in magnitude from the previous cut node on the
    path, plus the magnitude when the two entries have opposite nonzero
    signs.  A stack search of the bipartite block-cut tree carries the last
    cut-node entry down each path: the reference that
    ``blocks._audit_monotonicity``, which reads a search tree, is checked
    against.
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


def jordan_depth(G: np.ndarray, lam: float) -> int:
    """The Jordan depth of an eigenvalue lam of a reduced generator G, as the
    rate band of ``compare`` counted it from a general eigensolve: the
    eigenvalues of ``numpy.linalg.eigvals`` within 1e-6 max(1, |lam|) of lam
    (the algebraic multiplicity), less the geometric multiplicity, the
    nullity of G - lam I at ``RANK_TOL``, plus one; at least 1."""
    n = G.shape[0]
    eigs = np.linalg.eigvals(G).real
    algebraic = int(np.sum(np.abs(eigs - lam) < 1e-6 * max(1.0, abs(lam))))
    geometric = n - np.linalg.matrix_rank(G - lam * np.eye(n), tol=RANK_TOL)
    return max(1, algebraic - max(int(geometric), 1) + 1)
