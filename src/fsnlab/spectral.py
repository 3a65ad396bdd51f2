"""Dense symmetric eigensolver and the eigenpairs the selection rules consume.

Every eigenpair comes from one full LAPACK decomposition (``numpy.linalg.eigh``).
One leader-driven pair serves every sign: on a structurally balanced
signed network it is the gauge image of the pair of the magnitude network.
Several selection rules are undefined when the relevant eigenvalue is
repeated; detecting a repeat needs eigenvalues accurate to O(u * |M|), u the
unit roundoff, which the backward-stable LAPACK solver delivers, eight orders
of magnitude inside the gap tolerance 1e-8 * |M| (``EIG_TOL``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .thresholds import EPS_POS, NORM_TOL, SYMMETRY_TOL, eig_tol, same_eigenvalue


class SpectralError(ValueError):
    """Eigen-computation failed or a spectral precondition is violated."""


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its unit eigenvector.

    ``is_simple`` records whether no other eigenvalue is the same value
    (:func:`~fsnlab.thresholds.same_eigenvalue`); constructions based on
    the eigenvector are undefined when it is False.
    """

    value: float
    vector: np.ndarray
    is_simple: bool = True

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=float)
        object.__setattr__(self, "vector", vec)
        nrm = np.linalg.norm(vec)
        if abs(nrm - 1.0) > NORM_TOL:
            raise SpectralError(f"eigenvector norm {nrm} is not 1 within {NORM_TOL:g}")


def sign_normalize(v: np.ndarray) -> np.ndarray:
    """Flip the global sign so the largest-magnitude entry is positive.

    Ties go to the first index within :func:`~fsnlab.thresholds.eig_tol`
    of the maximum magnitude, so rounding noise in tied entries cannot pick
    the sign; the convention is idempotent under repeated application.
    """
    v = np.asarray(v, dtype=float)
    mag = np.abs(v)
    k = int(np.argmax(mag >= mag.max() - eig_tol(v)))
    return -v if v[k] < 0 else v.copy()


def symmetric_eigh(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a real symmetric matrix by LAPACK.

    Returns (eigenvalues ascending, eigenvectors as columns).  Non-square,
    non-symmetric and non-finite input is refused with SpectralError, and
    so is a decomposition that is not finite (eigenvalues past the float
    range).  An exactly symmetric matrix, as every Laplacian builder
    returns, goes to LAPACK as it is; any other is first replaced by
    (M + M^T) / 2.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise SpectralError(f"matrix must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise SpectralError("matrix has non-finite entries")
    asym = float(np.abs(M - M.T).max()) if n else 0.0
    if asym > SYMMETRY_TOL * float(np.abs(M).max()):
        raise SpectralError(f"matrix is not symmetric: |M - M^T| = {asym:.3e}")
    try:
        w, V = np.linalg.eigh(M if asym == 0.0 else (M + M.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver failed: {exc}") from exc
    if not (np.isfinite(w).all() and np.isfinite(V).all()):
        raise SpectralError("eigendecomposition is not finite: the eigenvalues "
                            "exceed the float range")
    return w, V


def _check_residual(M: np.ndarray, pair: EigenPair) -> None:
    res = float(np.abs(M @ pair.vector - pair.value * pair.vector).max())
    bound = eig_tol(M)
    if not res <= bound:    # a NaN residual fails too
        raise SpectralError(f"eigen residual {res:.3e} exceeds {bound:.3e}")


def smallest_eigenpairs(M: np.ndarray, k: int) -> list[EigenPair]:
    """The k smallest eigenpairs of a symmetric matrix, ascending."""
    M = np.asarray(M, dtype=float)
    if not 1 <= k <= M.shape[0]:
        raise SpectralError(f"k={k} outside 1..{M.shape[0]}")
    w, V = symmetric_eigh(M)
    # apart[i]: w[i-1] and w[i] are separated (the ends have no neighbor).
    apart = np.concatenate(([True], ~same_eigenvalue(w[1:], w[:-1], M), [True]))
    pairs = []
    for idx in range(k):
        simple = bool(apart[idx] and apart[idx + 1])
        pair = EigenPair(float(w[idx]), V[:, idx], simple)
        _check_residual(M, pair)
        pairs.append(pair)
    return pairs


def principal_pair_perturbed(L_B: np.ndarray) -> EigenPair:
    """Smallest eigenpair of a leader-perturbed Laplacian of any sign.

    For a connected network with at least one leader this eigenvalue is
    strictly positive and simple, and the sign-normalized vector is D v for
    a positive v and the balance gauge D = diag(+-1), D = I when unsigned.
    Violations (disconnected network, no leader, a zero entry, or a
    non-Laplacian matrix) raise; the selection rules refuse an unsigned
    vector that is not positive.
    """
    pair = smallest_eigenpairs(L_B, 1)[0]
    if pair.value <= eig_tol(L_B):
        raise SpectralError(
            f"smallest eigenvalue {pair.value:.3e} is not positive; "
            "the network is disconnected or has no leader")
    if not pair.is_simple:
        raise SpectralError("smallest eigenvalue is numerically repeated")
    vec = sign_normalize(pair.vector)
    if float(np.abs(vec).min()) <= EPS_POS:
        raise SpectralError(
            "eigenvector is not strictly positive; "
            "the network is disconnected or the matrix is not a perturbed Laplacian")
    return EigenPair(pair.value, vec, True)


def fiedler_pair(L: np.ndarray,
                 pairs: Optional[list[EigenPair]] = None) -> EigenPair:
    """Second-smallest eigenpair of a graph Laplacian.

    Raises when the graph is disconnected (second eigenvalue numerically
    zero).  A repeated second eigenvalue comes back with ``is_simple``
    False, which ``Model.simple_pair`` refuses.  ``pairs``, when given, are
    at least the two smallest eigenpairs of L from
    :func:`smallest_eigenpairs`, which then is not run again.
    """
    if L.shape[0] < 2:
        raise SpectralError("Fiedler pair needs at least two nodes")
    lam2 = (pairs or smallest_eigenpairs(L, 2))[1]
    if lam2.value <= eig_tol(L):
        raise SpectralError(
            f"second eigenvalue {lam2.value:.3e} is numerically zero; "
            "the network is disconnected")
    return EigenPair(lam2.value, sign_normalize(lam2.vector), lam2.is_simple)
