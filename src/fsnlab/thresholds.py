"""Every threshold of the package's decisions, each bound here once.

A relative threshold scales with what it tests (a matrix, a vector, the
states, a rate or a reference value); an absolute one is a fixed number.
The decisions several modules make, or one engine makes over all its
arcs, are one vectorized function each.
"""

from __future__ import annotations

import numpy as np

UNIT_ROUNDOFF = np.finfo(float).eps / 2  # relative: the rounding of one double operation
EIG_TOL = 1e-8          # relative by eig_tol (gap, zero entry, residual); absolute bare
SYMMETRY_TOL = 1e-10    # relative to max|M|: a symmetric |M - M^T| is 0 or rounding
NORM_TOL = 1e-10        # absolute: LAPACK's unit eigenvectors miss norm 1 by a few u
EPS_POS = 1e-10         # absolute: least entry of a positive unit principal vector
EPS_TIE = 1e-10         # absolute: v_i/v_j this close to 1 ties, and no side follows
AUDIT_FACTOR = 10       # relative to eig_tol(v2): a Fiedler vector's monotonicity defect
DEFAULT_EPS = 1e-4      # relative: a tempo estimate's accuracy, its floor u M / eps
TIE_MARGIN = 0.02       # absolute: an estimate this close to 1 is kept by no side
NOISE_FLOOR = 1e6       # relative, times u max|x|: an error below it is rounding noise
SIM_TOL = 1e-3          # absolute: distance from the predicted limit deemed converged
RATE_TOL = 0.10         # relative to the predicted rate: a fitted rate's band
TEMPO_TOL = 0.02        # relative to max(1, |ref|): a settled sampled tempo's band
MULTIPLICITY_TOL = 1e-6  # relative to max(1, |lam|): eigenvalues repeating lam
RANK_TOL = 1e-9         # absolute: singular values of G - lam I counted as zero
RATE_GUARD = 1e-9       # absolute: least lam t_fit a defective rate band divides by
HORIZON_RATE_FLOOR = 1e-3  # absolute: least rate that sizes a verification horizon
HORIZON_E_FOLDINGS = 9.0   # relative: a verification run lasts 9 / rate, e^-9 = 1.2e-4
HORIZON_CLAMP = (60.0, 600.0)  # absolute: least and greatest verification horizon


def eig_tol(x) -> float:
    """``EIG_TOL`` times the largest |entry| of x, with no absolute floor."""
    return EIG_TOL * float(np.abs(x).max())


def zero_entries(v) -> np.ndarray:
    """Mask of the entries of v that are zero within :func:`eig_tol` of v."""
    v = np.asarray(v, dtype=float)
    return np.abs(v) <= eig_tol(v)


def follows(vi: np.ndarray, vj: np.ndarray) -> np.ndarray:
    """Strictly-greater ratio test vi/vj > 1 with a symmetric tie guard of
    ``EPS_TIE``, entry by entry; a zero denominator never follows."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = vi / vj
    return (vj != 0) & (r > 1.0) & ~(np.abs(r - 1.0) < EPS_TIE)


def above_floor(obs: np.ndarray, seen: np.ndarray, i, j,
                eps: float) -> np.ndarray:
    """The noise-floor test |obs_j| > u M_ij / eps on rows i and j (indices
    or index arrays) of ``obs`` and of the running maxima ``seen``; gathered
    here, the rows live no longer than needed."""
    scale = np.maximum(seen[i], seen[j])
    scale *= UNIT_ROUNDOFF / eps
    return np.abs(obs)[j] > scale


def retains(g: np.ndarray) -> np.ndarray:
    """The engine keeps an arc whose estimate exceeds 1 + ``TIE_MARGIN`` or
    lies below -``TIE_MARGIN``."""
    return (g > 1.0 + TIE_MARGIN) | (g < -TIE_MARGIN)


def tempo_agrees(g, ref):
    """A sampled tempo g within ``TEMPO_TOL`` of its eigenvector limit ref,
    relative to |ref| above 1; NaN never agrees."""
    return np.abs(g - ref) <= TEMPO_TOL * np.maximum(1.0, np.abs(ref))
