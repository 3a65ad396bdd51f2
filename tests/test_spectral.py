import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsnlab import (EigenPair, Edge, LeaderLink, Network, SemiAutonomousConfig,
                    SpectralError, fiedler_pair, symmetric_eigh,
                    laplacian, perturbed_laplacian, principal_pair_perturbed,
                    Trajectory, sign_normalize, smallest_eigenpairs)
from fsnlab.spectral import _check_residual
from fsnlab.tempo import sampled_tempo
from fsnlab.thresholds import zero_entries

from conftest import G8_V1, T12_V2, random_connected_net, random_leader_cfg


def leaders(*nodes):
    return SemiAutonomousConfig(
        len(nodes), tuple(LeaderLink(n, i + 1) for i, n in enumerate(nodes)))


def char_poly_root_path3_leader1():
    """Smallest root of det(L_B - lam I) for the 3-path with leader 1.

    Independent oracle: the determinant is expanded by hand and the root
    bracketed by bisection, no eigensolver involved.
    """
    def det(lam):
        # L_B = [[2,-1,0],[-1,2,-1],[0,-1,1]] minus lam on the diagonal.
        a, b, c = 2 - lam, 2 - lam, 1 - lam
        return a * (b * c - 1) - (-1) * (-c)

    lo, hi = 0.0, 1.0
    assert det(lo) > 0 > det(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if det(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestJacobi:
    def test_two_by_two_closed_form(self):
        w, V = symmetric_eigh(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.abs(w - [0.0, 2.0]).max() < 1e-12
        v2 = V[:, 1]
        expect = np.array([1.0, -1.0]) / math.sqrt(2)
        assert min(np.abs(v2 - expect).max(), np.abs(v2 + expect).max()) < 1e-12

    def test_matches_reference_solver_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(1, 15))
            A = rng.normal(size=(n, n))
            A = (A + A.T) / 2
            w, V = symmetric_eigh(A)
            assert np.abs(w - np.linalg.eigvalsh(A)).max() < 1e-10
            assert np.abs(V.T @ V - np.eye(n)).max() < 1e-8
            assert np.abs(A @ V - V @ np.diag(w)).max() < 1e-8 * max(
                1.0, np.abs(A).max())

    def test_rejects_non_symmetric(self):
        with pytest.raises(SpectralError, match="not symmetric"):
            symmetric_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("exponent", range(-12, 13))
    def test_symmetry_bound_is_relative_to_the_matrix(self, exponent):
        # An asymmetry of 1e-6 of the largest entry is refused at every
        # scale, not only where the entries are above 1.
        M = 10.0**exponent * np.array([[1.0, 1e-6], [0.0, 1.0]])
        with pytest.raises(SpectralError, match="not symmetric"):
            symmetric_eigh(M)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(9, 9))
        A = (A + A.T) / 2
        w1, V1 = symmetric_eigh(A.copy())
        w2, V2 = symmetric_eigh(A.copy())
        assert np.array_equal(w1, w2) and np.array_equal(V1, V2)


class TestSymmetricEighInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(SpectralError, match="non-finite"):
            symmetric_eigh(np.array([[1.0, bad], [bad, 1.0]]))

    def test_lapack_failure_is_spectral_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(SpectralError, match="did not converge"):
            symmetric_eigh(np.eye(2))

    def test_eigenvalues_past_the_float_range_rejected(self):
        # Finite entries, eigenvalue 2e308; symmetrizing by (M + M^T) / 2
        # would overflow on the way.
        M = np.array([[1e308, -1e308], [-1e308, 1e308]])
        with pytest.raises(SpectralError, match="not finite"):
            symmetric_eigh(M)

    def test_nan_residual_rejected(self):
        pair = EigenPair(math.nan, np.array([1.0, 0.0]))
        with pytest.raises(SpectralError, match="residual nan"):
            _check_residual(np.eye(2), pair)


class TestSmallestEigenpairs:
    def test_k_range_validated(self):
        with pytest.raises(SpectralError, match="outside"):
            smallest_eigenpairs(np.eye(3), 4)

    def test_path3_leader_smallest_root_matches_char_poly(self):
        LB = perturbed_laplacian(Network(3, (Edge(1, 2), Edge(2, 3))), leaders(1))
        pair = smallest_eigenpairs(LB, 1)[0]
        assert abs(pair.value - char_poly_root_path3_leader1()) < 1e-10

    def test_g8_smallest_value(self, g8):
        net, cfg, _ = g8
        pair = smallest_eigenpairs(perturbed_laplacian(net, cfg), 1)[0]
        assert abs(pair.value - 0.1414) < 1e-3

    def test_residual_and_orthonormality_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            net = random_connected_net(rng, int(rng.integers(2, 13)))
            L = laplacian(net)
            w, V = symmetric_eigh(L)
            assert np.abs(V.T @ V - np.eye(net.n)).max() < 1e-8
            for k in range(net.n):
                res = np.abs(L @ V[:, k] - w[k] * V[:, k]).max()
                assert res < 1e-8 * max(1.0, np.abs(L).max())


class TestPrincipalPair:
    def test_g8_vector_to_two_decimals(self, g8):
        net, cfg, _ = g8
        pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
        assert np.abs(pair.vector - np.array(G8_V1)).max() < 0.005

    def test_g6_vector(self, g6):
        net, cfg, _ = g6
        pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
        expect = (0.19, 0.36, 0.44, 0.47, 0.44, 0.47)
        assert np.abs(pair.vector - np.array(expect)).max() < 0.005

    def test_all_leaders_gives_uniform_vector(self):
        net = Network(4, (Edge(1, 2), Edge(2, 3), Edge(3, 4), Edge(4, 1)))
        pair = principal_pair_perturbed(
            perturbed_laplacian(net, leaders(1, 2, 3, 4)))
        assert abs(pair.value - 1.0) < 1e-10
        assert np.abs(pair.vector - 0.5).max() < 1e-10

    def test_leaderless_input_rejected(self):
        with pytest.raises(SpectralError, match="not positive"):
            principal_pair_perturbed(laplacian(Network(2, (Edge(1, 2),))))

    def test_disconnected_input_rejected(self):
        net = Network(3, (Edge(1, 2),))
        LB = laplacian(net)
        LB[0, 0] += 1.0
        with pytest.raises(SpectralError):
            principal_pair_perturbed(LB)

    def test_positivity_and_simplicity_on_random_nets(self):
        # 200 random connected leader-driven networks: the smallest
        # eigenvalue is positive, simple, and its vector strictly positive.
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            net = random_connected_net(rng, n)
            cfg = random_leader_cfg(rng, n)
            pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
            assert pair.value > 0
            assert pair.is_simple
            assert pair.vector.min() > 0


class TestFiedlerPair:
    def test_k2(self):
        pair = fiedler_pair(laplacian(Network(2, (Edge(1, 2),))))
        assert abs(pair.value - 2.0) < 1e-12
        expect = np.array([1.0, -1.0]) / math.sqrt(2)
        assert (np.abs(pair.vector - expect).max() < 1e-12
                or np.abs(pair.vector + expect).max() < 1e-12)

    def test_t12_value_and_entries(self, t12):
        net, _, _ = t12
        pair = fiedler_pair(laplacian(net))
        assert abs(pair.value - 0.2148) < 1e-3
        v = pair.vector
        ref = np.array(T12_V2)
        assert min(np.abs(v - ref).max(), np.abs(v + ref).max()) < 0.005

    def test_star_flagged_non_simple(self):
        star = Network(4, (Edge(1, 2), Edge(1, 3), Edge(1, 4)))
        pair = fiedler_pair(laplacian(star))
        assert abs(pair.value - 1.0) < 1e-10
        assert not pair.is_simple

    def test_disconnected_rejected(self):
        net = Network(4, (Edge(1, 2), Edge(3, 4)))
        with pytest.raises(SpectralError, match="disconnected"):
            fiedler_pair(laplacian(net))

    def test_sign_convention_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.normal(size=int(rng.integers(2, 9)))
            once = sign_normalize(v)
            twice = sign_normalize(once)
            assert np.array_equal(once, twice)

    def test_sign_convention_ignores_rounding_noise_in_ties(self):
        # The later entry is larger by one ulp (about 1e-16 relative); the
        # first index of the tie decides the sign.
        v = np.array([0.6, -np.nextafter(0.6, 1.0), 0.2])
        assert sign_normalize(v)[0] > 0
        assert sign_normalize(-v)[0] > 0

    def test_fiedler_level_sets_stay_connected(self):
        # For any threshold r >= 0, the nodes with entry >= -r induce a
        # connected subgraph; dually for r <= 0.
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 200:
            n = int(rng.integers(3, 13))
            net = random_connected_net(rng, n)
            pair = fiedler_pair(laplacian(net))
            if not pair.is_simple:
                continue
            checked += 1
            v = pair.vector
            for r in rng.uniform(0.0, float(np.abs(v).max()), size=3):
                keep = {i + 1 for i in range(n) if v[i] + r >= 0}
                assert keep, "threshold set cannot be empty for r >= 0"
                assert _induced_connected(net, keep)

    def test_g8_gap_makes_pair_simple(self, g8):
        net, cfg, _ = g8
        pair = fiedler_pair(laplacian(net))
        assert pair.is_simple


def _induced_connected(net, keep):
    keep = set(keep)
    start = next(iter(keep))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in net.neighbors[u]:
            if w in keep and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == keep


def limit(v, i, j):
    """The signed eigenvector limit that ``sampled_tempo`` checks pair i:j
    against, and "", or None and the text saying why there is none."""
    traj = Trajectory(np.arange(2.0), np.arange(2.0 * len(v)).reshape(2, -1, 1))
    _, lim, agrees = sampled_tempo(traj, v, i, j, True)
    return (None, lim) if agrees is None else (lim, "")


class TestEntryRatio:
    """The eigenvector entry ratios that the tempo checks compare with."""

    def test_g8_ratio_7_3(self, g8):
        net, cfg, _ = g8
        v1 = principal_pair_perturbed(perturbed_laplacian(net, cfg)).vector
        assert abs(limit(v1, 7, 3)[0] - 1.0577) < 1e-3

    def test_identity_pair(self):
        assert limit(np.array([0.3, 0.4]), 2, 2) == (1.0, "")

    def test_zero_denominator_has_no_reference(self):
        v = np.array([0.5, 0.0, -0.5])
        for i in (1, 3):
            assert limit(v, i, 2) == (
                None, "diverges (neighbor sits at a zero entry)")

    def test_zero_over_zero_has_no_reference(self):
        v = np.array([0.0, 0.0, 1.0])
        assert limit(v, 1, 2) == (
            None, "none (both entries sit at zero: no eigenvector limit)")

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_zero_entries_is_relative_to_the_largest(self, scale):
        v = scale * np.array([1.0, -1e-8, 1.1e-8, 0.0])
        assert zero_entries(v).tolist() == [False, True, False, True]
        assert [limit(v, 1, j)[0] is None for j in (2, 3, 4)] == [
            True, False, True]

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_total_on_arbitrary_entries(self, a, b):
        v = np.array([a, b, 1.0])
        ref, reason = limit(v, 1, 2)
        assert reason if ref is None else math.isfinite(ref) and not reason
