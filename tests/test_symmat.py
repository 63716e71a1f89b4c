"""Kernel-level checks for the symmetric-matrix helpers, and the commutator algebra of
`curvature.normal_curvature`, the package's one pairwise commutator.

The frozen numbers below are hand-computed from the canonical 2x2 pair
A = offdiag(1), B = diag(1, -1):

    [A, B] = [[0, -2], [2, 0]],   ||[A, B]||^2 = 8,   tr(A^2 B^2) = 2.
"""

import numpy as np
import numpy.testing as npt
import pytest

from conftest import random_orthogonal, random_tuple
from rigidity.curvature import FundamentalData, normal_curvature
from rigidity.pinching import sgn
from rigidity.symmat import as_tuple, rotate_tuple, symmetrize


def trace_product(mats) -> float:
    """tr(M_1 M_2 ... M_k) for a nonempty list of equal-dimension matrices."""
    mats = [np.asarray(m, dtype=float) for m in mats]
    if not mats:
        raise ValueError("trace_product needs at least one matrix")
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ValueError("trace_product matrices must share one square dimension")
    prod = mats[0]
    for m in mats[1:]:
        prod = prod @ m
    return float(np.trace(prod))


def commutator(a, b):
    """[A, B] of two symmetric n x n matrices, read off normal_curvature of the pair."""
    return normal_curvature(FundamentalData(n=len(a), p=2, c=1.0, forms=[a, b]))[0, 1]


A_CANON = np.array([[0.0, 1.0], [1.0, 0.0]])
B_CANON = np.array([[1.0, 0.0], [0.0, -1.0]])


class TestSymmetrize:
    def test_averages_near_symmetric_input(self):
        a = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        out = symmetrize(a)
        npt.assert_allclose(out, out.T, atol=0.0)
        npt.assert_allclose(out[0, 1], 2.0 + 5e-13, rtol=1e-9)

    def test_rejects_genuinely_asymmetric_input(self):
        with pytest.raises(ValueError, match="not symmetric"):
            symmetrize(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 3)), np.zeros((0, 0))])
    def test_rejects_non_square(self, bad):
        with pytest.raises(ValueError):
            symmetrize(bad)


class TestAsTuple:
    def test_stacks_and_symmetrizes(self):
        t = as_tuple([A_CANON, B_CANON])
        assert t.shape == (2, 2, 2)
        npt.assert_allclose(t[0], A_CANON)

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 2, 2))], ids=["list", "array"])
    def test_empty_is_rejected(self, empty):
        with pytest.raises(ValueError, match="m >= 1 matrices"):
            as_tuple(empty)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            as_tuple([A_CANON, np.eye(3)])


class TestCommutatorAlgebra:
    def test_frozen_canonical_pair(self):
        c = commutator(A_CANON, B_CANON)
        npt.assert_allclose(c, np.array([[0.0, -2.0], [2.0, 0.0]]), atol=0.0)
        assert np.sum(c * c) == 8.0

    def test_scaled_pair(self):
        mu = 1.0 / np.sqrt(3.0)
        c = commutator(mu * A_CANON, mu * B_CANON)
        npt.assert_allclose(np.sum(c * c), 8.0 / 9.0, rtol=1e-15,
                            err_msg="||[mu A, mu B]||^2 should be 8 mu^4")

    def test_commutator_is_skew_for_symmetric_inputs(self):
        rng = np.random.default_rng(3)
        for k in range(20):
            t = random_tuple(4, 2, rng)
            c = commutator(t[0], t[1])
            npt.assert_allclose(c, -c.T, atol=1e-13,
                                err_msg=f"skew-symmetry failed at draw {k}")

    def test_norm_identity_against_traces(self):
        # ||[A,B]||^2 = 2 tr(A^2 B^2) - 2 tr(ABAB) for symmetric A, B
        rng = np.random.default_rng(14)
        for k in range(50):
            t = random_tuple(5, 2, rng)
            a, b = t[0], t[1]
            c = commutator(a, b)
            lhs = np.sum(c * c)
            rhs = 2.0 * (trace_product([a, a, b, b]) - trace_product([a, b, a, b]))
            npt.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12,
                                err_msg=f"trace identity failed at draw {k}")

    def test_trace_product_single_is_trace(self):
        assert trace_product([B_CANON]) == 0.0
        assert trace_product([A_CANON @ A_CANON]) == 2.0

    def test_trace_product_validation(self):
        with pytest.raises(ValueError):
            trace_product([])
        with pytest.raises(ValueError):
            trace_product([A_CANON, np.eye(3)])


class TestRotateTuple:
    def test_quarter_turn_swaps_members(self):
        t = np.stack([A_CANON, B_CANON])
        q = np.array([[0.0, 1.0], [-1.0, 0.0]])
        out = rotate_tuple(t, q)
        npt.assert_allclose(out[0], B_CANON, atol=0.0)
        npt.assert_allclose(out[1], -A_CANON, atol=0.0)

    def test_preserves_total_norm(self):
        rng = np.random.default_rng(8)
        for k in range(25):
            t = random_tuple(3, 4, rng)
            q = random_orthogonal(4, rng)
            before = float(np.sum(t * t))
            after = float(np.sum(rotate_tuple(t, q) ** 2))
            npt.assert_allclose(after, before, rtol=1e-12,
                                err_msg=f"rotation changed the norm at draw {k}")

    def test_rejects_non_orthogonal(self):
        t = np.stack([A_CANON, B_CANON])
        with pytest.raises(ValueError, match="not orthogonal"):
            rotate_tuple(t, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            rotate_tuple(np.stack([A_CANON]), np.eye(2))


class TestPredicates:
    @pytest.mark.parametrize("x,expected", [(-3, -1), (-0.5, -1), (0, 0), (0.0, 0),
                                            (2, 1), (1e-300, 1)])
    def test_sgn(self, x, expected):
        assert sgn(x) == expected


# --- seeded generators --------------------------------------------------------

class TestRandomDraws:
    def test_reproducible_per_seed(self):
        npt.assert_array_equal(random_tuple(4, 3, seed=7), random_tuple(4, 3, seed=7))

    def test_traceless_flag(self):
        t = random_tuple(5, 4, seed=2, traceless=True)
        npt.assert_allclose(np.einsum("aii->a", t), 0.0, atol=1e-13)

    def test_members_are_symmetric(self):
        t = random_tuple(6, 3, seed=5)
        npt.assert_allclose(t, np.transpose(t, (0, 2, 1)), atol=0.0)

    def test_empty_count(self):
        assert random_tuple(3, 0, seed=0).shape == (0, 3, 3)
