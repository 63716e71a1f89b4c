"""The shared kernels: one symmetric-stack validator, one commutator energy,
one sign fix, one Gram eigenframe, one trace gate, one restriction check, and
one seed rule for the two random searches.

Each is checked against the per-member or per-tuple computation it replaced,
so batching cannot change a single bit or error message.
"""

import numpy as np
import pytest

from conftest import make_minimal, random_tuple
from ddvv_reference import extremal_pair
from rigidity.curvature import FundamentalData, kmin_bracket, negligible_trace
from rigidity.ddvv import (
    commutator_energy,
    detect_equality,
    evaluate,
    maximize_ratio,
)
from rigidity.simons import curvature_contraction, g_sq_value
from rigidity.symmat import (
    as_tuple,
    gram_frame,
    rotate_tuple,
    signfix,
    symmetrize,
)


class TestStackedSymmetrize:
    def test_stack_equals_per_member(self):
        stack = np.random.default_rng(60).normal(size=(7, 4, 4))
        stack = stack + np.swapaxes(stack, 1, 2) + 1e-12 * np.eye(4)[0]
        out = symmetrize(stack)
        for k, m in enumerate(stack):
            assert np.array_equal(out[k], symmetrize(m))

    def test_message_names_the_first_bad_member(self):
        good = np.eye(3)
        bad1 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
        bad2 = np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError) as first:
            symmetrize(bad1)
        with pytest.raises(ValueError) as stacked:
            symmetrize(np.stack([good, bad1, good, bad2]))
        assert str(stacked.value) == str(first.value)
        assert "not symmetric" in str(first.value)

    def test_per_matrix_bound(self):
        # skew 5e-9 passes under a member of scale 10 but not under one of scale 1
        big = np.diag([10.0, 1.0])
        small = np.eye(2)
        big[0, 1] += 5e-9
        small[0, 1] += 5e-9
        symmetrize(np.stack([big, big]))
        with pytest.raises(ValueError, match="not symmetric"):
            symmetrize(np.stack([big, small]))


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fundamental_data(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            FundamentalData(n=2, p=1, c=1.0, forms=[[[bad, 0.0], [0.0, 1.0]]])

    def test_as_tuple(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_tuple([np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]])])

    def test_ddvv_evaluate(self):
        t = random_tuple(3, 2, seed=61)
        t[1, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(t)


class TestBatchedCommutatorEnergy:
    @pytest.mark.parametrize("n, m", [(2, 2), (3, 3), (4, 4), (5, 2), (1, 3)])
    def test_batch_equals_per_tuple_calls(self, n, m):
        g = np.random.default_rng(62 + n + m).normal(size=(64, m, n, n))
        t = (g + np.swapaxes(g, -1, -2)) / 2.0
        batch = commutator_energy(t)
        assert batch.shape == (64,)
        assert all(batch[k] == commutator_energy(t[k]) for k in range(64))

    def test_nested_batch_axes(self):
        t = random_tuple(3, 3, seed=63)
        stack = np.stack([np.stack([t, 2.0 * t]), np.stack([-t, t])])
        out = commutator_energy(stack)
        assert out.shape == (2, 2)
        assert out[0, 0] == out[1, 1] == commutator_energy(t)

    def test_single_tuple_is_a_float(self):
        assert isinstance(commutator_energy(random_tuple(2, 2, seed=64)), float)


class TestSignfix:
    def test_largest_entry_positive_and_idempotent(self):
        v = np.random.default_rng(65).normal(size=(5, 4))
        out = signfix(v)
        for k in range(4):
            assert out[np.argmax(np.abs(out[:, k])), k] > 0
            assert np.array_equal(np.abs(out[:, k]), np.abs(v[:, k]))
        assert np.array_equal(signfix(out), out)

    def test_vector_and_ties(self):
        assert np.array_equal(signfix(np.array([0.5, -2.0, 1.0])), [-0.5, 2.0, -1.0])
        # equal magnitudes: the first one decides
        assert np.array_equal(signfix(np.array([-1.0, 1.0])), [1.0, -1.0])
        assert np.array_equal(signfix(np.zeros((3, 2))), np.zeros((3, 2)))


class TestGramFrame:
    def test_descending_orthogonal_and_diagonalizing(self):
        t = random_tuple(3, 4, seed=67)
        vals, q = gram_frame(t)
        assert np.all(np.diff(vals) <= 0)
        np.testing.assert_allclose(q @ q.T, np.eye(4), atol=1e-14)
        rotated = rotate_tuple(t, q)
        gram = np.einsum("rij,sij->rs", rotated, rotated)
        np.testing.assert_allclose(gram, np.diag(vals), atol=1e-12)

    def test_stack_equals_per_tuple(self):
        stack = np.stack([random_tuple(3, 3, seed=s) for s in range(68, 73)])
        vals, q = gram_frame(stack)
        for k, t in enumerate(stack):
            one_vals, one_q = gram_frame(t)
            assert np.array_equal(vals[k], one_vals) and np.array_equal(q[k], one_q)

    def test_both_gauge_moves_use_it(self):
        # evaluate's and detect_equality's normal rotations are gram_frame's rows
        pair = extremal_pair(3, 3, 0.7, slots=(2, 0))
        rotation = gram_frame(pair)[1]
        assert np.array_equal(evaluate(pair).extremal_structure.normal_rotation, rotation)
        assert np.array_equal(detect_equality(pair).normal_rotation, rotation)


class TestTraceGate:
    def test_scale_is_n_times_largest_entry(self):
        forms = np.zeros((2, 3, 3))
        forms[0, 0, 0] = 10.0        # scale max(1, 3 * 10) = 30
        assert negligible_trace(2.9e-9, forms)
        assert not negligible_trace(3.1e-9, forms)
        assert negligible_trace(0.9e-10, np.zeros((1, 2, 2)))   # scale floors at 1
        assert not negligible_trace(1.1e-10, np.zeros((1, 2, 2)))
        assert negligible_trace(5e-7, forms, tol=1e-7)


class TestShared:
    def test_one_restriction_check(self):
        data = make_minimal(3, 3, 1.0, np.random.default_rng(66))
        for bad in ([0, 0], [3], [-1]):
            with pytest.raises(ValueError) as simons_err:
                curvature_contraction(data, restrict=bad)
            with pytest.raises(ValueError) as gram_err:
                g_sq_value(data, restrict=bad)
            assert str(simons_err.value) == str(gram_err.value)
        assert data.restriction() == (0, 1, 2)
        assert data.restriction([2, 0]) == (2, 0)

    def test_one_seed_rule(self):
        # the plane search and the ratio ascent draw their starts alike, and refuse alike
        data = make_minimal(5, 2, 1.0, np.random.default_rng(67))
        for bad in (-1, 1.5, "7", True, np.random.SeedSequence(5)):
            with pytest.raises(ValueError) as bracket_err:
                kmin_bracket(data, seed=bad)
            with pytest.raises(ValueError) as ascent_err:
                maximize_ratio(2, 2, seed=bad, starts=1, iters=1)
            assert str(bracket_err.value) == str(ascent_err.value)
            assert str(ascent_err.value) == f"seed must be None or an int >= 0, got {bad!r}"
