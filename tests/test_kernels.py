"""The shared kernels: one symmetric-stack validator, one commutator energy,
one sign fix, one trace gate, one restriction check, one seed coercion.

Each is checked against the per-member or per-tuple computation it replaced,
so batching cannot change a single bit or error message.
"""

import numpy as np
import pytest

from conftest import make_minimal
from rigidity.curvature import FundamentalData, gram_diagonalize, negligible_trace
from rigidity.ddvv import commutator_energy, evaluate
from rigidity.simons import curvature_contraction
from rigidity.symmat import as_tuple, random_tuple, seed_sequence, signfix, symmetrize


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
                gram_diagonalize(data, restrict=bad)
            assert str(simons_err.value) == str(gram_err.value)
        assert data.restriction() == (0, 1, 2)
        assert data.restriction([2, 0]) == (2, 0)

    def test_seed_sequence(self):
        ss = np.random.SeedSequence(5)
        assert seed_sequence(ss) is ss
        assert seed_sequence(5).entropy == 5
