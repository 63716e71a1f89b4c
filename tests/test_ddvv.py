"""Commutator inequality: evaluation, gradient, equality recovery, ascent.

Frozen oracle for the canonical pair at parameter mu (A = offdiag(mu),
B = diag(mu, -mu)): over ordered pairs lhs = 2 ||[A, B]||^2 = 16 mu^4, while
||A||^2 = ||B||^2 = 2 mu^2 gives rhs = (4 mu^2)^2 = 16 mu^4 — the ratio is
exactly 1 for every mu > 0.
"""

import json
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import ddvv_reference
from commutator_reference import commutators
from conftest import packed_tuples, random_orthogonal, random_tuple
from ddvv_reference import extremal_pair
from rigidity import ddvv
from rigidity.ddvv import (
    commutator_energy,
    detect_equality,
    energy_gradient,
    evaluate,
    evaluate_stack,
    maximize_ratio,
    ratio_terms,
)
from rigidity.cli import main
from rigidity.immersion import builtin, sample_grid
from rigidity.models import veronese
from rigidity.symmat import rotate_tuple


class TestCommutatorEnergy:
    @pytest.mark.parametrize("mu", [1.0, 0.5, 1.0 / np.sqrt(3.0)])
    def test_frozen_extremal_value(self, mu):
        t = extremal_pair(2, 2, mu)
        npt.assert_allclose(commutator_energy(t), 16.0 * mu**4, rtol=1e-13,
                            err_msg=f"energy of the canonical pair at mu={mu}")

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(40)
        for k in range(30):
            t = random_tuple(int(rng.integers(2, 6)), int(rng.integers(1, 6)), rng)
            comm = commutators(t)
            loop = sum(float(np.sum(comm[r, s] ** 2))
                       for r in range(t.shape[0]) for s in range(t.shape[0]))
            npt.assert_allclose(commutator_energy(t), loop, rtol=1e-11, atol=1e-12,
                                err_msg=f"energy != pairwise sum at draw {k}")

    def test_invariance_under_both_rotations(self):
        rng = np.random.default_rng(41)
        t = random_tuple(4, 3, rng)
        e0 = commutator_energy(t)
        q = random_orthogonal(3, rng)
        p = random_orthogonal(4, rng)
        npt.assert_allclose(commutator_energy(rotate_tuple(t, q)), e0, rtol=1e-11)
        conj = np.einsum("ik,rkl,jl->rij", p, t, p)
        npt.assert_allclose(commutator_energy(conj), e0, rtol=1e-11)

    def test_quartic_homogeneity(self):
        t = random_tuple(3, 3, seed=42)
        npt.assert_allclose(commutator_energy(3.0 * t), 81.0 * commutator_energy(t),
                            rtol=1e-12)


class TestRatioTerms:
    """The one lhs / rhs / ratio kernel behind evaluate, verdict and `ddvv --random`."""

    @pytest.mark.parametrize("t,m,n", [(7, 3, 4), (5, 1, 3), (6, 4, 2)])
    def test_stack_matches_evaluate_bit_for_bit(self, t, m, n):
        rng = np.random.default_rng(t + m + n)
        stack = np.stack([random_tuple(n, m, rng) for _ in range(t)])
        stack[2] = 0.0
        lhs, rhs, ratio = ratio_terms(stack)
        for k, tup in enumerate(stack):
            report = evaluate(tup)
            assert (lhs[k], rhs[k], ratio[k]) == (report.lhs, report.rhs, report.ratio)
            assert ratio_terms(tup) == (report.lhs, report.rhs, report.ratio)
        assert ratio[2] == 0.0

    def test_zero_tuple_has_ratio_zero(self):
        terms = ratio_terms(np.zeros((3, 2, 2)))
        assert terms == (0.0, 0.0, 0.0)
        assert all(type(x) is float for x in terms)

    def test_random_sweep_max_ratio(self, capsys):
        # 5000 trials span three of the sweep's 2,427-tuple batches
        assert main(["ddvv", "--random", "3", "3", "5000", "--seed", "4",
                     "--no-timestamp"]) == 0
        out = json.loads(capsys.readouterr().out)
        ratio = ratio_terms(packed_tuples(4, 5000, 3, 3))[2]
        assert out["max_ratio"] == float(np.max(ratio))
        assert out["violations"] == 0

class TestGradient:
    def test_against_central_differences(self):
        rng = np.random.default_rng(43)
        h = 1e-6
        for k in range(20):
            m, n = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            t = random_tuple(n, m, rng)
            grad = energy_gradient(t)
            fd = np.zeros_like(t)
            for r in range(m):
                for i in range(n):
                    for j in range(n):
                        e = np.zeros_like(t)
                        e[r, i, j] = h
                        fd[r, i, j] = (commutator_energy(t + e)
                                       - commutator_energy(t - e)) / (2 * h)
            scale = max(1.0, float(np.linalg.norm(grad)))
            npt.assert_allclose(grad, fd, atol=1e-6 * scale,
                                err_msg=f"gradient mismatch at draw {k} (m={m}, n={n})")

    def test_vanishes_on_commuting_tuples(self):
        t = np.stack([np.diag([1.0, 2.0, -1.0]), np.diag([0.5, 0.5, 3.0])])
        npt.assert_allclose(energy_gradient(t), 0.0, atol=1e-14)

    def test_gradient_is_symmetric_stack(self):
        t = random_tuple(4, 3, seed=44)
        g = energy_gradient(t)
        npt.assert_allclose(g, np.transpose(g, (0, 2, 1)), atol=1e-12)


class TestEvaluate:
    def test_inequality_on_random_tuples(self):
        rng = np.random.default_rng(45)
        for k in range(300):
            t = random_tuple(int(rng.integers(1, 7)), int(rng.integers(1, 7)), rng)
            rep = evaluate(t)
            assert rep.ratio <= 1.0 + 1e-12, f"ratio {rep.ratio} > 1 at draw {k}"
            assert rep.lhs >= 0.0 and rep.rhs >= 0.0

    def test_zero_tuple(self):
        rep = evaluate(np.zeros((3, 2, 2)))
        assert (rep.lhs, rep.rhs, rep.ratio, rep.equality) == (0.0, 0.0, 0.0, False)
        assert rep.extremal_structure is None

    def test_equality_on_extremal_pair(self):
        rep = evaluate(extremal_pair(3, 4, 0.8))
        npt.assert_allclose(rep.ratio, 1.0, rtol=1e-14)
        assert rep.equality
        assert rep.extremal_structure is not None
        npt.assert_allclose(rep.extremal_structure.mu, 0.8, rtol=1e-10)

    def test_veronese_saturates(self):
        rep = evaluate(veronese(1.0, 0.0).forms)
        npt.assert_allclose(rep.lhs, 16.0 / 9.0, rtol=1e-13)
        npt.assert_allclose(rep.rhs, 16.0 / 9.0, rtol=1e-13)
        assert rep.equality
        npt.assert_allclose(rep.extremal_structure.mu, 1.0 / np.sqrt(3.0), rtol=1e-10)

    @staticmethod
    def _pair(entry):
        return [np.diag([entry, -entry]), np.array([[0.0, entry], [entry, 0.0]])]

    @pytest.mark.parametrize("entry_point", [evaluate, detect_equality],
                             ids=["evaluate", "detect_equality"])
    def test_overflowing_budget_is_rejected(self, entry_point):
        # S^2 = (4e400)^2 overflows: no inf/NaN report, and no RuntimeWarning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                entry_point(self._pair(1e200))
        assert str(exc.value) == "forms too large: S^2 overflows (max |h_ij| = 1.000e+200)"

    def test_large_finite_budget_is_evaluated(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = evaluate(self._pair(1e70))
        assert np.isfinite(rep.ratio) and rep.equality
        npt.assert_allclose(rep.ratio, 1.0, rtol=1e-14)


def _bits(report) -> list:
    """Every field of a report, floats by repr (so -0.0 and 0.0 differ), arrays as lists."""
    s = report.extremal_structure
    head = [repr(report.lhs), repr(report.rhs), repr(report.ratio), report.equality]
    if s is None:
        return head + [None]
    return head + [s.active, repr(s.mu), s.normal_rotation.tolist(),
                   np.signbit(s.normal_rotation).tolist(), s.tangent_rotation.tolist(),
                   np.signbit(s.tangent_rotation).tolist(), repr(float(s.offplane_frac)),
                   repr(s.match_residual)]


def _reference_bits(t) -> list:
    lhs, rhs, ratio, equality, s = ddvv_reference.evaluate(t)
    head = [repr(lhs), repr(rhs), repr(ratio), equality]
    if s is None:
        return head + [None]
    active, mu, q, tangent, offplane_frac, residual = s
    return head + [active, repr(mu), q.tolist(), np.signbit(q).tolist(), tangent.tolist(),
                   np.signbit(tangent).tolist(), repr(float(offplane_frac)), repr(residual)]


class TestEvaluateStack:
    """The stacked kernel behind `check` and `ddvv --input`, against one tuple at a time."""

    def test_veronese_grid_bit_for_bit(self):
        stack = np.stack([s.data.forms for s in sample_grid(builtin("veronese"), 12)])
        reports = evaluate_stack(stack)
        assert len(reports) == 144 and all(r.equality for r in reports)
        for t, report in zip(stack, reports):
            assert _bits(report) == _bits(evaluate(t)) == _reference_bits(t)

    @pytest.mark.parametrize("n", [3, 4])
    def test_rotated_equality_tuples_bit_for_bit(self, n):
        # n > 2 completes the tangent basis; mixed noise levels put some tuples
        # off the gate, so the stack splits into equality and plain reports
        rng = np.random.default_rng(80 + n)
        tuples = []
        for k in range(40):
            slots = tuple(int(i) for i in rng.choice(3, 2, replace=False))
            t = extremal_pair(n, 3, rng.uniform(0.2, 2.0), rotation=random_orthogonal(n, rng),
                              slots=slots)
            t = rotate_tuple(t, random_orthogonal(3, rng))
            noise = random_tuple(n, 3, rng) * [0.0, 1e-10, 1e-3][k % 3]
            tuples.append((t + noise + np.swapaxes(t + noise, 1, 2)) / 2.0)
        stack = np.stack(tuples)
        reports = evaluate_stack(stack)
        assert 0 < sum(r.equality for r in reports) < len(reports)
        for t, report in zip(stack, reports):
            assert _bits(report) == _bits(evaluate(t)) == _reference_bits(t)

    def test_energy_is_computed_once(self, monkeypatch):
        calls = []

        def counted(t):
            calls.append(t)
            return commutator_energy(t)

        monkeypatch.setattr(ddvv, "commutator_energy", counted)
        assert evaluate(veronese(1.0, 0.0).forms).equality
        assert len(calls) == 1


class TestExtremalPair:
    def test_slot_placement(self):
        t = extremal_pair(3, 4, 0.9, slots=(1, 3))
        norms = [float(np.sum(b * b)) for b in t]
        npt.assert_allclose(norms, [0.0, 2 * 0.81, 0.0, 2 * 0.81], rtol=1e-14)

    def test_rotation_conjugates(self):
        rng = np.random.default_rng(46)
        p = random_orthogonal(3, rng)
        plain = extremal_pair(3, 2, 1.1)
        rotated = extremal_pair(3, 2, 1.1, rotation=p)
        npt.assert_allclose(rotated, np.einsum("ik,rkl,jl->rij", p, plain, p),
                            atol=1e-13)

    @pytest.mark.parametrize("kwargs", [
        dict(n=1, m=2, mu=1.0),
        dict(n=2, m=1, mu=1.0),
        dict(n=2, m=2, mu=0.0),
        dict(n=2, m=2, mu=-1.0),
        dict(n=2, m=3, mu=1.0, slots=(1, 1)),
        dict(n=2, m=3, mu=1.0, slots=(0, 5)),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            extremal_pair(**kwargs)

    def test_bad_rotation(self):
        with pytest.raises(ValueError):
            extremal_pair(2, 2, 1.0, rotation=np.ones((2, 2)))


class TestDetectEquality:
    @pytest.mark.parametrize("n,m,mu", [(2, 2, 0.7), (3, 3, 1.3), (4, 5, 0.5),
                                        (2, 4, 1.0)])
    def test_roundtrip_under_random_rotations(self, n, m, mu):
        rng = np.random.default_rng(47)
        for k in range(5):
            p = random_orthogonal(n, rng)
            q = random_orthogonal(m, rng)
            t = rotate_tuple(extremal_pair(n, m, mu, rotation=p), q)
            s = detect_equality(t)
            assert s is not None, f"missed equality at draw {k}"
            npt.assert_allclose(s.mu, mu, rtol=1e-9,
                                err_msg=f"mu mis-recovered at draw {k}")
            assert s.offplane_frac <= 1e-9, f"off-plane mass at draw {k}"
            assert s.match_residual <= 1e-9, f"reconstruction residual at draw {k}"

    def test_active_slots_without_rotation(self):
        s = detect_equality(extremal_pair(3, 4, 0.9, slots=(1, 3)))
        assert s is not None and s.active == (1, 3)

    def test_rotations_are_orthogonal(self):
        s = detect_equality(extremal_pair(4, 3, 0.6))
        npt.assert_allclose(s.normal_rotation @ s.normal_rotation.T, np.eye(3),
                            atol=1e-10)
        npt.assert_allclose(s.tangent_rotation @ s.tangent_rotation.T, np.eye(4),
                            atol=1e-10)

    def test_none_away_from_equality(self):
        assert detect_equality(random_tuple(4, 3, seed=48)) is None
        assert detect_equality(np.zeros((2, 2, 2))) is None
        assert detect_equality(np.ones((1, 3, 3))) is None  # m < 2

    def test_gate_is_the_ratio_kernel(self, monkeypatch):
        # total**2 is a libm pow call and total * total is not, so on these
        # tuples a ratio of the other form sits one ulp off ratio_terms'; with
        # 1 - NEAR_EQUALITY on the ratio or one ulp above it, only the kernel's
        # value decides, as it does for evaluate's equality flag
        rng = np.random.default_rng(7)
        stack = extremal_pair(3, 3, 1.0) + 0.1 * random_tuple(3, 3 * 20000, rng).reshape(
            20000, 3, 3, 3)
        totals = [float(np.einsum("rij,rij->", t, t)) for t in stack]
        picked = [t for t, total in zip(stack, totals) if total**2 != total * total]
        assert len(picked) >= 8
        for t in picked:
            ratio = ratio_terms(t)[2]
            assert 0.5 <= ratio < 1.0   # so 1 - (1 - r) == r exactly
            for gate in (ratio, np.nextafter(ratio, 2.0)):
                tol = 1.0 - gate
                monkeypatch.setattr(ddvv, "NEAR_EQUALITY", tol)
                assert (detect_equality(t) is not None) == (ratio >= 1.0 - tol)


class TestMaximizeRatio:
    def test_small_shapes_reach_equality(self):
        res = maximize_ratio(2, 2, seed=0, starts=8, iters=500)
        assert res.ratio >= 1.0 - 1e-6
        assert res.tuple.shape == (2, 2, 2)
        npt.assert_allclose(float(np.sum(res.tuple**2)), 1.0, rtol=1e-10,
                            err_msg="result should stay on the unit sphere")

    def test_history_bounded_by_one(self):
        res = maximize_ratio(3, 3, seed=1, starts=4, iters=400)
        assert len(res.history) > 0
        assert max(res.history) <= 1.0 + 1e-12

    def test_deterministic_per_seed(self):
        a = maximize_ratio(2, 3, seed=5, starts=3, iters=100)
        b = maximize_ratio(2, 3, seed=5, starts=3, iters=100)
        npt.assert_array_equal(a.tuple, b.tuple)
        assert a.ratio == b.ratio

    @pytest.mark.parametrize("n,m", [(1, 3), (3, 1), (1, 1)])
    def test_degenerate_shapes(self, n, m):
        res = maximize_ratio(n, m, seed=0)
        assert res.ratio == 0.0
        assert res.history == []
