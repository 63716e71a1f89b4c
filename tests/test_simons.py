"""Trace aggregates, the Gauss-equation expansion, and the parametric bound.

The single-form eigenframe oracle used below: with one shape operator
diag(lam_1..lam_n) the curvature contraction is

    T_curv = sum_{i<j} (lam_i - lam_j)^2 K_ij,    K_ij = c + lam_i lam_j.

Frozen case n=3, lam=(2,1,-1), c=1:
    (2-1)^2 (1+2) + (2+1)^2 (1-2) + (1+1)^2 (1-1) = 3 - 9 + 0 = -6.
"""

import itertools

import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_minimal, make_pseudo_umbilical
from simons_reference import commutator_trace_identity, gauss_expansion_check, laplacian_surrogate
from rigidity.curvature import FundamentalData, invariants, kmin_bracket, riemann
from rigidity.models import umbilical_sphere, veronese
from rigidity.simons import (
    CASES,
    MINIMAL,
    PARALLEL_MEAN,
    contraction_report,
    curvature_contraction,
    g_sq_value,
    laplacian_bound,
    mean_coupling,
    n_comm_value,
    optimal_parameter,
    s2_coefficient,
)

# --- curvature contraction ------------------------------------------------------


def eigenframe_oracle(lams, c):
    total = 0.0
    for i, j in itertools.combinations(range(len(lams)), 2):
        total += (lams[i] - lams[j]) ** 2 * (c + lams[i] * lams[j])
    return total


class TestCurvatureContraction:
    def test_frozen_single_form(self):
        data = FundamentalData(n=3, p=1, c=1.0, forms=np.diag([2.0, 1.0, -1.0])[None])
        npt.assert_allclose(curvature_contraction(data), -6.0, rtol=1e-14)

    def test_eigenframe_oracle_random_diagonals(self):
        rng = np.random.default_rng(20)
        for k in range(50):
            n = int(rng.integers(2, 7))
            c = float(rng.choice([-1.0, 0.0, 1.0]))
            lams = rng.normal(size=n)
            data = FundamentalData(n=n, p=1, c=c, forms=np.diag(lams)[None])
            npt.assert_allclose(curvature_contraction(data),
                                eigenframe_oracle(lams, c), rtol=1e-11, atol=1e-12,
                                err_msg=f"eigenframe oracle failed at draw {k}")

    def test_loop_oracle_multi_form(self):
        # independent elementwise-loop evaluation of the same contraction
        rng = np.random.default_rng(21)
        data = make_minimal(3, 3, 1.0, rng)
        comp = riemann(data).components
        h = data.forms
        n, p = data.n, data.p
        ric = np.zeros((n, n))
        for m in range(n):
            for j in range(n):
                ric[m, j] = sum(comp[m, k, j, k] for k in range(n))
        total = 0.0
        for a in range(p):
            for i in range(n):
                for j in range(n):
                    for m in range(n):
                        total += h[a, i, j] * h[a, m, i] * ric[m, j]
                        for k in range(n):
                            total -= h[a, i, j] * h[a, k, m] * comp[i, k, j, m]
        npt.assert_allclose(curvature_contraction(data), total, rtol=1e-10)

    def test_veronese_value(self):
        npt.assert_allclose(curvature_contraction(veronese(1.0, 0.0)), 8.0 / 9.0,
                            rtol=1e-12)

    def test_restriction_subsets(self):
        data = make_minimal(4, 3, 1.0, np.random.default_rng(22))
        full = curvature_contraction(data)
        parts = sum(curvature_contraction(data, restrict=[a]) for a in range(3))
        npt.assert_allclose(full, parts, rtol=1e-11,
                            err_msg="T_curv must be additive over normal directions")

    def test_bad_restriction(self):
        data = make_minimal(3, 2, 1.0, np.random.default_rng(23))
        with pytest.raises(ValueError):
            curvature_contraction(data, restrict=[0, 0])
        with pytest.raises(ValueError):
            curvature_contraction(data, restrict=[5])


class TestPairAggregates:
    def test_n_comm_matches_commutator_norms(self):
        # N_comm = 1/2 sum_{a,b} ||[H_a, H_b]||^2 via tr identities
        rng = np.random.default_rng(24)
        for k in range(30):
            data = make_minimal(int(rng.integers(2, 6)), int(rng.integers(1, 5)),
                                1.0, rng)
            h = data.forms
            brackets = 0.0
            for a in range(data.p):
                for b in range(data.p):
                    comm = h[a] @ h[b] - h[b] @ h[a]
                    brackets += float(np.sum(comm * comm))
            npt.assert_allclose(n_comm_value(data), brackets / 2.0, rtol=1e-10,
                                atol=1e-12, err_msg=f"N_comm mismatch at draw {k}")

    def test_quartic_homogeneity(self):
        data = make_minimal(4, 3, 1.0, np.random.default_rng(25))
        scaled = FundamentalData(n=4, p=3, c=1.0, forms=2.0 * data.forms)
        npt.assert_allclose(n_comm_value(scaled), 16.0 * n_comm_value(data), rtol=1e-12)
        npt.assert_allclose(g_sq_value(scaled), 16.0 * g_sq_value(data), rtol=1e-12)

    def test_commutator_bound(self):
        rng = np.random.default_rng(26)
        for k in range(100):
            data = make_minimal(int(rng.integers(2, 7)), int(rng.integers(1, 6)),
                                1.0, rng)
            val, bound = commutator_trace_identity(data)
            assert val <= bound + 1e-10 * (1.0 + bound), \
                f"commutator bound violated at draw {k}: {val} > {bound}"

    def test_bound_saturated_by_veronese(self):
        val, bound = commutator_trace_identity(veronese(1.0, 0.0))
        npt.assert_allclose(val, 8.0 / 9.0, rtol=1e-12)
        npt.assert_allclose(bound, 8.0 / 9.0, rtol=1e-12)

    def test_single_direction_degenerates(self):
        data = make_minimal(4, 1, 1.0, np.random.default_rng(27))
        val, bound = commutator_trace_identity(data)
        assert val == 0.0 and bound == 0.0


class TestMeanCoupling:
    def test_pseudo_umbilical_closed_form(self):
        rng = np.random.default_rng(28)
        for k in range(30):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(2, 6))
            H = float(rng.uniform(0.2, 1.5))
            data = make_pseudo_umbilical(n, p, 1.0, H, rng)
            inv = invariants(data)
            npt.assert_allclose(mean_coupling(data), n * H * H * inv.S_I,
                                rtol=1e-11, atol=1e-13,
                                err_msg=f"T_mixed != n H^2 S_I at draw {k}")

    def test_requires_mean_frame(self):
        with pytest.raises(ValueError):
            mean_coupling(make_minimal(3, 2, 1.0, np.random.default_rng(29)))

    def test_veronese_mean_family(self):
        data = veronese(1.0, 1.0)
        npt.assert_allclose(mean_coupling(data), 2 * 1.0 * invariants(data).S_I,
                            rtol=1e-12)


class TestGaussExpansion:
    def test_minimal_residuals_vanish(self):
        rng = np.random.default_rng(30)
        worst = 0.0
        for k in range(200):
            data = make_minimal(int(rng.integers(2, 7)), int(rng.integers(1, 6)),
                                float(rng.choice([-1.0, 0.0, 1.0])), rng)
            s = invariants(data).S
            resid = gauss_expansion_check(data)
            assert resid <= 1e-9 * (1.0 + s * s), \
                f"expansion residual {resid} too large at draw {k}"
            worst = max(worst, resid)
        assert worst < 1e-9

    def test_pseudo_umbilical_residuals_vanish(self):
        rng = np.random.default_rng(31)
        for k in range(200):
            data = make_pseudo_umbilical(int(rng.integers(2, 6)),
                                         int(rng.integers(2, 6)),
                                         float(rng.choice([-1.0, 0.0, 1.0])),
                                         float(rng.uniform(0.2, 1.2)), rng)
            resid = gauss_expansion_check(data, restrict=data.non_mean_indices())
            s = invariants(data).S
            assert resid <= 1e-9 * (1.0 + s * s), \
                f"expansion residual {resid} too large at draw {k}"

    def test_report_fields(self):
        data = veronese(1.0, 0.5)
        rep = contraction_report(data, restrict=data.non_mean_indices())
        assert rep.restriction == (1, 2)
        npt.assert_allclose(rep.T_mixed, mean_coupling(data), rtol=1e-14)
        npt.assert_allclose(rep.N_comm, n_comm_value(data, rep.restriction), rtol=1e-14)
        npt.assert_allclose(rep.G_sq, g_sq_value(data, rep.restriction), rtol=1e-14)


# --- parametric lower bound -----------------------------------------------------

class TestLaplacianBound:
    def test_surrogate_dominates_bound_minimal(self):
        rng = np.random.default_rng(32)
        for k in range(60):
            data = make_minimal(int(rng.integers(2, 6)), int(rng.integers(1, 5)),
                                float(rng.choice([-1.0, 0.0, 1.0])), rng, scale=0.5)
            kmin = kmin_bracket(data, budget=8, seed=0).lo
            for a in (0.0, 0.3, 0.7):
                lhs = laplacian_surrogate(data, a, MINIMAL)
                rhs = laplacian_bound(data, a, kmin, MINIMAL)
                assert lhs >= rhs - 1e-9 * (1.0 + abs(rhs)), \
                    f"bound exceeded surrogate at draw {k}, a={a}"

    def test_surrogate_dominates_bound_parallel_mean(self):
        rng = np.random.default_rng(33)
        for k in range(60):
            data = make_pseudo_umbilical(int(rng.integers(2, 5)),
                                         int(rng.integers(2, 5)), 1.0,
                                         float(rng.uniform(0.2, 1.0)), rng, scale=0.5)
            kmin = kmin_bracket(data, budget=8, seed=0).lo
            for a in (0.0, 0.4, 0.8):
                lhs = laplacian_surrogate(data, a, PARALLEL_MEAN)
                rhs = laplacian_bound(data, a, kmin, PARALLEL_MEAN)
                assert lhs >= rhs - 1e-9 * (1.0 + abs(rhs)), \
                    f"bound exceeded surrogate at draw {k}, a={a}"

    def test_veronese_saturates_at_optimal_parameter(self):
        # boundary case: bound and surrogate both vanish at a* = 1/2, kmin = 1/3
        data = veronese(1.0, 0.0)
        a_star, _ = optimal_parameter(2, MINIMAL)
        assert a_star == 0.5
        npt.assert_allclose(laplacian_bound(data, a_star, 1.0 / 3.0, MINIMAL), 0.0,
                            atol=1e-13)
        npt.assert_allclose(laplacian_surrogate(data, a_star, MINIMAL), 0.0,
                            atol=1e-13)

    @pytest.mark.parametrize("a", [-0.1, 1.0, 1.5])
    def test_parameter_domain(self, a):
        data = veronese(1.0, 0.0)
        with pytest.raises(ValueError):
            laplacian_bound(data, a, 0.0, MINIMAL)
        with pytest.raises(ValueError):
            laplacian_surrogate(data, a, MINIMAL)

    def test_parallel_mean_needs_frame(self):
        data = make_minimal(3, 2, 1.0, np.random.default_rng(34))
        with pytest.raises(ValueError):
            laplacian_surrogate(data, 0.5, PARALLEL_MEAN)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            laplacian_bound(veronese(1.0, 0.0), 0.5, 0.0, "umbilic")


class TestOptimalParameter:
    @pytest.mark.parametrize("p_eff", range(1, 13))
    @pytest.mark.parametrize("case", CASES)
    def test_kills_the_quadratic_coefficient(self, p_eff, case):
        a_star, _ = optimal_parameter(p_eff, case)
        assert abs(s2_coefficient(a_star, p_eff, case)) <= 1e-16, \
            f"S^2 coefficient survives at a* for p_eff={p_eff}, case={case}"

    @pytest.mark.parametrize("p_eff", range(1, 13))
    def test_threshold_is_mapped_parameter(self, p_eff):
        # rational identity: with a* = p/(p+2), a*/(1 + a*) = p/(2p + 2),
        # which is exactly the threshold p/(2(p+1))
        for case in CASES:
            a_star, threshold = optimal_parameter(p_eff, case)
            if a_star > 0:
                npt.assert_allclose(threshold, a_star / (1.0 + a_star), rtol=1e-14,
                                    err_msg=f"p_eff={p_eff}, case={case}")
            else:
                assert threshold == 0.0

    def test_frozen_values(self):
        assert optimal_parameter(1, MINIMAL) == (0.0, 0.0)
        assert optimal_parameter(2, MINIMAL) == (0.5, 1.0 / 3.0)
        assert optimal_parameter(2, PARALLEL_MEAN) == (0.5, 1.0 / 3.0)
        assert optimal_parameter(1, PARALLEL_MEAN) == (1.0 / 3.0, 0.25)

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_parameter(0, MINIMAL)
        with pytest.raises(ValueError):
            optimal_parameter(2, "nope")
