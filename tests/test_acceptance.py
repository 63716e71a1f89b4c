"""Acceptance gate: nine numbered criteria, one test and one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the [PASS] lines.  Every
tolerance below is part of the contract; loosening one is an API change.
"""

import time
from fractions import Fraction
from itertools import product

import numpy as np
import numpy.testing as npt

from rigidity.curvature import (
    FundamentalData,
    invariants,
    kmin_bracket,
    riemann,
)
from rigidity.ddvv import (
    commutator_energy,
    detect_equality,
    energy_gradient,
    evaluate,
    maximize_ratio,
)
from rigidity.immersion import builtin, second_fundamental_form
from rigidity.models import totally_geodesic, umbilical_sphere, veronese
from rigidity.pinching import (
    sgn,
    threshold_generalized,
    threshold_itoh,
    threshold_thm1,
    threshold_thm2,
    threshold_yau,
    verdict,
)
from rigidity.simons import (
    MINIMAL,
    PARALLEL_MEAN,
    mean_coupling,
    optimal_parameter,
    s2_coefficient,
)

from conftest import make_minimal, make_pseudo_umbilical, random_tuple
from plane_search_reference import sectional
from simons_reference import commutator_trace_identity, gauss_expansion_check


def coordinate_k(data):
    e1 = np.zeros(data.n); e1[0] = 1.0
    e2 = np.zeros(data.n); e2[1] = 1.0
    return sectional(riemann(data), e1, e2)


def test_criterion_1_ddvv_soundness():
    rng = np.random.default_rng(20260101)
    trials_per_shape = 2778  # 36 shapes -> 100 008 tuples total
    start = time.perf_counter()
    worst = 0.0
    total = 0
    for n, m in product(range(1, 7), range(1, 7)):
        draws = rng.standard_normal((trials_per_shape, m, n, n))
        draws = 0.5 * (draws + draws.swapaxes(-1, -2))
        for t in range(trials_per_shape):
            worst = max(worst, evaluate(draws[t]).ratio)
            total += 1
    elapsed = time.perf_counter() - start
    assert total >= 100_000
    assert worst <= 1.0 + 1e-12
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 1: DDVV ratio <= 1 + 1e-12 over {total} random "
          f"tuples, worst {worst:.15f}, {elapsed:.1f}s")


def test_criterion_2_ddvv_sharpness_and_structure():
    start = time.perf_counter()
    for n, m in [(2, 2), (3, 3), (4, 5)]:
        result = maximize_ratio(n, m, seed=0)
        assert result.ratio >= 1.0 - 1e-6, (n, m, result.ratio)
        structure = detect_equality(result.tuple)
        assert structure is not None, (n, m)
        assert structure.offplane_frac <= 1e-3, (n, m, structure.offplane_frac)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[PASS] criterion 2: maximize_ratio >= 1 - 1e-6 with two-matrix "
          f"structure on (2,2),(3,3),(4,5), {elapsed:.1f}s")


def test_criterion_3_veronese_boundary():
    data = veronese(1.0, 0.0)
    npt.assert_allclose(invariants(data).S, 4.0 / 3.0, rtol=1e-12)
    tensor = riemann(data)
    rng = np.random.default_rng(3)
    for _ in range(20):
        plane = rng.standard_normal(2), rng.standard_normal(2)
        npt.assert_allclose(sectional(tensor, *plane), 1.0 / 3.0, rtol=1e-12)
    npt.assert_allclose(evaluate(data.forms).ratio, 1.0, rtol=1e-12)
    v = verdict(data, "thm1")
    assert v.status == "boundary"
    assert v.threshold == 1.0 / 3.0
    print("[PASS] criterion 3: Veronese model has S = 4/3, K = 1/3, DDVV "
          "ratio 1, boundary verdict at threshold 1/3")


def test_criterion_4_immersion_cross_check():
    rng = np.random.default_rng(4)
    spec = builtin("veronese")
    for _ in range(20):
        u = np.array([rng.uniform(0.3, np.pi - 0.3),
                      rng.uniform(0.3, 2.0 * np.pi - 0.3)])
        sample = second_fundamental_form(spec, u)
        npt.assert_allclose(invariants(sample.data).S, 4.0 / 3.0, atol=1e-5)
        npt.assert_allclose(coordinate_k(sample.data), 1.0 / 3.0, atol=1e-5)
    spec = builtin("clifford")
    for _ in range(20):
        u = rng.uniform(0.3, 2.0 * np.pi - 0.3, size=2)
        sample = second_fundamental_form(spec, u)
        npt.assert_allclose(invariants(sample.data).S, 2.0, atol=1e-6)
        npt.assert_allclose(coordinate_k(sample.data), 0.0, atol=1e-6)
    print("[PASS] criterion 4: differentiated Veronese map gives S = 4/3, "
          "K = 1/3 (1e-5); Clifford map gives S = 2, K = 0 (1e-6)")


def test_criterion_5_trace_identity_suite():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    for i in range(1000):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 6))
        c = float(rng.choice([-1.0, 0.0, 1.0]))
        if i % 2 and p >= 2:
            data = make_pseudo_umbilical(n, p, c, H=rng.uniform(0.2, 1.2), rng=rng,
                                         scale=rng.uniform(0.3, 1.2))
            inv = invariants(data)
            npt.assert_allclose(mean_coupling(data), n * inv.H**2 * inv.S_I,
                                rtol=1e-10, atol=1e-12)
            resid = gauss_expansion_check(data, restrict=data.non_mean_indices())
        else:
            data = make_minimal(n, p, c, rng, scale=rng.uniform(0.3, 1.2))
            resid = gauss_expansion_check(data)
        s_sq = invariants(data).S ** 2
        assert abs(resid) <= 1e-9 * (1.0 + s_sq)
        n_comm, bound = commutator_trace_identity(data)
        assert n_comm <= bound + 1e-12 * (1.0 + bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[PASS] criterion 5: Gauss expansion, commutator bound, and mean "
          f"coupling identities on 1000 random instances, {elapsed:.1f}s")


def test_criterion_6_parameter_optimality():
    for p in range(1, 13):
        a_star, threshold = optimal_parameter(p, MINIMAL)
        assert a_star == sgn(p - 1) * p / (p + 2)
        assert abs(s2_coefficient(a_star, p, MINIMAL)) <= 1e-14
        assert threshold == sgn(p - 1) * p / (2 * (p + 1))
        a_star, threshold = optimal_parameter(p, PARALLEL_MEAN)
        assert a_star == p / (p + 2)          # p effective directions
        assert abs(s2_coefficient(a_star, p, PARALLEL_MEAN)) <= 1e-14
        assert threshold == p / (2 * (p + 1))
    # in ambient terms: codimension p with a parallel mean direction has
    # p - 1 effective slots, so the threshold reads (p - 1)/(2p)
    for p in range(2, 13):
        assert optimal_parameter(p - 1, PARALLEL_MEAN)[1] == (p - 1) / (2 * p)
    print("[PASS] criterion 6: optimal parameter kills the S^2 coefficient "
          "(1e-14) and maps to the closed-form threshold exactly, p = 1..12")


def test_criterion_7_threshold_table(capsys):
    from rigidity.cli import main

    assert main(["pinch", "--table", "12", "8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p,n,yau,itoh,thm1,thm2@c+H^2=1,generalized_i,generalized_ii"
    seen = 0
    for line in lines[1:]:
        cells = line.split(",")
        p, n = int(cells[0]), int(cells[1])
        assert float(cells[2]) == threshold_yau(p) == sgn(p - 1) * (p - 1) / (2 * p - 1)
        assert float(cells[3]) == threshold_itoh(n) == n / (2 * (n + 1))
        assert float(cells[4]) == threshold_thm1(p) == sgn(p - 1) * p / (2 * (p + 1))
        assert float(cells[5]) == threshold_thm2(p, 1.0, 0.0)
        assert float(cells[6]) == threshold_generalized(p, n, 1.0, 0.0)
        assert float(cells[7]) == threshold_generalized(p, n, 0.0, 1.0)
        if p >= 3:
            assert Fraction(p, 2 * (p + 1)) < Fraction(p - 1, 2 * p - 1)
        seen += 1
    assert seen == 12 * 7
    print("[PASS] criterion 7: threshold table matches every closed-form "
          "constant exactly, with thm1 < yau for all p >= 3")


def test_criterion_8_curvature_machinery():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 5))
        data = FundamentalData(
            n=n, p=p, c=float(rng.uniform(-1.0, 1.0)),
            forms=random_tuple(n, p, rng, scale=rng.uniform(0.2, 1.5)),
        )
        r = riemann(data).components
        tol = 1e-10 * (1.0 + np.abs(r).max())
        npt.assert_allclose(r, -r.transpose(1, 0, 2, 3), atol=tol)
        npt.assert_allclose(r, -r.transpose(0, 1, 3, 2), atol=tol)
        npt.assert_allclose(r, r.transpose(2, 3, 0, 1), atol=tol)
        bianchi = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
        npt.assert_allclose(bianchi, 0.0, atol=tol)
        inv = invariants(data)
        npt.assert_allclose(np.einsum("ijij->", r),
                            n * (n - 1) * data.c + n**2 * inv.H**2 - inv.S,
                            rtol=1e-10, atol=1e-10)
    for n, p, c in product((2, 3, 4), (1, 2, 3), (-1.0, 0.0, 1.0)):
        bracket = kmin_bracket(totally_geodesic(n, p, c), budget=8)
        assert bracket.hi - bracket.lo <= 1e-8
        bracket = kmin_bracket(umbilical_sphere(n, p, c, H=0.7), budget=8)
        assert bracket.hi - bracket.lo <= 1e-8
    print("[PASS] criterion 8: Riemann symmetries, Bianchi, and the scalar "
          "identity on 1000 instances (1e-10); bracket collapse on "
          "constant-curvature inputs (1e-8)")


def test_criterion_9_gradient_check():
    rng = np.random.default_rng(9)
    shapes = [(2, 2), (3, 2), (3, 3), (2, 4)]
    h = 1e-6
    for k in range(100):
        n, m = shapes[k % len(shapes)]
        forms = random_tuple(n, m, rng)
        grad = energy_gradient(forms)
        scale = 1.0 + float(np.abs(grad).max())
        for r, i, j in product(range(m), range(n), range(n)):
            if i > j:
                continue
            direction = np.zeros((m, n, n))
            direction[r, i, j] = direction[r, j, i] = 1.0
            fd = (commutator_energy(forms + h * direction)
                  - commutator_energy(forms - h * direction)) / (2.0 * h)
            analytic = float(np.sum(grad * direction))
            assert abs(analytic - fd) <= 1e-6 * scale, (n, m, r, i, j)
    print("[PASS] criterion 9: analytic commutator-energy gradient matches "
          "central differences within 1e-6 relative at 100 random points")
