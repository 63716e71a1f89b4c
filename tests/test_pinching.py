"""Thresholds as exact rationals, and verdicts on frozen instances.

Every threshold function performs a single float division of small integers
(times an ambient factor), so its value is the correctly rounded double of the
underlying rational; the tests below pin this down with fractions.Fraction.

Verdict fixtures:

    veronese(1,0)     boundary at 1/3, label Veronese
    product(5,2)      boundary at 0 (codimension one), label ProductOfSpheres
    geodesic(3,2)     strict, label TotallyGeodesic
    2x veronese forms fails (K = -5/3 against 1/3)
    scaled seed-1     indeterminate at n = 5: bracket [0.3713, 0.3787] straddles 3/8
    scaled seed-0     strict at n = 4: the closed-form bracket is exact, K_min 0.3756
"""

from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_minimal, make_pseudo_umbilical, random_orthogonal, random_tuple
from rigidity import ddvv
from rigidity.curvature import FundamentalData, kmin_bracket
from rigidity.models import (
    product_of_spheres,
    totally_geodesic,
    umbilical_sphere,
    veronese,
)
from rigidity.pinching import (
    HypothesisError,
    k_mn,
    severity,
    sgn,
    threshold_generalized,
    threshold_itoh,
    threshold_thm1,
    threshold_thm2,
    threshold_yau,
    verdict,
)
from rigidity.simons import MINIMAL, PARALLEL_MEAN, laplacian_bound, optimal_parameter
from rigidity.symmat import rotate_tuple

# a mean-aligned frame whose mean member vanishes: the zero-mean gates' datum
ZERO_MEAN = FundamentalData(n=3, p=2, c=1.0, forms=np.zeros((2, 3, 3)), mean_index=0)

# the indeterminate fixture: a seed-1 traceless n = 5 tuple scaled so the p=3
# threshold 3/8 sits halfway between the curvature-operator bound lo = 0.3713
# and K_min = 0.3787 (the searched hi, stable to 1e-14 at budget 256 and
# 3000 steps), so the certified bracket straddles it
INDET = FundamentalData(
    n=5, p=3, c=1.0,
    forms=0.315848 * random_tuple(5, 3, np.random.default_rng(1), traceless=True),
)
# the former n = 4 indeterminate fixture: its operator bound 0.3744 straddled
# 3/8, and Thorpe's bound at n = 4 closes the bracket on K_min = 0.3756
FORMER_INDET_N4 = FundamentalData(
    n=4, p=3, c=1.0,
    forms=0.290180 * random_tuple(4, 3, np.random.default_rng(0), traceless=True),
)


class TestThresholdRationals:
    @pytest.mark.parametrize("p", range(1, 13))
    def test_thm1(self, p):
        assert threshold_thm1(p) == float(Fraction(sgn(p - 1) * p, 2 * (p + 1)))

    @pytest.mark.parametrize("p", range(1, 13))
    def test_yau(self, p):
        assert threshold_yau(p) == float(Fraction(p - 1, 2 * p - 1))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_itoh(self, n):
        assert threshold_itoh(n) == float(Fraction(n, 2 * (n + 1)))

    @pytest.mark.parametrize("p", range(1, 13))
    def test_thm2_unit_ambient(self, p):
        assert threshold_thm2(p, 1.0, 0.0) == float(Fraction(sgn(p - 2) * (p - 1), 2 * p))

    def test_thm2_ambient_factor(self):
        base = threshold_thm2(4, 1.0, 0.0)
        npt.assert_allclose(threshold_thm2(4, 1.0, 0.5), base * 1.25, rtol=1e-15)
        with pytest.raises(ValueError):
            threshold_thm2(4, -1.0, 0.5)

    @pytest.mark.parametrize("p", range(1, 13))
    def test_thresholds_are_simons_minimal_optimum(self, p):
        # written apart, they agree bit for bit; thm2 is the MINIMAL optimum at p - 1 (0 at
        # p = 2), which optimal_parameter defines from p - 1 = 1 on
        assert threshold_thm1(p).hex() == optimal_parameter(p, MINIMAL)[1].hex()
        for c, H in [(1.0, 0.0), (0.3, 0.7), (2.5, 1.1), (-0.2, 0.9)]:
            expected = optimal_parameter(p - 1, MINIMAL)[1] * (c + H * H) if p > 1 else 0.0
            assert threshold_thm2(p, c, H).hex() == expected.hex()

    def test_ordering_thm1_below_yau(self):
        # cross-multiplied: p(2p-1) < 2(p-1)(p+1) iff p > 2, exactly
        for p in range(3, 30):
            assert Fraction(p, 2 * (p + 1)) < Fraction(p - 1, 2 * p - 1)
            assert threshold_thm1(p) < threshold_yau(p)
        assert threshold_thm1(2) == threshold_yau(2) == float(Fraction(1, 3))
        assert threshold_thm1(1) == threshold_yau(1) == 0.0

    @pytest.mark.parametrize("m,n,expected", [
        (0, 3, 0), (1, 3, 0), (2, 3, 2), (3, 3, 3), (5, 3, 3), (4, 6, 4),
    ])
    def test_k_mn(self, m, n, expected):
        assert k_mn(m, n) == expected

    def test_generalized(self):
        assert threshold_generalized(1, 4, 1.0, 0.0) == 0.0          # k(1, n) = 0
        assert threshold_generalized(3, 2, 1.0, 0.0) == float(Fraction(2, 6))
        assert threshold_generalized(5, 3, 1.0, 0.0) == float(Fraction(3, 8))
        # mean branch uses p - 1 and the c + H^2 ambient
        npt.assert_allclose(threshold_generalized(3, 4, 0.0, 1.0),
                            float(Fraction(2, 6)), rtol=1e-15)
        assert threshold_generalized(2, 4, 0.0, 1.0) == 0.0          # k(1, n) = 0
        # k (c + H^2) / (2(k+1)) rounds once; thm1's k / (2(k+1)) times c + H^2 rounds twice
        # and lands one ulp lower here, at a mean-aligned n = 3, p = 3 point with H = 0.5.
        assert threshold_generalized(3, 3, 1.0, 0.5).hex() == "0x1.aaaaaaaaaaaabp-2"
        assert (threshold_thm1(2) * 1.25).hex() == "0x1.aaaaaaaaaaaaap-2"

    @pytest.mark.parametrize("call", [
        lambda: threshold_thm1(0),
        lambda: threshold_yau(0),
        lambda: threshold_itoh(1),
        lambda: threshold_thm2(0, 1.0, 0.0),
        lambda: threshold_generalized(2, 2, -1.0, 0.5),
        lambda: k_mn(-1, 3),
    ])
    def test_domain_errors(self, call):
        with pytest.raises(ValueError):
            call()


# --- verdicts -------------------------------------------------------------------

class TestVerdictFixtures:
    def test_veronese_boundary(self):
        v = verdict(veronese(1.0, 0.0), "thm1")
        assert v.status == "boundary"
        assert v.label == "Veronese"
        assert v.threshold == float(Fraction(1, 3))
        assert "ddvv-equality" in v.notes and "minimal" in v.notes

    def test_ddvv_equality_note_and_detect_equality_share_one_gate(self, monkeypatch):
        data = veronese(1.0, 0.0)
        monkeypatch.setattr(ddvv, "NEAR_EQUALITY", -1.0)   # a gate of ratio >= 2: never met
        v = verdict(data, "thm1")
        assert "ddvv-equality" not in v.notes and v.label == "Undetermined"
        assert ddvv.detect_equality(data.forms) is None

    def test_totally_geodesic_strict(self):
        v = verdict(totally_geodesic(3, 2, 1.0), "thm1")
        assert (v.status, v.label) == ("strict", "TotallyGeodesic")

    def test_product_of_spheres_boundary(self):
        for (n, k) in [(3, 1), (5, 2)]:
            v = verdict(product_of_spheres(n, k), "thm1")
            assert v.status == "boundary", f"(n,k)=({n},{k})"
            assert v.label == "ProductOfSpheres", f"(n,k)=({n},{k})"
            assert v.threshold == 0.0  # p = 1 degenerates thm1

    def test_three_principal_curvatures_are_not_a_product(self):
        # the outer pair has lam * mu = -1, so K_min = 0 sits on the p = 1 threshold, but
        # the middle curvature belongs to neither block of a product of spheres
        lam = 1.2
        forms = [np.diag([lam, -(lam - 1.0 / lam), -1.0 / lam])]
        v = verdict(FundamentalData(n=3, p=1, c=1.0, forms=forms), "thm1")
        assert (v.status, v.label) == ("boundary", "Undetermined")

    def test_fails_on_scaled_veronese(self):
        data = FundamentalData(n=2, p=2, c=1.0, forms=2.0 * veronese(1.0, 0.0).forms)
        v = verdict(data, "thm1")
        assert v.status == "fails"
        assert v.kmin_bracket.hi < v.threshold
        npt.assert_allclose([v.kmin_bracket.lo, v.kmin_bracket.hi], -5.0 / 3.0,
                            rtol=1e-10)

    def test_indeterminate_straddle(self):
        v = verdict(INDET, "thm1", bracket=kmin_bracket(INDET, budget=16, seed=0))
        assert v.status == "indeterminate"
        assert v.kmin_bracket.lo < v.threshold < v.kmin_bracket.hi
        assert v.threshold == 0.375

    def test_former_n4_straddle_is_decided(self):
        v = verdict(FORMER_INDET_N4, "thm1",
                    bracket=kmin_bracket(FORMER_INDET_N4, budget=16, seed=0))
        assert v.status == "strict"
        b = v.kmin_bracket
        assert v.threshold == 0.375 < b.lo <= b.hi
        assert b.hi - b.lo <= 1e-12 * max(1.0, abs(b.hi))

    def test_umbilical_under_thm2(self):
        v = verdict(umbilical_sphere(3, 2, 1.0, 0.5), "thm2")
        assert (v.status, v.label) == ("strict", "UmbilicalSphere")
        assert "pseudo-umbilical" in v.notes and "mean-commuting" in v.notes

    @pytest.mark.parametrize("forms,commuting", [
        ([np.diag([2.0, 1.0]), np.diag([1.0, -1.0])], True),
        ([np.diag([2.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])], False),
        ([0.5 * np.eye(2)], True),  # the mean member alone: an empty restriction
    ], ids=["diagonal", "off-diagonal", "mean-only"])
    def test_mean_commuting_note(self, forms, commuting):
        data = FundamentalData(n=2, p=len(forms), c=1.0, forms=forms, mean_index=0)
        assert ("mean-commuting" in verdict(data, "thm2").notes) == commuting

    def test_mean_veronese_under_thm2(self):
        v = verdict(veronese(1.0, 0.6), "thm2")
        assert (v.status, v.label) == ("boundary", "Veronese")
        npt.assert_allclose(v.threshold, (2.0 / 6.0) * 1.36, rtol=1e-13)
        assert any("Veronese value" in note for note in v.notes)

    def test_generalized_branches(self):
        v_min = verdict(veronese(1.0, 0.0), "generalized")
        assert (v_min.status, v_min.label) == ("boundary", "Veronese")
        v_mean = verdict(umbilical_sphere(3, 2, 1.0, 0.5), "generalized")
        assert (v_mean.status, v_mean.label) == ("strict", "UmbilicalSphere")
        assert v_mean.threshold == 0.0


class TestPrecomputedBracket:
    @pytest.mark.parametrize("which,data", [
        ("thm1", make_minimal(4, 2, 1.0, np.random.default_rng(60))),
        ("itoh", make_minimal(3, 3, 1.0, np.random.default_rng(61))),
        ("thm2", make_pseudo_umbilical(4, 3, 1.0, 0.8, np.random.default_rng(62))),
        ("generalized", make_pseudo_umbilical(3, 2, 1.0, 0.5, np.random.default_rng(63))),
        ("generalized", make_minimal(4, 3, 1.0, np.random.default_rng(64))),
    ], ids=["thm1", "itoh", "thm2", "generalized-mean", "generalized-minimal"])
    def test_given_bracket_matches_search(self, which, data):
        given = verdict(data, which, bracket=kmin_bracket(data))
        assert given == verdict(data, which)


class TestHypotheses:
    def test_minimal_required(self):
        with pytest.raises(HypothesisError, match="minimal"):
            verdict(umbilical_sphere(3, 2, 1.0, 0.5), "thm1")

    def test_unit_sphere_required(self):
        with pytest.raises(HypothesisError, match="unit sphere"):
            verdict(veronese(2.0, 0.0), "yau")

    def test_thm2_needs_mean_frame(self):
        with pytest.raises(HypothesisError, match="mean-aligned"):
            verdict(veronese(1.0, 0.0), "thm2")

    def test_thm2_needs_nonzero_mean(self):
        with pytest.raises(HypothesisError, match="nonzero"):
            verdict(ZERO_MEAN, "thm2")

    def test_generalized_minimal_branch_gate(self):
        # general data without any frame convention is rejected
        forms = random_tuple(3, 2, seed=50)
        with pytest.raises(HypothesisError):
            verdict(FundamentalData(n=3, p=2, c=1.0, forms=forms), "generalized")

    def test_unknown_theorem(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            verdict(veronese(1.0, 0.0), "thm3")


class TestHypothesisMessages:
    """Every gate of verdict(), theorem by theorem and branch by branch, with
    the exact text `check` writes into an {"input", "error"} record."""

    @pytest.mark.parametrize("which,data,message", [
        *[(w, umbilical_sphere(3, 2, 1.0, 0.5),
           f"{w} requires minimal data: some tr(H_a) is nonzero beyond tolerance")
          for w in ("yau", "itoh", "thm1")],
        *[(w, veronese(2.0, 0.0), f"{w} is stated in a unit sphere, got c = 2.0")
          for w in ("yau", "itoh", "thm1")],
        ("thm2", veronese(1.0, 0.0), "thm2 requires a mean-aligned frame (mean_index set)"),
        ("thm2", ZERO_MEAN,
         "thm2 requires nonzero parallel mean curvature, got H ~ 0"),
        ("generalized", FundamentalData(n=3, p=2, c=1.0, forms=random_tuple(3, 2, seed=50)),
         "generalized (minimal branch) requires traceless data or a mean-aligned frame"),
        ("generalized", ZERO_MEAN,
         "generalized (mean branch) requires nonzero mean curvature"),
    ], ids=[f"{w}-{gate}" for gate in ("minimal", "unit-sphere") for w in ("yau", "itoh", "thm1")]
        + ["thm2-frame", "thm2-zero-mean", "generalized-minimal", "generalized-zero-mean"])
    def test_exact_message(self, which, data, message):
        with pytest.raises(HypothesisError) as exc:
            verdict(data, which)
        assert str(exc.value) == message

    @pytest.mark.parametrize("which,data,message", [
        ("thm2", umbilical_sphere(3, 2, -1.0, 0.5), "need c + H^2 > 0, got -0.75"),
        ("generalized", umbilical_sphere(3, 2, -1.0, 0.5), "need c + H^2 > 0, got -0.75"),
        ("generalized", totally_geodesic(3, 2, -1.0), "need c + H^2 > 0, got -1.0"),
    ], ids=["thm2", "generalized-mean", "generalized-minimal"])
    def test_threshold_domain_is_a_plain_value_error(self, which, data, message):
        with pytest.raises(ValueError) as exc:
            verdict(data, which)
        assert type(exc.value) is ValueError and str(exc.value) == message

    def test_generalized_has_no_unit_sphere_gate(self):
        v = verdict(veronese(2.0, 0.0), "generalized")
        assert v.threshold == threshold_generalized(2, 2, 2.0, 0.0) == float(Fraction(2, 3))
        assert (v.status, v.label) == ("boundary", "Veronese")

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0, -1e-300])
    def test_rejects_tol_that_is_not_finite_and_nonnegative(self, tol):
        with pytest.raises(ValueError) as exc:
            verdict(veronese(1.0, 0.0), "thm1", tol=tol)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"tol must be a finite number >= 0, got {tol}"

    def test_zero_tol_is_accepted(self):
        assert verdict(veronese(1.0, 0.0), "thm1", tol=0.0).threshold == float(Fraction(1, 3))


class TestSingleNormalMeanCase:
    def test_empty_restriction_gets_a_verdict_but_no_laplacian_bound(self):
        # p = 1 in a mean-aligned frame: no non-mean direction is left, which
        # verdict() accepts and the parametric bound of simons does not
        data = umbilical_sphere(3, 1, 1.0, 0.5)
        for which in ("thm2", "generalized"):
            v = verdict(data, which)
            assert (v.status, v.label, v.threshold) == ("strict", "UmbilicalSphere", 0.0)
        with pytest.raises(ValueError) as exc:
            laplacian_bound(data, 0.5, 0.0, PARALLEL_MEAN)
        assert str(exc.value) == "parallel-mean case needs at least one non-mean direction"


class TestFrameInvariance:
    def test_minimal_verdict_invariant_under_normal_rotation(self):
        rng = np.random.default_rng(51)
        data = make_minimal(4, 3, 1.0, rng, scale=0.4)
        base = verdict(data, "thm1", bracket=kmin_bracket(data, budget=16, seed=0))
        for k in range(5):
            q = random_orthogonal(3, rng)
            rotated = FundamentalData(n=4, p=3, c=1.0,
                                      forms=rotate_tuple(data.forms, q))
            v = verdict(rotated, "thm1", bracket=kmin_bracket(rotated, budget=16, seed=0))
            assert (v.status, v.label, v.threshold) == \
                (base.status, base.label, base.threshold), f"draw {k}"
            npt.assert_allclose([v.kmin_bracket.lo, v.kmin_bracket.hi],
                                [base.kmin_bracket.lo, base.kmin_bracket.hi],
                                atol=1e-9, err_msg=f"bracket moved at draw {k}")

    def test_mean_verdict_invariant_under_non_mean_rotation(self):
        rng = np.random.default_rng(52)
        rest = random_tuple(3, 2, rng, scale=0.4, traceless=True)
        forms = np.concatenate([0.7 * np.eye(3)[None], rest])
        data = FundamentalData(n=3, p=3, c=1.0, forms=forms, mean_index=0)
        base = verdict(data, "thm2", bracket=kmin_bracket(data, budget=16, seed=0))
        for k in range(5):
            block = np.eye(3)
            block[1:, 1:] = random_orthogonal(2, rng)
            rotated = FundamentalData(n=3, p=3, c=1.0,
                                      forms=rotate_tuple(forms, block), mean_index=0)
            v = verdict(rotated, "thm2", bracket=kmin_bracket(rotated, budget=16, seed=0))
            assert (v.status, v.label) == (base.status, base.label), f"draw {k}"


class TestSeverity:
    @pytest.mark.parametrize("status,code", [("strict", 0), ("boundary", 0),
                                             ("fails", 1), ("indeterminate", 2)])
    def test_mapping(self, status, code):
        assert severity(status) == code

    def test_unknown_status(self):
        with pytest.raises(KeyError):
            severity("maybe")
