"""Curvature-tensor identities and frame normalizations.

Checked here, per random instance and per closed-form model:

    * antisymmetry R_ijkl = -R_jikl = -R_ijlk and pair symmetry R_ijkl = R_klij
    * first Bianchi R_ijkl + R_iklj + R_iljk = 0
    * normal curvature == stack of commutators [H_a, H_b]
    * scalar identity R = n(n-1)c + n^2 H^2 - S
    * the K_min bracket invariant lo <= hi, with collapse on constant curvature
    * mean-frame alignment and Gram diagonalization preserve every invariant
"""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from commutator_reference import commutators
from conftest import (
    make_general,
    make_minimal,
    make_pseudo_umbilical,
    random_orthogonal,
    random_tuple,
)
from plane_search_reference import sectional
from rigidity.curvature import (
    FundamentalData,
    align_mean_frame,
    curvature_operator,
    invariants,
    kmin_bracket,
    normal_curvature,
    riemann,
)
from rigidity.immersion import builtin, sample_grid
from rigidity.models import totally_geodesic, umbilical_sphere, veronese
from rigidity.symmat import gram_frame, rotate_tuple

# --- fixtures: one representative datum per frame convention -------------------

POINTS = [
    ("minimal", make_minimal(4, 3, 1.0, np.random.default_rng(0))),
    ("general", make_general(3, 2, -1.0, np.random.default_rng(1))),
    ("pseudo-umbilical", make_pseudo_umbilical(3, 3, 0.0, 0.8, np.random.default_rng(2))),
    ("veronese", veronese(1.0, 0.0)),
    ("flat-ambient", make_general(5, 4, 0.0, np.random.default_rng(3), scale=1.3)),
]
IDS = [label for label, _ in POINTS]


class TestDataValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            FundamentalData(n=2, p=2, c=1.0, forms=np.zeros((2, 3, 3)))

    def test_mean_index_range(self):
        with pytest.raises(ValueError, match="out of range"):
            FundamentalData(n=2, p=1, c=1.0, forms=np.zeros((1, 2, 2)), mean_index=3)

    def test_mean_frame_requires_traceless_others(self):
        forms = np.stack([np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match="nonzero trace"):
            FundamentalData(n=2, p=2, c=1.0, forms=forms, mean_index=0)

    def test_equality_and_replace(self):
        d = veronese(1.0, 0.0)
        assert d == replace(d)
        assert d != replace(d, c=2.0)
        assert d.non_mean_indices() == (0, 1)
        assert veronese(1.0, 0.5).non_mean_indices() == (1, 2)

    # finite entries whose S^2 (the DDVV budget) or n(n-1)c overflows
    @pytest.mark.parametrize("n,c,entry,message", [
        (2, 1.0, 1e200, r"S\^2 overflows"),
        (3, 1.0, 1e154, r"S\^2 overflows"),
        (2, 1.0, 1e308, r"S\^2 overflows \(max \|h_ij\| = 1\.000e\+308\)"),
        (3, 1e308, 0.0, r"n\(n-1\)c overflows"),
        (2, -1e308, 0.0, r"n\(n-1\)c overflows"),
    ], ids=["S-1e200", "S-1e154", "S-1e308", "c-1e308", "c-neg"])
    def test_overflowing_data_is_rejected(self, n, c, entry, message):
        forms = np.full((2, n, n), entry)
        with pytest.raises(ValueError, match=message):
            FundamentalData(n=n, p=2, c=c, forms=forms)
        stack = np.stack([np.zeros((2, n, n)), forms])
        with pytest.raises(ValueError, match=message):
            FundamentalData.stack(n, 2, c, stack)

    def test_near_limit_data_is_accepted(self):
        # S = 18e152, S^2 = 3.2e306; n(n-1)c = 6e307
        data = FundamentalData(n=3, p=2, c=1e307, forms=np.full((2, 3, 3), 1e76))
        assert np.isfinite(np.einsum("aij,aij->", data.forms, data.forms) ** 2)


class TestRiemannSymmetries:
    @pytest.mark.parametrize("label,data", POINTS, ids=IDS)
    def test_antisymmetry_first_pair(self, label, data):
        r = riemann(data).components
        scale = max(1.0, float(np.max(np.abs(r))))
        npt.assert_allclose(r + np.swapaxes(r, 0, 1), 0.0, atol=1e-12 * scale,
                            err_msg=f"R_ijkl + R_jikl != 0 for {label}")

    @pytest.mark.parametrize("label,data", POINTS, ids=IDS)
    def test_antisymmetry_second_pair(self, label, data):
        r = riemann(data).components
        scale = max(1.0, float(np.max(np.abs(r))))
        npt.assert_allclose(r + np.swapaxes(r, 2, 3), 0.0, atol=1e-12 * scale,
                            err_msg=f"R_ijkl + R_ijlk != 0 for {label}")

    @pytest.mark.parametrize("label,data", POINTS, ids=IDS)
    def test_pair_symmetry(self, label, data):
        r = riemann(data).components
        scale = max(1.0, float(np.max(np.abs(r))))
        npt.assert_allclose(r - np.transpose(r, (2, 3, 0, 1)), 0.0, atol=1e-12 * scale,
                            err_msg=f"R_ijkl != R_klij for {label}")

    @pytest.mark.parametrize("label,data", POINTS, ids=IDS)
    def test_first_bianchi(self, label, data):
        r = riemann(data).components
        cyc = r + np.transpose(r, (0, 2, 3, 1)) + np.transpose(r, (0, 3, 1, 2))
        scale = max(1.0, float(np.max(np.abs(r))))
        npt.assert_allclose(cyc, 0.0, atol=1e-12 * scale,
                            err_msg=f"first Bianchi identity failed for {label}")

    def test_totally_geodesic_is_constant_curvature(self):
        data = totally_geodesic(4, 2, c=-0.7)
        r = riemann(data).components
        eye = np.eye(4)
        expected = -0.7 * (np.einsum("ik,jl->ijkl", eye, eye)
                           - np.einsum("il,jk->ijkl", eye, eye))
        npt.assert_allclose(r, expected, atol=0.0)


class TestNormalCurvature:
    @pytest.mark.parametrize("label,data", POINTS, ids=IDS)
    def test_equals_commutator_stack(self, label, data):
        nc = normal_curvature(data)
        assert nc.shape == (data.p, data.p, data.n, data.n)
        npt.assert_allclose(nc, commutators(data.forms), atol=1e-13,
                            err_msg=f"R_ab != [H_a, H_b] for {label}")

    def test_vanishes_for_commuting_forms(self):
        forms = np.stack([np.diag([1.0, 2.0, 3.0]), np.diag([-1.0, 0.5, 0.5])])
        data = FundamentalData(n=3, p=2, c=1.0, forms=forms)
        npt.assert_allclose(normal_curvature(data), 0.0, atol=0.0)


class TestSectional:
    def test_constant_curvature_any_plane(self):
        data = totally_geodesic(5, 3, c=2.5)
        tensor = riemann(data)
        rng = np.random.default_rng(4)
        for k in range(30):
            plane = rng.normal(size=5), rng.normal(size=5)
            npt.assert_allclose(sectional(tensor, *plane), 2.5, rtol=1e-12,
                                err_msg=f"K != c on plane draw {k}")

    def test_veronese_is_one_third(self):
        tensor = riemann(veronese(1.0, 0.0))
        rng = np.random.default_rng(5)
        for k in range(30):
            plane = rng.normal(size=2), rng.normal(size=2)
            npt.assert_allclose(sectional(tensor, *plane), 1.0 / 3.0, atol=1e-13,
                                err_msg=f"Veronese K != 1/3 on plane draw {k}")

    def test_invariant_under_plane_reparametrization(self):
        data = make_general(4, 2, 1.0, np.random.default_rng(6))
        tensor = riemann(data)
        rng = np.random.default_rng(7)
        for k in range(20):
            u, v = rng.normal(size=4), rng.normal(size=4)
            k1 = sectional(tensor, u, v)
            # same span, different basis
            k2 = sectional(tensor, 2.0 * u - v, 0.5 * v + u)
            npt.assert_allclose(k1, k2, rtol=1e-9,
                                err_msg=f"K depends on the plane basis at draw {k}")


class TestInvariants:
    def test_scalar_identity_random(self):
        rng = np.random.default_rng(9)
        for k in range(200):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, 6))
            c = float(rng.choice([-1.0, 0.0, 1.0]))
            data = make_general(n, p, c, rng)
            inv = invariants(data)
            direct = float(np.einsum("ijij->", riemann(data).components))
            npt.assert_allclose(inv.R_scal, direct, rtol=1e-10, atol=1e-10,
                                err_msg=f"scalar identity failed at draw {k} (n={n}, p={p})")
            npt.assert_allclose(inv.R_scal, n * (n - 1) * c + n**2 * inv.H**2 - inv.S,
                                rtol=1e-12, atol=1e-12)

    def test_umbilical_split(self):
        inv = invariants(umbilical_sphere(3, 2, 1.0, 0.5))
        assert inv.S_H == pytest.approx(3 * 0.25)
        assert inv.S_I == pytest.approx(0.0, abs=1e-15)
        assert inv.H == pytest.approx(0.5)

    def test_split_requires_mean_frame(self):
        inv = invariants(make_minimal(3, 2, 1.0, np.random.default_rng(10)))
        assert inv.S_H is None and inv.S_I is None


class TestStoredInvariants:
    """A record's invariants and traces come from its validation, with the same bits
    however the record was built: alone, as a member of a stack, or from skewed input."""

    @staticmethod
    def _bits(data):
        inv = data.invariants
        scalars = [None if v is None else float(v).hex()
                   for v in (inv.S, inv.H, inv.S_H, inv.S_I, inv.R_scal)]
        return scalars, data.traces.tobytes()

    def _alone(self, data):
        return self._bits(FundamentalData(n=data.n, p=data.p, c=data.c, forms=data.forms,
                                          mean_index=data.mean_index))

    def test_invariants_returns_the_stored_record(self):
        data = veronese(1.0, 0.6)
        assert invariants(data) is data.invariants
        assert data.traces.shape == (data.p,)

    def test_veronese_grid_members(self):
        samples = sample_grid(builtin("veronese"), 12)
        assert len(samples) == 144
        for k, sample in enumerate(samples):
            assert self._bits(sample.data) == self._alone(sample.data), f"member {k}"

    def test_interleaved_mean_aligned_stack(self):
        rng = np.random.default_rng(21)
        records = [make_pseudo_umbilical(3, 3, 1.0, 0.4, rng),
                   align_mean_frame(make_general(3, 3, 1.0, rng)),
                   make_pseudo_umbilical(3, 3, 1.0, 1.7, rng)]
        order = [0, 1, 0, 2, 1, 2, 0]
        stacked = FundamentalData.stack(3, 3, 1.0, np.stack([records[i].forms for i in order]),
                                        mean_index=0)
        for i, data in zip(order, stacked):
            assert data.invariants.S_I is not None
            assert self._bits(data) == self._bits(records[i]) == self._alone(data)

    def test_skewed_input_gives_the_symmetrized_values(self):
        rng = np.random.default_rng(22)
        forms = random_tuple(4, 3, rng)
        skew = rng.uniform(-1e-10, 1e-10, size=forms.shape)  # |a_ij - a_ji| < 4e-10 < 1e-9
        raw = forms + skew - np.swapaxes(skew, 1, 2)
        data = FundamentalData(n=4, p=3, c=1.0, forms=raw)
        assert not np.array_equal(data.forms, raw)
        assert np.array_equal(data.forms, np.swapaxes(data.forms, 1, 2))
        assert self._bits(data) == self._alone(data)
        member = FundamentalData.stack(4, 3, 1.0, np.stack([forms, raw, forms]))[1]
        assert self._bits(member) == self._bits(data)
        npt.assert_array_equal(data.invariants.S, np.einsum("aij,aij->", data.forms, data.forms))
        npt.assert_array_equal(data.traces, np.einsum("aii->a", data.forms))


# --- K_min bracketing ----------------------------------------------------------

class TestKminBracket:
    @pytest.mark.parametrize("label,data", POINTS, ids=IDS)
    def test_bracket_invariant(self, label, data):
        b = kmin_bracket(data, budget=16, seed=0)
        assert b.lo <= b.hi, f"bracket inverted for {label}"

    def test_lower_bound_is_operator_eigenvalue(self):
        # Thorpe's bound at n = 4 can only raise lo above the operator bound
        for n in (3, 4, 5, 6):
            data = make_minimal(n, 2, 1.0, np.random.default_rng(11))
            tensor = riemann(data)
            b = kmin_bracket(data, budget=8, seed=0)
            eig = float(np.linalg.eigvalsh(curvature_operator(tensor))[0])
            assert b.lo >= eig if n == 4 else b.lo == eig

    def test_hi_is_attained_by_some_plane(self):
        # hi must dominate the eigenvalue bound but sit below coordinate-plane values
        data = make_general(4, 3, 1.0, np.random.default_rng(12))
        tensor = riemann(data)
        b = kmin_bracket(data, budget=32, seed=0)
        coord = min(sectional(tensor, np.eye(4)[i], np.eye(4)[j])
                    for i in range(4) for j in range(i + 1, 4))
        assert b.lo <= b.hi <= coord + 1e-12

    @pytest.mark.parametrize("data", [
        totally_geodesic(3, 2, 1.0),
        totally_geodesic(4, 1, -2.0),
        umbilical_sphere(3, 2, 1.0, 0.5),
        umbilical_sphere(5, 3, -0.25, 1.0),
        veronese(1.0, 0.0),
        veronese(2.0, 0.3),
    ], ids=["tg-3", "tg-4", "umb-3", "umb-5", "ver-min", "ver-mean"])
    def test_collapses_on_constant_curvature(self, data):
        b = kmin_bracket(data, budget=16, seed=0)
        assert b.hi - b.lo <= 1e-8, f"bracket did not collapse: [{b.lo}, {b.hi}]"

    def test_veronese_value(self):
        b = kmin_bracket(veronese(1.0, 0.0), budget=16, seed=0)
        npt.assert_allclose([b.lo, b.hi], 1.0 / 3.0, rtol=1e-12)

    def test_requires_two_dimensions(self):
        with pytest.raises(ValueError):
            kmin_bracket(FundamentalData(n=1, p=1, c=1.0, forms=np.ones((1, 1, 1))))


# --- frame normalizations -------------------------------------------------------

class TestAlignMeanFrame:
    def test_frozen_example(self):
        forms = np.stack([np.eye(3), np.diag([2.0, 1.0, 1.0])])  # traces (3, 4)
        data = FundamentalData(n=3, p=2, c=1.0, forms=forms)
        out = align_mean_frame(data)
        assert out.mean_index == 0
        npt.assert_allclose(out.traces[0], 5.0, rtol=1e-14)  # ||(3, 4)||
        npt.assert_allclose(out.traces[1:], 0.0, atol=1e-12)

    def test_preserves_curvature_and_invariants(self):
        rng = np.random.default_rng(13)
        for k in range(20):
            data = make_general(int(rng.integers(2, 6)), int(rng.integers(1, 5)),
                                1.0, rng)
            out = align_mean_frame(data)
            i0, i1 = invariants(data), invariants(out)
            npt.assert_allclose(i1.S, i0.S, rtol=1e-12, err_msg=f"S changed at draw {k}")
            npt.assert_allclose(i1.H, i0.H, rtol=1e-12, err_msg=f"H changed at draw {k}")
            npt.assert_allclose(riemann(out).components, riemann(data).components,
                                atol=1e-12 * max(1.0, i0.S),
                                err_msg=f"curvature changed at draw {k}")

    # the Householder q maps tau = traces/|traces| to e_0, so its row 0 is tau and member 0
    # gets trace |traces| > 0 with no sign correction, tau near e_0 and near -e_0 included
    @pytest.mark.parametrize("eps", [0.0, 1e-15, 1e-8, 1e-3])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_mean_member_trace_is_positive(self, sign, eps):
        tau = np.array([sign, eps, -eps]) / np.sqrt(1.0 + 2.0 * eps**2)
        forms = (random_tuple(3, 3, np.random.default_rng(19), scale=0.6, traceless=True)
                 + (2.0 * tau / 3.0)[:, None, None] * np.eye(3))
        data = FundamentalData(n=3, p=3, c=1.0, forms=forms)
        out = align_mean_frame(data)
        assert out.traces[0] > 0
        npt.assert_allclose(out.traces[0], np.linalg.norm(data.traces), rtol=1e-12)
        npt.assert_allclose(out.traces[1:], 0.0, atol=1e-12)

    def test_idempotent_and_minimal_passthrough(self):
        aligned = align_mean_frame(make_general(3, 2, 1.0, np.random.default_rng(14)))
        assert align_mean_frame(aligned) is aligned
        minimal = make_minimal(3, 2, 1.0, np.random.default_rng(15))
        assert align_mean_frame(minimal) is minimal


class TestGramDiagonalize:
    """The Gram diagonalization of the DDVV equality recovery: rotate_tuple by the
    normal rotation of symmat.gram_frame."""

    def test_gram_is_diagonal_descending(self):
        data = align_mean_frame(make_general(4, 4, 1.0, np.random.default_rng(16)))
        sub = data.forms[list(data.non_mean_indices())]
        sub = rotate_tuple(sub, gram_frame(sub)[1])
        gram = np.einsum("aij,bij->ab", sub, sub)
        npt.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-10)
        d = np.diag(gram)
        assert np.all(d[:-1] >= d[1:] - 1e-12)

    def test_preserves_curvature(self):
        data = make_minimal(4, 3, -1.0, np.random.default_rng(18))
        out = replace(data, forms=rotate_tuple(data.forms, gram_frame(data.forms)[1]))
        npt.assert_allclose(riemann(out).components, riemann(data).components,
                            atol=1e-12)

    def test_frozen_two_member_case(self):
        forms = np.stack([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
        out = rotate_tuple(forms, gram_frame(forms)[1])
        gram = np.einsum("aij,bij->ab", out, out)
        npt.assert_allclose(gram, np.diag([2.0, 0.0]), atol=1e-14)


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
def test_non_finite_ambient_curvature_is_rejected(c):
    with pytest.raises(ValueError, match="ambient curvature c must be finite"):
        FundamentalData(n=2, p=1, c=c, forms=np.zeros((1, 2, 2)))
