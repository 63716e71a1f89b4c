"""Closed-form models: frozen invariants and exact relations.

Oracle values (exact arithmetic):

    veronese(c, H):        K = (c + H^2)/3,  S_I = (4/3)(c + H^2)
    product_of_spheres:    lam mu = -c,  S = n c,  tr = 0,  K_min = 0
    umbilical_sphere:      K = c + H^2,  S = n H^2,  S_I = 0
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from plane_search_reference import sectional
from rigidity.curvature import invariants, kmin_bracket, riemann
from rigidity.models import (
    MODEL_KINDS,
    ModelSpec,
    build_model,
    product_of_spheres,
    pseudo_umbilical_extend,
    totally_geodesic,
    umbilical_sphere,
    veronese,
)


class TestVeronese:
    def test_minimal_invariants(self):
        inv = invariants(veronese(1.0, 0.0))
        npt.assert_allclose(inv.S, 4.0 / 3.0, rtol=1e-15)
        assert inv.H == 0.0
        npt.assert_allclose(inv.R_scal, 2.0 / 3.0, rtol=1e-14)

    @pytest.mark.parametrize("c,H", [(1.0, 0.0), (1.0, 0.6), (2.0, 0.0),
                                     (0.0, 1.0), (-1.0, 1.5)])
    def test_constant_curvature_third(self, c, H):
        data = veronese(c, H)
        tensor = riemann(data)
        rng = np.random.default_rng(0)
        for k in range(10):
            plane = rng.normal(size=2), rng.normal(size=2)
            npt.assert_allclose(sectional(tensor, *plane), (c + H * H) / 3.0,
                                rtol=1e-12, atol=1e-14,
                                err_msg=f"K != (c+H^2)/3 for c={c}, H={H}, draw {k}")

    def test_mean_extension_shape(self):
        data = veronese(1.0, 0.6)
        assert (data.p, data.mean_index) == (3, 0)
        inv = invariants(data)
        npt.assert_allclose(inv.H, 0.6, rtol=1e-15)
        npt.assert_allclose(inv.S_I, (4.0 / 3.0) * (1.0 + 0.36), rtol=1e-14)
        npt.assert_allclose(inv.S_H, 2 * 0.36, rtol=1e-15)

    def test_rejects_nonpositive_pinch_scale(self):
        with pytest.raises(ValueError, match="c \\+ H\\^2 > 0"):
            veronese(-1.0, 0.5)

    # a NaN or infinite pinch scale is named as such, not as a NaN ambient c of the
    # minimal datum it extends, nor as an inf * 0 warning inside the forms
    @pytest.mark.parametrize("c,H", [(1.0, math.nan), (1.0, math.inf), (1.0, 1e200),
                                     (math.nan, 0.0), (math.inf, 0.0)])
    def test_rejects_non_finite_pinch_scale(self, c, H):
        with pytest.raises(ValueError, match=r"^need c \+ H\^2 > 0 and finite, got (nan|inf)$"):
            veronese(c, H)


class TestProductOfSpheres:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (5, 2), (6, 3)])
    def test_shape_operator_relations(self, n, k):
        data = product_of_spheres(n, k)
        form = data.forms[0]
        vals = np.linalg.eigvalsh(form)
        lam, mu = vals[-1], vals[0]
        npt.assert_allclose(lam * mu, -1.0, rtol=1e-14,
                            err_msg=f"lam*mu != -c for (n,k)=({n},{k})")
        npt.assert_allclose(np.trace(form), 0.0, atol=1e-12)
        npt.assert_allclose(invariants(data).S, float(n), rtol=1e-14)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_ambient_scaling(self, c):
        data = product_of_spheres(4, 1, c=c)
        npt.assert_allclose(invariants(data).S, 4 * c, rtol=1e-14)
        b = kmin_bracket(data, budget=8, seed=0)
        npt.assert_allclose([b.lo, b.hi], 0.0, atol=1e-12,
                            err_msg="mixed planes of the product must be flat")

    @pytest.mark.parametrize("n,k", [(2, 0), (2, 2), (1, 1)])
    def test_rejects_bad_split(self, n, k):
        with pytest.raises(ValueError):
            product_of_spheres(n, k)

    def test_rejects_nonpositive_ambient(self):
        with pytest.raises(ValueError):
            product_of_spheres(3, 1, c=0.0)


class TestUmbilicalAndGeodesic:
    def test_totally_geodesic_forms_vanish(self):
        data = totally_geodesic(3, 2, 1.0)
        npt.assert_array_equal(data.forms, np.zeros((2, 3, 3)))
        assert data.mean_index is None

    def test_umbilical_invariants(self):
        data = umbilical_sphere(3, 2, 1.0, 0.5)
        inv = invariants(data)
        npt.assert_allclose([inv.S, inv.S_H, inv.S_I, inv.H],
                            [0.75, 0.75, 0.0, 0.5], atol=1e-15)
        b = kmin_bracket(data, budget=8, seed=0)
        npt.assert_allclose([b.lo, b.hi], 1.25, rtol=1e-12)  # K = c + H^2

    @pytest.mark.parametrize("H", [0.0, -0.0])
    def test_zero_mean_leaves_the_frame_unaligned(self, H):
        # at H = 0 the sphere is totally geodesic, as veronese(c, 0) is minimal: no member
        # carries a mean curvature, so thm1 decides it, not thm2's nonzero-mean gate
        data = umbilical_sphere(3, 2, 1.0, H)
        assert data.mean_index is None and veronese(1.0, 0.0).mean_index is None
        assert data == totally_geodesic(3, 2, 1.0)
        assert umbilical_sphere(3, 2, 1.0, 0.5).mean_index == 0

    # an empty or negative size is refused with FundamentalData's own message, not an
    # IndexError at the mean member or numpy's "negative dimensions"
    @pytest.mark.parametrize("build", [
        lambda n, p: totally_geodesic(n, p, 1.0),
        lambda n, p: umbilical_sphere(n, p, 1.0, 0.5),
    ], ids=["totally-geodesic", "umbilical-sphere"])
    @pytest.mark.parametrize("n,p", [(3, 0), (3, -1), (-1, 2), (0, 2)])
    def test_rejects_sizes_below_one(self, build, n, p):
        with pytest.raises(ValueError, match=rf"^need n >= 1 and p >= 1, got n={n}, p={p}$"):
            build(n, p)

    # refused before H * I, whose RuntimeWarning the test configuration makes an error
    @pytest.mark.parametrize("H", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_mean_curvature(self, H):
        with pytest.raises(ValueError, match=rf"^mean curvature H must be finite, got H={H}$"):
            umbilical_sphere(3, 2, 1.0, H)

    def test_negative_mean_keeps_negative_zeros(self):
        # H * I, not a filled diagonal: the off-diagonal entries of a negative H are -0.0
        forms = umbilical_sphere(3, 2, 1.0, -0.5).forms
        assert np.all(np.signbit(forms[0][~np.eye(3, dtype=bool)]))


class TestPseudoUmbilicalExtend:
    def test_reproduces_veronese_mean_family(self):
        # exact: the minimal Veronese at pinch scale c + H^2, extended by H*I,
        # is the mean-curvature Veronese at ambient c
        for (c, H) in [(1.0, 0.5), (0.5, 1.0), (-0.5, 1.2), (0.0, 1.0), (1.0, 1e-8)]:
            extended = pseudo_umbilical_extend(veronese(c + H * H, 0.0), H, c)
            assert extended == veronese(c, H), f"extension mismatch at (c,H)=({c},{H})"

    def test_rejects_non_minimal_base(self):
        with pytest.raises(ValueError, match="traceless"):
            pseudo_umbilical_extend(umbilical_sphere(2, 1, 1.0, 0.5), 0.5, 1.0)

    def test_rejects_zero_mean(self):
        with pytest.raises(ValueError):
            pseudo_umbilical_extend(veronese(1.0, 0.0), 0.0, 1.0)

    @pytest.mark.parametrize("H", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_mean(self, H):
        with pytest.raises(ValueError, match=rf"^mean curvature H must be finite, got H={H}$"):
            pseudo_umbilical_extend(veronese(1.0, 0.0), H, 1.0)


class TestBuildModel:
    def test_dispatch_round_trip(self):
        assert build_model(ModelSpec(kind="veronese")) == veronese(1.0, 0.0)
        assert build_model(ModelSpec(kind="totally-geodesic", n=3, p=2)) == \
            totally_geodesic(3, 2, 1.0)
        assert build_model(ModelSpec(kind="product-of-spheres", n=4, k=2)) == \
            product_of_spheres(4, 2)
        assert build_model(ModelSpec(kind="umbilical-sphere", n=3, p=2, H=0.5)) == \
            umbilical_sphere(3, 2, 1.0, 0.5)

    def test_kind_catalogue(self):
        assert set(MODEL_KINDS) == {"totally-geodesic", "product-of-spheres",
                                    "veronese", "umbilical-sphere"}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            build_model(ModelSpec(kind="torus"))

    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="totally-geodesic", n=3),
        ModelSpec(kind="product-of-spheres", n=4),
        ModelSpec(kind="umbilical-sphere", p=2),
    ])
    def test_missing_parameters(self, spec):
        with pytest.raises(ValueError):
            build_model(spec)

    # a field the kind does not read would be dropped from the data without a word
    @pytest.mark.parametrize("spec, field", [
        (ModelSpec(kind="veronese", n=3), "n"),
        (ModelSpec(kind="veronese", n=3, p=7, k=2), "n, p, k"),
        (ModelSpec(kind="product-of-spheres", n=4, k=2, p=5), "p"),
        (ModelSpec(kind="product-of-spheres", n=4, k=2, H=0.5), "H"),
        (ModelSpec(kind="totally-geodesic", n=3, p=2, k=1), "k"),
        (ModelSpec(kind="totally-geodesic", n=3, p=2, H=0.5), "H"),
        (ModelSpec(kind="umbilical-sphere", n=3, p=2, k=1), "k"),
    ], ids=["veronese-n", "veronese-npk", "product-p", "product-H", "geodesic-k",
            "geodesic-H", "umbilical-k"])
    def test_unused_parameters(self, spec, field):
        with pytest.raises(ValueError, match=f"^{spec.kind} does not take {field}$"):
            build_model(spec)
