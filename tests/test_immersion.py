"""Extraction of fundamental data from explicit immersions.

Known values used as oracles:

    quadric graph z = (x^2 - y^2)/2 at 0:  form = diag(1, -1), K = -1, S = 2
    flat torus in S^3:                      |form| = diag(1, -1) frame, K = 0, S = 2
    quadratic sphere embedding in S^4:      K = 1/3, S = 4/3 (constant)

The second jets are exact (Taylor arithmetic), so these hold to round-off.
A map that rejects Taylor numbers falls back to central differences at
DEFAULT_STEP along the same directions e_i and e_i + e_j, 1 + n(n+1) map
calls per point, which must give the bits of the per-point stencil in
`immersion_reference`; that stencil is second order, so halving its step must
shrink the curvature error by almost exactly 4.  The batched kernel must give
every point the bits it gives that point alone.
"""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

import immersion_reference as ref
from plane_search_reference import sectional
from rigidity import immersion, symmat
from rigidity.curvature import invariants, riemann
from rigidity.immersion import (
    BUILTINS,
    DEFAULT_STEP,
    Ambient,
    ImmersionSpec,
    builtin,
    differentiate,
    frames,
    grid_points,
    sample_grid,
    second_fundamental_form,
)
from rigidity.symmat import symmetrize

SADDLE = builtin("graph")
TORUS = builtin("clifford")
SPHERE_QUAD = builtin("veronese")


def curvature_at(sample):
    tensor = riemann(sample.data)
    return sectional(tensor, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


class TestDifferentiate:
    def test_exact_on_quadratics(self):
        # the builtin saddle runs on exact Taylor jets: F, J and H to round-off
        u = np.array([0.3, -0.4])
        jac, hess = differentiate(SADDLE, u)
        npt.assert_allclose(jac, np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.4]]),
                            atol=1e-10)
        npt.assert_allclose(hess[2], np.array([[1.0, 0.0], [0.0, -1.0]]), atol=1e-6)
        npt.assert_allclose(hess[:2], 0.0, atol=1e-6)

    def test_hessian_is_symmetric(self):
        _, hess = differentiate(SPHERE_QUAD, np.array([0.9, 2.0]))
        npt.assert_allclose(hess, np.transpose(hess, (0, 2, 1)), atol=0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            differentiate(SADDLE, np.array([0.0, 0.0, 0.0]))

    def test_second_order_convergence(self):
        # Richardson: error(h) / error(h/2) ~ 4 for an O(h^2) scheme; the
        # reference stencil is the fallback's bit-for-bit oracle (TestBatchedKernel)
        u = np.array([1.1, 0.7])
        errs = []
        for step in (2e-3, 1e-3, 5e-4):
            sample = ref.second_fundamental_form(SPHERE_QUAD, u, step)
            errs.append(abs(curvature_at(sample) - 1.0 / 3.0))
        for a, b in zip(errs, errs[1:]):
            assert 3.2 < a / b < 4.8, f"error ratios {errs} not O(h^2)"


class TestFrames:
    @pytest.mark.parametrize("spec,u", [
        (SADDLE, np.array([0.2, 0.5])),
        (TORUS, np.array([0.7, 1.9])),
        (SPHERE_QUAD, np.array([1.0, 2.2])),
    ], ids=["graph", "clifford", "veronese"])
    def test_orthonormal_and_mutually_orthogonal(self, spec, u):
        tangent, normal = frames(spec, u)
        npt.assert_allclose(tangent @ tangent.T, np.eye(spec.n), atol=1e-9)
        npt.assert_allclose(normal @ normal.T, np.eye(spec.p), atol=1e-9)
        npt.assert_allclose(tangent @ normal.T, 0.0, atol=1e-9)

    def test_radial_direction_excluded_on_spheres(self):
        u = np.array([0.8, 1.3])
        sample = second_fundamental_form(TORUS, u)
        npt.assert_allclose(sample.normal @ sample.position, 0.0, atol=1e-9,
                            err_msg="normal frame must be orthogonal to the position")
        npt.assert_allclose(sample.tangent @ sample.position, 0.0, atol=1e-9)

    def test_deterministic(self):
        u = np.array([0.4, 0.9])
        t1, n1 = frames(SPHERE_QUAD, u)
        t2, n2 = frames(SPHERE_QUAD, u)
        npt.assert_array_equal(t1, t2)
        npt.assert_array_equal(n1, n2)

    def test_degenerate_map_rejected(self):
        collapsed = ImmersionSpec(map=lambda u: np.array([u[0], u[0], 0.0]),
                                  n=2, N=3, ambient=Ambient("euclidean"),
                                  bounds=((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(ValueError, match="degenerate"):
            frames(collapsed, np.array([0.5, 0.5]))

    def test_off_sphere_map_rejected(self):
        bad = ImmersionSpec(map=lambda u: 2.0 * np.array([np.cos(u[0]), np.sin(u[0]),
                                                          np.cos(u[1]), np.sin(u[1])]),
                            n=2, N=4, ambient=Ambient("sphere", 1.0),
                            bounds=((0.0, 6.0), (0.0, 6.0)))
        with pytest.raises(ValueError, match="sphere"):
            frames(bad, np.array([0.3, 0.4]))


class TestSaddleAtOrigin:
    def test_frozen_form(self):
        sample = second_fundamental_form(SADDLE, np.array([0.0, 0.0]))
        npt.assert_allclose(sample.data.forms[0], np.diag([1.0, -1.0]), atol=1e-7)
        npt.assert_allclose(sample.normal, np.array([[0.0, 0.0, 1.0]]), atol=1e-10)
        assert sample.data.c == 0.0

    def test_gauss_curvature(self):
        sample = second_fundamental_form(SADDLE, np.array([0.0, 0.0]))
        npt.assert_allclose(curvature_at(sample), -1.0, atol=1e-6)
        npt.assert_allclose(invariants(sample.data).S, 2.0, atol=1e-6)


class TestBuiltinOracles:
    def test_catalogue(self):
        assert set(BUILTINS) == {"veronese", "clifford", "graph"}
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin("torus")

    def test_shapes(self):
        assert (SPHERE_QUAD.p, TORUS.p, SADDLE.p) == (2, 1, 1)
        assert SPHERE_QUAD.ambient.curvature == 1.0
        assert SADDLE.ambient.curvature == 0.0

    def test_quadratic_sphere_invariants_at_random_points(self):
        rng = np.random.default_rng(60)
        for k in range(8):
            u = np.array([rng.uniform(0.3, np.pi - 0.3), rng.uniform(0.0, 2 * np.pi)])
            sample = second_fundamental_form(SPHERE_QUAD, u)
            npt.assert_allclose(invariants(sample.data).S, 4.0 / 3.0, atol=1e-5,
                                err_msg=f"S off at draw {k}, u={u}")
            npt.assert_allclose(curvature_at(sample), 1.0 / 3.0, atol=1e-5,
                                err_msg=f"K off at draw {k}, u={u}")

    def test_flat_torus_invariants(self):
        rng = np.random.default_rng(61)
        for k in range(8):
            u = rng.uniform(0.0, 2 * np.pi, size=2)
            sample = second_fundamental_form(TORUS, u)
            npt.assert_allclose(invariants(sample.data).S, 2.0, atol=1e-6,
                                err_msg=f"S off at draw {k}")
            npt.assert_allclose(curvature_at(sample), 0.0, atol=1e-6,
                                err_msg=f"K off at draw {k}")

    def test_induced_metric_is_three_times_round(self):
        u = np.array([1.2, 0.8])
        jac, _ = differentiate(SPHERE_QUAD, u)
        metric = jac.T @ jac
        round_metric = np.diag([1.0, np.sin(u[0]) ** 2])
        npt.assert_allclose(metric, 3.0 * round_metric, atol=1e-6)


class TestGridSampling:
    def test_midpoints_frozen(self):
        pts = grid_points(SADDLE, 2)
        npt.assert_allclose(np.stack(pts),
                            np.array([[-0.5, -0.5], [-0.5, 0.5],
                                      [0.5, -0.5], [0.5, 0.5]]), atol=1e-15)

    def test_grid_count_and_order(self):
        samples = sample_grid(SADDLE, 3)
        assert len(samples) == 9
        first = np.stack([s.params for s in samples])
        assert np.all(np.diff(first[:, 0] * 10 + first[:, 1]) > 0)  # row-major

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            grid_points(SADDLE, 0)

    def test_ambient_validation(self):
        with pytest.raises(ValueError):
            Ambient("hyperbolic")
        with pytest.raises(ValueError):
            Ambient("sphere", radius=0.0)


def _math_clifford(u):
    """The Clifford map through math.sin/math.cos, which reject Taylor numbers."""
    th, ph = u
    return np.array([math.cos(th), math.sin(th), math.cos(ph), math.sin(ph)]) / math.sqrt(2.0)


def _rejecting_jets(spec):
    """The same immersion through a map that rejects Taylor numbers (float() of a jet)."""
    def rejecting(u):
        float(u[0])
        return spec.map(u)

    return dataclasses.replace(spec, map=rejecting)


class TestBatchedKernel:
    @pytest.mark.parametrize("wrap", [lambda spec: spec, _rejecting_jets], ids=["exact", "step"])
    @pytest.mark.parametrize("name", BUILTINS)
    def test_grid_sample_equals_its_point_alone(self, name, wrap):
        spec = wrap(builtin(name))
        samples = sample_grid(spec, 12)
        points = grid_points(spec, 12)
        assert len(samples) == len(points) == 144
        for k, u in enumerate(points):
            assert samples[k] == second_fundamental_form(spec, u), k

    # the fallback runs at the constant DEFAULT_STEP; patching it to a second
    # step shows the batched stencil agrees with the reference at any step
    @pytest.mark.parametrize("step", [DEFAULT_STEP, 1e-3])
    @pytest.mark.parametrize("name", BUILTINS)
    def test_explicit_step_matches_the_per_point_stencil(self, name, step, monkeypatch):
        monkeypatch.setattr(immersion, "DEFAULT_STEP", step)
        spec = _rejecting_jets(builtin(name))
        assert sample_grid(spec, 12) == ref.sample_grid(spec, 12, step)

    def test_exact_jets_match_closed_form_derivatives(self):
        # the round S^2 in R^3: the Jacobian and every Hessian entry in closed form
        spec = ImmersionSpec(
            map=lambda u: np.array([np.sin(u[0]) * np.cos(u[1]),
                                    np.sin(u[0]) * np.sin(u[1]), np.cos(u[0])]),
            n=2, N=3, ambient=Ambient("euclidean"), bounds=((0.1, 3.0), (0.0, 6.0)))
        a, b = 0.7, 2.3
        jac, hess = differentiate(spec, np.array([a, b]))
        sa, ca, sb, cb = np.sin(a), np.cos(a), np.sin(b), np.cos(b)
        npt.assert_allclose(jac, [[ca * cb, -sa * sb], [ca * sb, sa * cb], [-sa, 0.0]],
                            rtol=0, atol=1e-15)
        npt.assert_allclose(hess[:, 0, 0], [-sa * cb, -sa * sb, -ca], rtol=0, atol=1e-15)
        npt.assert_allclose(hess[:, 1, 1], [-sa * cb, -sa * sb, 0.0], rtol=0, atol=1e-15)
        npt.assert_allclose(hess[:, 0, 1], [-ca * sb, ca * cb, 0.0], rtol=0, atol=1e-15)
        assert np.array_equal(hess[:, 0, 1], hess[:, 1, 0])

    def test_one_map_call_per_grid(self):
        calls = []

        def counted(u):
            calls.append(u)
            return TORUS.map(u)

        spec = ImmersionSpec(map=counted, n=2, N=4, ambient=TORUS.ambient,
                             bounds=TORUS.bounds)
        assert sample_grid(spec, 5) == sample_grid(TORUS, 5)
        assert len(calls) == 1

    def test_forms_validated_once_per_grid(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a.shape)
            return symmetrize(a)

        monkeypatch.setattr(symmat, "symmetrize", counted)
        sample_grid(SPHERE_QUAD, 12)
        assert calls == [(144, 2, 2, 2)]   # one stacked check, not one per point

    @pytest.mark.parametrize("rejecting", [
        _math_clifford,
        lambda u: TORUS.map(u) if u[0] < 7.0 else None,
        lambda u: TORUS.map(u) if u[0] != 7.0 else None,
        lambda u: TORUS.map(u) if u[0] else None,
    ], ids=["math.sin", "less-than", "not-equal", "truth-value"])
    def test_map_rejecting_jets_falls_back_to_differences(self, rejecting):
        calls = []

        def counted(u):
            calls.append(u)
            return rejecting(u)

        spec = ImmersionSpec(map=counted, n=2, N=4, ambient=TORUS.ambient,
                             bounds=TORUS.bounds)
        fallback = sample_grid(spec, 4)
        assert len(calls) == 1 + 7 * 16   # the rejected jet call, then 1 + n(n+1) per point
        assert fallback == ref.sample_grid(spec, 4, DEFAULT_STEP)

    def test_three_dimensional_fallback_stencil(self):
        # a hypersurface graph over R^3 through math.sin: D = 6 directions, 13 calls a point
        calls = []

        def counted(u):
            calls.append(u)
            x, y, z = u
            return np.array([x, y, z, math.sin(x) * math.cos(y) + x * z - z * z / 2.0])

        spec = ImmersionSpec(map=counted, n=3, N=4, ambient=Ambient("euclidean"),
                             bounds=((-1.0, 1.0),) * 3)
        fallback = sample_grid(spec, 2)
        assert len(calls) == 1 + 13 * 8
        assert fallback == ref.sample_grid(spec, 2, DEFAULT_STEP)
        assert fallback[0].data.forms.shape == (1, 3, 3)

    @pytest.mark.parametrize("spec,S,K", [(SPHERE_QUAD, 4.0 / 3.0, 1.0 / 3.0),
                                          (TORUS, 2.0, 0.0)], ids=["veronese", "clifford"])
    def test_exact_jets_reach_round_off(self, spec, S, K):
        for sample in sample_grid(spec, 12):
            assert np.max(np.abs(np.trace(sample.data.forms, axis1=1, axis2=2))) < 1e-14
            assert abs(invariants(sample.data).S - S) < 1e-14
            assert abs(curvature_at(sample) - K) < 1e-14

    def test_constant_components_are_lifted(self):
        # a plane in R^3 has one constant coordinate and no curvature
        plane = ImmersionSpec(map=lambda u: np.array([u[0], 2.0 * u[1] - u[0], 1.5]),
                              n=2, N=3, ambient=Ambient("euclidean"),
                              bounds=((0.0, 1.0), (0.0, 1.0)))
        for sample in sample_grid(plane, 3):
            assert np.all(sample.data.forms == 0.0)
            npt.assert_array_equal(sample.position[2], 1.5)

    @pytest.mark.parametrize("value", [
        lambda u: np.array([u[0], u[1], math.nan]),   # exact jets: a constant NaN
        lambda u: np.array([u[0], u[1], np.sqrt(u[0] - 0.5)]),   # differences: sqrt rejects jets
        # differences, finite at u = (0.25, 0.25) itself but infinite one step along e_0
        lambda u: np.array([u[0], u[1], math.inf if 0.25 < u[0] < 0.3 else math.sin(u[0])]),
    ], ids=["exact", "step", "step-neighbour"])
    def test_non_finite_values_name_the_first_bad_point(self, value):
        def quiet(u):
            with np.errstate(invalid="ignore"):   # the map's own sqrt of a negative
                return value(u)

        spec = ImmersionSpec(map=quiet, n=2, N=3, ambient=Ambient("euclidean"),
                             bounds=((0.0, 1.0), (0.0, 1.0)))
        message = r"not finite at u=\[0\.25, 0\.25\]"
        with pytest.raises(ValueError, match=message):
            sample_grid(spec, 2)
        with pytest.raises(ValueError, match=message):
            differentiate(spec, np.array([0.25, 0.25]))

    def test_errors_name_the_first_bad_point(self):
        def dented(u):
            scale = 1.0 if u[0] < 1.0 else 1.0 + 1e-6
            return _math_clifford(u) * scale

        spec = ImmersionSpec(map=dented, n=2, N=4, ambient=TORUS.ambient,
                             bounds=((0.0, 2.0), (0.0, 2.0)))
        with pytest.raises(ValueError, match=r"sphere .* at u=\[1\.5, 0\.5\]"):
            sample_grid(spec, 2)
