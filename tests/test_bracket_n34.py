"""The K_min bracket at n = 3 and n = 4: closed form, with no plane search.

At n = 3 every 2-vector is decomposable, so the bottom eigenvector of the
curvature operator is a plane and its K equals the operator bound.  At n = 4
the bound rises to Thorpe's max_t lambda_min(op + t *), and the plane nearest
the bottom eigenvector at the maximizer attains it.  Only a bracket left
wider than 1e-12 max(1, |hi|) falls back to the multistart descent.
"""

import random

import numpy as np
import pytest

from conftest import make_general, make_minimal, make_pseudo_umbilical, random_orthogonal
from plane_search_reference import sectional
from rigidity import curvature
from rigidity.curvature import (
    CurvatureTensor,
    FundamentalData,
    curvature_operator,
    kmin_bracket,
    riemann,
)
from rigidity.models import product_of_spheres, totally_geodesic, umbilical_sphere
from rigidity.symmat import rotate_tuple


def _random_points():
    for n in (3, 4):
        for p in (1, 2, 3):
            for c in (-1.0, 0.0, 1.0):
                rng = np.random.default_rng([34, n, p, int(c) + 1])
                for k in range(3):
                    yield f"general-n{n}-p{p}-c{c}-{k}", make_general(n, p, c, rng)
                yield f"minimal-n{n}-p{p}-c{c}", make_minimal(n, p, c, rng)
                if p >= 2:
                    yield f"pseudo-n{n}-p{p}-c{c}", make_pseudo_umbilical(n, p, c, 0.4, rng)


POINTS = list(_random_points())
IDS = [name for name, _ in POINTS]


def _width_ok(b):
    return b.hi - b.lo <= 1e-12 * max(1.0, abs(b.hi))


def _counting_descent(monkeypatch):
    calls = []
    descend = curvature._descend_frames

    def counted(forms, c, x0, iters):
        calls.append(len(x0))
        return descend(forms, c, x0, iters)

    monkeypatch.setattr(curvature, "_descend_frames", counted)
    return calls


@pytest.mark.parametrize("data", [d for _, d in POINTS], ids=IDS)
def test_no_search(monkeypatch, data):
    def refuse(*args, **kwargs):
        raise AssertionError("n = 3/4 must not search")

    monkeypatch.setattr(curvature, "_descend_frames", refuse)
    monkeypatch.setattr(random, "Random", refuse)
    b = kmin_bracket(data, budget=64, seed=1)
    assert _width_ok(b)


@pytest.mark.parametrize("data", [d for _, d in POINTS], ids=IDS)
def test_lo_below_random_planes(data):
    b = kmin_bracket(data)
    tensor = riemann(data)
    rng = np.random.default_rng([data.n, data.p, 5])
    for _ in range(32):
        u, v = rng.normal(size=(2, data.n))
        k = sectional(tensor, u, v)
        assert b.lo <= k + 1e-12 * max(1.0, abs(k))


@pytest.mark.parametrize("data", [d for _, d in POINTS], ids=IDS)
def test_invariant_under_frame_changes(data):
    b = kmin_bracket(data)
    scale = 1e-12 * max(1.0, abs(b.hi))
    rng = np.random.default_rng([data.n, data.p, 6])
    for _ in range(3):
        tangent = random_orthogonal(data.n, rng)
        normal = random_orthogonal(data.p, rng)
        forms = rotate_tuple(tangent.T @ data.forms @ tangent, normal)
        moved = kmin_bracket(FundamentalData(n=data.n, p=data.p, c=data.c, forms=forms))
        assert abs(moved.lo - b.lo) <= scale
        assert abs(moved.hi - b.hi) <= scale


def test_n3_is_operator_bound_and_bottom_plane():
    data = make_general(3, 2, 0.5, np.random.default_rng(3))
    op = curvature_operator(riemann(data))
    b = kmin_bracket(data)
    assert b.lo == float(np.linalg.eigvalsh(op)[0])
    x = curvature._nearest_planes(np.linalg.eigh(op)[1][None, :, 0], 3)
    assert b.hi == max(b.lo, float(curvature._frame_values(data.forms, data.c, x)[0]))


def test_n4_raises_the_operator_bound():
    # a random minimal point, where the operator bound sits below K_min
    data = make_minimal(4, 3, 1.0, np.random.default_rng(0))
    eig = float(np.linalg.eigvalsh(curvature_operator(riemann(data)))[0])
    b = kmin_bracket(data)
    assert b.lo > eig + 1e-3
    assert _width_ok(b)


# S^2 x S^2 in S^5 (principal curvatures 1, 1, -1, -1, mixed planes flat) in the
# frame (e1 +- e3)/sqrt 2, (e2 +- e4)/sqrt 2: the bottom eigenvalue of the
# operator is 4-fold and the bottom eigenvector there is not near any plane.
_I2, _Z2 = np.eye(2), np.zeros((2, 2))
S2S2_TURNED = FundamentalData(n=4, p=1, c=1.0, forms=np.block([[_Z2, _I2], [_I2, _Z2]])[None])

MODELS = [
    ("geodesic-3", totally_geodesic(3, 2, 1.0), 1.0),
    ("geodesic-4", totally_geodesic(4, 1, -2.0), -2.0),
    ("umbilical-4", umbilical_sphere(4, 2, 0.0, 0.5), 0.25),
    ("S1xS2", product_of_spheres(3, 1), 0.0),
    ("S2xS2", product_of_spheres(4, 2), 0.0),
    ("S1xS3", product_of_spheres(4, 1), 0.0),
]


@pytest.mark.parametrize("data,kmin", [(d, k) for _, d, k in MODELS],
                         ids=[name for name, _, _ in MODELS])
def test_models_closed_form(monkeypatch, data, kmin):
    calls = _counting_descent(monkeypatch)
    b = kmin_bracket(data)
    assert calls == []
    assert b.lo - 1e-12 <= kmin <= b.hi + 1e-12
    assert _width_ok(b)


def test_fallback_closes_s2xs2(monkeypatch):
    calls = _counting_descent(monkeypatch)
    b = kmin_bracket(S2S2_TURNED, budget=8, seed=0)
    # C(4, 2) coordinate planes, the random starts and the closed-form plane
    assert calls == [6 + 8 + 1]
    assert b.lo - 1e-12 <= 0.0 <= b.hi + 1e-12
    assert _width_ok(b)


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError, match="budget"):
        kmin_bracket(make_general(5, 1, 0.0, np.random.default_rng(1)), budget=-1)


def _loop_operator(tensor):
    """The curvature operator as a Python double loop over the pair basis."""
    pairs = [(i, j) for i in range(tensor.n) for j in range(i + 1, tensor.n)]
    comp = tensor.components
    mat = np.array([[comp[i, j, k, l] for (k, l) in pairs] for (i, j) in pairs])
    return (mat + mat.T) / 2.0


@pytest.mark.parametrize("n", range(2, 9))
def test_operator_matches_loop(n):
    rng = np.random.default_rng([n, 7])
    tensor = riemann(make_general(n, 3, float(rng.uniform(-1.0, 1.0)), rng))
    assert np.array_equal(curvature_operator(tensor), _loop_operator(tensor))
    # a tensor without the curvature symmetries exercises the symmetrization too
    raw = CurvatureTensor(n, rng.normal(size=(n,) * 4))
    assert np.array_equal(curvature_operator(raw), _loop_operator(raw))
