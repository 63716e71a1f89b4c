"""The K_min bracket at n = 2: exact, from the operator bound, with no search.

Lambda^2 of a 2-dimensional tangent space is spanned by e1 ^ e2, so the
curvature operator is the 1 x 1 matrix (R_1212) and its eigenvalue is K of
the only plane.  kmin_bracket returns it as both ends, draws no random
starts and descends no frames; at n >= 5 the plane search still runs.
"""

import random

import numpy as np
import pytest

from conftest import make_general, make_minimal, make_pseudo_umbilical
from plane_search_reference import sectional
from rigidity import curvature
from rigidity.curvature import kmin_bracket, riemann
from rigidity.immersion import BUILTINS, builtin, sample_grid
from rigidity.models import product_of_spheres, totally_geodesic, umbilical_sphere, veronese


def _fixtures():
    yield "veronese", veronese(1.0, 0.0)
    yield "veronese-H", veronese(1.0, 0.5)
    yield "veronese-c2", veronese(2.0, 0.0)
    yield "product", product_of_spheres(2, 1, 1.0)
    yield "geodesic", totally_geodesic(2, 2, -1.0)
    yield "umbilical", umbilical_sphere(2, 3, 0.0, 0.7)
    for name in BUILTINS:
        for i, sample in enumerate(sample_grid(builtin(name), 3)):
            yield f"{name}#{i}", sample.data


def _random_points():
    for p in (1, 2, 3):
        for c in (-1.0, 0.0, 1.0):
            rng = np.random.default_rng([2, p, int(c) + 1])
            for k in range(8):
                yield f"general-p{p}-c{c}-{k}", make_general(2, p, c, rng)
            yield f"minimal-p{p}-c{c}", make_minimal(2, p, c, rng)
            if p >= 2:
                yield f"pseudo-p{p}-c{c}", make_pseudo_umbilical(2, p, c, 0.4, rng)


CASES = list(_fixtures()) + list(_random_points())


def _coordinate_plane_value(data):
    return sectional(riemann(data), np.eye(2)[0], np.eye(2)[1])


@pytest.mark.parametrize("data", [d for _, d in CASES], ids=[name for name, _ in CASES])
def test_bracket_is_exact(data):
    b = kmin_bracket(data, budget=16, seed=3)
    assert b.lo == b.hi
    k = _coordinate_plane_value(data)
    assert abs(b.hi - k) <= 1e-15 * max(1.0, abs(k))


def test_veronese_value():
    assert kmin_bracket(veronese(1.0, 0.0)).hi == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_no_search_at_n2(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("n = 2 must not search")

    monkeypatch.setattr(curvature, "_descend_frames", refuse)
    monkeypatch.setattr(random, "Random", refuse)
    for _, data in CASES[:12]:
        b = kmin_bracket(data, budget=64, seed=1)
        assert b.lo == b.hi == kmin_bracket(data, budget=0, seed=2).lo


def test_search_still_runs_at_n5(monkeypatch):
    calls = []
    descend = curvature._descend_frames

    def counted(forms, c, x0, iters):
        calls.append(len(x0))
        return descend(forms, c, x0, iters)

    monkeypatch.setattr(curvature, "_descend_frames", counted)
    data = make_general(5, 2, 1.0, np.random.default_rng(7))
    b = kmin_bracket(data, budget=5, seed=0)
    # C(5, 2) coordinate planes, the random starts and the operator's bottom plane
    assert calls == [10 + 5 + 1]
    assert b.lo <= b.hi
