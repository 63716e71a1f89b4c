"""The K_min bracket at n >= 5: operator bound and a Newton plane search.

lo is the bottom eigenvalue of the curvature operator, from one eigvalsh; hi
is K of the plane nearest the operator's bottom eigenvector when that closes
the bracket, and otherwise the best plane of one batched Riemannian Newton
search over the coordinate planes, the random starts and that plane.  A
closed bracket must run no search, and the search must converge: at points
built like the benchmark's n = 6 and n = 8 records it must match a
first-order reference run to convergence, and at models with a known K_min
the bracket must contain it in any frame.  The random starts are the
standard library's Gaussians for the seed, prefix-stable in the budget.
"""

import numpy as np
import pytest

from conftest import make_general, make_minimal, random_orthogonal, random_tuple
from plane_search_reference import random_starts, reference_kmin_bracket, sectional
from rigidity import curvature
from rigidity.curvature import FundamentalData, kmin_bracket, riemann
from rigidity.models import product_of_spheres, totally_geodesic, umbilical_sphere
from rigidity.symmat import rotate_tuple


def _level_point(n, p, seed, level=0.7):
    """Minimal point in S^(n+p): traceless forms scaled so that K = 1 + s^2 q is level at q_min.

    q_min is the bracket's hi for the base forms at c = 0; the scale only
    places the point like the benchmark's records.
    """
    base = random_tuple(n, p, np.random.default_rng([58, n, p, seed]), traceless=True)
    base /= np.linalg.norm(base)
    qmin = kmin_bracket(FundamentalData(n=n, p=p, c=0.0, forms=base), budget=8, seed=seed).hi
    return FundamentalData(n=n, p=p, c=1.0, forms=base * np.sqrt((level - 1.0) / qmin))


@pytest.mark.parametrize("n,p", [(6, 2), (8, 1)])
def test_newton_matches_converged_reference(n, p):
    # The first-order reference, run with no gain cutoff until no step improves
    # K, is the converged value from the same coordinate starts.
    data = _level_point(n, p, 0)
    b = kmin_bracket(data, budget=0, seed=0)
    _, hi_ref = reference_kmin_bracket(data, budget=0, seed=0, iters=5000, tol=0.0)
    assert abs(b.hi - hi_ref) <= 1e-12 * max(1.0, abs(b.hi))
    assert b.lo <= b.hi


def _geodesic(x, delta, t):
    """Point at time t on the Grassmann geodesic from frame x with horizontal velocity delta."""
    u, sv, vt = np.linalg.svd(delta, full_matrices=False)
    return x @ vt.T @ np.diag(np.cos(sv * t)) @ vt + u @ np.diag(np.sin(sv * t)) @ vt


@pytest.mark.parametrize("n", [3, 5, 8])
def test_newton_terms_match_geodesic_differences(n):
    rng = np.random.default_rng([n, 12])
    data = make_general(n, 3, 0.7, rng)
    x = curvature._gram_schmidt(rng.normal(size=(4, n, 2)))
    q, g, hess = curvature._newton_terms(data.forms, x)
    b = rng.normal(size=(4, n - 2, 2))
    b /= np.linalg.norm(b, axis=(1, 2), keepdims=True)
    h = 2.5e-3
    for k in range(4):
        k_at = [curvature._frame_values(data.forms, data.c,
                                        _geodesic(x[k], q[k] @ b[k], t * h)[None])[0]
                for t in (-2, -1, 0, 1, 2)]
        # fourth-order central differences: truncation ~h^4, round-off ~1e-16 / h^2
        d1 = (8 * (k_at[3] - k_at[1]) - (k_at[4] - k_at[0])) / (12 * h)
        d2 = (16 * (k_at[3] + k_at[1]) - (k_at[4] + k_at[0]) - 30 * k_at[2]) / (12 * h * h)
        assert abs(d1 - np.sum(g[k] * b[k])) <= 1e-8 * max(1.0, abs(d1))
        assert abs(d2 - b[k].ravel() @ hess[k] @ b[k].ravel()) <= 1e-7 * max(1.0, abs(d2))


def _frame_changes(data, rng, count=3):
    for _ in range(count):
        tangent = random_orthogonal(data.n, rng)
        normal = random_orthogonal(data.p, rng)
        forms = rotate_tuple(tangent.T @ data.forms @ tangent, normal)
        yield FundamentalData(n=data.n, p=data.p, c=data.c, forms=forms)


MODELS = [(f"{name}-n{n}", data, kmin)
          for n in (5, 6, 8)
          for name, data, kmin in [
              ("geodesic", totally_geodesic(n, 2, -0.5), -0.5),
              ("umbilical", umbilical_sphere(n, 3, 1.0, 0.5), 1.25),
              ("S1xS", product_of_spheres(n, 1), 0.0),
              ("S2xS", product_of_spheres(n, 2), 0.0),
          ]]


@pytest.mark.parametrize("data,kmin", [(d, k) for _, d, k in MODELS],
                         ids=[name for name, _, _ in MODELS])
def test_models_in_any_frame(data, kmin):
    b = kmin_bracket(data, budget=8, seed=1)
    scale = 1e-12 * max(1.0, abs(b.hi))
    assert b.lo - 1e-12 <= kmin <= b.hi + 1e-12
    assert b.hi - kmin <= scale
    for moved in _frame_changes(data, np.random.default_rng([data.n, data.p, 9])):
        mb = kmin_bracket(moved, budget=8, seed=1)
        assert mb.lo - 1e-12 <= kmin <= mb.hi + 1e-12
        assert abs(mb.hi - b.hi) <= scale


def _random_points():
    for n in (5, 6, 8):
        for p in (1, 2, 3):
            rng = np.random.default_rng([5, n, p])
            c = float(rng.uniform(-1.0, 1.0))
            yield f"general-n{n}-p{p}", make_general(n, p, c, rng)
            yield f"minimal-n{n}-p{p}", make_minimal(n, p, c, rng)


POINTS = list(_random_points())


@pytest.mark.parametrize("data", [d for _, d in POINTS], ids=[name for name, _ in POINTS])
def test_lo_below_random_planes(data):
    b = kmin_bracket(data, budget=8, seed=2)
    assert b.lo <= b.hi
    tensor = riemann(data)
    rng = np.random.default_rng([data.n, data.p, 10])
    for _ in range(32):
        u, v = rng.normal(size=(2, data.n))
        k = sectional(tensor, u, v)
        assert b.lo <= k + 1e-12 * max(1.0, abs(k))


@pytest.mark.parametrize("n", [5, 6, 8])
def test_one_eigvalsh_per_bracket(monkeypatch, n):
    # The benchmark times every eigvalsh inside kmin_bracket as its lower bound.
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    kmin_bracket(make_general(n, 2, 0.3, np.random.default_rng([n, 11])), budget=8, seed=3)
    assert len(calls) == 1


# Points whose bracket the closed-form plane already closes: hypersurfaces with a simple
# bottom eigenvalue, whose bottom eigenvector is the plane e_i ^ e_j of two principal
# directions, and a totally geodesic point, where every plane attains the operator bound.
CLOSED = [(f"level-n{n}-p1", _level_point(n, 1, 0)) for n in (5, 6, 7, 8)] + [
    ("geodesic-n6-p2", totally_geodesic(6, 2, -0.5))]


@pytest.mark.parametrize("data", [d for _, d in CLOSED], ids=[name for name, _ in CLOSED])
def test_closed_bracket_runs_no_search(monkeypatch, data):
    def no_search(*args):
        raise AssertionError("a closed bracket ran the plane search")

    monkeypatch.setattr(curvature, "_descend_frames", no_search)
    b = kmin_bracket(data, budget=8, seed=1)
    scale = 1e-12 * max(1.0, abs(b.hi))
    assert b.lo <= b.hi <= b.lo + scale
    lo_ref, hi_ref = reference_kmin_bracket(data, budget=0, seed=0)
    assert abs(b.lo - lo_ref) <= scale and b.hi <= hi_ref + scale
    # the forms commute (one form, or all zero), so in their common eigenframe
    # K_min = c + min_{i<j} sum_a k^a_i k^a_j
    k = np.linalg.eigvalsh(data.forms)
    exact = data.c + np.min((k.T @ k)[np.triu_indices(data.n, 1)])
    assert abs(b.hi - exact) <= scale


def test_seed_plane_is_a_start(monkeypatch):
    # an (8, 2) point: its bottom eigenvector is no plane, so the bracket stays open
    data = _level_point(8, 2, 1)
    starts = []
    descend = curvature._descend_frames

    def recorded(forms, c, x0, iters):
        starts.append(x0)
        return descend(forms, c, x0, 0)

    monkeypatch.setattr(curvature, "_descend_frames", recorded)
    b = kmin_bracket(data, budget=0, seed=0)
    op = curvature.curvature_operator(riemann(data))
    seed_plane = curvature._nearest_planes(np.linalg.eigh(op)[1][None, :, 0], data.n)
    assert len(starts) == 1 and np.array_equal(starts[0][-1], seed_plane[0])
    assert b.hi == max(b.lo, float(curvature._frame_values(data.forms, data.c, seed_plane)[0]))


def _random_starts_of(monkeypatch, data, budget, seed):
    """The random frames kmin_bracket hands its descent, between the coordinate planes
    and the closed-form plane; the descent itself is skipped."""
    starts = []

    def recorded(forms, c, x0, iters):
        starts.append(x0[data.n * (data.n - 1) // 2:-1])
        return curvature._frame_values(forms, c, curvature._gram_schmidt(x0))

    monkeypatch.setattr(curvature, "_descend_frames", recorded)
    kmin_bracket(data, budget=budget, seed=seed)
    assert len(starts) == 1 and starts[0].shape == (budget, data.n, 2)
    return starts[0]


@pytest.mark.parametrize("n,p", [(5, 2), (6, 3), (8, 2)])
def test_random_starts_are_the_seeded_gaussians(monkeypatch, n, p):
    data = _level_point(n, p, 1)
    starts = _random_starts_of(monkeypatch, data, 8, 4)
    assert np.array_equal(starts, np.stack(random_starts(n, 8, 4)))
    assert np.array_equal(_random_starts_of(monkeypatch, data, 8, 4), starts)
    assert not np.array_equal(_random_starts_of(monkeypatch, data, 8, 5), starts)


@pytest.mark.parametrize("budget", [0, 1, 8, 64])
def test_random_starts_are_prefix_stable_in_budget(monkeypatch, budget):
    data = _level_point(6, 2, 1)
    more = _random_starts_of(monkeypatch, data, budget + 5, 3)
    assert np.array_equal(_random_starts_of(monkeypatch, data, budget, 3), more[:budget])


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True, np.random.SeedSequence(7)],
                         ids=["negative", "float", "str", "bool", "seed-sequence"])
@pytest.mark.parametrize("n", [2, 6])
def test_seed_must_be_none_or_a_nonnegative_int(seed, n):
    data = make_minimal(n, 2, 1.0, np.random.default_rng([n, 13]))
    with pytest.raises(ValueError, match="seed") as err:
        kmin_bracket(data, budget=4, seed=seed)
    assert repr(seed) in str(err.value)


def test_seed_none_draws_fresh_starts(monkeypatch):
    assert _random_starts_of(monkeypatch, _level_point(6, 2, 1), 4, None).shape == (4, 6, 2)
