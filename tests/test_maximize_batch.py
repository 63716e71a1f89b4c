"""The stacked ratio ascent against the serial per-start reference.

`ddvv.maximize_ratio` ascends every start in one (S, m, n, n) stack;
`maximize_reference` ascends them one at a time with the same starts and
the same per-start rule.  The arithmetic of each start is unchanged, so the
best tuple, its ratio and the start-major history must agree exactly,
including when `iters` cuts the starts short and when a start stops at once.
"""

import random

import numpy as np
import pytest

import maximize_reference as ref
from ddvv_reference import extremal_pair
from rigidity.ddvv import energy_gradient, maximize_ratio
from rigidity.symmat import rotate_tuple


def assert_same(got, want):
    assert got.tuple.shape == want.tuple.shape
    assert got.tuple.tobytes() == want.tuple.tobytes()
    assert got.ratio == want.ratio
    assert got.history == want.history


@pytest.mark.parametrize("starts", [1, 3, 8])
@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 2), (2, 5)])
def test_matches_reference(n, m, starts):
    seed = 10 * n + m
    assert_same(maximize_ratio(n, m, seed=seed, starts=starts, iters=2000),
                ref.reference_maximize_ratio(n, m, seed=seed, starts=starts, iters=2000))


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 2), (2, 5)])
def test_iters_cut_short(n, m):
    got = maximize_ratio(n, m, seed=2, starts=6, iters=3)
    assert_same(got, ref.reference_maximize_ratio(n, m, seed=2, starts=6, iters=3))
    assert len(got.history) == 6 * 3  # no start converges within three steps


def _stuck_start(n, m):
    """A unit tuple on the equality orbit, away from the canonical frame.

    Its tangent gradient is round-off, above the 1e-16 floor, and no step
    of the line search raises the ratio above its value of 1.
    """
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w, _ = np.linalg.qr(rng.normal(size=(m, m)))
    t = rotate_tuple(extremal_pair(n, m, 1.0, rotation=q), w)
    t = (t + np.swapaxes(t, 1, 2)) / 2.0   # exactly symmetric: a drawn G gives it back
    return t / np.sqrt(np.sum(t * t))


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 2), (2, 5)])
def test_failed_line_search(monkeypatch, n, m):
    stuck = _stuck_start(n, m)
    grad = energy_gradient(stuck)
    tang = grad - np.sum(grad * stuck) * stuck
    assert np.sqrt(np.sum(tang * tang)) >= 1e-16
    assert ref.ascend(stuck, 2000)[2] == []

    size = stuck.size

    class StuckSecondStart(random.Random):
        """The standard library's stream, but with the stuck tuple's entries as the second
        start's m * n^2 draws."""

        def __init__(self, seed):
            super().__init__(seed)
            self.drawn = 0

        def gauss(self, *args):
            k, self.drawn = self.drawn, self.drawn + 1
            return float(stuck.flat[k - size]) if size <= k < 2 * size else super().gauss(*args)

    monkeypatch.setattr(random, "Random", StuckSecondStart)
    got = maximize_ratio(n, m, seed=1, starts=4, iters=2000)
    assert_same(got, ref.reference_maximize_ratio(n, m, seed=1, starts=4, iters=2000))
    # the stuck start already holds the maximum ratio 1, so it is the best
    assert got.tuple.tobytes() == stuck.tobytes()


@pytest.mark.parametrize("n,m", [(1, 3), (3, 1), (1, 1), (4, 0)])
def test_degenerate_shapes_unchanged(n, m):
    got = maximize_ratio(n, m, seed=0, starts=2)
    assert_same(got, ref.reference_maximize_ratio(n, m, seed=0, starts=2))
    assert got.tuple.shape == (m, n, n) and not got.tuple.any()


@pytest.mark.parametrize("starts", [0, -1])
def test_rejects_no_starts(starts):
    with pytest.raises(ValueError, match="starts"):
        maximize_ratio(3, 3, starts=starts)


def test_rejects_negative_iters():
    with pytest.raises(ValueError, match="iters"):
        maximize_ratio(3, 3, iters=-1)
    assert maximize_ratio(3, 3, starts=2, iters=0).history == []
