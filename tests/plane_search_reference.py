"""Reference K_min plane search: one projected descent per start, from the tensor.

This is the straightforward first-order form of the search that
`kmin_bracket` runs as a batched Newton iteration at n >= 5: every start is
descended on its own, frames are re-orthonormalized by `np.linalg.qr`, and
K(u, v) and its gradient are contracted from the full n^4 Riemann tensor.  It
shares no search code with the package, so tests can hold the batched
form-based search to it.  `sectional` is K of one plane from that tensor, the
tests' oracle for a single plane.
"""

import random

import numpy as np

from rigidity.curvature import curvature_operator, riemann


def _pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _value(comp, x):
    u, v = x[:, 0], x[:, 1]
    return float(np.einsum("ijkl,i,j,k,l->", comp, u, v, u, v))


def sectional(tensor, u, v):
    """K(u, v) = R(u, v, u, v) / (|u|^2 |v|^2 - <u, v>^2) of the plane spanned by u and v."""
    num = float(np.einsum("ijkl,i,j,k,l->", tensor.components, u, v, u, v))
    return num / float(u @ u * (v @ v) - (u @ v) ** 2)


def _grad(comp, x):
    u, v = x[:, 0], x[:, 1]
    gu = 2.0 * np.einsum("ajkl,j,k,l->a", comp, v, u, v)
    gv = 2.0 * np.einsum("iakl,i,k,l->a", comp, u, u, v)
    return np.column_stack([gu, gv])


def _orthonormalize(x):
    q, _ = np.linalg.qr(x)
    return q


def descend_plane(comp, x0, iters=200, tol=1e-12):
    """Projected gradient descent of K over orthonormal 2-frames from one start.

    It stops after `iters` steps, at a tangent norm below 1e-14, when no step
    down to 1e-17 improves K, or at a gain of at most `tol`.
    """
    x = _orthonormalize(x0)
    f = _value(comp, x)
    for _ in range(iters):
        g = _grad(comp, x)
        sym = x.T @ g
        tang = g - x @ (sym + sym.T) / 2.0
        if np.linalg.norm(tang) < 1e-14:
            break
        step = 0.1
        xn, fn = x, f
        while step > 1e-17:
            cand = _orthonormalize(x - step * tang)
            fc = _value(comp, cand)
            if fc < f:
                xn, fn = cand, fc
                break
            step /= 2.0
        if fn >= f - tol:
            x, f = xn, min(f, fn)
            break
        x, f = xn, fn
    return f


def random_starts(n, budget, seed):
    """kmin_bracket's `budget` random (n, 2) frames: standard normals from one
    `random.Random(seed)`, frame by frame and row by row."""
    gauss = random.Random(seed).gauss
    return [np.array([[gauss(), gauss()] for _ in range(n)]) for _ in range(max(0, budget))]


def reference_kmin_bracket(data, budget=64, seed=0, iters=200, tol=1e-12):
    """(lo, hi) from kmin_bracket's coordinate and random starts, one start at a time."""
    tensor = riemann(data)
    comp = tensor.components
    lo = float(np.linalg.eigvalsh(curvature_operator(tensor))[0])
    hi = np.inf
    for (i, j) in _pairs(data.n):
        x0 = np.zeros((data.n, 2))
        x0[i, 0] = 1.0
        x0[j, 1] = 1.0
        hi = min(hi, descend_plane(comp, x0, iters, tol))
    for x0 in random_starts(data.n, budget, seed):
        hi = min(hi, descend_plane(comp, x0, iters, tol))
    return lo, max(lo, float(hi))
