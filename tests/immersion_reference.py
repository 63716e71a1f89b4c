"""Reference immersion sampling: one central-difference stencil per point, in a loop.

This is the straightforward form of what `immersion` runs as one batch for a
map that rejects Taylor numbers: every parameter point gets its own
1 + 2D map calls, two along each of the D = n(n+1)/2 directions e_i and
e_i + e_j, its own metric `eigh` and its own pivoted Gram-Schmidt.  It shares
no sampling code with the package, so tests can hold the batched kernel's
difference samples to it bit for bit.
"""

import numpy as np

from rigidity.curvature import FundamentalData
from rigidity.immersion import PointSample, grid_points
from rigidity.symmat import signfix


def _eval(spec, u):
    out = np.asarray(spec.map(np.asarray(u, dtype=float)), dtype=float)
    assert out.shape == (spec.N,)
    return out


def _unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def jets(spec, u, step):
    """F(u), the Jacobian (N, n) and the Hessian stack (N, n, n) from one stencil.

    Along a direction d, c1 = (F(u + h·d) - F(u - h·d)) / 2h approximates the
    derivative and c2 = (F(u + h·d) - 2F(u) + F(u - h·d)) / 2h² half the second
    derivative d·Hess·d.  So Hess_ii = 2·c2(e_i) and
    Hess_ij = c2(e_i + e_j) - c2(e_i) - c2(e_j).
    """
    n = spec.n
    f0 = _eval(spec, u)

    def coefficients(d):
        fp = _eval(spec, u + step * d)
        fm = _eval(spec, u - step * d)
        return (fp - fm) / (2 * step), (fp - 2 * f0 + fm) / (2 * step**2)

    jac = np.zeros((spec.N, n))
    half = {}
    for i in range(n):
        jac[:, i], half[i, i] = coefficients(_unit(n, i))
    for i in range(n):
        for j in range(i + 1, n):
            _, half[i, j] = coefficients(_unit(n, i) + _unit(n, j))
    hess = np.zeros((spec.N, n, n))
    for i in range(n):
        hess[:, i, i] = 2.0 * half[i, i]
        for j in range(i + 1, n):
            mixed = half[i, j] - half[i, i] - half[j, j]
            hess[:, i, j] = mixed
            hess[:, j, i] = mixed
    return f0, jac, hess


def second_fundamental_form(spec, u, step):
    """One PointSample: whitened tangent rows, pivoted Gram-Schmidt normal rows, forms."""
    u = np.asarray(u, dtype=float)
    pos, jac, hess = jets(spec, u, step)
    vals, vecs = np.linalg.eigh(jac.T @ jac)
    white = vecs @ np.diag(vals**-0.5) @ vecs.T
    tangent = (jac @ white).T
    span = [tangent[i] for i in range(spec.n)]
    if spec.ambient.kind == "sphere":
        span.append(pos / np.linalg.norm(pos))
    residues = np.eye(spec.N)
    for b in span:
        residues -= np.outer(residues @ b, b)
    normal = []
    for _ in range(spec.p):
        norms = np.linalg.norm(residues, axis=1)
        pick = int(np.argmax(norms))
        vec = signfix(residues[pick] / norms[pick])
        normal.append(vec)
        residues -= np.outer(residues @ vec, vec)
    normal = np.stack(normal)
    hess_frame = np.einsum("amn,mi,nj->aij", hess, white, white)
    forms = np.einsum("pa,aij->pij", normal, hess_frame)
    data = FundamentalData(n=spec.n, p=spec.p, c=spec.ambient.curvature, forms=forms)
    return PointSample(params=u, position=pos, tangent=tangent, normal=normal, data=data)


def sample_grid(spec, grid, step):
    """Every grid midpoint, one at a time, in row-major order."""
    return [second_fundamental_form(spec, u, step) for u in grid_points(spec, grid)]
