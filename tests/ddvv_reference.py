"""Reference DDVV evaluation: one tuple at a time, equality recovery by 2-d algebra.

This is the per-tuple form of what `ddvv.evaluate_stack` and
`ddvv.equality_structures` compute for a whole stack: the gate, the Gram
rotation, the tangent plane, the in-plane spin and the reconstruction of one
tuple, with `rotate_tuple`, `extremal_pair` and `np.linalg.norm`.  Tests hold
the stacked kernels to it bit for bit.  `extremal_pair` also builds the tests'
equality-case tuples.
"""

import numpy as np

from rigidity.ddvv import EQUALITY_RTOL, _complete_basis, ratio_terms
from rigidity.symmat import rotate_tuple, signfix


def evaluate(t):
    """(lhs, rhs, ratio, equality, structure) of one validated (m, n, n) tuple."""
    lhs, rhs, ratio = ratio_terms(t)
    equality = rhs > 0 and ratio >= 1.0 - EQUALITY_RTOL
    return lhs, rhs, ratio, equality, structure(t) if equality else None


def structure(t):
    """(active, mu, normal rotation, tangent rotation, offplane_frac, match_residual)."""
    m, n = t.shape[0], t.shape[1]
    total = float(np.einsum("rij,rij->", t, t))
    vals, vecs = np.linalg.eigh(np.einsum("rij,sij->rs", t, t))
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    q = signfix(vecs[:, order]).T
    rot = rotate_tuple(t, q)
    a, b = rot[0], rot[1]
    offplane = float(np.sqrt(max(0.0, np.sum(rot[2:] ** 2)))) if m > 2 else 0.0
    qvals, qvecs = np.linalg.eigh(a @ a + b @ b)
    plane = signfix(qvecs[:, np.argsort(qvals)[::-1][:2]])
    a2 = plane.T @ a @ plane
    phi = (np.arctan2((a2[0, 1] + a2[1, 0]) / 2.0, (a2[0, 0] - a2[1, 1]) / 2.0)
           - np.pi / 2.0) / 2.0
    plane = plane @ np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    b2 = plane.T @ b @ plane
    if (b2[0, 0] - b2[1, 1]) / 2.0 < 0:
        plane = plane @ np.array([[0.0, 1.0], [1.0, 0.0]])
    tangent = _complete_basis(plane) if n > 2 else plane
    mu = float(np.sqrt(max(0.0, vals[0] + vals[1])) / 2.0)
    canonical = extremal_pair(n, m, mu, rotation=tangent) if mu > 0 else np.zeros_like(t)
    residual = float(np.linalg.norm(t - rotate_tuple(canonical, q.T)) / np.sqrt(total))
    top = np.argsort(q[0] ** 2 + q[1] ** 2)[::-1][:2]
    return ((int(min(top)), int(max(top))), mu, q, tangent,
            offplane / np.sqrt(total), residual)


def extremal_pair(n: int, m: int, mu: float, rotation: np.ndarray | None = None,
                  slots: tuple[int, int] = (0, 1)) -> np.ndarray:
    """Build an equality-case tuple: the canonical mu-pair in two slots.

    slots[0] receives P (mu E_12 + mu E_21) P^T, slots[1] receives
    P diag(mu, -mu, 0..) P^T; every other member is zero.  rotation is the
    tangent conjugation P (identity by default).
    """
    if n < 2 or m < 2:
        raise ValueError(f"equality tuples need n >= 2 and m >= 2, got n={n}, m={m}")
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    r, s = slots
    if r == s or not (0 <= r < m and 0 <= s < m):
        raise ValueError(f"slots must be two distinct indices below m={m}, got {slots}")
    first = np.zeros((n, n))
    first[0, 1] = first[1, 0] = mu
    second = np.zeros((n, n))
    second[0, 0] = mu
    second[1, 1] = -mu
    if rotation is not None:
        p = np.asarray(rotation, dtype=float)
        if p.shape != (n, n) or np.linalg.norm(p.T @ p - np.eye(n)) > 1e-10:
            raise ValueError("rotation must be an orthogonal n x n matrix")
        first = p @ first @ p.T
        second = p @ second @ p.T
    out = np.zeros((m, n, n))
    out[r] = first
    out[s] = second
    return out
