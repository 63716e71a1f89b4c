"""The matrix commutator inequality for tuples of symmetric matrices.

For a tuple B_1..B_m of real symmetric n x n matrices,

    sum_{r,s} ||[B_r, B_s]||^2  <=  (sum_r ||B_r||^2)^2        (ordered pairs)

with equality exactly on the orbit of the two-matrix configuration
B~_r = mu (E_12 + E_21), B~_s = mu (E_11 - E_22) under normal rotations of
the tuple and orthogonal conjugation of the members.  This module evaluates
the inequality, recovers the equality configuration, and maximizes the ratio
numerically by projected gradient ascent on the Frobenius sphere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .symmat import as_tuple, random_tuple, rotate_tuple, seed_sequence, signfix

EQUALITY_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class ExtremalStructure:
    """Recovered two-matrix equality configuration.

    After rotating the tuple by normal_rotation, members 0 and 1 hold the
    active pair and equal tangent_rotation @ C @ tangent_rotation.T for the
    canonical C's with parameter mu; offplane_frac is the Frobenius fraction
    of the tuple outside those two members, match_residual the relative
    mismatch of the full canonical reconstruction.
    """

    active: tuple[int, int]
    mu: float
    normal_rotation: np.ndarray
    tangent_rotation: np.ndarray
    offplane_frac: float
    match_residual: float


@dataclass(frozen=True, eq=False)
class DdvvReport:
    lhs: float
    rhs: float
    ratio: float
    equality: bool
    extremal_structure: ExtremalStructure | None = None


@dataclass(frozen=True, eq=False)
class MaximizeResult:
    """Best tuple, its ratio, and every accepted step's ratio, start by start (start-major)."""

    tuple: np.ndarray
    ratio: float
    history: list


def _pair_commutators(t: np.ndarray):
    """Yield r, s and [B_r, B_s], one (..., n, n) stack, for each pair r < s."""
    for r, s in itertools.combinations(range(t.shape[-3]), 2):
        comm = t[..., r, :, :] @ t[..., s, :, :]
        comm -= t[..., s, :, :] @ t[..., r, :, :]  # not (AB)^T: finite differences leave Sym
        yield r, s, comm


def commutator_energy(t: np.ndarray):
    """Raw objective sum_{r,s} ||B_r B_s - B_s B_r||^2 over ordered pairs.

    A float for one (m, n, n) tuple, an array for a (..., m, n, n) stack of
    them; each tuple's value has the same bits either way.  No symmetry
    validation — this is the optimizer/finite-difference hot path.
    """
    t = np.asarray(t, dtype=float)
    energy = np.zeros(t.shape[:-3])
    for _, _, comm in _pair_commutators(t):
        energy += np.einsum("...ij,...ij->...", comm, comm)
    energy *= 2.0  # ordered pairs: [B_s, B_r] = -[B_r, B_s]
    return float(energy) if energy.ndim == 0 else energy


def energy_gradient(t: np.ndarray) -> np.ndarray:
    """Gradient of commutator_energy at a symmetric tuple or stack: 4 sum_s [[B_r,B_s],B_s]."""
    t = np.asarray(t, dtype=float)
    grad = np.zeros_like(t)
    for r, s, comm in _pair_commutators(t):  # C_sr = -C_rs feeds member s
        grad[..., r, :, :] += comm @ t[..., s, :, :] - t[..., s, :, :] @ comm
        grad[..., s, :, :] -= comm @ t[..., r, :, :] - t[..., r, :, :] @ comm
    return 4.0 * grad


def ratio_terms(t: np.ndarray):
    """lhs, rhs = (sum_r ||B_r||^2)^2 and lhs / rhs (0 where rhs = 0), as floats for one
    (m, n, n) tuple or arrays for a (..., m, n, n) stack, bit-equal tuple by tuple."""
    lhs = commutator_energy(t)
    total = np.einsum("...rij,...rij->...", t, t)
    rhs = total * total
    if np.ndim(rhs) == 0:  # plain floats: a ufunc call costs more than the division
        rhs = float(rhs)
        return lhs, rhs, lhs / rhs if rhs > 0 else 0.0
    return lhs, rhs, np.divide(lhs, rhs, out=np.zeros_like(rhs), where=rhs > 0)


def evaluate(t) -> DdvvReport:
    """Evaluate lhs, rhs and their ratio; detect the equality configuration."""
    t = as_tuple(t)
    lhs, rhs, ratio = ratio_terms(t)
    equality = rhs > 0 and ratio >= 1.0 - EQUALITY_RTOL
    structure = detect_equality(t, EQUALITY_RTOL) if equality else None
    return DdvvReport(lhs=lhs, rhs=rhs, ratio=ratio, equality=equality,
                      extremal_structure=structure)


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


def _complete_basis(cols: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis, deterministically."""
    n, k = cols.shape
    basis = [cols[:, i] for i in range(k)]
    for j in range(n):
        cand = np.zeros(n)
        cand[j] = 1.0
        for b in basis:
            cand = cand - (b @ cand) * b
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            basis.append(signfix(cand / nrm))
        if len(basis) == n:
            break
    return np.column_stack(basis)


def detect_equality(t, tol: float = 1e-6) -> ExtremalStructure | None:
    """Recover the two-matrix mu-configuration from a (near-)equality tuple.

    Returns None when the ratio is below 1 - tol; otherwise rotations and
    residuals quantifying the distance to the exact configuration.
    """
    t = as_tuple(t)
    m, n = t.shape[0], t.shape[1]
    if m < 2 or n < 2:
        return None
    _, rhs, ratio = ratio_terms(t)
    if rhs <= 0 or ratio < 1.0 - tol:
        return None
    total = float(np.einsum("rij,rij->", t, t))

    # Normal rotation from the Gram spectrum: the two dominant directions
    # carry the active pair.
    gram = np.einsum("rij,sij->rs", t, t)
    vals, vecs = np.linalg.eigh(gram)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    q = signfix(vecs[:, order]).T
    rot = rotate_tuple(t, q)
    a, b = rot[0], rot[1]
    offplane = float(np.sqrt(max(0.0, np.sum(rot[2:] ** 2)))) if m > 2 else 0.0
    offplane_frac = offplane / np.sqrt(total)

    # Active tangent plane: top-2 eigenspace of A^2 + B^2 (= 2 mu^2 projector
    # at exact equality).
    qvals, qvecs = np.linalg.eigh(a @ a + b @ b)
    plane = signfix(qvecs[:, np.argsort(qvals)[::-1][:2]])

    # In-plane, traceless symmetric 2x2 matrices are x*diag(1,-1) + y*offdiag(1);
    # conjugating by the rotation R_phi spins (x, y) by -2 phi.  Park A at
    # (0, +) — the offdiagonal form — then reflect if B lands at (-, 0).
    a2 = plane.T @ a @ plane
    xa, ya = (a2[0, 0] - a2[1, 1]) / 2.0, (a2[0, 1] + a2[1, 0]) / 2.0
    phi = (np.arctan2(ya, xa) - np.pi / 2.0) / 2.0
    spin = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    plane = plane @ spin
    b2 = plane.T @ b @ plane
    if (b2[0, 0] - b2[1, 1]) / 2.0 < 0:
        plane = plane @ np.array([[0.0, 1.0], [1.0, 0.0]])
    tangent = _complete_basis(plane) if n > 2 else plane

    mu = float(np.sqrt(max(0.0, vals[0] + vals[1])) / 2.0)
    canonical = extremal_pair(n, m, mu, rotation=tangent) if mu > 0 else np.zeros_like(t)
    recon = rotate_tuple(canonical, q.T)
    match_residual = float(np.linalg.norm(t - recon) / np.sqrt(total))

    weight = q[0] ** 2 + q[1] ** 2
    top = np.argsort(weight)[::-1][:2]
    active = (int(min(top)), int(max(top)))
    return ExtremalStructure(active=active, mu=mu, normal_rotation=q,
                             tangent_rotation=tangent, offplane_frac=offplane_frac,
                             match_residual=match_residual)


def maximize_ratio(n: int, m: int, seed=0, starts: int = 32,
                   iters: int = 2000) -> MaximizeResult:
    """Maximize lhs/rhs over tuples by projected gradient ascent.

    Multistart on the Frobenius unit sphere (rhs = 1 there, so the objective
    is the ratio itself), every start in one (starts, m, n, n) stack.  Each
    start keeps the per-start rule: backtracking from step 0.1, halving while
    above 1e-16 until the first increase; it stops at ||tangent|| < 1e-16, at
    a failed line search, at relative improvement < 1e-14 or after `iters`
    steps, and then leaves the active set.  Degenerate shapes (m < 2 or
    n < 2) have ratio 0 and return immediately.
    """
    if starts < 1:
        raise ValueError(f"need starts >= 1, got {starts}")
    if iters < 0:
        raise ValueError(f"need iters >= 0, got {iters}")
    if m < 2 or n < 2:
        return MaximizeResult(tuple=np.zeros((max(m, 0), n, n)), ratio=0.0, history=[])
    def dot(a, b):  # per-tuple Frobenius products, (S, 1, 1, 1)
        return np.sum(a * b, axis=(1, 2, 3), keepdims=True)

    t = np.stack([random_tuple(n, m, np.random.default_rng(child))
                  for child in seed_sequence(seed).spawn(starts)])
    t /= np.sqrt(dot(t, t))
    f = commutator_energy(t)
    act, who, vals = np.arange(starts), [np.empty(0, int)], [np.empty(0)]
    for _ in range(iters):
        if not act.size:
            break
        ta, fa = t[act], f[act]
        grad = energy_gradient(ta)
        tang = grad - dot(grad, ta) * ta
        search, step = np.flatnonzero(np.sqrt(dot(tang, tang)) >= 1e-16), 0.1
        while search.size and step > 1e-16:
            trial = ta[search] + step * tang[search]
            trial /= np.sqrt(dot(trial, trial))
            ft = commutator_energy(trial)
            up = ft > fa[search]
            t[act[search[up]]], f[act[search[up]]] = trial[up], ft[up]
            search, step = search[~up], step / 2.0
        fn = f[act]
        up = fn > fa
        who.append(act[up])
        vals.append(fn[up])
        act = act[up & (fn - fa >= 1e-14 * np.maximum(1.0, fn))]
    order = np.argsort(np.concatenate(who), kind="stable")  # start-major history
    best = t[int(np.argmax(f))]
    return MaximizeResult(tuple=best, ratio=evaluate(best).ratio,
                          history=np.concatenate(vals)[order].tolist())
