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
    """Best tuple found, its ratio, and the per-iterate ratio trace."""

    tuple: np.ndarray
    ratio: float
    history: list


def _commutators(t: np.ndarray) -> np.ndarray:
    """[B_r, B_s] for every ordered pair: (..., m, n, n) -> (..., m, m, n, n)."""
    ab = np.einsum("...rik,...skj->...rsij", t, t)
    return ab - np.swapaxes(ab, -4, -3)


def commutator_energy(t: np.ndarray):
    """Raw objective sum_{r,s} ||B_r B_s - B_s B_r||^2 over ordered pairs.

    A float for one (m, n, n) tuple, an array for a (..., m, n, n) stack of
    them; each tuple's value has the same bits either way.  No symmetry
    validation — this is the optimizer/finite-difference hot path.
    """
    comm = _commutators(np.asarray(t, dtype=float))
    comm *= comm  # in place: a batch holds no third stack-sized array
    energy = np.sum(comm, axis=(-4, -3, -2, -1))
    return float(energy) if energy.ndim == 0 else energy


def energy_gradient(t: np.ndarray) -> np.ndarray:
    """Gradient of commutator_energy at a symmetric tuple: 4 sum_s [[B_r,B_s],B_s]."""
    t = np.asarray(t, dtype=float)
    comm = _commutators(t)
    return 4.0 * (np.einsum("rsik,skj->rij", comm, t)
                  - np.einsum("sik,rskj->rij", t, comm))


def evaluate(t) -> DdvvReport:
    """Evaluate lhs, rhs and their ratio; detect the equality configuration."""
    t = as_tuple(t)
    lhs = commutator_energy(t)
    total = float(np.einsum("rij,rij->", t, t))
    rhs = total * total
    ratio = lhs / rhs if rhs > 0 else 0.0
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
    total = float(np.einsum("rij,rij->", t, t))
    if total <= 0:
        return None
    if commutator_energy(t) / total**2 < 1.0 - tol:
        return None

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
    is the ratio itself); per-iteration backtracking line search from step
    0.1, halving on non-increase; stops at relative improvement < 1e-14.
    Degenerate shapes (m < 2 or n < 2) have ratio 0 and return immediately.
    """
    if m < 2 or n < 2:
        return MaximizeResult(tuple=np.zeros((max(m, 0), n, n)), ratio=0.0, history=[])
    best_t, best_f = None, -np.inf
    history: list[float] = []
    for child in seed_sequence(seed).spawn(starts):
        t = random_tuple(n, m, np.random.default_rng(child))
        t /= np.sqrt(np.sum(t * t))
        f = commutator_energy(t)
        for _ in range(iters):
            grad = energy_gradient(t)
            tang = grad - np.sum(grad * t) * t
            if np.sqrt(np.sum(tang * tang)) < 1e-16:
                break
            step, accepted, cand, fc = 0.1, False, t, f
            while step > 1e-16:
                trial = t + step * tang
                trial /= np.sqrt(np.sum(trial * trial))
                ft = commutator_energy(trial)
                if ft > f:
                    accepted, cand, fc = True, trial, ft
                    break
                step /= 2.0
            if not accepted:
                break
            gain = fc - f
            t, f = cand, fc
            history.append(f)
            if gain < 1e-14 * max(1.0, f):
                break
        if f > best_f:
            best_t, best_f = t, f
    report = evaluate(best_t)
    return MaximizeResult(tuple=best_t, ratio=report.ratio, history=history)
