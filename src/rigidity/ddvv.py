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
from typing import NamedTuple

import numpy as np

from .symmat import as_tuple, gram_frame, signfix

EQUALITY_RTOL = 1e-8
NEAR_EQUALITY = 1e-6   # detect_equality and verdict's ddvv-equality note: ratio >= 1 - this


class ExtremalStructure(NamedTuple):
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


class DdvvReport(NamedTuple):
    lhs: float
    rhs: float
    ratio: float
    equality: bool
    extremal_structure: ExtremalStructure | None = None


class MaximizeResult(NamedTuple):
    """Best tuple, its ratio, and every accepted step's ratio, start by start (start-major)."""

    tuple: np.ndarray
    ratio: float
    history: list


def _pair_commutators(t: np.ndarray):
    """Yield r, s and [B_r, B_s], one (..., n, n) stack, for each pair r < s.

    Every pair is written into the same two buffers, so a batch allocates them
    once; the yielded array is overwritten by the next pair.
    """
    comm, prod = np.empty((2, *t.shape[:-3], *t.shape[-2:]))
    for r, s in itertools.combinations(range(t.shape[-3]), 2):
        np.matmul(t[..., r, :, :], t[..., s, :, :], out=comm)
        # not (AB)^T: finite differences leave Sym
        comm -= np.matmul(t[..., s, :, :], t[..., r, :, :], out=prod)
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
    return evaluate_stack(as_tuple(t)[None])[0]


def evaluate_stack(t: np.ndarray) -> list[DdvvReport]:
    """evaluate every tuple of a validated (R, m, n, n) stack: one ratio_terms for all, then
    equality_structures for those past its gate; each report has its own evaluate's bits."""
    lhs, rhs, ratio = ratio_terms(t)
    equal = (rhs > 0) & (ratio >= 1.0 - EQUALITY_RTOL)
    found = iter(equality_structures(t[equal]) if equal.any() else [])
    return [DdvvReport(lhs=lo, rhs=hi, ratio=q, equality=e,
                       extremal_structure=next(found) if e else None)
            for lo, hi, q, e in zip(lhs.tolist(), rhs.tolist(), ratio.tolist(), equal.tolist())]


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


def detect_equality(t) -> ExtremalStructure | None:
    """Recover the two-matrix mu-configuration from a (near-)equality tuple.

    Returns None when the ratio is below 1 - NEAR_EQUALITY; otherwise rotations and
    residuals quantifying the distance to the exact configuration.
    """
    t = as_tuple(t)
    m, n = t.shape[0], t.shape[1]
    if m < 2 or n < 2:
        return None
    _, rhs, ratio = ratio_terms(t)
    if rhs <= 0 or ratio < 1.0 - NEAR_EQUALITY:
        return None
    return equality_structures(t[None])[0]


def equality_structures(t: np.ndarray) -> list[ExtremalStructure]:
    """detect_equality's recovery for every tuple of an (R, m, n, n) stack past its gate
    (m, n >= 2, rhs > 0) at once, bit for bit; only the basis completion runs per tuple."""
    k, n = t.shape[0], t.shape[-1]
    total = np.einsum("...rij,...rij->...", t, t)

    # Normal rotation from the Gram spectrum: the two dominant directions
    # carry the active pair.
    vals, q = gram_frame(t)
    rot = np.einsum("krs,ksij->krij", q, t)
    a, b = rot[:, 0], rot[:, 1]
    offplane = np.sum(rot[:, 2:].reshape(k, -1) ** 2, axis=1)
    offplane_frac = np.sqrt(np.where(offplane > 0.0, offplane, 0.0)) / np.sqrt(total)

    # Active tangent plane: top-2 eigenspace of A^2 + B^2 (= 2 mu^2 projector
    # at exact equality).
    qvals, qvecs = np.linalg.eigh(a @ a + b @ b)
    plane = signfix(np.take_along_axis(qvecs, np.argsort(qvals)[:, :-3:-1][:, None], axis=2))

    # In-plane, traceless symmetric 2x2 matrices are x*diag(1,-1) + y*offdiag(1);
    # conjugating by the rotation R_phi spins (x, y) by -2 phi.  Park A at
    # (0, +) — the offdiagonal form — then reflect if B lands at (-, 0).
    a2 = np.swapaxes(plane, 1, 2) @ a @ plane
    xa, ya = (a2[:, 0, 0] - a2[:, 1, 1]) / 2.0, (a2[:, 0, 1] + a2[:, 1, 0]) / 2.0
    phi = (np.arctan2(ya, xa) - np.pi / 2.0) / 2.0
    cos, sin = np.cos(phi), np.sin(phi)
    plane = plane @ np.stack([cos, -sin, sin, cos], axis=1).reshape(k, 2, 2)
    b2 = np.swapaxes(plane, 1, 2) @ b @ plane
    flip = (b2[:, 0, 0] - b2[:, 1, 1]) / 2.0 < 0
    plane[flip] = plane[flip] @ np.array([[0.0, 1.0], [1.0, 0.0]])
    tangent = np.stack([_complete_basis(x) for x in plane]) if n > 2 else plane

    mu = vals[:, 0] + vals[:, 1]
    mu = np.sqrt(np.where(mu > 0.0, mu, 0.0)) / 2.0
    pair = np.zeros((k, 2, n, n))
    pair[:, 0, 0, 1] = pair[:, 0, 1, 0] = pair[:, 1, 0, 0] = mu
    pair[:, 1, 1, 1] = -mu
    canonical = np.zeros_like(t)
    canonical[:, :2] = tangent[:, None] @ pair @ np.swapaxes(tangent, 1, 2)[:, None]
    recon = np.einsum("ksr,ksij->krij", q, canonical)
    diff = (t - recon).reshape(k, -1)
    match_residual = np.sqrt(np.vecdot(diff, diff)) / np.sqrt(total)

    top = np.argsort(q[:, 0] ** 2 + q[:, 1] ** 2)[:, :-3:-1]
    return [ExtremalStructure(active=(int(min(i)), int(max(i))), mu=float(mu[j]),
                              normal_rotation=q[j], tangent_rotation=tangent[j],
                              offplane_frac=float(offplane_frac[j]),
                              match_residual=float(match_residual[j]))
            for j, i in enumerate(top)]


def maximize_ratio(n: int, m: int, seed=0, starts: int = 32,
                   iters: int = 2000) -> MaximizeResult:
    """Maximize lhs/rhs over tuples by projected gradient ascent.

    Multistart on the Frobenius unit sphere (rhs = 1 there, so the objective is the
    ratio itself), every start in one (starts, m, n, n) stack: starts m n^2 normals, in
    order, of random.Random(seed).gauss, each n x n block G made (G + G^T)/2; `seed` is
    None or an int >= 0, as for curvature.kmin_bracket.  Each start keeps the per-start
    rule: backtracking from step 0.1, halving while above 1e-16 until the first increase;
    it stops at ||tangent|| < 1e-16, at a failed line search, at relative improvement
    < 1e-14 or after `iters` steps, and then leaves the active set.  Degenerate shapes
    (m < 2 or n < 2) have ratio 0 and return immediately.
    """
    if starts < 1:
        raise ValueError(f"need starts >= 1, got {starts}")
    if iters < 0:
        raise ValueError(f"need iters >= 0, got {iters}")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or seed < 0):
        raise ValueError(f"seed must be None or an int >= 0, got {seed!r}")
    if m < 2 or n < 2:
        return MaximizeResult(tuple=np.zeros((max(m, 0), n, n)), ratio=0.0, history=[])
    def dot(a, b):  # per-tuple Frobenius products, (S, 1, 1, 1)
        return np.sum(a * b, axis=(1, 2, 3), keepdims=True)

    import random   # not numpy.random, which costs a process ~6 MB (secrets, OpenSSL)

    gauss = random.Random(seed).gauss
    g = np.fromiter(iter(gauss, None), float, starts * m * n * n).reshape(starts, m, n, n)
    t = (g + np.swapaxes(g, 2, 3)) / 2.0
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
    return MaximizeResult(tuple=best, ratio=ratio_terms(best)[2],
                          history=np.concatenate(vals)[order].tolist())
