"""Symmetric-matrix kernels shared by every higher module.

A "tuple" here is an (m, n, n) numpy stack of real symmetric matrices sharing
one dimension n; orthogonal m x m matrices act on the stack index, orthogonal
n x n matrices conjugate each member.  All functions are pure and operate on
plain float arrays.
"""

from __future__ import annotations

import numpy as np

# Inputs sourced from files or finite differences carry round-off, so symmetry
# is checked to a relative gate and then enforced exactly.
SYMMETRY_RTOL = 1e-9
ORTHOGONALITY_TOL = 1e-10


def symmetrize(a: np.ndarray, tol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Validate a square matrix or an (..., n, n) stack and return (A + A^T)/2.

    Entries must be finite and satisfy |a_ij - a_ji| <= tol * max(1, max|a_ij|)
    per matrix; anything worse is treated as corrupt input rather than
    round-off, and the error describes the first bad matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix of dimension >= 1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    at = np.swapaxes(a, -1, -2)
    bound = tol * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    skew = np.max(np.abs(a - at), axis=(-2, -1))
    bad = np.flatnonzero(skew > bound)
    if bad.size:
        first = np.unravel_index(bad[0], skew.shape)
        raise ValueError(f"matrix is not symmetric: max |a_ij - a_ji| = {skew[first]:.3e} "
                         f"exceeds {bound[first]:.3e}")
    return (a + at) / 2.0


def as_tuple(mats, dim: int | None = None) -> np.ndarray:
    """Stack matrices into a validated, symmetrized (m, n, n) tuple.

    An empty input needs an explicit dim to fix the shared dimension.
    """
    if isinstance(mats, np.ndarray) and mats.ndim == 3:
        stack = mats
    else:
        mats = list(mats)
        if not mats:
            if dim is None:
                raise ValueError("empty tuple needs an explicit matrix dimension")
            return np.zeros((0, dim, dim))
        stack = np.stack([np.asarray(m, dtype=float) for m in mats])
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected an (m, n, n) stack, got shape {stack.shape}")
    if dim is not None and stack.shape[1] != dim:
        raise ValueError(f"tuple dimension {stack.shape[1]} does not match required {dim}")
    if stack.shape[0] == 0:
        return np.asarray(stack, dtype=float)
    return symmetrize(stack)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA; skew-symmetric whenever A, B are symmetric."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"commutator needs two equal square matrices, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def frob_norm_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm sum_ij a_ij^2 (np.sum is pairwise-accurate)."""
    a = np.asarray(a, dtype=float)
    return float(np.sum(a * a))


def trace_product(mats) -> float:
    """tr(M_1 M_2 ... M_k) for a nonempty list of equal-dimension matrices."""
    mats = [np.asarray(m, dtype=float) for m in mats]
    if not mats:
        raise ValueError("trace_product needs at least one matrix")
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ValueError("trace_product matrices must share one square dimension")
    prod = mats[0]
    for m in mats[1:]:
        prod = prod @ m
    return float(np.trace(prod))


def rotate_tuple(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Act on the stack index: B'_r = sum_s q_rs B_s for orthogonal q."""
    t = np.asarray(t, dtype=float)
    q = np.asarray(q, dtype=float)
    if t.ndim != 3:
        raise ValueError(f"expected an (m, n, n) tuple, got shape {t.shape}")
    m = t.shape[0]
    if q.shape != (m, m):
        raise ValueError(f"rotation must be {m} x {m} to match the tuple, got {q.shape}")
    defect = np.linalg.norm(q.T @ q - np.eye(m))
    if defect > ORTHOGONALITY_TOL:
        raise ValueError(f"rotation is not orthogonal: ||q^T q - I||_F = {defect:.3e}")
    return np.einsum("rs,sij->rij", q, t)


def commutes(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether [A, B] vanishes, relative to the scale ||A|| ||B||."""
    scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
    return frob_norm_sq(commutator(a, b)) <= (tol * scale) ** 2


def signfix(v: np.ndarray) -> np.ndarray:
    """Flip signs so each column of v (v itself, if 1-d) has its largest-|.| entry positive.

    Ties go to the first entry; a zero column is left as is.  This fixes the
    sign freedom of eigenvectors and frame vectors deterministically.
    """
    v = np.asarray(v, dtype=float)
    lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=0)[None], axis=0)
    return np.where(lead < 0, -v, v)


def sgn(x) -> int:
    """Standard sign: -1, 0, or +1 (sgn(0) = 0)."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


# -- seeded random instances --------------------------------------------------

def seed_sequence(seed) -> np.random.SeedSequence:
    """A SeedSequence as is; anything else (int, None, entropy list) wrapped in one."""
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def random_tuple(dim: int, count: int, seed=0, scale: float = 1.0,
                 traceless: bool = False) -> np.ndarray:
    """(count, dim, dim) stack of symmetrized Gaussian matrices from one generator.

    Deterministic per seed (a Generator is used as is); traceless removes
    each member's trace part.
    """
    g = np.random.default_rng(seed).normal(size=(count, dim, dim)) * scale
    t = (g + np.swapaxes(g, 1, 2)) / 2.0
    if traceless:
        t -= (np.trace(t, axis1=1, axis2=2) / dim)[:, None, None] * np.eye(dim)
    return t
