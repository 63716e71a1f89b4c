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
TRACE_TOL = 1e-10


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Validate a square matrix or an (..., n, n) stack and return (A + A^T)/2.

    Entries must be finite and satisfy |a_ij - a_ji| <= SYMMETRY_RTOL * max(1, max|a_ij|)
    per matrix; anything worse is treated as corrupt input rather than
    round-off, and the error describes the first bad matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix of dimension >= 1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    at = np.swapaxes(a, -1, -2)
    bound = SYMMETRY_RTOL * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    skew = np.max(np.abs(a - at), axis=(-2, -1))
    bad = np.flatnonzero(skew > bound)
    if bad.size:
        first = np.unravel_index(bad[0], skew.shape)
        raise ValueError(f"matrix is not symmetric: max |a_ij - a_ji| = {skew[first]:.3e} "
                         f"exceeds {bound[first]:.3e}")
    return (a + at) / 2.0


def as_tuple(mats) -> np.ndarray:
    """Stack one or more matrices into a validated, symmetrized (m, n, n) tuple."""
    stack = np.asarray(mats, dtype=float)
    if stack.ndim != 3 or not stack.shape[0] or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected an (m, n, n) stack of m >= 1 matrices, got shape {stack.shape}")
    return symmetrize_tuples(stack[None])[0][0]


def symmetrize_tuples(a) -> tuple[np.ndarray, np.ndarray]:
    """symmetrize an (R, m, n, n) stack, and each tuple's S = sum_r ||B_r||^2; a tuple whose
    S^2 overflows is rejected, as S^2 bounds every product of two of its entries."""
    with np.errstate(over="ignore"):
        sym = symmetrize(a)
        s = np.einsum("raij,raij->r", sym, sym)
        bad = np.flatnonzero(~np.isfinite(s ** 2))
    if bad.size:
        raise ValueError("forms too large: S^2 overflows "
                         f"(max |h_ij| = {np.max(np.abs(a[bad[0]])):.3e})")
    return sym, s


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


def negligible_trace(size, forms: np.ndarray, tol: float = TRACE_TOL):
    """Whether a trace magnitude (chosen by the caller) is zero at scale max(1, n max|h|);
    record by record for a (..., p, n, n) stack of forms and sizes of shape (...)."""
    scale = np.max(np.abs(forms), axis=(-3, -2, -1)) * forms.shape[-1]
    return size <= tol * np.maximum(1.0, scale)


def det2(m: np.ndarray) -> np.ndarray:
    """The determinant of every 2 x 2 matrix of an (..., 2, 2) stack."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def adj2(m: np.ndarray) -> np.ndarray:
    """The adjugate [[d, -b], [-c, a]] of every 2 x 2 matrix [[a, b], [c, d]] of a stack."""
    return np.stack([np.stack([m[..., 1, 1], -m[..., 0, 1]], axis=-1),
                     np.stack([-m[..., 1, 0], m[..., 0, 0]], axis=-1)], axis=-2)


def signfix(v: np.ndarray) -> np.ndarray:
    """Flip signs so each column of v (v itself, if 1-d; each matrix's columns, for an
    (..., n, k) stack) has its largest-|.| entry positive.

    Ties go to the first entry; a zero column is left as is.  This fixes the
    sign freedom of eigenvectors and frame vectors deterministically.
    """
    v = np.asarray(v, dtype=float)
    axis = 0 if v.ndim == 1 else -2
    lead = np.take_along_axis(v, np.expand_dims(np.argmax(np.abs(v), axis=axis), axis), axis)
    return np.where(lead < 0, -v, v)


def gram_frame(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram eigenframe of an (..., m, n, n) stack: the eigenvalues of tr(B_r B_s), descending,
    and their sign-fixed eigenvectors as the rows q of an orthogonal (..., m, m) rotation."""
    vals, vecs = np.linalg.eigh(np.einsum("...rij,...sij->...rs", t, t))
    order = np.argsort(vals)[..., ::-1]
    q = signfix(np.take_along_axis(vecs, order[..., None, :], axis=-1))
    return np.take_along_axis(vals, order, axis=-1), np.swapaxes(q, -1, -2)
