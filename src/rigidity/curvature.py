"""Pointwise curvature of an n-submanifold in a space form of curvature c.

Everything is driven by FundamentalData: the ambient curvature c plus the
(p, n, n) stack of second fundamental form matrices H_alpha, one per normal
direction, expressed in an orthonormal tangent frame.  The Gauss equation

    R_ijkl = c (d_ik d_jl - d_il d_jk) + sum_a (h^a_ik h^a_jl - h^a_il h^a_jk)

builds the full curvature tensor; the normal curvature is the stack of
commutators [H_a, H_b]; sectional curvatures, scalar invariants and the
K_min bracket derive from those.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .symmat import rotate_tuple, seed_sequence, signfix, symmetrize

TRACE_TOL = 1e-10


def negligible_trace(size: float, forms: np.ndarray, tol: float = TRACE_TOL) -> bool:
    """Whether a trace magnitude (chosen by the caller) is zero at scale max(1, n max|h|)."""
    return float(size) <= tol * max(1.0, float(np.max(np.abs(forms))) * forms.shape[-1])


@dataclass(frozen=True, eq=False)
class FundamentalData:
    """Second fundamental form of a submanifold point, in an adapted frame.

    forms[alpha] is the symmetric matrix (h^alpha_ij).  When mean_index is
    set, that member carries the whole mean curvature (trace n*H) and every
    other member is traceless — the frame with e_{mean} parallel to the mean
    curvature vector.  Arrays are treated as immutable once constructed.
    """

    n: int
    p: int
    c: float
    forms: np.ndarray
    mean_index: int | None = None

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError(f"need n >= 1 and p >= 1, got n={self.n}, p={self.p}")
        forms = np.asarray(self.forms, dtype=float)
        if forms.shape != (self.p, self.n, self.n):
            raise ValueError(
                f"forms must have shape ({self.p}, {self.n}, {self.n}), got {forms.shape}"
            )
        forms = symmetrize(forms)
        object.__setattr__(self, "forms", forms)
        if self.mean_index is not None:
            if not 0 <= self.mean_index < self.p:
                raise ValueError(f"mean_index {self.mean_index} out of range for p={self.p}")
            others = np.delete(np.einsum("aii->a", forms), self.mean_index)
            if others.size and not negligible_trace(np.max(np.abs(others)), forms):
                raise ValueError(
                    "mean_index set but another member has nonzero trace "
                    f"(max {np.max(np.abs(others)):.3e})"
                )

    def __eq__(self, other):
        if not isinstance(other, FundamentalData):
            return NotImplemented
        return (
            self.n == other.n
            and self.p == other.p
            and self.c == other.c
            and self.mean_index == other.mean_index
            and np.array_equal(self.forms, other.forms)
        )

    @property
    def traces(self) -> np.ndarray:
        return np.einsum("aii->a", self.forms)

    def non_mean_indices(self) -> tuple[int, ...]:
        """Normal indices excluding the mean direction (all, if unset)."""
        if self.mean_index is None:
            return tuple(range(self.p))
        return tuple(i for i in range(self.p) if i != self.mean_index)

    def restriction(self, restrict=None) -> tuple[int, ...]:
        """Validated normal indices of `restrict`: distinct, in range; all when None."""
        if restrict is None:
            return tuple(range(self.p))
        idx = tuple(int(i) for i in restrict)
        if len(set(idx)) != len(idx) or any(not 0 <= i < self.p for i in idx):
            raise ValueError(f"restriction indices out of range or repeated: {restrict}")
        return idx


@dataclass(frozen=True, eq=False)
class CurvatureTensor:
    """Full R_ijkl component array of the induced metric, shape (n, n, n, n)."""

    n: int
    components: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        if comp.shape != (self.n,) * 4:
            raise ValueError(f"components must have shape {(self.n,) * 4}, got {comp.shape}")
        object.__setattr__(self, "components", comp)


@dataclass(frozen=True, eq=False)
class PlaneSpec:
    """A tangent 2-plane spanned by two linearly independent n-vectors."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.ndim != 1 or u.shape != v.shape:
            raise ValueError("plane vectors must be equal-length 1-d arrays")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        gram = u @ u * (v @ v) - (u @ v) ** 2
        if gram <= 1e-12:
            raise ValueError(f"plane vectors are (nearly) dependent: Gram determinant {gram:.3e}")


@dataclass(frozen=True)
class ScalarInvariants:
    """S = sum ||H_a||^2, mean curvature H, and the derived scalars.

    S_H / S_I (squared norm of the mean-direction form and of the rest) are
    only meaningful in a mean-aligned frame and stay None without mean_index.
    R_scal is the scalar curvature n(n-1)c + n^2 H^2 - S.
    """

    S: float
    H: float
    S_H: float | None
    S_I: float | None
    R_scal: float


@dataclass(frozen=True)
class Bracket:
    """Certified interval: lo <= K_min <= hi."""

    lo: float
    hi: float


# -- tensors ------------------------------------------------------------------

def riemann(data: FundamentalData) -> CurvatureTensor:
    """Gauss equation: curvature tensor of the induced metric."""
    n, c, h = data.n, data.c, data.forms
    eye = np.eye(n)
    const = c * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))
    quad = np.einsum("aik,ajl->ijkl", h, h) - np.einsum("ail,ajk->ijkl", h, h)
    return CurvatureTensor(n, const + quad)


def normal_curvature(data: FundamentalData) -> np.ndarray:
    """Normal curvature components R_{ab kl}, equal to the commutators [H_a, H_b].

    Shape (p, p, n, n); identically zero iff all the forms commute (flat
    normal bundle in a space form).
    """
    h = data.forms
    return np.einsum("aik,bil->abkl", h, h) - np.einsum("ail,bik->abkl", h, h)


def sectional(tensor: CurvatureTensor, plane: PlaneSpec) -> float:
    """K(u, v) = R(u, v, u, v) / (|u|^2 |v|^2 - <u, v>^2)."""
    u, v = plane.u, plane.v
    if u.shape != (tensor.n,):
        raise ValueError(f"plane lives in dimension {u.shape[0]}, tensor in {tensor.n}")
    num = float(np.einsum("ijkl,i,j,k,l->", tensor.components, u, v, u, v))
    den = float(u @ u * (v @ v) - (u @ v) ** 2)
    return num / den


def invariants(data: FundamentalData) -> ScalarInvariants:
    h = data.forms
    n = data.n
    s_total = float(np.einsum("aij,aij->", h, h))
    traces = data.traces
    mean = float(np.sqrt(np.sum(traces**2))) / n
    s_h = s_i = None
    if data.mean_index is not None:
        s_h = float(np.sum(h[data.mean_index] ** 2))
        s_i = s_total - s_h
    r_scal = n * (n - 1) * data.c + n**2 * mean**2 - s_total
    return ScalarInvariants(S=s_total, H=mean, S_H=s_h, S_I=s_i, R_scal=r_scal)


# -- K_min bracketing ---------------------------------------------------------

def _pair_basis(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def curvature_operator(tensor: CurvatureTensor) -> np.ndarray:
    """Matrix of the curvature operator on Lambda^2 in the basis e_i ^ e_j, i < j.

    Its smallest eigenvalue is a guaranteed lower bound for the sectional
    minimum, since K(u, v) is the operator's quadratic form at the unit
    decomposable 2-vector u ^ v.
    """
    pairs = _pair_basis(tensor.n)
    comp = tensor.components
    mat = np.array([[comp[i, j, k, l] for (k, l) in pairs] for (i, j) in pairs])
    return (mat + mat.T) / 2.0


def _gram_schmidt(x: np.ndarray) -> np.ndarray:
    """Orthonormalize the two columns of every (n, 2) frame in a (S, n, 2) stack."""
    u = x[..., 0] / np.linalg.norm(x[..., 0], axis=-1, keepdims=True)
    v = x[..., 1] - np.sum(u * x[..., 1], axis=-1, keepdims=True) * u
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return np.stack([u, v], axis=-1)


def _frame_terms(data: FundamentalData, x: np.ndarray):
    """H_a x as (S, p, n, 2), P_a = x^T H_a x as (S, p, 2, 2) and x^T x as (S, 2, 2)."""
    xt = np.swapaxes(x, 1, 2)
    hx = data.forms @ x[:, None]
    return hx, xt[:, None] @ hx, xt @ x


def _det2(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _adj2(m: np.ndarray) -> np.ndarray:
    return np.stack([np.stack([m[..., 1, 1], -m[..., 0, 1]], axis=-1),
                     np.stack([-m[..., 1, 0], m[..., 0, 0]], axis=-1)], axis=-2)


def _frame_values(data: FundamentalData, x: np.ndarray) -> np.ndarray:
    """R(u, v, u, v) for every frame x = [u v] of a (S, n, 2) stack.

    By the Gauss equation this is sum_a det(x^T H_a x) + c det(x^T x), i.e.
    sum_a [(u.H_a u)(v.H_a v) - (u.H_a v)^2] + c (|u|^2 |v|^2 - (u.v)^2):
    K(u, v) on orthonormal frames, at O(S p n^2) cost with no n^4 tensor.
    """
    _, pair, gram = _frame_terms(data, x)
    return np.sum(_det2(pair), axis=1) + data.c * _det2(gram)


def _frame_grads(data: FundamentalData, x: np.ndarray) -> np.ndarray:
    """Euclidean gradient of R(u, v, u, v) in x, (S, n, 2).

    d det(x^T H x) = 2 tr(adj(x^T H x) x^T H dx) for symmetric H, so the
    gradient is 2 sum_a H_a x adj(P_a) + 2 c x adj(x^T x).
    """
    hx, pair, gram = _frame_terms(data, x)
    return 2.0 * (np.sum(hx @ _adj2(pair), axis=1) + data.c * (x @ _adj2(gram)))


def _descend_frames(data: FundamentalData, x0: np.ndarray, iters: int) -> np.ndarray:
    """Projected gradient descent of K over orthonormal 2-frames, all starts at once.

    Each start follows its own rule: step 0.1 halved down to 1e-17 until the
    first improvement; it stops at ||tangent|| < 1e-14, at a gain below 1e-12,
    or after `iters` steps, and then leaves the active set.  Returns the final
    value of every start.
    """
    x = _gram_schmidt(x0)
    f = _frame_values(data, x)
    act = np.arange(len(x))
    for _ in range(iters):
        if not act.size:
            break
        xa, fa = x[act], f[act]
        g = _frame_grads(data, xa)
        sym = np.swapaxes(xa, 1, 2) @ g
        tang = g - xa @ ((sym + np.swapaxes(sym, 1, 2)) / 2.0)
        moving = np.linalg.norm(tang, axis=(1, 2)) >= 1e-14
        xn, fn = xa.copy(), fa.copy()
        search = np.flatnonzero(moving)
        step = 0.1
        while search.size and step > 1e-17:
            cand = _gram_schmidt(xa[search] - step * tang[search])
            fc = _frame_values(data, cand)
            better = fc < fa[search]
            xn[search[better]], fn[search[better]] = cand[better], fc[better]
            search = search[~better]
            step /= 2.0
        x[act], f[act] = xn, fn
        act = act[moving & (fn < fa - 1e-12)]
    return f


def kmin_bracket(data: FundamentalData, budget: int = 64, seed=0,
                 iters: int = 200) -> Bracket:
    """Certified bracket lo <= K_min <= hi for the minimal sectional curvature.

    lo is the smallest eigenvalue of the curvature operator on Lambda^2 (a
    guaranteed lower bound); hi is the best sectional value found by one
    batched projected gradient descent over every coordinate plane plus
    `budget` random orthonormal 2-frames, evaluated straight from the forms,
    so it is attained by an explicit plane.
    """
    if data.n < 2:
        raise ValueError("sectional curvature needs n >= 2")
    tensor = riemann(data)
    lo = float(np.linalg.eigvalsh(curvature_operator(tensor))[0])

    eye = np.eye(data.n)
    starts = ([np.column_stack([eye[i], eye[j]]) for (i, j) in _pair_basis(data.n)]
              + [np.random.default_rng(child).normal(size=(data.n, 2))
                 for child in seed_sequence(seed).spawn(max(0, budget))])
    hi = float(np.min(_descend_frames(data, np.stack(starts), iters)))
    # hi is a sectional value, so hi >= K_min >= lo up to evaluation round-off;
    # clamp the few-ulp drift so the bracket invariant holds exactly.
    return Bracket(lo=lo, hi=max(lo, hi))


# -- frame normalizations -----------------------------------------------------

def align_mean_frame(data: FundamentalData) -> FundamentalData:
    """Rotate the normal frame so the mean curvature sits in one member.

    Output member 0 has trace n*H > 0 and every other member is traceless;
    mean_index is set to 0.  Data that is already aligned is returned
    unchanged; (near-)minimal data comes back with mean_index unset.
    """
    if data.mean_index is not None:
        return data
    traces = data.traces
    norm = float(np.linalg.norm(traces))
    if negligible_trace(norm, data.forms):
        return data
    tau = traces / norm
    # Householder reflection mapping tau to e_0, negated into a rotation-like
    # orthogonal q with first row tau (determinant sign is irrelevant here).
    e0 = np.zeros(data.p)
    e0[0] = 1.0
    w = tau - e0
    wn = float(w @ w)
    if wn < 1e-30:
        q = np.eye(data.p)
    else:
        q = np.eye(data.p) - 2.0 * np.outer(w, w) / wn
    forms = rotate_tuple(data.forms, q)
    if forms[0].trace() < 0:  # enforce the positive-trace convention
        q = q.copy()
        q[0] = -q[0]
        forms = rotate_tuple(data.forms, q)
    return FundamentalData(n=data.n, p=data.p, c=data.c, forms=forms, mean_index=0)


def gram_diagonalize(data: FundamentalData, restrict=None) -> FundamentalData:
    """Rotate (part of) the normal frame so tr(H_a H_b) is diagonal there.

    restrict defaults to every non-mean index; the mean member, when present,
    must stay fixed and may not be listed.  Rotated slots keep their
    positions, reordered by descending Gram eigenvalue with a deterministic
    eigenvector sign fix.
    """
    idx = data.non_mean_indices() if restrict is None else data.restriction(restrict)
    if data.mean_index in idx:
        raise ValueError("the mean member cannot be Gram-diagonalized away")
    if not idx:
        return data
    sub = data.forms[list(idx)]
    gram = np.einsum("aij,bij->ab", sub, sub)
    vals, vecs = np.linalg.eigh(gram)
    order = np.argsort(vals)[::-1]
    vecs = signfix(vecs[:, order])
    rotated = rotate_tuple(sub, vecs.T)
    forms = data.forms.copy()
    for slot, mat in zip(idx, rotated):
        forms[slot] = mat
    return FundamentalData(n=data.n, p=data.p, c=data.c, forms=forms,
                           mean_index=data.mean_index)


def replace(data: FundamentalData, **kw) -> FundamentalData:
    """dataclasses.replace that tolerates the frozen array field."""
    return dataclasses.replace(data, **kw)
