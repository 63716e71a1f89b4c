"""Pointwise curvature of an n-submanifold in a space form of curvature c.

Everything is driven by FundamentalData: the ambient curvature c plus the
(p, n, n) stack of second fundamental form matrices H_alpha, one per normal
direction, expressed in an orthonormal tangent frame.  The Gauss equation

    R_ijkl = c (d_ik d_jl - d_il d_jk) + sum_a (h^a_ik h^a_jl - h^a_il h^a_jk)

builds the full curvature tensor; the normal curvature is the stack of
commutators [H_a, H_b]; the scalar invariants and the bracket of the minimum
sectional curvature K_min derive from those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .symmat import adj2, det2, negligible_trace, rotate_tuple, symmetrize_tuples

NEWTON_ITERS = 30   # step cap of the Riemannian Newton plane search in kmin_brackets
GAUSS_BYTES = 1 << 18   # bytes of the (R, n, n, n, n) Gauss tensors one kmin_brackets slice holds


@dataclass(frozen=True, eq=False)
class FundamentalData:
    """Second fundamental form of a submanifold point, in an adapted frame.

    forms[alpha] is the symmetric matrix (h^alpha_ij).  When mean_index is
    set, that member carries the whole mean curvature (trace n*H) and every
    other member is traceless — the frame with e_{mean} parallel to the mean
    curvature vector.  Validation also leaves the record's ScalarInvariants in
    `invariants` and the traces tr(H_alpha) in `traces`.  Arrays are treated
    as immutable once constructed.
    """

    n: int
    p: int
    c: float
    forms: np.ndarray
    mean_index: int | None = None
    invariants: ScalarInvariants = field(init=False, repr=False)
    traces: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        forms = np.asarray(self.forms, dtype=float)[None]  # a record alone: a stack of one
        self.__dict__.update(vars(self.stack(self.n, self.p, self.c, forms, self.mean_index)[0]))

    @classmethod
    def stack(cls, n: int, p: int, c: float, forms,
              mean_index: int | None = None) -> list[FundamentalData]:
        """One record per member of an (R, p, n, n) stack of forms, validated as one array.

        An error names the first failing check and its first bad record.
        """
        if n < 1 or p < 1:
            raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
        if not np.isfinite(c):
            raise ValueError(f"ambient curvature c must be finite, got c={c}")
        forms = np.asarray(forms, dtype=float)
        if forms.shape[1:] != (p, n, n):
            raise ValueError(f"forms must have shape ({p}, {n}, {n}), got {forms.shape[1:]}")
        if not np.isfinite(n * (n - 1) * c):  # the scalar curvature's ambient term
            raise ValueError(f"n(n-1)c overflows, got n={n}, c={c}")
        forms, s_total = symmetrize_tuples(forms)
        traces = np.einsum("raii->ra", forms)
        if mean_index is not None:
            if not 0 <= mean_index < p:
                raise ValueError(f"mean_index {mean_index} out of range for p={p}")
            size = np.max(np.abs(np.delete(traces, mean_index, axis=1)), axis=1, initial=0.0)
            bad = np.flatnonzero(~negligible_trace(size, forms))
            if bad.size:
                raise ValueError("mean_index set but another member has nonzero trace "
                                 f"(max {size[bad[0]]:.3e})")
        means = (np.sqrt(np.sum(traces**2, axis=1)) / n).tolist()
        s_h = ([None] * len(forms) if mean_index is None
               else np.sum(forms[:, mean_index] ** 2, axis=(1, 2)).tolist())
        records = [object.__new__(cls) for _ in forms]  # valid already: no __post_init__
        for record, member, tr, s, h, sh in zip(records, forms, traces, s_total.tolist(),
                                                means, s_h):
            inv = ScalarInvariants(S=s, H=h, S_H=sh, S_I=None if sh is None else s - sh,
                                   R_scal=n * (n - 1) * c + n**2 * h**2 - s)
            record.__dict__.update(n=n, p=p, c=c, forms=member, mean_index=mean_index,
                                   invariants=inv, traces=tr)
        return records

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


class ScalarInvariants(NamedTuple):
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


class Bracket(NamedTuple):
    """Certified interval: lo <= K_min <= hi."""

    lo: float
    hi: float


# -- tensors ------------------------------------------------------------------

def _gauss(forms: np.ndarray, c: float) -> np.ndarray:
    """R_ijkl of every record of an (R, p, n, n) stack sharing c, as (R, n, n, n, n)."""
    eye = np.eye(forms.shape[-1])
    const = c * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))
    quad = np.einsum("raik,rajl->rijkl", forms, forms)
    quad -= np.einsum("rail,rajk->rijkl", forms, forms)   # in place: one temporary of R n^4
    return np.add(quad, const, out=quad)


def riemann(data: FundamentalData) -> CurvatureTensor:
    """Gauss equation: curvature tensor of the induced metric."""
    return CurvatureTensor(data.n, _gauss(data.forms[None], data.c)[0])


def normal_curvature(data: FundamentalData) -> np.ndarray:
    """Normal curvature components R_{ab kl}, equal to the commutators [H_a, H_b].

    Shape (p, p, n, n); identically zero iff all the forms commute (flat
    normal bundle in a space form).
    """
    h = data.forms
    return np.einsum("aik,bil->abkl", h, h) - np.einsum("ail,bik->abkl", h, h)


def invariants(data: FundamentalData) -> ScalarInvariants:
    return data.invariants


def case_terms(data: FundamentalData, mean: bool) -> tuple[tuple[int, ...], float, float]:
    """(restriction, S~, ambient) of a pinching case, from the invariants of `data`: all
    normal directions, S and c (minimal), or the non-mean ones, S_I and c + H^2 (mean)."""
    inv = data.invariants
    if mean:
        return data.non_mean_indices(), inv.S_I, data.c + inv.H**2
    return tuple(range(data.p)), inv.S, data.c


# -- K_min bracketing ---------------------------------------------------------

def curvature_operator(tensor: CurvatureTensor) -> np.ndarray:
    """Matrix of the curvature operator on Lambda^2 in the basis e_i ^ e_j, i < j.

    Its smallest eigenvalue is a guaranteed lower bound for the sectional
    minimum, since K(u, v) is the operator's quadratic form at the unit
    decomposable 2-vector u ^ v.
    """
    return _operator(tensor.components[None])[0]


def _operator(components: np.ndarray) -> np.ndarray:
    """curvature_operator of every (n, n, n, n) tensor of an (R, n, n, n, n) stack."""
    i, j = np.triu_indices(components.shape[-1], 1)
    mat = components[:, i[:, None], j[:, None], i, j]
    return (mat + np.swapaxes(mat, 1, 2)) / 2.0


def _gram_schmidt(x: np.ndarray) -> np.ndarray:
    """Orthonormalize the two columns of every (n, 2) frame in a (S, n, 2) stack."""
    u = x[..., 0] / np.linalg.norm(x[..., 0], axis=-1, keepdims=True)
    v = x[..., 1] - np.sum(u * x[..., 1], axis=-1, keepdims=True) * u
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return np.stack([u, v], axis=-1)


def _frame_terms(forms: np.ndarray, x: np.ndarray):
    """H_a x as (S, p, n, 2), P_a = x^T H_a x as (S, p, 2, 2) and x^T x as (S, 2, 2), for
    (p, n, n) forms and S frames, or (S, p, n, n) forms and one frame per record."""
    xt = np.swapaxes(x, 1, 2)
    hx = forms @ x[:, None]
    return hx, xt[:, None] @ hx, xt @ x


def _frame_values(forms: np.ndarray, c: float, x: np.ndarray) -> np.ndarray:
    """R(u, v, u, v) for every frame x = [u v] of a (S, n, 2) stack, paired as _frame_terms.

    By the Gauss equation this is sum_a det(x^T H_a x) + c det(x^T x), i.e.
    sum_a [(u.H_a u)(v.H_a v) - (u.H_a v)^2] + c (|u|^2 |v|^2 - (u.v)^2):
    K(u, v) on orthonormal frames, at O(S p n^2) cost with no n^4 tensor.
    """
    _, pair, gram = _frame_terms(forms, x)
    return np.sum(det2(pair), axis=1) + c * det2(gram)


def _newton_terms(forms: np.ndarray, x: np.ndarray):
    """Riemannian gradient and Hessian of K on Gr(2, n) at orthonormal frames x.

    Tangent steps at x are Q B, with Q an orthonormal basis of x-perp and B an
    (n-2, 2) matrix.  With P_a = x^T H_a x, b_a = Q^T H_a x, A_a = Q^T H_a Q
    and K = sum_a det P_a + c, the geodesic x(t) = x + t Q B - t^2 x B^T B / 2
    + O(t^3) gives, by det(X + Y) = det X + tr(adj(X) Y) + det Y,
        gradient  g = 2 sum_a b_a adj(P_a),
        Hessian   sum_a [2 tr(adj(P_a) B^T A_a B) + 2 det(B^T b_a + b_a^T B)]
                  + 2 (c - K) tr(B^T B).
    B is flattened row-major into m = 2(n-2) coordinates, where the first term
    is the Kronecker form A_a (x) adj(P_a), 2 det(B^T b + b^T B) is the
    rank-three form 2 (vv^T - ww^T - zz^T) with v = vec b, w = vec(b diag(1, -1))
    and z = vec(b with its two columns swapped), and c - K = -sum_a det P_a.
    Returns (Q, g, Hessian).
    """
    s, m = len(x), 2 * (forms.shape[-1] - 2)
    q = np.linalg.qr(x, mode="complete")[0][..., 2:]
    qt = np.swapaxes(q, 1, 2)[:, None]
    hx, pair, _ = _frame_terms(forms, x)
    adj = adj2(pair)
    b = qt @ hx
    a = qt @ forms @ q[:, None]
    vwz = np.stack([b, b * np.array([1.0, -1.0]), b[..., ::-1]]).reshape(3, s, -1, m)
    hess = (np.einsum("sakl,saij->skilj", a, adj).reshape(s, m, m)
            + np.einsum("r,rsai,rsaj->sij", np.array([1.0, -1.0, -1.0]), vwz, vwz)
            - np.sum(det2(pair), axis=1)[:, None, None] * np.eye(m))
    return q, 2.0 * np.sum(b @ adj, axis=1), 2.0 * hess


def _descend_frames(forms: np.ndarray, c: float, x0: np.ndarray, iters: int) -> np.ndarray:
    """Safeguarded Riemannian Newton descent of K on Gr(2, n), all starts at once.

    Each step solves the Newton system of _newton_terms in the eigenbasis of
    one stacked eigh, with |lambda| floored at 1e-8 max|lambda|: along
    positive curvature it is the Newton step, along negative curvature (a
    saddle) it goes downhill at least unit length.  The step is capped at
    length 1, retracted by Gram-Schmidt, and halved at most 10 times until K
    decreases.  A start leaves the active set when the quadratic model
    predicts a gain below 1e-15 max(1, |K|) (its gradient is at round-off for
    the curvature's scale), when its line search fails, when its gain is
    below that bound, or after `iters` steps.  Returns the final value of
    every start.
    """
    x = _gram_schmidt(x0)
    f = _frame_values(forms, c, x)
    act = np.arange(len(x))
    for _ in range(iters):
        if not act.size:
            break
        xa, fa = x[act], f[act]
        q, g, hess = _newton_terms(forms, xa)
        lam, vec = np.linalg.eigh(hess)
        floor = np.maximum(1e-8 * np.max(np.abs(lam), axis=1, keepdims=True), np.finfo(float).tiny)
        coef = np.einsum("sji,sj->si", vec, g.reshape(len(xa), -1))
        d = -coef / np.maximum(np.abs(lam), floor)
        d = np.where(lam < -floor, np.copysign(np.maximum(np.abs(d), 1.0), d), d)
        gain = -np.sum(d * (coef + 0.5 * lam * d), axis=1)
        d /= np.maximum(1.0, np.linalg.norm(d, axis=1, keepdims=True))
        step = q @ (vec @ d[..., None]).reshape(g.shape)
        tol = 1e-15 * np.maximum(1.0, np.abs(fa))
        moving = gain > tol
        xn, fn = xa.copy(), fa.copy()
        search, t = np.flatnonzero(moving), 1.0
        for _ in range(11):
            if not search.size:
                break
            cand = _gram_schmidt(xa[search] + t * step[search])
            fc = _frame_values(forms, c, cand)
            better = fc < fa[search]
            xn[search[better]], fn[search[better]] = cand[better], fc[better]
            search = search[~better]
            t /= 2.0
        x[act], f[act] = xn, fn
        act = act[moving & (fn < fa - tol)]
    return f


# Hodge star on Lambda^2 R^4 in the basis order e_i ^ e_j, i < j (12, 13, 14, 23, 24, 34):
# 12 <-> 34 and 14 <-> 23 with +1, 13 <-> 24 with -1.  <w, *w> is twice the
# Pluecker form w12 w34 - w13 w24 + w14 w23, which vanishes iff w = u ^ v.
_HODGE4 = np.fliplr(np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]))


def _nearest_planes(w: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal (n, 2) frame of the plane nearest each 2-vector of an (R, N) stack.

    The top singular pair of w's skew matrix spans it; for a decomposable
    w = u ^ v that plane is span(u, v) itself.
    """
    i, j = np.triu_indices(n, 1)
    skew = np.zeros((len(w), n, n))
    skew[:, i, j], skew[:, j, i] = w, -w
    return np.swapaxes(np.linalg.svd(skew)[2][:, :2], 1, 2)


def _thorpe(op: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max_t lambda_min(op + t *) on Lambda^2 R^4 and a bottom eigenvector there, for every
    operator of an (R, 6, 6) stack with ascending eigenvalues vals.

    Every decomposable unit w has <w, *w> = 0, so each f(t) = lambda_min(op + t *)
    bounds K_min from below (Thorpe's trick).  f is concave and, since * has
    eigenvalues +-1, f(t) < f(0) once |t| > lambda_max(op) - lambda_min(op).  A
    unit bottom eigenvector w gives the supergradient <w, *w>, so bisection on
    its sign closes on the maximizer; 53 halvings reach ulp(T), or a slope of
    exactly 0 stops that operator.  Returns the largest f seen (t = 0 included,
    as vals[:, 0], which a tie keeps) and the eigenvector there.
    """
    a = -(vals[:, -1] - vals[:, 0])
    b, best, w, act = -a, np.full(len(op), -np.inf), np.zeros(op.shape[:2]), np.arange(len(op))
    for _ in range(53):
        if not act.size:
            break
        t = (a[act] + b[act]) / 2.0
        lam, vec = np.linalg.eigh(op[act] + t[:, None, None] * _HODGE4)
        up = lam[:, 0] > best[act]
        best[act[up]], w[act[up]] = lam[up, 0], vec[up, :, 0]
        slope = ((vec[..., 0] @ _HODGE4)[:, None] @ vec[..., :1])[:, 0, 0]
        a[act], b[act] = np.where(slope > 0.0, t, a[act]), np.where(slope > 0.0, b[act], t)
        act = act[slope != 0.0]
    return np.where(best > vals[:, 0], best, vals[:, 0]), w


def kmin_brackets(forms: np.ndarray, c: float, budget: int = 64, seed=0) -> list[Bracket]:
    """Certified brackets lo <= K_min <= hi of the minimal sectional curvature, one per
    record of an (R, p, n, n) stack of forms sharing c.

    lo starts as the smallest eigenvalue of the curvature operator on
    Lambda^2 (K(u, v) is its quadratic form at the unit 2-vector u ^ v); hi is
    K of an explicit plane, evaluated from the forms.  At n = 2 lo is K of the
    only plane (e1, e2).  At n >= 3 hi is K of the plane nearest the bottom
    eigenvector, and lo is the operator bound, raised at n = 4 to Thorpe's
    bound (see _thorpe; the eigenvector is then the one at its maximizer).
    Only when that bracket is wider than 1e-12 max(1, |hi|) does a search
    run: at n = 3 (every 2-vector is a plane) only round-off leaves it open,
    at n = 4 a multiple bottom eigenvalue can, at n >= 5 any plane missing
    the operator bound.  The search is one batched Riemannian Newton descent
    (_descend_frames, at most NEWTON_ITERS steps) over every coordinate
    plane, `budget` random orthonormal 2-frames and the closed-form plane.
    All but the search run on the stack at once, in slices whose Gauss
    tensors fit GAUSS_BYTES; the search runs per open record.

    Each open record's random frames are `budget * n * 2` standard normals, in
    order, from CPython's `random.Random(seed).gauss`: frame k depends only on
    the seed and k, so a larger budget only appends starts.  `seed` is None
    (fresh OS entropy) or a non-negative int; anything else raises ValueError.
    """
    n = forms.shape[-1]
    if n < 2:
        raise ValueError("sectional curvature needs n >= 2")
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or seed < 0):
        raise ValueError(f"seed must be None or an int >= 0, got {seed!r}")
    size, brackets = max(1, GAUSS_BYTES // (8 * n**4)), []
    for part in (forms[s:s + size] for s in range(0, len(forms), size)):
        op = _operator(_gauss(part, c))
        vals = np.linalg.eigvalsh(op)
        lo = hi = vals[:, 0]   # n = 2: the one plane's K is the operator bound
        if n > 2:
            lo, w = _thorpe(op, vals) if n == 4 else (lo, np.linalg.eigh(op)[1][..., 0])
            closed = _nearest_planes(w, n)
            hi = _frame_values(part, c, closed)
            for k in np.flatnonzero(hi - lo > 1e-12 * np.maximum(1.0, np.abs(hi))):
                import random   # not numpy.random, which costs a check ~6 MB (secrets, OpenSSL)
                starts = [np.stack([np.eye(n)[i] for i in np.triu_indices(n, 1)], axis=-1),
                          np.fromiter(iter(random.Random(seed).gauss, None), float,
                                      budget * n * 2).reshape(budget, n, 2), closed[k:k + 1]]
                hi[k] = min(hi[k], np.min(_descend_frames(part[k], c, np.concatenate(starts),
                                                          NEWTON_ITERS)))
        # hi, a sectional value, is >= lo up to a few ulp of round-off: clamp it to lo
        brackets += [Bracket(lo=a, hi=max(a, b)) for a, b in zip(lo.tolist(), hi.tolist())]
    return brackets


def kmin_bracket(data: FundamentalData, budget: int = 64, seed=0) -> Bracket:
    """kmin_brackets of one record, its forms a stack of one: lo <= K_min <= hi."""
    return kmin_brackets(data.forms[None], data.c, budget, seed)[0]


# -- frame normalization ------------------------------------------------------

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
    # Householder reflection along w = tau + s e_0, s = sign(tau_0): |w| >= 1, so nothing
    # cancels.  It maps tau to -s e_0, so row 0 of q, scaled by -s, is tau and member 0
    # has trace tau . traces = |traces| > 0 (the determinant's sign is irrelevant).
    tau = traces / norm
    s = 1.0 if tau[0] >= 0 else -1.0
    w = tau.copy()
    w[0] += s
    q = np.eye(data.p) - 2.0 * np.outer(w, w) / (w @ w)
    q[0] *= -s
    return FundamentalData(n=data.n, p=data.p, c=data.c, forms=rotate_tuple(data.forms, q),
                           mean_index=0)

