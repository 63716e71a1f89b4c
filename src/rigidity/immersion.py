"""Second fundamental forms of explicit immersions, from exact second jets.

An ImmersionSpec wraps a parametric map R^n -> R^N (into Euclidean space or a
round sphere).  A batch of parameter points goes through one kernel.  The map
is called once for the whole batch, on degree-2 Taylor numbers along e_i and
e_i + e_j, which gives F, the Jacobian and the Hessian at every point with no
step-size error (Griewank, Utke and Walther, Math. Comp. 2000).  One stacked
eigh whitens the metrics, a vectorized pivoted Gram-Schmidt builds tangent
and normal frames deterministically, and each point yields its (p, n, n)
stack of form matrices: a FundamentalData instance that feeds every other
module.  A map that rejects the Taylor numbers gets central differences along
the same directions instead, at DEFAULT_STEP: 1 + n(n+1) map calls per point,
O(h^2), and the same Hessian assembly.
"""

from __future__ import annotations

import itertools
import numbers
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curvature import FundamentalData
from .symmat import signfix

DEFAULT_STEP = 1e-4   # central-difference step for maps that reject Taylor numbers


@dataclass(frozen=True)
class Ambient:
    """Target space: flat R^N or the round sphere of a given radius."""

    kind: str                 # "euclidean" | "sphere"
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in ("euclidean", "sphere"):
            raise ValueError(f"unknown ambient kind {self.kind!r}")
        if self.kind == "sphere" and self.radius <= 0:
            raise ValueError(f"sphere radius must be positive, got {self.radius}")

    @property
    def curvature(self) -> float:
        return 0.0 if self.kind == "euclidean" else 1.0 / self.radius**2


@dataclass(frozen=True)
class ImmersionSpec:
    """Parametric immersion u in R^n -> F(u) in R^N with sampling bounds."""

    map: Callable[[np.ndarray], np.ndarray]
    n: int
    N: int
    ambient: Ambient
    bounds: tuple

    @property
    def p(self) -> int:
        """Normal rank: N - n, minus one radial direction inside a sphere."""
        spent = self.n + (1 if self.ambient.kind == "sphere" else 0)
        return self.N - spent


@dataclass(frozen=True, eq=False)
class PointSample:
    """One evaluated parameter point: frames plus the extracted FundamentalData."""

    params: np.ndarray      # (n,)
    position: np.ndarray    # (N,)
    tangent: np.ndarray     # (n, N) orthonormal rows
    normal: np.ndarray      # (p, N) orthonormal rows
    data: FundamentalData

    def __eq__(self, other):
        if not isinstance(other, PointSample):
            return NotImplemented
        return (np.array_equal(self.params, other.params)
                and np.array_equal(self.position, other.position)
                and np.array_equal(self.tangent, other.tangent)
                and np.array_equal(self.normal, other.normal)
                and self.data == other.data)


class _Jet:
    """Degree-2 univariate Taylor numbers c0 + c1·t + c2·t², one per direction and point.

    c0 has shape (P,) over the points; c1 and c2 have shape (D, P) over the
    directions and points.  Parametric maps run on them unmodified as long as
    they use + - ×, / by a real, and numpy's sin and cos.  Anything else,
    including a branch on the value, raises TypeError, which tells the caller
    to fall back to differences.
    """

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0, c1, c2):
        self.c0, self.c1, self.c2 = c0, c1, c2

    def _no_value(self, *_):
        raise TypeError("a batch of Taylor numbers has no single truth value")

    __bool__ = __eq__ = __ne__ = _no_value

    def __add__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)
        if isinstance(other, numbers.Real):
            return _Jet(self.c0 + other, self.c1, self.c2)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _Jet(-self.c0, -self.c1, -self.c2)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.c0 * other.c0,
                        self.c0 * other.c1 + self.c1 * other.c0,
                        self.c0 * other.c2 + self.c1 * other.c1 + self.c2 * other.c0)
        if isinstance(other, numbers.Real):
            return _Jet(self.c0 * other, self.c1 * other, self.c2 * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return _Jet(self.c0 / other, self.c1 / other, self.c2 / other)
        return NotImplemented

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc is np.sin or ufunc is np.cos:
            s, c = np.sin(self.c0), np.cos(self.c0)
            if ufunc is np.cos:   # cos' = -sin and cos'' = -cos
                s, c = c, -s
            return _Jet(s, c * self.c1, c * self.c2 - 0.5 * s * self.c1 * self.c1)
        op = _BINARY.get(ufunc)
        if op is None or not all(isinstance(x, (_Jet, numbers.Real)) for x in inputs):
            return NotImplemented
        # a numpy scalar operand would dispatch back here; a Python float does not
        return op(*(x if isinstance(x, _Jet) else float(x) for x in inputs))


_BINARY = {np.add: operator.add, np.subtract: operator.sub,
           np.multiply: operator.mul, np.true_divide: operator.truediv}


def _points(spec: ImmersionSpec, u) -> np.ndarray:
    """One parameter point u as a batch of one, shape (1, n)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (spec.n,):
        raise ValueError(f"parameter point has shape {u.shape}, expected ({spec.n},)")
    return u[None]


def _jets(spec: ImmersionSpec, points: np.ndarray):
    """F (P, N), the Jacobians (P, N, n) and the Hessian stacks (P, N, n, n) of a batch.

    Exact Taylor jets, or else central differences at DEFAULT_STEP, give the coefficients
    of F(u + t·d) = c0 + c1·t + c2·t² along d = e_i and e_i + e_j.  As c2 is d·Hess·d / 2,
    the diagonal is 2·c2(e_i) and the mixed entry c2(e_i+e_j) - c2(e_i) - c2(e_j).
    A value that is not finite raises, naming the first such point.
    """
    n = spec.n
    eye = np.eye(n)
    pairs = list(itertools.combinations(range(n), 2))
    dirs = np.array([*eye, *(eye[i] + eye[j] for i, j in pairs)])    # (D, n)
    coeffs = _taylor_jets(spec, points, dirs)
    c0, c1, c2 = coeffs if coeffs is not None else _differences(spec, points, dirs)
    finite = [np.isfinite(c).reshape(len(points), -1).all(1) for c in (c0, c1, c2)]
    bad = np.flatnonzero(~np.logical_and.reduce(finite))
    if len(bad):
        raise ValueError(f"map value or derivative is not finite at u={points[bad[0]].tolist()}")
    hess = np.empty((len(points), spec.N, n, n))
    for i in range(n):
        hess[:, :, i, i] = 2.0 * c2[:, i]
    for d, (i, j) in enumerate(pairs, start=n):
        hess[:, :, i, j] = hess[:, :, j, i] = c2[:, d] - c2[:, i] - c2[:, j]
    return (np.ascontiguousarray(c0),
            np.ascontiguousarray(np.swapaxes(c1[:, :n], 1, 2)), hess)


def _taylor_jets(spec: ImmersionSpec, points: np.ndarray, dirs: np.ndarray):
    """c0 (P, N), c1 and c2 (P, D, N) from one map call on Taylor numbers along dirs;
    None if the map rejects them."""
    P, N = len(points), spec.N
    u = np.empty(spec.n, dtype=object)
    for k in range(spec.n):
        u[k] = _Jet(points[:, k], np.repeat(dirs[:, k:k + 1], P, axis=1),
                    np.zeros((len(dirs), P)))
    try:
        out = spec.map(u)
    except (TypeError, ValueError, AttributeError):
        return None
    if np.shape(out) != (N,):
        return None
    c0, c1, c2 = np.empty((N, P)), np.zeros((N, len(dirs), P)), np.zeros((N, len(dirs), P))
    for a, comp in enumerate(out):
        if isinstance(comp, _Jet):
            c0[a], c1[a], c2[a] = comp.c0, comp.c1, comp.c2
        elif isinstance(comp, numbers.Real):
            c0[a] = comp
        else:
            return None
    return c0.T, c1.T, c2.T


def _differences(spec: ImmersionSpec, points: np.ndarray, dirs: np.ndarray):
    """c0 (P, N), c1 = (F₊ - F₋)/2h and c2 = (F₊ - 2F₀ + F₋)/2h² (P, D, N), where
    F± = F(u ± h·d) and h = DEFAULT_STEP: 1 + 2D map calls per point, O(h²)."""
    h = DEFAULT_STEP

    def f(us):   # (..., n) -> (..., N), one map call per point
        out = [np.asarray(spec.map(u), dtype=float) for u in us.reshape(-1, spec.n)]
        shape = next((v.shape for v in out if v.shape != (spec.N,)), None)
        if shape is not None:
            raise ValueError(f"map returned shape {shape}, expected ({spec.N},)")
        return np.reshape(out, (*us.shape[:-1], spec.N))

    f0 = f(points)
    plus, minus = f(points[:, None] + h * dirs), f(points[:, None] - h * dirs)
    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf: _jets names the point
        return f0, (plus - minus) / (2 * h), (plus - 2 * f0[:, None] + minus) / (2 * h**2)


def differentiate(spec: ImmersionSpec, u):
    """Jacobian (N, n) and symmetric Hessian stack (N, n, n) at u."""
    _, jac, hess = _jets(spec, _points(spec, u))
    return jac[0], hess[0]


def frames(spec: ImmersionSpec, u):
    """Orthonormal tangent rows (n, N) and normal rows (p, N) at u.

    Tangent: jacobian columns whitened by the inverse metric square root.
    Normal: pivoted Gram-Schmidt over the coordinate directions after
    projecting out the tangent span (and the radial direction inside a
    sphere) — deterministic, largest residual first.
    """
    points = _points(spec, u)
    pos, jac, _ = _jets(spec, points)
    _, tangent, normal = _frames(spec, points, pos, jac)
    return tangent[0], normal[0]


def _frames(spec: ImmersionSpec, points, pos, jac):
    """Whitening (P, n, n), tangent rows (P, n, N) and normal rows (P, p, N) of a batch.

    Raises, naming the first offending point, where the metric degenerates,
    F leaves the sphere, or the normal residuals collapse.
    """
    if spec.p < 1:
        raise ValueError(f"spec has no normal directions (p = {spec.p})")
    vals, vecs = np.linalg.eigh(np.swapaxes(jac, -1, -2) @ jac)
    degenerate = vals[:, 0] <= 1e-12 * np.maximum(1.0, vals[:, -1])
    r = np.sqrt((pos[:, None, :] @ pos[:, :, None])[:, 0, 0])   # a dot per point, as norm(F(u))
    radius = spec.ambient.radius
    off_sphere = (spec.ambient.kind == "sphere") & (np.abs(r - radius) > 1e-8 * radius)
    k = int(np.argmax(degenerate | off_sphere))
    if degenerate[k]:
        raise ValueError(f"immersion is degenerate at u={points[k].tolist()}: "
                         f"metric eigenvalues {vals[k].tolist()}")
    if off_sphere[k]:
        raise ValueError(f"map does not take values on the radius-{radius} sphere "
                         f"(|F(u)| = {r[k]:.12g} at u={points[k].tolist()})")
    white = (vecs * vals[:, None, :] ** -0.5) @ np.swapaxes(vecs, -1, -2)
    tangent = np.swapaxes(jac @ white, -1, -2)
    span = list(np.swapaxes(tangent, 0, 1))
    if spec.ambient.kind == "sphere":
        span.append(pos / r[:, None])

    rows = np.arange(len(points))
    residues = np.tile(np.eye(spec.N), (len(points), 1, 1))
    for b in span:
        residues -= (residues @ b[:, :, None]) * b[:, None, :]
    normal = np.empty((len(points), spec.p, spec.N))
    for q in range(spec.p):
        norms = np.linalg.norm(residues, axis=-1)
        pick = np.argmax(norms, axis=-1)
        best = norms[rows, pick]
        k = int(np.argmax(best < 1e-8))
        if best[k] < 1e-8:
            raise ValueError("could not complete the normal frame: residuals collapsed "
                             f"at u={points[k].tolist()}")
        vec = signfix((residues[rows, pick] / best[:, None]).T).T
        normal[:, q] = vec
        residues -= (residues @ vec[:, :, None]) * vec[:, None, :]
    return white, tangent, normal


def _sample(spec: ImmersionSpec, points: np.ndarray) -> list[PointSample]:
    """The batched kernel: (P, n) parameter points to P PointSamples, in order."""
    pos, jac, hess = _jets(spec, points)
    white, tangent, normal = _frames(spec, points, pos, jac)
    hess_frame = np.einsum("kamn,kmi,knj->kaij", hess, white, white)
    forms = np.einsum("kpa,kaij->kpij", normal, hess_frame)  # validated and symmetrized once
    datas = FundamentalData.stack(spec.n, spec.p, spec.ambient.curvature, forms)
    return [PointSample(params=points[k], position=pos[k], tangent=tangent[k],
                        normal=normal[k], data=data)
            for k, data in enumerate(datas)]


def second_fundamental_form(spec: ImmersionSpec, u) -> PointSample:
    """Evaluate one parameter point into a PointSample (a batch of one).

    h^a_ij = < e_a, d^2F(E_i, E_j) > with E the whitened coordinate frame;
    inside a sphere the radial direction is excluded from the normal frame,
    which is exactly the sphere-valued second fundamental form.
    """
    return _sample(spec, _points(spec, u))[0]


def grid_points(spec: ImmersionSpec, grid: int) -> np.ndarray:
    """Cell midpoints of a grid^n subdivision of the spec's bounds: a (grid^n, n) array,
    one point per row in row-major order."""
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    axes = [lo + (np.arange(grid) + 0.5) * (hi - lo) / grid for lo, hi in spec.bounds]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def sample_grid(spec: ImmersionSpec, grid: int) -> list[PointSample]:
    """Evaluate every grid midpoint as one batch, in deterministic row-major order."""
    return _sample(spec, grid_points(spec, grid))


# -- builtin immersions --------------------------------------------------------

def _veronese_map(u: np.ndarray) -> np.ndarray:
    th, ph = u
    x = np.sin(th) * np.cos(ph)
    y = np.sin(th) * np.sin(ph)
    z = np.cos(th)
    s3 = np.sqrt(3.0)
    return np.array([
        s3 * y * z,
        s3 * z * x,
        s3 * x * y,
        (s3 / 2.0) * (x * x - y * y),
        0.5 * (x * x + y * y - 2.0 * z * z),
    ])


def _clifford_map(u: np.ndarray) -> np.ndarray:
    th, ph = u
    return np.array([np.cos(th), np.sin(th), np.cos(ph), np.sin(ph)]) / np.sqrt(2.0)


def _saddle_map(u: np.ndarray) -> np.ndarray:
    x, y = u
    return np.array([x, y, (x * x - y * y) / 2.0])


# name -> (map, n, N, ambient, bounds)
BUILTINS = {
    "veronese": (_veronese_map, 2, 5, Ambient("sphere", 1.0), ((0.0, np.pi), (0.0, 2.0 * np.pi))),
    "clifford": (_clifford_map, 2, 4, Ambient("sphere", 1.0), ((0.0, 2.0 * np.pi),) * 2),
    "graph": (_saddle_map, 2, 3, Ambient("euclidean"), ((-1.0, 1.0),) * 2),
}


def builtin(name: str) -> ImmersionSpec:
    """Named reference immersions with known exact invariants.

    veronese: minimal surface in S^4(1) with S = 4/3 and K = 1/3;
    clifford:  minimal torus in S^3(1) with S = 2 and K = 0;
    graph:     the saddle z = (x^2 - y^2)/2 in R^3 (K = -1 at the origin).
    """
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin immersion {name!r} "
                         f"(expected one of {tuple(BUILTINS)})")
    return ImmersionSpec(*BUILTINS[name])
