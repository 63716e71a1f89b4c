"""Second fundamental forms of explicit immersions by central differences.

An ImmersionSpec wraps a parametric map R^n -> R^N (into Euclidean space or a
round sphere).  At a parameter point we differentiate the map to second order
with O(step^2) central differences, orthonormalize tangent and normal frames
deterministically, and read off the (p, n, n) stack of form matrices — a
FundamentalData instance that feeds every other module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curvature import FundamentalData
from .symmat import signfix

DEFAULT_STEP = 1e-4


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
    name: str = ""

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


def _eval(spec: ImmersionSpec, u: np.ndarray) -> np.ndarray:
    out = np.asarray(spec.map(np.asarray(u, dtype=float)), dtype=float)
    if out.shape != (spec.N,):
        raise ValueError(f"map returned shape {out.shape}, expected ({spec.N},)")
    return out


def differentiate(spec: ImmersionSpec, u, step: float = DEFAULT_STEP):
    """Jacobian (N, n) and symmetric Hessian stack (N, n, n), O(step^2)."""
    return _jets(spec, u, step)[1:]


def _jets(spec: ImmersionSpec, u, step: float):
    """F(u), the Jacobian and the Hessian stack from one central-difference stencil."""
    u = np.asarray(u, dtype=float)
    if u.shape != (spec.n,):
        raise ValueError(f"parameter point has shape {u.shape}, expected ({spec.n},)")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    n = spec.n
    f0 = _eval(spec, u)
    plus = [_eval(spec, u + step * _unit(n, i)) for i in range(n)]
    minus = [_eval(spec, u - step * _unit(n, i)) for i in range(n)]
    jac = np.column_stack([(plus[i] - minus[i]) / (2 * step) for i in range(n)])
    hess = np.zeros((spec.N, n, n))
    for i in range(n):
        hess[:, i, i] = (plus[i] - 2 * f0 + minus[i]) / step**2
    for i in range(n):
        for j in range(i + 1, n):
            pp = _eval(spec, u + step * (_unit(n, i) + _unit(n, j)))
            pm = _eval(spec, u + step * (_unit(n, i) - _unit(n, j)))
            mp = _eval(spec, u - step * (_unit(n, i) - _unit(n, j)))
            mm = _eval(spec, u - step * (_unit(n, i) + _unit(n, j)))
            mixed = (pp - pm - mp + mm) / (4 * step**2)
            hess[:, i, j] = mixed
            hess[:, j, i] = mixed
    return f0, jac, hess


def _unit(n: int, i: int) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e


def frames(spec: ImmersionSpec, u, step: float = DEFAULT_STEP, jac=None):
    """Orthonormal tangent rows (n, N) and normal rows (p, N) at u.

    Tangent: jacobian columns whitened by the inverse metric square root.
    Normal: pivoted Gram-Schmidt over the coordinate directions after
    projecting out the tangent span (and the radial direction inside a
    sphere) — deterministic, largest residual first.
    """
    u = np.asarray(u, dtype=float)
    if jac is None:
        jac, _ = differentiate(spec, u, step)
    return _frames(spec, u, _eval(spec, u), jac, _whitening(jac, u))


def _whitening(jac: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse square root of the metric jac^T jac; raises where it degenerates."""
    vals, vecs = np.linalg.eigh(jac.T @ jac)
    if vals[0] <= 1e-12 * max(1.0, vals[-1]):
        raise ValueError(f"immersion is degenerate at u={u.tolist()}: "
                         f"metric eigenvalues {vals.tolist()}")
    return vecs @ np.diag(vals**-0.5) @ vecs.T


def _frames(spec: ImmersionSpec, u, pos, jac, white):
    """frames() from the position F(u), the Jacobian and its whitening."""
    tangent = (jac @ white).T
    span = [tangent[i] for i in range(spec.n)]
    if spec.ambient.kind == "sphere":
        r = np.linalg.norm(pos)
        if abs(r - spec.ambient.radius) > 1e-8 * spec.ambient.radius:
            raise ValueError(
                f"map does not take values on the radius-{spec.ambient.radius} sphere "
                f"(|F(u)| = {r:.12g} at u={u.tolist()})")
        span.append(pos / r)
    p = spec.p
    if p < 1:
        raise ValueError(f"spec has no normal directions (p = {p})")

    residues = np.eye(spec.N)
    for b in span:
        residues -= np.outer(residues @ b, b)
    normal = []
    for _ in range(p):
        norms = np.linalg.norm(residues, axis=1)
        pick = int(np.argmax(norms))
        if norms[pick] < 1e-8:
            raise ValueError("could not complete the normal frame: residuals collapsed")
        vec = signfix(residues[pick] / norms[pick])
        normal.append(vec)
        residues -= np.outer(residues @ vec, vec)
    return tangent, np.stack(normal)


def second_fundamental_form(spec: ImmersionSpec, u, step: float = DEFAULT_STEP) -> PointSample:
    """Evaluate one parameter point into a PointSample.

    h^a_ij = < e_a, d^2F(E_i, E_j) > with E the whitened coordinate frame;
    inside a sphere the radial direction is excluded from the normal frame,
    which is exactly the sphere-valued second fundamental form.
    """
    u = np.asarray(u, dtype=float)
    pos, jac, hess = _jets(spec, u, step)
    white = _whitening(jac, u)
    tangent, normal = _frames(spec, u, pos, jac, white)
    hess_frame = np.einsum("amn,mi,nj->aij", hess, white, white)
    forms = np.einsum("pa,aij->pij", normal, hess_frame)  # FundamentalData symmetrizes
    data = FundamentalData(n=spec.n, p=spec.p, c=spec.ambient.curvature, forms=forms)
    return PointSample(params=u, position=pos, tangent=tangent,
                       normal=normal, data=data)


def grid_points(spec: ImmersionSpec, grid: int) -> list[np.ndarray]:
    """Cell midpoints of a grid^n subdivision of the spec's bounds."""
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    axes = []
    for (lo, hi) in spec.bounds:
        axes.append(lo + (np.arange(grid) + 0.5) * (hi - lo) / grid)
    mesh = np.meshgrid(*axes, indexing="ij")
    return [np.array(pt) for pt in zip(*(m.ravel() for m in mesh))]


def sample_grid(spec: ImmersionSpec, grid: int, step: float = DEFAULT_STEP) -> list[PointSample]:
    """Evaluate every grid midpoint, in deterministic row-major order."""
    return [second_fundamental_form(spec, u, step) for u in grid_points(spec, grid)]


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


BUILTINS = ("veronese", "clifford", "graph")


def builtin(name: str) -> ImmersionSpec:
    """Named reference immersions with known exact invariants.

    veronese: minimal surface in S^4(1) with S = 4/3 and K = 1/3;
    clifford:  minimal torus in S^3(1) with S = 2 and K = 0;
    graph:     the saddle z = (x^2 - y^2)/2 in R^3 (K = -1 at the origin).
    """
    if name == "veronese":
        return ImmersionSpec(map=_veronese_map, n=2, N=5,
                             ambient=Ambient("sphere", 1.0),
                             bounds=((0.0, np.pi), (0.0, 2.0 * np.pi)),
                             name="veronese")
    if name == "clifford":
        return ImmersionSpec(map=_clifford_map, n=2, N=4,
                             ambient=Ambient("sphere", 1.0),
                             bounds=((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi)),
                             name="clifford")
    if name == "graph":
        return ImmersionSpec(map=_saddle_map, n=2, N=3,
                             ambient=Ambient("euclidean"),
                             bounds=((-1.0, 1.0), (-1.0, 1.0)),
                             name="graph")
    raise ValueError(f"unknown builtin immersion {name!r} (expected one of {BUILTINS})")
