"""Closed-form second fundamental forms of the classical model submanifolds.

Each builder returns FundamentalData whose invariants are known exactly:
totally geodesic pieces, minimal Clifford-type products of spheres, the
Veronese surface (minimal or with a parallel mean extension), and totally
umbilical spheres.  These pin down the boundary cases of the pinching
theorems and serve as frozen oracles for the numerical pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import FundamentalData, negligible_trace


def totally_geodesic(n: int, p: int, c: float) -> FundamentalData:
    """Vanishing second fundamental form; K is identically c."""
    return FundamentalData(n=n, p=p, c=c, forms=np.zeros((p, n, n)))


def product_of_spheres(n: int, k: int, c: float = 1.0) -> FundamentalData:
    """Minimal product S^k x S^(n-k) in a sphere of curvature c > 0.

    One normal direction (p = 1) with shape operator diag(lam I_k, mu I_{n-k}),
    lam = sqrt(c (n-k)/k), mu = -sqrt(c k/(n-k)); lam * mu = -c makes the
    mixed sectional curvatures vanish, and S = n c.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if c <= 0:
        raise ValueError(f"product of spheres needs ambient curvature c > 0, got {c}")
    lam = np.sqrt(c * (n - k) / k)
    mu = -np.sqrt(c * k / (n - k))
    diag = np.concatenate([np.full(k, lam), np.full(n - k, mu)])
    return FundamentalData(n=n, p=1, c=c, forms=np.diag(diag)[None, :, :])


def _veronese_pair(scale: float) -> np.ndarray:
    a1 = np.array([[1.0, 0.0], [0.0, -1.0]]) / np.sqrt(3.0)
    a2 = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(3.0)
    return scale * np.stack([a1, a2])


def veronese(c: float = 1.0, H: float = 0.0) -> FundamentalData:
    """Veronese surface data: n = 2, constant K = (c + H^2)/3.

    H = 0 gives the minimal surface (p = 2, S = (4/3) c); H != 0 prepends the
    umbilical mean member H*I (p = 3, parallel mean, S_I = (4/3)(c + H^2)).
    """
    amb = c + H * H
    if amb <= 0:
        raise ValueError(f"need c + H^2 > 0, got {amb}")
    pair = _veronese_pair(np.sqrt(amb))
    if H == 0:
        return FundamentalData(n=2, p=2, c=c, forms=pair)
    mean = H * np.eye(2)
    return FundamentalData(n=2, p=3, c=c, forms=np.concatenate([mean[None], pair]),
                           mean_index=0)


def umbilical_sphere(n: int, p: int, c: float, H: float) -> FundamentalData:
    """Totally umbilical data: mean member H*I_n, all other members zero."""
    forms = np.zeros((p, n, n))
    forms[0] = H * np.eye(n)
    return FundamentalData(n=n, p=p, c=c, forms=forms, mean_index=0)


def pseudo_umbilical_extend(data: FundamentalData, H: float, c: float) -> FundamentalData:
    """Prepend the umbilical mean member H*I to minimal data, in ambient c.

    Models a pseudo-umbilical submanifold with parallel mean curvature H built
    over a minimal one: extend(veronese(c + H^2, 0), H, c) == veronese(c, H).
    """
    if not negligible_trace(np.max(np.abs(data.traces)), data.forms):
        raise ValueError("pseudo-umbilical extension needs minimal (traceless) data")
    if H == 0:
        raise ValueError("extension with H = 0 is the minimal datum itself")
    mean = H * np.eye(data.n)
    forms = np.concatenate([mean[None], data.forms])
    return FundamentalData(n=data.n, p=data.p + 1, c=c, forms=forms, mean_index=0)


MODEL_KINDS = ("totally-geodesic", "product-of-spheres", "veronese", "umbilical-sphere")


@dataclass(frozen=True)
class ModelSpec:
    """Parametrized request for one of the closed-form models."""

    kind: str
    n: int | None = None
    p: int | None = None
    k: int | None = None
    c: float = 1.0
    H: float = 0.0


def build_model(spec: ModelSpec) -> FundamentalData:
    if spec.kind == "totally-geodesic":
        if spec.n is None or spec.p is None:
            raise ValueError("totally-geodesic needs n and p")
        return totally_geodesic(spec.n, spec.p, spec.c)
    if spec.kind == "product-of-spheres":
        if spec.n is None or spec.k is None:
            raise ValueError("product-of-spheres needs n and k")
        return product_of_spheres(spec.n, spec.k, spec.c)
    if spec.kind == "veronese":
        return veronese(spec.c, spec.H)
    if spec.kind == "umbilical-sphere":
        if spec.n is None or spec.p is None:
            raise ValueError("umbilical-sphere needs n and p")
        return umbilical_sphere(spec.n, spec.p, spec.c, spec.H)
    raise ValueError(f"unknown model kind {spec.kind!r} (expected one of {MODEL_KINDS})")
