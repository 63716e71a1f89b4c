"""Closed-form second fundamental forms of the classical model submanifolds.

Each builder returns FundamentalData whose invariants are known exactly:
totally geodesic pieces, minimal Clifford-type products of spheres, the
Veronese surface (minimal or with a parallel mean extension), and totally
umbilical spheres.  These pin down the boundary cases of the pinching
theorems and serve as frozen oracles for the numerical pipeline.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .curvature import FundamentalData, negligible_trace
from .pinching import negligible_mean


def _zero_forms(n: int, p: int) -> np.ndarray:
    """The (p, n, n) zero stack.  A size below one gets FundamentalData's own message
    here, before numpy refuses a negative size or a mean member indexes an empty stack."""
    if n < 1 or p < 1:
        raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    return np.zeros((p, n, n))


def totally_geodesic(n: int, p: int, c: float) -> FundamentalData:
    """Vanishing second fundamental form; K is identically c."""
    return FundamentalData(n=n, p=p, c=c, forms=_zero_forms(n, p))


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


def veronese(c: float = 1.0, H: float = 0.0) -> FundamentalData:
    """Veronese surface data: n = 2, constant K = (c + H^2)/3.

    H = 0 gives the minimal surface (p = 2, S = (4/3) c); H != 0 extends the minimal
    one at c + H^2 by the umbilical mean member H*I (p = 3, parallel mean,
    S_I = (4/3)(c + H^2)).
    """
    amb = c + H * H
    if not 0 < amb < np.inf:
        raise ValueError(f"need c + H^2 > 0 and finite, got {amb}")
    if H != 0:
        return pseudo_umbilical_extend(veronese(amb), H, c)
    pair = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]]) / np.sqrt(3.0)
    return FundamentalData(n=2, p=2, c=c, forms=np.sqrt(amb) * pair)


def umbilical_sphere(n: int, p: int, c: float, H: float) -> FundamentalData:
    """Totally umbilical data: mean member H*I_n, all other members zero.  At H = 0, or an H
    that pinching.negligible_mean finds zero, the data is totally geodesic, so mean_index stays
    unset, as veronese(c, 0)'s does."""
    forms = _zero_forms(n, p)
    if not np.isfinite(H):   # before H * I, which would warn
        raise ValueError(f"mean curvature H must be finite, got H={H}")
    forms[0] = H * np.eye(n)
    return _mean_first(n, p, c, forms)


def pseudo_umbilical_extend(data: FundamentalData, H: float, c: float) -> FundamentalData:
    """Prepend the umbilical mean member H*I to minimal data, in ambient c.

    Models a pseudo-umbilical submanifold with parallel mean curvature H built
    over a minimal one: extend(veronese(c + H^2, 0), H, c) == veronese(c, H).
    """
    if not negligible_trace(np.max(np.abs(data.traces)), data.forms):
        raise ValueError("pseudo-umbilical extension needs minimal (traceless) data")
    if H == 0:
        raise ValueError("extension with H = 0 is the minimal datum itself")
    if not np.isfinite(H):
        raise ValueError(f"mean curvature H must be finite, got H={H}")
    forms = np.concatenate([H * np.eye(data.n)[None], data.forms])
    return _mean_first(data.n, data.p + 1, c, forms)


def _mean_first(n: int, p: int, c: float, forms: np.ndarray) -> FundamentalData:
    """Data whose member 0 carries the whole mean curvature, with mean_index 0, or unset where
    that mean is zero by pinching.negligible_mean, so `check` takes the data as minimal."""
    data = FundamentalData(n=n, p=p, c=c, forms=forms)
    return data if negligible_mean(data) else FundamentalData(n, p, c, forms, mean_index=0)


# the sizes each kind needs, and the only ones it reads; veronese and umbilical-sphere
# alone read H
_SIZES = {"totally-geodesic": ("n", "p"), "product-of-spheres": ("n", "k"),
          "veronese": (), "umbilical-sphere": ("n", "p")}
MODEL_KINDS = tuple(_SIZES)


class ModelSpec(NamedTuple):
    """Parametrized request for one of the closed-form models."""

    kind: str
    n: int | None = None
    p: int | None = None
    k: int | None = None
    c: float = 1.0
    H: float = 0.0


def build_model(spec: ModelSpec) -> FundamentalData:
    """The model spec asks for; a ValueError names a size its kind needs and lacks, or a
    field set that its kind does not read: n, p or k, or a nonzero H."""
    sizes = _SIZES.get(spec.kind)
    if sizes is None:
        raise ValueError(f"unknown model kind {spec.kind!r} (expected one of {MODEL_KINDS})")
    if any(getattr(spec, f) is None for f in sizes):
        raise ValueError(f"{spec.kind} needs {' and '.join(sizes)}")
    unused = [f for f in ("n", "p", "k") if f not in sizes and getattr(spec, f) is not None]
    if spec.H != 0 and spec.kind in ("totally-geodesic", "product-of-spheres"):
        unused.append("H")
    if unused:
        raise ValueError(f"{spec.kind} does not take {', '.join(unused)}")
    if spec.kind == "totally-geodesic":
        return totally_geodesic(spec.n, spec.p, spec.c)
    if spec.kind == "product-of-spheres":
        return product_of_spheres(spec.n, spec.k, spec.c)
    if spec.kind == "veronese":
        return veronese(spec.c, spec.H)
    return umbilical_sphere(spec.n, spec.p, spec.c, spec.H)
