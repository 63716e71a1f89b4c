"""Pinching thresholds of the classical rigidity theorems, and verdicts.

Each theorem says: if every sectional curvature of the submanifold exceeds a
threshold determined by (n, p, c, H), the submanifold is one of a short list
of models.  threshold_* return the constants; verdict() compares them against
the certified K_min bracket of a FundamentalData instance and reports strict /
boundary / fails / indeterminate together with the model label the boundary
data matches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

# thresholds need neither numpy nor the curvature stack (`pinch`, the `check` parser);
# verdict() and its predicates import them where they run
if TYPE_CHECKING:
    import numpy as np

    from .curvature import Bracket, FundamentalData


class HypothesisError(ValueError):
    """The data violates a structural hypothesis of the requested theorem."""


class PinchVerdict(NamedTuple):
    theorem: str
    threshold: float
    kmin_bracket: Bracket
    status: str            # strict | boundary | fails | indeterminate
    label: str
    notes: tuple[str, ...]


# -- thresholds ---------------------------------------------------------------

def sgn(x) -> int:
    """Standard sign: -1, 0, or +1 (sgn(0) = 0)."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


# Each is a single integer division (plus a sign / ambient factor) so the
# floats agree bit-for-bit with the correctly rounded rational value.

def threshold_thm1(p: int) -> float:
    """Minimal in a unit sphere: K > sgn(p-1) p / (2(p+1)) forces the models."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    return sgn(p - 1) * p / (2 * (p + 1))


def threshold_yau(p: int) -> float:
    """The earlier minimal-case constant (p-1)/(2p-1); weaker for p >= 3."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    return (p - 1) / (2 * p - 1)


def threshold_itoh(n: int) -> float:
    """Dimension-based minimal constant n/(2(n+1)) (totally geodesic or Veronese)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return n / (2 * (n + 1))


def threshold_thm2(p: int, c: float, H: float) -> float:
    """Nonzero parallel mean curvature: sgn(p-2) (p-1)/(2p) * (c + H^2); its 0 at p = 2 is
    simons' MINIMAL sign applied to p - 1, not the PARALLEL_MEAN case's 1/4."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    amb = c + H * H
    if amb <= 0:
        raise ValueError(f"need c + H^2 > 0, got {amb}")
    return sgn(p - 2) * (p - 1) / (2 * p) * amb


def k_mn(m: int, n: int) -> int:
    """k(m, n) = min(sgn(m-1) m, n): effective codimension count."""
    if m < 0 or n < 1:
        raise ValueError(f"need m >= 0 and n >= 1, got m={m}, n={n}")
    return min(sgn(m - 1) * m, n)


def threshold_generalized(p: int, n: int, c: float, H: float) -> float:
    """Combined constant k/(2(k+1)) * ambient with k = k(p, n) (minimal,
    ambient c) or k(p-1, n) (nonzero parallel mean, ambient c + H^2)."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    amb = c + H * H
    if amb <= 0:
        raise ValueError(f"need c + H^2 > 0, got {amb}")
    k = k_mn(p, n) if H == 0 else k_mn(p - 1, n)
    return k * amb / (2 * (k + 1))


# -- structural predicates ----------------------------------------------------

def _is_pseudo_umbilical(data: FundamentalData, tol: float) -> bool:
    import numpy as np

    hm = data.forms[data.mean_index]
    scalar = (data.traces[data.mean_index] / data.n) * np.eye(data.n)
    return bool(np.max(np.abs(hm - scalar)) <= tol * max(1.0, float(np.max(np.abs(hm)))))


def _mean_commutes(data: FundamentalData, tol: float) -> bool:
    """||[H_m, H_a]||^2 <= (tol max(1, ||H_m|| ||H_a||))^2 for every non-mean a."""
    import numpy as np

    from .curvature import normal_curvature

    others = list(data.non_mean_indices())
    comm = normal_curvature(data)[data.mean_index, others]
    norms = np.linalg.norm(data.forms, axis=(1, 2))
    bound = tol * np.maximum(1.0, norms[data.mean_index] * norms[others])
    return bool(np.all(np.sum(comm * comm, axis=(1, 2)) <= bound**2))


def _two_eigenvalue_product(form: np.ndarray, ambient: float, tol: float) -> bool:
    """diag(lam I_k, mu I_(n-k)) pattern with lam * mu = -ambient."""
    import numpy as np

    vals = np.linalg.eigvalsh(form)
    scale = max(1.0, float(np.max(np.abs(vals))))
    lo, hi = vals[0], vals[-1]
    if hi - lo <= tol * scale:
        return False  # umbilical, not a two-block pattern
    near_lo = np.abs(vals - lo) <= tol * scale
    near_hi = np.abs(vals - hi) <= tol * scale
    if not np.all(near_lo | near_hi):
        return False
    return abs(lo * hi + ambient) <= tol * max(1.0, abs(ambient))


# -- verdicts -----------------------------------------------------------------

_SEVERITY = {"strict": 0, "boundary": 0, "fails": 1, "indeterminate": 2}


def _classify(bracket: Bracket, threshold: float, tol: float) -> str:
    if bracket.lo > threshold + tol:
        return "strict"
    if bracket.hi < threshold - tol:
        return "fails"
    if bracket.hi - bracket.lo <= 2 * tol:
        return "boundary"  # collapsed bracket sitting on the threshold
    return "indeterminate"


# verdict()'s theorem table.  A row holds threshold(data, H), with H = 0 on the
# minimal branch; the HypothesisError messages for non-traceless data on the
# minimal branch and for H ~ 0 on the mean branch, None where the theorem has
# no such branch; and whether the theorem is stated in the unit sphere.
_NOT_MINIMAL = "{} requires minimal data: some tr(H_a) is nonzero beyond tolerance"
_TABLE = {
    "yau": (lambda d, H: threshold_yau(d.p), _NOT_MINIMAL.format("yau"), None, True),
    "itoh": (lambda d, H: threshold_itoh(d.n), _NOT_MINIMAL.format("itoh"), None, True),
    "thm1": (lambda d, H: threshold_thm1(d.p), _NOT_MINIMAL.format("thm1"), None, True),
    "thm2": (lambda d, H: threshold_thm2(d.p, d.c, H), None,
             "thm2 requires nonzero parallel mean curvature, got H ~ 0", False),
    "generalized": (lambda d, H: threshold_generalized(d.p, d.n, d.c, H),
                    "generalized (minimal branch) requires traceless data or a "
                    "mean-aligned frame",
                    "generalized (mean branch) requires nonzero mean curvature", False),
}
THEOREMS = tuple(_TABLE)


def negligible_mean(data: FundamentalData) -> bool:
    """Whether the mean curvature H of `data` is zero at the scale max(1, max|h|): `verdict`
    refuses a mean branch for such data, and the `models` builders set no mean slot for it."""
    return data.invariants.H <= 1e-12 * max(1.0, float(abs(data.forms).max()))


def verdict(data: FundamentalData, which: str, tol: float = 1e-8,
            bracket: Bracket | None = None) -> PinchVerdict:
    """Compare the certified K_min bracket of `data` against one theorem.

    A precomputed `bracket` (from kmin_bracket on the same data) is used as
    is; otherwise it is kmin_bracket(data).

    Raises HypothesisError when the data violates the theorem's structural
    hypotheses (minimality, unit ambient curvature, nonzero parallel mean),
    and ValueError for an unknown theorem or a `tol` that is not a finite
    number >= 0.  Verdicts are deterministic and invariant under admissible
    frame changes of the data.
    """
    import numpy as np

    from . import ddvv
    from .curvature import case_terms, kmin_bracket, negligible_trace

    if which not in THEOREMS:
        raise ValueError(f"unknown theorem {which!r}, expected one of {THEOREMS}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    threshold_of, not_minimal, zero_mean, unit_sphere = _TABLE[which]
    inv = data.invariants
    minimal = negligible_trace(np.max(np.abs(data.traces)), data.forms, tol)
    soft = 1e-6  # structural predicate tolerance, looser than the verdict gate

    # a theorem with both branches takes the mean one in a mean-aligned frame
    mean_case = zero_mean is not None and (not_minimal is None or data.mean_index is not None)
    if mean_case:
        if data.mean_index is None:
            raise HypothesisError(f"{which} requires a mean-aligned frame (mean_index set)")
        if negligible_mean(data):
            raise HypothesisError(zero_mean)
    elif not minimal:
        raise HypothesisError(not_minimal)
    if unit_sphere and abs(data.c - 1.0) > 1e-9:
        raise HypothesisError(f"{which} is stated in a unit sphere, got c = {data.c}")
    threshold = threshold_of(data, inv.H if mean_case else 0.0)  # may reject c + H^2 <= 0
    restriction, s_ref, ambient = case_terms(data, mean_case)

    if bracket is None:
        bracket = kmin_bracket(data)
    status = _classify(bracket, threshold, tol)

    sub = data.forms[list(restriction)]
    ddvv_equality = ddvv.ratio_terms(sub)[2] >= 1.0 - ddvv.NEAR_EQUALITY
    collapsed = bracket.hi - bracket.lo <= soft * max(1.0, abs(bracket.hi))

    notes = []
    if minimal:
        notes.append("minimal")
    if data.mean_index is not None:
        notes.append("mean-aligned frame")
        if _is_pseudo_umbilical(data, soft):
            notes.append("pseudo-umbilical")
        if _mean_commutes(data, soft):
            notes.append("mean-commuting")
    if ddvv_equality:
        notes.append("ddvv-equality")
    fingerprint = mean_case and abs(s_ref - (2 * data.n / 3) * ambient) <= soft * max(1.0, ambient)
    if fingerprint and ddvv_equality:
        notes.append("S_I matches the Veronese value (2n/3)(c + H^2)")
    if which == "thm2" and data.p <= 2:
        notes.append("codimension p <= 2: threshold degenerates; the sharper "
                     "low-codimension classifications apply")

    label = "Undetermined"
    if s_ref <= tol * max(1.0, inv.S):
        label = "UmbilicalSphere" if mean_case else "TotallyGeodesic"
    elif status == "boundary":
        if (data.n == 2 and len(restriction) == 2 and ddvv_equality and collapsed):
            label = "Veronese"
        elif len(restriction) == 1 and _two_eigenvalue_product(sub[0], ambient, soft):
            label = "ProductOfSpheres"

    return PinchVerdict(theorem=which, threshold=float(threshold),
                        kmin_bracket=bracket, status=status, label=label,
                        notes=tuple(notes))


def severity(status: str) -> int:
    """Exit-code contribution of one verdict status (worst-of for batches)."""
    return _SEVERITY[status]
