"""Pointwise curvature algebra for submanifolds of space forms.

The package computes, from an ambient curvature c and a stack of second
fundamental form matrices, the induced curvature tensor and its invariants,
Simons-type trace identities, the DDVV commutator inequality, and
sectional-curvature pinching verdicts against the classical rigidity
thresholds.  Closed-form model data and a finite-difference pipeline for
explicit immersions feed the same machinery.
"""

from importlib import import_module

# name -> the module that defines it.  A name is imported on first access (PEP 562),
# so a process pays only for the modules it uses.
_LAZY = {
    "ContractionReport": "simons",
    "CurvatureTensor": "curvature",
    "DdvvReport": "ddvv",
    "FundamentalData": "curvature",
    "HypothesisError": "pinching",
    "ImmersionSpec": "immersion",
    "ModelSpec": "models",
    "PinchVerdict": "pinching",
    "PointSample": "immersion",
    "ScalarInvariants": "curvature",
    "align_mean_frame": "curvature",
    "build_model": "models",
    "builtin": "immersion",
    "contraction_report": "simons",
    "detect_equality": "ddvv",
    "invariants": "curvature",
    "kmin_bracket": "curvature",
    "laplacian_bound": "simons",
    "maximize_ratio": "ddvv",
    "normal_curvature": "curvature",
    "optimal_parameter": "simons",
    "product_of_spheres": "models",
    "pseudo_umbilical_extend": "models",
    "riemann": "curvature",
    "second_fundamental_form": "immersion",
    "totally_geodesic": "models",
    "umbilical_sphere": "models",
    "verdict": "pinching",
    "veronese": "models",
}

__all__ = list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
