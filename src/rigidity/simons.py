"""Trace identities and Laplacian-type lower bounds for the form norms.

The central quantity is the curvature contraction

    T_curv = sum_a [ tr(H_a^2 . Ric-part) - <H_a, H_a R> ]  (see below)

that appears when the rough Laplacian hits ||h||^2 pointwise.  Expanding it
through the Gauss equation yields trace identities in the H_a alone; pairing
it with commutator norms (bounded by the DDVV inequality) and the
Cauchy-Schwarz bound on sum tr(H_a^2)^2 produces the closed-form lower bound
Phi(a) whose optimal parameter reproduces the classical pinching thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import FundamentalData, invariants, riemann
from .symmat import sgn

MINIMAL = "minimal"
PARALLEL_MEAN = "parallel-mean"
CASES = (MINIMAL, PARALLEL_MEAN)


@dataclass(frozen=True)
class ContractionReport:
    """The four trace aggregates over a chosen restriction of normal indices.

    T_curv   curvature contraction of the restricted forms,
    N_comm   sum over restricted ordered pairs of tr(H_a^2 H_b^2) - tr((H_a H_b)^2)
             (equal to half the summed commutator norms),
    G_sq     sum over restricted pairs of tr(H_a H_b)^2,
    T_mixed  coupling of the restricted forms to the mean member (None when
             mean_index is unset).
    """

    T_curv: float
    N_comm: float
    G_sq: float
    T_mixed: float | None
    restriction: tuple[int, ...]


def curvature_contraction(data: FundamentalData, tensor=None, restrict=None) -> float:
    """T_curv = sum_a [ sum_ijm h^a_ij h^a_mi Ric_mj - sum_ijkm h^a_ij h^a_km R_mijk ].

    The two contractions of the curvature tensor against each restricted form;
    in an eigenframe of a single form this is sum_{i<j} (lam_i - lam_j)^2 K_ij,
    which is what the pinching argument bounds below by n K_min S.
    """
    idx = data.restriction(restrict)
    comp = (tensor if tensor is not None else riemann(data)).components
    h = data.forms[list(idx)]
    ric = np.einsum("mkjk->mj", comp)
    term_ric = np.einsum("aij,ami,mj->", h, h, ric)
    term_cross = np.einsum("aij,akm,ikjm->", h, h, comp)
    return float(term_ric - term_cross)


def _pair_traces(data: FundamentalData, idx):
    h = data.forms
    sub = h[list(idx)]
    hsq = np.einsum("aik,akj->aij", sub, sub)
    gram_sub = np.einsum("aij,bij->ab", sub, h)          # tr(H_a H_b), a in idx, b all
    sq_vs_all = np.einsum("aij,bji->ab", hsq, h)         # tr(H_a^2 H_b)
    return sub, hsq, gram_sub, sq_vs_all


def n_comm_value(data: FundamentalData, restrict=None) -> float:
    """sum over restricted ordered pairs of tr(H_a^2 H_b^2) - tr((H_a H_b)^2)."""
    idx = data.restriction(restrict)
    sub = data.forms[list(idx)]
    hsq = np.einsum("aik,akj->aij", sub, sub)
    prod = np.einsum("aik,bkj->abij", sub, sub)
    quart = np.einsum("aij,bji->ab", hsq, hsq)
    cyc = np.einsum("abij,abji->ab", prod, prod)
    return float(np.sum(quart - cyc))


def g_sq_value(data: FundamentalData, restrict=None) -> float:
    """sum over restricted ordered pairs of tr(H_a H_b)^2 (Gram norm squared)."""
    idx = data.restriction(restrict)
    sub = data.forms[list(idx)]
    gram = np.einsum("aij,bij->ab", sub, sub)
    return float(np.sum(gram * gram))


def mean_coupling(data: FundamentalData) -> float:
    """T_mixed = sum_{a != mean} [ tr(H_a^2 H_m) tr(H_m) - tr(H_a H_m)^2 ].

    Equals n H^2 S_I whenever the mean member is umbilical (H_m = H I), the
    pseudo-umbilical case.
    """
    if data.mean_index is None:
        raise ValueError("mean_coupling needs data with mean_index set")
    idx = data.non_mean_indices()
    hm = data.forms[data.mean_index]
    tm = float(np.trace(hm))
    sub = data.forms[list(idx)]
    hsq = np.einsum("aik,akj->aij", sub, sub)
    first = float(np.einsum("aij,ji->", hsq, hm)) * tm
    second = float(np.sum(np.einsum("aij,ij->a", sub, hm) ** 2))
    return first - second


def gauss_expansion_check(data: FundamentalData, restrict=None) -> float:
    """Residual of the Gauss-equation expansion of T_curv; ~0 on valid frames.

    T_curv over a restriction A equals

        n c S~ + sum_{a in A, b} tr(H_b) tr(H_a^2 H_b)
               - sum_{a in A, b} tr(H_a H_b)^2 - N_comm(A)

    with b running over all normal directions, exactly when the restricted
    members are traceless and the excluded (mean) member commutes with them —
    minimal data with the full restriction, or pseudo-umbilical data with the
    mean member excluded.
    """
    idx = data.restriction(restrict)
    t_curv = curvature_contraction(data, restrict=idx)
    traces = data.traces
    _, _, gram_sub, sq_vs_all = _pair_traces(data, idx)
    s_tilde = float(np.sum(data.forms[list(idx)] ** 2))
    mid = float(np.einsum("b,ab->", traces, sq_vs_all)) - float(np.sum(gram_sub**2))
    rhs = data.n * data.c * s_tilde + mid - n_comm_value(data, idx)
    return abs(t_curv - rhs)


def commutator_trace_identity(data: FundamentalData, restrict=None) -> tuple[float, float]:
    """(N_comm, its DDVV bound): N_comm <= sgn(m-1)/2 * S~^2 over the restriction."""
    idx = data.restriction(restrict)
    s_tilde = float(np.sum(data.forms[list(idx)] ** 2))
    bound = 0.5 * sgn(len(idx) - 1) * s_tilde**2
    return n_comm_value(data, idx), bound


def contraction_report(data: FundamentalData, tensor=None, restrict=None) -> ContractionReport:
    idx = data.restriction(restrict)
    t_mixed = mean_coupling(data) if data.mean_index is not None else None
    return ContractionReport(
        T_curv=curvature_contraction(data, tensor, idx),
        N_comm=n_comm_value(data, idx),
        G_sq=g_sq_value(data, idx),
        T_mixed=t_mixed,
        restriction=idx,
    )


# -- parametric lower bound ---------------------------------------------------

def _case_frame(data: FundamentalData, case: str):
    if case == MINIMAL:
        idx = tuple(range(data.p))
        p_eff = data.p
        inv = invariants(data)
        return idx, p_eff, inv.S, data.c
    if case == PARALLEL_MEAN:
        if data.mean_index is None:
            raise ValueError("parallel-mean case needs data with mean_index set")
        idx = data.non_mean_indices()
        p_eff = data.p - 1
        if p_eff < 1:
            raise ValueError("parallel-mean case needs at least one non-mean direction")
        inv = invariants(data)
        return idx, p_eff, inv.S_I, data.c + inv.H**2
    raise ValueError(f"unknown case {case!r}, expected one of {CASES}")


def s2_coefficient(a: float, p_eff: int, case: str) -> float:
    """Coefficient of S~^2 in Phi: a/p_eff + sgn(p_eff - 1)(a-1)/2 (minimal)
    or a/p_eff + (a-1)/2 (parallel-mean)."""
    if case == MINIMAL:
        return a / p_eff + sgn(p_eff - 1) * (a - 1.0) / 2.0
    if case == PARALLEL_MEAN:
        return a / p_eff + (a - 1.0) / 2.0
    raise ValueError(f"unknown case {case!r}, expected one of {CASES}")


def laplacian_bound(data: FundamentalData, a: float, kmin: float, case: str) -> float:
    """Closed-form lower bound Phi(a) for the Laplacian-type trace combination.

        Phi(a) = -a n (ambient) S~ + (1+a) n kmin S~ + coeff(a) S~^2

    with ambient = c (minimal) or c + H^2 (parallel-mean).  Valid whenever
    kmin <= K_min and the data satisfies the case's frame convention.
    """
    if not 0.0 <= a < 1.0:
        raise ValueError(f"parameter a must lie in [0, 1), got {a}")
    _, p_eff, s_tilde, ambient = _case_frame(data, case)
    return (-a * data.n * ambient * s_tilde
            + (1.0 + a) * data.n * kmin * s_tilde
            + s2_coefficient(a, p_eff, case) * s_tilde**2)


def laplacian_surrogate(data: FundamentalData, a: float, case: str) -> float:
    """Exact combination that Phi(a) bounds from below:

        -a n c S~ + (1+a) T_curv + (a-1) N_comm + a G_sq [- a T_mixed]

    over the case's restriction (the bracketed term only in the parallel-mean
    case).  Tested against Phi(a) with kmin from the certified bracket.
    """
    if not 0.0 <= a < 1.0:
        raise ValueError(f"parameter a must lie in [0, 1), got {a}")
    idx, _, s_tilde, _ = _case_frame(data, case)
    value = (-a * data.n * data.c * s_tilde
             + (1.0 + a) * curvature_contraction(data, restrict=idx)
             + (a - 1.0) * n_comm_value(data, idx)
             + a * g_sq_value(data, idx))
    if case == PARALLEL_MEAN:
        value -= a * mean_coupling(data)
    return value


def optimal_parameter(p_eff: int, case: str) -> tuple[float, float]:
    """The a* killing the S~^2 coefficient, and the threshold a*/(1 + a*).

    minimal:        a* = sgn(p_eff - 1) p_eff / (p_eff + 2),  threshold
                    sgn(p_eff - 1) p_eff / (2 (p_eff + 1));
    parallel-mean:  a* = p_eff / (p_eff + 2), threshold p_eff / (2 (p_eff + 1)).
    """
    if p_eff < 1:
        raise ValueError(f"need p_eff >= 1, got {p_eff}")
    if case == MINIMAL:
        a_star = sgn(p_eff - 1) * p_eff / (p_eff + 2)
        threshold = sgn(p_eff - 1) * p_eff / (2 * (p_eff + 1))
    elif case == PARALLEL_MEAN:
        a_star = p_eff / (p_eff + 2)
        threshold = p_eff / (2 * (p_eff + 1))
    else:
        raise ValueError(f"unknown case {case!r}, expected one of {CASES}")
    return a_star, threshold
