"""Reference Simons-type identities: the exact trace combinations the bound rests on.

`simons.laplacian_bound` and `optimal_parameter` give the paper's threshold
from a closed-form lower bound Phi(a).  The functions here are what that bound
is derived from: the Gauss-equation expansion of T_curv, the commutator
identity that the DDVV inequality bounds, and the exact combination that
Phi(a) bounds from below.  They are built from the package's trace aggregates,
and tests hold the aggregates and the closed form to them.
"""

import numpy as np

from rigidity.curvature import case_terms
from rigidity.pinching import sgn
from rigidity.simons import (
    CASES,
    PARALLEL_MEAN,
    curvature_contraction,
    g_sq_value,
    mean_coupling,
    n_comm_value,
)


def gauss_expansion_check(data, restrict=None):
    """Residual of the Gauss-equation expansion of T_curv; ~0 on valid frames.

    T_curv over a restriction A equals

        n c S~ + sum_{a in A, b} tr(H_b) tr(H_a^2 H_b)
               - sum_{a in A, b} tr(H_a H_b)^2 - N_comm(A)

    with b running over all normal directions, exactly when the restricted
    members are traceless and the excluded (mean) member commutes with them:
    minimal data with the full restriction, or pseudo-umbilical data with the
    mean member excluded.
    """
    idx = data.restriction(restrict)
    t_curv = curvature_contraction(data, restrict=idx)
    h = data.forms
    sub = h[list(idx)]
    gram_sub = np.einsum("aij,bij->ab", sub, h)  # tr(H_a H_b), a in idx, b all
    sq_vs_all = np.einsum("aij,bji->ab", np.einsum("aik,akj->aij", sub, sub), h)  # tr(H_a^2 H_b)
    s_tilde = float(np.sum(sub**2))
    mid = float(np.einsum("b,ab->", data.traces, sq_vs_all)) - float(np.sum(gram_sub**2))
    rhs = data.n * data.c * s_tilde + mid - n_comm_value(data, idx)
    return abs(t_curv - rhs)


def commutator_trace_identity(data, restrict=None):
    """(N_comm, its DDVV bound): N_comm <= sgn(m-1)/2 * S~^2 over the restriction."""
    idx = data.restriction(restrict)
    s_tilde = float(np.sum(data.forms[list(idx)] ** 2))
    bound = 0.5 * sgn(len(idx) - 1) * s_tilde**2
    return n_comm_value(data, idx), bound


def laplacian_surrogate(data, a, case):
    """Exact combination that Phi(a) bounds from below:

        -a n c S~ + (1+a) T_curv + (a-1) N_comm + a G_sq [- a T_mixed]

    over the case's restriction (the bracketed term only in the parallel-mean
    case).  Tested against Phi(a) with kmin from the certified bracket.
    """
    if not 0.0 <= a < 1.0:
        raise ValueError(f"parameter a must lie in [0, 1), got {a}")
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}, expected one of {CASES}")
    mean = case == PARALLEL_MEAN
    if mean and data.mean_index is None:
        raise ValueError("parallel-mean case needs data with mean_index set")
    idx, s_tilde, _ = case_terms(data, mean)
    value = (-a * data.n * data.c * s_tilde
             + (1.0 + a) * curvature_contraction(data, restrict=idx)
             + (a - 1.0) * n_comm_value(data, idx)
             + a * g_sq_value(data, idx))
    if mean:
        value -= a * mean_coupling(data)
    return value
