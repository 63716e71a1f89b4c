"""Reference commutator energy and gradient: the full ordered-pair stack by einsum.

This is the straightforward form of what `ddvv.commutator_energy` and
`ddvv.energy_gradient` compute pair by pair: every ordered product B_r B_s is
built at once as an (..., m, m, n, n) stack, and the energy sums its squared
commutators.  It shares no code with the package, so tests can hold the
pair-product kernel to it.
"""

import numpy as np


def commutators(t):
    """[B_r, B_s] for every ordered pair: (..., m, n, n) -> (..., m, m, n, n)."""
    ab = np.einsum("...rik,...skj->...rsij", t, t)
    return ab - np.swapaxes(ab, -4, -3)


def energy(t):
    """sum_{r,s} ||[B_r, B_s]||^2 over ordered pairs, per tuple of a stack."""
    comm = commutators(np.asarray(t, dtype=float))
    return np.sum(comm * comm, axis=(-4, -3, -2, -1))


def gradient(t):
    """4 sum_s [[B_r, B_s], B_s] for one (m, n, n) tuple."""
    t = np.asarray(t, dtype=float)
    comm = commutators(t)
    return 4.0 * (np.einsum("rsik,skj->rij", comm, t)
                  - np.einsum("sik,rskj->rij", t, comm))
