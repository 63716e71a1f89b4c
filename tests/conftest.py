"""Shared builders for randomized geometry instances.

Everything is driven by an explicit numpy Generator so each test controls its
own seed; nothing here touches global RNG state.
"""

import numpy as np

from rigidity.curvature import FundamentalData


def random_tuple(dim, count, seed=0, scale=1.0, traceless=False):
    """(count, dim, dim) stack of symmetrized Gaussian matrices from one generator.

    Deterministic per seed (a Generator is used as is); traceless removes
    each member's trace part.
    """
    g = np.random.default_rng(seed).normal(size=(count, dim, dim)) * scale
    t = (g + np.swapaxes(g, 1, 2)) / 2.0
    if traceless:
        t -= (np.trace(t, axis1=1, axis2=2) / dim)[:, None, None] * np.eye(dim)
    return t


def packed_tuples(seed, trials, m, n):
    """The (trials, m, n, n) tuples of `ddvv --random`: member k is row k of one
    (trials * m, n(n+1)/2) standard normal draw, its n diagonal entries scaled by sqrt(2)
    and then its entries i < j, row by row, each set at (i, j) and (j, i)."""
    packed = np.random.default_rng(seed).standard_normal((trials * m, n * (n + 1) // 2))
    members = np.empty((trials * m, n, n))
    diagonal = np.arange(n)
    members[:, diagonal, diagonal] = packed[:, :n] * np.sqrt(2.0)
    rows, cols = np.triu_indices(n, 1)
    members[:, rows, cols] = members[:, cols, rows] = packed[:, n:]
    return members.reshape(trials, m, n, n)


def make_minimal(n, p, c, rng, scale=0.6):
    """Traceless random forms: a minimal-submanifold datum."""
    forms = random_tuple(n, p, rng, scale=scale, traceless=True)
    return FundamentalData(n=n, p=p, c=c, forms=forms)


def make_pseudo_umbilical(n, p, c, H, rng, scale=0.6):
    """Umbilical mean member H*I in slot 0 plus p-1 random traceless members."""
    if p < 2:
        raise ValueError("need p >= 2 for a pseudo-umbilical instance")
    rest = random_tuple(n, p - 1, rng, scale=scale, traceless=True)
    mean = H * np.eye(n)
    forms = np.concatenate([mean[None], rest])
    return FundamentalData(n=n, p=p, c=c, forms=forms, mean_index=0)


def make_general(n, p, c, rng, scale=0.6):
    """Unconstrained random forms (no frame convention)."""
    forms = random_tuple(n, p, rng, scale=scale)
    return FundamentalData(n=n, p=p, c=c, forms=forms)


def random_orthogonal(dim, rng):
    """Haar-ish orthogonal matrix via QR with the R-diagonal sign fix."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))
