"""The batched K_min plane search against an independent per-start reference.

kmin_bracket evaluates K from the forms through the Gauss equation;
plane_search_reference descends one start at a time from the full Riemann
tensor with QR re-orthonormalization, by first-order steps capped at 200.
Both ends must respect the sectional values of explicit planes.  At n = 2
there is one plane, so the ends agree to round-off.  At n >= 3 the upper end
must not lie above the reference's: at n = 3 and n = 4 kmin_bracket is
closed form and exact to 1e-12, and at n >= 5 a Newton search from the same
starts (plus the operator's bottom plane) converges past the reference's
step cap.
"""

import numpy as np
import pytest

from conftest import make_general
from plane_search_reference import reference_kmin_bracket, sectional
from rigidity.curvature import kmin_bracket, riemann

CASES = [(n, p, budget) for n in (2, 3, 4, 6, 8) for p in (1, 2, 3) for budget in (0, 8, 64)]


def case_data(n, p, budget):
    rng = np.random.default_rng([n, p, budget])
    return make_general(n, p, float(rng.uniform(-1.0, 1.0)), rng)


@pytest.mark.parametrize("n,p,budget", CASES,
                         ids=[f"n{n}-p{p}-b{b}" for n, p, b in CASES])
def test_batched_search_matches_reference(n, p, budget):
    data = case_data(n, p, budget)
    b = kmin_bracket(data, budget=budget, seed=budget)
    lo_ref, hi_ref = reference_kmin_bracket(data, budget=budget, seed=budget)
    if n == 2:
        assert b.lo == lo_ref
        assert abs(b.hi - hi_ref) <= 1e-12 * max(1.0, abs(hi_ref))
    else:
        assert b.lo >= lo_ref if n == 4 else b.lo == lo_ref
        assert b.hi <= hi_ref + 1e-12 * max(1.0, abs(hi_ref))
    if n in (3, 4):
        assert b.hi - b.lo <= 1e-12 * max(1.0, abs(b.hi))

    # K(plane) is itself evaluated in floating point: where the bracket is
    # exact (n <= 4) it lands an ulp either side of lo, so allow its round-off.
    tensor = riemann(data)
    rng = np.random.default_rng([n, p, budget, 1])
    for _ in range(32):
        u, v = rng.normal(size=(2, n))
        k = sectional(tensor, u, v)
        assert b.lo <= k + 1e-12 * max(1.0, abs(k))
    eye = np.eye(n)
    coord = min(sectional(tensor, eye[i], eye[j])
                for i in range(n) for j in range(i + 1, n))
    assert b.hi <= coord + 1e-12
