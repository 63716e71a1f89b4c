"""The pair-product commutator kernel against the full-stack einsum reference.

`ddvv.commutator_energy` and `ddvv.energy_gradient` multiply only the pairs
r < s, one (..., n, n) stack at a time.  Checked here: agreement with the
reference in `commutator_reference.py` on every batch shape the package
meets (empty, nested, non-symmetric), a memory bound that an m^2-sized
temporary would break, and the callers that now share the kernel.
"""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import commutator_reference as ref
from conftest import make_minimal
from rigidity import ddvv
from rigidity.curvature import kmin_bracket
from rigidity.ddvv import commutator_energy, energy_gradient
from rigidity.models import veronese
from rigidity.pinching import verdict
from rigidity.simons import n_comm_value

RTOL = 1e-13


def _stack(shape, seed, symmetric=True):
    g = np.random.default_rng(seed).normal(size=shape)
    return (g + np.swapaxes(g, -1, -2)) / 2.0 if symmetric else g


def _scale(t):
    """Size of the energy's terms, (sum ||B||^2)^2, as the absolute floor."""
    total = np.sum(t * t, axis=(-3, -2, -1))
    return total * total


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
class TestAgainstReference:
    def test_energy(self, n, m):
        t = _stack((16, m, n, n), 70 + 10 * n + m)
        out = commutator_energy(t)
        assert out.shape == (16,)
        npt.assert_allclose(out, ref.energy(t), rtol=RTOL, atol=RTOL * np.max(_scale(t)))

    def test_single_tuple(self, n, m):
        t = _stack((m, n, n), 71 + 10 * n + m)
        out = commutator_energy(t)
        assert isinstance(out, float)
        npt.assert_allclose(out, ref.energy(t), rtol=RTOL, atol=RTOL * _scale(t))

    def test_gradient(self, n, m):
        t = _stack((4, m, n, n), 72 + 10 * n + m)
        grad = energy_gradient(t)
        assert grad.shape == t.shape
        for k in range(4):
            want = ref.gradient(t[k])
            npt.assert_allclose(grad[k], want, rtol=RTOL,
                                atol=RTOL * max(1.0, float(np.max(np.abs(want)))))

    def test_empty_batch(self, n, m):
        t = np.zeros((0, m, n, n))
        assert commutator_energy(t).shape == (0,)
        assert energy_gradient(t).shape == (0, m, n, n)


def test_nested_batch_axes():
    t = _stack((2, 3, 4, 3, 3), 73)
    out = commutator_energy(t)
    assert out.shape == (2, 3)
    npt.assert_allclose(out, ref.energy(t), rtol=RTOL, atol=RTOL * np.max(_scale(t)))
    for i in range(2):
        for j in range(3):
            assert out[i, j] == commutator_energy(t[i, j])


def test_non_symmetric_input():
    # finite differences probe the energy off the symmetric matrices, where
    # B_s B_r is not (B_r B_s)^T
    t = _stack((32, 3, 4, 4), 74, symmetric=False)
    npt.assert_allclose(commutator_energy(t), ref.energy(t), rtol=RTOL,
                        atol=RTOL * np.max(_scale(t)))
    npt.assert_allclose(energy_gradient(t[0]), ref.gradient(t[0]), rtol=RTOL,
                        atol=RTOL * float(np.max(np.abs(ref.gradient(t[0])))))


def test_peak_memory_stays_below_the_input():
    # the full ordered-pair stack of a (4096, 4, 4, 4) batch is 8 MB per array
    t = _stack((4096, 4, 4, 4), 75)
    commutator_energy(t[:1])  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        commutator_energy(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= t.nbytes, f"peak {peak} bytes for a {t.nbytes}-byte input"


def test_n_comm_value_is_half_the_energy():
    data = make_minimal(4, 3, 1.0, np.random.default_rng(76))
    forms = data.forms
    hsq = forms @ forms
    prod = np.einsum("aik,bkj->abij", forms, forms)
    traces = (np.einsum("aij,bji->ab", hsq, hsq) - np.einsum("abij,abji->ab", prod, prod))
    npt.assert_allclose(n_comm_value(data), np.sum(traces), rtol=1e-14)
    assert n_comm_value(data) == commutator_energy(forms) / 2.0
    assert n_comm_value(data, ()) == 0.0


def test_verdict_ratio_skips_evaluate(monkeypatch):
    # the forms are validated once, by FundamentalData; the verdict's DDVV
    # ratio comes from the energy kernel alone
    def refuse(*_):
        raise AssertionError("verdict re-evaluated DDVV")

    monkeypatch.setattr(ddvv, "evaluate", refuse)
    data = veronese(1.0, 0.0)
    assert "ddvv-equality" in verdict(data, "thm1", bracket=kmin_bracket(data, budget=0)).notes
    data = make_minimal(3, 2, 1.0, np.random.default_rng(77), scale=0.1)
    assert "ddvv-equality" not in verdict(data, "thm1", bracket=kmin_bracket(data, budget=0)).notes
