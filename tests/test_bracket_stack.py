"""kmin_brackets: the K_min bracket of a whole shape group, one array pass and a search per
open record.

The kernel's bracket of every record of an (R, p, n, n) stack must equal kmin_bracket of
that record alone, bit for bit, at every n: in groups that mix open and closed brackets,
with a zero record (whose n = 4 Thorpe bisection stops at a slope of exactly 0), in a
mean-aligned group and in groups longer than one slice.  The plane search runs once for
each open record and never for a closed one.
"""

import numpy as np
import pytest

from conftest import make_pseudo_umbilical, random_tuple
from rigidity import curvature
from rigidity.curvature import GAUSS_BYTES, FundamentalData, kmin_bracket, kmin_brackets

# S^2 x S^2 in S^5 in a turned frame: a 4-fold bottom eigenvalue leaves its n = 4 bracket
# open after the closed-form plane (see test_bracket_n34)
_I2, _Z2 = np.eye(2), np.zeros((2, 2))
S2S2_TURNED = np.block([[_Z2, _I2], [_I2, _Z2]])


def _group(n, p, seed, count=5, c=1.0):
    """count random forms, traceless and not in turn, then a zero record; at n = 4, p = 1
    the turned S^2 x S^2 as well."""
    rng = np.random.default_rng([n, p, seed, 61])
    forms = [0.4 * random_tuple(n, p, rng, traceless=k % 2 == 0) for k in range(count)]
    forms.append(np.zeros((p, n, n)))
    if (n, p) == (4, 1):
        forms.append(S2S2_TURNED[None])
    return FundamentalData.stack(n, p, c, np.stack(forms))


def _searched(monkeypatch):
    """Patch the plane search to log the forms of each call; returns the log."""
    calls = []
    descend = curvature._descend_frames

    def logged(forms, c, x0, iters):
        calls.append(forms)
        return descend(forms, c, x0, iters)

    monkeypatch.setattr(curvature, "_descend_frames", logged)
    return calls


def _each_alone(monkeypatch, records, budget, seed):
    """kmin_bracket of every record alone, and the indices of the records that searched."""
    calls = _searched(monkeypatch)
    brackets, opened = [], []
    for k, record in enumerate(records):
        before = len(calls)
        brackets.append(kmin_bracket(record, budget=budget, seed=seed))
        opened += [k] * (len(calls) - before)
    return brackets, opened


def _assert_stack_equals_each(monkeypatch, records, budget=4, seed=2):
    alone, opened = _each_alone(monkeypatch, records, budget, seed)
    calls = _searched(monkeypatch)
    forms = np.stack([r.forms for r in records])
    stacked = kmin_brackets(forms, records[0].c, budget=budget, seed=seed)
    assert [b.lo.hex() for b in stacked] == [b.lo.hex() for b in alone]
    assert [b.hi.hex() for b in stacked] == [b.hi.hex() for b in alone]
    # the search ran once per open record, in record order, and for no closed one
    assert [next(k for k, f in enumerate(forms) if np.array_equal(f, call))
            for call in calls] == opened
    assert len(set(opened)) == len(opened)
    return opened


GROUPS = [(n, p) for n in (2, 3, 4, 5, 6, 8) for p in (1, 2)]


@pytest.mark.parametrize("n,p", GROUPS, ids=[f"n{n}-p{p}" for n, p in GROUPS])
def test_stack_equals_each_record(monkeypatch, n, p):
    records = _group(n, p, 0, count=3 if n == 8 else 5)
    opened = _assert_stack_equals_each(monkeypatch, records)
    if n >= 5 and p == 2 or (n, p) == (4, 1):   # open and closed brackets in one group
        assert 0 < len(opened) < len(records)
    if n <= 3:
        assert opened == []


@pytest.mark.parametrize("n", [3, 4, 5])
def test_mean_aligned_group(monkeypatch, n):
    rng = np.random.default_rng([n, 62])
    forms = np.stack([make_pseudo_umbilical(n, 3, 1.0, h, rng).forms for h in (0.5, 0.2, 0.9)])
    _assert_stack_equals_each(monkeypatch, FundamentalData.stack(n, 3, 1.0, forms, 0))


def test_zero_record_stops_thorpe_at_once(monkeypatch):
    """At n = 4 a zero record's operator is c times the identity: every bottom eigenvector is
    a basis 2-vector, whose slope <w, *w> is exactly 0, so its bisection stops at t = 0
    while the other records of its stack go on."""
    records = _group(4, 2, 3)
    stops = []
    eigh = np.linalg.eigh

    def logged(a, *args, **kwargs):
        stops.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", logged)
    brackets = kmin_brackets(np.stack([r.forms for r in records]), 1.0)
    assert brackets[-1] == (1.0, 1.0)
    assert stops[:2] == [len(records), len(records) - 1]
    monkeypatch.undo()
    _assert_stack_equals_each(monkeypatch, records)


def test_group_longer_than_one_slice(monkeypatch):
    n = 8
    size = GAUSS_BYTES // (8 * n**4)
    rng = np.random.default_rng(63)
    forms = np.stack([0.3 * random_tuple(n, 1, rng, traceless=True) for _ in range(3 * size + 5)])
    forms[size] = 0.0   # a zero record opening the second slice
    _assert_stack_equals_each(monkeypatch, FundamentalData.stack(n, 1, 1.0, forms))


@pytest.mark.parametrize("n,p", [(4, 1), (5, 2)])
def test_open_records_across_small_slices(monkeypatch, n, p):
    # slices of two records, so open and closed ones fall in several of them
    monkeypatch.setattr(curvature, "GAUSS_BYTES", 2 * 8 * n**4)
    opened = _assert_stack_equals_each(monkeypatch, _group(n, p, 4))
    assert opened


def test_slices_bound_the_gauss_tensors(monkeypatch):
    sizes = []
    gauss = curvature._gauss

    def logged(forms, c):
        sizes.append(len(forms))
        return gauss(forms, c)

    monkeypatch.setattr(curvature, "_gauss", logged)
    size = GAUSS_BYTES // (8 * 8**4)   # records whose n = 8 Gauss tensors fit the budget
    forms = np.zeros((3 * size + 5, 1, 8, 8))
    assert kmin_brackets(forms, 1.0) == [(1.0, 1.0)] * len(forms)
    assert sizes == [size, size, size, 5] and size > 1


def test_a_stack_below_n2_is_refused():
    with pytest.raises(ValueError, match="sectional curvature needs n >= 2"):
        kmin_brackets(np.ones((3, 2, 1, 1)), 1.0)
