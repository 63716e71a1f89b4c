"""Reference ratio ascent: one projected gradient ascent per start, in a loop.

This is the straightforward form of the search that `ddvv.maximize_ratio`
runs as one stack: every start is drawn, ascended and scored on its own, and
the history is appended start by start.  It shares no search code with the
package; it calls the package's energy and gradient kernels, whose values do
not depend on the batch shape, so tests can hold the stacked ascent to it bit
for bit.
"""

import random

import numpy as np

from rigidity.ddvv import MaximizeResult, commutator_energy, energy_gradient, evaluate


def ascend(t, iters):
    """Ascend one unit-sphere tuple; return the final tuple, its energy and the trace."""
    f = commutator_energy(t)
    trace = []
    for _ in range(iters):
        grad = energy_gradient(t)
        tang = grad - np.sum(grad * t) * t
        if np.sqrt(np.sum(tang * tang)) < 1e-16:
            break
        step, accepted, cand, fc = 0.1, False, t, f
        while step > 1e-16:
            trial = t + step * tang
            trial /= np.sqrt(np.sum(trial * trial))
            ft = commutator_energy(trial)
            if ft > f:
                accepted, cand, fc = True, trial, ft
                break
            step /= 2.0
        if not accepted:
            break
        gain = fc - f
        t, f = cand, fc
        trace.append(f)
        if gain < 1e-14 * max(1.0, f):
            break
    return t, f, trace


def start_tuples(n, m, seed, starts):
    """The unit-sphere start tuples of maximize_ratio: one random.Random(seed) stream of
    standard normals read entry by entry, matrix by matrix, start by start; each matrix G
    becomes (G + G^T)/2 and each tuple is scaled to unit norm."""
    gauss = random.Random(seed).gauss
    out = []
    for _ in range(starts):
        g = np.array([[[gauss() for _ in range(n)] for _ in range(n)] for _ in range(m)])
        t = (g + g.transpose(0, 2, 1)) / 2.0
        t /= np.sqrt(np.sum(t * t))
        out.append(t)
    return out


def reference_maximize_ratio(n, m, seed=0, starts=32, iters=2000):
    """maximize_ratio with the same starts, ascended one start at a time."""
    if m < 2 or n < 2:
        return MaximizeResult(tuple=np.zeros((max(m, 0), n, n)), ratio=0.0, history=[])
    best_t, best_f = None, -np.inf
    history = []
    for t in start_tuples(n, m, seed, starts):
        t, f, trace = ascend(t, iters)
        history.extend(trace)
        if f > best_f:
            best_t, best_f = t, f
    return MaximizeResult(tuple=best_t, ratio=evaluate(best_t).ratio, history=history)
