"""In-process span tracing of the rigidity modules, installed from outside.

The tracer replaces public module attributes with timing wrappers, in every
rigidity module that holds the same function object (so `pinching.kmin_bracket`
and `cli.verdict`, imported names, are traced too), and restores them on
uninstall.  Spans live in memory: name, duration, time covered by direct
child spans, and the command that caused them.  The traced code runs serially
(`check --jobs 1`), so one stack is enough.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import Counter

import numpy as np

MODULES = ("rigidity", "rigidity.cli", "rigidity.curvature", "rigidity.pinching",
           "rigidity.ddvv", "rigidity.symmat", "rigidity.immersion", "rigidity.models",
           "rigidity.simons")

# (module, attribute, span name); the span name says which layer owns the time.
TIMED = [
    ("rigidity.curvature", "kmin_bracket", "curvature.kmin_bracket"),
    ("rigidity.curvature", "riemann", "curvature.riemann"),
    ("rigidity.curvature", "curvature_operator", "curvature.curvature_operator"),
    ("rigidity.pinching", "verdict", "pinching.verdict"),
    ("rigidity.ddvv", "evaluate", "ddvv.evaluate"),
    ("rigidity.ddvv", "detect_equality", "ddvv.detect_equality"),
    ("rigidity.ddvv", "maximize_ratio", "ddvv.maximize_ratio"),
    ("rigidity.symmat", "symmetrize", "symmat.symmetrize"),
    ("rigidity.immersion", "differentiate", "immersion.differentiate"),
    ("rigidity.immersion", "frames", "immersion.frames"),
    ("rigidity.immersion", "second_fundamental_form", "immersion.second_fundamental_form"),
    ("rigidity.cli", "load_inputs", "cli.load_inputs"),
    ("rigidity.cli", "_dump", "cli.serialize"),
] + [("rigidity.cli", f"{kind}_to_dict", "cli.serialize")
     for kind in ("data", "bracket", "verdict", "ddvv", "extremal", "sample", "record")]

# Hot inner functions: counted, not timed, to keep the tracing overhead small.
COUNTED = [
    ("rigidity.ddvv", "commutator_energy", "ddvv.commutator_energy"),
    ("rigidity.ddvv", "energy_gradient", "ddvv.energy_gradient"),
]

LOWER_BOUND = ("curvature.riemann", "curvature.curvature_operator", "numpy.eigvalsh")


@dataclasses.dataclass
class Span:
    name: str
    dur: float
    child: float          # time covered by direct child spans
    lower_bound: float    # time of direct lower-bound children (kmin_bracket spans)
    n: int | None         # point dimension (kmin_bracket spans)
    parent: str | None
    command: int


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module(m) for m in MODULES]
        self.stack: list[list] = []   # [name, child time, lower-bound time]
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.command = -1
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------------------

    def _timed(self, name, fn):
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                    if name in LOWER_BOUND:
                        stack[-1][2] += dur
                n = args[0].n if name == "curvature.kmin_bracket" else None
                spans.append(Span(name, dur, frame[1], frame[2], n, parent, self.command))

        return wrapper

    def _eigvalsh(self, fn):
        """np.linalg.eigvalsh, traced only where kmin_bracket calls it for its lower bound."""
        timed = self._timed("numpy.eigvalsh", fn)

        def wrapper(*args, **kwargs):
            if self.stack and self.stack[-1][0] == "curvature.kmin_bracket":
                return timed(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _builtin(self, fn):
        """Count evaluations of each builtin immersion's parametric map."""
        counted = self._counted

        def wrapper(*args, **kwargs):
            spec = fn(*args, **kwargs)
            return dataclasses.replace(spec, map=counted("immersion.map", spec.map))

        return wrapper

    # -- install / uninstall -----------------------------------------------------

    def _replace(self, module: str, attr: str, make) -> None:
        orig = getattr(importlib.import_module(module), attr)
        wrapped = make(orig)
        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        for module, attr, name in TIMED:
            self._replace(module, attr, lambda fn, name=name: self._timed(name, fn))
        for module, attr, name in COUNTED:
            self._replace(module, attr, lambda fn, name=name: self._counted(name, fn))
        self._replace("rigidity.immersion", "builtin", self._builtin)
        orig = np.linalg.eigvalsh
        self._patches.append((np.linalg, "eigvalsh", orig))
        np.linalg.eigvalsh = self._eigvalsh(orig)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patches):
            setattr(mod, key, value)
        self._patches.clear()
