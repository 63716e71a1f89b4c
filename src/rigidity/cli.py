"""Command line front end: check | ddvv | model | immersion | pinch.

Subcommands exchange JSON on disk/stdout (FundamentalData payloads, check
reports, point samples) and one CSV threshold table.  Exit codes: 0 every
verdict strict or boundary, 1 some verdict fails, 2 some verdict
indeterminate, 3 hypothesis/validation error, 4 parse error, 5 usage error;
batches report the worst record.  A `check` record that raises a hypothesis or
validation error is reported as {"input", "error"} and counts as 3; the other
records of its batch are still checked.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from datetime import datetime, timezone
from itertools import repeat
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

# Each subcommand imports the package modules it runs, so `ddvv --random` loads
# ddvv and symmat, not all eight.
if TYPE_CHECKING:
    from .curvature import Bracket, FundamentalData
    from .ddvv import DdvvReport
    from .immersion import PointSample
    from .pinching import PinchVerdict

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_HYPOTHESIS = 3
EXIT_PARSE = 4
EXIT_USAGE = 5


# -- serialization -------------------------------------------------------------

def data_to_dict(data: FundamentalData) -> dict:
    return {
        "n": data.n,
        "p": data.p,
        "c": data.c,
        "H_matrices": data.forms.tolist(),
        "mean_index": data.mean_index,
    }


def _is_number(value, kinds=(int, float)) -> bool:
    # bool is a subclass of int, so JSON true/false would pass as 1/0
    return isinstance(value, kinds) and not isinstance(value, bool)


def _non_number(value) -> str | None:
    """The type name of an entry of nested JSON lists that is not a number, else None."""
    level = [value]
    while level:  # level by level: no depth of nesting can exhaust the stack
        nested = []
        for x in level:
            if isinstance(x, list):
                nested += x
            elif not _is_number(x):
                return type(x).__name__
        level = nested
    return None


def data_from_dict(obj) -> FundamentalData:
    return _data_from_dicts([obj])[0]


def _data_from_dicts(objs) -> list[FundamentalData]:
    """data_from_dict of every payload, each shape group validated as one stack."""
    from .curvature import FundamentalData

    return _by_group([_fields(obj) for obj in objs],
                     lambda f, forms: FundamentalData.stack(f.n, f.p, f.c, forms, f.mean_index))


def _fields(obj) -> SimpleNamespace:
    """n, p, c, forms and mean_index of one FundamentalData payload, each field checked."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for key in ("n", "p", "c", "H_matrices"):
        if key not in obj:
            raise ValueError(f"missing required field {key!r}")
    n, p = obj["n"], obj["p"]
    if not _is_number(n, int) or not _is_number(p, int):
        raise ValueError("fields 'n' and 'p' must be integers")
    mean_index = obj.get("mean_index")
    if mean_index is not None and not _is_number(mean_index, int):
        raise ValueError("field 'mean_index' must be an integer or null")
    c = obj["c"]
    if not _is_number(c) or not abs(c) <= sys.float_info.max:  # nan, inf, an int past float
        shown = f"int of {len(str(abs(c)))} digits" if _is_number(c, int) else repr(c)
        raise ValueError(f"field 'c' must be a finite number, got {shown}")
    if bad := _non_number(obj["H_matrices"]):
        raise ValueError(f"field 'H_matrices' must hold numbers, got {bad}")
    try:
        forms = np.asarray(obj["H_matrices"], dtype=float)
    except OverflowError:  # an int past the float range is not finite either
        forms = np.array(np.inf)
    if not np.all(np.isfinite(forms)):
        raise ValueError("field 'H_matrices' has non-finite entries")
    return SimpleNamespace(n=n, p=p, c=float(c), forms=forms, mean_index=mean_index)


def _by_group(records, run) -> list:
    """One result per record, from run(first, forms) once per shape group: the records sharing
    n, p, repr(c) (-0.0 is not 0.0) and mean_index, their forms as one (R, p, n, n) stack."""
    groups: dict = {}
    for k, record in enumerate(records):
        groups.setdefault((record.n, record.p, repr(record.c), record.mean_index), []).append(k)
    out = [None] * len(records)
    for group in groups.values():
        results = run(records[group[0]], np.stack([records[k].forms for k in group]))
        for k, result in zip(group, results):
            out[k] = result
    return out


def bracket_to_dict(b: Bracket) -> dict:
    return {"lo": b.lo, "hi": b.hi}


def verdict_to_dict(v: PinchVerdict) -> dict:
    return {
        "theorem": v.theorem,
        "threshold": v.threshold,
        "kmin_bracket": bracket_to_dict(v.kmin_bracket),
        "status": v.status,
        "label": v.label,
        "notes": list(v.notes),
    }


def ddvv_to_dict(report: DdvvReport) -> dict:
    return {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "ratio": report.ratio,
        "equality": report.equality,
        "extremal_structure": extremal_to_dict(report.extremal_structure),
    }


def extremal_to_dict(s) -> dict | None:
    if s is None:
        return None
    return {
        "active": list(s.active),
        "mu": s.mu,
        "normal_rotation": s.normal_rotation.tolist(),
        "tangent_rotation": s.tangent_rotation.tolist(),
        "offplane_frac": s.offplane_frac,
        "match_residual": s.match_residual,
    }


def sample_to_dict(s: PointSample) -> dict:
    return {
        "params": s.params.tolist(),
        "position": s.position.tolist(),
        "tangent": s.tangent.tolist(),
        "normal": s.normal.tolist(),
        "data": data_to_dict(s.data),
    }


def record_to_dict(label: str, data: FundamentalData, bracket: Bracket, dd: DdvvReport,
                   verdicts: list[PinchVerdict], stamp: str | None,
                   elapsed: float | None) -> dict:
    """The `check` record of one datum: its invariants, bracket, DDVV report and verdicts;
    status and exit_hint are the worst verdict's."""
    from .pinching import severity

    inv, worst = data.invariants, max(verdicts, key=lambda v: severity(v.status))
    return {
        "input": label,
        "shape": {"n": data.n, "p": data.p, "c": data.c, "mean_index": data.mean_index},
        "invariants": {"S": inv.S, "H": inv.H, "S_H": inv.S_H, "S_I": inv.S_I,
                       "R_scal": inv.R_scal},
        "kmin_bracket": bracket_to_dict(bracket),
        "ddvv": ddvv_to_dict(dd),
        "verdicts": [verdict_to_dict(v) for v in verdicts],
        "status": worst.status,
        "exit_hint": severity(worst.status),
        "timestamp": stamp,
        "elapsed_s": elapsed,
    }


def _dump(obj, out_path: str | None) -> None:
    _write(json.dumps(obj, indent=2, allow_nan=False) + "\n", out_path)


def _write(text: str, out_path: str | None) -> None:
    """Write text to the --out file, or to stdout when there is none."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- input loading ---------------------------------------------------------

def load_inputs(path: str) -> list[tuple[str, FundamentalData]]:
    """Parse a JSON file into labeled FundamentalData items.

    Accepts one FundamentalData object, a list of them, or a list of point
    samples (objects carrying a "data" field) as written by `immersion`.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseFailure(f"{path}: {exc.strerror or exc}") from exc

    entries = payload if isinstance(payload, list) else [payload]
    labels = [f"{path}#{i}" for i in range(len(entries))] if isinstance(payload, list) else [path]
    objs = [obj["data"] if isinstance(obj, dict) and "data" in obj else obj for obj in entries]
    try:
        return list(zip(labels, _data_from_dicts(objs)))
    except ValueError:
        for label, obj in zip(labels, objs):  # name the first bad record, in file order
            try:
                data_from_dict(obj)
            except ValueError as exc:
                raise ParseFailure(f"{label}: {exc}") from exc
        raise


class ParseFailure(Exception):
    """Input file could not be understood; maps to exit code 4."""


# -- subcommands ----------------------------------------------------------

def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _timestamp(args) -> str | None:
    if args.no_timestamp:
        return None
    return datetime.now(timezone.utc).isoformat()


def _array_pass(first: FundamentalData, forms: np.ndarray) -> list[tuple]:
    """(bracket, DDVV report) of each record of a shape group, from its stacked forms; the
    bracket is None at n >= 3, where the plane search runs per record."""
    from .curvature import surface_brackets
    from .ddvv import evaluate_stack

    brackets = surface_brackets(forms, first.c) if first.n == 2 else [None] * len(forms)
    return list(zip(brackets, evaluate_stack(forms)))


def _check_one(item: tuple[str, FundamentalData], staged: tuple, args, stamp) -> dict:
    """The per-record stage of `check`, from the record's row of its array pass: the report
    record, or {"input", "error"} when the plane search or a verdict raises."""
    from .curvature import kmin_bracket
    from .pinching import verdict

    t0 = time.perf_counter()
    label, data = item
    bracket, dd = staged
    auto = "thm2" if data.mean_index is not None else "thm1"
    try:
        if bracket is None:
            bracket = kmin_bracket(data, budget=args.budget, seed=args.seed)
        verdicts = [verdict(data, auto if th == "auto" else th, tol=args.tol, bracket=bracket)
                    for th in args.theorem or ["auto"]]
    except ValueError as exc:  # pinching.HypothesisError included
        return {"input": label, "error": str(exc)}
    elapsed = None if args.no_timestamp else time.perf_counter() - t0
    return record_to_dict(label, data, bracket, dd, verdicts, stamp, elapsed)


def cmd_check(args) -> int:
    if args.budget < 0:
        return _usage("--budget must be >= 0")
    if args.seed < 0:
        return _usage("--seed must be >= 0")
    if not (np.isfinite(args.tol) and args.tol >= 0):
        return _usage("--tol must be a finite number >= 0")
    if args.jobs < 1:
        return _usage("--jobs must be >= 1")
    items = [item for path in args.inputs for item in load_inputs(path)]
    stamp = _timestamp(args)

    # one array pass per group; it raises on no validated data (non-finite sums stay
    # NaN/inf), so what can fail, the n >= 3 plane search and the verdicts, runs per record
    staged = _by_group([data for _, data in items], _array_pass)

    if args.jobs > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(_check_one, items, staged, repeat(args), repeat(stamp)))
    else:
        records = list(map(_check_one, items, staged, repeat(args), repeat(stamp)))
    for r in records:
        if "error" in r:
            print(f"error: {r['input']}: {r['error']}", file=sys.stderr)
    _dump({"records": records}, args.out)
    return max((r.get("exit_hint", EXIT_HYPOTHESIS) for r in records), default=EXIT_OK)


SWEEP_BATCH = 2048   # tuples per batch of the --random sweep


def _random_sweep(rng, buffers: np.ndarray, n: int, m: int, trials: int) -> tuple[float, int]:
    """Max DDVV ratio and violation count of `trials` (m, n, n) tuples drawn from rng.

    A helper thread draws batch k + 1 into one of the two draw buffers, buffers[:2], while
    this thread symmetrizes batch k into buffers[2] and evaluates it; both spend their
    time in numpy loops that release the GIL.  Batches are drawn and consumed in order,
    so the stream, and every bit of the result, is a serial sweep's.  The helper calls
    numpy only, its exception re-raises here, and it is joined before this returns.
    """
    from .ddvv import ratio_terms

    draws, tuples = buffers[:2], buffers[2]
    starts = range(0, trials, SWEEP_BATCH)
    free, filled = threading.Semaphore(2), threading.Semaphore(0)   # draw buffers in each state
    stop, failure = threading.Event(), []

    def draw():
        try:
            for k, done in enumerate(starts):
                free.acquire()
                if stop.is_set():
                    return
                rng.standard_normal(out=draws[k % 2, : min(SWEEP_BATCH, trials - done) * m])
                filled.release()
        except BaseException as exc:  # handed to the sweep, which raises it
            failure.append(exc)
            filled.release()

    helper = threading.Thread(target=draw, name="ddvv-draw")
    helper.start()
    best, violations = 0.0, 0
    try:
        for k, done in enumerate(starts):
            batch = min(SWEEP_BATCH, trials - done)
            filled.acquire()
            if failure:
                raise failure[0]
            g = draws[k % 2, : batch * m]   # the bits of normal(size=)
            t = np.add(g, np.swapaxes(g, 1, 2), out=tuples[: batch * m])
            free.release()
            t /= 2.0
            ratio = ratio_terms(t.reshape(batch, m, n, n))[2]
            best = max(best, float(np.max(ratio)))
            violations += int(np.sum(ratio > 1.0 + 1e-12))
    finally:
        stop.set()
        free.release()
        helper.join()
    return best, violations


def _allocate(flag: str, shape: tuple) -> np.ndarray | None:
    """np.empty(shape), or None after one error line when numpy refuses the size the flag's
    arguments ask for: past the index range, or more than the system maps."""
    try:
        return np.empty(shape)
    except (ValueError, MemoryError) as exc:
        print(f"error: {flag}: {exc}", file=sys.stderr)
        return None


def cmd_ddvv(args) -> int:
    if args.seed < 0:
        return _usage("--seed must be >= 0")
    if args.random:
        n, m, trials = args.random
        if n < 1 or m < 1 or trials < 1:
            return _usage("--random needs positive n, m, trials")
        buffers = _allocate("--random", (3, min(SWEEP_BATCH, trials) * m, n, n))
        if buffers is None:
            return EXIT_USAGE
        best, violations = _random_sweep(np.random.default_rng(args.seed), buffers,
                                         n, m, trials)
        _dump({"mode": "random", "n": n, "m": m, "trials": trials,
               "seed": args.seed, "max_ratio": best, "violations": violations,
               "timestamp": _timestamp(args)}, args.out)
        return EXIT_OK if violations == 0 else EXIT_FAILS
    if args.maximize:
        from .ddvv import detect_equality, maximize_ratio

        n, m, starts = args.maximize
        if n < 1 or m < 1 or starts < 1 or args.iters < 0:
            return _usage("--maximize needs positive n, m, starts; --iters >= 0")
        if _allocate("--maximize", (starts, m, n, n)) is None:  # maximize_ratio's start stack
            return EXIT_USAGE
        result = maximize_ratio(n, m, seed=args.seed, starts=starts, iters=args.iters)
        structure = detect_equality(result.tuple, tol=1e-6) if result.ratio > 0 else None
        _dump({"mode": "maximize", "n": n, "m": m, "starts": starts,
               "iters": args.iters, "seed": args.seed, "best_ratio": result.ratio,
               "iterations": len(result.history),
               "extremal_structure": extremal_to_dict(structure),
               "timestamp": _timestamp(args)}, args.out)
        return EXIT_OK
    from .ddvv import evaluate_stack

    items = load_inputs(args.input)
    reports = _by_group([data for _, data in items], lambda _, forms: evaluate_stack(forms))
    reports = [{"input": label, **ddvv_to_dict(r)} for (label, _), r in zip(items, reports)]
    _dump({"mode": "input", "reports": reports, "timestamp": _timestamp(args)},
          args.out)
    return EXIT_OK


def cmd_model(args) -> int:
    from .models import ModelSpec, build_model

    # the (p, n, n) forms stack the builder allocates, probed as ddvv's stacks are
    shape = ({"totally-geodesic": args.p, "umbilical-sphere": args.p,
              "product-of-spheres": 1}.get(args.kind), args.n, args.n)
    if None not in shape and min(shape) > 0 and _allocate("--n", shape) is None:
        return EXIT_USAGE
    spec = ModelSpec(kind=args.kind, n=args.n, p=args.p, k=args.k,
                     c=args.c, H=args.H)
    try:
        data = build_model(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    _dump(data_to_dict(data), args.out)
    return EXIT_OK


def cmd_immersion(args) -> int:
    from .immersion import builtin, sample_grid

    if args.grid < 1:
        return _usage("--grid must be >= 1")
    spec = builtin(args.builtin)
    if _allocate("--grid", (args.grid ** spec.n, spec.n)) is None:  # grid_points' array
        return EXIT_USAGE
    try:
        samples = sample_grid(spec, args.grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    _dump([sample_to_dict(s) for s in samples], args.out)
    return EXIT_OK


def cmd_pinch(args) -> int:
    from .pinching import (threshold_generalized, threshold_itoh, threshold_thm1,
                           threshold_thm2, threshold_yau)
    pmax, nmax = args.table
    if pmax < 1 or nmax < 2:
        return _usage("--table needs pmax >= 1 and nmax >= 2")
    lines = ["p,n,yau,itoh,thm1,thm2@c+H^2=1,generalized_i,generalized_ii"]
    for p in range(1, pmax + 1):
        for n in range(2, nmax + 1):
            cells = (threshold_yau(p), threshold_itoh(n), threshold_thm1(p),
                     threshold_thm2(p, 1.0, 0.0), threshold_generalized(p, n, 1.0, 0.0),
                     threshold_generalized(p, n, 0.0, 1.0))
            lines.append(",".join([str(p), str(n), *map(repr, cells)]))
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# -- parser ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit with the reserved code 5."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _check_arguments(chk) -> None:
    from .pinching import THEOREMS

    chk.add_argument("inputs", nargs="+", metavar="INPUT",
                     help="JSON files: FundamentalData, lists, or immersion samples")
    chk.add_argument("--theorem", action="append",
                     choices=["auto", *THEOREMS],
                     help="theorem(s) to verify (default: auto by frame)")
    chk.add_argument("--tol", type=float, default=1e-8)
    chk.add_argument("--budget", type=int, default=64,
                     help="random multistarts of the K_min plane search "
                          "(n >= 5; n <= 4 is closed form)")
    chk.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    chk.add_argument("--jobs", type=int, default=1,
                     help="thread pool size for batch inputs (default: 1, serial)")
    chk.add_argument("--out", help="write the JSON report here instead of stdout")
    chk.add_argument("--no-timestamp", action="store_true",
                     help="omit timestamps/timing for byte-identical output")
    chk.set_defaults(func=cmd_check)


def _ddvv_arguments(ddv) -> None:
    mode = ddv.add_mutually_exclusive_group(required=True)
    mode.add_argument("--random", nargs=3, type=int, metavar=("N", "M", "TRIALS"),
                      help="max ratio over random symmetric tuples")
    mode.add_argument("--maximize", nargs=3, type=int, metavar=("N", "M", "STARTS"),
                      help="projected gradient ascent on the ratio")
    mode.add_argument("--input", help="evaluate the tuple of a FundamentalData file")
    ddv.add_argument("--iters", type=int, default=2000)
    ddv.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    ddv.add_argument("--out")
    ddv.add_argument("--no-timestamp", action="store_true")
    ddv.set_defaults(func=cmd_ddvv)


def _model_arguments(mdl) -> None:
    from .models import MODEL_KINDS

    mdl.add_argument("kind", choices=list(MODEL_KINDS))
    mdl.add_argument("--n", type=int)
    mdl.add_argument("--p", type=int)
    mdl.add_argument("--k", type=int, help="first factor dimension (product of spheres)")
    mdl.add_argument("--c", type=float, default=1.0)
    mdl.add_argument("--H", type=float, default=0.0)
    mdl.add_argument("--out")
    mdl.set_defaults(func=cmd_model)


def _immersion_arguments(imm) -> None:
    from .immersion import BUILTINS

    imm.add_argument("--builtin", required=True, choices=list(BUILTINS))
    imm.add_argument("--grid", type=int, default=4, help="grid cells per axis")
    imm.add_argument("--out")
    imm.set_defaults(func=cmd_immersion)


def _pinch_arguments(pch) -> None:
    pch.add_argument("--table", nargs=2, type=int, metavar=("PMAX", "NMAX"),
                     required=True)
    pch.add_argument("--out")
    pch.set_defaults(func=cmd_pinch)


# name -> (help, the function that adds its arguments and imports what their choices need)
SUBCOMMANDS = {
    "check": ("verify pinching verdicts for data files", _check_arguments),
    "ddvv": ("evaluate or maximize the commutator inequality", _ddvv_arguments),
    "model": ("emit closed-form model data as JSON", _model_arguments),
    "immersion": ("sample a builtin immersion on a grid", _immersion_arguments),
    "pinch": ("tabulate pinching thresholds as CSV", _pinch_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `rigidity` parser.  Every subcommand is registered, so usage lines name all
    five; given a command, only that one gets its arguments."""
    parser = _Parser(prog="rigidity",
                     description="Curvature pinching toolkit for submanifold data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        if command in (None, name):
            add_arguments(subparser)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    """Exit with main's code: os._exit, once stdout and stderr are flushed, skips teardown."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a broken pipe, a full disk, a closed stream: Python reports it at exit
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
