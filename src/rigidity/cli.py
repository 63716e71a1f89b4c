"""Command line front end: check | ddvv | model | immersion | pinch.

Subcommands exchange JSON on disk/stdout (FundamentalData payloads, check
reports, point samples) and one CSV threshold table.  Exit codes: 0 every
verdict strict or boundary, 1 some verdict fails, 2 some verdict
indeterminate, 3 hypothesis/validation error, 4 parse error, 5 usage error;
batches report the worst record.  A `check` record whose verdict raises (a
hypothesis, or a threshold its data leaves undefined) or that has no bracket
(n = 1) is reported as {"input", "error"} and counts as 3; the other records of
its batch are still checked.  A record that fails validation (a bad field, shape
or matrix) exits 4 naming it, and no report is written.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from collections.abc import Iterator
from itertools import repeat
from types import SimpleNamespace
from typing import TYPE_CHECKING

# Each subcommand imports the package modules it runs, so `ddvv --random` loads
# ddvv and symmat, not all eight; numpy, json, threading and datetime load only in a handler
# that computes, after its argument checks, so `pinch`, help and usage errors skip them.
if TYPE_CHECKING:
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    groups: dict = {}
    for k, record in enumerate(records):
        groups.setdefault((record.n, record.p, repr(record.c), record.mean_index), []).append(k)
    out = [None] * len(records)
    for group in groups.values():
        results = run(records[group[0]], np.stack([records[k].forms for k in group]))
        for k, result in zip(group, results):
            out[k] = result
    return out


# A report object is its record's fields in field order; a nested record or array is replaced.
def bracket_to_dict(b: Bracket) -> dict:
    return b._asdict()


def verdict_to_dict(v: PinchVerdict) -> dict:
    return {**v._asdict(), "kmin_bracket": bracket_to_dict(v.kmin_bracket)}


def ddvv_to_dict(report: DdvvReport) -> dict:
    return {**report._asdict(), "extremal_structure": extremal_to_dict(report.extremal_structure)}


def extremal_to_dict(s) -> dict | None:
    if s is None:
        return None
    return {**s._asdict(), "normal_rotation": s.normal_rotation.tolist(),
            "tangent_rotation": s.tangent_rotation.tolist()}


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

    worst = max(verdicts, key=lambda v: severity(v.status))
    return {
        "input": label,
        "shape": {"n": data.n, "p": data.p, "c": data.c, "mean_index": data.mean_index},
        "invariants": data.invariants._asdict(),
        "kmin_bracket": bracket_to_dict(bracket),
        "ddvv": ddvv_to_dict(dd),
        "verdicts": [verdict_to_dict(v) for v in verdicts],
        "status": worst.status,
        "exit_hint": severity(worst.status),
        "timestamp": stamp,
        "elapsed_s": elapsed,
    }


def _dump(obj, out_path: str | None) -> None:
    """Write obj as `json.dumps(obj, indent=2, allow_nan=False)` and a newline.

    A top-level list, or a list member of a top-level object, may be an iterator: its items
    are built, encoded and dropped one at a time, so only the report's text is held.  Every
    item is encoded before the first write, so a value that cannot be encoded writes nothing.
    """
    import json

    encode = json.JSONEncoder(indent=2, allow_nan=False).encode
    blocks: list[str] = []

    def put(value, depth: int) -> None:
        # a JSON text holds no raw newline, so re-indenting a text to its depth is exact
        if not isinstance(value, (list, Iterator)):
            blocks.append(encode(value).replace("\n", "\n" + "  " * depth))
            return
        inner = "\n" + "  " * (depth + 1)
        opening, comma = "[" + inner, "," + inner
        for item in value:
            blocks.extend((opening, encode(item).replace("\n", inner)))
            opening = comma
        blocks.append("[]" if opening is not comma else "\n" + "  " * depth + "]")

    if isinstance(obj, dict) and obj:
        opening = "{\n  "
        for key, value in obj.items():   # a report's keys are strings
            blocks.extend((opening, encode(key), ": "))
            put(value, 1)
            opening = ",\n  "
        blocks.append("\n}")
    else:
        put(obj, 0)
    blocks.append("\n")
    _write(blocks, out_path)


def _write(blocks: list[str], out_path: str | None) -> None:
    """Write the blocks in order to the --out file, or to stdout when there is none; a file
    or a stdout that cannot be written is a ParseFailure naming it."""
    try:
        if out_path:
            with open(out_path, "w") as fh:
                fh.writelines(blocks)
        else:
            sys.stdout.writelines(blocks)
    except OSError as exc:
        raise ParseFailure(f"{out_path or '<stdout>'}: {exc.strerror or exc}") from exc


# -- input loading ---------------------------------------------------------

def load_inputs(path: str) -> list[tuple[str, FundamentalData]]:
    """Parse a JSON file into labeled FundamentalData items.

    Accepts one FundamentalData object, a list of them, or a list of point
    samples (objects carrying a "data" field) as written by `immersion`.
    """
    import json

    try:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8, whatever the locale
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # invalid UTF-8, a huge int, deep nesting
        raise ParseFailure(f"{path}: {exc}") from exc
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
    """An input file could not be read or understood, or the --out file or stdout could not
    be written; maps to exit code 4."""


# -- subcommands ----------------------------------------------------------

def _error(message: str, code: int | None = None) -> int | None:
    """One `error:` line on stderr if it takes it, as argparse writes its own; returns code."""
    with contextlib.suppress(OSError):
        print(f"error: {message}", file=sys.stderr)
    return code


def _usage(message: str) -> int:
    return _error(message, EXIT_USAGE)


def _timestamp(args) -> str | None:
    if args.no_timestamp:
        return None
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def _array_pass(first: FundamentalData, forms: np.ndarray, args) -> list[tuple]:
    """(bracket, DDVV report) of each record of a shape group, from its stacked forms; the
    bracket is the error message of a group that has none (n = 1)."""
    from .curvature import kmin_brackets
    from .ddvv import evaluate_stack

    try:
        brackets = kmin_brackets(forms, first.c, budget=args.budget, seed=args.seed)
    except ValueError as exc:
        brackets = [str(exc)] * len(forms)
    return list(zip(brackets, evaluate_stack(forms)))


def _check_one(item: tuple[str, FundamentalData], staged: tuple, args) -> tuple:
    """The per-record stage of `check`, from the record's row of its array pass: the record's
    verdicts and their elapsed seconds, or its error message and None when its bracket failed
    or a verdict raises."""
    from .pinching import verdict

    t0 = time.perf_counter()
    _, data = item
    bracket = staged[0]
    if isinstance(bracket, str):
        return bracket, None
    auto = "thm2" if data.mean_index is not None else "thm1"
    try:
        verdicts = [verdict(data, auto if th == "auto" else th, tol=args.tol, bracket=bracket)
                    for th in args.theorem or ["auto"]]
    except ValueError as exc:  # pinching.HypothesisError included
        return str(exc), None
    return verdicts, None if args.no_timestamp else time.perf_counter() - t0


def cmd_check(args) -> int:
    from .pinching import severity

    if args.budget < 0:
        return _usage("--budget must be >= 0")
    if args.seed < 0:
        return _usage("--seed must be >= 0")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        return _usage("--tol must be a finite number >= 0")
    if args.jobs < 1:
        return _usage("--jobs must be >= 1")
    items = [item for path in args.inputs for item in load_inputs(path)]
    stamp = _timestamp(args)

    # one array pass per group brackets every record and evaluates its DDVV report
    staged = _by_group([data for _, data in items], lambda f, forms: _array_pass(f, forms, args))

    if args.jobs > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            checked = list(pool.map(_check_one, items, staged, repeat(args)))
    else:
        checked = list(map(_check_one, items, staged, repeat(args)))
    for (label, _), (verdicts, _) in zip(items, checked):
        if isinstance(verdicts, str):
            _error(f"{label}: {verdicts}")
    # every verdict has run; each record is built as the report encodes it
    records = ({"input": label, "error": verdicts} if isinstance(verdicts, str) else
               record_to_dict(label, data, *row, verdicts, stamp, elapsed)
               for (label, data), row, (verdicts, elapsed) in zip(items, staged, checked))
    _dump({"records": records}, args.out)
    return max((EXIT_HYPOTHESIS if isinstance(verdicts, str) else
                max(severity(v.status) for v in verdicts) for verdicts, _ in checked),
               default=EXIT_OK)


SWEEP_BYTES = 1 << 19   # bytes of the --random sweep's tuple buffer: one batch of tuples


def _random_sweep(seed: int, packed: np.ndarray, tuples: np.ndarray, n: int, m: int,
                  trials: int) -> tuple[float, int]:
    """Max DDVV ratio and violation count of `trials` random (m, n, n) tuples.

    Member k is row k of one (trials * m, n(n+1)/2) standard_normal draw of default_rng(seed):
    its diagonal, then its entries i < j row by row.  Its diagonal scaled by sqrt(2), it is
    (G + G^T)/2 of a Gaussian G times sqrt(2), which the ratio drops.  A helper thread draws
    batch k + 1 into one packed buffer while this thread scales batch k, gathers it into
    `tuples` and evaluates it, in numpy loops that release the GIL.  Batches are drawn and
    used in order, so every bit of the result is one serial draw's at any batch size.  The
    helper calls numpy only, its exception re-raises here, and it is joined before return.
    """
    import threading

    import numpy as np

    from .ddvv import ratio_terms

    rng, size = np.random.default_rng(seed), len(tuples) // m
    scale = np.where(np.arange(packed.shape[-1]) < n, math.sqrt(2.0), 1.0)   # per column
    index = np.diag(np.arange(n))   # packed column of each entry
    rows, cols = np.triu_indices(n, 1)
    index[rows, cols] = index[cols, rows] = np.arange(n, packed.shape[-1])
    starts = range(0, trials, size)
    free, filled = threading.Semaphore(2), threading.Semaphore(0)   # packed buffers in each state
    stop, failure = threading.Event(), []

    def draw():
        try:
            for k, done in enumerate(starts):
                free.acquire()
                if stop.is_set():
                    return
                rng.standard_normal(out=packed[k % 2, : min(size, trials - done) * m])
                filled.release()
        except BaseException as exc:  # handed to the sweep, which raises it
            failure.append(exc)
            filled.release()

    helper = threading.Thread(target=draw, name="ddvv-draw")
    helper.start()
    best, violations = 0.0, 0
    try:
        for k, done in enumerate(starts):
            filled.acquire()
            if failure:
                raise failure[0]
            members = packed[k % 2, : min(size, trials - done) * m]
            np.multiply(members, scale, out=members)
            t = np.take(members, index, axis=1, out=tuples[: len(members)], mode="clip")
            free.release()
            ratio = ratio_terms(t.reshape(-1, m, n, n))[2]
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
    import numpy as np

    try:
        return np.empty(shape)
    except (ValueError, MemoryError) as exc:
        return _error(f"{flag}: {exc}")


def cmd_ddvv(args) -> int:
    if args.seed < 0:
        return _usage("--seed must be >= 0")
    if args.random:
        n, m, trials = args.random
        if n < 1 or m < 1 or trials < 1:
            return _usage("--random needs positive n, m, trials")
        rows = min(trials, max(1, SWEEP_BYTES // (8 * m * n * n))) * m   # members per batch
        packed = _allocate("--random", (2, rows, n * (n + 1) // 2))
        tuples = None if packed is None else _allocate("--random", (rows, n, n))
        if tuples is None:
            return EXIT_USAGE
        best, violations = _random_sweep(args.seed, packed, tuples, n, m, trials)
        _dump({"mode": "random", "n": n, "m": m, "trials": trials,
               "seed": args.seed, "max_ratio": best, "violations": violations,
               "timestamp": _timestamp(args)}, args.out)
        return EXIT_OK if violations == 0 else EXIT_FAILS
    if args.maximize:
        n, m, starts = args.maximize
        if n < 1 or m < 1 or starts < 1 or args.iters < 0:
            return _usage("--maximize needs positive n, m, starts; --iters >= 0")
        from .ddvv import detect_equality, maximize_ratio

        if _allocate("--maximize", (starts, m, n, n)) is None:  # maximize_ratio's start stack
            return EXIT_USAGE
        result = maximize_ratio(n, m, seed=args.seed, starts=starts, iters=args.iters)
        structure = detect_equality(result.tuple)
        _dump({"mode": "maximize", "n": n, "m": m, "starts": starts,
               "iters": args.iters, "seed": args.seed, "best_ratio": result.ratio,
               "iterations": len(result.history),
               "extremal_structure": extremal_to_dict(structure),
               "timestamp": _timestamp(args)}, args.out)
        return EXIT_OK
    from .ddvv import evaluate_stack

    items = load_inputs(args.input)
    reports = _by_group([data for _, data in items], lambda _, forms: evaluate_stack(forms))
    reports = ({"input": label, **ddvv_to_dict(r)} for (label, _), r in zip(items, reports))
    _dump({"mode": "input", "reports": reports, "timestamp": _timestamp(args)}, args.out)
    return EXIT_OK


def cmd_model(args) -> int:
    from .models import ModelSpec, build_model

    # the (p, n, n) forms stack the builder allocates, probed as ddvv's stacks are
    shape = ({"totally-geodesic": args.p, "umbilical-sphere": args.p,
              "product-of-spheres": 1}.get(args.kind), args.n, args.n)
    if None not in shape and min(shape) > 0 and _allocate("--n", shape) is None:
        return EXIT_USAGE
    spec = ModelSpec(*(getattr(args, f) for f in ModelSpec._fields))
    try:
        data = build_model(spec)
    except ValueError as exc:
        return _error(str(exc), EXIT_HYPOTHESIS)
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
        return _error(str(exc), EXIT_HYPOTHESIS)
    _dump(map(sample_to_dict, samples), args.out)
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
    _write(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK


# -- parser ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit with the reserved code 5 and whose help is a report."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        if file is sys.stdout:   # help, written as a report is
            _write([message], None)
        else:   # argparse's own, which drops a failed write
            super()._print_message(message, file)


def _check_arguments(chk) -> None:
    from .pinching import THEOREMS

    chk.add_argument("inputs", nargs="+", metavar="INPUT",
                     help="JSON files: FundamentalData, lists, or immersion samples")
    chk.add_argument("--theorem", action="append",
                     choices=["auto", *THEOREMS],
                     help="theorem(s) to verify (default: auto by frame)")
    chk.add_argument("--tol", type=float, default=1e-8)
    chk.add_argument("--budget", type=int, default=64,
                     help="random multistarts of the K_min plane search, which runs "
                          "only when the closed-form plane leaves the bracket open")
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
        if args.out == "":   # every subcommand has --out; an empty one would mean stdout
            return _usage("--out must name a file")
        return args.func(args)
    except SystemExit as exc:   # argparse's help and usage errors
        return int(exc.code or 0)
    except ParseFailure as exc:
        return _error(str(exc), EXIT_PARSE)


def entry() -> None:
    """Exit with main's code through os._exit, which skips teardown, once stdout and stderr
    are flushed.  A stdout that cannot take the report exits 4 with one error line, as an
    unwritable --out does; main has said so already when its own write failed."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:  # a full disk, a closed reader
        if code != EXIT_PARSE:
            _error(f"<stdout>: {exc.strerror or exc}")
        code = EXIT_PARSE
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
