"""Command line front end: check | ddvv | model | immersion | pinch.

Subcommands exchange JSON on disk/stdout (FundamentalData payloads, check
reports, point samples) and one CSV threshold table.  Exit codes: 0 every
verdict strict or boundary, 1 some verdict fails, 2 some verdict
indeterminate, 3 hypothesis/validation error, 4 parse error, 5 usage error;
batches report the worst record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import ddvv as ddvv_mod
from .curvature import Bracket, FundamentalData, invariants, kmin_bracket
from .immersion import BUILTINS, PointSample, builtin, sample_grid
from .models import MODEL_KINDS, ModelSpec, build_model
from .pinching import THEOREMS, HypothesisError, PinchVerdict, severity, verdict

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INDETERMINATE = 2
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


def _is_int(value) -> bool:
    # bool is a subclass of int, so JSON true/false would pass as 1/0
    return isinstance(value, int) and not isinstance(value, bool)


def data_from_dict(obj) -> FundamentalData:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for key in ("n", "p", "c", "H_matrices"):
        if key not in obj:
            raise ValueError(f"missing required field {key!r}")
    n, p = obj["n"], obj["p"]
    if not _is_int(n) or not _is_int(p):
        raise ValueError("fields 'n' and 'p' must be integers")
    mean_index = obj.get("mean_index")
    if mean_index is not None and not _is_int(mean_index):
        raise ValueError("field 'mean_index' must be an integer or null")
    c = obj["c"]
    if isinstance(c, bool) or not isinstance(c, (int, float)) or not np.isfinite(c):
        raise ValueError(f"field 'c' must be a finite number, got {c!r}")
    forms = np.asarray(obj["H_matrices"], dtype=float)
    if not np.all(np.isfinite(forms)):
        raise ValueError("field 'H_matrices' has non-finite entries")
    return FundamentalData(n=n, p=p, c=float(c), forms=forms, mean_index=mean_index)


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


def ddvv_to_dict(report) -> dict:
    out = {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "ratio": report.ratio,
        "equality": report.equality,
    }
    out["extremal_structure"] = extremal_to_dict(report.extremal_structure)
    return out


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


def sample_from_dict(obj) -> PointSample:
    for key in ("params", "position", "tangent", "normal", "data"):
        if key not in obj:
            raise ValueError(f"missing required field {key!r} in point sample")
    return PointSample(
        params=np.asarray(obj["params"], dtype=float),
        position=np.asarray(obj["position"], dtype=float),
        tangent=np.asarray(obj["tangent"], dtype=float),
        normal=np.asarray(obj["normal"], dtype=float),
        data=data_from_dict(obj["data"]),
    )


@dataclass(frozen=True)
class ReportRecord:
    """One checked datum: invariants, bracket, inequality summary, verdicts."""

    input: str
    shape: dict
    invariants: dict
    kmin_bracket: dict
    ddvv: dict
    verdicts: list
    status: str
    exit_hint: int
    timestamp: str | None
    elapsed_s: float | None


def record_to_dict(r: ReportRecord) -> dict:
    return {
        "input": r.input,
        "shape": r.shape,
        "invariants": r.invariants,
        "kmin_bracket": r.kmin_bracket,
        "ddvv": r.ddvv,
        "verdicts": r.verdicts,
        "status": r.status,
        "exit_hint": r.exit_hint,
        "timestamp": r.timestamp,
        "elapsed_s": r.elapsed_s,
    }


def _dump(obj, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
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

    def coerce(obj, label):
        if isinstance(obj, dict) and "data" in obj:
            obj = obj["data"]
        try:
            return label, data_from_dict(obj)
        except ValueError as exc:
            raise ParseFailure(f"{label}: {exc}") from exc

    if isinstance(payload, list):
        return [coerce(item, f"{path}#{i}") for i, item in enumerate(payload)]
    return [coerce(payload, path)]


class ParseFailure(Exception):
    """Input file could not be understood; maps to exit code 4."""


# -- subcommands ----------------------------------------------------------

def _timestamp(args) -> str | None:
    if args.no_timestamp:
        return None
    return datetime.now(timezone.utc).isoformat()


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    return int(os.environ.get("RIGIDITY_SEED", "0"))


def _auto_theorems(data: FundamentalData) -> list[str]:
    return ["thm2"] if data.mean_index is not None else ["thm1"]


def _check_one(label: str, data: FundamentalData, args, stamp) -> ReportRecord:
    t0 = time.perf_counter()
    inv = invariants(data)
    bracket = kmin_bracket(data, budget=args.budget, seed=args.seed)
    dd = ddvv_mod.evaluate(data.forms)
    theorems = args.theorem or ["auto"]
    wanted: list[str] = []
    for th in theorems:
        wanted.extend(_auto_theorems(data) if th == "auto" else [th])
    verdicts = [verdict(data, th, tol=args.tol, bracket=bracket) for th in wanted]
    exit_hint = max((severity(v.status) for v in verdicts), default=EXIT_OK)
    worst = max(verdicts, key=lambda v: severity(v.status), default=None)
    elapsed = None if args.no_timestamp else time.perf_counter() - t0
    return ReportRecord(
        input=label,
        shape={"n": data.n, "p": data.p, "c": data.c, "mean_index": data.mean_index},
        invariants={"S": inv.S, "H": inv.H, "S_H": inv.S_H, "S_I": inv.S_I,
                    "R_scal": inv.R_scal},
        kmin_bracket=bracket_to_dict(bracket),
        ddvv=ddvv_to_dict(dd),
        verdicts=[verdict_to_dict(v) for v in verdicts],
        status=worst.status if worst else "strict",
        exit_hint=exit_hint,
        timestamp=stamp,
        elapsed_s=elapsed,
    )


def cmd_check(args) -> int:
    args.seed = _resolve_seed(args.seed)
    try:
        items: list[tuple[str, FundamentalData]] = []
        for path in args.inputs:
            items.extend(load_inputs(path))
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    stamp = _timestamp(args)

    def check(item):
        label, data = item
        try:
            return _check_one(label, data, args, stamp)
        except ValueError as exc:  # HypothesisError included
            raise ValueError(f"{label}: {exc}") from exc

    try:
        if args.jobs > 1 and len(items) > 1:
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                records = list(pool.map(check, items))
        else:
            records = [check(item) for item in items]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    _dump({"records": [record_to_dict(r) for r in records]}, args.out)
    return max((r.exit_hint for r in records), default=EXIT_OK)


def cmd_ddvv(args) -> int:
    args.seed = _resolve_seed(args.seed)
    if args.random:
        n, m, trials = args.random
        if n < 1 or m < 1 or trials < 1:
            print("error: --random needs positive n, m, trials", file=sys.stderr)
            return EXIT_USAGE
        rng = np.random.default_rng(args.seed)
        best = 0.0
        violations = 0
        done = 0
        while done < trials:
            batch = min(4096, trials - done)
            g = rng.normal(size=(batch, m, n, n))
            t = (g + np.transpose(g, (0, 1, 3, 2))) / 2.0
            lhs = ddvv_mod.commutator_energy(t)
            total = np.einsum("trij,trij->t", t, t)
            rhs = total * total
            ratio = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), 0.0)
            best = max(best, float(np.max(ratio)))
            violations += int(np.sum(ratio > 1.0 + 1e-12))
            done += batch
        _dump({"mode": "random", "n": n, "m": m, "trials": trials,
               "seed": args.seed, "max_ratio": best, "violations": violations,
               "timestamp": _timestamp(args)}, args.out)
        return EXIT_OK if violations == 0 else EXIT_FAILS
    if args.maximize:
        n, m, starts = args.maximize
        result = ddvv_mod.maximize_ratio(n, m, seed=args.seed, starts=starts,
                                         iters=args.iters)
        structure = ddvv_mod.detect_equality(result.tuple, tol=1e-6) \
            if result.ratio > 0 else None
        _dump({"mode": "maximize", "n": n, "m": m, "starts": starts,
               "iters": args.iters, "seed": args.seed, "best_ratio": result.ratio,
               "iterations": len(result.history),
               "extremal_structure": extremal_to_dict(structure),
               "timestamp": _timestamp(args)}, args.out)
        return EXIT_OK
    # --input
    try:
        items = load_inputs(args.input)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    reports = []
    for label, data in items:
        entry = {"input": label}
        entry.update(ddvv_to_dict(ddvv_mod.evaluate(data.forms)))
        reports.append(entry)
    _dump({"mode": "input", "reports": reports, "timestamp": _timestamp(args)},
          args.out)
    return EXIT_OK


def cmd_model(args) -> int:
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
    try:
        spec = builtin(args.builtin)
        samples = sample_grid(spec, args.grid, args.step)
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
        print("error: --table needs pmax >= 1 and nmax >= 2", file=sys.stderr)
        return EXIT_USAGE
    lines = ["p,n,yau,itoh,thm1,thm2@c+H^2=1,generalized_i,generalized_ii"]
    for p in range(1, pmax + 1):
        for n in range(2, nmax + 1):
            row = [
                str(p),
                str(n),
                repr(threshold_yau(p)),
                repr(threshold_itoh(n)),
                repr(threshold_thm1(p)),
                repr(threshold_thm2(p, 1.0, 0.0)),
                repr(threshold_generalized(p, n, 1.0, 0.0)),
                repr(threshold_generalized(p, n, 0.0, 1.0)),
            ]
            lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- parser ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit with the reserved code 5."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rigidity",
                     description="Curvature pinching toolkit for submanifold data.")
    sub = parser.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="verify pinching verdicts for data files")
    chk.add_argument("inputs", nargs="+", metavar="INPUT",
                     help="JSON files: FundamentalData, lists, or immersion samples")
    chk.add_argument("--theorem", action="append",
                     choices=["auto", *THEOREMS],
                     help="theorem(s) to verify (default: auto by frame)")
    chk.add_argument("--tol", type=float, default=1e-8)
    chk.add_argument("--budget", type=int, default=64,
                     help="random multistarts for the K_min search")
    chk.add_argument("--seed", type=int, default=None,
                     help="RNG seed (default: $RIGIDITY_SEED or 0)")
    chk.add_argument("--jobs", type=int, default=min(8, os.cpu_count() or 1),
                     help="thread pool size for batch inputs")
    chk.add_argument("--out", help="write the JSON report here instead of stdout")
    chk.add_argument("--no-timestamp", action="store_true",
                     help="omit timestamps/timing for byte-identical output")
    chk.set_defaults(func=cmd_check)

    ddv = sub.add_parser("ddvv", help="evaluate or maximize the commutator inequality")
    mode = ddv.add_mutually_exclusive_group(required=True)
    mode.add_argument("--random", nargs=3, type=int, metavar=("N", "M", "TRIALS"),
                      help="max ratio over random symmetric tuples")
    mode.add_argument("--maximize", nargs=3, type=int, metavar=("N", "M", "STARTS"),
                      help="projected gradient ascent on the ratio")
    mode.add_argument("--input", help="evaluate the tuple of a FundamentalData file")
    ddv.add_argument("--iters", type=int, default=2000)
    ddv.add_argument("--seed", type=int, default=None,
                     help="RNG seed (default: $RIGIDITY_SEED or 0)")
    ddv.add_argument("--out")
    ddv.add_argument("--no-timestamp", action="store_true")
    ddv.set_defaults(func=cmd_ddvv)

    mdl = sub.add_parser("model", help="emit closed-form model data as JSON")
    mdl.add_argument("kind", choices=list(MODEL_KINDS))
    mdl.add_argument("--n", type=int)
    mdl.add_argument("--p", type=int)
    mdl.add_argument("--k", type=int, help="first factor dimension (product of spheres)")
    mdl.add_argument("--c", type=float, default=1.0)
    mdl.add_argument("--H", type=float, default=0.0)
    mdl.add_argument("--out")
    mdl.set_defaults(func=cmd_model)

    imm = sub.add_parser("immersion", help="sample a builtin immersion on a grid")
    imm.add_argument("--builtin", required=True, choices=list(BUILTINS))
    imm.add_argument("--grid", type=int, default=4, help="grid cells per axis")
    imm.add_argument("--step", type=float, default=1e-4,
                     help="central-difference step")
    imm.add_argument("--out")
    imm.set_defaults(func=cmd_immersion)

    pch = sub.add_parser("pinch", help="tabulate pinching thresholds as CSV")
    pch.add_argument("--table", nargs=2, type=int, metavar=("PMAX", "NMAX"),
                     required=True)
    pch.add_argument("--out")
    pch.set_defaults(func=cmd_pinch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
