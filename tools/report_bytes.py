"""Byte-identity check of the command line between two checkouts.

    python3 tools/report_bytes.py PARENT_ROOT CHANGE_ROOT

Builds the commands of every workload in bench/workloads.py, plus the defect
probe, at seeds 1-3, and once the unseeded `model`, `pinch`, large-tuple
`ddvv --random`, 144-sample `immersion` and `check` commands, a `check` of the
default (H = 0) umbilical sphere, a `check` of minimal points whose plane
searches run at the default budget, two to a shape group, and `check`s of an
empty list and of a batch with an error record between two good ones, the
latter serially and with --jobs 2; runs each one with `python -m rigidity.cli`
against each root's src/, and lists every command whose exit code, stdout,
stderr or output file differs.  Where a differing stdout or output file is
JSON on both sides, up to 5 of its differing leaves follow, each as
`path: parent → change`.  Exits 1 if any command differs, else 0.  The
workloads are read from this checkout's bench/, which the check never writes;
each root runs in its own temporary directory.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
PARTS = ("exit code", "stdout", "stderr", "output file")
FIELDS_SHOWN = 5
ABSENT = object()   # a key or list item that one side lacks

# The subcommands no workload runs, once each: every model kind (one written to --out, one
# without its --k, which exits 3, and the umbilical sphere at its default H = 0, written to
# --out and checked) and the threshold table; and a sweep of large (5, 12, 12)
# tuples, which spans several of the batches the sweep sizes by bytes; and a 144-sample
# immersion and a check of it, each a report of several write blocks on stdout, where the
# workloads write theirs to --out.  Commands run in order, so the check reads the samples the
# immersion before it wrote.  Without --out there is no file.
UNSEEDED = [workloads.Command(" ".join(argv), argv[0], argv,
                              argv[argv.index("--out") + 1] if "--out" in argv else "", 1)
            for argv in (["model", "totally-geodesic", "--n", "3", "--p", "2"],
                         ["model", "product-of-spheres", "--n", "5", "--k", "2"],
                         ["model", "product-of-spheres", "--n", "5"],
                         ["model", "veronese", "--H", "0.5", "--out", "veronese.json"],
                         ["model", "umbilical-sphere", "--n", "4", "--p", "2", "--c", "-1",
                          "--H", "2"],
                         ["model", "umbilical-sphere", "--n", "3", "--p", "2",
                          "--out", "umbilical0.json"],
                         ["check", "umbilical0.json", "--no-timestamp"],
                         ["pinch", "--table", "6", "6"],
                         ["ddvv", "--random", "12", "5", "300", "--seed", "1", "--no-timestamp"],
                         ["immersion", "--builtin", "veronese", "--grid", "12"],
                         ["immersion", "--builtin", "veronese", "--grid", "12",
                          "--out", "samples.json"],
                         ["check", "samples.json", "--no-timestamp"])]


# The edges of a report built record by record: a check of an empty list, and a check of a
# batch whose middle record is an error (a mean-aligned Veronese point, which thm1 refuses)
# between two good ones, on stdout so its error line is compared too, serially and with
# --jobs 2.
def edge_commands(cwd: Path) -> list:
    """Write the empty and the three-record batch to cwd; the three commands that check them."""
    pair = np.stack([np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]) / np.sqrt(3.0)
    mean = np.concatenate([0.5 * np.eye(2)[None], np.sqrt(1.25) * pair])
    (cwd / "empty.json").write_text("[]")
    (cwd / "mixed.json").write_text(json.dumps([
        workloads._record(pair, 1.0), workloads._record(mean, 1.0, 0),
        workloads._record(np.zeros((2, 3, 3)), 1.0)]))
    batch = ["check", "mixed.json", "--theorem", "thm1", "--no-timestamp"]
    argvs = (["check", "empty.json", "--no-timestamp"], batch, [*batch, "--jobs", "2"])
    return [workloads.Command(" ".join(argv), "check", argv, "", items)
            for argv, items in zip(argvs, (0, 3, 3))]


# Minimal points in S^(n+p) at n in {5, 6, 8}, p in {2, 3}, two per shape, whose K_min
# brackets stay open after the closed-form plane: their check runs the plane search from the
# CLI's default 64 random starts, so a change to the start stream shows in their `hi`, and
# each shape group holds two open brackets.
SEARCH_SHAPES = [(5, 2), (5, 3), (6, 2), (6, 3), (8, 2), (8, 3)]
SEARCH_SEEDS = ((), (1,))   # appended to [27, n, p]: each shape's two points


def search_commands(cwd: Path) -> list:
    """Write the searching points to cwd/search.json; the one command that checks them."""
    records = [workloads._record(0.5 * workloads._traceless(
        np.random.default_rng([27, n, p, *extra]), n, p), 1.0)
        for n, p in SEARCH_SHAPES for extra in SEARCH_SEEDS]
    (cwd / "search.json").write_text(json.dumps(records))
    argv = ["check", "search.json", "--seed", "1", "--no-timestamp"]
    return [workloads.Command(" ".join(argv), "check", argv, "", len(records))]


def _leaves(a, b, path: str):
    """(path, a, b) of every leaf where two decoded JSON values differ, in document order."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            yield from _leaves(a.get(key, ABSENT), b.get(key, ABSENT),
                               f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            yield from _leaves(a[i] if i < len(a) else ABSENT, b[i] if i < len(b) else ABSENT,
                               f"{path}[{i}]")
    elif type(a) is not type(b) or a != b:   # 1 is not 1.0, true is not 1
        yield path or "(top)", a, b


def field_diffs(before: bytes | None, after: bytes | None, limit: int = FIELDS_SHOWN) -> list[str]:
    """`path: parent → change` for the first `limit` differing leaves of two JSON texts;
    nothing when either side is missing or is not JSON."""
    try:
        a, b = json.loads(before), json.loads(after)
    except (TypeError, ValueError):
        return []
    return [f"{path}: {_shown(x)} → {_shown(y)}"
            for path, x, y in itertools.islice(_leaves(a, b, ""), limit)]


def _shown(value) -> str:
    return "(absent)" if value is ABSENT else json.dumps(value)


def plans(seed: int, workdir: Path):
    """(name, directory, commands) of each workload at seed and of the defect probe, and at
    the first seed of the unseeded commands; a workload writes its inputs to its own
    directory, where its commands run."""
    builds = {name: lambda cwd, build=build: build(seed, cwd).commands
              for name, build in workloads.WORKLOADS.items()}
    builds["defect-probe"] = lambda _: workloads.defect_probe_commands()
    if seed == SEEDS[0]:
        builds["unseeded"] = lambda _: UNSEEDED
        builds["plane-search"] = search_commands
        builds["edges"] = edge_commands
    for name, commands in builds.items():
        cwd = workdir / name
        cwd.mkdir(parents=True)
        yield name, cwd, commands(cwd)


def outcomes(root: Path, seed: int, workdir: Path) -> dict:
    """(exit code, stdout, stderr, output file bytes or None) of every command at seed, by
    name, run against root's src/."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = {}
    for name, cwd, commands in plans(seed, workdir):
        for cmd in commands:
            done = subprocess.run([sys.executable, "-m", "rigidity.cli", *cmd.argv],
                                  cwd=cwd, env=env, capture_output=True, check=False)
            out = cwd / cmd.out
            results[f"seed {seed} {name}: {cmd.name}"] = (
                done.returncode, done.stdout, done.stderr,
                out.read_bytes() if cmd.out and out.exists() else None)
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/report_bytes.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    for root in roots:
        if not (root / "src" / "rigidity" / "cli.py").is_file():
            print(f"error: no rigidity sources under {root / 'src'}", file=sys.stderr)
            return 2
    total, differing = 0, 0
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            parent, change = (outcomes(root, seed, Path(tmp) / side)
                              for root, side in zip(roots, ("parent", "change")))
        for name, before in parent.items():
            total += 1
            diff = [(part, a, b) for part, a, b in zip(PARTS, before, change[name]) if a != b]
            if diff:
                differing += 1
                print(f"{name}: {', '.join(part for part, _, _ in diff)} differ")
            for part, a, b in diff:
                if part in ("stdout", "output file"):
                    for line in field_diffs(a, b):
                        print(f"  {part} {line}")
    print(f"{differing} of {total} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
