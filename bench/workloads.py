"""Seeded inputs, CLI command lists and output checks for each workload.

A workload writes its input files from the seed, lists the CLI commands of
one pass (arguments after `python -m rigidity.cli`, run in the work
directory), and checks the files a pass wrote with the independent oracle.

The seed rotates the tangent and normal frames of fixed base geometries and
seeds the CLI's own random searches.  Sectional curvatures, thresholds and
verdicts are invariant under those rotations, and the plane-search cost
barely moves with them, so runs on different seeds measure the same amount of
work; with freshly drawn geometries the n = 8 record alone would swing a pass
by about 10 %.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

BASE_SEED = 20110228  # fixed base geometries; --seed only changes frames and search seeds
MINIMAL_THEOREMS = ["thm1", "itoh", "yau"]
MEAN_THEOREMS = ["thm2", "generalized"]
CHECK_BUDGET = 8      # random multistarts per K_min search (CLI default 64)
GRID = 12             # immersion grid cells per axis
GRID_TOL = 1e-7       # check tolerance for finite-difference samples
PROBE_GRID = 16
RANDOM_TRIALS = 200_000
MAXIMIZE_STARTS = 32


@dataclass
class Command:
    """One CLI call of a pass; `items` is the number of operations it answers."""

    name: str
    kind: str            # check | immersion | ddvv-input | ddvv-random | ddvv-maximize
    argv: list[str]
    out: str
    items: int


@dataclass
class Plan:
    commands: list[Command]
    verify: Callable[[dict, oracle.Tally, np.random.Generator], None]
    facts: dict = field(default_factory=dict)


# -- geometry helpers ----------------------------------------------------------------

def _traceless(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    g = rng.normal(size=(p, n, n))
    f = (g + np.transpose(g, (0, 2, 1))) / 2.0
    f -= np.einsum("aii->a", f)[:, None, None] * np.eye(n) / n
    return f / np.linalg.norm(f)


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _reframe(forms: np.ndarray, tangent: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Forms of the same point in rotated frames: K, S and H are unchanged."""
    out = np.einsum("ab,ki,bkl,lj->aij", normal, tangent, forms, tangent)
    return (out + np.transpose(out, (0, 2, 1))) / 2.0


def _record(forms: np.ndarray, c: float, mean_index: int | None = None) -> dict:
    p, n, _ = forms.shape
    return {"n": n, "p": p, "c": c, "H_matrices": forms.tolist(), "mean_index": mean_index}


def _random_level(n: int, p: int, level: float, ambient: float, idx: int) -> np.ndarray:
    """Base traceless forms scaled so that K_min = level when K = ambient + q(plane)."""
    base = _traceless(np.random.default_rng([BASE_SEED, idx]), n, p)
    qmin, _, _ = oracle.kmin_search(base, 0.0, np.random.default_rng([BASE_SEED, idx, 1]))
    return base * np.sqrt((level - ambient) / qmin)


def _near_threshold(n: int, p: int, thr: float, idx: int, rng: np.random.Generator) -> np.ndarray:
    """Minimal forms in S^(n+p) whose certified bracket straddles `thr`.

    Scaling the forms by s gives K = 1 + s^2 q(plane).  The base is redrawn
    until the curvature-operator bound lo_q sits 0.5-5 % below the true
    minimum q_min, then s puts thr halfway between 1 + s^2 lo_q and
    1 + s^2 q_min: inside any bracket whose lower end is the operator bound.
    The minimizing plane is moved to e1^e2, where the CLI starts one of its
    descents, so hi lands on K_min whatever the search budget.
    """
    for attempt in range(1000):
        base = _traceless(np.random.default_rng([BASE_SEED, idx, attempt]), n, p)
        lo_q = oracle.operator_min(base, 0.0)
        qmin, u, v = oracle.kmin_search(
            base, 0.0, np.random.default_rng([BASE_SEED, idx, attempt, 1]))
        if 0.005 <= (qmin - lo_q) / abs(lo_q) <= 0.05:
            break
    else:
        raise RuntimeError("no base geometry with a usable operator-bound gap")
    frame, _ = np.linalg.qr(np.column_stack([u, v, np.eye(n)[:, : n - 2]]))
    block = np.zeros((n, n))
    block[:2, :2] = _orthogonal(rng, 2)
    block[2:, 2:] = _orthogonal(rng, n - 2)
    forms = _reframe(base, frame @ block, _orthogonal(rng, p))
    target = lo_q + 0.5 * (qmin - lo_q)
    return forms * np.sqrt((thr - 1.0) / target)


def _write(workdir: Path, name: str, payload) -> None:
    (workdir / name).write_text(json.dumps(payload))


def _load(outputs: dict, name: str):
    exit_code, raw = outputs[name]
    try:
        return exit_code, json.loads(raw) if raw else {}
    except json.JSONDecodeError:
        return exit_code, {}


# -- check-mixed -----------------------------------------------------------------------

def check_mixed(seed: int, workdir: Path) -> Plan:
    rng = np.random.default_rng([seed, 1])
    # Four files, so that no single command runs much longer than ~4 s; each
    # holds at least two records, so check's thread pool is in use for all.
    n8, n6, n4, mean = [], [], [], []

    def add(batch, forms, c, kmin=None, mean_index=None):
        batch.append({"data": _record(forms, c, mean_index), "kmin": kmin, "kmin_atol": 0.0})

    # Random minimal points in the unit sphere, K_min well clear of every threshold
    # (0.7 is above all of them, -0.3 below), across n in {2,3,4,6,8} and p in {1,2,3}.
    for idx, (batch, n, p, level) in enumerate([(n8, 8, 1, 0.7), (n8, 2, 1, -0.3),
                                                (n8, 2, 3, 0.7), (n6, 6, 2, 0.7),
                                                (n6, 3, 2, -0.3)]):
        base = _random_level(n, p, level, 1.0, idx)
        add(batch, _reframe(base, _orthogonal(rng, n), _orthogonal(rng, p)), 1.0)
    product = np.diag([np.sqrt(2.0), -np.sqrt(0.5), -np.sqrt(0.5)])[None]   # S^1 x S^2
    add(n6, _reframe(product, _orthogonal(rng, 3), _orthogonal(rng, 1)), 1.0, kmin=0.0)
    # Near-threshold points: thm1 (and yau at p = 2) indeterminate while lo is the operator bound.
    add(n4, _near_threshold(4, 2, oracle.threshold("thm1", 4, 2, 1.0, 0.0), 10, rng), 1.0)
    add(n4, _near_threshold(4, 3, oracle.threshold("thm1", 4, 3, 1.0, 0.0), 11, rng), 1.0)
    # Closed-form models with known K_min.
    add(n4, np.zeros((2, 4, 4)), 1.0, kmin=1.0)                              # totally geodesic
    pair = np.stack([np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]) / np.sqrt(3.0)
    add(n4, _reframe(pair, _orthogonal(rng, 2), _orthogonal(rng, 2)), 1.0, kmin=1.0 / 3.0)

    # Mean-aligned pseudo-umbilical points: member 0 is H*I, K = 1 + H^2 + q(plane).
    h = 0.5
    for idx, (n, p, level) in enumerate([(3, 3, 1.0), (4, 2, -0.3)], start=20):
        base = _random_level(n, p - 1, level, 1.0 + h * h, idx)
        rest = _reframe(base, np.eye(n), _orthogonal(rng, p - 1))
        tangent = _orthogonal(rng, n)
        forms = _reframe(np.concatenate([h * np.eye(n)[None], rest]), tangent, np.eye(p))
        add(mean, forms, 1.0, mean_index=0)
    umbilical = np.stack([h * np.eye(3), np.zeros((3, 3))])
    add(mean, umbilical, 1.0, kmin=1.0 + h * h, mean_index=0)
    veronese_h = np.concatenate([h * np.eye(2)[None], np.sqrt(1.0 + h * h) * pair])
    rot = np.eye(3)
    rot[1:, 1:] = _orthogonal(rng, 2)
    add(mean, _reframe(veronese_h, _orthogonal(rng, 2), rot), 1.0,
        kmin=(1.0 + h * h) / 3.0, mean_index=0)

    batches = {"minimal_n8": (n8, MINIMAL_THEOREMS), "minimal_n6": (n6, MINIMAL_THEOREMS),
               "minimal_n4": (n4, MINIMAL_THEOREMS), "mean": (mean, MEAN_THEOREMS)}
    commands = []
    for name, (items, theorems) in batches.items():
        for i, item in enumerate(items):
            item["label"] = f"{name}.json#{i}"
        _write(workdir, f"{name}.json", [item["data"] for item in items])
        argv = ["check", f"{name}.json"]
        for th in theorems:
            argv += ["--theorem", th]
        argv += ["--budget", str(CHECK_BUDGET), "--seed", str(seed), "--no-timestamp",
                 "--out", f"{name}_report.json"]
        commands.append(Command(f"check {name}", "check", argv, f"{name}_report.json", len(items)))

    def verify(outputs, tally, vrng):
        for name, (items, theorems) in batches.items():
            exit_code, report = _load(outputs, f"check {name}")
            oracle.check_report(tally, report, exit_code, items, theorems, 1e-8, vrng)

    return Plan(commands, verify, {"records": sum(len(b[0]) for b in batches.values()),
                                   "check_budget": CHECK_BUDGET})


# -- immersion-grid --------------------------------------------------------------------

CLOSED_KMIN = {"veronese": 1.0 / 3.0, "clifford": 0.0}


def immersion_grid(seed: int, workdir: Path) -> Plan:
    samples = GRID * GRID
    commands = [Command(f"immersion {b}", "immersion",
                        ["immersion", "--builtin", b, "--grid", str(GRID), "--out", f"{b}.json"],
                        f"{b}.json", samples)
                for b in ("veronese", "clifford", "graph")]
    for b in CLOSED_KMIN:
        commands.append(Command(
            f"check {b}", "check",
            ["check", f"{b}.json", "--tol", repr(GRID_TOL), "--seed", str(seed),
             "--no-timestamp", "--out", f"{b}_report.json"],
            f"{b}_report.json", samples))
    commands.append(Command(
        "ddvv graph", "ddvv-input",
        ["ddvv", "--input", "graph.json", "--seed", str(seed), "--no-timestamp",
         "--out", "graph_ddvv.json"], "graph_ddvv.json", samples))

    def verify(outputs, tally, vrng):
        written = {}
        for b in ("veronese", "clifford", "graph"):
            exit_code, payload = _load(outputs, f"immersion {b}")
            if exit_code != 0 or not isinstance(payload, list) or len(payload) != samples:
                tally.whole(samples, f"immersion {b}: exit {exit_code}")
                payload = []
            oracle.check_samples(tally, payload, b)
            written[b] = payload
        for b, kmin in CLOSED_KMIN.items():
            items = [{"label": f"{b}.json#{i}", "data": s["data"], "kmin": kmin,
                      "kmin_atol": oracle.FD_ATOL}
                     for i, s in enumerate(written[b])]
            exit_code, report = _load(outputs, f"check {b}")
            oracle.check_report(tally, report, exit_code, items, ["thm1"], GRID_TOL, vrng)
        exit_code, report = _load(outputs, "ddvv graph")
        oracle.check_ddvv_inputs(tally, report, exit_code, written["graph"], "graph.json")

    return Plan(commands, verify, {"grid": GRID, "samples_per_builtin": samples,
                                   "check_tol": GRID_TOL})


def defect_probe_commands() -> list[Command]:
    """The README pipeline as written: clifford samples, then check at the default --tol."""
    samples = PROBE_GRID * PROBE_GRID
    return [Command("probe immersion", "immersion",
                    ["immersion", "--builtin", "clifford", "--grid", str(PROBE_GRID),
                     "--out", "probe.json"], "probe.json", samples),
            Command("probe check", "check",
                    ["check", "probe.json", "--no-timestamp", "--out", "probe_report.json"],
                    "probe_report.json", samples)]


# -- ddvv-search -----------------------------------------------------------------------

def ddvv_search(seed: int, workdir: Path) -> Plan:
    commands = [
        Command("ddvv random", "ddvv-random",
                ["ddvv", "--random", "4", "4", str(RANDOM_TRIALS), "--seed", str(seed),
                 "--no-timestamp", "--out", "random.json"], "random.json", 1),
        Command("ddvv maximize", "ddvv-maximize",
                ["ddvv", "--maximize", "3", "3", str(MAXIMIZE_STARTS), "--seed", str(seed),
                 "--no-timestamp", "--out", "maximize.json"], "maximize.json", 1),
    ]

    def verify(outputs, tally, vrng):
        exit_code, out = _load(outputs, "ddvv random")
        oracle.check_ddvv_random(tally, out, exit_code, 4, 4, RANDOM_TRIALS, seed)
        exit_code, out = _load(outputs, "ddvv maximize")
        oracle.check_ddvv_maximize(tally, out, exit_code)

    return Plan(commands, verify, {"random_trials": RANDOM_TRIALS,
                                   "maximize_starts": MAXIMIZE_STARTS})


WORKLOADS = {
    "check-mixed": check_mixed,
    "immersion-grid": immersion_grid,
    "ddvv-search": ddvv_search,
}
