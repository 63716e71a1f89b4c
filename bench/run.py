"""Benchmark of the rigidity command line, run from the root of a checkout.

    python3 bench/run.py --workload check-mixed --seed 1 --seconds 30 --trace 0

--trace 0 drives the CLI as a user does: one closed-loop client runs the
workload's commands one at a time, each in its own `python -m rigidity.cli`
process, repeating the pass until --seconds are used, and reports the
end-to-end metrics.  --trace 1 runs the same commands in this process, serially
(`check --jobs 1`), alternating untraced and traced passes, and reports the
per-layer metrics.  Both modes check every output with the independent
oracle and print one JSON result as the last line of standard output.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS pools off in this process and in every CLI child: the thread count
# stays at check's own --jobs, whose default min(8, nproc) never exceeds nproc.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS = 4          # no-op CLI calls before the first pass; one more follows each pass
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 150

PER_CALL = [f"curvature.kmin_bracket_s.n{n}" for n in (2, 3, 4, 6, 8)] + [
    "curvature.plane_search_s", "curvature.lower_bound_s", "pinching.verdict_self_s",
    "ddvv.evaluate_s", "symmat.symmetrize_s", "cli.load_inputs_s", "cli.serialize_s",
    "immersion.differentiate_s", "immersion.frames_s",
    "immersion.second_fundamental_form_self_s", "ddvv.maximize_ratio_s",
    "ddvv.detect_equality_s", "ddvv.random_sweep_s"]


# -- running the CLI -----------------------------------------------------------------

def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# A child's peak RSS on Linux includes the memory of the process it was forked
# from, so the CLI is started by this small launcher rather than by the
# benchmark, whose numpy arrays would otherwise show up as the CLI's memory.
# The launcher times the CLI from fork to exit and writes
# "exit wall_s maxrss_kib" to the file named by its first argument.
LAUNCHER = """
import os, sys, time
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
with open(sys.argv[1], "w") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}")
"""


def run_cli(argv: list[str], cwd: Path, env: dict, log: str):
    """Run one CLI process to completion; returns (exit code, wall s, peak RSS in KiB)."""
    result = cwd / f"{log}.result"
    result.unlink(missing_ok=True)
    with open(cwd / f"{log}.stdout", "wb") as out, open(cwd / f"{log}.stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", LAUNCHER, str(result),
             sys.executable, "-m", "rigidity.cli", *argv],
            cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            proc.wait()
        except BaseException:   # interrupted: take the command down with us
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
    if proc.returncode != 0 or not result.exists():
        return -1, 0.0, 0
    code, wall, rss = result.read_text().split()
    return int(code), float(wall), int(rss)


# Times are reported in reference-adjusted seconds: a call's wall time times
# REFERENCE_S over the mean of the reference() samples taken right before and
# right after it, i.e. the time the call would take on a host where
# reference() takes REFERENCE_S.  The shared host's effective speed moves by
# up to 2x within seconds and drifts over minutes; the adjustment cancels that.
REFERENCE_S = 0.1


def reference() -> float:
    """Wall time of a fixed computation in the two styles the CLI spends its time in.

    One part is a gradient loop over tiny arrays, interpreter-bound like the
    K_min plane search and the DDVV ascent; the other is a batched einsum over
    a few MB, like `ddvv --random`.
    """
    rng = np.random.default_rng(0)
    comp = rng.normal(size=(4, 4, 4, 4))
    x = rng.normal(size=(4, 2))
    g = rng.normal(size=(4096, 4, 4, 4))
    t = (g + np.transpose(g, (0, 1, 3, 2))) / 2.0
    t0 = time.perf_counter()
    for _ in range(1500):
        q, _ = np.linalg.qr(x)
        grad = np.einsum("ajkl,j,k,l->a", comp, q[:, 1], q[:, 0], q[:, 1])
        x = q + 1e-3 * np.outer(grad, (1.0, 0.5))
    for _ in range(3):
        np.einsum("trik,tskj->trsij", t, t)
    return time.perf_counter() - t0


def read_output(workdir: Path, name: str) -> bytes:
    path = workdir / name
    return path.read_bytes() if path.exists() else b""


def compare_pass(tally: oracle.Tally, plan, first: dict, outputs: dict) -> None:
    """Repeated --no-timestamp commands must write byte-identical files."""
    for cmd in plan.commands:
        if outputs[cmd.name] != first[cmd.name]:
            tally.whole(cmd.items, f"{cmd.name}: output differs from the first pass")


# -- trace 0: end to end through CLI processes ------------------------------------------

def timed_run(name: str, plan, workdir: Path, seed: int, seconds: float):
    env = cli_env()
    tally = oracle.Tally()
    refs = [reference()]

    def timed(argv, log):
        """Run one CLI call between two reference samples; also returns its adjusted time."""
        code, wall, rss = run_cli(argv, workdir, env, log)
        refs.append(reference())
        return code, wall, wall * REFERENCE_S / ((refs[-2] + refs[-1]) / 2.0), rss

    setup, setup_raw = [], []

    def set_up_once():
        code, wall, adjusted, _ = timed(["pinch", "--table", "1", "2"], "setup")
        ok = code == 0 and read_output(workdir, "setup.stdout").startswith(b"p,n,yau")
        tally.item([] if ok else [f"exit {code}"], "pinch --table 1 2")
        setup.append(adjusted)
        setup_raw.append(wall)

    for _ in range(SETUP_REPS):
        set_up_once()
    vrng = np.random.default_rng([seed, 2])
    passes, first, peak_kib = [], None, 0
    start = time.perf_counter()
    while True:
        outputs, walls, adjusted_sum = {}, {}, 0.0
        for cmd in plan.commands:
            (workdir / cmd.out).unlink(missing_ok=True)
            code, wall, adjusted, rss = timed(cmd.argv, cmd.name.replace(" ", "_"))
            adjusted_sum += adjusted
            outputs[cmd.name] = (code, read_output(workdir, cmd.out))
            walls[cmd.name] = wall
            peak_kib = max(peak_kib, rss)
        passes.append((sum(walls.values()), walls, adjusted_sum))
        set_up_once()   # spread the set-up samples over the run
        plan.verify(outputs, tally, vrng)
        if first is None:
            first = outputs
        else:
            compare_pass(tally, plan, first, outputs)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + passes[-1][0] > seconds):
            break

    probe = defect_probe(workdir, env) if name == "immersion-grid" else None
    per_command = {cmd.name: statistics.median(p[1][cmd.name] for p in passes)
                   for cmd in plan.commands}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(p[2] for p in passes), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "decided_frac": (tally.decided / max(1, tally.verdicts), "1"),
    }
    named = named_metrics(plan, passes, tally)
    info = {"passes": len(passes), "setup_samples": len(setup),
            "reference_s": statistics.median(refs),
            "raw_setup_s": statistics.median(setup_raw),
            "raw_pass_s": [round(p[0], 4) for p in passes],
            "adjusted_pass_s": [round(p[2], 4) for p in passes],
            "median_command_s": {k: round(v, 4) for k, v in per_command.items()},
            "workload_rates": named, "known_defect_probe": probe}
    return metrics, tally, info


def named_metrics(plan, passes, tally) -> dict:
    """Workload-specific rates, printed for reading; the JSON carries the shared metrics."""
    def rate(kind):
        cmds = [c for c in plan.commands if c.kind == kind]
        if not cmds:
            return None
        wall = statistics.median(sum(p[1][c.name] for c in cmds) for p in passes)
        return (sum(c.items for c in cmds) / wall, "1/s") if wall > 0 else None

    out = {"check_records_per_s": rate("check"),
           "immersion_samples_per_s": rate("immersion"),
           "bracket_width_mean": (statistics.fmean(tally.widths), "K") if tally.widths else None,
           "failed_frac": (tally.failed / max(1, tally.attempted), "1")}
    for cmd in plan.commands:
        wall = statistics.median(p[1][cmd.name] for p in passes)
        if cmd.kind == "ddvv-random" and wall > 0:
            out["ddvv_trials_per_s"] = (workloads.RANDOM_TRIALS / wall, "1/s")
        if cmd.kind == "ddvv-maximize":
            out["ddvv_maximize_s"] = (wall, "s")
    return {k: v for k, v in out.items() if v is not None}


def defect_probe(workdir: Path, env: dict) -> dict:
    """Untimed: the README's clifford pipeline at the default --tol.

    The 1e-8 minimality gate sits below the finite-difference trace error, so
    `check` exits 3 and writes no report; that is why the timed checks pass
    --tol 1e-7.  The records are reported here, outside
    attempted/failed, so that the timed workload has no failing operation.
    """
    codes = []
    for cmd in workloads.defect_probe_commands():
        (workdir / cmd.out).unlink(missing_ok=True)
        codes.append(run_cli(cmd.argv, workdir, env, cmd.name.replace(" ", "_"))[0])
    written = bool(read_output(workdir, "probe_report.json"))
    records = workloads.PROBE_GRID ** 2
    return {"records": records, "immersion_exit": codes[0], "check_exit": codes[1],
            "report_written": written,
            "records_failed": 0 if codes[1] in (0, 1, 2) and written else records}


# -- trace 1: per-layer spans in process -------------------------------------------------

def traced_run(name: str, plan, workdir: Path, seed: int, seconds: float):
    sys.path.insert(0, str(ROOT / "src"))
    import rigidity.cli as cli
    import spans

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "rigidity":
        raise RuntimeError(f"imported rigidity from {cli.__file__}, not from this checkout")
    tracer = spans.Tracer()
    tally = oracle.Tally()
    vrng = np.random.default_rng([seed, 2])
    log, plain, traced, first = [], [], [], None
    outputs_by_pass = []
    warm = False   # the first pass fills caches and allocator pools, and is not timed
    cwd = os.getcwd()
    os.chdir(workdir)
    start = time.perf_counter()
    try:
        while True:
            is_traced = warm and len(plain) > len(traced)
            if is_traced:
                tracer.install()
            outputs = {}
            t0 = time.perf_counter()
            try:
                for cmd in plan.commands:
                    argv = cmd.argv + (["--jobs", "1"] if cmd.kind == "check" else [])
                    (workdir / cmd.out).unlink(missing_ok=True)
                    tracer.command = len(log)
                    c0 = time.perf_counter()
                    try:
                        code = cli.main(argv)
                    except Exception:  # a crash is a failed command, reported by the oracle
                        code = -1
                        traceback.print_exc(file=sys.stderr)
                    log.append((cmd, is_traced, time.perf_counter() - c0))
                    outputs[cmd.name] = (code, read_output(workdir, cmd.out))
            finally:
                if is_traced:
                    tracer.uninstall()
            if warm:
                (traced if is_traced else plain).append(time.perf_counter() - t0)
            warm = True
            outputs_by_pass.append((is_traced, outputs))
            plan.verify(outputs, tally, vrng)
            if first is None:
                first = outputs
            else:
                compare_pass(tally, plan, first, outputs)
            if traced and time.perf_counter() - start + max(plain[-1], traced[-1]) > seconds:
                break
    finally:
        os.chdir(cwd)

    metrics, samples = layer_metrics(plan, tracer, log, outputs_by_pass, len(traced))
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "1")
    metrics["trace.serial_pass_s"] = (statistics.median(plain), "s")
    metrics["curvature.bracket_width_mean"] = (
        statistics.fmean(tally.widths) if tally.widths else 0.0, "K")
    info = {"plain_passes": len(plain), "traced_passes": len(traced), "span_samples": samples}
    return metrics, tally, info


TAIL_LEVELS = (0.999, 0.99, 0.9)


def _tail(values: list[float]) -> tuple[float, str]:
    """The highest of p99.9, p99 and p90 with at least 10 samples beyond it.

    Below 100 samples none qualifies and the median stands in for the tail.
    """
    ordered = sorted(values)
    for level in TAIL_LEVELS:
        beyond = int(len(ordered) * (1.0 - level) + 1e-9)
        if beyond >= 10:
            return ordered[len(ordered) - 1 - beyond], f"p{100 * level:g}"
    return statistics.median(ordered), "p50"


def layer_metrics(plan, tracer, log, outputs_by_pass, traced_passes: int) -> tuple[dict, dict]:
    kind_of = [entry[0].kind for entry in log]
    spans_by = {}
    for s in tracer.spans:
        spans_by.setdefault(s.name, []).append(s)

    def named(span_name):
        return spans_by.get(span_name, [])

    kmin = named("curvature.kmin_bracket")
    per_call = {f"curvature.kmin_bracket_s.n{n}": [s.dur for s in kmin if s.n == n]
                for n in (2, 3, 4, 6, 8)}
    per_call["curvature.plane_search_s"] = [s.dur - s.lower_bound for s in kmin]
    per_call["curvature.lower_bound_s"] = [s.lower_bound for s in kmin]
    per_call["pinching.verdict_self_s"] = [s.dur - s.child for s in named("pinching.verdict")]
    per_call["ddvv.evaluate_s"] = [s.dur for s in named("ddvv.evaluate")]
    per_call["symmat.symmetrize_s"] = [s.dur for s in named("symmat.symmetrize")]
    per_call["cli.load_inputs_s"] = [s.dur for s in named("cli.load_inputs")]
    serialize: dict[int, float] = {}
    for s in named("cli.serialize"):
        if s.parent != "cli.serialize":
            serialize[s.command] = serialize.get(s.command, 0.0) + s.dur
    per_call["cli.serialize_s"] = list(serialize.values())
    per_call["immersion.differentiate_s"] = [s.dur for s in named("immersion.differentiate")]
    per_call["immersion.frames_s"] = [s.dur for s in named("immersion.frames")]
    per_call["immersion.second_fundamental_form_self_s"] = [
        s.dur - s.child for s in named("immersion.second_fundamental_form")]
    per_call["ddvv.maximize_ratio_s"] = [s.dur for s in named("ddvv.maximize_ratio")]
    per_call["ddvv.detect_equality_s"] = [s.dur for s in named("ddvv.detect_equality")]
    per_call["ddvv.random_sweep_s"] = [wall for cmd, is_traced, wall in log
                                       if is_traced and cmd.kind == "ddvv-random"]

    metrics, samples = {}, {}
    for key in PER_CALL:
        values = per_call[key]
        tail, level = _tail(values) if values else (0.0, "none")
        metrics[key] = (statistics.median(values) if values else 0.0, "s")
        metrics[f"{key}.tail"] = (tail, "s")
        metrics[f"{key}.calls"] = (len(values) / traced_passes, "count")
        samples[key] = {"samples": len(values), "tail": level}

    def per_item(span_name, kinds):
        items = sum(cmd.items for cmd, is_traced, _ in log if is_traced and cmd.kind in kinds)
        calls = sum(1 for s in named(span_name) if kind_of[s.command] in kinds)
        return calls / items if items else 0.0

    records = ("check", "ddvv-input")
    generated = sum(cmd.items for cmd, is_traced, _ in log
                    if is_traced and cmd.kind == "immersion")
    iterations = 0
    for is_traced, outputs in outputs_by_pass:
        for cmd in plan.commands:
            if is_traced and cmd.kind == "ddvv-maximize":
                try:
                    iterations += json.loads(outputs[cmd.name][1]).get("iterations", 0)
                except json.JSONDecodeError:
                    pass
    metrics.update({
        "curvature.kmin_bracket.calls_per_record": (
            per_item("curvature.kmin_bracket", ("check",)), "count"),
        "ddvv.evaluate.calls_per_record": (per_item("ddvv.evaluate", records), "count"),
        "symmat.symmetrize.calls_per_record": (per_item("symmat.symmetrize", records), "count"),
        "immersion.map_evals_per_sample": (
            tracer.counts["immersion.map"] / generated if generated else 0.0, "count"),
        "ddvv.maximize_ratio.iterations": (iterations / traced_passes, "count"),
        "ddvv.commutator_energy.calls": (
            tracer.counts["ddvv.commutator_energy"] / traced_passes, "count"),
        "ddvv.energy_gradient.calls": (
            tracer.counts["ddvv.energy_gradient"] / traced_passes, "count"),
    })
    return metrics, samples


# -- run record and result ---------------------------------------------------------------

def run_record(name: str, args, plan) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "git_sha": sha,
            "source_sha256": digest.hexdigest(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "check_jobs": min(8, os.cpu_count() or 1) if not args.trace else 1,
            **plan.facts}


def declared_metrics() -> tuple[list[str], list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "rigidity" / "cli.py").is_file():
        print(f"error: no rigidity sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()

    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                    dir=BENCH_DIR / ".work"))
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed, workdir)
        run = traced_run if args.trace else timed_run
        metrics, tally, info = run(args.workload, plan, workdir, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = per_layer if args.trace else end_to_end
    if sorted(metrics) != sorted(wanted):
        print(f"error: computed metrics {sorted(set(metrics) ^ set(wanted))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    record = run_record(args.workload, args, plan)
    record.update(info)
    print(json.dumps(record, indent=2))
    for key, (value, unit) in [(k, metrics[k]) for k in wanted] + list(
            info.get("workload_rates", {}).items()):
        print(f"{key:48s} {value:.6g} {unit}")
    for error in tally.errors:
        print(f"FAILED {error}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": float(metrics[key][0]), "unit": metrics[key][1]}
                    for key in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
