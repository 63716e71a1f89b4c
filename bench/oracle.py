"""Independent correctness oracle for the rigidity CLI outputs.

Nothing here imports the package under test: the Gauss equation, the
curvature-operator bound, the theorem thresholds, the verdict rule and the
DDVV ratio are written out again from their definitions, so a defect in the
program cannot hide by being shared with its checker.
"""

from __future__ import annotations

import numpy as np

SEVERITY = {"strict": 0, "boundary": 0, "fails": 1, "indeterminate": 2}


# -- pointwise geometry from the forms -----------------------------------------

def sectional(forms: np.ndarray, c: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gauss equation at orthonormal planes: K = c + sum_a h(u,u)h(v,v) - h(u,v)^2.

    u and v have shape (..., n); the result has shape (...).
    """
    huu = np.einsum("...i,aij,...j->...a", u, forms, u)
    hvv = np.einsum("...i,aij,...j->...a", v, forms, v)
    huv = np.einsum("...i,aij,...j->...a", u, forms, v)
    return c + np.sum(huu * hvv - huv * huv, axis=-1)


def random_planes(rng: np.random.Generator, n: int, count: int):
    """`count` orthonormal pairs (u, v), uniformly distributed, shape (count, n) each."""
    q, r = np.linalg.qr(rng.normal(size=(count, n, 2)))
    q = q * np.sign(np.einsum("sii->si", r))[:, None, :]
    return q[..., 0], q[..., 1]


def operator_min(forms: np.ndarray, c: float) -> float:
    """Smallest eigenvalue of the curvature operator on 2-vectors: a lower bound of K."""
    n = forms.shape[1]
    eye = np.eye(n)
    r = (c * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))
         + np.einsum("aik,ajl->ijkl", forms, forms)
         - np.einsum("ail,ajk->ijkl", forms, forms))
    i, j = np.triu_indices(n, 1)
    op = r[i[:, None], j[:, None], i[None, :], j[None, :]]
    return float(np.linalg.eigvalsh((op + op.T) / 2.0)[0])


def kmin_search(forms: np.ndarray, c: float, rng: np.random.Generator,
                starts: int = 128, iters: int = 400):
    """Batched gradient descent of K over orthonormal frames; returns (K, u, v).

    The value is attained by the returned plane, so it bounds K_min from
    above; with many starts it is the minimum in practice.
    """
    n = forms.shape[1]
    u, v = random_planes(rng, n, starts)
    scale = max(1e-12, float(np.max(np.abs(np.linalg.eigvalsh(forms)))) ** 2)
    step = 0.1 / scale
    for _ in range(iters):
        hu = np.einsum("aij,sj->sai", forms, u)
        hv = np.einsum("aij,sj->sai", forms, v)
        uhu = np.einsum("si,sai->sa", u, hu)
        vhv = np.einsum("si,sai->sa", v, hv)
        uhv = np.einsum("si,sai->sa", u, hv)
        gu = 2 * np.einsum("sai,sa->si", hu, vhv) - 2 * np.einsum("sai,sa->si", hv, uhv)
        gv = 2 * np.einsum("sai,sa->si", hv, uhu) - 2 * np.einsum("sai,sa->si", hu, uhv)
        u = u - step * gu
        v = v - step * gv
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v = v - np.sum(u * v, axis=1, keepdims=True) * u
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    k = sectional(forms, c, u, v)
    best = int(np.argmin(k))
    return float(k[best]), u[best], v[best]


def invariants(forms: np.ndarray) -> tuple[float, float]:
    """S = sum ||H_a||^2 and the mean curvature H = |(tr H_a)_a| / n."""
    n = forms.shape[1]
    return float(np.sum(forms * forms)), float(np.linalg.norm(np.einsum("aii->a", forms))) / n


def ddvv(forms: np.ndarray) -> tuple[float, float]:
    """(lhs, rhs) of the DDVV inequality: sum_{r,s} ||[B_r,B_s]||^2 <= (sum ||B_r||^2)^2."""
    ab = np.einsum("rik,skj->rsij", forms, forms)
    comm = ab - np.transpose(ab, (1, 0, 2, 3))
    total = float(np.sum(forms * forms))
    return float(np.sum(comm * comm)), total * total


# -- thresholds and the verdict rule -----------------------------------------------

def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def threshold(theorem: str, n: int, p: int, c: float, H: float) -> float:
    """Closed-form pinching constant of one theorem at (n, p, c, H)."""
    amb = c + H * H
    if theorem == "thm1":
        return _sgn(p - 1) * p / (2 * (p + 1))
    if theorem == "yau":
        return (p - 1) / (2 * p - 1)
    if theorem == "itoh":
        return n / (2 * (n + 1))
    if theorem == "thm2":
        return _sgn(p - 2) * (p - 1) / (2 * p) * amb
    if theorem == "generalized":
        m = p if H == 0 else p - 1
        k = min(_sgn(m - 1) * m, n)
        return k * amb / (2 * (k + 1))
    raise ValueError(f"unknown theorem {theorem!r}")


def classify(lo: float, hi: float, thr: float, tol: float) -> str:
    """Verdict of a certified bracket against a threshold, as the CLI documents it."""
    if lo > thr + tol:
        return "strict"
    if hi < thr - tol:
        return "fails"
    if hi - lo <= 2 * tol:
        return "boundary"
    return "indeterminate"


# -- report checks -----------------------------------------------------------------

class Tally:
    """Operations checked, the ones that failed, and the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.verdicts = 0
        self.decided = 0
        self.widths: list[float] = []

    def item(self, problems: list[str], label: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{label}: {'; '.join(problems)}")

    def whole(self, count: int, problem: str) -> None:
        """`count` operations that failed together (e.g. a command that crashed)."""
        self.attempted += count
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(problem)


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


PLANES = 16           # seeded random planes per record for the lo <= K check
FD_ATOL = 1e-5        # finite-difference tolerance against the closed forms


def check_report(tally: Tally, report: dict, exit_code: int, items: list[dict],
                 theorems: list[str], tol: float, rng: np.random.Generator) -> None:
    """Check one `rigidity check` report against its inputs.

    `items` holds, in input order, {"label", "data", "kmin", "kmin_atol"}: the
    payload written for the program and, for model records, the closed-form
    K_min with the slack its input carries (finite differences, round-off).
    """
    records = report.get("records", [])
    if len(records) != len(items):
        tally.whole(len(items), f"report has {len(records)} records for {len(items)} inputs")
        return
    worst = 0
    checked = []
    for rec, item in zip(records, items):
        data = item["data"]
        forms = np.asarray(data["H_matrices"], dtype=float)
        n, p, c = data["n"], data["p"], data["c"]
        scale = 1.0 + abs(c) + float(np.sum(forms * forms))
        slack = 1e-10 * scale
        problems = []
        if rec["input"] != item["label"]:
            problems.append(f"out of order: got {rec['input']}")
        shape = rec["shape"]
        if (shape["n"], shape["p"], shape["c"], shape["mean_index"]) != (
                n, p, c, data.get("mean_index")):
            problems.append(f"shape {shape} does not match the input")
        lo, hi = rec["kmin_bracket"]["lo"], rec["kmin_bracket"]["hi"]
        if not lo <= hi:
            problems.append(f"lo {lo} > hi {hi}")
        u, v = random_planes(rng, n, PLANES)
        kmin_seen = float(np.min(sectional(forms, c, u, v)))
        if lo > kmin_seen + slack:
            problems.append(f"lo {lo} above the sectional curvature {kmin_seen} of a random plane")
        if hi < operator_min(forms, c) - slack:
            problems.append(f"hi {hi} below the curvature-operator lower bound")
        if item.get("kmin") is not None:
            known, atol = item["kmin"], item.get("kmin_atol", 0.0) + slack
            if not lo - atol <= known <= hi + atol:
                problems.append(f"closed-form K_min {known} outside [{lo}, {hi}]")
        lhs, rhs = ddvv(forms)
        dd = rec["ddvv"]
        if not (_close(dd["lhs"], lhs, 1e-9, 1e-12 * scale**2)
                and _close(dd["rhs"], rhs, 1e-9, 1e-12 * scale**2)):
            problems.append(f"ddvv lhs/rhs {dd['lhs']}/{dd['rhs']} != {lhs}/{rhs}")
        S, H = invariants(forms)
        inv = rec["invariants"]
        if not (_close(inv["S"], S, 1e-9, 1e-12) and _close(inv["H"], H, 1e-9, 1e-12)):
            problems.append(f"invariants S={inv['S']} H={inv['H']}, expected {S}, {H}")
        verdicts = rec["verdicts"]
        if [v["theorem"] for v in verdicts] != theorems:
            problems.append(f"theorems {[v['theorem'] for v in verdicts]} != {theorems}")
        severities = []
        for v in verdicts:
            thr = threshold(v["theorem"], n, p, c, 0.0 if data.get("mean_index") is None else H)
            if not _close(v["threshold"], thr, 1e-12, 1e-15):
                problems.append(f"{v['theorem']} threshold {v['threshold']} != {thr}")
            vlo, vhi = v["kmin_bracket"]["lo"], v["kmin_bracket"]["hi"]
            status = classify(vlo, vhi, v["threshold"], tol)
            if not vlo <= vhi or v["status"] != status:
                problems.append(f"{v['theorem']} status {v['status']}, bracket says {status}")
            severities.append(SEVERITY.get(v["status"], 99))
            tally.verdicts += 1
            tally.decided += v["status"] != "indeterminate"
        hint = max(severities, default=0)
        if rec["exit_hint"] != hint or SEVERITY.get(rec["status"]) != hint:
            problems.append(f"record status {rec['status']}/{rec['exit_hint']} "
                            "is not the worst verdict")
        worst = max(worst, hint)
        tally.widths.append(hi - lo)
        checked.append((problems, item["label"]))
    for problems, label in checked:
        if exit_code != worst:
            problems.append(f"exit code {exit_code}, the worst record says {worst}")
        tally.item(problems, label)


def check_samples(tally: Tally, samples: list, name: str) -> None:
    """Immersion samples against the closed forms of the builtin surfaces."""
    for i, s in enumerate(samples):
        data = s["data"]
        forms = np.asarray(data["H_matrices"], dtype=float)
        k = float(sectional(forms, data["c"], np.array([1.0, 0.0]), np.array([0.0, 1.0])))
        S, _ = invariants(forms)
        x, y = s["params"]
        expected = {"veronese": (4.0 / 3.0, 1.0 / 3.0, 1.0, 2),
                    "clifford": (2.0, 0.0, 1.0, 1),
                    "graph": (None, -1.0 / (1.0 + x * x + y * y) ** 2, 0.0, 1)}[name]
        S_ref, k_ref, c_ref, p_ref = expected
        problems = []
        if (data["n"], data["p"], data["c"]) != (2, p_ref, c_ref):
            problems.append(f"n, p, c = {data['n']}, {data['p']}, {data['c']}")
        if S_ref is not None and abs(S - S_ref) > FD_ATOL:
            problems.append(f"S = {S}, expected {S_ref}")
        if abs(k - k_ref) > FD_ATOL:
            problems.append(f"K = {k}, expected {k_ref}")
        tally.item(problems, f"{name}#{i}")


def check_ddvv_inputs(tally: Tally, report: dict, exit_code: int, samples: list,
                      path: str) -> None:
    """`ddvv --input` reports against the DDVV ratio recomputed from each form stack."""
    reports = report.get("reports", [])
    if exit_code != 0 or len(reports) != len(samples):
        tally.whole(len(samples), f"ddvv --input exit {exit_code}, {len(reports)} reports")
        return
    for i, (rep, s) in enumerate(zip(reports, samples)):
        forms = np.asarray(s["data"]["H_matrices"], dtype=float)
        lhs, rhs = ddvv(forms)
        problems = []
        if rep["input"] != f"{path}#{i}":
            problems.append(f"out of order: got {rep['input']}")
        if not (_close(rep["lhs"], lhs, 1e-9, 1e-12) and _close(rep["rhs"], rhs, 1e-9, 1e-12)):
            problems.append(f"lhs/rhs {rep['lhs']}/{rep['rhs']} != {lhs}/{rhs}")
        if rep["ratio"] > 1.0 + 1e-12:
            problems.append(f"ratio {rep['ratio']} violates DDVV")
        tally.item(problems, f"{path}#{i}")


def check_ddvv_random(tally: Tally, out: dict, exit_code: int, n: int, m: int,
                      trials: int, seed: int) -> None:
    problems = []
    if exit_code != 0:
        problems.append(f"exit {exit_code}")
    if (out.get("n"), out.get("m"), out.get("trials"), out.get("seed")) != (n, m, trials, seed):
        problems.append("echoed n, m, trials or seed differ from the command")
    if out.get("violations") != 0:
        problems.append(f"violations = {out.get('violations')}")
    if not 0.0 < out.get("max_ratio", -1.0) <= 1.0 + 1e-12:
        problems.append(f"max_ratio = {out.get('max_ratio')}")
    tally.item(problems, "ddvv --random")
    tally.verdicts += 1
    tally.decided += not problems


def check_ddvv_maximize(tally: Tally, out: dict, exit_code: int) -> None:
    problems = []
    if exit_code != 0:
        problems.append(f"exit {exit_code}")
    ratio = out.get("best_ratio", -1.0)
    if not 1.0 - 1e-6 <= ratio <= 1.0 + 1e-12:
        problems.append(f"best_ratio = {ratio}")
    if not out.get("iterations", 0) > 0:
        problems.append("no iterations reported")
    found = out.get("extremal_structure") is not None
    tally.item(problems, "ddvv --maximize")
    tally.verdicts += 1
    tally.decided += found
