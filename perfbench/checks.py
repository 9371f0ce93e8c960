"""Independent correctness checks for `trigrow` reports (standard library only).

The references are computed here from the closed forms in exact integer and
`Fraction` arithmetic, never by calling the program: the eigenvector components along
subdiagonal k are z_k = C(gamma + k - 1, k), their running total after k
steps is C(gamma + k, k), and the Skeel bound is 2 (1 + gamma ln((gamma +
n - 1) / gamma)). Each checker returns a list of problems; empty means pass.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from workloads import Op

OMEGA = int(sys.float_info.max)  # largest finite double, as an exact integer
RESIDUAL_LIMIT = 1e-12
LOG2_TOL = 1e-9
PERTURB_RATIO_LIMIT = 4.0
SUITES = 7


def growth_terms(gamma: Fraction, kmax: int) -> list[Fraction]:
    """z_0..z_kmax with z_k = C(gamma + k - 1, k), exactly."""
    out = [Fraction(1)]
    if gamma.denominator == 1:  # integer gamma: the recurrence stays in integers
        g, z = gamma.numerator, 1
        for k in range(kmax):
            z = z * (g + k) // (k + 1)
            out.append(Fraction(z))
        return out
    for k in range(kmax):
        out.append(out[-1] * (gamma + k) / (k + 1))
    return out


def log2_exact(v: Fraction) -> float:
    return math.log2(v.numerator) - math.log2(v.denominator)


def skeel_bound(gamma: float, n: int) -> float:
    return 2.0 * (1.0 + gamma * math.log((gamma + n - 1.0) / gamma))


def lower_index(op: Op, j: int) -> int:
    """Column j of the reported matrix as a column of the lower-orientation matrix."""
    return op.m + 1 - j if op.upper else j


# ---------------------------------------------------------------------------
# Per-command checkers
# ---------------------------------------------------------------------------


def check_eig(op: Op, report: dict) -> list[str]:
    m, method = op.m, op.argv[op.argv.index("--method") + 1]
    bad = []
    if report.get("command") != "eig" or report.get("method") != method:
        return [f"not an eig/{method} report"]
    cols = report["columns"]
    if [c["j"] for c in cols] != list(range(1, m + 1)):
        return ["columns are not j = 1..m"]
    z = growth_terms(op.gamma, m - 1)
    # prefix maximum of log2 z_k: the largest component of a column with n tail entries
    peak, best = [], -math.inf
    for zk in z:
        best = max(best, log2_exact(zk))
        peak.append(best)
    totals = growth_terms(op.gamma + 1, m - 1)  # C(gamma + n, n)
    overflowed = 0
    for col in cols:
        n = m - lower_index(op, col["j"])
        if method == "naive":
            # naive overflows iff the running total C(gamma + n, n) leaves the double range
            total = totals[n]
            if not (OMEGA // 2 < total < 2 * OMEGA):  # too close to the limit to predict
                want = "overflow-detected" if total > OMEGA else "ok"
                if col["status"] != want:
                    bad.append(f"column {col['j']}: status {col['status']}, predicted {want}")
        elif col["status"] != "ok":
            bad.append(f"column {col['j']}: status {col['status']}")
        if col["status"] != "ok":
            overflowed += 1
            continue
        r = col.get("residual")
        if r is None or not r <= RESIDUAL_LIMIT:
            bad.append(f"column {col['j']}: residual {r!r}")
        got = col.get("max_log2")
        if got is None or abs(got - peak[n]) > LOG2_TOL * max(1.0, abs(peak[n])):
            bad.append(f"column {col['j']}: max_log2 {got!r}, reference {peak[n]!r}")
    if report.get("overflow_columns") != overflowed:
        bad.append(f"overflow_columns {report.get('overflow_columns')!r} != {overflowed}")
    return bad[:5]


def check_cond(op: Op, report: dict) -> list[str]:
    reps = report.get("reports", [])
    if [r["j"] for r in reps] != list(range(1, op.m)):
        return ["reports are not j = 1..m-1"]
    g = float(op.gamma)
    bad = []
    for r in reps:
        n = op.m - r["j"]
        bound = skeel_bound(g, n)
        if r["n"] != n or abs(r["kappa_bound"] - bound) > 1e-12 * bound:
            bad.append(f"j={r['j']}: n, kappa_bound = {r['n']}, {r['kappa_bound']!r}; "
                       f"want {n}, {bound!r}")
        if not 1.0 <= r["kappa_exact"] <= r["kappa_bound"]:
            bad.append(f"j={r['j']}: kappa {r['kappa_exact']!r} outside [1, {r['kappa_bound']!r}]")
    return bad[:5]


def check_perturb(op: Op, report: dict) -> list[str]:
    argv = op.argv
    ratio = report.get("max_componentwise_error_ratio")
    bad = []
    if report.get("trials") != int(argv[argv.index("--trials") + 1]):
        bad.append("trial count differs from the request")
    if report.get("seed") != int(argv[argv.index("--seed") + 1]):
        bad.append("seed differs from the request")
    if not (isinstance(ratio, float) and 0.0 < ratio <= PERTURB_RATIO_LIMIT):
        bad.append(f"ratio {ratio!r} outside (0, {PERTURB_RATIO_LIMIT}]")
    bound = skeel_bound(float(op.gamma), op.m - 1)
    if abs(report.get("kappa_bound", 0.0) - bound) > 1e-12 * bound:
        bad.append(f"kappa_bound {report.get('kappa_bound')!r}, want {bound!r}")
    return bad


def check_verify(op: Op, report: dict) -> list[str]:
    suites = report.get("suites", [])
    bad = [f"suite {s['name']} failed" for s in suites if not s.get("passed")]
    if len(suites) != SUITES:
        bad.append(f"{len(suites)} suites, want {SUITES}")
    if report.get("passed") is not True:
        bad.append("verify did not pass")
    return bad


def check_growth(op: Op, report: dict) -> list[str]:
    bad = []
    if report.get("passed") is not True or report.get("floor_guaranteed") is not True:
        bad.append("growth floor not reported as passed and guaranteed")
    if report.get("checked_entries") != op.m * (op.m + 1) // 2:
        bad.append(f"checked_entries {report.get('checked_entries')!r}")
    return bad


def check_x_json(op: Op, doc: dict) -> list[str]:
    m = op.m
    if doc.get("kind") != "X" or doc.get("n") != m:
        return ["not an X document of the requested size"]
    if doc.get("shape") != ("upper" if op.upper else "lower"):
        return [f"shape {doc.get('shape')!r}"]
    rows = doc["entries_exact"]
    if len(rows) != m or any(len(r) != m for r in rows):
        return ["entries_exact is not m x m"]
    want_lams = [float(Fraction(j) * Fraction(op.b)) for j in range(1, m + 1)]
    if doc.get("eigenvalues") != want_lams:
        return ["eigenvalues differ from a + j*b"]
    z = growth_terms(op.gamma, m - 1)
    bad = []
    ks = sorted({0, 1, 2, m // 3, m // 2, m - 2, m - 1})
    for k in ks:  # diagonal k, sampled at its ends and middle
        for t in sorted({0, (m - 1 - k) // 2, m - 1 - k}):
            i, j = k + t, t  # 0-based lower position on diagonal k
            if op.upper:
                i, j = m - 1 - i, m - 1 - j
            num, den = rows[i][j].split("/")
            if Fraction(int(num), int(den)) != z[k]:
                bad.append(f"entry ({i + 1},{j + 1}) = {rows[i][j][:40]}, want z_{k}")
            if k > 0:
                zi, zj = (j, i)  # mirrored position is strictly on the zero side
                if rows[zi][zj] != "0/1":
                    bad.append(f"entry ({zi + 1},{zj + 1}) should be 0/1")
    return bad[:5]


def read_matrix_market(text: str) -> tuple[str, dict[tuple[int, int], float], int]:
    """Minimal reader: (shape comment, {(i, j): value} for nonzeros, n). 0-based indices."""
    lines = text.split("\n")
    head = lines[0].split()
    if head[:2] != ["%%MatrixMarket", "matrix"] or head[3:] != ["real", "general"]:
        raise ValueError(f"bad header {lines[0]!r}")
    fmt = head[2]
    pos, shape = 1, ""
    while lines[pos].startswith("%"):
        if lines[pos].startswith("% shape: "):
            shape = lines[pos][len("% shape: "):].strip()
        pos += 1
    dims = [int(t) for t in lines[pos].split()]
    n = dims[0]
    if dims[1] != n:
        raise ValueError("matrix is not square")
    body = [ln for ln in lines[pos + 1:] if ln.strip()]
    entries: dict[tuple[int, int], float] = {}
    if fmt == "array":
        if len(body) != n * n:
            raise ValueError(f"{len(body)} array values, want {n * n}")
        for idx, ln in enumerate(body):  # column-major
            v = float(ln)
            if v != 0.0:
                entries[(idx % n, idx // n)] = v
    elif fmt == "coordinate":
        if len(body) != dims[2]:
            raise ValueError(f"{len(body)} coordinate entries, header says {dims[2]}")
        for ln in body:
            i, j, v = ln.split()
            key = (int(i) - 1, int(j) - 1)
            if key in entries or not (0 <= key[0] < n and 0 <= key[1] < n):
                raise ValueError(f"bad or repeated coordinate {ln!r}")
            entries[key] = float(v)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return shape, entries, n


def expected_entries(op: Op, what: str) -> dict[tuple[int, int], float]:
    """Nonzero entries of A or X, 0-based, in the op's orientation."""
    m = op.m
    out: dict[tuple[int, int], float] = {}
    if what == "A":
        for i in range(m):
            out[(i, i)] = float(Fraction(i + 1) * Fraction(op.b))
            for j in range(i):
                out[(i, j)] = -op.c
    else:
        z = [float(v) for v in growth_terms(op.gamma, m - 1)]
        for i in range(m):
            for j in range(i + 1):
                out[(i, j)] = z[i - j]
    if op.upper:
        out = {(m - 1 - i, m - 1 - j): v for (i, j), v in out.items()}
    return {k: v for k, v in out.items() if v != 0.0}


def check_mtx(op: Op, text: str) -> list[str]:
    what = op.argv[op.argv.index("--what") + 1]
    try:
        shape, got, n = read_matrix_market(text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable Matrix Market file: {exc}"]
    if n != op.m or shape != ("upper" if op.upper else "lower"):
        return [f"size/shape {n}/{shape!r}"]
    want = expected_entries(op, what)
    if got != want:
        diff = [k for k in set(got) | set(want) if got.get(k) != want.get(k)]
        return [f"{len(diff)} entries differ, e.g. {sorted(diff)[:3]}"]
    return []


REPORT_CHECKS = {
    "eig": check_eig,
    "cond": check_cond,
    "perturb": check_perturb,
    "verify": check_verify,
    "growth": check_growth,
}


def check_op(op: Op, rc: int, stdout: str, output: str | None) -> list[str]:
    """Problems with one invocation's exit code, report and output file."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        if op.command == "gen":
            if output is None:
                return ["output file missing"]
            if "--format" in op.argv:
                return check_x_json(op, json.loads(output))
            return check_mtx(op, output)
        return REPORT_CHECKS[op.command](op, json.loads(stdout))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
