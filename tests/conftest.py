"""Shared brute-force oracles, deliberately independent of the library's
closed-form code paths: plain substitution, dense rational inversion, and
dense triple products, all in exact Fraction arithmetic; plus the slow
per-column and per-entry routes that the one-sequence fast paths replaced,
the per-element ExtScalar routes that the shifted float64 kernels
replaced, the routes the exact checks replaced: the per-trial
perturbation loop, the full growth-floor scan, the per-grid-point Skeel
suites and the O(n^3) inverse check; and the per-entry writers that
formatting each distinct value once replaced: the Matrix Market writer,
the recursive JSON renderer and the `gen --format json` reports.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction
from typing import Any

import numpy as np
import pytest

from trigrow import (
    ExtScalar,
    GrowthFloorReport,
    PerturbStats,
    GeneralSystem,
    MatrixParams,
    Method,
    Orientation,
    ScaledVector,
    SolveOutcome,
    SolveStatus,
    TriMatrix,
    build_A,
    build_eigvec_subsystem,
    eigenvalues,
    eigenvector_matrix,
    ext_solve,
    growth_sequence,
    naive_solve,
    robust_solve,
    skeel_bound,
    skeel_exact,
    skeel_vectors,
    solve_closed_form,
)
from trigrow.extscalar import ZERO
from trigrow.cli import _json_string
from trigrow.oracle import exact_to_json
from trigrow.verify import SuiteResult, _skeel_grid


def brute_solve(sys: GeneralSystem) -> list[Fraction]:
    """Forward substitution x_k = (f_k + c * sum_{j<k} x_j) / d_k in exact rationals."""
    c = Fraction(float(sys.c))
    x: list[Fraction] = []
    for k in range(sys.n):
        acc = c
        for j in range(k):
            acc += c * x[j]
        x.append(acc / Fraction(float(sys.d[k])))
    return x


def dense_G(sys: GeneralSystem) -> list[list[Fraction]]:
    n = sys.n
    c = Fraction(float(sys.c))
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = Fraction(float(sys.d[i]))
        for j in range(i):
            g[i][j] = -c
    return g


def brute_inverse(sys: GeneralSystem) -> list[list[Fraction]]:
    """Column-by-column substitution against the identity; O(n^3), exact."""
    g = dense_G(sys)
    n = sys.n
    h = [[Fraction(0)] * n for _ in range(n)]
    for col in range(n):
        for i in range(n):
            acc = Fraction(1 if i == col else 0)
            for j in range(i):
                acc -= g[i][j] * h[j][col]
            h[i][col] = acc / g[i][i]
    return h


def brute_skeel_vectors(sys: GeneralSystem) -> tuple[list[Fraction], list[Fraction]]:
    """y = |G||x| and z = |G^-1| y via dense exact products."""
    g = dense_G(sys)
    h = brute_inverse(sys)
    x = brute_solve(sys)
    n = sys.n
    y = [sum(abs(g[i][j]) * abs(x[j]) for j in range(n)) for i in range(n)]
    z = [sum(abs(h[i][j]) * y[j] for j in range(n)) for i in range(n)]
    return y, z


def brute_skeel_number(sys: GeneralSystem) -> float:
    x = brute_solve(sys)
    _, z = brute_skeel_vectors(sys)
    return float(max(z) / max(abs(v) for v in x))


def random_positive_system(rng: np.random.Generator, n: int) -> GeneralSystem:
    d = rng.integers(1, 12, n) / rng.integers(1, 5, n)
    c = float(rng.integers(1, 12) / rng.integers(1, 5))
    return GeneralSystem(np.asarray(d, dtype=np.float64), c)


def random_signed_system(rng: np.random.Generator, n: int) -> GeneralSystem:
    sys = random_positive_system(rng, n)
    d = sys.d * rng.choice([-1.0, 1.0], n)
    c = -sys.c if rng.random() < 0.5 else sys.c
    return GeneralSystem(d, c)


def per_column_eigenvectors(params: MatrixParams, method: Method) -> list[SolveOutcome]:
    """Every column from its own subsystem solve, assembled and index-reversed for upper."""
    m = params.m
    out = []
    for j in range(1, m + 1):
        sub = build_eigvec_subsystem(params, j)
        if method is Method.EXTENDED:
            col = [ExtScalar(0.0)] * (j - 1) + [ExtScalar(1.0)] + ext_solve(sub)
            out.append(SolveOutcome(SolveStatus.OK, col))
            continue
        if method is Method.ROBUST:
            tail = robust_solve(sub)
        else:
            res = naive_solve(sub)
            if not res.ok:
                out.append(res)
                continue
            tail = res.result
        full = np.zeros(m)
        full[j - 1] = math.ldexp(1.0, -tail.scale_exp)
        full[j:] = tail.values
        out.append(SolveOutcome(SolveStatus.OK, ScaledVector(full, tail.scale_exp)))
    if params.orientation is Orientation.UPPER:
        out = [_reversed_outcome(o) for o in reversed(out)]
    return out


def _reversed_outcome(o: SolveOutcome) -> SolveOutcome:
    if not o.ok:
        return o
    if isinstance(o.result, ScaledVector):
        return SolveOutcome(o.status, ScaledVector(o.result.values[::-1], o.result.scale_exp))
    return SolveOutcome(o.status, o.result[::-1])


def per_entry_x_json(params: MatrixParams) -> list[list[str]]:
    """X entries rendered one entry at a time through EigenDecomposition.entry."""
    dec = eigenvector_matrix(params)
    m = params.m
    return [[exact_to_json(dec.entry(i, j)) for j in range(1, m + 1)] for i in range(1, m + 1)]


def per_entry_x_matrix(params: MatrixParams) -> TriMatrix:
    """Native-float X converted one entry at a time."""
    dec = eigenvector_matrix(params)
    m = params.m
    ent = np.zeros((m, m))
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            v = dec.entry(i, j)
            ent[i - 1, j - 1] = float(v) if isinstance(v, Fraction) else v.to_native()
    return TriMatrix(ent, params.orientation)


def per_entry_matrix_market(mat: TriMatrix, fmt: str = "array") -> str:
    """Matrix Market text with one repr and one write per entry."""
    out = io.StringIO()
    n = mat.n
    e = mat.entries
    out.write(f"%%MatrixMarket matrix {fmt} real general\n")
    out.write(f"% shape: {mat.shape.value}\n")
    if fmt == "array":
        out.write(f"{n} {n}\n")
        for j in range(n):
            for i in range(n):
                out.write(f"{float(e[i, j])!r}\n")
    else:
        rows, cols = np.nonzero(e)
        out.write(f"{n} {n} {len(rows)}\n")
        for i, j in zip(rows, cols):
            out.write(f"{i + 1} {j + 1} {float(e[i, j])!r}\n")
    return out.getvalue()


def per_item_render_json(obj: Any, indent: int = 0) -> str:
    """Report JSON with one recursive call per item and floats at 17 significant digits."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _json_string(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if v != v or v in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite float {v!r} cannot appear in a report")
        return format(v, ".17g")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(f"{pad}  {_json_string(str(k))}: {per_item_render_json(obj[k], indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}  {per_item_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot render {type(obj).__name__} in a report")


def per_entry_gen_json(params: MatrixParams, what: str) -> str:
    """The `gen --format json` file, built entry by entry and rendered item by item."""
    if what == "A":
        mat = build_A(params)
        entries = [[float(v) for v in row] for row in mat.entries]
        report = {"kind": "A", "n": mat.n, "shape": mat.shape.value, "entries": entries}
    else:
        report = {
            "kind": "X",
            "n": params.m,
            "shape": params.orientation.value,
            "entries_exact": per_entry_x_json(params),
            "eigenvalues": [float(v) for v in eigenvalues(params)],
        }
    return per_item_render_json(report) + "\n"


def extscalar_perturbation(
    params: MatrixParams, j: int, epsilon: float, trials: int, seed: int
) -> PerturbStats:
    """The perturbation experiment with every trial substituted one ExtScalar at a time."""
    sub = build_eigvec_subsystem(params, j)
    n = sub.n
    x = solve_closed_form(sub)
    kappa_bound = skeel_bound(params.gamma().as_float(), n)
    denom = ExtScalar.from_fraction(
        Fraction(float(epsilon)) * max(abs(v) for v in x) * Fraction(kappa_bound)
    )
    x_ext = [ExtScalar.from_fraction(v) for v in x]
    c = float(sub.c)
    worst = ZERO
    for stream in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(stream)
        dd = sub.d * (1.0 + rng.uniform(-epsilon, epsilon, n))
        low = c * (1.0 + rng.uniform(-epsilon, epsilon, n * (n - 1) // 2))
        f = c * (1.0 + rng.uniform(-epsilon, epsilon, n))
        xt: list[ExtScalar] = []
        pos = 0
        for i in range(n):
            acc = ExtScalar(float(f[i]))
            for k in range(i):
                acc = acc + ExtScalar(float(low[pos])) * xt[k]
                pos += 1
            xt.append(acc / ExtScalar(float(dd[i])))
        for i in range(n):
            diff = xt[i] - x_ext[i]
            if diff.cmp_abs(worst) > 0:
                worst = diff
    ratio = (abs(worst) / denom).to_native()
    return PerturbStats(float(epsilon), trials, ratio, seed)


def _ext_vector(x) -> list[ExtScalar]:
    if isinstance(x, ScaledVector):
        return [x.component_ext(i) for i in range(len(x))]
    return list(x)


def extscalar_residual(A: TriMatrix, lam: float, x) -> ExtScalar:
    """The dense scaled residual evaluated entirely in ExtScalar, row sums of |A|
    falling back to sequential ExtScalar sums when the float64 norm overflows."""
    xe = _ext_vector(x)
    support = [(k, v) for k, v in enumerate(xe) if not v.is_zero()]
    with np.errstate(over="ignore"):
        norm_a = float(np.max(np.sum(np.abs(A.entries), axis=1)))
    if math.isfinite(norm_a):
        norm_ext = ExtScalar(norm_a)
    else:
        norm_ext = ZERO
        for i in range(A.n):
            row = ZERO
            for v in A.entries[i]:
                if v != 0.0:
                    row = row + ExtScalar(abs(float(v)))
            if row.cmp_abs(norm_ext) > 0:
                norm_ext = row
    lam_ext = ExtScalar(lam)
    xmax = ZERO
    for _, v in support:
        if v.cmp_abs(xmax) > 0:
            xmax = v
    worst = ZERO
    for i in range(A.n):
        acc = ZERO
        for k, v in support:
            aik = float(A.entries[i, k])
            if aik != 0.0:
                acc = acc + ExtScalar(aik) * v
        acc = acc - lam_ext * xe[i]
        if acc.cmp_abs(worst) > 0:
            worst = acc
    return abs(worst) / ((norm_ext + abs(lam_ext)) * abs(xmax))


def _extscalar_column_residual(params, tail, norm_a, lam_abs) -> float:
    b = ExtScalar(params.b)
    c = ExtScalar(params.c)
    vmax = ZERO
    for v in tail:
        if v.cmp_abs(vmax) > 0:
            vmax = v
    if vmax.is_zero():
        return math.nan
    worst = ZERO
    prefix = ZERO
    for k, x in enumerate(tail):
        if k > 0:
            row = ExtScalar(float(k)) * b * x - c * prefix
            if row.cmp_abs(worst) > 0:
                worst = row
        prefix = prefix + x
    out = (abs(worst) / ((ExtScalar(norm_a) + ExtScalar(lam_abs)) * abs(vmax))).to_native()
    return out if isinstance(out, float) else math.nan


def per_column_structured_residuals(params: MatrixParams, outcomes) -> np.ndarray:
    """Structured residuals one column at a time: ScaledVector columns in
    longdouble, ExtScalar columns one ExtScalar at a time."""
    m = params.m
    lams = eigenvalues(params)
    norm_a = float(np.max(np.abs(lams) + np.arange(0, m) * abs(params.c)))
    upper = params.orientation is Orientation.UPPER
    res = np.full(m, np.nan)
    for idx, o in enumerate(outcomes):
        if not o.ok:
            continue
        j = m - idx if upper else idx + 1
        lam = abs(float(lams[j - 1]))
        if isinstance(o.result, ScaledVector):
            vals = o.result.values[::-1] if upper else o.result.values
            tail = vals[j - 1 :].astype(np.longdouble)
            vmax = np.max(np.abs(tail))
            if vmax == 0.0:
                continue
            if len(tail) == 1:
                res[idx] = 0.0
                continue
            e = int(np.frexp(vmax)[1])
            tail = np.ldexp(tail, -e)
            vmax = float(np.ldexp(vmax, -e))
            prefix = np.cumsum(tail[:-1])
            i_minus_j = np.arange(1, len(tail), dtype=np.longdouble)
            b, c = np.longdouble(params.b), np.longdouble(params.c)
            rows = i_minus_j * b * tail[1:] - c * prefix
            res[idx] = float(np.max(np.abs(rows)) / ((norm_a + lam) * vmax))
        else:
            col = list(reversed(o.result)) if upper else o.result
            res[idx] = _extscalar_column_residual(params, col[j - 1 :], norm_a, lam)
    return res


def per_trial_perturbation(
    params: MatrixParams, j: int, epsilon: float, trials: int, seed: int
) -> PerturbStats:
    """The perturbation experiment with each trial substituted on its own,
    on the same shifted float64 data as the batched route."""
    sub = build_eigvec_subsystem(params, j)
    n = sub.n
    x = solve_closed_form(sub)
    kappa_bound = skeel_bound(params.gamma().as_float(), n)
    denom = ExtScalar.from_fraction(
        Fraction(float(epsilon)) * max(abs(v) for v in x) * Fraction(kappa_bound)
    )
    x_ext = [ExtScalar.from_fraction(v) for v in x]
    sig = np.array([v.significand for v in x_ext])
    e = np.array([v.exponent for v in x_ext], dtype=np.int64)
    c = float(sub.c)
    ec, eb = math.frexp(c)[1], math.frexp(params.b)[1]
    r = e + (eb - ec)
    rows, cols = np.tril_indices(n, -1)
    lt = np.zeros((n, n))
    u = np.empty(n)
    never = np.iinfo(np.int64).min
    worst = (never, 0.0)
    for stream in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(stream)
        dd = np.ldexp(sub.d * (1.0 + rng.uniform(-epsilon, epsilon, n)), -eb)
        lt[cols, rows] = np.ldexp(c * (1.0 + rng.uniform(-epsilon, epsilon, len(rows))), -ec)
        acc = np.ldexp(c * (1.0 + rng.uniform(-epsilon, epsilon, n)), -ec - r)
        for k in range(n):
            u[k] = acc[k] / dd[k]
            acc[k + 1 :] += np.ldexp(lt[k, k + 1 :] * u[k], e[k] - r[k + 1 :])
        mant, ex = np.frexp(np.abs(u - sig))
        ex = np.where(mant > 0.0, ex + e, never)
        k = np.lexsort((mant, ex))[-1]
        worst = max(worst, (int(ex[k]), float(mant[k])))
    ratio = (ExtScalar(worst[1]).scale_pow2(worst[0]) / denom).to_native()
    return PerturbStats(float(epsilon), trials, ratio, seed)


def scan_growth_floor_check(params: MatrixParams) -> GrowthFloorReport:
    """The growth floor checked at every k = 0..m-1 of the whole sequence."""
    params.require_distinct_eigenvalues()
    g = params.gamma()
    growth = growth_sequence(g, params.m - 1)
    first = None
    for k in range(params.m):
        zk = growth[k]
        if isinstance(zk, Fraction):
            ok = zk >= (1 << k)
        else:
            ok = zk.sign > 0 and zk.cmp_abs(ExtScalar.pow2(k)) >= 0
        if not ok:
            first = (k + 1, 1)
            break
    count = params.m * (params.m + 1) // 2
    return GrowthFloorReport(params.m, g, first is None, first, count)


def per_point_skeel_suites(max_n: int) -> tuple[SuiteResult, SuiteResult]:
    """skeel-consistency and skeel-bound with skeel_exact, solve_closed_form and
    skeel_vectors called afresh at every grid point."""
    cons = SuiteResult("skeel-consistency")
    bnd = SuiteResult("skeel-bound")
    for g, n in _skeel_grid(max_n):
        sys = GeneralSystem(np.arange(1, n + 1, dtype=np.float64), g)
        kappa = skeel_exact(sys)
        x = solve_closed_form(sys)
        _, z = skeel_vectors(sys)
        closed = float(max(z) / max(abs(v) for v in x))
        ok = abs(kappa - closed) <= 1e-12 * abs(closed)
        cons.check(ok, lambda g=g, n=n: f"skeel mismatch at gamma={g} n={n}")
    for g, n in _skeel_grid(max_n):
        kappa = skeel_exact(GeneralSystem(np.arange(1, n + 1, dtype=np.float64), g))
        bound = skeel_bound(g, n)
        bnd.check(
            kappa >= 1.0 and kappa <= bound,
            lambda g=g, n=n, k=kappa, b=bound: f"bound violated: gamma={g} n={n} kappa={k} bound={b}",
        )
    for m in (5, 50, 200):
        if m > max_n:
            continue
        b = skeel_bound(float(m), m)
        bnd.check(
            b <= 2.0 * (1.0 + m * math.log(2.0)) + 1e-9,
            lambda m=m: f"specialized bound violated at m={m}",
        )
    return cons, bnd


def cubic_inverse_fails(sys: GeneralSystem, h) -> bool:
    """Whether G h differs from the identity, with each entry of G h summed afresh."""
    n = sys.n
    c = Fraction(sys.c)
    d = [Fraction(float(v)) for v in sys.d]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            acc = d[i - 1] * h[i, j]
            for k in range(1, i):
                acc += -c * h[k, j]
            if acc != (1 if i == j else 0):
                return True
    return False


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
