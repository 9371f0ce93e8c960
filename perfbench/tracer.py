"""Per-layer tracing for the benchmark's traced run, from outside the program.

The tracer replaces each layer's public functions in every `trigrow` module
that refers to them, so calls from `cli` and from other layers go through a
wrapper that records a span (name, start, end, parent, operation id). Very
frequent calls are aggregated into a count and a total time instead. A
wrapper that is already active passes nested calls of the same name straight
through, so recursive functions such as `render_json` give one span. Nothing
under `src/` changes; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, self_s)
        self.aggregates: dict[tuple, list] = defaultdict(lambda: [0, 0.0])  # (op, name) -> [n, s]
        self.counters: dict[str, float] = defaultdict(float)
        self.hook_s = 0.0
        self.op: int | None = None
        self._stack: list[list] = []  # [span id, time covered by children]
        self._active: set[str] = set()
        self._next_id = 0

    def wrap(self, name: str, fn, aggregate: bool = False, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in tracer._active:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            tracer._active.add(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._active.discard(name)
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                if aggregate:
                    agg = tracer.aggregates[(tracer.op, name)]
                    agg[0] += 1
                    agg[1] += end - start
                else:
                    tracer.spans.append(
                        (span_id, name, start, end, parent, tracer.op, end - start - frame[1])
                    )
            if hook is not None:
                h0 = time.perf_counter()
                hook(tracer.counters, result, args)
                dh = time.perf_counter() - h0
                tracer.hook_s += dh
                if tracer._stack:  # keep hook time out of the caller's self time
                    tracer._stack[-1][1] += dh
            return result

        return traced

    def span_records(self) -> list[dict]:
        out = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "op": op, "self_s": self_s}
            for i, n, s, e, p, op, self_s in self.spans
        ]
        out += [
            {"name": name, "op": op, "calls": n, "total_s": total}
            for (op, name), (n, total) in sorted(self.aggregates.items(), key=str)
        ]
        return out


# ---------------------------------------------------------------------------
# Counter hooks: (counters, result, args) -> None
# ---------------------------------------------------------------------------


def _columns_hook(counters, outcomes, args) -> None:
    params = args[0]
    upper = params.orientation.value == "upper"
    nonzero = params.c / params.b > 0  # every z_k is then strictly positive
    counters["solver.columns"] += len(outcomes)
    for idx, o in enumerate(outcomes):
        if not o.ok:
            counters["solver.overflow_columns"] += 1
            continue
        vals = getattr(o.result, "values", None)
        if vals is None:  # extended: a list of ExtScalar, no array storage
            continue
        counters["solver.scale_shift_total"] += o.result.scale_exp
        counters["solver.column_bytes"] += vals.nbytes
        if nonzero:  # stored zeros at the pivot or below it are flushed components
            support = vals[: idx + 1] if upper else vals[idx:]
            counters["solver.flushed_components"] += int((support == 0.0).sum())


def _mm_bytes_hook(counters, _result, args) -> None:
    if isinstance(args[1], str):
        counters["matgen.mm_bytes"] += os.path.getsize(args[1])


def _bigint_hook(counters, seq, _args) -> None:
    bits = [max(v.numerator.bit_length(), v.denominator.bit_length())
            for v in seq.z if isinstance(v, Fraction)]
    if bits:
        counters["oracle.max_bigint_bits"] = max(counters["oracle.max_bigint_bits"], max(bits))


def _report_bytes_hook(counters, text, _args) -> None:
    counters["cli.report_bytes"] += len(text.encode()) + 1  # plus the trailing newline


def _trials_hook(counters, stats, _args) -> None:
    counters["conditioning.perturb_trials"] += stats.trials


def _cases_hook(counters, result, _args) -> None:
    counters["verify.cases"] += result.cases


SUITES = {
    "suite_omega_identity": "omega-identity",
    "suite_inverse_exact": "inverse-exact",
    "suite_eigen_relation": "eigen-relation",
    "suite_growth": "growth",
    "suite_skeel_consistency": "skeel-consistency",
    "suite_skeel_bound": "skeel-bound",
    "suite_solver_agreement": "solver-agreement",
}

# (defining module, attribute, span name, aggregate, counter hook)
TARGETS = [
    ("cli", "render_json", "cli.render_json", False, _report_bytes_hook),
    ("solver", "eigenvectors", "solver.eigenvectors", False, _columns_hook),
    ("solver", "naive_solve", "solver.naive_solve", True, None),
    ("solver", "robust_solve", "solver.robust_solve", True, None),
    ("solver", "ext_solve", "solver.ext_solve", True, None),
    ("solver", "structured_residuals", "solver.structured_residuals", False, None),
    ("matgen", "build_eigvec_subsystem", "matgen.build_subsystem", True, None),
    ("matgen", "build_A", "matgen.build_A", False, None),
    ("matgen", "write_matrix_market", "matgen.mm_write", False, _mm_bytes_hook),
    ("oracle", "growth_sequence", "oracle.growth_sequence", False, _bigint_hook),
    ("oracle", "exact_to_json", "oracle.exact_to_json", True, None),
    ("oracle", "solve_closed_form", "oracle.closed_form", True, None),
    ("oracle", "OmegaSequence.from_system", "oracle.closed_form", True, None),
    ("oracle", "growth_floor_check", "oracle.growth_floor_check", False, None),
    ("oracle", "EigenDecomposition.to_trimatrix", "oracle.to_trimatrix", False, None),
    ("conditioning", "skeel_exact", "conditioning.skeel_exact", True, None),
    ("conditioning", "perturbation_experiment", "conditioning.perturb", False, _trials_hook),
] + [("verify", fn, f"verify.{suite}", False, _cases_hook) for fn, suite in SUITES.items()]


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Route every reference to each target through the tracer while active."""
    patches = []
    try:
        for layer, attr, name, aggregate, hook in TARGETS:
            if "." in attr:  # a method, looked up on its class at each call
                cls_name, meth = attr.split(".")
                cls = getattr(modules[layer], cls_name)
                orig = cls.__dict__[meth]
                patches.append((cls, meth, orig))
                if isinstance(orig, classmethod):
                    wrapped = classmethod(tracer.wrap(name, orig.__func__, aggregate, hook))
                else:
                    wrapped = tracer.wrap(name, orig, aggregate, hook)
                setattr(cls, meth, wrapped)
                continue
            orig = getattr(modules[layer], attr)
            wrapped = tracer.wrap(name, orig, aggregate, hook)
            for mod in modules.values():
                if getattr(mod, attr, None) is orig:
                    patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        yield
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in report order; the traced run emits every one of them
PER_LAYER = {
    "solver.eigenvectors_s": "s",
    "solver.robust_solve_s": "s",
    "solver.scale_shift_total": "count",
    "solver.columns": "count",
    "solver.eigenvectors_slope": "ratio",
    "solver.column_bytes": "bytes",
    "solver.naive_solve_s": "s",
    "solver.overflow_columns": "count",
    "solver.ext_solve_s": "s",
    "solver.structured_residuals_s": "s",
    "solver.flushed_components": "count",
    "solver.residual_dense_s": "s",
    "extscalar.kernel_ops_per_s": "1/s",
    "matgen.build_subsystem_calls": "count",
    "matgen.build_A_s": "s",
    "matgen.mm_write_s": "s",
    "matgen.mm_bytes": "bytes",
    "oracle.growth_sequence_s": "s",
    "oracle.max_bigint_bits": "count",
    "oracle.exact_to_json_calls": "count",
    "oracle.exact_to_json_s": "s",
    "oracle.closed_form_s": "s",
    "oracle.growth_floor_check_s": "s",
    "oracle.to_trimatrix_s": "s",
    "conditioning.skeel_exact_s": "s",
    "conditioning.skeel_calls": "count",
    "conditioning.perturb_s": "s",
    "conditioning.perturb_trials_per_s": "1/s",
    **{f"verify.{suite}_s": "s" for suite in SUITES.values()},
    "verify.cases": "count",
    "cli.render_json_s": "s",
    "cli.report_bytes": "bytes",
    "cli.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "baseline.eig_robust_m500_s": "s",
    "baseline.eig_robust_m1000_s": "s",
    "baseline.eig_robust_m2000_s": "s",
    "baseline.cond_m200_s": "s",
    "baseline.perturb_m50_s": "s",
    "baseline.gen_x_json_m600_s": "s",
}


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Layer times and counts over the traced operations (0 for layers not reached)."""
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for _, name, start, end, _, _, own in tracer.spans:
        incl[name] += end - start
        self_s[name] += own
    calls: dict[str, int] = defaultdict(int)
    for (_, name), (n, total) in tracer.aggregates.items():
        calls[name] += n
        incl[name] += total
    c = tracer.counters
    perturb_s = incl["conditioning.perturb"]
    out = {
        "solver.eigenvectors_s": incl["solver.eigenvectors"],
        "solver.naive_solve_s": incl["solver.naive_solve"],
        "solver.ext_solve_s": incl["solver.ext_solve"],
        "solver.structured_residuals_s": incl["solver.structured_residuals"],
        "matgen.build_subsystem_calls": calls["matgen.build_subsystem"],
        "matgen.build_A_s": incl["matgen.build_A"],
        "matgen.mm_write_s": incl["matgen.mm_write"],
        "oracle.growth_sequence_s": incl["oracle.growth_sequence"],
        "oracle.exact_to_json_calls": calls["oracle.exact_to_json"],
        "oracle.exact_to_json_s": incl["oracle.exact_to_json"],
        "oracle.closed_form_s": incl["oracle.closed_form"],
        "oracle.growth_floor_check_s": incl["oracle.growth_floor_check"],
        "oracle.to_trimatrix_s": incl["oracle.to_trimatrix"],
        "conditioning.skeel_exact_s": incl["conditioning.skeel_exact"],
        "conditioning.skeel_calls": calls["conditioning.skeel_exact"],
        "conditioning.perturb_s": perturb_s,
        "conditioning.perturb_trials_per_s":
            c["conditioning.perturb_trials"] / perturb_s if perturb_s else 0.0,
        **{f"verify.{s}_s": incl[f"verify.{s}"] for s in SUITES.values()},
        "cli.render_json_s": incl["cli.render_json"],
        "cli.self_s": self_s["cli.main"],
    }
    for name in ("solver.scale_shift_total", "solver.columns", "solver.column_bytes",
                 "solver.overflow_columns", "solver.flushed_components", "matgen.mm_bytes",
                 "oracle.max_bigint_bits", "verify.cases", "cli.report_bytes"):
        out[name] = c[name]
    return out


def op_breakdown(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per operation: its wall time, cli self time, and each layer's inclusive time."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for _, name, start, end, _, op, own in tracer.spans:
        if name == "cli.main":
            out[op]["wall"] += end - start
            out[op]["cli.self"] += own
        else:
            out[op][name] += end - start
    for (op, name), (_, total) in tracer.aggregates.items():
        out[op][name] += total
    return {op: dict(d) for op, d in out.items()}


# ---------------------------------------------------------------------------
# Probes: fixed calls timed directly, the same on every workload
# ---------------------------------------------------------------------------

SLOPE_SIZES = (250, 500, 1000, 2000)


def _median_time(fn, min_total: float = 0.3, max_reps: int = 15) -> float:
    """Median of repeated calls: at least one, more until min_total or max_reps."""
    times: list[float] = []
    while not times or (len(times) < max_reps and sum(times) < min_total):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes(tg) -> dict[str, float]:
    """Slope sweep, single-solve, dense-residual and ExtScalar kernel probes."""
    out: dict[str, float] = {}
    sweep = {}
    for m in SLOPE_SIZES:
        params = tg.MatrixParams(m, 0.0, 1.0, float(m))
        sweep[m] = _median_time(lambda: tg.eigenvectors(params, tg.Method.ROBUST))
    xs = [math.log(m) for m in SLOPE_SIZES]
    ys = [math.log(sweep[m]) for m in SLOPE_SIZES]
    xbar, ybar = statistics.fmean(xs), statistics.fmean(ys)
    out["solver.eigenvectors_slope"] = (
        sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        / sum((x - xbar) ** 2 for x in xs)
    )
    for m in (500, 1000, 2000):
        out[f"baseline.eig_robust_m{m}_s"] = sweep[m]

    sub = tg.build_eigvec_subsystem(tg.MatrixParams(1000, 0.0, 1.0, 1000.0), 1)
    out["solver.robust_solve_s"] = _median_time(lambda: tg.robust_solve(sub), max_reps=21)

    params = tg.MatrixParams(600, 0.0, 1.0, 600.0)
    tail = tg.robust_solve(tg.build_eigvec_subsystem(params, 1))
    col = tg.ScaledVector(
        [math.ldexp(1.0, -tail.scale_exp)] + list(tail.values), tail.scale_exp
    )
    A = tg.build_A(params)
    out["solver.residual_dense_s"] = _median_time(lambda: tg.residual(A, 1.0, col), max_reps=1)

    n = 20000  # x_k = a_k h, h += x_k: one multiply and one add per step
    ak = [tg.ExtScalar(1000.0 / k) for k in range(1, n + 1)]

    def kernel():
        h = tg.ExtScalar(1.0)
        for a in ak:
            h = h + a * h

    out["extscalar.kernel_ops_per_s"] = 2 * n / _median_time(kernel, min_total=10.0, max_reps=5)
    return out
