"""Command-line surface: generate matrices, solve eigenvectors, report
conditioning, run perturbation experiments, and drive the verification campaign.

Exit codes: 0 success, 2 usage or I/O problems, 3 a verification predicate
failed (mathematical regression, not plumbing). Reports are JSON rendered
deterministically: same flags and seed give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from . import __version__
from .conditioning import condition_reports, perturbation_experiment, skeel_bound
from .extscalar import ExtScalar
from .matgen import (
    MatrixParams,
    Orientation,
    TriMatrix,
    build_A,
    check_dense_size,
    format_distinct,
    write_matrix_market,
)
from .oracle import (
    eigenvector_matrix,
    exact_to_json,
    growth_floor_check,
    growth_sequence,
)
from .solver import Method, ScaledVector, SolveStatus, eigenvectors, structured_residuals
from .verify import SUITE_NAMES, run_suites

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3


# ---------------------------------------------------------------------------
# Deterministic JSON rendering (floats with 17 significant digits)
# ---------------------------------------------------------------------------


class _Rendered(str):
    """JSON text rendered ahead of time; render_json emits it unchanged."""


def render_json(obj: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return obj if type(obj) is _Rendered else _json_string(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _json_float(float(obj))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(f'{pad}  {_json_string(str(k))}: {render_json(obj[k], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        if all(type(v) is _Rendered for v in obj):
            return f"[\n{pad}  " + f",\n{pad}  ".join(obj) + f"\n{pad}]"
        items = [f"{pad}  {render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot render {type(obj).__name__} in a report")


def _json_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {v!r} cannot appear in a report")
    return format(v, ".17g")


def _rendered_float(v: float) -> _Rendered:
    return _Rendered(_json_float(v))


def _rendered_exact(v) -> _Rendered:
    return _Rendered(_json_string(exact_to_json(v)))


# '"' and '\\' escaped, code points below 0x20 as \u00XX, everything else verbatim
_JSON_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _json_string(s: str) -> str:
    return '"' + s.translate(_JSON_ESCAPES) + '"'


def _write_report(report: dict, path: str | None) -> None:
    text = render_json(report) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _ext_json(e: ExtScalar) -> dict:
    """Range-safe number: exact power-of-two string plus a human log2 field."""
    if e.is_zero():
        return {"pow2": "0", "log2": None}
    return {"pow2": str(e), "log2": e.log2_abs()}


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("-m", type=int, required=True, help="matrix dimension")
    p.add_argument("-a", type=float, default=0.0, help="diagonal offset (default 0)")
    p.add_argument("-b", type=float, default=1.0, help="diagonal slope (default 1)")
    p.add_argument("-c", type=float, default=1.0, help="subdiagonal magnitude (default 1)")
    p.add_argument("--upper", action="store_true", help="use the flipped upper-triangular form")


def _params(args: argparse.Namespace) -> MatrixParams:
    orient = Orientation.UPPER if args.upper else Orientation.LOWER
    return MatrixParams(args.m, args.a, args.b, args.c, orient)


def _params_jsonable(params: MatrixParams) -> dict:
    d = {
        "m": params.m,
        "a": params.a,
        "b": params.b,
        "c": params.c,
        "orientation": params.orientation.value,
    }
    if params.b != 0.0:
        g = params.gamma()
        d["gamma"] = g.as_float()
        d["gamma_exact"] = str(g) if g.exact else None
    return d


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trigrow",
        description="Triangular test matrices with growing, well-conditioned eigenvectors.",
    )
    ap.add_argument("--version", action="version", version=f"trigrow {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate the matrix A or the oracle eigenvector matrix X")
    _add_params(g)
    g.add_argument("--what", choices=("A", "X"), default="A")
    g.add_argument("--format", choices=("matrix-market", "json"), default="matrix-market")
    g.add_argument("--mm-format", choices=("array", "coordinate"), default="array")
    g.add_argument("-o", "--output", default=None, help="output path (default <what>.mtx/.json)")

    e = sub.add_parser("eig", help="solve all eigenvector columns with a chosen method")
    _add_params(e)
    e.add_argument("--method", choices=[m.value for m in Method], default="robust")
    e.add_argument(
        "--expect",
        choices=("ok", "overflow"),
        default=None,
        help="exit 3 unless every column matches (ok) or some column overflows (overflow)",
    )
    e.add_argument("-o", "--output", default=None, help="report path (default stdout)")

    c = sub.add_parser("cond", help="Skeel condition numbers for eigenvector subsystems")
    _add_params(c)
    c.add_argument("-j", type=int, default=None, help="eigen-index (default: all 1..m-1)")
    c.add_argument("--epsilon", type=float, default=None, help="attach a perturbation experiment")
    c.add_argument("--trials", type=int, default=0)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("-o", "--output", default=None)

    gr = sub.add_parser("growth", help="check the exponential growth floor x_ij >= 2^(i-j)")
    _add_params(gr)
    gr.add_argument("--expect", choices=("pass", "fail"), default=None)
    gr.add_argument("-o", "--output", default=None)

    pe = sub.add_parser("perturb", help="componentwise-relative perturbation experiment")
    _add_params(pe)
    pe.add_argument("-j", type=int, required=True)
    pe.add_argument("--epsilon", type=float, default=1e-8)
    pe.add_argument("--trials", type=int, default=1000)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--max-ratio", type=float, default=None, help="exit 3 if exceeded")
    pe.add_argument("-o", "--output", default=None)

    v = sub.add_parser("verify", help="run the full invariant campaign")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--max-m", type=int, default=600, help="largest adversarial dimension")
    v.add_argument("--max-n", type=int, default=500, help="largest Skeel grid size")
    v.add_argument("--suite", action="append", default=None, choices=SUITE_NAMES)
    v.add_argument("-m", type=int, default=None, help="target the growth suite at one matrix")
    v.add_argument("-a", type=float, default=0.0)
    v.add_argument("-b", type=float, default=1.0)
    v.add_argument("-c", type=float, default=1.0)
    v.add_argument("--upper", action="store_true")
    v.add_argument("-o", "--output", default=None)
    return ap


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.what == "X":
        params.require_distinct_eigenvalues()
    check_dense_size(params.m)
    # c / b rounds exactly as GammaRatio.as_float(), and A needs no finite gamma
    gamma = f"{params.c / params.b!r}" if params.b != 0.0 else "undefined"
    out = args.output
    if out is None:
        out = f"{args.what}.{'mtx' if args.format == 'matrix-market' else 'json'}"
    if args.format == "matrix-market":
        mat = build_A(params) if args.what == "A" else eigenvector_matrix(params).to_trimatrix()
        write_matrix_market(mat, out, fmt=args.mm_format)
    else:
        _write_report(_matrix_json(params, args.what), out)
    print(
        f"{args.what}: m={params.m} a={params.a!r} b={params.b!r} c={params.c!r} "
        f"gamma={gamma} orientation={params.orientation.value} -> {out}"
    )
    return EXIT_OK


def _matrix_json(params: MatrixParams, what: str) -> dict:
    # every entry is rendered once per distinct value, then the rows are joined
    if what == "A":
        mat = build_A(params)
        memo: dict[int, str] = {}
        entries = [format_distinct(row, _rendered_float, memo).tolist() for row in mat.entries]
        return {"kind": "A", "n": mat.n, "shape": mat.shape.value, "entries": entries}
    dec = eigenvector_matrix(params)
    return {
        "kind": "X",
        "n": params.m,
        "shape": params.orientation.value,
        "entries_exact": dec.rows(_rendered_exact),
        "eigenvalues": [float(v) for v in dec.lambdas],
    }


def cmd_eig(args: argparse.Namespace) -> int:
    params = _params(args)
    method = Method(args.method)
    outs = eigenvectors(params, method)
    residuals = structured_residuals(params, outs)
    cols = []
    any_overflow = False
    for idx, o in enumerate(outs):
        entry: dict[str, Any] = {"j": idx + 1, "status": o.status.value}
        if o.ok:
            if isinstance(o.result, ScaledVector):
                entry["scale_exp"] = o.result.scale_exp
                peak = int(np.argmax(np.abs(o.result.values)))
                entry["max_component"] = _ext_json(o.result.component_ext(peak))
            else:
                entry["scale_exp"] = None
                peak = max(
                    (v for v in o.result if not v.is_zero()),
                    key=lambda v: (v.exponent, v.significand),
                )
                entry["max_component"] = _ext_json(peak)
            entry["max_log2"] = entry["max_component"]["log2"]
            r = residuals[idx]
            entry["residual"] = None if np.isnan(r) else float(r)
        else:
            any_overflow = True
            entry["overflow_index"] = o.overflow_index
        cols.append(entry)
    report = {
        "command": "eig",
        "method": method.value,
        "params": _params_jsonable(params),
        "columns": cols,
        "overflow_columns": sum(1 for o in outs if not o.ok),
    }
    _write_report(report, args.output)
    if args.expect == "ok" and any_overflow:
        print("expectation failed: overflow detected but --expect ok", file=sys.stderr)
        return EXIT_VERIFICATION
    if args.expect == "overflow" and not any_overflow:
        print("expectation failed: no overflow but --expect overflow", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_cond(args: argparse.Namespace) -> int:
    params = _params(args)
    params.require_distinct_eigenvalues()
    if params.m < 2:
        raise ValueError("cond needs m >= 2 (no nonempty subsystems otherwise)")
    if args.j is not None and not 1 <= args.j <= params.m - 1:
        raise ValueError(f"eigen-index must have a nonempty subsystem: 1 <= j <= {params.m - 1}")
    reps = condition_reports(params)
    if args.j is not None:
        reps = [reps[args.j - 1]]
    reports = []
    for rep in reps:
        if args.epsilon is not None and args.trials > 0:
            stats = perturbation_experiment(params, rep.j, args.epsilon, args.trials, args.seed)
            rep = replace(rep, perturb_stats=stats)
        d = rep.to_jsonable()
        if rep.kappa_bound is not None:
            d["margin"] = rep.kappa_bound - rep.kappa_exact
        reports.append(d)
    report = {
        "command": "cond",
        "params": _params_jsonable(params),
        "reports": reports,
    }
    _write_report(report, args.output)
    return EXIT_OK


def cmd_growth(args: argparse.Namespace) -> int:
    params = _params(args)
    rep = growth_floor_check(params)
    payload: dict[str, Any] = {
        "command": "growth",
        "params": _params_jsonable(params),
        "passed": rep.passed,
        "checked_entries": rep.checked_entries,
        "floor_guaranteed": params.gamma().as_float() >= params.m,
    }
    if rep.first_violation is not None:
        i, j = rep.first_violation
        z = growth_sequence(rep.gamma, i - j)
        zk = z[i - j]
        witness = {
            "i": i,
            "j": j,
            "entry": exact_to_json(zk) if isinstance(zk, Fraction) else str(zk),
            "required": f"2^{i - j}",
        }
        payload["first_violation"] = witness
    _write_report(payload, args.output)
    if args.expect == "pass" and not rep.passed:
        print("expectation failed: growth floor violated", file=sys.stderr)
        return EXIT_VERIFICATION
    if args.expect == "fail" and rep.passed:
        print("expectation failed: growth floor held", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_perturb(args: argparse.Namespace) -> int:
    params = _params(args)
    stats = perturbation_experiment(params, args.j, args.epsilon, args.trials, args.seed)
    kb = skeel_bound(params.gamma().as_float(), params.m - args.j)
    report = {
        "command": "perturb",
        "params": _params_jsonable(params),
        "j": args.j,
        "epsilon": stats.epsilon,
        "trials": stats.trials,
        "seed": stats.seed,
        "kappa_bound": kb,
        "max_componentwise_error_ratio": stats.max_componentwise_error_ratio,
    }
    _write_report(report, args.output)
    if args.max_ratio is not None and stats.max_componentwise_error_ratio > args.max_ratio:
        print(
            f"expectation failed: ratio {stats.max_componentwise_error_ratio!r} "
            f"> {args.max_ratio!r}",
            file=sys.stderr,
        )
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    params = _params(args) if args.m is not None else None
    results = run_suites(
        seed=args.seed, max_m=args.max_m, max_n=args.max_n, suites=args.suite, params=params
    )
    passed = all(r.passed for r in results)
    report = {
        "command": "verify",
        "seed": args.seed,
        "max_m": args.max_m,
        "max_n": args.max_n,
        "suites": [r.to_jsonable() for r in results],
        "passed": passed,
    }
    _write_report(report, args.output)
    if not passed:
        for r in results:
            for f in r.failures:
                print(f"FAIL [{r.name}] {f}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


_HANDLERS = {
    "gen": cmd_gen,
    "eig": cmd_eig,
    "cond": cmd_cond,
    "growth": cmd_growth,
    "perturb": cmd_perturb,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
