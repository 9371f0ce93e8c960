"""Acceptance gate: one test per criterion, run at the stated sizes and
tolerances, each printing its own pass line (use -s to stream them).
"""

import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from trigrow import (
    Asymptotics,
    GeneralSystem,
    MatrixParams,
    Method,
    Orientation,
    build_A,
    build_eigvec_subsystem,
    classify_asymptotics,
    eigenvector_matrix,
    eigenvectors,
    ext_solve,
    flip,
    growth_floor_check,
    growth_sequence,
    inverse_closed_form,
    naive_solve,
    residual,
    robust_solve,
    skeel_bound,
    skeel_exact,
    skeel_vectors,
    solve_closed_form,
    structured_residuals,
)
from trigrow.cli import main
from trigrow.oracle import OmegaSequence, log2_fraction
from trigrow.solver import SolveStatus

from conftest import brute_solve, random_positive_system

_MIN_NORMAL = sys.float_info.min

A5 = [
    [1, 0, 0, 0, 0],
    [-5, 2, 0, 0, 0],
    [-5, -5, 3, 0, 0],
    [-5, -5, -5, 4, 0],
    [-5, -5, -5, -5, 5],
]
X5 = [
    [1, 0, 0, 0, 0],
    [5, 1, 0, 0, 0],
    [15, 5, 1, 0, 0],
    [35, 15, 5, 1, 0],
    [70, 35, 15, 5, 1],
]


def _passed(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} PASS  {detail}")


def test_criterion_01_golden_example():
    params = MatrixParams(5, 0.0, 1.0, 5.0)
    build_A(params)  # warm-up so first-call costs are not timed
    eigenvector_matrix(params).dense_fractions()
    t0 = time.perf_counter()
    a = build_A(params)
    x = eigenvector_matrix(params)
    ok = bool(np.array_equal(a.entries, np.array(A5, dtype=float)))
    ok &= x.dense_fractions() == [[Fraction(v) for v in row] for row in X5]
    a_flip = flip(a)
    x_flip = flip(x.to_trimatrix())
    ok &= bool(np.array_equal(a_flip.entries, np.array(A5, dtype=float)[::-1, ::-1]))
    ok &= bool(np.array_equal(x_flip.entries, np.array(X5, dtype=float)[::-1, ::-1]))
    elapsed = time.perf_counter() - t0
    assert ok, "golden matrices must match digit for digit"
    upper = eigenvector_matrix(MatrixParams(5, 0.0, 1.0, 5.0, Orientation.UPPER))
    assert upper.to_trimatrix() == x_flip
    assert elapsed < 1e-3, f"golden check took {elapsed * 1e3:.3f} ms"
    _passed(1, f"intro matrices exact, flip exact ({elapsed * 1e6:.0f} us)")


def test_criterion_02_closed_form_vs_substitution():
    rng = np.random.default_rng(2024)
    tol = Fraction(1, 2**40)
    t0 = time.perf_counter()
    for _ in range(200):
        sys = random_positive_system(rng, int(rng.integers(1, 31)))
        exact = solve_closed_form(sys)
        assert exact == brute_solve(sys), "closed form must equal exact substitution"
        for got, want in zip(ext_solve(sys), exact):
            assert abs(got.to_fraction() - want) <= abs(want) * tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(2, f"200 systems, exact equality and 2^-40 ext agreement ({elapsed:.2f} s)")


def test_criterion_03_inverse_identity():
    rng = np.random.default_rng(2025)
    t0 = time.perf_counter()
    for _ in range(100):
        sys = random_positive_system(rng, int(rng.integers(1, 21)))
        h = inverse_closed_form(sys)
        n = sys.n
        c = Fraction(float(sys.c))
        d = [Fraction(float(v)) for v in sys.d]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                acc = d[i - 1] * h[i, j] - c * sum(h[k, j] for k in range(1, i))
                assert acc == (1 if i == j else 0), f"(G H)[{i},{j}] != I"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(3, f"G*H == I exactly for 100 systems ({elapsed:.2f} s)")


def test_criterion_04_omega_identity():
    rng = np.random.default_rng(2026)
    for _ in range(200):
        sys = random_positive_system(rng, int(rng.integers(1, 31)))
        seq = OmegaSequence.from_system(sys)
        acc = Fraction(0)
        for k in range(seq.n):
            assert seq.omega[k] == 1 + acc
            acc += seq.a[k] * seq.omega[k]
    _passed(4, "omega_k == 1 + sum a_i omega_i exactly on the criterion-2 corpus")


def test_criterion_05_growth_floor():
    t0 = time.perf_counter()
    for m in (5, 50, 200):
        rep = growth_floor_check(MatrixParams(m, 0.0, 1.0, float(m)))
        assert rep.passed, f"floor violated at m={m}"
        z = growth_sequence(m, m - 1)
        assert all(z[k].denominator == 1 for k in range(m))
        assert all(z[k] >= Fraction(1 << k) for k in range(m))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(5, f"x_ij >= 2^(i-j) in exact integers at m in {{5,50,200}} ({elapsed:.2f} s)")


def test_criterion_06_overflow_demonstration():
    t0 = time.perf_counter()
    # m = 600: naive overflows, oracle confirms the range excursion
    sub600 = build_eigvec_subsystem(MatrixParams(600, 0.0, 1.0, 600.0), 1)
    nav = naive_solve(sub600)
    assert nav.status is SolveStatus.OVERFLOW_DETECTED
    z600 = growth_sequence(600, 599)
    assert log2_fraction(z600[599]) > 1024.0  # log2 binom(2m-2, m-1)

    rob = robust_solve(sub600)
    lg = rob.log2_components()
    for k in range(1, 600):
        oracle = log2_fraction(z600[k])
        assert abs(lg[k - 1] - oracle) <= 1e-9 * abs(oracle)
    for k, v in enumerate(ext_solve(sub600), start=1):
        oracle = log2_fraction(z600[k])
        assert abs(v.log2_abs() - oracle) <= 1e-9 * abs(oracle)

    # m = 2000: robust and extended still succeed; compare wherever the
    # single column scale can represent the component at full precision
    sub2000 = build_eigvec_subsystem(MatrixParams(2000, 0.0, 1.0, 2000.0), 1)
    z2000 = growth_sequence(2000, 1999)
    rob2000 = robust_solve(sub2000)
    lg2000 = rob2000.log2_components()
    compared = 0
    for k in range(1, 2000):
        if abs(rob2000.values[k - 1]) >= _MIN_NORMAL:
            oracle = log2_fraction(z2000[k])
            assert abs(lg2000[k - 1] - oracle) <= 1e-9 * abs(oracle)
            compared += 1
    assert compared > 1000
    for k, v in enumerate(ext_solve(sub2000), start=1):
        oracle = log2_fraction(z2000[k])
        assert abs(v.log2_abs() - oracle) <= 1e-9 * abs(oracle)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(
        6,
        f"naive overflow at m=600 (k={nav.overflow_index}), robust/ext match "
        f"oracle to 1e-9 up to m=2000 ({elapsed:.2f} s)",
    )


SKEEL_SIZES = (1, 2, 5, 10, 50, 200, 500)


def test_criterion_07_skeel_consistency():
    for g in (1.5, 2.0, 5.0, 10.0):
        for n in SKEEL_SIZES:
            sys = GeneralSystem(np.arange(1, n + 1, dtype=np.float64), g)
            kappa = skeel_exact(sys)
            x = solve_closed_form(sys)
            _, z = skeel_vectors(sys)
            closed = float(max(z) / max(abs(v) for v in x))
            assert abs(kappa - closed) <= 1e-12 * abs(closed), f"gamma={g} n={n}"
    _passed(7, "triple-product route == closed-form skeelZ route to 1e-12 on the grid")


def test_criterion_08_skeel_bound():
    for g in (1.5, 2.0, 5.0, 10.0):
        for n in SKEEL_SIZES:
            sys = GeneralSystem(np.arange(1, n + 1, dtype=np.float64), g)
            assert skeel_exact(sys) <= skeel_bound(g, n), f"gamma={g} n={n}"
    for m in (5, 50, 200):
        sys = GeneralSystem(np.arange(1, m + 1, dtype=np.float64), float(m))
        assert skeel_exact(sys) <= skeel_bound(float(m), m)
        assert skeel_bound(float(m), m) <= 2.0 * (1.0 + m * math.log(2.0)) + 1e-9
    _passed(8, "kappa_exact <= bound on the grid; specialized bound at gamma=n=m")


def test_criterion_09_perturbation_well_conditioning():
    from trigrow import perturbation_experiment

    t0 = time.perf_counter()
    params = MatrixParams(50, 0.0, 1.0, 50.0)
    ratios = {}
    for j in (1, 25):
        stats = perturbation_experiment(params, j, 1e-8, 1000, seed=90125)
        assert stats.max_componentwise_error_ratio <= 4.0, f"j={j}"
        ratios[j] = stats.max_componentwise_error_ratio
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(
        9,
        f"1000-trial ratios j=1: {ratios[1]:.3f}, j=25: {ratios[25]:.3f} "
        f"(<= 4) ({elapsed:.2f} s)",
    )


def test_criterion_10_asymptotics():
    expect = {
        3: Asymptotics.DIVERGES,
        0: Asymptotics.CONSTANT_ONE,
        -1: Asymptotics.EVENTUALLY_ZERO,
        -2: Asymptotics.EVENTUALLY_ZERO,
        -0.5: Asymptotics.TENDS_TO_ZERO_SUBLINEARLY,
        -2.5: Asymptotics.TENDS_TO_ZERO_SUBLINEARLY,
    }
    for alpha, want in expect.items():
        assert classify_asymptotics(alpha) is want, f"alpha={alpha}"

    # finite-prefix monotonicity: alpha > 0 strictly increasing through k = 200
    z = growth_sequence(Fraction(4), 200)  # alpha = 3
    assert all(z[k + 1] > z[k] for k in range(200))

    # alpha negative non-integer: |y_k| strictly decreasing from ceil(|alpha|)
    alpha = Fraction(-5, 2)
    zn = growth_sequence(alpha + 1, 200)
    assert all(zn[k] != 0 for k in range(201))
    assert all(abs(zn[k + 1]) < abs(zn[k]) for k in range(math.ceil(2.5), 200))

    # ratio -> 1: |y_{k+1}/y_k - 1| <= 1e-3 at k = 10^4
    y = 1.0
    for k in range(10**4):
        y *= 1.0 + (-2.5) / (k + 1)
    ratio = (1.0 + (-2.5) / (10**4 + 1))
    assert y != 0.0 and abs(ratio - 1.0) <= 1e-3
    _passed(10, "classification, prefix monotonicity, and ratio->1 at k=1e4")


def test_criterion_11_residuals():
    t0 = time.perf_counter()
    checked = 0
    for m, methods in ((5, (Method.NAIVE, Method.ROBUST, Method.EXTENDED)),
                       (50, (Method.NAIVE, Method.ROBUST, Method.EXTENDED)),
                       (200, (Method.ROBUST, Method.EXTENDED)),
                       (600, (Method.ROBUST, Method.EXTENDED)),
                       (2000, (Method.ROBUST,))):
        params = MatrixParams(m, 0.0, 1.0, float(m))
        for method in methods:
            outs = eigenvectors(params, method)
            solved = [o for o in outs if o.ok]
            res = structured_residuals(params, outs)
            finite = res[~np.isnan(res)]
            assert len(finite) == len(solved)
            assert np.all(finite <= 1e-12), f"m={m} {method}"
            checked += len(solved)
        # dense ExtScalar route on whole matrices while affordable, else spot columns
        A = build_A(params)
        columns = range(1, m + 1) if m <= 50 else (1, m // 2, m - 1, m)
        outs = eigenvectors(params, Method.ROBUST)
        for j in columns:
            r = residual(A, float(j), outs[j - 1].result).to_native()
            assert isinstance(r, float) and r <= 1e-12, f"m={m} j={j}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passed(11, f"{checked} solved columns all under 1e-12 scaled residual ({elapsed:.2f} s)")


def test_criterion_12_determinism(tmp_path, capsys):
    a, b = str(tmp_path / "v1.json"), str(tmp_path / "v2.json")
    args = ["verify", "--seed", "31337", "--max-m", "600", "--max-n", "200"]
    assert main(args + ["-o", a]) == 0
    assert main(args + ["-o", b]) == 0
    capsys.readouterr()
    ba, bb = open(a, "rb").read(), open(b, "rb").read()
    assert ba == bb and len(ba) > 100
    _passed(12, f"verify reports byte-identical across runs ({len(ba)} bytes)")
