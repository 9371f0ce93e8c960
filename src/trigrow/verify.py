"""Property suites behind the `verify` command: every closed form is checked
against an independent route (exact substitution, dense inversion, the
`skeel_vectors` closed form, the native solvers), with failing cases shrunk
to the smallest prefix that still fails.

Exact work is done once: `run_suites` builds one Skeel table for both Skeel
suites (one exact pass per distinct gamma of the grid, whose systems are
leading prefixes of one another), the inverse check keeps running column
sums, and the growth floor is certified at one endpoint (`growth_floor_check`).
"""

from __future__ import annotations

import math
import sys as _sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .conditioning import skeel_bound, skeel_exact_prefixes
from .matgen import GeneralSystem, MatrixParams, build_eigvec_subsystem
from .oracle import (
    FractionMatrix,
    OmegaSequence,
    growth_floor_check,
    growth_sequence,
    inverse_closed_form,
    log2_fraction,
    skeel_vectors,
    solve_closed_form,
)
from .solver import Method, eigenvectors, naive_solve, robust_solve, structured_residuals

_MIN_NORMAL = _sys.float_info.min


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, describe: Callable[[], str]) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(describe())

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "passed": self.passed,
        }


def _random_system(rng: np.random.Generator, n: int, positive: bool) -> GeneralSystem:
    d = rng.integers(1, 12, n) / rng.integers(1, 5, n)
    c = float(rng.integers(1, 12) / rng.integers(1, 5))
    if not positive:
        d = d * rng.choice([-1.0, 1.0], n)
        if rng.random() < 0.5:
            c = -c
        if rng.random() < 0.2:
            c = 0.0
    return GeneralSystem(np.asarray(d, dtype=np.float64), c)


def _shrink_system(sys: GeneralSystem, fails: Callable[[GeneralSystem], bool]) -> GeneralSystem:
    """Smallest leading prefix of the system that still fails the predicate."""
    for n in range(1, sys.n):
        cand = GeneralSystem(sys.d[:n].copy(), sys.c)
        if fails(cand):
            return cand
    return sys


def _describe(sys: GeneralSystem, what: str) -> str:
    return f"{what}: n={sys.n} c={sys.c!r} d={sys.d.tolist()!r}"


def suite_omega_identity(seed: int, max_n: int, cases: int) -> SuiteResult:
    """omega_k == 1 + sum_{i<k} a_i omega_i, exactly, for random rational systems."""
    res = SuiteResult("omega-identity")
    rng = np.random.default_rng(seed)

    def fails(sys: GeneralSystem) -> bool:
        seq = OmegaSequence.from_system(sys)
        acc = Fraction(0)
        for k in range(seq.n):
            if seq.omega[k] != 1 + acc:
                return True
            acc += seq.a[k] * seq.omega[k]
        return False

    for _ in range(cases):
        sys = _random_system(rng, int(rng.integers(1, max_n + 1)), positive=False)
        bad = fails(sys)
        if bad:
            sys = _shrink_system(sys, fails)
        res.check(not bad, lambda s=sys: _describe(s, "omega identity violated"))
    return res


def suite_inverse_exact(seed: int, max_n: int, cases: int) -> SuiteResult:
    """G * inverse_closed_form(G) == I exactly in rational arithmetic.

    Row i of G H is d_i h_ij - c sum_{k<i} h_kj, so a running sum of each
    column of H as i ascends checks every entry in O(n^2).
    """
    res = SuiteResult("inverse-exact")
    rng = np.random.default_rng(seed)

    def fails(sys: GeneralSystem) -> bool:
        return _inverse_fails(sys, inverse_closed_form(sys))

    for _ in range(cases):
        sys = _random_system(rng, int(rng.integers(1, max_n + 1)), positive=False)
        bad = fails(sys)
        if bad:
            sys = _shrink_system(sys, fails)
        res.check(not bad, lambda s=sys: _describe(s, "G*H != I"))
    return res


def _inverse_fails(sys: GeneralSystem, h: FractionMatrix) -> bool:
    """Whether G h differs from the identity, exactly."""
    n = sys.n
    c = Fraction(sys.c)
    above = [Fraction(0)] * n  # above[j-1] = sum_{k<i} h_kj
    for i in range(1, n + 1):
        di = Fraction(float(sys.d[i - 1]))
        for j in range(1, n + 1):
            hij = h[i, j]
            if di * hij - c * above[j - 1] != (1 if i == j else 0):
                return True
            above[j - 1] += hij
    return False


def suite_eigen_relation(seed: int, max_m: int, cases: int) -> SuiteResult:
    """A x_j == lambda_j x_j exactly, for every column, with exact-entry A."""
    res = SuiteResult("eigen-relation")
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        m = int(rng.integers(1, max_m + 1))
        a = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))
        b = Fraction(int(rng.integers(1, 9)) * int(rng.choice([-1, 1])), int(rng.integers(1, 5)))
        c = Fraction(int(rng.integers(0, 9)), int(rng.integers(1, 5)))
        ok = _eigen_relation_holds(m, a, b, c)
        res.check(ok, lambda: f"eigen relation violated: m={m} a={a} b={b} c={c}")
    return res


def _eigen_relation_holds(m: int, a: Fraction, b: Fraction, c: Fraction) -> bool:
    z = growth_sequence(Fraction(c, b), m - 1)
    for j in range(1, m + 1):
        lam = a + j * b
        # row i of A x_j: -c * sum_{k=j..i-1} z_{k-j} + (a + i b) z_{i-j}
        acc = Fraction(0)
        for i in range(j, m + 1):
            lhs = -c * acc + (a + i * b) * z[i - j]
            if lhs != lam * z[i - j]:
                return False
            acc += z[i - j]
    return True


def suite_growth(max_m: int, params: MatrixParams | None = None) -> SuiteResult:
    """x_ij >= 2^(i-j) whenever gamma >= m guarantees it (plus a negative control).

    With explicit params the check runs on that one matrix; the guarantee is
    only asserted where the hypothesis gamma >= m holds.
    """
    res = SuiteResult("growth")
    if params is not None:
        rep = growth_floor_check(params)
        guaranteed = params.gamma().as_float() >= params.m
        res.check(
            rep.passed or not guaranteed,
            lambda: f"growth floor failed under gamma >= m at m={params.m}",
        )
        return res
    for m in (5, 50, 200):
        if m > max_m:
            continue
        rep = growth_floor_check(MatrixParams(m, 0.0, 1.0, float(m)))
        res.check(rep.passed, lambda m=m: f"growth floor failed at m={m}, gamma=m")
    rep = growth_floor_check(MatrixParams(5, 0.0, 1.0, 1.0))
    res.check(
        (not rep.passed) and rep.first_violation == (2, 1),
        lambda: "gamma=1 control should violate the floor at entry (2,1)",
    )
    return res


_SKEEL_GAMMAS = (1.5, 2.0, 5.0, 10.0)


def _skeel_grid(max_n: int) -> Iterable[tuple[float, int]]:
    sizes = [n for n in (1, 2, 5, 10, 50, 200, 500) if n <= max_n]
    for g in _SKEEL_GAMMAS:
        for n in sizes:
            yield g, n
    for n in sizes:
        yield float(n) if n > 1 else 1.5, n  # gamma = n needs gamma > 1


SkeelTable = dict[tuple[float, int], tuple[float, float]]


def skeel_table(max_n: int) -> SkeelTable:
    """(gamma, n) -> (skeel_exact, skeel_vectors closed form) on the Skeel grid.

    The grid systems d = 1..n with one gamma are leading prefixes of one
    another, so each distinct gamma takes one exact pass with running maxima
    (`skeel_exact_prefixes`) and one closed-form evaluation at its largest n.
    """
    sizes: dict[float, list[int]] = {}
    for g, n in _skeel_grid(max_n):
        sizes.setdefault(g, []).append(n)
    table = {}
    for g, ns in sizes.items():
        sys = GeneralSystem(np.arange(1, max(ns) + 1, dtype=np.float64), g)
        kappas = skeel_exact_prefixes(sys)
        _, z = skeel_vectors(sys)
        zmax = list(accumulate(z, max))
        xmax = list(accumulate((abs(v) for v in solve_closed_form(sys)), max))
        for n in ns:
            table[g, n] = (kappas[n - 1], float(zmax[n - 1] / xmax[n - 1]))
    return table


def suite_skeel_consistency(max_n: int, table: SkeelTable) -> SuiteResult:
    """skeel_exact (one exact pass with running maxima) agrees with the
    skeel_vectors closed form; both come from `skeel_table`."""
    res = SuiteResult("skeel-consistency")
    for g, n in _skeel_grid(max_n):
        kappa, closed = table[g, n]
        ok = abs(kappa - closed) <= 1e-12 * abs(closed)
        res.check(ok, lambda g=g, n=n: f"skeel mismatch at gamma={g} n={n}")
    return res


def suite_skeel_bound(max_n: int, table: SkeelTable) -> SuiteResult:
    """kappa_exact <= analytic bound on the grid; specialized bound for gamma=n=m."""
    res = SuiteResult("skeel-bound")
    for g, n in _skeel_grid(max_n):
        kappa = table[g, n][0]
        bound = skeel_bound(g, n)
        res.check(
            kappa >= 1.0 and kappa <= bound,
            lambda g=g, n=n, k=kappa, b=bound: f"bound violated: gamma={g} n={n} kappa={k} bound={b}",
        )
    for m in (5, 50, 200):
        if m > max_n:
            continue
        b = skeel_bound(float(m), m)
        res.check(
            b <= 2.0 * (1.0 + m * math.log(2.0)) + 1e-9,
            lambda m=m: f"specialized bound violated at m={m}",
        )
    return res


def suite_solver_agreement(seed: int, max_m: int, cases: int) -> SuiteResult:
    """naive == robust bitwise when naive succeeds; both match the oracle when it grows."""
    res = SuiteResult("solver-agreement")
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        sys = _random_system(rng, int(rng.integers(1, 41)), positive=False)
        nav = naive_solve(sys)
        if not nav.ok:
            res.check(True, lambda: "")
            continue
        rob = robust_solve(sys)
        if rob.scale_exp == 0:
            ok = bool(np.array_equal(rob.values, nav.result.values))
        else:
            rec = np.ldexp(rob.values, rob.scale_exp)
            ok = bool(np.all(_ulp_distance(rec, nav.result.values) <= 2))
        if not ok:
            sys = _shrink_system(sys, _robust_disagrees)
        res.check(ok, lambda s=sys: _describe(s, "robust disagrees with naive"))

    for m in (100, 600, 2000):
        if m > max_m:
            continue
        params = MatrixParams(m, 0.0, 1.0, float(m))
        sub = build_eigvec_subsystem(params, 1)
        z = growth_sequence(m, m - 1)
        grows_past = log2_fraction(z[m - 1]) > 1024.0
        nav = naive_solve(sub)
        res.check(
            nav.ok != grows_past,
            lambda m=m: f"naive overflow detection wrong at m={m}",
        )
        rob = robust_solve(sub)
        if nav.ok:
            rec = np.ldexp(rob.values, rob.scale_exp)
            res.check(
                bool(np.all(_ulp_distance(rec, nav.result.values) <= 2)),
                lambda m=m: f"naive and robust disagree at m={m}",
            )
        lg = rob.log2_components()
        worst = 0.0
        for k in range(1, m):
            if abs(rob.values[k - 1]) >= _MIN_NORMAL:
                o = log2_fraction(z[k])
                worst = max(worst, abs(lg[k - 1] - o) / abs(o))
        res.check(
            worst <= 1e-9, lambda m=m, w=worst: f"robust log2 mismatch {w} at m={m}"
        )
        outs = eigenvectors(params, Method.ROBUST)
        rmax = float(np.nanmax(structured_residuals(params, outs)))
        res.check(rmax <= 1e-12, lambda m=m, r=rmax: f"residual {r} > 1e-12 at m={m}")
    return res


def _robust_disagrees(sys: GeneralSystem) -> bool:
    nav = naive_solve(sys)
    if not nav.ok:
        return False
    rob = robust_solve(sys)
    rec = np.ldexp(rob.values, rob.scale_exp)
    return not bool(np.all(_ulp_distance(rec, nav.result.values) <= 2))


def _ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # map IEEE bit patterns to a monotone integer line (-0.0 and +0.0 coincide)
    ia = np.ascontiguousarray(a).view(np.int64).copy()
    ib = np.ascontiguousarray(b).view(np.int64).copy()
    ia[ia < 0] = np.int64(-(2**63)) - ia[ia < 0]
    ib[ib < 0] = np.int64(-(2**63)) - ib[ib < 0]
    return np.abs(ia - ib)


SUITE_NAMES = (
    "omega-identity",
    "inverse-exact",
    "eigen-relation",
    "growth",
    "skeel-consistency",
    "skeel-bound",
    "solver-agreement",
)


def run_suites(
    seed: int = 0,
    max_m: int = 600,
    max_n: int = 500,
    suites: Sequence[str] | None = None,
    params: MatrixParams | None = None,
) -> list[SuiteResult]:
    picked = set(suites) if suites else set(SUITE_NAMES)
    unknown = picked - set(SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}; known: {list(SUITE_NAMES)}")
    out = []
    if "omega-identity" in picked:
        out.append(suite_omega_identity(seed, max_n=30, cases=40))
    if "inverse-exact" in picked:
        out.append(suite_inverse_exact(seed + 1, max_n=20, cases=25))
    if "eigen-relation" in picked:
        out.append(suite_eigen_relation(seed + 2, max_m=min(30, max_m), cases=20))
    if "growth" in picked:
        out.append(suite_growth(max_m, params))
    if picked & {"skeel-consistency", "skeel-bound"}:
        table = skeel_table(max_n)
    if "skeel-consistency" in picked:
        out.append(suite_skeel_consistency(max_n, table))
    if "skeel-bound" in picked:
        out.append(suite_skeel_bound(max_n, table))
    if "solver-agreement" in picked:
        out.append(suite_solver_agreement(seed + 3, max_m=max_m, cases=30))
    return out
