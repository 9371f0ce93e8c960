"""Shared brute-force oracles, deliberately independent of the library's
closed-form code paths: plain substitution, dense rational inversion, and
dense triple products, all in exact Fraction arithmetic; plus the slow
per-column and per-entry routes that the one-sequence fast paths replaced.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from trigrow import (
    ExtScalar,
    GeneralSystem,
    MatrixParams,
    Method,
    Orientation,
    ScaledVector,
    SolveOutcome,
    SolveStatus,
    TriMatrix,
    build_eigvec_subsystem,
    eigenvector_matrix,
    ext_solve,
    naive_solve,
    robust_solve,
)
from trigrow.oracle import exact_to_json


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
