"""The one-sequence fast paths against the per-column and per-entry routes in
conftest: every eigenvector column, Skeel number and X entry is read off the
column-1 sequence, and must agree with solving or converting each one alone.
"""

import io
import sys

import numpy as np
import pytest

from trigrow import (
    GeneralSystem,
    MatrixParams,
    Method,
    Orientation,
    ScaledVector,
    build_eigvec_subsystem,
    eigenvector_matrix,
    eigenvectors,
    naive_solve,
    skeel_exact,
    structured_residuals,
    write_matrix_market,
)
from trigrow.cli import _matrix_json, render_json
from trigrow.conditioning import skeel_exact_prefixes

from conftest import (
    per_column_eigenvectors,
    per_entry_gen_json,
    per_entry_matrix_market,
    per_entry_x_matrix,
    random_positive_system,
    random_signed_system,
)


def random_params(rng: np.random.Generator, orientation: Orientation) -> MatrixParams:
    m = int(rng.integers(1, 41))
    a = float(rng.integers(-6, 7))
    b = float(rng.integers(1, 5) * rng.choice([-1, 1]) / rng.integers(1, 4))
    c = float(rng.integers(0, 60) * rng.choice([-1, 1]) / rng.integers(1, 4))
    return MatrixParams(m, a, b, c, orientation)


# small random matrices, plus ones that overflow naive and rescale robust
def corpus(seed: int) -> list[MatrixParams]:
    rng = np.random.default_rng(seed)
    out = []
    for orientation in Orientation:
        out += [random_params(rng, orientation) for _ in range(12)]
        out += [
            MatrixParams(600, 0.0, 1.0, 600.0, orientation),
            MatrixParams(700, 1.0, -2.0, 1300.0, orientation),
            MatrixParams(650, 0.0, 1.0, -640.5, orientation),
        ]
    return out


def assert_same_outcome(fast, slow):
    assert fast.status is slow.status
    assert fast.overflow_index == slow.overflow_index
    if not fast.ok:
        return
    if isinstance(slow.result, ScaledVector):
        assert fast.result == slow.result
    else:
        assert list(fast.result) == list(slow.result)


@pytest.mark.parametrize("method", [Method.NAIVE, Method.EXTENDED])
def test_naive_and_extended_equal_per_column_route(method):
    for params in corpus(11):
        if method is Method.EXTENDED and params.m > 40:
            params = MatrixParams(120, params.a, params.b, params.c, params.orientation)
        fast = eigenvectors(params, method)
        slow = per_column_eigenvectors(params, method)
        assert len(fast) == len(slow) == params.m
        for f, s in zip(fast, slow):
            assert_same_outcome(f, s)


def test_robust_equals_per_column_route_on_normal_components():
    tiny = sys.float_info.min
    rescaled = 0
    for params in corpus(12):
        fast = eigenvectors(params, Method.ROBUST)
        slow = per_column_eigenvectors(params, Method.ROBUST)
        for f, s in zip(fast, slow):
            fv, sv = f.result.values, s.result.values
            assert len(fv) == len(sv) == params.m
            rescaled += f.result.scale_exp != s.result.scale_exp
            normal = (np.abs(fv) >= tiny) & (np.abs(sv) >= tiny)
            (fm, fe), (sm, se) = np.frexp(fv[normal]), np.frexp(sv[normal])
            assert np.array_equal(fm, sm)
            assert np.array_equal(fe + f.result.scale_exp, se + s.result.scale_exp)
        fast_res = structured_residuals(params, fast)
        slow_res = structured_residuals(params, slow)
        assert np.array_equal(fast_res, slow_res, equal_nan=True)
    assert rescaled > 0  # the corpus reaches columns whose threshold differs


def test_naive_overflow_iff_prefix_reaches_column1_index():
    for params in corpus(13):
        col1 = naive_solve(build_eigvec_subsystem(params, 1))
        outs = eigenvectors(params, Method.NAIVE)
        for idx, o in enumerate(outs, start=1):
            j = params.m + 1 - idx if params.orientation is Orientation.UPPER else idx
            overflows = not col1.ok and params.m - j >= col1.overflow_index
            assert o.ok != overflows
            if overflows:
                assert o.overflow_index == col1.overflow_index


@pytest.mark.parametrize("make", [random_positive_system, random_signed_system])
def test_skeel_prefixes_equal_per_prefix_skeel_exact(rng, make):
    for _ in range(30):
        sys_ = make(rng, int(rng.integers(1, 13)))
        kappas = skeel_exact_prefixes(sys_)
        assert len(kappas) == sys_.n
        for n in range(1, sys_.n + 1):
            assert kappas[n - 1] == skeel_exact(GeneralSystem(sys_.d[:n], sys_.c))


@pytest.mark.parametrize(
    "b, c, exact",
    [(2.0, 3.0, True), (1.0, 7.0, True), (3.0, 7e20, False), (1.0, 1e-20, False)],
)
@pytest.mark.parametrize("orientation", list(Orientation))
def test_gen_x_equals_per_entry_route(b, c, exact, orientation):
    params = MatrixParams(9, 0.5, b, c, orientation)
    assert params.gamma().exact is exact
    assert render_json(_matrix_json(params, "X")) + "\n" == per_entry_gen_json(params, "X")
    fast = io.StringIO()
    write_matrix_market(eigenvector_matrix(params).to_trimatrix(), fast)
    assert fast.getvalue() == per_entry_matrix_market(per_entry_x_matrix(params))
