"""The float64 kernels on exactly shifted data against the per-element
ExtScalar routes they replaced (kept in conftest.py): equal bit for bit, on
small random matrices and on columns spanning more than the double range."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    extscalar_perturbation,
    extscalar_residual,
    per_column_structured_residuals,
)
from trigrow import (
    ExtScalar,
    MatrixParams,
    Method,
    Orientation,
    ScaledVector,
    TriMatrix,
    build_A,
    eigenvalues,
    eigenvectors,
    perturbation_experiment,
    residual,
    structured_residuals,
)
from trigrow import cli, conditioning


def _random_params(rng: np.random.Generator, signed: bool) -> MatrixParams:
    m = int(rng.integers(2, 25))
    b = float(rng.choice([0.25, 0.5, 1.0, 2.0, 3.0]))
    gamma = float(rng.integers(2, 40)) * float(rng.choice([0.75, 1.0, 1.5]))
    c = gamma * b
    if signed:
        b *= float(rng.choice([-1.0, 1.0]))
        c *= float(rng.choice([-1.0, 1.0]))
    orient = Orientation.UPPER if rng.random() < 0.5 else Orientation.LOWER
    return MatrixParams(m, float(rng.integers(-3, 4)), b, c, orient)


def test_perturbation_equals_extscalar_route(rng):
    for trial in range(25):
        params = _random_params(rng, signed=False)  # the experiment needs b, c > 0
        j = int(rng.integers(1, params.m))
        eps = float(rng.choice([1e-8, 1e-6, 1e-4]))
        assert perturbation_experiment(params, j, eps, 5, trial) == extscalar_perturbation(
            params, j, eps, 5, trial
        )


@pytest.mark.parametrize("m, b, c", [(20, 1e-310, 3e-310), (100, 1e306, 5e306)])
def test_perturbation_at_extreme_scales_equals_extscalar_route(m, b, c):
    # subnormal b and c, and diagonals near the top of the range: the
    # experiment's own shifts of b and c keep every product normal
    params = MatrixParams(m, 0.0, b, c)
    assert perturbation_experiment(params, 1, 1e-8, 4, 0) == extscalar_perturbation(
        params, 1, 1e-8, 4, 0
    )


@pytest.mark.parametrize("method", list(Method))
def test_structured_residuals_equal_per_column_route(rng, method):
    for _ in range(25):
        params = _random_params(rng, signed=True)
        outs = eigenvectors(params, method)
        fast = structured_residuals(params, outs)
        assert np.array_equal(fast, per_column_structured_residuals(params, outs), equal_nan=True)


@pytest.mark.parametrize("method", list(Method))
def test_dense_residual_equals_extscalar_route(rng, method):
    for _ in range(10):
        params = _random_params(rng, signed=True)
        A = build_A(params)
        lams = eigenvalues(params)
        m = params.m
        for idx, o in enumerate(eigenvectors(params, method)):
            if o.ok:
                j = m - idx if params.orientation is Orientation.UPPER else idx + 1
                lam = float(lams[j - 1])
                assert residual(A, lam, o.result) == extscalar_residual(A, lam, o.result)


def test_wide_span_perturbation():
    # x spans ~1390 binary orders: no single float64 scale holds it
    params = MatrixParams(700, 0.0, 1.0, 700.0)
    fast = perturbation_experiment(params, 1, 1e-8, 3, 5)
    assert fast == extscalar_perturbation(params, 1, 1e-8, 3, 5)
    assert 0.0 < fast.max_componentwise_error_ratio <= 4.0


def test_wide_span_extended_structured_residuals():
    params = MatrixParams(600, 0.0, 1.0, 600.0)
    outs = eigenvectors(params, Method.EXTENDED)
    fast = structured_residuals(params, outs)
    assert np.array_equal(fast, per_column_structured_residuals(params, outs), equal_nan=True)
    assert np.nanmax(fast) <= 1e-12


def test_wide_span_extended_dense_residual():
    params = MatrixParams(600, 0.0, 1.0, 600.0)
    col = eigenvectors(params, Method.EXTENDED)[0].result
    A = build_A(params)
    fast = residual(A, 1.0, col)
    assert fast == extscalar_residual(A, 1.0, col)
    assert 0.0 < fast.to_native() <= 1e-12


def test_overflowing_row_sums_within_one_ulp():
    # float64 row sums of |A| overflow: the retired route summed them
    # sequentially in ExtScalar, the kernel sums the shifted rows pairwise
    rng = np.random.default_rng(1)  # a case where the two differ by 1 ulp
    n = 12
    A = TriMatrix(np.tril(rng.uniform(0.5, 1.0, (n, n)) * 1.7e308), Orientation.LOWER)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.max(np.sum(np.abs(A.entries), axis=1)))
    x = ScaledVector(rng.standard_normal(n), 40)
    lam = float(A.entries[0, 0])
    fast, slow = residual(A, lam, x), extscalar_residual(A, lam, x)
    ulp = Fraction(2) ** (slow.exponent - 52)
    assert abs(fast.to_fraction() - slow.to_fraction()) <= ulp


def test_unrepresentable_perturbation_ratio_exits_2(monkeypatch, capsys):
    # a denormal bound makes the ratio overflow: a ValueError, not an assert
    monkeypatch.setattr(conditioning, "skeel_bound", lambda gamma, n: 5e-324)
    with pytest.raises(ValueError, match="double range"):
        conditioning.perturbation_experiment(MatrixParams(5, 0.0, 1.0, 5.0), 1, 1e-8, 3, 0)
    assert cli.main(["perturb", "-m", "5", "-c", "5", "-j", "1", "--trials", "3"]) == 2
    assert "double range" in capsys.readouterr().err


def test_components_far_below_the_peak_enter_as_zero():
    # column 2 of the m=3, gamma=3 matrix plus a component 2000 binary orders
    # below its peak: the kernel flushes it, the exact route keeps its trace
    A = build_A(MatrixParams(3, 0.0, 1.0, 3.0))
    col = [ExtScalar.pow2(-2000), ExtScalar(1.0), ExtScalar(3.0)]
    assert residual(A, 2.0, col).is_zero()
    assert residual(A, 2.0, [ExtScalar(0.0)] + col[1:]).is_zero()
    assert 0 < extscalar_residual(A, 2.0, col).to_fraction() < Fraction(1, 2**1990)
