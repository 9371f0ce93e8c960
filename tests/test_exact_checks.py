"""The exact checking layer against the routes it replaced (kept in
conftest.py): trial-batched perturbation against the per-trial loop, the
growth floor's endpoint certificate against the full scan, the verify
suites' shared Skeel table against per-grid-point evaluation, and the
O(n^2) inverse check against the O(n^3) one."""

from __future__ import annotations

import pytest

from conftest import (
    cubic_inverse_fails,
    per_point_skeel_suites,
    per_trial_perturbation,
    random_signed_system,
    scan_growth_floor_check,
)
from trigrow import (
    MatrixParams,
    growth_floor_check,
    inverse_closed_form,
    perturbation_experiment,
)
from trigrow import verify
from trigrow.oracle import FractionMatrix, _first_floor_violation


def test_perturbation_equals_per_trial_loop(rng):
    for _ in range(20):
        m = int(rng.integers(2, 30))
        j = int(rng.integers(1, m))
        b = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        c = b * float(rng.integers(2, 40)) * float(rng.choice([0.75, 1.0, 1.5]))
        params = MatrixParams(m, float(rng.integers(-3, 4)), b, c)
        trials = int(rng.integers(1, 40))
        seed = int(rng.integers(0, 1000))
        eps = float(rng.choice([1e-8, 1e-6, 1e-4]))
        assert perturbation_experiment(params, j, eps, trials, seed) == per_trial_perturbation(
            params, j, eps, trials, seed
        )


@pytest.mark.parametrize(
    "m, b, c, j, trials",
    [
        (45, 1.0, 45.0, 1, 301),  # 135 trials a batch: two full batches and one of 31
        (600, 1.0, 600.0, 1, 3),  # n = 599: one trial a batch
        (30, 1e306, 5e306, 2, 40),
        (30, 1e-306, 5e-306, 3, 40),
    ],
    ids=["partial-batch", "one-trial-batches", "b-c-1e306", "b-c-1e-306"],
)
def test_perturbation_batches_equal_per_trial_loop(m, b, c, j, trials):
    params = MatrixParams(m, 0.0, b, c)
    assert perturbation_experiment(params, j, 1e-8, trials, 17) == per_trial_perturbation(
        params, j, 1e-8, trials, 17
    )


FLOOR_CASES = [
    (20, 1.0, 1.0),  # integer gamma below 2
    (20, 2.0, 3.0),  # rational gamma below 2
    (30, 1.0, 2.0),  # gamma = 2
    (60, 1.0, 5.0),  # w rises, then falls below 1 before k = m-1
    (60, 3.0, 10.0),
    (11, 1.0, 5.0),  # the first violation at k = m-1
    (40, 1.0, 39.0),
    (40, 1.0, 40.0),
    (40, 1.0, 41.0),
    (40, 2.0, 79.0),
    (40, 2.0, 81.0),
    (40, 1.0, 1e6),  # far above m
    (40, 3.0, 3e6 + 1.0),
    (30, 1.0, 0.0),  # gamma <= 0
    (30, 1.0, -3.0),
    (30, 3.0, -7.0),
    (30, 1e-300, 3.3e-296),  # inexact gamma = 33000
    (60, 1e-280, 1e-300),  # inexact gamma ~ 1e-20: a violation
    (1, 1.0, 5.0),
    (1, 1.0, -5.0),
    (1, 1e-300, 3.3e-296),
]


@pytest.mark.parametrize("m, b, c", FLOOR_CASES)
def test_growth_floor_equals_full_scan(m, b, c):
    params = MatrixParams(m, 0.0, b, c)
    assert growth_floor_check(params) == scan_growth_floor_check(params)


@pytest.mark.parametrize("m, b, c", FLOOR_CASES)
def test_fallback_scan_equals_full_scan(m, b, c):
    # the fallback alone, also where the endpoint certificate would answer first
    params = MatrixParams(m, 0.0, b, c)
    expect = scan_growth_floor_check(params).first_violation
    assert _first_floor_violation(params.gamma(), m) == expect


@pytest.mark.parametrize("b, c", [(2.0, 3.0), (1.0, 1.0), (1.0, -3.0), (1e-280, 1e-300)])
def test_fallback_scan_stops_at_first_violation(b, c):
    # a violation at k = 1 is found without the other 10^6 terms of the sequence
    params = MatrixParams(10**6, 0.0, b, c)
    assert _first_floor_violation(params.gamma(), params.m) == (2, 1)


def test_inexact_gamma_cases_are_inexact():
    for b, c in [(1e-300, 3.3e-296), (1e-280, 1e-300)]:
        assert not MatrixParams(2, 0.0, b, c).gamma().exact


def _suites(seed: int, max_n: int, picked: list[str]) -> list[dict]:
    return [r.to_jsonable() for r in verify.run_suites(seed=seed, max_n=max_n, suites=picked)]


@pytest.mark.parametrize("seed", range(4))
def test_inverse_and_growth_suites_equal_retired_routes(monkeypatch, seed):
    picked = ["inverse-exact", "growth"]
    new = _suites(seed, 500, picked)
    monkeypatch.setattr(verify, "_inverse_fails", cubic_inverse_fails)
    monkeypatch.setattr(verify, "growth_floor_check", scan_growth_floor_check)
    assert new == _suites(seed, 500, picked)


@pytest.mark.parametrize("max_n", [1, 7, 60, 500])
def test_skeel_suites_equal_per_point_route(max_n):
    # the Skeel grid depends on max_n only, never on the seed
    old = [r.to_jsonable() for r in per_point_skeel_suites(max_n)]
    assert _suites(0, max_n, ["skeel-consistency", "skeel-bound"]) == old


@pytest.mark.parametrize("fails", [verify._inverse_fails, cubic_inverse_fails])
def test_inverse_checks_accept_closed_form_and_reject_one_changed_entry(rng, fails):
    for _ in range(20):
        sys = random_signed_system(rng, int(rng.integers(1, 12)))
        h = inverse_closed_form(sys)
        assert not fails(sys, h)
        rows = [list(row) for row in h.entries]
        i, j = (int(v) for v in rng.integers(0, sys.n, 2))
        rows[i][j] += 1
        assert fails(sys, FractionMatrix(tuple(tuple(row) for row in rows)))
