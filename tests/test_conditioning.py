import math
from dataclasses import replace

import numpy as np
import pytest

from trigrow import (
    GeneralSystem,
    MatrixParams,
    build_eigvec_subsystem,
    condition_reports,
    perturbation_experiment,
    skeel_bound,
    skeel_exact,
    skeel_vectors,
    solve_closed_form,
)

from conftest import brute_skeel_number, random_positive_system, random_signed_system


class TestSkeelExact:
    def test_single_positive_equation(self):
        assert skeel_exact(GeneralSystem(np.array([1.0]), 5.0)) == 1.0

    def test_diagonal_system(self):
        assert skeel_exact(GeneralSystem(np.array([2.0, 3.0, 4.0]), 0.0)) == 1.0

    def test_matches_closed_form_route(self):
        sys = GeneralSystem(np.array([1.0, 2.0, 3.0, 4.0]), 5.0)
        x = solve_closed_form(sys)
        _, z = skeel_vectors(sys)
        closed = float(max(z) / max(abs(v) for v in x))
        assert skeel_exact(sys) == pytest.approx(closed, rel=1e-15)

    def test_matches_dense_brute_force_positive(self, rng):
        for _ in range(25):
            sys = random_positive_system(rng, int(rng.integers(1, 13)))
            assert skeel_exact(sys) == pytest.approx(brute_skeel_number(sys), rel=1e-13)

    def test_matches_dense_brute_force_signed(self, rng):
        for _ in range(25):
            sys = random_signed_system(rng, int(rng.integers(1, 11)))
            assert skeel_exact(sys) == pytest.approx(brute_skeel_number(sys), rel=1e-13)

    def test_sign_mixed_with_degenerate_omega(self):
        # d_2 = -c zeroes 1 + a_2; the general path must not divide by it
        sys = GeneralSystem(np.array([1.0, -3.0, 2.0, -1.0]), 3.0)
        assert skeel_exact(sys) == pytest.approx(brute_skeel_number(sys), rel=1e-13)

    def test_at_least_one(self, rng):
        for _ in range(20):
            sys = random_signed_system(rng, int(rng.integers(1, 12)))
            assert skeel_exact(sys) >= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            skeel_exact(GeneralSystem(np.zeros(0), 1.0))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            skeel_exact(GeneralSystem(np.array([0.0]), 1.0))


class TestSkeelBound:
    def test_reference_value(self):
        # 2 (1 + 5 ln(8/5)) evaluated independently
        assert skeel_bound(5, 4) == pytest.approx(2.0 * (1.0 + 5.0 * math.log(1.6)), rel=1e-15)
        assert skeel_bound(5, 4) == pytest.approx(6.700036292457356, rel=1e-12)

    def test_n_one_gives_two(self):
        assert skeel_bound(3.7, 1) == 2.0

    def test_gamma_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            skeel_bound(1.0, 5)
        with pytest.raises(ValueError):
            skeel_bound(0.5, 5)

    def test_size_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            skeel_bound(2.0, 0)

    @pytest.mark.parametrize("m", [5, 50, 200])
    def test_specialization_gamma_equals_m(self, m):
        assert skeel_bound(float(m), m) <= 2.0 * (1.0 + m * math.log(2.0)) + 1e-9

    def test_bound_dominates_exact_on_grid(self):
        sizes = (1, 2, 5, 10, 50, 200, 500)
        gammas = [1.5, 2.0, 5.0, 10.0]
        for g in gammas:
            for n in sizes:
                sys = GeneralSystem(np.arange(1, n + 1, dtype=np.float64), g)
                kappa = skeel_exact(sys)
                bound = skeel_bound(g, n)
                assert 1.0 <= kappa < bound
        for n in sizes:
            if n > 1:  # gamma = n needs gamma > 1
                sys = GeneralSystem(np.arange(1, n + 1, dtype=np.float64), float(n))
                assert 1.0 <= skeel_exact(sys) < skeel_bound(float(n), n)


class TestPerturbationExperiment:
    PARAMS = MatrixParams(5, 0.0, 1.0, 5.0)

    def test_well_conditioned_ratio(self):
        stats = perturbation_experiment(self.PARAMS, 1, 1e-8, 200, seed=42)
        assert stats.max_componentwise_error_ratio <= 4.0
        assert stats.trials == 200 and stats.seed == 42 and stats.epsilon == 1e-8

    def test_deterministic_for_fixed_seed(self):
        a = perturbation_experiment(self.PARAMS, 2, 1e-6, 50, seed=7)
        b = perturbation_experiment(self.PARAMS, 2, 1e-6, 50, seed=7)
        assert a == b

    def test_seed_changes_draws(self):
        a = perturbation_experiment(self.PARAMS, 2, 1e-6, 50, seed=7)
        b = perturbation_experiment(self.PARAMS, 2, 1e-6, 50, seed=8)
        assert a.max_componentwise_error_ratio != b.max_componentwise_error_ratio

    def test_scaling_with_epsilon_is_linear(self):
        # first-order response: halving eps roughly halves the absolute error,
        # so the normalized ratio stays in the same band
        hi = perturbation_experiment(self.PARAMS, 1, 1e-5, 100, seed=3)
        lo = perturbation_experiment(self.PARAMS, 1, 1e-8, 100, seed=3)
        assert hi.max_componentwise_error_ratio == pytest.approx(
            lo.max_componentwise_error_ratio, rel=1e-2
        )

    def test_hypotheses_enforced(self):
        with pytest.raises(ValueError):
            perturbation_experiment(self.PARAMS, 1, 1e-3, 10, 0)  # eps too large
        with pytest.raises(ValueError):
            perturbation_experiment(self.PARAMS, 1, 0.0, 10, 0)
        with pytest.raises(ValueError):
            perturbation_experiment(self.PARAMS, 1, 1e-8, 0, 0)
        with pytest.raises(ValueError):
            perturbation_experiment(self.PARAMS, 5, 1e-8, 10, 0)  # empty subsystem
        with pytest.raises(ValueError):
            perturbation_experiment(MatrixParams(5, 0.0, -1.0, 5.0), 1, 1e-8, 10, 0)
        with pytest.raises(ValueError):
            perturbation_experiment(MatrixParams(5, 0.0, 1.0, -5.0), 1, 1e-8, 10, 0)


class TestCondReport:
    def test_fields_and_margin(self):
        rep = condition_reports(MatrixParams(5, 0.0, 1.0, 5.0))[0]
        assert rep.j == 1 and rep.n == 4
        assert rep.kappa_exact == pytest.approx(5.345238095238095, rel=1e-15)
        assert rep.kappa_exact <= rep.kappa_bound
        assert rep.perturb_stats is None

    def test_bound_absent_below_hypothesis(self):
        reps = condition_reports(MatrixParams(5, 0.0, 2.0, 1.0))  # gamma = 1/2
        assert all(rep.kappa_bound is None for rep in reps)

    def test_with_perturbation(self):
        params = MatrixParams(6, 0.0, 1.0, 6.0)
        stats = perturbation_experiment(params, 2, 1e-8, 20, seed=1)
        rep = replace(condition_reports(params)[1], perturb_stats=stats)
        d = rep.to_jsonable()
        assert d["j"] == 2 and d["perturb"]["trials"] == 20

    def test_kappa_exact_consistent_with_subsystem(self):
        params = MatrixParams(8, 1.0, 2.0, 9.0)
        reps = condition_reports(params)
        assert [rep.j for rep in reps] == list(range(1, 8))
        for rep in reps:
            assert rep.n == 8 - rep.j
            assert rep.kappa_exact == skeel_exact(build_eigvec_subsystem(params, rep.j))
