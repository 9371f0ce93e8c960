from fractions import Fraction

import numpy as np
import pytest

from trigrow import (
    GeneralSystem,
    MatrixParams,
    Method,
    Orientation,
    ScaledVector,
    SolveStatus,
    build_A,
    build_eigvec_subsystem,
    eigenvectors,
    ext_solve,
    growth_sequence,
    naive_solve,
    residual,
    robust_solve,
    structured_residuals,
)
from trigrow.oracle import log2_fraction
from trigrow.solver import OMEGA

from conftest import brute_solve, random_signed_system

INTRO = GeneralSystem(np.array([1.0, 2.0, 3.0, 4.0]), 5.0)


def adversarial_subsystem(m: int) -> GeneralSystem:
    return build_eigvec_subsystem(MatrixParams(m, 0.0, 1.0, float(m)), 1)


class TestNaive:
    def test_intro(self):
        out = naive_solve(INTRO)
        assert out.ok
        assert np.array_equal(out.result.values, [5.0, 15.0, 35.0, 70.0])
        assert out.result.scale_exp == 0

    def test_trivial(self):
        out = naive_solve(GeneralSystem(np.array([1.0]), 0.0))
        assert out.ok and np.array_equal(out.result.values, [0.0])

    def test_overflow_detected_at_oracle_boundary(self):
        sub = adversarial_subsystem(600)
        out = naive_solve(sub)
        assert out.status is SolveStatus.OVERFLOW_DETECTED
        assert out.result is None
        z = growth_sequence(600, 599)
        first = next(k for k in range(600) if z[k] > Fraction(OMEGA))
        assert abs(out.overflow_index - first) <= 1

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            naive_solve(GeneralSystem(np.array([1.0, 0.0]), 1.0))


class TestRobust:
    def test_intro_needs_no_scaling(self):
        out = robust_solve(INTRO)
        assert np.array_equal(out.values, [5.0, 15.0, 35.0, 70.0])
        assert out.scale_exp == 0

    def test_single_step(self):
        out = robust_solve(GeneralSystem(np.array([1.0]), 1.0))
        assert np.array_equal(out.values, [1.0]) and out.scale_exp == 0

    def test_empty_system(self):
        assert len(robust_solve(GeneralSystem(np.zeros(0), 3.0))) == 0

    def test_overflowing_system_scaled(self):
        sub = adversarial_subsystem(600)
        out = robust_solve(sub)
        assert np.all(np.isfinite(out.values))
        assert np.max(np.abs(out.values)) <= OMEGA
        assert out.scale_exp > 0
        z = growth_sequence(600, 599)
        lg = out.log2_components()
        for k in range(1, 600):
            oracle = log2_fraction(z[k])
            assert abs(lg[k - 1] - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize("m", [100, 600, 2000])
    def test_no_overflow_guarantee(self, m):
        # the solver raises internally if any intermediate leaves the range
        out = robust_solve(adversarial_subsystem(m))
        assert np.all(np.isfinite(out.values))
        assert np.max(np.abs(out.values)) <= OMEGA

    def test_bitwise_agreement_with_naive(self, rng):
        agreements = 0
        for _ in range(60):
            sysd = random_signed_system(rng, int(rng.integers(1, 41)))
            nav = naive_solve(sysd)
            if not nav.ok:
                continue
            rob = robust_solve(sysd)
            rec = np.ldexp(rob.values, rob.scale_exp)
            assert np.array_equal(rec, nav.result.values)
            agreements += 1
        assert agreements >= 40  # the corpus must mostly exercise the Ok path

    def test_rescaled_run_still_matches_naive_bitwise(self):
        # growth that crosses tau but stays under OMEGA forces rescales in robust
        sysd = GeneralSystem(np.arange(1, 601, dtype=np.float64), 440.0)
        nav = naive_solve(sysd)
        assert nav.ok
        rob = robust_solve(sysd)
        assert rob.scale_exp > 0
        assert np.array_equal(np.ldexp(rob.values, rob.scale_exp), nav.result.values)

    def test_monotone_growth_columns(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 30))
            gamma = int(rng.integers(m, 2 * m))
            sub = adversarial_subsystem(m) if gamma == m else build_eigvec_subsystem(
                MatrixParams(m, 0.0, 1.0, float(gamma)), 1
            )
            out = robust_solve(sub)
            vals = out.values
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) >= 0)


class TestExtended:
    def test_intro_exact(self):
        xs = ext_solve(INTRO)
        assert [v.to_native() for v in xs] == [5.0, 15.0, 35.0, 70.0]

    def test_c_zero(self):
        assert all(v.is_zero() for v in ext_solve(GeneralSystem(np.array([2.0, 3.0]), 0.0)))

    def test_adversarial_against_big_integers(self):
        xs = ext_solve(adversarial_subsystem(600))
        z = growth_sequence(600, 599)
        for k in range(1, 600):
            rel = abs(xs[k - 1].to_fraction() - z[k]) / z[k]
            assert rel <= Fraction(1, 10**10)

    def test_relative_error_bound_random(self, rng):
        for _ in range(20):
            sysd = random_signed_system(rng, int(rng.integers(1, 200)))
            xs = ext_solve(sysd)
            exact = brute_solve(sysd)
            bound = Fraction(len(xs), 2**45)
            for got, want in zip(xs, exact):
                if want == 0:
                    assert got.to_fraction() == 0 or abs(got.to_fraction()) <= Fraction(1, 2**500)
                else:
                    assert abs(got.to_fraction() - want) <= abs(want) * bound

    def test_ten_thousand_components_sampled(self):
        n = 10**4
        sysd = GeneralSystem(np.arange(1, n + 1, dtype=np.float64), 3.0)
        xs = ext_solve(sysd)
        z = growth_sequence(3, n)
        bound = Fraction(n, 2**45)
        for k in range(250, n + 1, 250):
            assert abs(xs[k - 1].to_fraction() - z[k]) <= z[k] * bound


class TestEigenvectors:
    def test_intro_naive_reproduces_X(self):
        outs = eigenvectors(MatrixParams(5, 0.0, 1.0, 5.0), Method.NAIVE)
        got = np.column_stack([o.result.values for o in outs])
        from trigrow import eigenvector_matrix

        expect = eigenvector_matrix(MatrixParams(5, 0.0, 1.0, 5.0)).to_trimatrix().entries
        assert np.array_equal(got, expect)
        assert all(o.result.scale_exp == 0 for o in outs)

    def test_m600_column_independence(self):
        outs = eigenvectors(MatrixParams(600, 0.0, 1.0, 600.0), Method.NAIVE)
        assert outs[0].status is SolveStatus.OVERFLOW_DETECTED
        assert outs[-1].ok  # trailing columns have tiny subsystems
        assert outs[-1].result.values[-1] == 1.0
        overflowed = sum(1 for o in outs if not o.ok)
        assert 0 < overflowed < 600

    def test_m600_robust_all_ok(self):
        outs = eigenvectors(MatrixParams(600, 0.0, 1.0, 600.0), Method.ROBUST)
        assert all(o.ok for o in outs)

    def test_m1(self):
        for method in Method:
            outs = eigenvectors(MatrixParams(1, 4.0, 2.0, 9.0), method)
            assert len(outs) == 1 and outs[0].ok
            if isinstance(outs[0].result, ScaledVector):
                assert np.array_equal(outs[0].result.values, [1.0])
            else:
                assert outs[0].result[0].to_native() == 1.0

    def test_extended_method(self):
        outs = eigenvectors(MatrixParams(5, 0.0, 1.0, 5.0), Method.EXTENDED)
        col1 = [v.to_native() for v in outs[0].result]
        assert col1 == [1.0, 5.0, 15.0, 35.0, 70.0]

    def test_upper_orientation_is_flipped_lower(self):
        lower = eigenvectors(MatrixParams(6, 0.0, 1.0, 6.0), Method.ROBUST)
        upper = eigenvectors(MatrixParams(6, 0.0, 1.0, 6.0, Orientation.UPPER), Method.ROBUST)
        for j in range(1, 7):
            lo = lower[6 - j].result
            up = upper[j - 1].result
            assert np.array_equal(up.values, lo.values[::-1])
            assert up.scale_exp == lo.scale_exp


class TestResidual:
    def test_intro_column_exactly_zero(self):
        params = MatrixParams(5, 0.0, 1.0, 5.0)
        A = build_A(params)
        outs = eigenvectors(params, Method.NAIVE)
        r = residual(A, 1.0, outs[0].result)
        assert r.is_zero()

    def test_last_unit_vector_exactly_zero(self):
        params = MatrixParams(7, 2.0, 3.0, 11.0)
        A = build_A(params)
        x = ScaledVector(np.eye(7)[-1], 0)
        assert residual(A, 2.0 + 7 * 3.0, x).is_zero()

    def test_zero_vector_rejected(self):
        A = build_A(MatrixParams(3, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            residual(A, 1.0, ScaledVector(np.zeros(3), 0))

    def test_robust_m600_column(self):
        params = MatrixParams(600, 0.0, 1.0, 600.0)
        A = build_A(params)
        outs = eigenvectors(params, Method.ROBUST)
        r = residual(A, 1.0, outs[0].result)
        native = r.to_native()
        assert isinstance(native, float) and native <= 1e-12

    def test_extended_residual(self):
        params = MatrixParams(60, 0.0, 1.0, 60.0)
        A = build_A(params)
        outs = eigenvectors(params, Method.EXTENDED)
        r = residual(A, 1.0, outs[0].result)
        native = r.to_native()
        assert isinstance(native, float) and native <= 1e-12

    def test_structured_agrees_with_dense_extscalar_route(self):
        # correct columns: both routes sit at the rounding floor
        params = MatrixParams(40, 0.0, 1.0, 40.0)
        A = build_A(params)
        outs = eigenvectors(params, Method.ROBUST)
        fast = structured_residuals(params, outs)
        for j in (1, 7, 20, 39):
            slow = residual(A, float(j), outs[j - 1].result).to_native()
            assert fast[j - 1] <= 1e-15 and slow <= 1e-15
        # a corrupted column: both routes must report the same (large) signal
        bad_vals = outs[0].result.values.copy()
        bad_vals[-1] *= 1.0 + 1e-6
        bad = SolveOutcomePatch(outs[0].result, bad_vals)
        fast_bad = structured_residuals(params, [bad] + list(outs[1:]))[0]
        slow_bad = residual(A, 1.0, bad.result).to_native()
        assert fast_bad == pytest.approx(slow_bad, rel=1e-6)

    def test_structured_survives_overflowing_denominator(self):
        # (||A||_inf + |lambda|) max|x| passes the double range for column 155
        params = MatrixParams(600, 0.0, 1.0, 600.0)
        outs = eigenvectors(params, Method.NAIVE)
        assert outs[154].ok
        fast = structured_residuals(params, outs)[154]
        dense = residual(build_A(params), 155.0, outs[154].result).to_native()
        assert 0.0 < fast <= 1e-12 and 0.0 < dense <= 1e-12

    def test_structured_upper(self):
        params = MatrixParams(30, 0.0, 1.0, 30.0, Orientation.UPPER)
        outs = eigenvectors(params, Method.ROBUST)
        res = structured_residuals(params, outs)
        assert np.all(np.isfinite(res)) and np.nanmax(res) <= 1e-12

    def test_structured_flags_wrong_vector(self):
        # corrupting the peak component must blow the residual past the pass level
        params = MatrixParams(25, 0.0, 1.0, 25.0)
        outs = eigenvectors(params, Method.ROBUST)
        good = outs[0].result
        bad_vals = good.values.copy()
        bad_vals[-1] *= 1.0 + 1e-6
        bad = [SolveOutcomePatch(good, bad_vals)] + list(outs[1:])
        res = structured_residuals(params, bad)
        assert res[0] > 1e-9


def SolveOutcomePatch(good: ScaledVector, values: np.ndarray):
    from trigrow import SolveOutcome

    return SolveOutcome(SolveStatus.OK, ScaledVector(values, good.scale_exp))


class TestScaledVector:
    def test_component_ext_applies_scale(self):
        sv = ScaledVector(np.array([1.5, 0.0]), 100)
        e = sv.component_ext(0)
        assert (e.sign, e.significand, e.exponent) == (1, 1.5, 100)
        assert sv.component_ext(1).is_zero()

    def test_log2_components(self):
        sv = ScaledVector(np.array([4.0, 0.0]), 10)
        lg = sv.log2_components()
        assert lg[0] == 12.0 and lg[1] == -np.inf

    def test_immutable(self):
        sv = ScaledVector(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            sv.values[0] = 2.0
