import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrow import OUT_OF_RANGE, ExtScalar
from trigrow.extscalar import ZERO

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
nonzero_floats = finite_floats.filter(lambda v: v != 0.0)


class TestNormalize:
    def test_power_of_two(self):
        e = ExtScalar(8.0)
        assert (e.sign, e.significand, e.exponent) == (1, 1.0, 3)

    def test_zero(self):
        assert ExtScalar(0.0).sign == 0
        assert ExtScalar(-0.0).sign == 0

    def test_negative_three_quarters(self):
        e = ExtScalar(-0.75)
        assert (e.sign, e.significand, e.exponent) == (-1, 1.5, -1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            ExtScalar(bad)

    @given(finite_floats)
    def test_round_trip_bit_exact(self, v):
        back = ExtScalar(v).to_native()
        assert isinstance(back, float)
        assert math.copysign(1.0, back) == math.copysign(1.0, v) or v == 0.0
        assert back == v

    @given(nonzero_floats)
    def test_canonical_form(self, v):
        e = ExtScalar(v)
        assert e.sign == (1 if v > 0 else -1)
        assert 1.0 <= e.significand < 2.0


class TestArithmetic:
    def test_mul_example(self):
        r = ExtScalar.parse("+1.5*2^10") * ExtScalar.parse("+1.5*2^20")
        assert (r.sign, r.significand, r.exponent) == (1, 1.125, 31)

    def test_mul_zero_absorbs(self):
        assert (ZERO * ExtScalar(123.0)).is_zero()

    def test_mul_beyond_double_range(self):
        r = ExtScalar.pow2(600) * ExtScalar.pow2(600)
        assert (r.sign, r.significand, r.exponent) == (1, 1.0, 1200)
        assert r.to_native() is OUT_OF_RANGE

    def test_add_one_plus_one(self):
        r = ExtScalar(1.0) + ExtScalar(1.0)
        assert (r.sign, r.significand, r.exponent) == (1, 1.0, 1)

    def test_add_exact_cancellation(self):
        assert (ExtScalar(1.0) + ExtScalar(-1.0)).is_zero()

    def test_add_alignment_gap_exceeds_precision(self):
        big = ExtScalar.pow2(200)
        assert big + ExtScalar(1.0) == big

    def test_div_example(self):
        r = ExtScalar(24.0) / ExtScalar(6.0)
        assert (r.sign, r.significand, r.exponent) == (1, 1.0, 2)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ExtScalar(1.0) / ZERO

    @given(finite_floats, finite_floats)
    def test_add_matches_native(self, x, y):
        s = x + y
        if not math.isfinite(s):
            return
        r = (ExtScalar(x) + ExtScalar(y)).to_native()
        if r is OUT_OF_RANGE:
            return
        assert r == s or abs(Fraction(r) - Fraction(s)) <= abs(Fraction(s)) * Fraction(1, 2**52)

    @given(nonzero_floats, nonzero_floats)
    def test_mul_within_one_ulp_of_native(self, x, y):
        p = x * y
        if not math.isfinite(p) or p == 0.0:
            return
        r = (ExtScalar(x) * ExtScalar(y)).to_native()
        if r is OUT_OF_RANGE:
            return
        assert r == p or abs(Fraction(r) - Fraction(p)) <= abs(Fraction(p)) * Fraction(1, 2**52)

    @given(finite_floats, finite_floats)
    def test_commutativity(self, x, y):
        a, b = ExtScalar(x), ExtScalar(y)
        assert a + b == b + a
        assert a * b == b * a

    def test_mul_exact_on_exact_products(self):
        # significand product representable: result must equal the native product
        r = ExtScalar(1.5) * ExtScalar(2.5)
        assert r.to_native() == 3.75


scaled_scalars = st.builds(
    lambda v, e: ExtScalar(v).scale_pow2(e),
    nonzero_floats.filter(lambda v: 1e-200 < abs(v) < 1e200),
    st.integers(-5000, 5000),
)


class TestCorrectRounding:
    """Exact rational arithmetic, rounded half-to-even, is the reference."""

    @given(scaled_scalars, scaled_scalars)
    def test_add_is_correctly_rounded(self, x, y):
        exact = x.to_fraction() + y.to_fraction()
        assert x + y == ExtScalar.from_fraction(exact)

    @given(scaled_scalars, scaled_scalars)
    def test_mul_is_correctly_rounded(self, x, y):
        exact = x.to_fraction() * y.to_fraction()
        assert x * y == ExtScalar.from_fraction(exact)

    @given(scaled_scalars, scaled_scalars)
    def test_div_is_correctly_rounded(self, x, y):
        exact = x.to_fraction() / y.to_fraction()
        assert x / y == ExtScalar.from_fraction(exact)

    @given(scaled_scalars, scaled_scalars)
    def test_sub_cancellation_safe(self, x, y):
        exact = x.to_fraction() - y.to_fraction()
        got = x - y
        if exact == 0:
            assert got.is_zero()
        else:
            assert got == ExtScalar.from_fraction(exact)


class TestComparisonAndConversion:
    @given(finite_floats, finite_floats)
    def test_cmp_abs_matches_native(self, x, y):
        c = ExtScalar(x).cmp_abs(ExtScalar(y))
        if abs(x) < abs(y):
            assert c == -1
        elif abs(x) > abs(y):
            assert c == 1
        else:
            assert c == 0

    def test_to_native_overflow(self):
        assert ExtScalar.pow2(2000).to_native() is OUT_OF_RANGE
        assert ExtScalar.pow2(1024).to_native() is OUT_OF_RANGE

    def test_to_native_total_underflow(self):
        assert ExtScalar.pow2(-2000).to_native() is OUT_OF_RANGE

    def test_to_native_boundaes(self):
        import sys

        assert ExtScalar(sys.float_info.max).to_native() == sys.float_info.max
        assert ExtScalar(5e-324).to_native() == 5e-324

    def test_log2_abs_power_of_two(self):
        assert ExtScalar.pow2(70).log2_abs() == 70.0

    def test_log2_abs_zero_rejected(self):
        with pytest.raises(ValueError):
            ZERO.log2_abs()

    @given(nonzero_floats)
    def test_log2_abs_matches_math(self, v):
        assert ExtScalar(v).log2_abs() == pytest.approx(math.log2(abs(v)), rel=1e-15)


class TestFractionBridge:
    @given(st.integers(-(10**12), 10**12), st.integers(1, 10**12))
    def test_from_fraction_correctly_rounded(self, num, den):
        fr = Fraction(num, den)
        got = ExtScalar.from_fraction(fr).to_native()
        assert isinstance(got, float)
        assert got == num / den  # float division is the correctly rounded reference

    @given(finite_floats)
    def test_fraction_round_trip(self, v):
        e = ExtScalar(v)
        assert ExtScalar.from_fraction(e.to_fraction()) == e
        assert float(e.to_fraction()) == v

    def test_big_fraction(self):
        fr = Fraction(7**300, 3**200)
        e = ExtScalar.from_fraction(fr)
        rel = abs(e.to_fraction() - fr) / fr
        assert rel <= Fraction(1, 2**52)


class TestTextFormats:
    @given(finite_floats)
    def test_parse_round_trip(self, v):
        e = ExtScalar(v)
        assert ExtScalar.parse(str(e)) == e

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            ExtScalar.parse("eleven")

    def test_parse_renormalizes(self):
        assert ExtScalar.parse("+3.0*2^4") == ExtScalar(48.0)

    def test_zero_renders_as_zero(self):
        assert str(ZERO) == "0"
        assert ExtScalar.parse("0").is_zero()
