"""Extended-exponent scalar: sign * significand * 2**exponent with an unbounded exponent.

Keeps eigenvector components, residuals and comparisons exactly representable
far beyond the double-precision range. The significand is a native double in
[1, 2), so scaling by powers of two is exact; add/mul round the significand
to nearest like the underlying hardware arithmetic.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class OutOfRange:
    """Singleton returned by to_native() when a value does not fit a double."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OutOfRange"


OUT_OF_RANGE = OutOfRange()

# alignment gap beyond which the smaller addend cannot move the rounded sum
_ADD_GAP = 54

_POW2_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\*2\^([+-]?\d+)$")


def _raw(sign: int, significand: float, exponent: int) -> "ExtScalar":
    # trusts canonical form; the hot path for arithmetic results
    v = ExtScalar.__new__(ExtScalar)
    v.sign = sign
    v.significand = significand
    v.exponent = exponent
    return v


class ExtScalar:
    """Immutable scalar sign * significand * 2**exponent, significand in [1, 2)."""

    __slots__ = ("sign", "significand", "exponent")

    sign: int
    significand: float
    exponent: int

    def __init__(self, value: float = 0.0):
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"cannot normalize non-finite value {v!r}")
        if v == 0.0:
            self.sign = 0
            self.significand = 0.0
            self.exponent = 0
            return
        m, e = math.frexp(v)  # |m| in [0.5, 1)
        self.sign = 1 if v > 0.0 else -1
        self.significand = abs(m) * 2.0
        self.exponent = e - 1

    @classmethod
    def pow2(cls, k: int) -> "ExtScalar":
        """Exact 2**k for any integer k."""
        return _raw(1, 1.0, k)

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "ExtScalar":
        """Round an exact rational to the nearest representable value (ties to even)."""
        n, d = fr.numerator, fr.denominator
        if n == 0:
            return ZERO
        sign = 1 if n > 0 else -1
        n = abs(n)
        e = n.bit_length() - d.bit_length()
        # place n/d in [2^e, 2^(e+1))
        if (n << max(0, -e)) < (d << max(0, e)):
            e -= 1
        shift = 52 - e
        num = n << shift if shift >= 0 else n
        den = d if shift >= 0 else d << -shift
        q, r = divmod(num, den)
        if 2 * r > den or (2 * r == den and q & 1):
            q += 1
        if q == 1 << 53:  # rounded up to the next binade
            q = 1 << 52
            e += 1
        return _raw(sign, math.ldexp(q, -52), e)

    def to_fraction(self) -> Fraction:
        """Exact rational value (every ExtScalar is a dyadic rational)."""
        if self.sign == 0:
            return Fraction(0)
        fr = self.sign * Fraction(self.significand)
        e = self.exponent
        return fr * (1 << e) if e >= 0 else fr / (1 << -e)

    def is_zero(self) -> bool:
        return self.sign == 0

    def scale_pow2(self, k: int) -> "ExtScalar":
        """Exact multiplication by 2**k (exponent shift only)."""
        if self.sign == 0:
            return self
        return _raw(self.sign, self.significand, self.exponent + k)

    def __mul__(self, other: "ExtScalar") -> "ExtScalar":
        s = self.sign * other.sign
        if s == 0:
            return ZERO
        sig = self.significand * other.significand  # in [1, 4), rounded once
        exp = self.exponent + other.exponent
        if sig >= 2.0:
            sig *= 0.5
            exp += 1
        return _raw(s, sig, exp)

    def __truediv__(self, other: "ExtScalar") -> "ExtScalar":
        if other.sign == 0:
            raise ZeroDivisionError("ExtScalar division by zero")
        if self.sign == 0:
            return ZERO
        sig = self.significand / other.significand  # in (0.5, 2), rounded once
        exp = self.exponent - other.exponent
        if sig < 1.0:
            sig *= 2.0
            exp -= 1
        return _raw(self.sign * other.sign, sig, exp)

    def __add__(self, other: "ExtScalar") -> "ExtScalar":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        if self.exponent >= other.exponent:
            hi, lo = self, other
        else:
            hi, lo = other, self
        diff = hi.exponent - lo.exponent
        if diff > _ADD_GAP:
            return hi
        lo_sig = lo.significand if lo.sign == hi.sign else -lo.significand
        v = hi.significand + math.ldexp(lo_sig, -diff)  # one correct rounding
        if v == 0.0:
            return ZERO
        m, e = math.frexp(v)
        sign = hi.sign if v > 0.0 else -hi.sign
        return _raw(sign, abs(m) * 2.0, hi.exponent + e - 1)

    def __sub__(self, other: "ExtScalar") -> "ExtScalar":
        return self + (-other)

    def __neg__(self) -> "ExtScalar":
        if self.sign == 0:
            return self
        return _raw(-self.sign, self.significand, self.exponent)

    def __abs__(self) -> "ExtScalar":
        if self.sign < 0:
            return _raw(1, self.significand, self.exponent)
        return self

    def cmp_abs(self, other: "ExtScalar") -> int:
        """-1, 0 or +1 comparing |self| against |other| exactly."""
        if self.sign == 0:
            return 0 if other.sign == 0 else -1
        if other.sign == 0:
            return 1
        if self.exponent != other.exponent:
            return -1 if self.exponent < other.exponent else 1
        if self.significand != other.significand:
            return -1 if self.significand < other.significand else 1
        return 0

    def to_native(self) -> float | OutOfRange:
        """The value as a double, or OUT_OF_RANGE if it over- or underflows."""
        if self.sign == 0:
            return 0.0
        try:
            v = math.ldexp(self.significand, self.exponent)
        except OverflowError:
            return OUT_OF_RANGE
        if v == 0.0:  # nonzero value below the subnormal range
            return OUT_OF_RANGE
        return self.sign * v

    def log2_abs(self) -> float:
        if self.sign == 0:
            raise ValueError("log2 of zero")
        return self.exponent + math.log2(self.significand)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtScalar):
            return NotImplemented
        return (
            self.sign == other.sign
            and (self.sign == 0 or (self.significand == other.significand and self.exponent == other.exponent))
        )

    def __hash__(self) -> int:
        if self.sign == 0:
            return hash(0.0)
        return hash((self.sign, self.significand, self.exponent))

    def __repr__(self) -> str:
        return f"ExtScalar({self!s})"

    def __str__(self) -> str:
        """Canonical rendering, e.g. '+1.5*2^10'; zero renders as '0'."""
        if self.sign == 0:
            return "0"
        s = "+" if self.sign > 0 else "-"
        return f"{s}{self.significand!r}*2^{self.exponent}"

    @classmethod
    def parse(cls, text: str) -> "ExtScalar":
        """Inverse of str(); accepts any finite significand and renormalizes."""
        t = text.strip()
        if t == "0":
            return ZERO
        m = _POW2_RE.match(t)
        if m is None:
            raise ValueError(f"not an ExtScalar literal: {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        sig = float(m.group(2))
        exp = int(m.group(3))
        if sig == 0.0:
            return ZERO
        base = cls(sig)
        return _raw(sign * base.sign, base.significand, base.exponent + exp)


ZERO = _raw(0, 0.0, 0)
ONE = _raw(1, 1.0, 0)

