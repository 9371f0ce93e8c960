"""Exact closed forms for the special triangular systems and their eigenvectors.

Everything here is an oracle: solutions, inverses, eigenvector matrices and
the Skeel intermediate vectors are evaluated in exact rational arithmetic
(every finite float converts to a Fraction exactly), falling back to
ExtScalar arithmetic only when the growth ratio gamma has no small exact
form. Solvers elsewhere are validated against these values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, TypeVar, Union

import numpy as np

from .extscalar import ExtScalar
from .matgen import (
    GammaRatio,
    GeneralSystem,
    MatrixParams,
    Orientation,
    TriMatrix,
    check_dense_size,
)

Exactish = Union[Fraction, ExtScalar]
T = TypeVar("T")


def log2_fraction(fr: Fraction) -> float:
    """log2 of |fr| for rationals of any size (big-int safe)."""
    if fr == 0:
        raise ValueError("log2 of zero")
    return math.log2(abs(fr.numerator)) - math.log2(fr.denominator)


def exact_to_json(value: Exactish) -> str:
    """Serialize an exact value without precision loss ('num/den' or '±s*2^e')."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def json_to_exact(text: str) -> Exactish:
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return ExtScalar.parse(text)


# ---------------------------------------------------------------------------
# Closed-form solution machinery for G x = f
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OmegaSequence:
    """Ratios a_k = c/d_k and the products omega_k = prod_{j<k} (1 + a_j).

    omega_1 = 1 and omega_{k+1} = (1 + a_k) * omega_k; the solution of the
    special system is x_k = a_k * omega_k. Index k is 1-based: a[k-1], omega[k-1].
    """

    a: tuple[Fraction, ...]
    omega: tuple[Fraction, ...]

    @classmethod
    def from_system(cls, sys: GeneralSystem) -> "OmegaSequence":
        sys.require_nonsingular()
        c = Fraction(sys.c)
        a = []
        omega = []
        w = Fraction(1)
        for dk in sys.d:
            ak = c / Fraction(float(dk))
            a.append(ak)
            omega.append(w)
            w = w * (1 + ak)
        return cls(tuple(a), tuple(omega))

    @property
    def n(self) -> int:
        return len(self.a)


def solve_closed_form(sys: GeneralSystem) -> list[Fraction]:
    """Exact solution x_k = a_k * omega_k of the uniform system G x = f."""
    seq = OmegaSequence.from_system(sys)
    return [ak * wk for ak, wk in zip(seq.a, seq.omega)]


@dataclass(frozen=True)
class FractionMatrix:
    """Dense lower-triangular matrix with exact rational entries."""

    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i - 1][j - 1]


def inverse_closed_form(sys: GeneralSystem) -> FractionMatrix:
    """Exact inverse H of G: h_jj = 1/d_j, h_ij = (a_i/d_j) * prod_{k=j+1}^{i-1}(1+a_k).

    The partial-product form is used instead of omega ratios so diagonals
    with 1 + a_k = 0 (possible for sign-mixed systems) stay well-defined.
    """
    seq = OmegaSequence.from_system(sys)
    n = seq.n
    d = [Fraction(float(v)) for v in sys.d]
    rows = []
    for i in range(1, n + 1):
        # prod accumulates prod_{k=j+1}^{i-1} (1 + a_k) while j runs downward
        prod = Fraction(1)
        tail = []
        for j in range(i - 1, 0, -1):
            tail.append(seq.a[i - 1] / d[j - 1] * prod)
            prod = prod * (1 + seq.a[j - 1])
        row = tail[::-1]
        row.append(1 / d[i - 1])
        row.extend([Fraction(0)] * (n - i))
        rows.append(tuple(row))
    return FractionMatrix(tuple(rows))


def skeel_vectors(sys: GeneralSystem) -> tuple[list[Fraction], list[Fraction]]:
    """Exact y = |G||x| and skeelZ = |G^{-1}| y for positive systems.

    y_i = c (2 omega_i - 1);
    skeelZ_i = a_i (2 omega_i - 1) + sum_{j<i} a_i a_j (omega_i/omega_{j+1}) (2 omega_j - 1).
    Requires d_j > 0 for all j and c > 0 so that all quantities are positive.
    """
    if np.any(np.asarray(sys.d) <= 0.0):
        raise ValueError("skeel_vectors requires d_j > 0 for all j")
    if not sys.c > 0.0:
        raise ValueError("skeel_vectors requires c > 0")
    seq = OmegaSequence.from_system(sys)
    c = Fraction(sys.c)
    y = []
    z = []
    partial = Fraction(0)  # sum_{j<i} a_j (2 omega_j - 1) / omega_{j+1}
    for i in range(1, seq.n + 1):
        ai = seq.a[i - 1]
        wi = seq.omega[i - 1]
        two_wi = 2 * wi - 1
        y.append(c * two_wi)
        z.append(ai * two_wi + ai * wi * partial)
        w_next = wi * (1 + ai)  # omega_{i+1}
        partial += ai * two_wi / w_next
    return y, z


# ---------------------------------------------------------------------------
# The growth sequence and the eigenvector matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthSequence:
    """z_k = binom(gamma + k - 1, k): eigenvector components along subdiagonals."""

    gamma: GammaRatio
    z: tuple[Exactish, ...]

    @property
    def exact(self) -> bool:
        return self.gamma.exact

    def __len__(self) -> int:
        return len(self.z)

    def __getitem__(self, k: int) -> Exactish:
        return self.z[k]


def _coerce_gamma(gamma: Union[GammaRatio, int, float, Fraction]) -> GammaRatio:
    if isinstance(gamma, GammaRatio):
        return gamma
    if isinstance(gamma, (int, Fraction)):
        return GammaRatio.from_exact(Fraction(gamma))
    return GammaRatio.from_cb(float(gamma), 1.0)


def growth_sequence(gamma: Union[GammaRatio, int, float, Fraction], kmax: int) -> GrowthSequence:
    """z_0..z_kmax via the product recurrence z_{k+1} = z_k (gamma + k)/(k + 1)."""
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    g = _coerce_gamma(gamma)
    return GrowthSequence(g, tuple(itertools.islice(_growth_terms(g), kmax + 1)))


def _growth_terms(g: GammaRatio) -> Iterator[Exactish]:
    """z_0, z_1, ... without end: exact for exact gamma, ExtScalar otherwise."""
    if g.exact:
        gv = g.value
        if gv.denominator == 1:
            # integer gamma: the recurrence stays in (exact) big integers
            gi = gv.numerator
            zk = 1
            for k in itertools.count():
                yield Fraction(zk)
                zk = zk * (gi + k) // (k + 1)
        else:
            zf = Fraction(1)
            for k in itertools.count():
                yield zf
                zf = zf * (gv + k) / (k + 1)
    else:
        gf = float(g.value)
        ze = ExtScalar(1.0)
        for k in itertools.count():
            yield ze
            ze = ze * ExtScalar(gf + k) / ExtScalar(k + 1.0)


def eigenvalues(params: MatrixParams) -> np.ndarray:
    """The diagonal, a + j*b for j = 1..m."""
    return params.a + np.arange(1, params.m + 1, dtype=np.float64) * params.b


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues a + j*b and the unit-diagonal eigenvector matrix X.

    X is constant along diagonals: the lower form has x_ij = z_{i-j}; the
    upper form is its anti-diagonal flip. Entries are exact (Fraction or
    ExtScalar) and materialized lazily from the growth sequence.
    """

    m: int
    lambdas: np.ndarray
    growth: GrowthSequence
    orientation: Orientation

    def _zero(self) -> Exactish:
        return Fraction(0) if self.growth.exact else ExtScalar(0.0)

    def entry(self, i: int, j: int) -> Exactish:
        """1-based entry of X (or of the flipped X for upper orientation)."""
        if not (1 <= i <= self.m and 1 <= j <= self.m):
            raise IndexError(f"entry ({i},{j}) outside 1..{self.m}")
        if self.orientation is Orientation.UPPER:
            i, j = self.m + 1 - i, self.m + 1 - j
        if i < j:
            return self._zero()
        return self.growth[i - j]

    def rows(self, convert: Callable[[Exactish], T]) -> list[list[T]]:
        """X row by row, with convert applied once per diagonal z_k and once to zero."""
        m = self.m
        z = [convert(v) for v in self.growth.z]
        zero = convert(self._zero())
        lower = [z[i::-1] + [zero] * (m - 1 - i) for i in range(m)]
        if self.orientation is Orientation.UPPER:
            return [row[::-1] for row in reversed(lower)]
        return lower

    def dense_fractions(self) -> list[list[Fraction]]:
        if not self.growth.exact:
            raise ValueError("dense_fractions requires an exact growth sequence")
        return self.rows(lambda v: v)

    def to_trimatrix(self) -> TriMatrix:
        """Native-float X; raises OverflowError when entries exceed the double range."""
        check_dense_size(self.m)
        return TriMatrix(np.array(self.rows(_to_float), dtype=np.float64), self.orientation)


def _to_float(v: Exactish) -> float:
    if isinstance(v, Fraction):
        return float(v)
    f = v.to_native()
    if isinstance(f, float):
        return f
    raise OverflowError("eigenvector entry exceeds the native float range")


def eigenvector_matrix(params: MatrixParams) -> EigenDecomposition:
    """Closed-form eigenvector matrix; requires b != 0 so eigenvalues are distinct."""
    params.require_distinct_eigenvalues()
    growth = growth_sequence(params.gamma(), params.m - 1)
    return EigenDecomposition(
        m=params.m,
        lambdas=eigenvalues(params),
        growth=growth,
        orientation=params.orientation,
    )


# ---------------------------------------------------------------------------
# Asymptotics of y_k = binom(alpha + k, k) and the exponential growth floor
# ---------------------------------------------------------------------------


class Asymptotics(Enum):
    DIVERGES = "diverges"
    CONSTANT_ONE = "constant-one"
    EVENTUALLY_ZERO = "eventually-zero"
    TENDS_TO_ZERO_SUBLINEARLY = "tends-to-zero-sublinearly"


def classify_asymptotics(alpha: Union[int, float, Fraction]) -> Asymptotics:
    """Long-run behavior of binom(alpha + k, k); callers pass alpha = gamma - 1."""
    a = Fraction(alpha) if not isinstance(alpha, float) else alpha
    if a > 0:
        return Asymptotics.DIVERGES
    if a == 0:
        return Asymptotics.CONSTANT_ONE
    is_integer = a.denominator == 1 if isinstance(a, Fraction) else float(a).is_integer()
    if is_integer:
        return Asymptotics.EVENTUALLY_ZERO
    return Asymptotics.TENDS_TO_ZERO_SUBLINEARLY


@dataclass(frozen=True)
class GrowthFloorReport:
    """Witness report for the entrywise bound x_ij >= 2^(i-j)."""

    m: int
    gamma: GammaRatio
    passed: bool
    first_violation: tuple[int, int] | None  # 1-based (i, j), None when passed
    checked_entries: int


def growth_floor_check(params: MatrixParams) -> GrowthFloorReport:
    """Check x_ij >= 2^(i-j) for every lower entry; must pass whenever gamma >= m.

    x_ij depends only on k = i - j, so the floor is z_k >= 2^k for k = 0..m-1.
    For exact gamma > 0 one exact endpoint value certifies it: w_k = z_k / 2^k
    has w_{k+1} / w_k = (gamma + k) / (2 (k + 1)), which exceeds 1 exactly
    while k < gamma - 2, so w rises and then falls, and with w_0 = 1 the floor
    holds on all of 0..m-1 iff it holds at k = m-1. Otherwise (a violation, an
    inexact gamma, or gamma <= 0) the sequence is scanned, and the first
    violating k gives the witness entry (k+1, 1) in either scan order.
    """
    params.require_distinct_eigenvalues()
    g = params.gamma()
    m = params.m
    if g.exact and g.value > 0 and _floor_holds_at(g.value, m - 1):
        first = None
    else:
        first = _first_floor_violation(g, m)
    count = m * (m + 1) // 2
    return GrowthFloorReport(
        m=m, gamma=g, passed=first is None, first_violation=first, checked_entries=count
    )


def _floor_holds_at(gamma: Fraction, k: int) -> bool:
    """z_k >= 2^k in exact integers, for gamma = p/q > 0."""
    p, q = gamma.numerator, gamma.denominator
    if q == 1:
        return math.comb(p + k - 1, k) >= 1 << k
    # z_k = prod_{i<k} (p + i q) / (q^k k!)
    return math.prod(range(p, p + k * q, q)) >= (2 * q) ** k * math.factorial(k)


def _first_floor_violation(g: GammaRatio, m: int) -> tuple[int, int] | None:
    # the recurrence runs only up to the first violation: k = 1 when gamma <= 0
    for k, zk in enumerate(itertools.islice(_growth_terms(g), m)):
        if isinstance(zk, Fraction):
            ok = zk >= (1 << k)
        else:
            ok = zk.sign > 0 and zk.cmp_abs(ExtScalar.pow2(k)) >= 0
        if not ok:
            return (k + 1, 1)
    return None
