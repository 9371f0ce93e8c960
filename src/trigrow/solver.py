"""Forward-substitution eigenvector solvers over native floats.

Three routes through the same recurrence x_k = a_k (1 + sum_{j<k} x_j):

* naive:  plain doubles, reports the first index that leaves the
          representable range instead of silently producing infinities;
* robust: dynamically downscales the running total by exact powers of two
          before any update could overflow, so every intermediate stays
          finite (the scaled-solve contract of classic overflow-safe
          triangular solvers); each component keeps the scale in force when
          it was written, as in LAPACK xLATRS, so nothing is rescaled twice;
* ext:    ExtScalar arithmetic, immune to overflow by construction.

naive and robust share the identical accumulation order, so whenever naive
succeeds the two agree bitwise.

The eigenvector matrix is Toeplitz and the column-j subsystem is the leading
(m-j)-prefix of the column-1 subsystem, so `eigenvectors` solves the column-1
subsystem once and reads every column off that one solution. Every robust
column therefore uses the column-1 threshold tau(n = m-1).
"""

from __future__ import annotations

import math
import sys as _sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .extscalar import ONE, ZERO, ExtScalar
from .matgen import (
    GeneralSystem,
    MatrixParams,
    Orientation,
    TriMatrix,
    build_eigvec_subsystem,
    check_dense_size,
)
from .oracle import eigenvalues

OMEGA = _sys.float_info.max  # largest finite double


class SolveStatus(Enum):
    OK = "ok"
    OVERFLOW_DETECTED = "overflow-detected"


class Method(str, Enum):
    NAIVE = "naive"
    ROBUST = "robust"
    EXTENDED = "extended"


@dataclass(frozen=True)
class ScaledVector:
    """Native-float vector with one power-of-two scale: represented = values * 2**scale_exp.

    The robust solver keeps every stored value within the representable range
    and accumulates the applied downscaling in scale_exp (>= 0 on growing
    problems), so the represented vector is the true solution. A read-only
    float64 array is shared, so columns can be windows over one buffer;
    anything else is copied into a read-only array.
    """

    values: np.ndarray
    scale_exp: int = 0

    def __post_init__(self):
        v = self.values
        if not (isinstance(v, np.ndarray) and v.dtype == np.float64 and not v.flags.writeable):
            v = np.array(v, dtype=np.float64)
            v.flags.writeable = False
            object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    def component_ext(self, i: int) -> ExtScalar:
        """Exact i-th (0-based) component as an ExtScalar."""
        return ExtScalar(float(self.values[i])).scale_pow2(self.scale_exp)

    def log2_components(self) -> np.ndarray:
        """log2 of component magnitudes; -inf where a stored value is zero."""
        with np.errstate(divide="ignore"):
            return np.log2(np.abs(self.values)) + self.scale_exp

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScaledVector):
            return NotImplemented
        return self.scale_exp == other.scale_exp and bool(
            np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one solve: Ok with a vector, or the first overflowing index."""

    status: SolveStatus
    result: Union[ScaledVector, list[ExtScalar], None]
    overflow_index: int | None = None  # 1-based index within the solved system

    @property
    def ok(self) -> bool:
        return self.status is SolveStatus.OK


def _naive_components(sys: GeneralSystem) -> tuple[np.ndarray, int | None]:
    """Plain double substitution up to the first index (1-based) whose value or
    running total leaves the range: returns the components before that index
    and the index, or the whole solution and None."""
    sys.require_nonsingular()
    c = float(sys.c)
    d = sys.d.tolist()
    values = np.zeros(sys.n)
    h = 1.0  # running 1 + sum of solved components
    for k in range(sys.n):
        x = (c / d[k]) * h
        if not math.isfinite(x) or abs(x) > OMEGA:
            return values[:k], k + 1
        values[k] = x
        h += x
        if not math.isfinite(h) or abs(h) > OMEGA:
            return values[:k], k + 1
    return values, None


def naive_solve(sys: GeneralSystem) -> SolveOutcome:
    """Plain double-precision substitution; detects rather than prevents overflow."""
    values, overflow = _naive_components(sys)
    if overflow is not None:
        return SolveOutcome(SolveStatus.OVERFLOW_DETECTED, None, overflow_index=overflow)
    return SolveOutcome(SolveStatus.OK, ScaledVector(values, 0))


def _safety_threshold(sys: GeneralSystem) -> float:
    """tau = OMEGA / (2 n max(1, |c| / min|d|)): one full update cannot pass OMEGA."""
    dmin = float(np.min(np.abs(sys.d)))
    ratio = abs(sys.c) / dmin
    if not math.isfinite(ratio):
        raise ValueError("system scale |c|/min|d| exceeds the supported range")
    tau = OMEGA / (2.0 * sys.n * max(1.0, ratio))
    if tau <= 0.0 or not math.isfinite(tau):
        raise ValueError("safety threshold underflowed; system scale unsupported")
    return tau


def _robust_components(sys: GeneralSystem) -> tuple[np.ndarray, np.ndarray]:
    """Overflow-proof substitution: x_k = raw[k] * 2**exps[k], exps nondecreasing.

    Whenever the next component would exceed tau, the running total is
    multiplied by 2**-s with the smallest s restoring headroom and s joins the
    scale in force. Components already written keep the scale they were
    written at, so no pass over the solved prefix is needed.
    """
    sys.require_nonsingular()
    n = sys.n
    raw = np.zeros(n)
    exps = np.zeros(n, dtype=np.int64)
    if n == 0:
        return raw, exps
    c = float(sys.c)
    d = sys.d.tolist()
    tau = _safety_threshold(sys)
    h = 1.0  # (1 + sum of solved components) at the current scale
    sigma = 0
    for k in range(n):
        ak = c / d[k]
        p = abs(ak) * abs(h)
        if p > tau:
            s = max(1, math.frexp(p)[1] - math.frexp(tau)[1])
            while s > 1 and math.ldexp(p, -(s - 1)) <= tau:
                s -= 1
            while math.ldexp(p, -s) > tau:
                s += 1
            h = math.ldexp(h, -s)
            sigma += s
        x = ak * h
        if not math.isfinite(x) or abs(x) > OMEGA:  # unreachable by construction
            raise ArithmeticError(f"robust solve produced a non-representable value at k={k + 1}")
        raw[k] = x
        exps[k] = sigma
        h += x
        if not math.isfinite(h):
            raise ArithmeticError(f"robust solve running total overflowed at k={k + 1}")
    return raw, exps


def robust_solve(sys: GeneralSystem) -> ScaledVector:
    """Overflow-proof substitution: downscale by exact powers of two, never overflow.

    The scale reached at the last component is returned in scale_exp and every
    component is brought to it with one power-of-two shift (exact unless it
    lands below the normal range), so values * 2**scale_exp is the true
    solution.
    """
    raw, exps = _robust_components(sys)
    top = int(exps[-1]) if len(exps) else 0
    return ScaledVector(np.ldexp(raw, exps - top), top)


def ext_solve(sys: GeneralSystem) -> list[ExtScalar]:
    """The same substitution entirely in ExtScalar; cannot overflow."""
    sys.require_nonsingular()
    c = ExtScalar(sys.c)
    h = ExtScalar(1.0)
    out: list[ExtScalar] = []
    for dk in sys.d:
        x = (c / ExtScalar(float(dk))) * h
        out.append(x)
        h = h + x
    return out


# ---------------------------------------------------------------------------
# Whole-matrix eigenvector computation
# ---------------------------------------------------------------------------


def _windows(seq: Union[np.ndarray, list], lo: int, m: int, upper: bool) -> list:
    """Length-m columns for n = lo..len(seq)-1: m-1-n zeros, then seq[:n+1]
    (index-reversed when upper), as windows over one buffer."""
    hi = len(seq) - 1
    if isinstance(seq, list):
        pad = [ZERO] * (m - 1 - lo)
        buf = seq[::-1] + pad if upper else pad + seq
    else:
        pad = np.zeros(m - 1 - lo)
        buf = np.concatenate([seq[::-1], pad] if upper else [pad, seq])
        buf.flags.writeable = False
    starts = [hi - n if upper else n - lo for n in range(lo, hi + 1)]
    return [buf[k : k + m] for k in starts]


def eigenvectors(params: MatrixParams, method: Method = Method.ROBUST) -> list[SolveOutcome]:
    """All m eigenvector columns from one solve of the column-1 subsystem.

    Column j is zeros, the unit pivot and the first m-j components of the
    column-1 solution (index-reversed for upper orientation). Naive column j
    overflows iff m-j reaches column 1's overflow index; robust column j takes
    the scale in force at its last component.
    """
    params.require_distinct_eigenvalues()
    method = Method(method)
    m = params.m
    upper = params.orientation is Orientation.UPPER
    sub = build_eigvec_subsystem(params, 1)
    ok = SolveStatus.OK
    # out[n] is the column with n solved components below its pivot
    if method is Method.EXTENDED:
        out = [SolveOutcome(ok, col) for col in _windows([ONE] + ext_solve(sub), 0, m, upper)]
    elif method is Method.NAIVE:
        values, overflow = _naive_components(sub)
        seq = np.concatenate([[1.0], values])
        out = [SolveOutcome(ok, ScaledVector(col, 0)) for col in _windows(seq, 0, m, upper)]
        overflowed = SolveOutcome(SolveStatus.OVERFLOW_DETECTED, None, overflow_index=overflow)
        out += [overflowed] * (m - len(out))
    else:
        raw, exps = _robust_components(sub)
        raw = np.concatenate([[1.0], raw])
        exps = np.concatenate([[0], exps])
        scales, starts = np.unique(exps, return_index=True)  # exps is nondecreasing
        out = []
        for s, lo, end in zip(scales.tolist(), starts.tolist(), starts[1:].tolist() + [m]):
            seq = np.ldexp(raw[:end], exps[:end] - s)
            out += [SolveOutcome(ok, ScaledVector(col, s)) for col in _windows(seq, lo, m, upper)]
    return out if upper else out[::-1]


def _ext_shifted(xs: Sequence[ExtScalar]) -> np.ndarray:
    """xs as float64 shifted by the exact power of two that puts max|x| in
    [0.5, 1). Components more than ~1074 binary orders below the peak round to
    subnormals or to zero."""
    sig = np.array([v.sign * v.significand for v in xs])
    exp = np.array([v.exponent for v in xs], dtype=np.int64)
    top = int(exp[sig != 0.0].max()) if np.any(sig) else 0
    return np.ldexp(sig, exp - top - 1)


def residual(A: TriMatrix, lam: float, x: Union[ScaledVector, Sequence[ExtScalar]]) -> ExtScalar:
    """Scaled eigenvector residual max_i |(A - lam I) x|_i / ((||A||_inf + |lam|) max_i |x_i|).

    x is shifted by an exact power of two to max|x| in [0.5, 1), and A and lam
    together by the one putting max(max|A|, |lam|) there; both shifts cancel in
    the ratio. Row sums add the products of the nonzero components in
    ascending order, so every product and sum rounds as in double arithmetic
    with an unbounded exponent, except that components more than ~1074 binary
    orders below the peak of x enter as zero. The ratio is formed in
    ExtScalar, so it is never flushed to zero.
    """
    check_dense_size(A.n)
    if isinstance(x, ScaledVector):
        peak = np.max(np.abs(x.values), initial=0.0)
        xs = np.ldexp(x.values, -int(np.frexp(peak)[1]))
    else:
        xs = _ext_shifted(x)
    if A.n != len(xs):
        raise ValueError(f"dimension mismatch: matrix {A.n}, vector {len(xs)}")
    support = np.flatnonzero(xs)
    if not len(support):
        raise ValueError("residual of the zero vector is undefined")
    ea = int(np.frexp(np.max(np.abs(A.entries), initial=abs(lam)))[1])
    a_s = np.ldexp(A.entries, -ea)
    lam_s = math.ldexp(lam, -ea)
    acc = np.zeros(A.n)
    for k in support.tolist():  # a BLAS matvec would sum in another order
        acc += a_s[:, k] * xs[k]
    acc -= lam_s * xs
    norm = float(np.max(np.sum(np.abs(a_s), axis=1)))
    denom = (norm + abs(lam_s)) * float(np.max(np.abs(xs)))
    return ExtScalar(float(np.max(np.abs(acc)))) / ExtScalar(denom)


def _tail_residual(tail: np.ndarray, b: float, c: float, scale: float) -> float:
    """max_k |k b x_k - c (x_0 + ... + x_{k-1})| / (scale max|x|) over a column
    tail x (pivot first), rounded in the dtype of tail; NaN for a zero tail."""
    vmax = float(np.max(np.abs(tail)))
    if vmax == 0.0:
        return math.nan
    if len(tail) == 1:
        return 0.0
    t = tail.dtype.type
    prefix = np.cumsum(tail[:-1])
    k = np.arange(1, len(tail), dtype=tail.dtype)
    rows = k * t(b) * tail[1:] - t(c) * prefix
    return float(np.max(np.abs(rows)) / (scale * vmax))


def structured_residuals(params: MatrixParams, outcomes: Sequence[SolveOutcome]) -> np.ndarray:
    """Per-column scaled residuals exploiting the generated-matrix structure.

    For column j the residual rows reduce to (i-j) b x_i - c * prefix_sum(x),
    so each column costs O(m - j) instead of a dense matrix-vector product.
    Each tail is shifted by the exact power of two that puts max|x| in
    [0.5, 1), so the column scale cancels in the ratio and the denominator
    cannot overflow. ScaledVector tails run in extended precision
    (longdouble); ExtScalar tails run in float64, which rounds as ExtScalar
    does, except that components more than ~1074 binary orders below the
    peak enter as zero. Columns without an Ok result yield NaN.
    """
    m = params.m
    lams = eigenvalues(params)
    row_sums = np.abs(lams) + np.arange(0, m) * abs(params.c)
    norm_a = float(np.max(row_sums))
    if not math.isfinite(norm_a):
        raise ValueError("matrix norm exceeds the native range; use residual() instead")
    upper = params.orientation is Orientation.UPPER
    res = np.full(m, np.nan)
    for idx, o in enumerate(outcomes):
        if not o.ok:
            continue
        j = m - idx if upper else idx + 1
        col = o.result
        if isinstance(col, ScaledVector):
            tail = (col.values[::-1] if upper else col.values)[j - 1 :].astype(np.longdouble)
            tail = np.ldexp(tail, -int(np.frexp(np.max(np.abs(tail)))[1]))
        else:
            tail = _ext_shifted(col[m - j :: -1] if upper else col[j - 1 :])
        res[idx] = _tail_residual(tail, params.b, params.c, norm_a + abs(float(lams[j - 1])))
    return res
