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
from .matgen import GeneralSystem, MatrixParams, Orientation, TriMatrix, build_eigvec_subsystem
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

    def to_ext(self) -> list[ExtScalar]:
        return [self.component_ext(i) for i in range(len(self.values))]

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


def _to_ext_vector(x: Union[ScaledVector, Sequence[ExtScalar]]) -> list[ExtScalar]:
    if isinstance(x, ScaledVector):
        return x.to_ext()
    return list(x)


def residual(A: TriMatrix, lam: float, x: Union[ScaledVector, Sequence[ExtScalar]]) -> ExtScalar:
    """Scaled eigenvector residual max_i |(A - lam I) x|_i / ((||A||_inf + |lam|) max_i |x_i|).

    Evaluated entirely in ExtScalar so the scale factor of x cancels exactly.
    """
    xe = _to_ext_vector(x)
    if A.n != len(xe):
        raise ValueError(f"dimension mismatch: matrix {A.n}, vector {len(xe)}")
    support = [(k, v) for k, v in enumerate(xe) if not v.is_zero()]
    if not support:
        raise ValueError("residual of the zero vector is undefined")
    norm_a = float(np.max(np.sum(np.abs(A.entries), axis=1)))
    if not math.isfinite(norm_a):  # huge entries: accumulate exactly instead
        norm_ext = ZERO
        for i in range(A.n):
            row = ZERO
            for v in A.entries[i]:
                if v != 0.0:
                    row = row + ExtScalar(abs(float(v)))
            if row.cmp_abs(norm_ext) > 0:
                norm_ext = row
    else:
        norm_ext = ExtScalar(norm_a)
    lam_ext = ExtScalar(lam)
    xmax = ZERO
    for _, v in support:
        if v.cmp_abs(xmax) > 0:
            xmax = v
    worst = ZERO
    ent = A.entries
    for i in range(A.n):
        acc = ZERO
        for k, v in support:
            aik = float(ent[i, k])
            if aik != 0.0:
                acc = acc + ExtScalar(aik) * v
        acc = acc - lam_ext * xe[i]
        if acc.cmp_abs(worst) > 0:
            worst = acc
    denom = (norm_ext + abs(lam_ext)) * abs(xmax)
    return abs(worst) / denom


def structured_residuals(params: MatrixParams, outcomes: Sequence[SolveOutcome]) -> np.ndarray:
    """Per-column scaled residuals exploiting the generated-matrix structure.

    For column j the residual rows reduce to (i-j) b x_i - c * prefix_sum(x),
    so each column costs O(m - j) instead of a dense matrix-vector product.
    Prefix sums run in extended precision (longdouble) on the column scaled
    by an exact power of two to max|x| in [0.5, 1), so the column scale
    cancels in the ratio. ExtScalar columns take an ExtScalar route. Columns
    without an Ok result yield NaN.
    """
    m = params.m
    lams = eigenvalues(params)
    row_sums = np.abs(lams) + np.arange(0, m) * abs(params.c)
    norm_a = float(np.max(row_sums))
    if not math.isfinite(norm_a):
        raise ValueError("matrix norm exceeds the native range; use residual() instead")
    res = np.full(m, np.nan)
    for idx, o in enumerate(outcomes):
        if not o.ok:
            continue
        ju = idx + 1
        j = m + 1 - ju if params.orientation is Orientation.UPPER else ju
        lam = abs(float(lams[j - 1]))
        if isinstance(o.result, ScaledVector):
            vals = o.result.values
            if params.orientation is Orientation.UPPER:
                vals = vals[::-1]
            tail = vals[j - 1 :].astype(np.longdouble)
            vmax = np.max(np.abs(tail))
            if vmax == 0.0:
                continue
            if len(tail) == 1:
                res[idx] = 0.0
                continue
            # an exact power of two puts max|x| in [0.5, 1): the denominator
            # below cannot overflow, and the ratio keeps its bits
            e = int(np.frexp(vmax)[1])
            tail = np.ldexp(tail, -e)
            vmax = float(np.ldexp(vmax, -e))
            prefix = np.cumsum(tail[:-1])
            i_minus_j = np.arange(1, len(tail), dtype=np.longdouble)
            rows = i_minus_j * np.longdouble(params.b) * tail[1:] - np.longdouble(params.c) * prefix
            res[idx] = float(np.max(np.abs(rows)) / ((norm_a + lam) * vmax))
        else:
            col = list(reversed(o.result)) if params.orientation is Orientation.UPPER else o.result
            res[idx] = _ext_column_residual(params, j, col[j - 1 :], norm_a, lam)
    return res


def _ext_column_residual(
    params: MatrixParams, j: int, tail: Sequence[ExtScalar], norm_a: float, lam_abs: float
) -> float:
    """Same structural residual for an ExtScalar column (O(length) per column)."""
    b = ExtScalar(params.b)
    c = ExtScalar(params.c)
    vmax = ZERO
    for v in tail:
        if v.cmp_abs(vmax) > 0:
            vmax = v
    if vmax.is_zero():
        return math.nan
    worst = ZERO
    prefix = ZERO
    for k, x in enumerate(tail):
        if k > 0:
            row = ExtScalar(float(k)) * b * x - c * prefix
            if row.cmp_abs(worst) > 0:
                worst = row
        prefix = prefix + x
    denom = (ExtScalar(norm_a) + ExtScalar(lam_abs)) * abs(vmax)
    out = (abs(worst) / denom).to_native()
    return out if isinstance(out, float) else math.nan
