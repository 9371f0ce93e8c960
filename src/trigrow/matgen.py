"""Parameterized triangular test matrices and their eigenvector subsystems.

The family is controlled by (m, a, b, c): diagonal entries a + j*b for
j = 1..m, constant -c on the strict lower triangle (or the anti-diagonal
flip of that for upper orientation). The ratio gamma = c/b drives how fast
eigenvector components grow.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, TextIO, Union

import numpy as np

# beyond this many bits the exact-rational oracle path is not worth it
_SMALL_RATIO_BITS = 64

# The most elements of any dense m x m float64 array built here (2 GiB, so
# m <= 16384). A larger m is refused before allocation: numpy would otherwise
# fail with a traceback, or commit memory the machine does not have.
MAX_DENSE_ELEMENTS = 1 << 28


def check_dense_size(m: int) -> None:
    """Raise ValueError if a dense m x m array exceeds MAX_DENSE_ELEMENTS."""
    if m * m > MAX_DENSE_ELEMENTS:
        raise ValueError(
            f"m = {m} needs a dense {m}x{m} array, above the limit of "
            f"{MAX_DENSE_ELEMENTS} elements (m <= {math.isqrt(MAX_DENSE_ELEMENTS)})"
        )


class Orientation(str, Enum):
    LOWER = "lower"
    UPPER = "upper"

    def flipped(self) -> "Orientation":
        return Orientation.UPPER if self is Orientation.LOWER else Orientation.LOWER


@dataclass(frozen=True)
class MatrixParams:
    """The (a, b, c) triple plus dimension and orientation; defines the whole family."""

    m: int
    a: float
    b: float
    c: float
    orientation: Orientation = Orientation.LOWER

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"dimension m must be >= 1, got {self.m}")
        for name in ("a", "b", "c"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"parameter {name} must be finite, got {v!r}")

    def gamma(self) -> "GammaRatio":
        return GammaRatio.from_cb(self.c, self.b)

    def require_distinct_eigenvalues(self) -> None:
        if self.b == 0.0:
            raise ValueError("b must be nonzero (distinct eigenvalues required)")


@dataclass(frozen=True)
class GammaRatio:
    """gamma = c/b, kept as an exact fraction when its reduced form is small."""

    value: Union[Fraction, float]
    exact: bool

    @classmethod
    def from_cb(cls, c: float, b: float) -> "GammaRatio":
        if b == 0.0:
            raise ValueError("gamma = c/b undefined for b = 0")
        ratio = Fraction(c) / Fraction(b)
        if (
            abs(ratio.numerator).bit_length() <= _SMALL_RATIO_BITS
            and ratio.denominator.bit_length() <= _SMALL_RATIO_BITS
        ):
            return cls(ratio, True)
        gamma = c / b
        if not math.isfinite(gamma):
            raise ValueError("gamma = c/b exceeds the double range")
        return cls(gamma, False)

    @classmethod
    def from_exact(cls, value: Union[Fraction, int]) -> "GammaRatio":
        return cls(Fraction(value), True)

    def as_float(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return str(self.value)


class TriMatrix:
    """Dense triangular matrix of native floats; entries on the wrong side are exactly zero."""

    __slots__ = ("n", "entries", "shape")

    def __init__(self, entries: np.ndarray, shape: Orientation):
        entries = np.array(entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {entries.shape}")
        n = entries.shape[0]
        wrong = np.triu(entries, 1) if shape is Orientation.LOWER else np.tril(entries, -1)
        if np.any(wrong != 0.0):
            raise ValueError(f"matrix is not {shape.value} triangular")
        entries.flags.writeable = False
        self.n = n
        self.entries = entries
        self.shape = shape

    def __getitem__(self, ij: tuple[int, int]) -> float:
        """1-based entry access, matching the mathematical indexing."""
        i, j = ij
        return float(self.entries[i - 1, j - 1])

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.entries).copy()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.shape is other.shape
            and bool(np.array_equal(self.entries, other.entries))
        )

    def __repr__(self) -> str:
        return f"TriMatrix(n={self.n}, shape={self.shape.value})"


@dataclass(frozen=True)
class GeneralSystem:
    """Lower-triangular system G x = f with diagonal d, constant -c below, f = c everywhere."""

    d: np.ndarray
    c: float

    def __post_init__(self):
        d = np.array(self.d, dtype=np.float64)
        if not (np.all(np.isfinite(d)) and math.isfinite(self.c)):
            raise ValueError("system entries must be finite")
        d.flags.writeable = False
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return len(self.d)

    def require_nonsingular(self) -> None:
        if np.any(self.d == 0.0):
            k = int(np.argmax(self.d == 0.0)) + 1
            raise ValueError(f"singular system: d_{k} = 0")

    def to_trimatrix(self) -> TriMatrix:
        check_dense_size(self.n)
        g = np.full((self.n, self.n), -self.c)
        g = np.tril(g, -1)
        np.fill_diagonal(g, self.d)
        return TriMatrix(g, Orientation.LOWER)


def build_A(params: MatrixParams) -> TriMatrix:
    """The test matrix: diagonal a + j*b, constant -c on one strict triangle."""
    m = params.m
    check_dense_size(m)
    lower = np.tril(np.full((m, m), -params.c), -1)
    np.fill_diagonal(lower, params.a + np.arange(1, m + 1, dtype=np.float64) * params.b)
    mat = TriMatrix(lower, Orientation.LOWER)
    if params.orientation is Orientation.UPPER:
        mat = flip(mat)
    return mat


def build_eigvec_subsystem(params: MatrixParams, j: int) -> GeneralSystem:
    """System whose solution is the tail of eigenvector j below its unit pivot.

    Size m - j, diagonal d_i = i*b, uniform c; j = m yields the empty system.
    """
    params.require_distinct_eigenvalues()
    if not 1 <= j <= params.m:
        raise ValueError(f"eigen-index j must be in 1..{params.m}, got {j}")
    n = params.m - j
    d = np.arange(1, n + 1, dtype=np.float64) * params.b
    return GeneralSystem(d=d, c=params.c)


def flip(mat: TriMatrix) -> TriMatrix:
    """Reverse row and column order (conjugation by the anti-diagonal identity)."""
    return TriMatrix(mat.entries[::-1, ::-1].copy(), mat.shape.flipped())


# ---------------------------------------------------------------------------
# Matrix Market I/O (ASCII array and coordinate formats)
# ---------------------------------------------------------------------------

_SHAPE_COMMENT = "% shape: "


def format_distinct(
    values: np.ndarray, fmt: Callable[[float], str], memo: dict[int, str]
) -> np.ndarray:
    """fmt(v) for every v of a 1-D float64 block, as an object array.

    fmt runs once per distinct float64 bit pattern, not per value: 0.0 and
    -0.0 are equal but print differently. memo maps a bit pattern to its
    string and is shared by the blocks of one call site.
    """
    keys, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    strs = []
    for k, v in zip(keys.tolist(), keys.view(np.float64).tolist()):
        s = memo.get(k)
        if s is None:
            s = memo[k] = fmt(v)
        strs.append(s)
    return np.array(strs, dtype=object)[inverse]


def _mm_line(v: float) -> str:
    return f"{v!r}\n"


def write_matrix_market(
    mat: TriMatrix, dest: Union[str, TextIO], fmt: str = "array"
) -> None:
    """Write in Matrix Market format; floats round-trip bit-exactly.

    Each distinct value is formatted once, and the lines are written one
    column (array) or one row (coordinate) at a time.
    """
    if fmt not in ("array", "coordinate"):
        raise ValueError(f"format must be 'array' or 'coordinate', got {fmt!r}")
    if isinstance(dest, str):
        with open(dest, "w", encoding="ascii") as fh:
            write_matrix_market(mat, fh, fmt)
        return
    out = dest
    n = mat.n
    e = mat.entries
    memo: dict[int, str] = {}
    out.write(f"%%MatrixMarket matrix {fmt} real general\n")
    out.write(f"{_SHAPE_COMMENT}{mat.shape.value}\n")
    if fmt == "array":
        out.write(f"{n} {n}\n")
        for col in e.T:  # array format is column-major
            out.write("".join(format_distinct(col, _mm_line, memo).tolist()))
    else:
        out.write(f"{n} {n} {np.count_nonzero(e)}\n")
        col_prefix = np.array([f"{j} " for j in range(1, n + 1)], dtype=object)
        for i, row in enumerate(e):
            cols = np.flatnonzero(row)
            lines = f"{i + 1} " + col_prefix[cols] + format_distinct(row[cols], _mm_line, memo)
            out.write("".join(lines.tolist()))


def read_matrix_market(src: Union[str, TextIO]) -> TriMatrix:
    """Read a real general Matrix Market file written for a triangular matrix.

    Malformed input (a bad size line, an index outside 1..n, a duplicate
    coordinate, a non-finite entry, a wrong count) raises ValueError.
    """
    if isinstance(src, str):
        with open(src, "r", encoding="ascii") as fh:
            return read_matrix_market(fh)
    header = src.readline()
    parts = header.strip().split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket" or parts[1] != "matrix":
        raise ValueError(f"not a Matrix Market matrix header: {header!r}")
    fmt, fieldkind, symmetry = parts[2], parts[3], parts[4]
    if fmt not in ("array", "coordinate"):
        raise ValueError(f"unsupported Matrix Market format {fmt!r}")
    if fieldkind not in ("real", "integer") or symmetry != "general":
        raise ValueError(f"unsupported Matrix Market qualifier {fieldkind!r} {symmetry!r}")
    shape_hint: Orientation | None = None
    line = src.readline()
    while line.startswith("%"):
        if line.startswith(_SHAPE_COMMENT):
            shape_hint = Orientation(line[len(_SHAPE_COMMENT):].strip())
        line = src.readline()
    dims = line.split()
    if len(dims) != (2 if fmt == "array" else 3):
        raise ValueError(f"malformed {fmt} size line: {line!r}")
    nrows, ncols = int(dims[0]), int(dims[1])
    if nrows != ncols or nrows < 0:
        raise ValueError(f"matrix size must be square and nonnegative, got {nrows}x{ncols}")
    if fmt == "array":
        values = [float(line) for line in src if line.strip()]
        if len(values) != nrows * ncols:
            raise ValueError(f"expected {nrows * ncols} array values, got {len(values)}")
        entries = np.array(values).reshape((ncols, nrows)).T
        if not np.all(np.isfinite(entries)):
            raise ValueError("Matrix Market entries must be finite")
    else:
        nnz = int(dims[2])
        coords: dict[tuple[int, int], float] = {}
        for line in src:
            tok = line.split()
            if not tok:
                continue
            if len(tok) != 3:
                raise ValueError(f"malformed coordinate entry: {line!r}")
            i, j = int(tok[0]), int(tok[1])
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise ValueError(f"coordinate ({i}, {j}) outside a {nrows}x{ncols} matrix")
            if (i, j) in coords:
                raise ValueError(f"duplicate coordinate ({i}, {j})")
            v = float(tok[2])
            if not math.isfinite(v):
                raise ValueError("Matrix Market entries must be finite")
            coords[i, j] = v
        if len(coords) != nnz:
            raise ValueError(f"expected {nnz} coordinate entries, got {len(coords)}")
        try:  # the entries are all valid, so only the size line can make this fail
            entries = np.zeros((nrows, ncols))
        except MemoryError:
            raise ValueError(f"cannot allocate a dense matrix of size n = {nrows}") from None
        for (i, j), v in coords.items():
            entries[i - 1, j - 1] = v
    if shape_hint is not None:
        shape = shape_hint
    elif np.any(np.triu(entries, 1) != 0.0):
        shape = Orientation.UPPER
    else:
        shape = Orientation.LOWER
    return TriMatrix(entries, shape)


def matrix_market_string(mat: TriMatrix, fmt: str = "array") -> str:
    buf = io.StringIO()
    write_matrix_market(mat, buf, fmt)
    return buf.getvalue()
