import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigrow import (
    GammaRatio,
    GeneralSystem,
    MatrixParams,
    Orientation,
    TriMatrix,
    build_A,
    build_eigvec_subsystem,
    flip,
    matrix_market_string,
    read_matrix_market,
    write_matrix_market,
)

# the introductory 5x5 pair, reproduced digit for digit
A5 = np.array(
    [
        [1, 0, 0, 0, 0],
        [-5, 2, 0, 0, 0],
        [-5, -5, 3, 0, 0],
        [-5, -5, -5, 4, 0],
        [-5, -5, -5, -5, 5],
    ],
    dtype=float,
)
A5_UPPER = np.array(
    [
        [5, -5, -5, -5, -5],
        [0, 4, -5, -5, -5],
        [0, 0, 3, -5, -5],
        [0, 0, 0, 2, -5],
        [0, 0, 0, 0, 1],
    ],
    dtype=float,
)


class TestParams:
    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            MatrixParams(0, 0.0, 1.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            MatrixParams(3, float("nan"), 1.0, 1.0)

    def test_distinct_eigenvalues_requires_b(self):
        with pytest.raises(ValueError):
            MatrixParams(3, 1.0, 0.0, 1.0).require_distinct_eigenvalues()


class TestGammaRatio:
    def test_integer_ratio_exact(self):
        g = GammaRatio.from_cb(5.0, 1.0)
        assert g.exact and g.value == Fraction(5)

    def test_small_fraction_exact(self):
        g = GammaRatio.from_cb(1.5, 1.0)
        assert g.exact and g.value == Fraction(3, 2)

    def test_reduction(self):
        g = GammaRatio.from_cb(10.0, 4.0)
        assert g.exact and g.value == Fraction(5, 2)

    def test_huge_scale_gap_falls_back_to_float(self):
        g = GammaRatio.from_cb(1e100, 3e-200)
        assert not g.exact
        assert g.as_float() == pytest.approx(1e100 / 3e-200)

    def test_ratio_beyond_double_range_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            GammaRatio.from_cb(1e300, 3e-200)

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError):
            GammaRatio.from_cb(1.0, 0.0)


class TestBuildA:
    def test_intro_matrix(self):
        mat = build_A(MatrixParams(5, 0.0, 1.0, 5.0))
        assert np.array_equal(mat.entries, A5)
        assert mat.shape is Orientation.LOWER

    def test_intro_matrix_flipped(self):
        mat = build_A(MatrixParams(5, 0.0, 1.0, 5.0, Orientation.UPPER))
        assert np.array_equal(mat.entries, A5_UPPER)
        assert mat.shape is Orientation.UPPER

    def test_c_zero_gives_diagonal(self):
        mat = build_A(MatrixParams(3, 7.0, 2.0, 0.0))
        assert np.array_equal(mat.entries, np.diag([9.0, 11.0, 13.0]))

    @given(
        st.integers(1, 12),
        st.integers(-6, 6),
        st.integers(-6, 6),
        st.integers(-6, 6),
    )
    def test_entry_formula(self, m, a, b, c):
        mat = build_A(MatrixParams(m, float(a), float(b), float(c)))
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i == j:
                    assert mat[i, j] == a + j * b
                elif i > j:
                    assert mat[i, j] == -c
                else:
                    assert mat[i, j] == 0.0


class TestSubsystem:
    def test_intro_first_column(self):
        sub = build_eigvec_subsystem(MatrixParams(5, 0.0, 1.0, 5.0), 1)
        assert np.array_equal(sub.d, [1.0, 2.0, 3.0, 4.0])
        assert sub.c == 5.0

    def test_single_equation(self):
        sub = build_eigvec_subsystem(MatrixParams(5, 0.0, 1.0, 5.0), 4)
        assert np.array_equal(sub.d, [1.0])

    def test_general_params(self):
        # d_i = i*b read straight off the subsystem definition
        sub = build_eigvec_subsystem(MatrixParams(6, 3.0, 2.0, 10.0), 2)
        assert np.array_equal(sub.d, [2.0, 4.0, 6.0, 8.0])
        assert sub.c == 10.0

    def test_last_column_is_empty(self):
        assert build_eigvec_subsystem(MatrixParams(4, 0.0, 1.0, 2.0), 4).n == 0

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError):
            build_eigvec_subsystem(MatrixParams(4, 0.0, 0.0, 2.0), 1)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            build_eigvec_subsystem(MatrixParams(4, 0.0, 1.0, 2.0), 5)

    def test_dense_form(self):
        sub = GeneralSystem(np.array([1.0, 2.0]), 5.0)
        assert np.array_equal(sub.to_trimatrix().entries, [[1.0, 0.0], [-5.0, 2.0]])


class TestFlip:
    def test_intro_pair(self):
        assert np.array_equal(flip(build_A(MatrixParams(5, 0.0, 1.0, 5.0))).entries, A5_UPPER)

    def test_identity_fixed_point(self):
        ident = TriMatrix(np.eye(4), Orientation.LOWER)
        assert np.array_equal(flip(ident).entries, np.eye(4))

    @given(st.integers(1, 10), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
    def test_involution_and_diagonal_reversal(self, m, a, b, c):
        mat = build_A(MatrixParams(m, float(a), float(b), float(c)))
        flipped = flip(mat)
        assert flipped.shape is Orientation.UPPER
        assert np.array_equal(flipped.diagonal(), mat.diagonal()[::-1])
        assert flip(flipped) == mat


class TestTriMatrix:
    def test_wrong_side_entries_rejected(self):
        with pytest.raises(ValueError):
            TriMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), Orientation.LOWER)

    def test_immutable(self):
        mat = build_A(MatrixParams(3, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            mat.entries[0, 0] = 99.0


class TestMatrixMarket:
    @pytest.mark.parametrize("fmt", ["array", "coordinate"])
    @pytest.mark.parametrize("orient", [Orientation.LOWER, Orientation.UPPER])
    def test_round_trip_bit_identical(self, fmt, orient, tmp_path):
        mat = build_A(MatrixParams(7, 0.3, -1.7, 2.9, orient))
        path = str(tmp_path / "m.mtx")
        write_matrix_market(mat, path, fmt=fmt)
        back = read_matrix_market(path)
        assert back == mat

    def test_round_trip_awkward_floats(self, rng):
        vals = np.tril(rng.standard_normal((6, 6)) * 10.0 ** rng.integers(-300, 300, (6, 6)))
        mat = TriMatrix(vals, Orientation.LOWER)
        for fmt in ("array", "coordinate"):
            assert read_matrix_market(io.StringIO(matrix_market_string(mat, fmt))) == mat

    def test_header(self):
        text = matrix_market_string(build_A(MatrixParams(2, 0.0, 1.0, 1.0)), "array")
        assert text.startswith("%%MatrixMarket matrix array real general\n")

    def test_scipy_reads_our_files(self, tmp_path):
        scipy_io = pytest.importorskip("scipy.io")
        mat = build_A(MatrixParams(6, 0.25, 1.5, 3.75))
        for fmt in ("array", "coordinate"):
            path = str(tmp_path / f"{fmt}.mtx")
            write_matrix_market(mat, path, fmt=fmt)
            theirs = scipy_io.mmread(path)
            theirs = theirs.toarray() if hasattr(theirs, "toarray") else np.asarray(theirs)
            assert np.array_equal(theirs, mat.entries)

    def test_we_read_scipy_files(self, tmp_path):
        scipy_io = pytest.importorskip("scipy.io")
        mat = build_A(MatrixParams(6, 0.25, 1.5, 3.75))
        path = str(tmp_path / "scipy.mtx")
        scipy_io.mmwrite(path, mat.entries, precision=17)
        back = read_matrix_market(path)
        assert np.array_equal(back.entries, mat.entries)

    def test_diagonal_round_trip_keeps_shape(self):
        mat = build_A(MatrixParams(3, 1.0, 1.0, 0.0, Orientation.UPPER))
        back = read_matrix_market(io.StringIO(matrix_market_string(mat, "coordinate")))
        assert back.shape is Orientation.UPPER

    def test_reject_non_matrix(self):
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO("%%MatrixMarket vector array real general\n1\n"))


def _coordinate(size_line: str, *entries: str) -> io.StringIO:
    return io.StringIO(
        "%%MatrixMarket matrix coordinate real general\n" + size_line + "\n"
        + "".join(e + "\n" for e in entries)
    )


class TestMatrixMarketMalformed:
    def test_zero_index_rejected(self):
        # 0 0 once landed at (2, 2) through negative indexing
        with pytest.raises(ValueError, match="outside"):
            read_matrix_market(_coordinate("2 2 1", "0 0 5.0"))

    def test_index_above_n_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            read_matrix_market(_coordinate("2 2 1", "3 1 5.0"))

    @pytest.mark.parametrize("fmt", ["array", "coordinate"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, fmt, bad):
        text = matrix_market_string(build_A(MatrixParams(2, 0.0, 1.0, 1.0)), fmt)
        lines = text.splitlines()
        lines[3] = bad if fmt == "array" else " ".join(lines[3].split()[:2] + [bad])
        with pytest.raises(ValueError, match="finite"):
            read_matrix_market(io.StringIO("\n".join(lines) + "\n"))

    def test_duplicate_coordinate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            read_matrix_market(_coordinate("2 2 2", "1 1 1.0", "1 1 2.0"))

    def test_unallocatable_size_line_rejected(self):
        # the dense array was allocated from the size line before any entry was read
        with pytest.raises(ValueError, match="n = 1000000000"):
            read_matrix_market(_coordinate("1000000000 1000000000 1", "1 1 1.0"))

    @pytest.mark.parametrize(
        "text",
        [
            "%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1.0\n",
            "%%MatrixMarket matrix array real general\n2\n1.0\n0.0\n0.0\n1.0\n",
            "%%MatrixMarket matrix array real general\n",
        ],
        ids=["coordinate", "array", "missing"],
    )
    def test_short_size_line_rejected(self, text):
        with pytest.raises(ValueError, match="size line"):
            read_matrix_market(io.StringIO(text))


_ENTRY = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _tri_matrices(draw) -> TriMatrix:
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(list(Orientation)))
    vals = np.array(draw(st.lists(_ENTRY, min_size=n * n, max_size=n * n))).reshape(n, n)
    return TriMatrix(np.tril(vals) if shape is Orientation.LOWER else np.triu(vals), shape)


_FORMATS = st.sampled_from(["array", "coordinate"])

# small numbers only: a mutated size line must never ask for a huge dense matrix
_TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "-1", "7", "1.5", "-0.0", "nan", "inf", "1e400", "x", "%",
     "%%MatrixMarket", "matrix", "array", "coordinate", "real", "general", "upper"]
)


@given(_tri_matrices(), _FORMATS)
def test_matrix_market_round_trip_property(mat, fmt):
    back = read_matrix_market(io.StringIO(matrix_market_string(mat, fmt)))
    assert back == mat and back.shape is mat.shape


@given(_tri_matrices(), _FORMATS, st.data())
def test_matrix_market_single_line_mutation_is_matrix_or_value_error(mat, fmt, data):
    lines = matrix_market_string(mat, fmt).splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    tok = lines[i].split()
    kind = data.draw(st.sampled_from(["delete", "duplicate", "replace", "token", "truncate"]))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "replace":
        lines[i] = " ".join(data.draw(st.lists(_TOKENS, max_size=4)))
    elif kind == "token" and tok:
        tok[data.draw(st.integers(0, len(tok) - 1))] = data.draw(_TOKENS)
        lines[i] = " ".join(tok)
    else:
        lines[i] = " ".join(tok[:-1])
    try:
        out = read_matrix_market(io.StringIO("\n".join(lines) + "\n"))
    except ValueError:
        return
    assert isinstance(out, TriMatrix)
