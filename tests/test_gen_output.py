"""The `gen` write paths, which format each distinct value once, against the
per-entry routes in conftest (one repr, write or recursive render call per
entry), and the dense size limit that every O(m^2) allocation checks first.
"""

from __future__ import annotations

import io
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    per_entry_gen_json,
    per_entry_matrix_market,
    per_entry_x_matrix,
)
from trigrow import (
    GeneralSystem,
    MatrixParams,
    Orientation,
    TriMatrix,
    build_A,
    growth_sequence,
    residual,
    write_matrix_market,
)
from trigrow.cli import main
from trigrow.matgen import MAX_DENSE_ELEMENTS, check_dense_size
from trigrow.oracle import EigenDecomposition

# signed zeros print differently; the extremes and subnormals have the longest reprs
POOL = [0.0, -0.0, 5e-324, -5e-324, -1.7976931348623157e308, 1.7976931348623157e308,
        1.0, -2.5, 0.1, 1 / 3, 6.02214076e23, -1e-300]
values = st.one_of(st.sampled_from(POOL), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def trimatrices(draw) -> TriMatrix:
    n = draw(st.integers(0, 12))
    shape = draw(st.sampled_from(list(Orientation)))
    e = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n)), dtype=np.float64)
    e = e.reshape(n, n)
    return TriMatrix(np.tril(e) if shape is Orientation.LOWER else np.triu(e), shape)


@settings(max_examples=150, deadline=None)
@given(trimatrices(), st.sampled_from(["array", "coordinate"]))
def test_matrix_market_equals_per_entry_writer(mat, fmt):
    out = io.StringIO()
    write_matrix_market(mat, out, fmt)
    assert out.getvalue() == per_entry_matrix_market(mat, fmt)


# c = 0 makes the strict triangle of A -0.0; m = 1 has no off-diagonal entry;
# c = 7e20 and c = 1e-20 give an inexact gamma, so X holds ExtScalar entries
CASES = [
    ["-m", "7", "-c", "0"],
    ["-m", "1"],
    ["-m", "1", "-c", "0"],
    ["-m", "9", "-a", "0.5", "-b", "-2", "-c", "5"],
    ["-m", "8", "-b", "2", "-c", "3"],
    ["-m", "12", "-b", "3", "-c", "7e20"],
    ["-m", "10", "-c", "1e-20"],
]


def _params(flags: list[str], upper: bool) -> MatrixParams:
    opts = dict(zip(flags[::2], flags[1::2]))
    return MatrixParams(
        int(opts["-m"]),
        float(opts.get("-a", 0.0)),
        float(opts.get("-b", 1.0)),
        float(opts.get("-c", 1.0)),
        Orientation.UPPER if upper else Orientation.LOWER,
    )


@pytest.mark.parametrize("fmt", ["array", "coordinate", "json"])
@pytest.mark.parametrize("what", ["A", "X"])
@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("flags", CASES)
def test_gen_file_equals_per_entry_route(tmp_path, capsys, flags, upper, what, fmt):
    params = _params(flags, upper)
    out = tmp_path / "out"
    argv = ["gen", *flags, "--what", what, "-o", str(out)]
    argv += ["--upper"] if upper else []
    argv += ["--format", "json"] if fmt == "json" else ["--mm-format", fmt]
    assert main(argv) == 0
    if fmt == "json":
        expect = per_entry_gen_json(params, what)
    else:
        mat = build_A(params) if what == "A" else per_entry_x_matrix(params)
        expect = per_entry_matrix_market(mat, fmt)
    assert out.read_text() == expect
    capsys.readouterr()


def test_gen_a_json_rejects_an_overflowing_diagonal(tmp_path, capsys):
    out = tmp_path / "a.json"
    argv = ["gen", "-m", "3", "-a", "1e308", "-b", "1e308", "--what", "A", "--format", "json"]
    with np.errstate(over="ignore"):
        assert main([*argv, "-o", str(out)]) == 2
    assert "non-finite float inf cannot appear in a report" in capsys.readouterr().err
    assert not out.exists()


class TestDenseSizeLimit:
    # every size here is refused before anything of size m^2 is allocated
    TOO_BIG = 10**7

    def test_limit_is_exact(self):
        largest = math.isqrt(MAX_DENSE_ELEMENTS)
        check_dense_size(largest)
        with pytest.raises(ValueError, match=f"m = {largest + 1} .* limit"):
            check_dense_size(largest + 1)

    @pytest.mark.parametrize(
        "extra", [["--what", "A"], ["--what", "X"], ["--what", "X", "--format", "json"]]
    )
    def test_gen_exits_2_naming_m_and_limit(self, tmp_path, capsys, extra):
        out = tmp_path / "out"
        assert main(["gen", "-m", str(self.TOO_BIG), *extra, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"m = {self.TOO_BIG}" in err and str(MAX_DENSE_ELEMENTS) in err
        assert not out.exists()

    def test_build_A(self):
        with pytest.raises(ValueError, match=f"m = {self.TOO_BIG}"):
            build_A(MatrixParams(self.TOO_BIG, 0.0, 1.0, 1.0))

    def test_general_system_to_trimatrix(self):
        sys_ = GeneralSystem(np.ones(20000), 1.0)
        with pytest.raises(ValueError, match="m = 20000"):
            sys_.to_trimatrix()

    def test_eigen_decomposition_to_trimatrix(self):
        dec = EigenDecomposition(self.TOO_BIG, np.zeros(0), growth_sequence(1, 0), Orientation.LOWER)
        with pytest.raises(ValueError, match=f"m = {self.TOO_BIG}"):
            dec.to_trimatrix()

    def test_dense_residual(self):
        # only the order of A is read before the check
        with pytest.raises(ValueError, match=f"m = {self.TOO_BIG}"):
            residual(types.SimpleNamespace(n=self.TOO_BIG), 1.0, [])
