import json

import numpy as np
import pytest

from conftest import per_item_render_json
from trigrow import MatrixParams, Orientation, build_A, read_matrix_market
from trigrow.cli import _Rendered, _json_string, main, render_json


def run(capsys, *argv) -> tuple[int, str, str]:
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestRenderJson:
    def test_deterministic_key_order_and_floats(self):
        text = render_json({"b": 1.5, "a": [1, 2.0, None, True], "c": "x\"y"})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert json.loads(text) == {"b": 1.5, "a": [1, 2.0, None, True], "c": 'x"y'}

    def test_seventeen_significant_digits(self):
        # 0.1 needs all 17 digits to round-trip
        text = render_json({"v": 0.1})
        assert "0.10000000000000001" in text
        assert json.loads(text)["v"] == 0.1
        for v in (6.700036292457356, 1e-300, -5e22, 2.0**-1074):
            assert json.loads(render_json(v)) == v

    def test_string_escapes_match_character_loop(self):
        def reference(s: str) -> str:
            out = ['"']
            for ch in s:
                if ch in ('"', "\\"):
                    out.append("\\" + ch)
                elif ord(ch) < 0x20:
                    out.append(f"\\u{ord(ch):04x}")
                else:
                    out.append(ch)
            out.append('"')
            return "".join(out)

        chars = [chr(cp) for cp in range(0x80)] + ["é"]
        for ch in chars:
            assert _json_string(ch) == reference(ch)
            assert json.loads(_json_string(ch)) == ch
        assert _json_string("".join(chars)) == reference("".join(chars))

    def test_rendered_text_passes_through(self):
        # alone, among other items, and in a list of nothing else
        frag = _Rendered('"1/2"')
        text = render_json({"v": frag, "w": [frag, 2], "x": [frag, frag]})
        assert text == per_item_render_json({"v": "1/2", "w": ["1/2", 2], "x": ["1/2", "1/2"]})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            render_json({"v": float("inf")})


class TestGen:
    def test_matrix_market_matches_intro(self, capsys, tmp_path):
        out = str(tmp_path / "A.mtx")
        rc, stdout, _ = run(capsys, "gen", "-m", "5", "-a", "0", "-b", "1", "-c", "5", "-o", out)
        assert rc == 0
        assert "m=5" in stdout and "gamma=5.0" in stdout and "lower" in stdout
        assert read_matrix_market(out) == build_A(MatrixParams(5, 0.0, 1.0, 5.0))

    def test_upper_eigenvector_matrix(self, capsys, tmp_path):
        out = str(tmp_path / "X.mtx")
        rc, _, _ = run(
            capsys, "gen", "-m", "5", "-a", "0", "-b", "1", "-c", "5",
            "--upper", "--what", "X", "-o", out,
        )
        assert rc == 0
        mat = read_matrix_market(out)
        assert mat.shape is Orientation.UPPER
        assert np.array_equal(mat.entries[0], [1, 5, 15, 35, 70])
        assert np.array_equal(np.diag(mat.entries), np.ones(5))

    def test_json_exact_entries(self, capsys, tmp_path):
        out = str(tmp_path / "X.json")
        rc, _, _ = run(
            capsys, "gen", "-m", "4", "-a", "0", "-b", "2", "-c", "3",
            "--what", "X", "--format", "json", "-o", out,
        )
        assert rc == 0
        data = json.loads(open(out).read())
        assert data["kind"] == "X"
        assert data["entries_exact"][3][0] == "35/16"  # binom(3/2 + 2, 3)

    def test_diagonal_matrix_file(self, capsys, tmp_path):
        out = str(tmp_path / "D.mtx")
        rc, _, _ = run(
            capsys, "gen", "-m", "3", "-a", "1", "-b", "1", "-c", "0",
            "--mm-format", "coordinate", "-o", out,
        )
        assert rc == 0
        assert np.array_equal(read_matrix_market(out).entries, np.diag([2.0, 3.0, 4.0]))

    def test_unwritable_path_exits_2(self, capsys):
        rc, _, err = run(
            capsys, "gen", "-m", "3", "-a", "0", "-b", "1", "-c", "1",
            "-o", "/nonexistent-dir/file.mtx",
        )
        assert rc == 2 and "error" in err

    def test_overlarge_X_to_matrix_market_exits_2(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "gen", "-m", "1200", "-a", "0", "-b", "1", "-c", "1200",
            "--what", "X", "-o", str(tmp_path / "X.mtx"),
        )
        assert rc == 2 and "error" in err

    def test_invalid_m_exits_2(self, capsys, tmp_path):
        rc, _, err = run(capsys, "gen", "-m", "0", "-o", str(tmp_path / "x"))
        assert rc == 2


class TestEig:
    def test_intro_all_ok(self, capsys, tmp_path):
        out = str(tmp_path / "eig.json")
        rc, _, _ = run(
            capsys, "eig", "-m", "5", "-a", "0", "-b", "1", "-c", "5",
            "--method", "naive", "-o", out,
        )
        assert rc == 0
        rep = json.loads(open(out).read())
        assert rep["overflow_columns"] == 0
        assert [c["status"] for c in rep["columns"]] == ["ok"] * 5
        assert rep["columns"][0]["max_component"]["pow2"] == "+1.09375*2^6"  # 70

    def test_m600_naive_overflow_reported_exit_0(self, capsys, tmp_path):
        out = str(tmp_path / "eig600.json")
        rc, _, _ = run(
            capsys, "eig", "-m", "600", "-a", "0", "-b", "1", "-c", "600",
            "--method", "naive", "-o", out,
        )
        assert rc == 0
        rep = json.loads(open(out).read())
        assert rep["columns"][0]["status"] == "overflow-detected"
        assert rep["columns"][0]["overflow_index"] > 0
        assert rep["overflow_columns"] > 0

    def test_expectation_failure_exits_3(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "eig", "-m", "600", "-a", "0", "-b", "1", "-c", "600",
            "--method", "naive", "--expect", "ok", "-o", str(tmp_path / "r.json"),
        )
        assert rc == 3 and "expectation failed" in err

    def test_expect_overflow_on_small_problem_exits_3(self, capsys, tmp_path):
        rc, _, _ = run(
            capsys, "eig", "-m", "5", "-a", "0", "-b", "1", "-c", "5",
            "--method", "robust", "--expect", "overflow", "-o", str(tmp_path / "r.json"),
        )
        assert rc == 3

    def test_robust_m600_reports_scales(self, capsys, tmp_path):
        out = str(tmp_path / "eig600r.json")
        rc, _, _ = run(
            capsys, "eig", "-m", "600", "-a", "0", "-b", "1", "-c", "600",
            "--method", "robust", "--expect", "ok", "-o", out,
        )
        assert rc == 0
        rep = json.loads(open(out).read())
        col1 = rep["columns"][0]
        assert col1["scale_exp"] > 0
        assert col1["max_log2"] == pytest.approx(1192.56, abs=0.01)
        assert col1["residual"] <= 1e-12

    def test_extended_method_report(self, capsys, tmp_path):
        out = str(tmp_path / "eigext.json")
        rc, _, _ = run(
            capsys, "eig", "-m", "40", "-a", "0", "-b", "1", "-c", "40",
            "--method", "extended", "-o", out,
        )
        assert rc == 0
        rep = json.loads(open(out).read())
        assert all(c["residual"] <= 1e-12 for c in rep["columns"])
        assert rep["columns"][0]["scale_exp"] is None

    def test_byte_identical_reports(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        args = ["eig", "-m", "30", "-a", "0", "-b", "1", "-c", "30", "--method", "robust"]
        assert main(args + ["-o", a]) == 0
        assert main(args + ["-o", b]) == 0
        capsys.readouterr()
        assert open(a, "rb").read() == open(b, "rb").read()


class TestCond:
    def test_single_index(self, capsys, tmp_path):
        out = str(tmp_path / "cond.json")
        rc, _, _ = run(
            capsys, "cond", "-m", "5", "-a", "0", "-b", "1", "-c", "5", "-j", "1", "-o", out,
        )
        assert rc == 0
        rep = json.loads(open(out).read())
        (r,) = rep["reports"]
        assert r["j"] == 1 and r["n"] == 4
        assert r["kappa_exact"] <= r["kappa_bound"] <= 6.700036292457357
        assert r["margin"] > 0

    @pytest.mark.parametrize("j", ["0", "5"])
    def test_index_without_subsystem_exits_2(self, capsys, tmp_path, j):
        rc, _, err = run(
            capsys, "cond", "-m", "5", "-c", "5", "-j", j, "-o", str(tmp_path / "c.json"),
        )
        assert rc == 2 and "nonempty subsystem" in err

    def test_all_indices(self, capsys, tmp_path):
        out = str(tmp_path / "cond_all.json")
        rc, _, _ = run(capsys, "cond", "-m", "6", "-a", "0", "-b", "1", "-c", "6", "-o", out)
        assert rc == 0
        rep = json.loads(open(out).read())
        assert [r["j"] for r in rep["reports"]] == [1, 2, 3, 4, 5]

    def test_with_perturbation(self, capsys, tmp_path):
        out = str(tmp_path / "cond_p.json")
        rc, _, _ = run(
            capsys, "cond", "-m", "6", "-a", "0", "-b", "1", "-c", "6", "-j", "2",
            "--epsilon", "1e-8", "--trials", "25", "--seed", "5", "-o", out,
        )
        assert rc == 0
        rep = json.loads(open(out).read())
        assert rep["reports"][0]["perturb"]["max_componentwise_error_ratio"] <= 4.0


class TestGrowth:
    def test_floor_holds(self, capsys, tmp_path):
        out = str(tmp_path / "g.json")
        rc, _, _ = run(
            capsys, "growth", "-m", "50", "-a", "0", "-b", "1", "-c", "50",
            "--expect", "pass", "-o", out,
        )
        assert rc == 0
        rep = json.loads(open(out).read())
        assert rep["passed"] and rep["floor_guaranteed"]
        assert rep["checked_entries"] == 50 * 51 // 2

    def test_floor_violation_with_witness(self, capsys, tmp_path):
        out = str(tmp_path / "g2.json")
        rc, _, _ = run(capsys, "growth", "-m", "5", "-a", "0", "-b", "1", "-c", "1", "-o", out)
        assert rc == 0
        rep = json.loads(open(out).read())
        assert not rep["passed"]
        assert rep["first_violation"] == {"i": 2, "j": 1, "entry": "1/1", "required": "2^1"}

    def test_expectation_mismatch_exits_3(self, capsys, tmp_path):
        rc, _, _ = run(
            capsys, "growth", "-m", "5", "-a", "0", "-b", "1", "-c", "1",
            "--expect", "pass", "-o", str(tmp_path / "g3.json"),
        )
        assert rc == 3


class TestPerturb:
    def test_report(self, capsys, tmp_path):
        out = str(tmp_path / "p.json")
        rc, _, _ = run(
            capsys, "perturb", "-m", "10", "-a", "0", "-b", "1", "-c", "10", "-j", "1",
            "--epsilon", "1e-8", "--trials", "50", "--seed", "11",
            "--max-ratio", "4", "-o", out,
        )
        assert rc == 0
        rep = json.loads(open(out).read())
        assert rep["max_componentwise_error_ratio"] <= 4.0
        assert rep["kappa_bound"] > 2.0

    def test_invalid_epsilon_exits_2(self, capsys, tmp_path):
        rc, _, _ = run(
            capsys, "perturb", "-m", "10", "-j", "1", "--epsilon", "0.5",
            "-o", str(tmp_path / "p.json"),
        )
        assert rc == 2


class TestOverflowingGamma:
    # c/b = 1e610 is beyond the double range although b and c are finite
    @pytest.mark.parametrize(
        "argv",
        [
            ["perturb", "-m", "60", "-j", "1", "--trials", "2"],
            ["cond", "-m", "6"],
            ["growth", "-m", "6"],
        ],
        ids=["perturb", "cond", "growth"],
    )
    def test_exits_2_naming_gamma(self, capsys, tmp_path, argv):
        out = str(tmp_path / "r.json")
        rc, _, err = run(capsys, *argv, "-b", "1e-310", "-c", "1e300", "-o", out)
        assert rc == 2
        assert "gamma = c/b exceeds the double range" in err

    def test_gen_A_needs_no_finite_gamma(self, capsys, tmp_path):
        out = str(tmp_path / "a.mtx")
        rc, stdout, _ = run(capsys, "gen", "-m", "6", "-b", "1e-310", "-c", "1e300", "-o", out)
        assert rc == 0 and "gamma=inf" in stdout
        assert read_matrix_market(out)[2, 1] == -1e300


class TestVerify:
    def test_single_suite(self, capsys, tmp_path):
        out = str(tmp_path / "v.json")
        rc, _, _ = run(
            capsys, "verify", "--suite", "growth", "--max-m", "50", "-o", out,
        )
        assert rc == 0
        rep = json.loads(open(out).read())
        assert rep["passed"] and len(rep["suites"]) == 1

    def test_full_default_campaign(self, capsys, tmp_path):
        out = str(tmp_path / "vfull.json")
        rc, _, _ = run(capsys, "verify", "--max-m", "200", "--max-n", "100", "-o", out)
        assert rc == 0
        rep = json.loads(open(out).read())
        assert rep["passed"]
        assert {s["name"] for s in rep["suites"]} == {
            "omega-identity", "inverse-exact", "eigen-relation", "growth",
            "skeel-consistency", "skeel-bound", "solver-agreement",
        }
        assert all(s["cases"] > 0 for s in rep["suites"])

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nonsense"])
        capsys.readouterr()

    def test_verify_writes_to_stdout_by_default(self, capsys):
        rc, stdout, _ = run(capsys, "verify", "--suite", "growth", "--max-m", "5")
        assert rc == 0
        assert json.loads(stdout)["passed"]

    def test_single_suite_on_explicit_matrix(self, capsys):
        rc, stdout, _ = run(capsys, "verify", "--suite", "growth", "-m", "5", "-c", "5", "-b", "1")
        assert rc == 0
        rep = json.loads(stdout)
        assert rep["passed"] and rep["suites"][0]["name"] == "growth"
