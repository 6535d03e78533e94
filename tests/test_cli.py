import json
import re
import time
import tracemalloc

import pytest

from antikahler import catalog, geometry
from antikahler.cli.main import build_parser, main
from antikahler.cli.textio import (
    MAX_DIM,
    StructureFileError,
    StructureSyntaxError,
    format_structure,
    parse_structure,
)
from antikahler.liealg import LieAlgebra
from corpora import SPECIAL, fraction_views


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_round_trip_catalog(self):
        for s in SPECIAL:
            text = format_structure(s)
            assert parse_structure(text) == s
            assert format_structure(parse_structure(text)) == text

    def test_algebra_only(self):
        text = "[algebra]\ndim = 3\nbracket e1 e2 = 1 e3\n"
        obj = parse_structure(text)
        assert isinstance(obj, LieAlgebra)
        assert obj.bracket_basis(0, 1) == (0, 0, 1)
        assert format_structure(obj) == text

    def test_comments_and_whitespace(self):
        text = ("# header comment\n[algebra]\n  dim   =  2  # inline\n\n"
                "[metric]\nrow =  1  0\nrow = 0 -1\n"
                "[complex_structure]\nrow = 0 -1\nrow = 1 0\n")
        s = parse_structure(text)
        assert s.g[0][0] == 1

    def test_multi_term_bracket(self):
        text = ("[algebra]\ndim = 4\nbracket e1 e4 = -1 e1 + 1 e4\n")
        obj = parse_structure(text)
        assert obj.bracket_basis(0, 3) == (-1, 0, 0, 1)

    @pytest.mark.parametrize("line", [
        "bracket e1 e1 = 1 e2",
        "bracket e2 e1 = 1 e3",
    ])
    def test_antisymmetry_violation(self, line):
        text = f"[algebra]\ndim = 3\n{line}\n"
        with pytest.raises(StructureFileError) as err:
            parse_structure(text)
        assert err.value.code == "AntisymmetryViolation"
        assert err.value.line == 3

    def test_duplicate_bracket_is_syntax_error(self):
        text = ("[algebra]\ndim = 3\nbracket e1 e2 = 1 e3\n"
                "bracket e1 e2 = 2 e3\n")
        with pytest.raises(StructureSyntaxError) as err:
            parse_structure(text)
        assert err.value.line == 4

    def test_jacobi_violation(self):
        text = ("[algebra]\ndim = 3\nbracket e1 e2 = 1 e3\n"
                "bracket e1 e3 = 1 e1\n")
        with pytest.raises(StructureFileError) as err:
            parse_structure(text)
        assert err.value.code == "JacobiViolation"

    def test_not_anti_isometry(self):
        text = ("[algebra]\ndim = 4\n[metric]\n"
                "row = 1 0 0 0\nrow = 0 1 0 0\nrow = 0 0 1 0\nrow = 0 0 0 1\n"
                "[complex_structure]\n"
                "row = 0 -1 0 0\nrow = 1 0 0 0\nrow = 0 0 0 -1\nrow = 0 0 1 0\n")
        with pytest.raises(StructureFileError) as err:
            parse_structure(text)
        assert err.value.code == "NotAntiIsometry"

    def test_singular_metric(self):
        text = ("[algebra]\ndim = 2\n[metric]\nrow = 0 0\nrow = 0 0\n"
                "[complex_structure]\nrow = 0 -1\nrow = 1 0\n")
        with pytest.raises(StructureFileError) as err:
            parse_structure(text)
        assert err.value.code == "SingularMetric"

    def test_bad_j_square(self):
        text = ("[algebra]\ndim = 2\n[metric]\nrow = 1 0\nrow = 0 -1\n"
                "[complex_structure]\nrow = 1 0\nrow = 0 1\n")
        with pytest.raises(StructureFileError) as err:
            parse_structure(text)
        assert err.value.code == "BadJSquare"

    @pytest.mark.parametrize("text", [
        "dim = 3\n",                                    # content before section
        "[algebra]\nbracket e1 e2 = 1 e3\n",            # bracket before dim
        "[algebra]\ndim = 3\nnonsense line\n",
        "[algebra]\ndim = 3\nbracket e1 e2 = 1.5 e3\n",
        "[algebra]\ndim = 3\nbracket e1 e2 = 1 e9\n",
        "[algebra]\ndim = 2\n[metric]\nrow = 1 0\n",    # missing rows/section
        "[unknown]\n",
    ])
    def test_syntax_errors(self, text):
        with pytest.raises((StructureSyntaxError, StructureFileError)):
            parse_structure(text)


    def test_dimension_cap(self):
        assert MAX_DIM == 64
        assert parse_structure(f"[algebra]\ndim = {MAX_DIM}\n").dim == MAX_DIM
        with pytest.raises(StructureSyntaxError) as err:
            parse_structure(f"[algebra]\ndim = {MAX_DIM + 1}\n")
        assert err.value.line == 2

    def test_huge_dimension_allocates_nothing(self):
        text = "[algebra]\ndim = 1000000000\nbracket e1 e2 = 1 e3\n"
        tracemalloc.start()
        try:
            with pytest.raises(StructureSyntaxError) as err:
                parse_structure(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "exceeds the maximum 64" in str(err.value)
        assert peak < 1 << 20


class TestAsciiDigits:
    """Basis tokens, dim and rational entries take ASCII digits only."""

    @pytest.mark.parametrize("text", [
        "[algebra]\ndim = 2\nbracket e1 e\u00b2 = 1 e1\n",
        "[algebra]\ndim = 2\nbracket e1 e\u0662 = 1 e1\n",
        "[algebra]\ndim = \u0662\n",
        "[algebra]\ndim = 1_0\n",
        "[algebra]\ndim = 2\n[metric]\nrow = \u0661 0\nrow = 0 -1\n"
        "[complex_structure]\nrow = 0 -1\nrow = 1 0\n",
    ])
    def test_non_ascii_digit_is_a_syntax_error(self, tmp_path, capsys, text):
        path = tmp_path / "digits.txt"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", str(path), "--output", "machine")
        assert code == 2
        assert json.loads(out)["error"]["class"] == "SyntaxError"

    def test_ascii_forms_still_parse(self):
        text = ("[algebra]\ndim = +2\nbracket e01 e2 = 1 e1\n[metric]\nrow = +1 0\n"
                "row = 0 -1\n[complex_structure]\nrow = 0 -1\nrow = 1 0\n")
        s = parse_structure(text)
        assert s.dim == 2 and s.algebra.bracket_basis(0, 1) == (1, 0)


D2 = "[algebra]\ndim = 2\n"

# argv, input text (None: no file), and the message of every exit-2 path
# that reports a SyntaxError; a parser message starts with its line number
EXIT_2 = {
    "duplicate-section": (["check"], D2 + "[algebra]\n", "line 3: duplicate section [algebra]"),
    "algebra-not-first": (["check"], "[metric]\n", "line 1: [algebra] section must come first"),
    "bad-row-line": (["check"], D2 + "[metric]\nrow 1 0\n", "line 4: expected 'row = ...' line"),
    "rows-before-dim": (["check"], "[algebra]\n[metric]\nrow = 1 0\n",
                        "line 3: dim must be declared before rows"),
    "row-length": (["check"], D2 + "[metric]\nrow = 1 0 0\n", "line 4: expected 2 entries, got 3"),
    "no-algebra": (["check"], "# no sections\n", "line 0: missing [algebra] section"),
    "no-dim": (["check"], "[algebra]\n", "line 1: missing 'dim = N' line"),
    "bracket-index": (["check"], D2 + "bracket e1 e3 = 1 e1\n",
                      "line 3: basis index out of range e1 e3"),
    "row-count": (["check"], D2 + "[metric]\nrow = 1 0\n[complex_structure]\nrow = 0 -1\n"
                  "row = 1 0\n", "line 3: [metric] needs exactly 2 row lines"),
    "bad-dim": (["check"], "[algebra]\ndim = two\n", "line 2: bad dimension 'two'"),
    "malformed-dim": (["check"], "[algebra]\ndim 2\n", "line 2: expected 'dim = <int>'"),
    "duplicate-dim": (["check"], D2 + "dim = 2\n", "line 3: duplicate dim line"),
    "dim-0": (["check"], "[algebra]\ndim = 0\n", "line 2: dim must be positive"),
    "malformed-bracket": (["check"], D2 + "bracket e1 e2 1 e1\n",
                          "line 3: expected 'bracket e<i> e<j> = ...'"),
    "empty-rhs": (["check"], D2 + "bracket e1 e2 =\n", "line 3: empty bracket right-hand side"),
    "missing-plus": (["check"], D2 + "bracket e1 e2 = 1 e1 1 e2\n",
                     "line 3: expected '+', got '1'"),
    "truncated-term": (["check"], D2 + "bracket e1 e2 = 1\n", "line 3: truncated bracket term"),
    "curvature-on-algebra": (["curvature"], D2,
                             "curvature needs metric and complex-structure sections"),
    "catalog-show": (["catalog", "show"], None, "catalog show/export needs a name"),
    "catalog-export": (["catalog", "export"], None, "catalog show/export needs a name"),
}


@pytest.mark.parametrize("mode", ["human", "machine"])
@pytest.mark.parametrize("argv, text, message", EXIT_2.values(), ids=EXIT_2)
def test_exit_2_names_line_and_message(tmp_path, capsys, argv, text, message, mode):
    if text is not None:
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        argv = argv + [str(path)]
    code, out, err = run_cli(capsys, *argv, "--output", mode)
    assert code == 2 and "Traceback" not in out + err
    if mode == "human":
        assert (out, err) == ("", f"error[SyntaxError] {message}\n")
    else:
        line = re.match(r"line (\d+): |", message)[1] or 0
        assert err == "" and json.loads(out) == {
            "error": {"class": "SyntaxError", "line": int(line), "message": message}}


class TestCommands:
    def test_check_n7(self, tmp_path, capsys):
        path = tmp_path / "n7.txt"
        path.write_text(format_structure(catalog.get("n7_J-1").structure))
        code, out, _ = run_cli(capsys, "check", str(path), "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        predicates = doc["predicates"]
        assert predicates["anti_kahler_nabla"] is True
        assert predicates["anti_kahler_theta"] is True
        assert predicates["flat"] is True
        assert predicates["unimodular"] is True
        assert predicates["abelian_complex_structure"] is True
        assert doc["signature"] == [3, 3, 0]

    def test_check_algebra_only(self, tmp_path, capsys):
        path = tmp_path / "alg.txt"
        path.write_text("[algebra]\ndim = 3\nbracket e1 e2 = 1 e3\n")
        code, out, _ = run_cli(capsys, "check", str(path), "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["structure"] == "algebra"
        assert doc["predicates"]["unimodular"] is True

    def test_huge_dimension_exit_code(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("[algebra]\ndim = 1000000000\nbracket e1 e2 = 1 e3\n")
        code, out, _ = run_cli(capsys, "check", str(path), "--output", "machine")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["class"] == "SyntaxError" and error["line"] == 2

    def test_check_bare_dim_40_is_fast(self, tmp_path, capsys):
        path = tmp_path / "bare.txt"
        path.write_text("[algebra]\ndim = 40\n")
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "check", str(path), "--output", "machine")
        elapsed = time.perf_counter() - start
        assert code == 0
        doc = json.loads(out)
        assert doc["predicates"] == {"unimodular": True, "abelian": True}
        assert (doc["derived_dim"], doc["center_dim"]) == (0, 40)
        assert elapsed < 1.0

    def test_classify_affc(self, tmp_path, capsys):
        path = tmp_path / "aff.txt"
        path.write_text(format_structure(catalog.get("affC_std").structure))
        code, out, _ = run_cli(capsys, "classify", str(path), "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "affC"
        assert doc["zeta"] == "1 + 0i"
        assert doc["einstein"] is True
        assert doc["lambda"] == "-2"

    def test_classify_non_anti_kahler_exits_1(self, tmp_path, capsys):
        text = ("[algebra]\ndim = 4\nbracket e1 e2 = 1 e3\n[metric]\n"
                "row = 1 0 0 0\nrow = 0 -1 0 0\nrow = 0 0 1 0\nrow = 0 0 0 -1\n"
                "[complex_structure]\n"
                "row = 0 -1 0 0\nrow = 1 0 0 0\nrow = 0 0 0 -1\nrow = 0 0 1 0\n")
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "classify", str(path), "--output", "machine")
        assert code == 1
        doc = json.loads(out)
        assert doc["anti_kahler"] is False
        assert doc["error"]["class"] == "NotAntiKahler"

    def test_curvature_dump(self, tmp_path, capsys):
        path = tmp_path / "aff.txt"
        path.write_text(format_structure(catalog.get("affC_std").structure))
        code, out, _ = run_cli(capsys, "curvature", str(path), "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        # nabla_X X = -Y for t = (1,0,0,0)
        assert doc["gamma"][0][0] == ["0", "0", "-1", "0"]
        assert doc["ricci"][0][0] == "-2"
        # machine numbers are rational strings, never floats
        assert "." not in out

    def test_curvature_human_lists_nonzero(self, tmp_path, capsys):
        path = tmp_path / "n7.txt"
        path.write_text(format_structure(catalog.get("n7_J-1").structure))
        code, out, _ = run_cli(capsys, "curvature", str(path))
        assert code == 0
        assert "nabla e1 e1 = -1/2 e3" in out
        assert "flat: true" in out

    def test_catalog_list_show_export(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == 0
        assert "n7_J-1" in out
        code, out, _ = run_cli(capsys, "catalog", "show", "sl2c_killing",
                               "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["einstein"] is True and doc["lambda"] == "1/4"
        code, out, _ = run_cli(capsys, "catalog", "export", "n7_J-1")
        assert code == 0
        assert parse_structure(out) == catalog.get("n7_J-1").structure

    def test_catalog_unknown(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "show", "bogus")
        assert code == 2
        assert "UnknownEntry" in err

    def test_verify_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "worked_example_n7",
                               "--seed", "3", "--samples", "3")
        assert code == 0
        assert out.endswith("result: PASS\n")

    def test_verify_machine_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "koszul_laws", "--seed", "5",
                                 "--samples", "4", "--output", "machine")
        code2, out2, _ = run_cli(capsys, "verify", "koszul_laws", "--seed", "5",
                                 "--samples", "4", "--output", "machine")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_verify_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "not_a_suite")
        assert code == 2
        assert "UnknownSuite" in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_verify_rejects_non_positive_samples(self, capsys, samples):
        code, out, err = run_cli(capsys, "verify", "koszul_laws",
                                 "--samples", samples)
        assert code == 2
        assert "error[SyntaxError]" in err and "--samples" in err
        assert out == ""
        code, out, _ = run_cli(capsys, "verify", "koszul_laws",
                               "--samples", samples, "--output", "machine")
        assert code == 2
        assert json.loads(out)["error"]["class"] == "SyntaxError"

    def test_non_utf8_input_exit_code(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"[algebra]\ndim = 2 # \xff\n")
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert "error[EncodingError]" in err and out == ""
        code, out, _ = run_cli(capsys, "check", str(path), "--output", "machine")
        assert code == 2
        assert json.loads(out)["error"]["class"] == "EncodingError"

    def test_curvature_command_builds_once(self, tmp_path, capsys, monkeypatch):
        builds = []

        class CountingTensor(geometry.CurvatureTensor):
            def __init__(self, *args):
                builds.append(1)
                super().__init__(*args)

        monkeypatch.setattr(geometry, "CurvatureTensor", CountingTensor)
        path = tmp_path / "sl2c.txt"
        path.write_text(format_structure(catalog.get("sl2c_killing").structure))
        code, _, _ = run_cli(capsys, "curvature", str(path), "--output", "machine")
        assert code == 0
        assert len(builds) == 1

    def test_curvature_machine_builds_no_fraction_operators(self, tmp_path, capsys,
                                                            monkeypatch):
        tensors = []

        class RecordingTensor(geometry.CurvatureTensor):
            def __init__(self, *args):
                super().__init__(*args)
                tensors.append(self)

        monkeypatch.setattr(geometry, "CurvatureTensor", RecordingTensor)
        path = tmp_path / "sl2c.txt"
        path.write_text(format_structure(catalog.get("sl2c_killing").structure))
        with fraction_views() as views:
            code, _, _ = run_cli(capsys, "curvature", str(path), "--output", "machine")
        assert code == 0
        assert [t._fraction_ops for t in tensors] == [None]
        # no Tensor builds Fractions: not Gamma, R, Ricci or the Ricci operator
        assert views == []

    def test_check_machine_builds_no_fraction_view(self, tmp_path, capsys):
        """Every check predicate, the Killing form's included, reads integers."""
        for name in ("sl2c_killing", "n7_J-1"):
            path = tmp_path / f"{name}.txt"
            path.write_text(format_structure(catalog.get(name).structure))
            with fraction_views() as views:
                code, out, _ = run_cli(capsys, "check", str(path), "--output", "machine")
            assert code == 0 and "killing_anti_invariant" in out
            assert views == []

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("[algebra]\ndim = 3\nbracket e1 e1 = 1 e2\n")
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert "AntisymmetryViolation" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent/file.txt")
        assert code == 2

    def test_machine_error_document(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("[algebra]\ndim = 3\nbracket e1 e1 = 1 e2\n")
        code, out, _ = run_cli(capsys, "check", str(path), "--output", "machine")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["class"] == "AntisymmetryViolation"
        assert doc["error"]["line"] == 3


class TestParserReuse:
    """main() parses every call with one parser built on its first call."""

    def test_usage_error_exits_2(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["check"])
            assert exc.value.code == 2
            assert "usage:" in capsys.readouterr().err

    def test_defaults_do_not_carry_over(self, capsys):
        argv = ["verify", "koszul_laws", "--seed", "5", "--output", "machine"]
        code, out, _ = run_cli(capsys, *argv, "--samples", "3")
        assert code == 0 and json.loads(out)["samples"] == 3
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["samples"] == 12

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()
