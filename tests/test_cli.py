import csv
import io
import json
import re
from fractions import Fraction

import pytest

from pqsurf.cli import main, parse_polynomial
from pqsurf.errors import ParseError
from pqsurf.inputs import fixture_path

BEAUVILLE = str(fixture_path("beauville_55.pq"))
TOY = str(fixture_path("z2_hyperelliptic.pq"))
ROWS = str(fixture_path("table_c1sq6.rows"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHJ:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "hj", "5", "2")
        assert code == 0
        assert "[3, 2]" in out
        assert "determinant 5" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "hj", "7", "3", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema_version"] == 1
        assert payload["expansion"] == [3, 2, 2]
        assert payload["dual_a"] == 5
        assert abs(payload["determinant"]) == 7

    def test_validation_error_exit_code(self, capsys):
        code, _, err = run(capsys, "hj", "4", "2")
        assert code == 3 and "error:" in err


class TestInvariants:
    def test_beauville_text(self, capsys):
        code, out, _ = run(capsys, "invariants", BEAUVILLE)
        assert code == 0
        assert "K^2            8" in out
        assert "e              4" in out
        assert "singularities  none" in out

    def test_toy_json(self, capsys):
        code, out, _ = run(capsys, "invariants", TOY, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["Ksq"] == 4 and payload["e"] == 56 and payload["pg"] == 4
        assert payload["singularities"] == [{"n": 2, "a": 1, "count": 36}]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "invariants", "/nonexistent.pq")
        assert code == 2 and "error:" in err

    def test_group_order_cap(self, capsys):
        code, _, err = run(capsys, "--max-group-order", "10", "invariants", BEAUVILLE)
        assert code == 3


class TestSingularities:
    def test_beauville_empty(self, capsys):
        code, out, _ = run(capsys, "singularities", BEAUVILLE)
        assert code == 0 and "no singular points" in out

    def test_toy_json(self, capsys):
        code, out, _ = run(capsys, "singularities", TOY, "--json")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["singularities"]) == 36
        assert all(e["n"] == 2 and e["a"] == 1 for e in payload["singularities"])


class TestBounds:
    def test_toy_text(self, capsys):
        code, out, _ = run(capsys, "bounds", TOY)
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("N", "M", "F"))]
        assert len(lines) == 14  # F1, F2, 6 N, 6 M
        assert all(l.rstrip().endswith("True") for l in lines)

    def test_beauville_json(self, capsys):
        code, out, _ = run(capsys, "bounds", BEAUVILLE, "--json")
        payload = json.loads(out)
        assert code == 0
        assert all(r["satisfied"] for r in payload["curves"])
        assert all(g["genus"] == 2 for g in payload["central_genera"])
        assert payload["lemma_cc_asserted"] is False  # K^2 = 8, not the c1^2 = 6 class
        assert payload["rational_centrals"] == []


class TestLattice:
    def test_string_oriented_by_dual_type(self, capsys, tmp_path):
        # a valid Z/5 system whose N1^2 is -1 only when the string meeting N1
        # resolves the dual type; the closed form K^2 = 8/5 - (5*9/5 + 4*2/5)
        # of Bauer-Pignatelli gives the same -9
        path = tmp_path / "z5.pq"
        path.write_text(
            "[group]\ndegree = 5\nx = (0 1 2 3 4)\n\n"
            "[system1]\ngenerators = x, x, x^3\n\n[system2]\ngenerators = x, x, x^3\n"
        )
        code, out, _ = run(capsys, "invariants", str(path), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["singularities"] == [{"n": 5, "a": 1, "count": 5}, {"n": 5, "a": 2, "count": 4}]
        assert (payload["e"], payload["Ksq"], payload["chi"], payload["pg"]) == (21, -9, 1, 0)


class TestTable:
    def test_rows_csv(self, capsys):
        code, out, _ = run(capsys, "table", ROWS)
        assert code == 0
        records = list(csv.DictReader(io.StringIO(out)))
        assert len(records) == 6
        assert all(r["e"] == "6" and r["Ksq"] == "6" and r["chi"] == "1" for r in records)
        assert {r["name"] for r in records} >= {"PSL(2,7)", "A6"}

    def test_mixed_sources_json(self, capsys):
        code, out, _ = run(capsys, "table", ROWS, BEAUVILLE, TOY, "--json")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["rows"]) == 8
        by_name = {r["name"]: r for r in payload["rows"] if r["name"]}
        assert by_name["beauville_55"]["Ksq"] == 8
        assert by_name["z2_hyperelliptic"]["e"] == 56

    def test_bad_row_keeps_good_ones(self, capsys, tmp_path):
        bad = tmp_path / "mixed.rows"
        bad.write_text(
            "name,group_order,g1,g2,singularities,ksq\n"
            "good,2,2,2,2/1x36,4\n"
            "bad,2,2,2,2/1x36,5\n"  # K^2 + e = 61, not divisible by 12
        )
        code, out, _ = run(capsys, "table", str(bad))
        records = list(csv.DictReader(io.StringIO(out)))
        assert code == 3
        assert records[0]["error"] == "" and records[0]["chi"] == "5"
        assert "bad" in records[1]["error"]

    def test_dual_types_merge_in_formula_mode(self, capsys, tmp_path):
        # 1/5(1,3) is the dual of 1/5(1,2): one normalized type, as in full mode
        rows = tmp_path / "dup.rows"
        rows.write_text("name,group_order,g1,g2,singularities,ksq\ndup,25,6,6,5/2x2+5/3x3,\n")
        code, out, _ = run(capsys, "table", str(rows))
        (record,) = csv.DictReader(io.StringIO(out))
        assert code == 0
        assert record["singularities"] == "5/2x5"

    def test_empty_rows_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.rows"
        empty.write_text("# nothing here\n")
        code, out, _ = run(capsys, "table", str(empty))
        assert code == 0
        assert out.strip().splitlines()[0].startswith("name,")
        assert len(out.strip().splitlines()) == 1


class TestLocalCheck:
    def test_bare_form(self, capsys):
        code, out, _ = run(capsys, "local-check", "--m", "1", "--section", "1")
        assert code == 0
        assert "mu1^-1 mu2^1 dmu1^2 dmu2^0" in out
        assert "holomorphic: False" in out

    def test_holomorphic_section(self, capsys):
        code, out, _ = run(capsys, "local-check", "--m", "1", "--section", "z1^2 + z2^2")
        assert code == 0
        assert "holomorphic: True" in out
        assert "invariant under (z1,z2) -> (-z1,-z2): True" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "local-check", "--m", "2", "--section", "z1^4", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["holomorphic"] is True
        assert payload["mu1_order"] == "0"

    def test_closed_form_mismatch_exits_4(self, capsys, monkeypatch):
        from pqsurf import differentials

        monkeypatch.setattr(differentials, "gamma_closed_form", lambda s: differentials.PuiseuxDifferential(s.m, ()))
        code, out, err = run(capsys, "local-check", "--m", "2", "--section", "z1^2 + z2^2")
        assert code == 4 and out == ""
        assert err == "error: local-check: the pullback for m = 2 differs from its closed form\n"

    def test_bad_polynomial(self, capsys):
        code, _, err = run(capsys, "local-check", "--m", "1", "--section", "z3^2")
        assert code == 2


class TestPolynomialParser:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("z1", ((1, 0, Fraction(1)),)),
            ("-z2^4", ((0, 4, Fraction(-1)),)),
            ("3*z1^2*z2", ((2, 1, Fraction(3)),)),
            ("1/2", ((0, 0, Fraction(1, 2)),)),
            ("z1*z2 - 2*z2^2", ((1, 1, Fraction(1)), (0, 2, Fraction(-2)))),
        ],
    )
    def test_good(self, text, expected):
        assert parse_polynomial(text) == expected

    @pytest.mark.parametrize("text", ["", "z3", "z1^", "**", "+"])
    def test_bad(self, text):
        with pytest.raises(ParseError):
            parse_polynomial(text)


BIG = "9" * 5000  # more digits than Python converts to an int (4300 by default)
TOO_LONG = "'9999999999...9999999999' has 5000 digits, more than Python converts to an integer"


class TestOversizedLiterals:
    """A literal too long for Python's str -> int conversion is a parse error
    (exit 2) whose one line names the token, not a traceback."""

    @pytest.mark.parametrize(
        "old, new, what",
        [
            ("a = (0 1 2 3 4)", f"a = (0 1 2 3 {BIG})", "point"),
            ("generators = a, b, a^4*b^4", f"generators = a, b, a^{BIG}*b^4", "power"),
        ],
        ids=["cycle-point", "word-power"],
    )
    def test_pq_file(self, capsys, tmp_path, old, new, what):
        path = tmp_path / "big.pq"
        path.write_text(fixture_path("beauville_55.pq").read_text().replace(old, new, 1))
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: {what} {TOO_LONG}\n"

    def test_word_power_in_table_cell(self, capsys, tmp_path):
        path = tmp_path / "big.pq"
        path.write_text(fixture_path("beauville_55.pq").read_text().replace("a^4*b^4", f"a^{BIG}*b^4", 1))
        code, out, err = run(capsys, "table", str(path))
        (record,) = csv.DictReader(io.StringIO(out))
        assert code == 2 and err == ""
        assert record["error"] == f"{path}: power {TOO_LONG}"

    @pytest.mark.parametrize(
        "section, what",
        [(f"z1^{BIG}", "exponent"), (f"{BIG}*z1", "coefficient"), (f"z2 + 1/{BIG}", "denominator")],
        ids=["exponent", "coefficient", "denominator"],
    )
    def test_local_check_section(self, capsys, section, what):
        code, out, err = run(capsys, "local-check", "--m", "1", "--section", section)
        assert code == 2 and out == ""
        assert err == f"error: {what} {TOO_LONG}\n"

    def test_zero_denominator(self, capsys):
        code, out, err = run(capsys, "local-check", "--m", "1", "--section", "z1 - 1/0*z2")
        assert code == 2 and out == ""
        assert err == "error: zero denominator in polynomial term '1/0*z2'\n"


class TestBigness:
    def test_certificate(self, capsys):
        code, out, _ = run(capsys, "bigness", "--ksq", "6", "--chi", "1", "--points", "2")
        assert code == 0
        assert "m* = 4" in out and "lower bound = 1" in out

    def test_no_certificate(self, capsys):
        code, out, _ = run(
            capsys, "bigness", "--ksq", "4", "--chi", "5", "--points", "36"
        )
        assert code == 0 and "no certificate" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "bigness", "--ksq", "8", "--chi", "1", "--points", "0", "--json"
        )
        payload = json.loads(out)
        assert payload["certificate"] == {"m_star": 2, "value": "9"}


PARSE_ERRORS = [
    ("degree = 5\n", "line 1: 'degree = 5' comes before any [section] header"),
    ("[group]\ndegree = 5\ndegree = 6\n", "line 3: option 'degree' in section 'group' already exists"),
    ("[group]\ndegree = 5\n[group]\n", "line 3: section 'group' already exists"),
]
PARSE_ERROR_IDS = ["no-header", "duplicate-key", "duplicate-section"]


class TestInputErrors:
    @pytest.mark.parametrize(
        "row, message",
        [
            ("zero,0,2,2,,", "group order 0"),
            ("negative,-4,2,2,,", "group order -4"),
            ("low_g1,2,1,3,,", "at least 2"),
            ("low_g2,2,3,0,,", "at least 2"),
            # 1/n(1,n-1) has a string of n - 1 components: refused before it is expanded
            ("huge_point,2,2,2,1000000000001/1000000000000x1,", "above the ceiling 100000"),
        ],
    )
    def test_rows_bad_order_or_genus(self, capsys, tmp_path, row, message):
        path = tmp_path / "bad.rows"
        path.write_text("name,group_order,g1,g2,singularities,ksq\n" + row + "\n")
        code, out, _ = run(capsys, "table", str(path))
        records = list(csv.DictReader(io.StringIO(out)))
        assert code == 3
        assert len(records) == 1
        name = row.split(",")[0]
        assert records[0]["error"].startswith(f"{name}: ") and message in records[0]["error"]

    def test_bad_base_genus(self, capsys, tmp_path):
        path = tmp_path / "bad.pq"
        text = fixture_path("beauville_55.pq").read_text()
        path.write_text(text.replace("base_genus = 0", "base_genus = x", 1))
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "base_genus" in err and "[system1]" in err

    @pytest.mark.parametrize("value", ["1", "-1"])
    def test_nonzero_base_genus(self, capsys, tmp_path, value):
        # only rational bases: refused at parse time, before the group is closed
        path = tmp_path / "bad.pq"
        text = fixture_path("beauville_55.pq").read_text()
        path.write_text(text.replace("base_genus = 0", f"base_genus = {value}", 1))
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "base_genus" in err and "[system1]" in err

    def test_bad_in_scope_flag(self, capsys, tmp_path):
        path = tmp_path / "bad.pq"
        text = fixture_path("beauville_55.pq").read_text()
        path.write_text(text.replace("in_scope_c1sq6 = false", "in_scope_c1sq6 = maybe", 1))
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "in_scope_c1sq6" in err and "[flags]" in err

    def test_no_section_header(self, capsys, tmp_path):
        path = tmp_path / "bare.pq"
        path.write_text("degree = 5\n")
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "line 1" in err

    def test_no_section_header_in_table_cell(self, capsys, tmp_path):
        path = tmp_path / "bare.pq"
        path.write_text("degree = 5\n")
        code, out, _ = run(capsys, "table", str(path))
        (record,) = csv.DictReader(io.StringIO(out))
        assert code == 2
        assert "line 1" in record["error"] and "\n" not in record["error"]

    @pytest.mark.parametrize("command", ["invariants", "singularities", "bounds"])
    @pytest.mark.parametrize("text, message", PARSE_ERRORS, ids=PARSE_ERROR_IDS)
    def test_parse_error_names_the_file(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "bad.pq"
        path.write_text(text)
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("text, message", PARSE_ERRORS, ids=PARSE_ERROR_IDS)
    def test_parse_error_names_the_file_once_in_table_cell(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.pq"
        path.write_text(text)
        code, out, _ = run(capsys, "table", str(path))
        (record,) = csv.DictReader(io.StringIO(out))
        assert code == 2 and record["error"] == f"{path}: {message}"

    @pytest.mark.parametrize("command", ["invariants", "singularities", "bounds"])
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("generators = a, b, a^4*b^4", "generators = a, c", "unknown generator 'c' in word 'c'"),
            ("generators = a, b, a^4*b^4", "generators = a, b, a^4**b", "bad factor '' in word 'a^4**b'"),
            ("a = (0 1 2 3 4)", "a = (0 1 2 3 4", "bad cycle notation: '(0 1 2 3 4'"),
        ],
        ids=["unknown-generator", "bad-factor", "bad-cycle"],
    )
    def test_realize_parse_error_names_the_file(self, capsys, tmp_path, command, old, new, message):
        # raised after the grammar is parsed, while the words are evaluated
        path = tmp_path / "bad.pq"
        path.write_text(fixture_path("beauville_55.pq").read_text().replace(old, new, 1))
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n"

    def test_realize_parse_error_names_the_file_once_in_table_cell(self, capsys, tmp_path):
        path = tmp_path / "bad.pq"
        path.write_text(fixture_path("beauville_55.pq").read_text().replace("a, b, a^4*b^4", "a, c", 1))
        code, out, err = run(capsys, "table", str(path))
        (record,) = csv.DictReader(io.StringIO(out))
        assert code == 2 and err == ""
        assert record["error"] == f"{path}: unknown generator 'c' in word 'c'"

    def test_rows_file_without_header_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "bad.rows"
        path.write_text("nam,order\nx,2\n")
        code, out, err = run(capsys, "table", ROWS, str(path))
        assert code == 2 and out == ""
        assert err == (
            f"error: {path}: rows file must have columns ['g1', 'g2', 'group_order', 'name', 'singularities']\n"
        )

    def test_rows_line_ending_early(self, capsys, tmp_path):
        path = tmp_path / "short.rows"
        path.write_text("name,group_order,g1,g2,singularities,ksq\nr,2\n")
        code, out, err = run(capsys, "table", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: bad row ") and err.count("\n") == 1
        assert err.endswith(": no value for g1, g2, singularities\n")

    def test_degree_above_ceiling(self, capsys, tmp_path, monkeypatch):
        from pqsurf.groups import Permutation
        from pqsurf.limits import MAX_DEGREE

        def refuse(*args):
            raise AssertionError("a permutation was built")

        monkeypatch.setattr(Permutation, "from_cycles", refuse)
        path = tmp_path / "wide.pq"
        path.write_text("[group]\ndegree = 100000000\nt = (0 1)\n\n[system1]\ngenerators = t, t\n\n"
                        "[system2]\ngenerators = t, t\n")
        for command in ("invariants", "singularities", "bounds"):
            code, out, err = run(capsys, command, str(path))
            assert code == 3 and out == ""
            assert err == f"error: degree = 100000000 in [group] is above the ceiling {MAX_DEGREE}\n"

    @pytest.mark.parametrize("degree", ["0", "-3"])
    def test_degree_below_one(self, capsys, tmp_path, degree):
        path = tmp_path / "bad.pq"
        path.write_text(f"[group]\ndegree = {degree}\nt = ()\n\n[system1]\ngenerators = t, t\n\n"
                        "[system2]\ngenerators = t, t\n")
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: degree = {degree} in [group]") and err.count("\n") == 1

    def test_degree_one_is_a_trivial_group(self, capsys, tmp_path):
        # the only permutation of one point is the identity, of order 1
        path = tmp_path / "one.pq"
        path.write_text("[group]\ndegree = 1\nt = ()\n\n[system1]\ngenerators = t, t\n\n"
                        "[system2]\ngenerators = t, t\n")
        for command in ("invariants", "singularities", "bounds"):
            code, out, err = run(capsys, command, str(path))
            assert code == 3 and out == ""
            assert err == "error: invalid spherical system: signature entry 1 < 2\n"

    def test_upper_case_generator_names(self, capsys, tmp_path):
        path = tmp_path / "beauville_55.pq"
        text = fixture_path("beauville_55.pq").read_text()
        text = re.sub(r"(?m)^([ab]) = ", lambda m: m[1].upper() + " = ", text)
        text = re.sub(r"(?m)^(generators = )(.*)$", lambda m: m[1] + m[2].upper(), text)
        assert "A = (0 1 2 3 4)" in text and "generators = A, B, A^4*B^4" in text
        path.write_text(text)
        code, out, _ = run(capsys, "invariants", str(path), "--json")
        _, want, _ = run(capsys, "invariants", BEAUVILLE, "--json")
        assert code == 0 and out == want

    def test_hj_above_ceiling(self, capsys):
        from pqsurf.limits import MAX_HJ_ORDER

        n = MAX_HJ_ORDER + 1
        code, out, err = run(capsys, "hj", str(n), str(n - 1))
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and str(MAX_HJ_ORDER) in err

    @pytest.mark.parametrize(
        "ceiling, flag, argv",
        [
            ("MAX_LOCAL_M", "--m", ["local-check", "--section", "z1^2", "--m", None]),
            ("MAX_CERTIFICATE_SEARCH", "--max-m", ["bigness", "--ksq", "1", "--chi", "1", "--points", "8", "--max-m", None]),
            ("MAX_ORDER_CAP", "--max-group-order", ["--max-group-order", None, "invariants", BEAUVILLE]),
        ],
    )
    def test_above_ceiling(self, capsys, ceiling, flag, argv):
        # refused before any work; only ceiling + 1 is run
        from pqsurf import limits

        value = str(getattr(limits, ceiling) + 1)
        code, out, err = run(capsys, *(value if a is None else a for a in argv))
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and flag in err and value in err
