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


class TestInputErrors:
    @pytest.mark.parametrize(
        "row, message",
        [
            ("zero,0,2,2,,", "group order 0"),
            ("negative,-4,2,2,,", "group order -4"),
            ("low_g1,2,1,3,,", "at least 2"),
            ("low_g2,2,3,0,,", "at least 2"),
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
