import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pqsurf
from pqsurf import bounds, differentials, hj, inputs, surface
from pqsurf.cli import main, parse_polynomial
from pqsurf.errors import EngineInconsistencyError, ParseError, PQError, ValidationError
from pqsurf.limits import MAX_DIGITS, shortened
from tests.conftest import fixture_path

BEAUVILLE = str(fixture_path("beauville_55.pq"))
TOY = str(fixture_path("z2_hyperelliptic.pq"))
A5 = str(fixture_path("a5_255_335.pq"))
DATA = Path(__file__).resolve().parent / "data"
Z5 = str(DATA / "z5_orientation.pq")
ROWS = str(fixture_path("table_c1sq6.rows"))
# every shipped .pq file and every one under tests/data, by its name relative to its folder
PQ_FILES = {path.name: str(path) for path in Path(BEAUVILLE).parent.glob("*.pq")} | {
    str(path.relative_to(DATA)): str(path) for path in DATA.rglob("*.pq")}


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


def _cover_genus_plus_one(build):
    def wrapped(sys1, sys2):
        model = build(sys1, sys2)
        model.g2 += 1
        return model
    return wrapped


def _first_point_dualized(enumerate_singularities):
    """The locus with its first point of order n > 2 retyped (n, a) -> (n, n - a);
    a locus without one is left as it is."""
    def wrapped(sys1, sys2):
        locus = enumerate_singularities(sys1, sys2)
        points = list(locus.points)
        k = next((k for k, p in enumerate(points) if p.type.n > 2), None)
        if k is None:
            return locus
        n, a = points[k].type
        points[k] = points[k]._replace(type=hj.SingularityType(n, n - a))
        return locus._replace(points=tuple(points))
    return wrapped


def _string_of_n_over_a(type_data):
    """Type records whose string expands n/a, not the dual n/a'."""
    return lambda t: type_data(t)._replace(b=tuple(hj.hj_expand(t.n, t.a)))


# one injected fault per engine gate: (owner, attribute, wrapper of the original, command, error
# line); an error of a command that reads a .pq file names the file first
ENGINE_FAULTS = {
    "hj-determinant": (hj, "leading_minors", lambda f: lambda b: [*f(b)[:-1], f(b)[-1] + 1],
                       ["hj", "7", "3"], "|det| = 6 != n = 7 for string [3, 2, 2]"),
    "hj-evaluate": (hj, "hj_evaluate", lambda f: lambda b: f(b) + 1,
                    ["hj", "7", "3"], "string [3, 2, 2] does not evaluate to n/a = 7/3"),
    "ksq-integer": (surface.SurfaceModel, "intersect", lambda f: lambda m, a, b: f(m, a, b) + Fraction(1, 2),
                    ["invariants", BEAUVILLE], "K^2 = 17/2 is not an integer"),
    "chi-integer": (surface.SurfaceModel, "intersect", lambda f: lambda m, a, b: f(m, a, b) + 1,
                    ["invariants", BEAUVILLE], "chi = (K^2 + e)/12 = 13/12 is not a positive integer"),
    "adjunction-parity": (surface.SurfaceModel, "lattice_numbers", lambda f: lambda m, c: (f(m, c)[0] + 1, *f(m, c)[1:]),
                          ["bounds", TOY], "adjunction gives 2g - 2 = 3 on F1"),
    "adjunction-sign": (surface.SurfaceModel, "lattice_numbers", lambda f: lambda m, c: (-4 - f(m, c)[2], *f(m, c)[1:]),
                        ["bounds", TOY], "adjunction gives negative genus on F1"),
    "tangent-case": (bounds, "_string_defect", lambda f: lambda m, c: (f(m, c)[0] + f(m, c)[1], f(m, c)[1]),
                     ["bounds", TOY], "Y.E + Y^2 = 3 != r - sum a/n = 4 on N1"),
    "riemann-hurwitz": (surface, "build_surface_model", _cover_genus_plus_one,
                        ["bounds", TOY], "Riemann-Hurwitz gives 2g - 2 = -1 on N1"),
    "rank-h11": (inputs, "euler_chi_pg", lambda f: lambda *args: (*f(*args)[:2], f(*args)[2] + 1),
                 ["invariants", BEAUVILLE], "rank 2 + sum l_x = 2 exceeds h^1,1 = e - 2 - 2 p_g = 0"),
    # K^2 + 12 keeps chi integral and the rank under h^1,1 on the toy surface
    "ksq-closed-form": (surface.SurfaceModel, "intersect", lambda f: lambda m, a, b: f(m, a, b) + 12,
                        ["invariants", TOY], "K^2 = 16 from the lattice != 8(g1-1)(g2-1)/|G| - sum k_x = 4"),
    "fibre-relation": (surface, "_string_multiplicities",
                       lambda f: lambda b, n, m, first_end: (*f(b, n, m, first_end)[:-1],
                                                             f(b, n, m, first_end)[-1] + first_end),
                       ["invariants", TOY], "fibre relation fails in cell (1, 1): (2 N1 + sum d Z).M1 = 2 != F1.M1 = 1"),
    "central-self-intersection": (surface, "enumerate_singularities", _first_point_dualized,
                                  ["invariants", A5], "central component N2 has non-integral self-intersection -8/5"),
    # only a point whose cell lacks its dual type shows the orientation of its string
    "string-orientation": (surface, "_type_data", _string_of_n_over_a,
                           ["bounds", Z5], "adjunction gives 2g - 2 = -1 on N3"),
    # e + 36, chi + 3 and p_g + 3 keep Noether's divisibility on the toy surface's 36 nodes
    "euler-zeuthen-segre": (inputs, "string_length", lambda f: lambda t: f(t) + 1,
                            ["invariants", TOY], "e = 92 != 56 by Zeuthen-Segre on S -> C1/G"),
    # the section passed its check, so a pullback term of the wrong degree is the engine's
    "puiseux-degree": (differentials, "_multiply",
                       lambda f: lambda x, y: {(p, q, a + 1, b): c for (p, q, a, b), c in f(x, y).items()},
                       ["local-check", "--m", "2", "--section", "z1^2 + z2^2"],
                       "local-check: every term must have total differential degree 2m"),
}


@pytest.mark.parametrize("fault", sorted(ENGINE_FAULTS))
def test_engine_gate_exits_4(capsys, monkeypatch, fault):
    owner, name, wrap, argv, message = ENGINE_FAULTS[fault]
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    code, out, err = run(capsys, *argv)
    named = f"{argv[1]}: " if argv[1].endswith(".pq") else ""
    assert code == 4 and out == ""
    assert err == f"error: {named}{message}\n"


@pytest.mark.parametrize("name", sorted(PQ_FILES))
def test_string_length_fault_exits_4_wherever_there_is_a_string(capsys, monkeypatch, name):
    # Zeuthen-Segre reads the model's strings, so their lengths in e cannot drift unseen
    path = PQ_FILES[name]
    code, out, _ = run(capsys, "invariants", path, "--json")
    assert code == 0
    monkeypatch.setattr(inputs, "string_length", lambda t, f=inputs.string_length: f(t) + 1)
    if json.loads(out)["singularities"]:
        code, out, err = run(capsys, "invariants", path, "--json")
        assert code == 4 and out == "" and err.startswith(f"error: {path}: ")
    else:
        assert run(capsys, "invariants", path, "--json") == (0, out, "")


def test_string_orientation_shows_on_one_fixture_only(monkeypatch):
    # every asymmetric type of the other inputs shares its cell with its dual, so
    # reversing every string only swaps the two: z5_orientation.pq is the one witness
    from tests.test_golden_outputs import CASES, EXIT_CODES, GOLDEN, run as run_case

    monkeypatch.setattr(surface, "_type_data", _string_of_n_over_a(surface._type_data))
    codes = json.loads(EXIT_CODES.read_text())
    for case, argv in sorted(CASES.items()):
        if Z5 not in argv:
            assert run_case(argv) == (codes[case], (GOLDEN / f"{case}.out").read_bytes()), case


@pytest.mark.parametrize("error, code", [(ParseError, 2), (ValidationError, 3), (EngineInconsistencyError, 4),
                                         (PQError, 3)])
def test_main_returns_the_exit_code_of_the_error_class(capsys, monkeypatch, error, code):
    def fail(n, a):
        raise error("raised in hj")

    monkeypatch.setattr(hj, "hj_expand", fail)  # cmd_hj imports it when it runs
    assert error.exit_code == code
    assert run(capsys, "hj", "7", "3") == (code, "", "error: raised in hj\n")


class TestPolynomialParser:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("z1", ((1, 0, Fraction(1)),)),
            ("-z2^4", ((0, 4, Fraction(-1)),)),
            ("3*z1^2*z2", ((2, 1, Fraction(3)),)),
            ("1/2", ((0, 0, Fraction(1, 2)),)),
            ("z1*z2 - 2*z2^2", ((1, 1, Fraction(1)), (0, 2, Fraction(-2)))),
            ("z2*z1", ((1, 1, Fraction(1)),)),  # factors in either order
            ("z2^2*z1^3", ((3, 2, Fraction(1)),)),
            ("- 3 * z2*z1^0", ((0, 1, Fraction(-3)),)),
            ("z1 + + z2", ((1, 0, Fraction(1)), (0, 1, Fraction(1)))),  # empty terms between + are skipped
        ],
    )
    def test_good(self, text, expected):
        assert parse_polynomial(text) == expected

    @pytest.mark.parametrize("text", ["", "z3", "z1^", "**", "+"])
    def test_bad(self, text):
        with pytest.raises(ParseError):
            parse_polynomial(text)

    @pytest.mark.parametrize(
        "text, quoted",
        [
            ("2*-z1", "2*-z1"),  # a sign after * stays in its term
            ("z1 + 2* -z2", "2* -z2"),
            ("2*", "2*"),
            ("z1*", "z1*"),
            ("*z1", "*z1"),
            ("z1^-1", "z1^-1"),
            ("-z2^-3", "z2^-3"),
            ("z1*z1", "z1*z1"),
            ("2*1/2*z1", "2*1/2*z1"),
            ("3z1", "3z1"),
            ("z1 - - z2", "-"),
            ("z1 -", "-"),
        ],
    )
    def test_bad_term_is_quoted_whole(self, text, quoted):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text)
        assert str(info.value) == f"bad polynomial term {quoted!r}"

    def test_sign_after_star_exits_2(self, capsys):
        code, out, err = run(capsys, "local-check", "--m", "1", "--section", "2*-z1")
        assert code == 2 and out == ""
        assert err == "error: bad polynomial term '2*-z1'\n"

    def test_leading_minus_as_one_argument(self, capsys):
        # argparse reads `--section -z1` as a missing value; `--section=-z1` passes it
        code, out, err = run(capsys, "local-check", "--m", "1", "--section=-z1", "--json")
        assert code == 0 and err == ""
        assert json.loads(out)["terms"] == json.loads(
            run(capsys, "local-check", "--m", "1", "--section", "0 - z1", "--json")[1])["terms"]


BIG = "9" * 5000  # more digits than Python converts to an int (4300 by default)
SHORTENED = "'9999999999...9999999999'"
TOO_LONG = f"{SHORTENED} has 5000 digits, more than Python converts to an integer"
PARSED = "9" * 4000  # converts, but no check downstream accepts it
CONVERTS = "9" * 4300  # the most digits Python converts to an int, and writes back as text
PRIMES = [p for p in range(2, 1224) if all(p % q for q in range(2, math.isqrt(p) + 1))]
ODD_PRIMES = [p for p in range(3, 12570) if all(p % q for q in range(2, math.isqrt(p) + 1))]  # the first 1500


class TestOversizedLiterals:
    """A literal too long for Python's str -> int conversion is a parse error
    (exit 2) whose one line names the token, not a traceback.  A long value
    quoted in an error shows its first and last ten characters only."""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("a = (0 1 2 3 4)", f"a = (0 1 2 3 {BIG})", f"point {TOO_LONG}"),
            ("generators = a, b, a^4*b^4", f"generators = a, b, a^{BIG}*b^4", f"power {TOO_LONG}"),
            ("degree = 10", f"degree = {BIG}", f"bad degree {SHORTENED}"),
            ("degree = 10", "degree = 1_0", "bad degree '1_0'"),  # int() alone reads 10
            ("base_genus = 0", f"base_genus = {BIG}", f"bad base_genus {SHORTENED} in [system1]"),
            ("in_scope_c1sq6 = false", f"in_scope_c1sq6 = {BIG}", f"bad in_scope_c1sq6 {SHORTENED} in [flags]"),
        ],
        ids=["cycle-point", "word-power", "degree", "degree-underscore", "base-genus", "in-scope"],
    )
    def test_pq_file(self, capsys, tmp_path, old, new, message):
        path = tmp_path / "big.pq"
        path.write_text(fixture_path("beauville_55.pq").read_text().replace(old, new, 1))
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n" and len(err.encode()) < 300

    @pytest.mark.parametrize(
        "row, message",
        [
            (f"Z2xD4,{BIG},3,7,2/1x2,6", f"bad row 'Z2xD4': group_order {TOO_LONG}"),
            (f"Z2xD4,16,{BIG},7,2/1x2,6", f"bad row 'Z2xD4': g1 {TOO_LONG}"),
            (f"Z2xD4,16,3,{BIG},2/1x2,6", f"bad row 'Z2xD4': g2 {TOO_LONG}"),
            (f"Z2xD4,16,3,7,2/1x2,{BIG}", f"bad row 'Z2xD4': ksq {TOO_LONG}"),
            (f"Z2xD4,16,3,7,2/1x{BIG},6", f"bad row 'Z2xD4': singularity count {TOO_LONG}"),
            (f"{'n' * 5000},x,3,7,2/1x2,6", "bad row 'nnnnnnnnnn...nnnnnnnnnn': group_order 'x' is not an integer"),
            ("Z2xD4,16,3,7,2/1x2,1_0", "bad row 'Z2xD4': ksq '1_0' is not an integer"),
        ],
        ids=["group-order", "g1", "g2", "ksq", "singularity-count", "long-name", "ksq-underscore"],
    )
    def test_rows_file(self, capsys, tmp_path, row, message):
        path = tmp_path / "big.rows"
        path.write_text(f"name,group_order,g1,g2,singularities,ksq\n{row}\n")
        code, out, err = run(capsys, "table", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n" and len(err.encode()) < 300

    def test_word_power_in_table_cell(self, capsys, tmp_path):
        path = tmp_path / "big.pq"
        path.write_text(fixture_path("beauville_55.pq").read_text().replace("a^4*b^4", f"a^{BIG}*b^4", 1))
        code, out, err = run(capsys, "table", str(path))
        (record,) = csv.DictReader(io.StringIO(out))
        assert code == 2 and err == ""
        assert record["error"] == f"{path}: power {TOO_LONG}"

    @pytest.mark.parametrize(
        "old, new, code, message",
        [
            ("signature = 5, 5, 5", f"signature = 5, 5, {PARSED}", 3,
             "declared signature (5, 5, 999...999999999) != derived (5, 5, 5)"),
            ("a^4*b^4", f"a^4*{'!' * 3000}", 2, "bad factor '!!!!!!!!!!...!!!!!!!!!!' in word 'a^4*!!!!!!...!!!!!!!!!!'"),
            ("a^4*b^4", f"a^4*{'c' * 3000}", 2,
             "unknown generator 'cccccccccc...cccccccccc' in word 'a^4*cccccc...cccccccccc'"),
        ],
        ids=["declared-signature", "bad-factor", "unknown-generator"],
    )
    def test_value_that_parses_but_fails_later(self, capsys, tmp_path, old, new, code, message):
        # the value fits an int, or is a word, and is refused by a later check
        path = tmp_path / "big.pq"
        path.write_text(fixture_path("beauville_55.pq").read_text().replace(old, new, 1))
        got, out, err = run(capsys, "invariants", str(path))
        assert got == code and out == ""
        assert err.endswith(f"{message}\n") and err.count("\n") == 1 and len(err.encode()) < 300

    @pytest.mark.parametrize(
        "row, message",
        [
            (f"r,-{PARSED},3,7,2/1x2,6", "group order -999999999...9999999999 is not positive"),
            (f"r,16,-{PARSED},7,2/1x2,6", "g1, g2 = -999999999...9999999999, 7: both genera must be at least 2"),
            (f"r,16,3,7,{PARSED}/1x1,6",
             "1/9999999999...9999999999(1,1): n is above the ceiling 100000 of the group order"),
        ],
        ids=["group-order", "g1", "point-order"],
    )
    def test_rows_value_that_parses_but_fails_later(self, capsys, tmp_path, row, message):
        path = tmp_path / "big.rows"
        path.write_text(f"name,group_order,g1,g2,singularities,ksq\n{row}\n")
        code, out, err = run(capsys, "table", str(path))
        (record,) = csv.DictReader(io.StringIO(out))
        assert code == 3 and err == ""
        assert record["error"] == f"r: {message}" and len(out.encode()) < 300

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("a = (0 1 2 3 4)", "a = (" + " ".join(map(str, range(199))) + " 0)",
             "repeated point inside a cycle: '(0 1 2 3 4...197 198 0)'"),
            ("a = (0 1 2 3 4)", f"a = (0 1 2 3 {PARSED})", "point 9999999999...9999999999 out of domain 0..9"),
            ("a = (0 1 2 3 4)", "a = " + "(0 1)" * 400, "cycles are not disjoint: '(0 1)(0 1)...(0 1)(0 1)'"),
            ("a = (0 1 2 3 4)", "a = " + "(0 1" * 400, "bad cycle notation: '(0 1(0 1(0... 1(0 1(0 1'"),
            ("[group]\n", f"[group]\n{'k' * 2000} = ()\n{'k' * 2000} = ()\n",
             "line 4: option 'kkkkkkkkkk...kkkkkkkkkk' in section 'group' already exists"),
            ("[flags]", f"[{'s' * 2000}]\n[{'s' * 2000}]", "line 18: section 'ssssssssss...ssssssssss' already exists"),
        ],
        ids=["repeated-point", "huge-point", "overlapping-cycles", "bad-notation", "repeated-key", "repeated-section"],
    )
    def test_long_cycle_key_or_section(self, capsys, tmp_path, old, new, message):
        path = tmp_path / "long.pq"
        path.write_text(fixture_path("beauville_55.pq").read_text().replace(old, new, 1))
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n" and len(err.encode()) < 300

    @pytest.mark.parametrize(
        "singularities, ksq, message",
        [
            # 200 distinct primes p, each 1/p(1,p-1): e has their product as denominator
            ("+".join(f"{p}/{p - 1}x1" for p in PRIMES), "", "Euler number 5520170531...8203880710 is not an integer"),
            ("2/1x36", PARSED, "chi = (K^2 + e)/12 = 1000000000...0000055/12 is not a positive integer"),
            # the product of the first 1500 odd primes has 5400 digits, more than Python writes as text
            ("+".join(f"{p}/{p - 1}x1" for p in ODD_PRIMES), "",
             "Euler number 3618148469...8431036045 is not an integer"),
            ("2/1x36", CONVERTS, "chi = (K^2 + e)/12 = 1000000000...0000055/12 is not a positive integer"),
        ],
        ids=["euler", "chi", "euler-past-the-digit-limit", "chi-past-the-digit-limit"],
    )
    def test_rows_long_fraction(self, capsys, tmp_path, singularities, ksq, message):
        path = tmp_path / "long.rows"
        path.write_text(f"name,group_order,g1,g2,singularities,ksq\nr,2,2,2,{singularities},{ksq}\n")
        code, out, err = run(capsys, "table", str(path))
        (record,) = csv.DictReader(io.StringIO(out))
        assert code == 3 and err == ""
        assert record["error"] == f"r: {message}" and len(out.encode()) < 300

    def test_rows_many_long_strings_expand_none(self, capsys, tmp_path, monkeypatch):
        # 200 points 1/n(1,n-1), n = 99801..100000, each a string of n - 1 twos:
        # the Euler number reads their lengths without expanding a string
        def expand(n, a):
            raise AssertionError("hj_expand called")

        monkeypatch.setattr(hj, "hj_expand", expand)
        ns = range(99801, 100001)
        path = tmp_path / "long.rows"
        path.write_text("name,group_order,g1,g2,singularities\nr,2,2,2," + "+".join(f"{n}/{n - 1}x1" for n in ns) + "\n")
        code, out, err = run(capsys, "table", str(path))
        (record,) = csv.DictReader(io.StringIO(out))
        e = 2 + sum(Fraction(n * n - 1, n) for n in ns)  # 1 - 1/n + (n - 1) per point
        assert code == 3 and err == ""
        assert record["error"] == f"r: Euler number {shortened(str(e))} is not an integer"

    @pytest.mark.parametrize(
        "section, what",
        [(f"z1^{BIG}", "exponent"), (f"{BIG}*z1", "coefficient"), (f"z2 + 1/{BIG}", "denominator")],
        ids=["exponent", "coefficient", "denominator"],
    )
    def test_local_check_section(self, capsys, section, what):
        code, out, err = run(capsys, "local-check", "--m", "1", "--section", section)
        assert code == 2 and out == ""
        assert err == f"error: {what} {TOO_LONG}\n"

    @pytest.mark.parametrize(
        "section, message",
        [("z1^2+" + "q" * 5000, "bad polynomial term 'qqqqqqqqqq...qqqqqqqqqq'"),
         ("+" * 5000, "empty polynomial '++++++++++...++++++++++'")],
        ids=["term", "empty"],
    )
    def test_long_bad_section(self, capsys, section, message):
        code, out, err = run(capsys, "local-check", "--m", "2", "--section", section)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, quoted",
        [(["hj", "7", BIG], SHORTENED),
         (["local-check", "--m", BIG, "--section", "z1"], SHORTENED),
         (["--max-group-order", f"-{BIG}", "hj", "7", "3"], "'-999999999...9999999999'"),
         (["hj", "7", "1_0"], "'1_0'"),  # int() alone reads 10
         (["--max-group-order", "1_0_0", "hj", "7", "3"], "'1_0_0'")],
        ids=["hj", "local-check", "max-group-order", "hj-underscore", "max-group-order-underscore"],
    )
    def test_long_int_argument(self, capsys, argv, quoted):
        with pytest.raises(SystemExit) as info:
            main(argv)
        err = capsys.readouterr().err
        assert info.value.code == 2 and err.startswith("usage: pqsurf")
        assert err.splitlines()[-1].endswith(f": invalid int value: {quoted}")

    def test_zero_denominator(self, capsys):
        code, out, err = run(capsys, "local-check", "--m", "1", "--section", "z1 - 1/0*z2")
        assert code == 2 and out == ""
        assert err == "error: zero denominator in polynomial term '1/0*z2'\n"



class TestLongExactResults:
    """An exact result can have more digits than Python writes as text (4300
    by default) when each input has fewer: such inputs are refused before any
    work, with one line that names the value or the flag, not a traceback.
    Inputs of up to MAX_DIGITS digits are computed and printed in full."""

    @pytest.mark.parametrize("row, what", [(f"r,1,{CONVERTS},{CONVERTS},,", "g1"),
                                           (f"r,1,2,2,2/1x{CONVERTS},", "count")], ids=["genera", "count"])
    def test_table_row(self, capsys, tmp_path, row, what):
        # e = (2 - 2 g1)(2 - 2 g2) / |G| + 3 count / 2 has 8601 and 4301 digits here
        path = tmp_path / "long.rows"
        path.write_text(f"name,group_order,g1,g2,singularities,ksq\n{row}\n")
        code, out, err = run(capsys, "table", str(path))
        (record,) = csv.DictReader(io.StringIO(out))
        assert code == 3 and err == ""
        assert record["error"] == f"r: {what} = {SHORTENED[1:-1]} is above the ceiling of {MAX_DIGITS} digits"

    def test_table_row_at_the_ceiling(self, capsys, tmp_path):
        # g1 = g2 = 10^2000 - 1 and an even count of 2000 digits: e = 4 (g1 - 1)^2
        # + 3 count / 2 has 4001 digits
        g, count = "9" * MAX_DIGITS, "8" * MAX_DIGITS
        path = tmp_path / "long.rows"
        path.write_text(f"name,group_order,g1,g2,singularities,ksq\nr,1,{g},{g},2/1x{count},\n")
        code, out, err = run(capsys, "table", str(path))
        (record,) = csv.DictReader(io.StringIO(out))
        assert code == 0 and err == ""
        assert int(record["e"]) == 4 * (int(g) - 1) ** 2 + 3 * int(count) // 2

    @pytest.mark.parametrize("values, flag", [((CONVERTS, CONVERTS, "0"), "--ksq"), (("1", CONVERTS, "0"), "--chi"),
                                              (("1", "1", CONVERTS), "--points")], ids=["ksq-and-chi", "chi", "points"])
    def test_bigness(self, capsys, values, flag):
        ksq, chi, points = values
        code, out, err = run(capsys, "bigness", "--ksq", ksq, "--chi", chi, "--points", points)
        assert code == 3 and out == ""
        assert err == f"error: bigness {flag} = {SHORTENED[1:-1]} is above the ceiling of {MAX_DIGITS} digits\n"

    @pytest.mark.parametrize("view", [[], ["--json"]], ids=["text", "json"])
    def test_local_check(self, capsys, view):
        code, out, err = run(capsys, "local-check", "--m", "1", "--section", f"z1^{CONVERTS}*z2^{CONVERTS}", *view)
        assert code == 3 and out == ""
        assert err == f"error: local-check --section has 8600 digits in its numbers, above the ceiling {MAX_DIGITS}\n"

    def test_local_check_counts_every_number_of_the_section(self, capsys):
        # two denominators of 1001 and 1002 digits are multiplied when the two
        # coefficients are summed; z1 and z2 name variables and count no digit
        third = "3" * 1001
        code, out, err = run(capsys, "local-check", "--m", "1", "--section", f"z1 + 1/{third}*z2 + 1/{third}7*z2")
        assert code == 3 and out == ""
        assert err == f"error: local-check --section has 2005 digits in its numbers, above the ceiling {MAX_DIGITS}\n"
        at_the_ceiling = f"1/{third}*z1 + 1/{'7' * 997}*z1"  # 2000 digits
        code, out, err = run(capsys, "local-check", "--m", "200", "--section", at_the_ceiling)
        assert code == 0 and err == ""


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

    def test_floors_are_accepted(self, capsys):
        # K^2 = 1, chi = 1 and no points is the smallest input refused by none of the floors
        code, out, _ = run(capsys, "bigness", "--ksq", "1", "--chi", "1", "--points", "0")
        assert code == 0 and out == "m* = 2, section-count lower bound = 2\n"


@pytest.mark.parametrize(
    "argv, flag",
    [(["bigness", "--ksq", "6", "--chi", "1", "--points", "2", "--max-m", "3"], "--max-m 3"),  # m* is exact
     (["table", ROWS, "--csv"], "--csv")],  # CSV is the text view
    ids=["bigness-max-m", "table-csv"],
)
def test_retired_flag_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"unrecognized arguments: {flag}")


PARSE_ERRORS = [
    ("degree = 5\n", "line 1: 'degree = 5' comes before any [section] header"),
    ("[group]\ndegree = 5\ndegree = 6\n", "line 3: option 'degree' in section 'group' already exists"),
    ("[group]\ndegree = 5\n[group]\n", "line 3: section 'group' already exists"),
    ("[group]\ndegree = 5\n[system1]\n[system2]\n", "no group generators given"),
]
PARSE_ERROR_IDS = ["no-header", "duplicate-key", "duplicate-section", "no-generators"]
NOT_UTF8 = b"[group]\ndegree = 2\nt = (0 1)\xff\n"  # byte 28 is 0xff


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
        path.write_text(text.replace("base_genus = 0", "base_genus = 0_0", 1))  # int() alone reads 0
        assert run(capsys, "invariants", str(path)) == (2, "", f"error: {path}: bad base_genus '0_0' in [system1]\n")
        path.write_text(text.replace("signature = 5, 5, 5", "signature = 5, 5, 5_0", 1))
        assert run(capsys, "invariants", str(path)) == (2, "", f"error: {path}: bad signature in [system1]\n")

    @pytest.mark.parametrize("section", ["system1", "system2"])
    @pytest.mark.parametrize("words", ["t,,t, t, t , t,t", "t, t, t, t, t, t,", ",t, t, t, t, t, t",
                                       "t, t, t, , t, t, t", ""],
                             ids=["double-comma", "trailing-comma", "leading-comma", "blank-word", "no-word"])
    def test_empty_generator_word(self, capsys, tmp_path, section, words):
        # each of these held six words t once the empty ones were dropped, and
        # `generators =` held none: exit 0, and exit 3 for the empty system
        path = tmp_path / "toy.pq"
        good = "generators = t, t, t, t, t, t\n"
        text = f"[group]\ndegree = 2\nt = (0 1)\n\n[system1]\n{good}\n[system2]\n{good}"
        path.write_text(text)
        assert run(capsys, "invariants", str(path))[0] == 0
        head, _, tail = text.partition(f"[{section}]\n{good}")
        path.write_text(f"{head}[{section}]\ngenerators = {words}\n{tail}")
        message = f"empty generator word in [{section}]: {shortened(words)!r}"
        assert run(capsys, "invariants", str(path)) == (2, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("section", ["system1", "system2"])
    @pytest.mark.parametrize("entries", ["5,,5, 5", "5, 5, 5,", ", 5, 5, 5"])
    def test_empty_signature_entry(self, capsys, tmp_path, section, entries):
        path = tmp_path / "beauville_55.pq"
        head, _, tail = fixture_path("beauville_55.pq").read_text().partition(f"[{section}]")
        path.write_text(head + f"[{section}]" + tail.replace("signature = 5, 5, 5", f"signature = {entries}", 1))
        assert run(capsys, "invariants", str(path)) == (2, "", f"error: {path}: bad signature in [{section}]\n")

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
    def test_file_not_utf8(self, capsys, tmp_path, command):
        path = tmp_path / "bad.pq"
        path.write_bytes(NOT_UTF8)
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == f"error: cannot read {path}: byte 28 is not UTF-8 text\n"

    @pytest.mark.parametrize("name, commands", [("beauville_55.pq", ["invariants", "table"]),
                                                ("table_c1sq6.rows", ["table"])])
    def test_byte_order_mark_is_not_text(self, capsys, tmp_path, name, commands):
        path = tmp_path / name  # the same stem names the surface
        path.write_bytes(b"\xef\xbb\xbf" + fixture_path(name).read_bytes())
        for command in commands:
            assert run(capsys, command, str(path)) == run(capsys, command, str(fixture_path(name)))

    def test_file_not_utf8_in_table(self, capsys, tmp_path):
        rows = tmp_path / "bad.rows"
        rows.write_bytes(b"name,group_order,g1,g2,singularities,ksq\nx\xff,2,2,2,,\n")
        code, out, err = run(capsys, "table", str(rows))
        assert code == 2 and out == ""
        assert err == f"error: cannot read {rows}: byte 42 is not UTF-8 text\n"
        pq = tmp_path / "bad.pq"
        pq.write_bytes(NOT_UTF8)
        code, out, _ = run(capsys, "table", str(pq))
        (record,) = csv.DictReader(io.StringIO(out))
        assert code == 2 and record["error"] == f"cannot read {pq}: byte 28 is not UTF-8 text"

    @pytest.mark.parametrize("name, reason", [("missing.pq", "No such file or directory"), ("", "Is a directory")],
                             ids=["missing", "directory"])
    def test_unreadable_file_is_named_once(self, capsys, tmp_path, name, reason):
        # the reason of the OSError alone: its own text would quote the path again
        path = tmp_path / name
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 2 and out == ""
        assert err == f"error: cannot read {path}: {reason}\n"
        code, out, err = run(capsys, "table", str(path))
        (record,) = csv.DictReader(io.StringIO(out))
        assert code == 2 and err == ""
        assert record["error"] == f"cannot read {path}: {reason}"

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

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("a^4*b^4\n", "a^4*b^4,\n    a*b^2\n", "line 10: 'a*b^2' is indented: a value takes one line"),
            ("b = (5 6 7 8 9)", "  b = (5 6 7 8 9)", "line 5: 'b = (5 6 7 8 9)' is indented: a value takes one line"),
            ("degree = 10", "degree: 10", "line 3: neither a [section] header nor 'key = value'"),
            ("[flags]", "[]", "line 17: neither a [section] header nor 'key = value'"),
            ("[flags]", "[flags] x", "line 17: neither a [section] header nor 'key = value'"),
            ("[group]", "[]", "line 2: '[]' comes before any [section] header"),
        ],
        ids=["continuation", "indented-key", "colon", "empty-header", "header-and-text", "empty-first-header"],
    )
    def test_refused_line(self, capsys, tmp_path, old, new, message):
        # lines an INI reader takes, or takes with another meaning: one line
        # naming the file and the line
        path = tmp_path / "bad.pq"
        path.write_text(fixture_path("beauville_55.pq").read_text().replace(old, new, 1))
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n"

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

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("signature = 5, 5, 5", "signatur = 1, 2",
             "unknown key 'signatur' in [system1]: its keys are base_genus, generators, signature"),
            ("[system2]\nbase_genus = 0", "[system2]\ngenus = 0",
             "unknown key 'genus' in [system2]: its keys are base_genus, generators, signature"),
            ("[flags]", "[flag]", "unknown section [flag]: the sections are group, system1, system2, flags"),
            ("in_scope_c1sq6 = false", "in_scope = true", "unknown key 'in_scope' in [flags]: its keys are in_scope_c1sq6"),
        ],
        ids=["misspelt-signature", "system2-key", "misspelt-flags", "flags-key"],
    )
    def test_unknown_section_or_key(self, capsys, tmp_path, old, new, message):
        # refused rather than ignored: a misspelt key or section would drop its check or flag silently
        path = tmp_path / "bad.pq"
        text = fixture_path("beauville_55.pq").read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n"

    def test_rows_line_running_past_the_header(self, capsys, tmp_path):
        path = tmp_path / "long.rows"
        path.write_text("name,group_order,g1,g2,singularities,ksq\nr,4,3,3,,8,zz\n")
        code, out, err = run(capsys, "table", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: bad row 'r': 7 cells, the header has 6\n"

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
            assert err == f"error: {path}: degree = 100000000 in [group] is above the ceiling {MAX_DEGREE}\n"

    def test_degree_one_past_the_ceiling(self, capsys, tmp_path, monkeypatch):
        # an element is a bytes string, so no point past 255 can be named
        from pqsurf.groups import Permutation
        from pqsurf.limits import MAX_DEGREE

        def refuse(*args):
            raise AssertionError("a permutation was built")

        monkeypatch.setattr(Permutation, "__init__", refuse)
        monkeypatch.setattr(Permutation, "from_cycles", refuse)
        path = tmp_path / "wide.pq"
        path.write_text("[group]\ndegree = 257\nt = (0 256)\n\n[system1]\ngenerators = t, t\n\n"
                        "[system2]\ngenerators = t, t\n")
        code, out, err = run(capsys, "invariants", str(path))
        assert MAX_DEGREE == 256
        assert code == 3 and out == ""
        assert err == f"error: {path}: degree = 257 in [group] is above the ceiling 256\n"

    def test_degree_at_the_ceiling_closes(self, capsys, tmp_path):
        # Z/2 acting on all 256 points by 128 transpositions: the toy surface
        involution = "".join(f"({2 * k} {2 * k + 1})" for k in range(128))
        path = tmp_path / "z2_hyperelliptic.pq"  # the name a payload carries
        path.write_text(f"[group]\ndegree = 256\nt = {involution}\n\n[system1]\ngenerators = t, t, t, t, t, t\n\n"
                        "[system2]\ngenerators = t, t, t, t, t, t\n")
        for command in ("invariants", "singularities", "bounds"):
            code, out, err = run(capsys, command, str(path), "--json")
            assert code == 0 and err == ""
            assert json.loads(out) == json.loads(run(capsys, command, TOY, "--json")[1]), command

    def test_group_refuses_a_permutation_past_the_ceiling(self):
        from pqsurf.errors import ValidationError
        from pqsurf.groups import Permutation, group_from_generators

        wide = Permutation(tuple(reversed(range(257))))
        with pytest.raises(ValidationError, match="^degree 257 is above the ceiling 256$"):
            group_from_generators([wide])

    def test_branch_points_one_past_the_ceiling(self, capsys, tmp_path, monkeypatch):
        from pqsurf import groups
        from pqsurf.limits import MAX_BRANCH_POINTS

        def refuse(*args, **kwargs):
            raise AssertionError("a group was closed")

        monkeypatch.setattr(groups, "group_from_generators", refuse)
        path = tmp_path / "long.pq"
        path.write_text("[group]\ndegree = 2\nt = (0 1)\n\n[system1]\ngenerators = t, t\n\n"
                        f"[system2]\ngenerators = {', '.join(['t'] * 21)}\n")
        assert MAX_BRANCH_POINTS == 20
        for command in ("invariants", "singularities", "bounds"):
            code, out, err = run(capsys, command, str(path))
            assert code == 3 and out == ""
            assert err == f"error: {path}: [system2] lists 21 generators, above the ceiling 20 on branch points\n"

    def test_branch_points_at_the_ceiling_run(self, capsys, tmp_path):
        # Z/2 with 20 branch points on each curve: 400 nodes
        words = ", ".join(["t"] * 20)
        path = tmp_path / "long.pq"
        path.write_text(f"[group]\ndegree = 2\nt = (0 1)\n\n[system1]\ngenerators = {words}\n\n"
                        f"[system2]\ngenerators = {words}\n")
        code, out, err = run(capsys, "invariants", str(path), "--json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["singularities"] == [{"n": 2, "a": 1, "count": 400}]
        assert (payload["e"], payload["Ksq"]) == (728, 256)

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
            assert err == f"error: {path}: invalid spherical system: signature entry 1 < 2\n"

    @pytest.mark.parametrize(
        "word, message",
        [
            ("a^4*b^3", "invalid spherical system: long relation: product of generators is not the identity"),
            ("a^4*b^4", "declared signature (5, 5, 3) != derived (5, 5, 5)"),
        ],
        ids=["invalid-system", "valid-system"],
    )
    def test_wrong_declared_signature(self, capsys, tmp_path, word, message):
        # a system checks itself when it is built, so an invalid one is
        # reported before its declared signature is compared with its own
        path = tmp_path / "beauville_55.pq"
        text = fixture_path("beauville_55.pq").read_text().replace("a^4*b^4", word, 1)
        path.write_text(text.replace("signature = 5, 5, 5", "signature = 5, 5, 3", 1))
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 3 and out == ""
        assert err == f"error: {path}: {message}\n"

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

    def test_aliased_and_identity_generators(self, capsys, tmp_path):
        # c names the permutation a names, and e is the identity; each word
        # still evaluates to the same element
        path = tmp_path / "beauville_55.pq"
        text = fixture_path("beauville_55.pq").read_text()
        text = text.replace("b = (5 6 7 8 9)\n", "b = (5 6 7 8 9)\nc = (0 1 2 3 4)\ne = ()\n", 1)
        text = text.replace("generators = a, b, a^4*b^4", "generators = c, e*b, a^4*e^-2*c^0*b^4", 1)
        path.write_text(text)
        for command in ("invariants", "bounds"):
            code, out, _ = run(capsys, command, str(path), "--json")
            _, want, _ = run(capsys, command, BEAUVILLE, "--json")
            assert code == 0 and out == want

    def test_first_system_misses_a_named_generator(self, capsys, tmp_path):
        # a and a^4 span <a>, and b = (5 6 7 8 9) is not in it
        path = tmp_path / "beauville_55.pq"
        path.write_text(fixture_path("beauville_55.pq").read_text().replace("a, b, a^4*b^4", "a, a^4", 1))
        for command in ("invariants", "singularities", "bounds"):
            code, out, err = run(capsys, command, str(path))
            assert code == 3 and out == ""
            assert err == f"error: {path}: invalid spherical system: generators do not generate the whole group\n"

    def test_group_over_the_cap_with_a_small_first_system(self, capsys, tmp_path):
        # the group is closed over the first system, which spans <x1> of order
        # 2: the named generators outside it are found before any cap is met
        path = tmp_path / "a7_247_357.pq"
        path.write_text(fixture_path("a7_247_357.pq").read_text().replace("x1, x2, x3", "x1, x1", 1))
        code, out, err = run(capsys, "--max-group-order", "100", "invariants", str(path))
        assert code == 3 and out == ""
        assert err == f"error: {path}: invalid spherical system: generators do not generate the whole group\n"
        # a first system that spans the whole group still meets the cap
        a7 = fixture_path("a7_247_357.pq")
        code, out, err = run(capsys, "--max-group-order", "100", "invariants", str(a7))
        assert code == 3 and err == f"error: {a7}: group order exceeds cap 100\n"

    def test_cap_is_met_before_the_long_relation_of_the_first_system(self, capsys, tmp_path):
        # the group is spanned by the whole first system before that system is
        # validated, so x1 x2 x2 != 1 is not seen when x1 and x2 span past the
        # cap; under the default cap the long relation is reported
        path = tmp_path / "a7_247_357.pq"
        path.write_text(fixture_path("a7_247_357.pq").read_text().replace("x1, x2, x3", "x1, x2, x2", 1))
        code, out, err = run(capsys, "--max-group-order", "100", "invariants", str(path))
        assert code == 3 and out == ""
        assert err == f"error: {path}: group order exceeds cap 100\n"
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 3 and out == ""
        assert err == f"error: {path}: invalid spherical system: long relation: product of generators is not the identity\n"

    @pytest.mark.parametrize("shift, message", [
        (0, "invalid spherical system: generators do not generate the whole group"),
        (1, "invalid spherical system: long relation: product of generators is not the identity"),
    ], ids=["right-element", "wrong-element"])
    def test_huge_power_of_an_element_of_huge_order(self, capsys, tmp_path, shift, message):
        # g has cycles of the first 12 primes on 197 of 200 points, so its
        # order is their product, about 7e12; k has 30 digits, divisible by
        # every cycle length from 5 on, so g^k moves points 0..4 only.  The
        # file names h = g^k by its cycles: the system (h, g^-k) has product
        # 1 exactly when g^k is evaluated right, and then spans <h>, of order
        # 6, which misses g.  Evaluating by repeated products would not end.
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        cycles, start = [], 0
        for m in primes:
            cycles.append(list(range(start, start + m)))
            start += m
        k = (10**17 + 1) * math.prod(primes[2:])
        assert len(str(k)) == 30 and k % 2 and k % 3

        def text(cycles):
            return "".join(f"({' '.join(map(str, c))})" for c in cycles if c)

        # c[i] -> c[i + r] on a cycle of prime length is the one cycle (c[0] c[r] c[2r] ...)
        h = [[c[i * (k + shift) % len(c)] for i in range(len(c))] if (k + shift) % len(c) else []
             for c in cycles[:2]]
        path = tmp_path / "huge.pq"
        path.write_text(f"[group]\ndegree = 200\ng = {text(cycles)}\nh = {text(h)}\n\n"
                        f"[system1]\ngenerators = h, g^-{k}\n\n[system2]\ngenerators = h, h^-1\n")
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 3 and out == ""
        assert err == f"error: {path}: {message}\n"

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
            ("MAX_HJ_ORDER", "hj", ["hj", None, "1"]),
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--max-group-order", "0", "invariants", BEAUVILLE], "--max-group-order = 0 is below the floor 1"),
            (["--max-group-order", "-5", "invariants", "no-such-file.pq"], "--max-group-order = -5 is below the floor 1"),
            # the plurigenus formula holds only with K^2 >= 1 and chi >= 1
            (["bigness", "--ksq", "-2", "--chi", "40", "--points", "0"], "bigness --ksq = -2 is below the floor 1"),
            (["bigness", "--ksq", "0", "--chi", "1", "--points", "0"], "bigness --ksq = 0 is below the floor 1"),
            (["bigness", "--ksq", "1", "--chi", "-3", "--points", "0"], "bigness --chi = -3 is below the floor 1"),
            (["bigness", "--ksq", "1", "--chi", "0", "--points", "0"], "bigness --chi = 0 is below the floor 1"),
            (["bigness", "--ksq", "6", "--chi", "1", "--points", "-1"], "bigness --points = -1 is below the floor 0"),
            (["local-check", "--m", "0", "--section", "z1"], "local-check --m = 0 is below the floor 1"),
            (["local-check", "--m", "-3", "--section", "z1"], "local-check --m = -3 is below the floor 1"),
        ],
        ids=["order-0", "order-negative-before-read", "ksq-negative", "ksq-0", "chi-negative", "chi-0", "points-negative", "local-m-0", "local-m-negative"],
    )
    def test_below_floor(self, capsys, argv, message):
        # refused before any work: the missing file is never read
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"


def test_no_output_depends_on_the_hash_seed():
    """Group elements are bytes, whose hashes are salted per process: every
    command prints the same bytes under any PYTHONHASHSEED."""
    a6 = str(fixture_path("a6_245_334.pq"))
    commands = [f"{c} {a6} --json" for c in ("invariants", "singularities", "bounds")] + [f"table {ROWS} {a6}"]
    script = "import sys\nfrom pqsurf.cli import main\nfor argv in sys.argv[1:]:\n    main(argv.split())"
    path = os.pathsep.join(filter(None, [str(Path(pqsurf.__file__).parent.parent), os.environ.get("PYTHONPATH")]))
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", script, *commands], env=env, capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1 and '"group_order": 360' in outputs.pop()


def test_closed_stdout_ends_quietly():
    """A reader that closes the pipe after one line, as `| head -1` does,
    gets exit 141 and nothing on stderr.  `hj 200 199 --json` prints about
    400 KB, more than a pipe holds, so the write is pending when the pipe closes."""
    path = os.pathsep.join(filter(None, [str(Path(pqsurf.__file__).parent.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "pqsurf.cli", "hj", "200", "199", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_closed_replacement_stdout_is_left_alone(monkeypatch):
    # an in-process caller's stdout: the exit code says so, and fd 1 is not redirected
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["hj", "7", "3"]) == 141
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
