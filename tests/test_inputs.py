import json

import pytest

from pqsurf.cli import main
from pqsurf.errors import ParseError, ValidationError
from pqsurf.inputs import (
    FormulaRow,
    fixture_path,
    format_singularity_multiset,
    formula_invariants,
    parse_input,
    parse_rows,
    parse_singularity_multiset,
    realize,
    run_invariants,
)

MINIMAL = """\
[group]
degree = 2
t = (0 1)

[system1]
generators = t, t, t, t, t, t

[system2]
generators = t, t, t, t, t, t
"""


class TestParseInput:
    def test_minimal(self):
        desc = parse_input(MINIMAL)
        assert desc.degree == 2
        assert desc.generators == (("t", "(0 1)"),)
        assert desc.system1.words == ("t",) * 6
        assert parse_input(MINIMAL.replace("[system1]\n", "[system1]\nbase_genus = 0\n")) == desc
        assert desc.system1.signature is None
        assert not desc.in_scope_c1sq6

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda t: t.replace("[group]", "[grp]"),
            lambda t: t.replace("degree = 2", ""),
            lambda t: t.replace("degree = 2", "degree = two"),
            lambda t: t.replace("generators = t, t, t, t, t, t\n\n[system2]", "[system2]"),
            lambda t: t[: len(t) // 2],  # truncated file
            lambda t: "not an ini file [",
        ],
    )
    def test_malformed_inputs(self, mutation):
        with pytest.raises(ParseError):
            parse_input(mutation(MINIMAL))

    def test_signature_mismatch_rejected_at_realize(self):
        text = MINIMAL + "signature = 2, 2, 2, 2, 2, 3\n"
        desc = parse_input(text)
        with pytest.raises(ValidationError):
            realize(desc)

    def test_bad_word(self):
        desc = parse_input(MINIMAL.replace("t, t, t, t, t, t", "t, t, t, t, t, u", 1))
        with pytest.raises(ParseError):
            realize(desc)

    def test_word_powers(self):
        text = MINIMAL.replace("t, t, t, t, t, t", "t^3, t^-1, t*t*t, t", 1)
        _, sys1, _ = realize(parse_input(text))
        assert sys1.signature == (2, 2, 2, 2)


class TestRunInvariants:
    def test_beauville(self):
        desc = parse_input(fixture_path("beauville_55.pq").read_text())
        s = run_invariants(desc, name="beauville")
        assert (s.group_order, s.g1, s.g2) == (25, 6, 6)
        assert s.singularities == ()
        assert (s.e, s.ksq, s.chi, s.q, s.pg) == (4, 8, 1, 0, 0)

    def test_toy(self):
        desc = parse_input(fixture_path("z2_hyperelliptic.pq").read_text())
        s = run_invariants(desc)
        assert (s.group_order, s.g1, s.g2) == (2, 2, 2)
        assert s.singularities == ((2, 1, 36),)
        assert (s.e, s.ksq, s.chi, s.q, s.pg) == (56, 4, 5, 0, 4)

    def test_json_shape(self, capsys, tmp_path):
        path = tmp_path / "toy.pq"
        path.write_text(fixture_path("z2_hyperelliptic.pq").read_text())
        assert main(["invariants", str(path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["name"] == "toy"
        assert record["singularities"] == [{"n": 2, "a": 1, "count": 36}]
        assert record["Ksq"] == 4


class TestSingularityMultisets:
    def test_parse(self):
        assert parse_singularity_multiset("2/1x2+3/1x1") == ((2, 1, 2), (3, 1, 1))
        assert parse_singularity_multiset("") == ()

    def test_format_round_trip(self):
        items = ((2, 1, 2), (5, 2, 3))
        assert parse_singularity_multiset(format_singularity_multiset(items)) == items

    @pytest.mark.parametrize("text", ["2/1", "2/1x0", "4/2x1", "junk", "2/1x2+"])
    def test_bad_items(self, text):
        with pytest.raises(ParseError):
            parse_singularity_multiset(text)


class TestRowsAndFormulaMode:
    def test_empty_file_gives_empty_table(self):
        assert parse_rows("") == []
        assert parse_rows("# only a comment\n\n") == []

    def test_fixture_rows(self):
        rows = parse_rows(fixture_path("table_c1sq6.rows").read_text())
        assert len(rows) == 6
        assert {r.name for r in rows} >= {"PSL(2,7)", "A5", "A6"}
        assert all(r.ksq == 6 for r in rows)

    def test_fixture_invariants(self):
        for row in parse_rows(fixture_path("table_c1sq6.rows").read_text()):
            s = formula_invariants(row)
            assert s.e == 6
            assert s.ksq == 6
            assert s.chi == 1 and s.pg == 0 and s.q == 0

    def test_missing_column(self):
        with pytest.raises(ParseError):
            parse_rows("name,group_order,g1\nx,2,2\n")

    def test_bad_value(self):
        with pytest.raises(ParseError):
            parse_rows("name,group_order,g1,g2,singularities\nx,two,2,2,\n")

    def test_non_integral_euler_rejected(self):
        row = FormulaRow("bad", 4, 2, 2, ())
        # e = (2-4)(2-4)/4 = 1 is fine; make it fractional
        row = FormulaRow("bad", 3, 2, 2, ())
        with pytest.raises(ValidationError):
            formula_invariants(row)

    def test_ksq_optional(self):
        s = formula_invariants(FormulaRow("x", 4, 2, 2, ()))
        assert s.e == 1 and s.ksq is None and s.chi is None and s.pg is None

    def test_noether_gate(self):
        with pytest.raises(ValidationError):
            formula_invariants(FormulaRow("x", 4, 2, 2, (), ksq=10))
