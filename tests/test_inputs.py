import configparser
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsurf import groups, inputs
from pqsurf.cli import main
from pqsurf.errors import ParseError, ValidationError
from pqsurf.inputs import (
    FormulaRow,
    _read_sections,
    format_singularity_multiset,
    formula_invariants,
    parse_input,
    parse_rows,
    parse_singularity_multiset,
    realize,
)
from pqsurf.limits import parse_int
from tests.conftest import fixture_path, run_invariants

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
            lambda t: t.replace("degree = 2", "degree = 1_0"),  # int() alone reads 10
            lambda t: t + "signature = 2, 2, 2, 2, 2, 1_0\n",
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


def configparser_sections(text: str) -> dict[str, dict[str, str]]:
    """What the INI reader of the standard library makes of a text, with
    case-sensitive keys and no interpolation: the oracle of ``_read_sections``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    return {name: dict(parser[name]) for name in parser.sections()}


DATA = Path(__file__).resolve().parent / "data"
PQ_FILES = {p.name: p for p in fixture_path("").iterdir() if p.name.endswith(".pq")} | {
    f"data/{p.name}": p for p in DATA.glob("*.pq")}

SPACING = st.text(" \t", max_size=2)
# one line each; '=', ';', '#' and ':' inside a value are part of it
VALUES = st.text(st.sampled_from("ab7 \t=;#:,()^*-_\r\x0c\u00e9"), max_size=12)
KEYS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_ .-]{0,5}[A-Za-z0-9_]?", fullmatch=True)
# DEFAULT is a section configparser treats apart; brackets end a header
SECTION_NAMES = st.text(st.sampled_from("abgroupsystem12 _-.#;="), min_size=1, max_size=8).filter(
    lambda name: name != "DEFAULT")
FILLERS = st.one_of(
    st.builds(lambda indent, mark, rest: indent + mark + rest, SPACING, st.sampled_from("#;"), VALUES),
    SPACING,  # a blank line
)


@st.composite
def ini_texts(draw) -> str:
    """Texts in the .pq grammar: comments and blank lines anywhere, headers,
    and keys with any spacing around '='."""
    lines = draw(st.lists(FILLERS, max_size=2))
    for name in draw(st.lists(SECTION_NAMES, unique=True, max_size=4)):
        lines.append(f"[{name}]" + draw(SPACING))
        for key in draw(st.lists(KEYS, unique_by=str.rstrip, max_size=4)):
            lines += draw(st.lists(FILLERS, max_size=1))
            lines.append(key + draw(SPACING) + "=" + draw(SPACING) + draw(VALUES) + draw(SPACING))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestReader:
    """``_read_sections`` against configparser, which it replaces."""

    @pytest.mark.parametrize("name", sorted(PQ_FILES))
    def test_shipped_files_read_as_configparser_reads_them(self, name):
        text = PQ_FILES[name].read_text()
        assert _read_sections(text) == configparser_sections(text)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(ini_texts())
    def test_grammar_texts_read_as_configparser_reads_them(self, text):
        assert _read_sections(text) == configparser_sections(text)

    @pytest.mark.parametrize("value", ["1", "yes", "TRUE", "On", "0", "No", "false", "OFF"])
    def test_in_scope_flag_takes_what_configparser_took(self, value):
        text = MINIMAL + f"\n[flags]\nin_scope_c1sq6 = {value}\n"
        parser = configparser.ConfigParser()
        parser.read_string(text)
        assert parse_input(text).in_scope_c1sq6 is parser["flags"].getboolean("in_scope_c1sq6")


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


PACKAGE = str(Path(inputs.__file__).parent)


def realize_work(desc) -> tuple[Counter, int]:
    """Run ``realize`` on a description under a profiler, as
    ``conftest.span_compositions`` counts products: the matches of compiled
    patterns made from pqsurf's frames, by pattern, and the calls of
    ``limits.parse_int`` (whose own match runs in a frame of ``re``)."""
    matches: Counter = Counter()
    parse_ints = [0]

    def profile(frame, event, arg):
        if (event == "c_call" and isinstance(getattr(arg, "__self__", None), re.Pattern)
                and frame.f_code.co_filename.startswith(PACKAGE)):
            matches[arg.__self__] += 1
        elif event == "call" and frame.f_code is parse_int.__code__:
            parse_ints[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        realize(desc)
    finally:
        sys.setprofile(previous)
    return matches, parse_ints[0]


class TestFrontEndWork:
    """The cycles of a generator are read by one pattern match, its points by
    ``int``; a bare name in a word is looked up, with no pattern and no
    ``parse_int``.  Counts, not times, so the guard does not depend on the
    machine's speed."""

    def test_a6_reads_each_generator_with_one_match(self):
        desc = parse_input(fixture_path("a6_245_334.pq").read_text())
        assert len(desc.generators) == 6
        assert all(w.isidentifier() for spec in (desc.system1, desc.system2) for w in spec.words)
        assert realize_work(desc) == (Counter({groups._CYCLES: 6}), 0)

    def test_a_key_outside_the_word_grammar_is_not_a_name(self):
        # the keys "b^2" and "1x" name generators that no word reaches: "b^2" is b squared, "1x" a bad factor
        text = "[group]\ndegree = 3\nb = (0 1 2)\nb^2 = ()\n1x = ()\n\n[system1]\ngenerators = b, b, b\n\n[system2]\n"
        group, _, sys2 = realize(parse_input(text + "generators = b^2, b^2, b^2\n"))
        assert [group.images[g] for g in sys2.generators] == [bytes((2, 0, 1))] * 3
        with pytest.raises(ParseError, match=r"^bad factor '1x' in word '1x'$"):
            realize(parse_input(text + "generators = b, b, 1x\n"))

    def test_powers_alone_take_the_word_pattern(self):
        # a, b, a^4*b^4 and a*b^2, a^3*b^4, a*b^4: six factors with a power, four bare names
        desc = parse_input(fixture_path("beauville_55.pq").read_text())
        assert realize_work(desc) == (Counter({groups._CYCLES: 2, inputs._WORD_FACTOR: 6}), 6)


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
