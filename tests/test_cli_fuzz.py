"""Fuzz of ``pqsurf.cli.main`` over mutated copies of the shipped ``.pq``
fixtures: an edited degree, swapped, deleted or repeated lines, repeated
generator words, generator lists past the ceiling on branch points, stray
words, one of them a 5000-digit number, bytes that are not UTF-8, and
2000-character cycles, keys and section names.  Whatever the input, a
command ends with exit 0, 2, 3 or 4, never with a traceback, and a failing
single-file command prints one ``error:`` line under 300 bytes; every
``table`` error cell is under 300 bytes too.  ``table`` gets the same checks
on random formula-mode ``.rows`` files: bad orders, genera, K^2 and
singularity items, a dropped column, and lines that end early or run long.
``hj``, ``bigness`` and ``local-check`` get random command lines: bad,
negative and 5000-digit ints and malformed sections, where every line of
stderr, argparse's included, stays under 300 bytes.

A7 and A6 stay out: a mutation keeps the group, and their closures would
make each example slow without reaching other code.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from math import gcd

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqsurf import cli
from pqsurf.limits import MAX_BRANCH_POINTS
from tests.conftest import fixture_path

FIXTURES = ["beauville_55.pq", "z2_hyperelliptic.pq", "a5_255_335.pq"]
COMMANDS = ["invariants", "singularities", "bounds", "table"]
STRAY = ["x", "t", "a", "^", "*", "(", ")", "()", "=", ",", ";", "[group]", "[flags]", "-1", "0", "7", "a^-2",
         "9" * 5000]  # more digits than Python converts to an int
# a lone 0xff, a lone continuation byte, a lead byte without its continuation,
# as surrogate escapes that the file's UTF-8 encoding turns back into bytes
BAD_BYTES = ["\udcff", "\udc80", "\udcc3"]
# 2000-character cycles: a repeated point, overlapping cycles, bad notation, a point out of the domain
LONG_CYCLES = ["(" + " 0" * 1000 + ")", "(0 1)" * 400, "(0 1" * 500, "(0 " + "9" * 2000 + ")"]
SHORT = 300  # bytes: the most an error line or cell may take


def error_cells(out: str, as_json: bool) -> list[str]:
    """The error cells of a ``table`` output, in either view."""
    rows = json.loads(out)["rows"] if as_json else csv.DictReader(io.StringIO(out))
    return [row["error"] for row in rows]


@st.composite
def mutated_pq(draw) -> str:
    lines = fixture_path(draw(st.sampled_from(FIXTURES))).read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["degree", "swap", "delete", "repeat", "repeat-word", "many-words", "stray", "bytes", "long"]))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "degree":
            value = draw(st.integers(-3, 12))
            lines = [f"degree = {value}" if line.startswith("degree") else line for line in lines]
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "repeat-word":
            rows = [k for k, line in enumerate(lines) if line.startswith("generators")]
            k = draw(st.sampled_from(rows)) if rows else i
            words = lines[k].partition("=")[2].split(",")
            lines[k] += "," + draw(st.sampled_from(words))
        elif kind == "many-words":  # past the ceiling on branch points
            rows = [k for k, line in enumerate(lines) if line.startswith("generators")]
            k = draw(st.sampled_from(rows)) if rows else i
            word = draw(st.sampled_from(lines[k].partition("=")[2].split(",")))
            lines[k] += ("," + word) * draw(st.integers(MAX_BRANCH_POINTS, 10 * MAX_BRANCH_POINTS))
        elif kind == "stray":
            words = lines[i].split(" ")
            words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(STRAY)))
            lines[i] = " ".join(words)
        elif kind == "bytes":
            k = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:k] + draw(st.sampled_from(BAD_BYTES)) + lines[i][k:]
        elif kind == "long":  # a long cycle after a generator, or a long key or section name given twice
            form = draw(st.sampled_from(["cycle", "key", "section"]))
            if form == "cycle":
                rows = [k for k, line in enumerate(lines) if "= (" in line]
                k = draw(st.sampled_from(rows)) if rows else i
                lines[k] += draw(st.sampled_from(LONG_CYCLES))
            else:
                line = "k" * 2000 + " = ()" if form == "key" else "[" + "s" * 2000 + "]"
                lines[i:i] = [line, line]
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_pq(), command=st.sampled_from(COMMANDS), as_json=st.booleans())
def test_mutated_fixture_ends_in_a_known_exit_code(tmp_path_factory, text, command, as_json):
    path = tmp_path_factory.getbasetemp() / "fuzz.pq"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path), *(["--json"] if as_json else [])])
    assert code in (0, 2, 3, 4), text
    if command == "table":
        assert err.getvalue() == ""
        assert all(len(cell.encode()) < SHORT for cell in error_cells(out.getvalue(), as_json)), text[:SHORT]
    elif code:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert len(err.getvalue().encode()) < SHORT, err.getvalue()[:SHORT]


# -- formula-mode rows -------------------------------------------------------

COLUMNS = ["name", "group_order", "g1", "g2", "singularities", "ksq"]
BAD_NUMBERS = ["", "x", "2.5", "-1", "0", "1", "1e3", " ", "10" * 12, "0x10"]
TYPES = [(n, a) for n in range(2, 13) for a in range(1, n) if gcd(n, a) == 1]
HUGE = [10**12 + 1, 10**40]  # n/(n - 1) expands into a string of n - 1 components


def rows_text(rng: random.Random) -> str:
    """A .rows text of up to four rows, most cells well formed, so that the
    arithmetic past the parser is reached.  Hypothesis draws only the seed:
    its own draws lean to the ends of each range, which here means the
    malformed ends."""

    def cell(usual, rare, rare_share=0.12):
        return rng.choice(rare if rng.random() < rare_share else usual)

    def item() -> str:
        roll = rng.random()
        if roll < 0.8:
            n, a = rng.choice(TYPES)
            return f"{n}/{a}x{rng.randint(1, 4)}"
        if roll < 0.88:
            n = rng.choice(HUGE)
            return f"{n}/{n - 1}x1"
        n = rng.choice(["0", "1", "6", "-2", "", "x"])
        a = rng.choice(["0", "1", "5", "-1", ""])
        count = rng.choice(["0", "1", "-1", "", str(10**30)])
        return rng.choice([f"{n}/{a}x{count}", f"{n}/{a}", f"{n}x{count}", f"{n}/{a}x{count}x1"])

    columns = list(COLUMNS)
    if rng.random() < 0.1:
        del columns[rng.randrange(len(columns))]
    lines = [",".join(columns)]
    for _ in range(rng.randint(0, 4)):
        cells = {
            "name": cell(["r", "Z2xD4", '"PSL(2,7)"'], ["", '"a,b"', "#x", '"']),
            "group_order": cell(["2", "4", "8", "12", "16", "60"], BAD_NUMBERS),
            "g1": cell(["2", "3", "5", "7"], BAD_NUMBERS),
            "g2": cell(["2", "3", "5", "16"], BAD_NUMBERS),
            "singularities": "+".join(item() for _ in range(rng.randint(0, 3))),
            "ksq": cell(["", "6", "-4", "8"], BAD_NUMBERS),
        }
        row = [cells[c] for c in columns]
        # once in ten rows a line ends early or runs long
        cut = rng.randint(0, len(row) + 1) if rng.random() < 0.1 else len(row)
        lines.append(",".join(row[:cut] + ["1"] * (cut - len(row))))
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), view=st.sampled_from([[], ["--json"]]))
def test_random_rows_end_in_a_known_exit_code(tmp_path_factory, seed, view):
    text = rows_text(random.Random(seed))
    path = tmp_path_factory.getbasetemp() / "fuzz.rows"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["table", str(path), *view])
    assert code in (0, 2, 3, 4), text
    if out.getvalue():  # a failing row is an error cell
        assert err.getvalue() == "", text
        assert all(len(cell.encode()) < SHORT for cell in error_cells(out.getvalue(), view == ["--json"])), text
    else:  # a file the parser refuses is one error line
        assert code and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, text
        assert len(err.getvalue().encode()) < SHORT, text


# -- command-line arguments --------------------------------------------------

DIGITS = "9" * 5000  # more digits than Python converts to an int
GOOD_INTS = ["0", "1", "2", "3", "7", "+5"]
BAD_INTS = ["-1", "-3", "x", "", " ", "2.5", "1e3", "0x10", DIGITS, f"-{DIGITS}",
            "9" * 4000]  # the last converts, but no check downstream accepts it
GOOD_SECTIONS = ["z1^2", "z1^2 + 3*z1*z2", "z1*z2 - 1/2", "-z2^4"]
BAD_SECTIONS = ["", "+", "**", "z3", "z1^", "1/0*z2", "+" * 5000, "z1^2+" + "q" * 5000, f"z1^{DIGITS}",
                f"{DIGITS}*z1", f"z2 + 1/{DIGITS}"]


def argv_of(rng: random.Random) -> list:
    """An hj, bigness or local-check command line, each value bad, negative
    or 5000 digits long now and then.  As for the rows, Hypothesis draws only
    the seed, so that most values are good and the checks past them run."""

    def value(good, bad, bad_share=0.3):
        return rng.choice(bad if rng.random() < bad_share else good)

    command = rng.choice(["hj", "bigness", "local-check"])
    if command == "hj":
        args = ["hj", value(GOOD_INTS, BAD_INTS), value(GOOD_INTS, BAD_INTS)]
    elif command == "bigness":
        args = ["bigness"]
        for flag in ("--ksq", "--chi", "--points"):
            args += [flag, value(GOOD_INTS, BAD_INTS)]
    else:
        args = ["local-check", "--m", value(GOOD_INTS, BAD_INTS),
                "--section", value(GOOD_SECTIONS, BAD_SECTIONS, bad_share=0.6)]
    if rng.random() < 0.2:
        args = ["--max-group-order", value(GOOD_INTS, BAD_INTS), *args]
    return args + (["--json"] if rng.random() < 0.5 else [])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1))
def test_argv_ends_in_a_known_exit_code_with_short_lines(seed):
    args = argv_of(random.Random(seed))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in (0, 2, 3, 4), args
    assert "Traceback" not in err.getvalue()
    assert all(len(line.encode()) < SHORT for line in err.getvalue().splitlines()), err.getvalue()[:SHORT]
