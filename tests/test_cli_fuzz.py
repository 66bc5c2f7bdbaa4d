"""Fuzz of ``pqsurf.cli.main`` over mutated copies of the shipped ``.pq``
fixtures: an edited degree, swapped, deleted or repeated lines, repeated
generator words and stray words, one of them a 5000-digit number.  Whatever the input, a command ends with
exit 0, 2, 3 or 4, never with a traceback, and a failing single-file command
prints one ``error:`` line.  ``table`` gets the same check on random
formula-mode ``.rows`` files: bad orders, genera, K^2 and singularity items,
a dropped column, and lines that end early or run long.

A7 and A6 stay out: a mutation keeps the group, and their closures would
make each example slow without reaching other code.
"""

from __future__ import annotations

import contextlib
import io
import random
from math import gcd

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqsurf import cli
from pqsurf.inputs import fixture_path

FIXTURES = ["beauville_55.pq", "z2_hyperelliptic.pq", "a5_255_335.pq"]
COMMANDS = ["invariants", "singularities", "bounds", "table"]
STRAY = ["x", "t", "a", "^", "*", "(", ")", "()", "=", ",", ";", "[group]", "[flags]", "-1", "0", "7", "a^-2",
         "9" * 5000]  # more digits than Python converts to an int


@st.composite
def mutated_pq(draw) -> str:
    lines = fixture_path(draw(st.sampled_from(FIXTURES))).read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["degree", "swap", "delete", "repeat", "repeat-word", "stray"]))
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
        elif kind == "stray":
            words = lines[i].split(" ")
            words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(STRAY)))
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_pq(), command=st.sampled_from(COMMANDS), as_json=st.booleans())
def test_mutated_fixture_ends_in_a_known_exit_code(tmp_path_factory, text, command, as_json):
    path = tmp_path_factory.getbasetemp() / "fuzz.pq"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path), *(["--json"] if as_json else [])])
    assert code in (0, 2, 3, 4), text
    if command == "table":
        assert err.getvalue() == ""
    elif code:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


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
@given(seed=st.integers(0, 2**32 - 1), view=st.sampled_from([[], ["--json"], ["--csv"]]))
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
    else:  # a file the parser refuses is one error line
        assert code and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, text
