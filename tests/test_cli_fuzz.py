"""Fuzz of ``pqsurf.cli.main`` over mutated copies of the shipped ``.pq``
fixtures: an edited degree, swapped, deleted or repeated lines, repeated
generator words and stray words.  Whatever the input, a command ends with
exit 0, 2, 3 or 4, never with a traceback, and a failing single-file command
prints one ``error:`` line.

A7 and A6 stay out: a mutation keeps the group, and their closures would
make each example slow without reaching other code.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqsurf import cli
from pqsurf.inputs import fixture_path

FIXTURES = ["beauville_55.pq", "z2_hyperelliptic.pq", "a5_255_335.pq"]
COMMANDS = ["invariants", "singularities", "bounds", "table"]
STRAY = ["x", "t", "a", "^", "*", "(", ")", "()", "=", ",", ";", "[group]", "[flags]", "-1", "0", "7", "a^-2"]


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
