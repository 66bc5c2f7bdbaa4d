"""Byte-for-byte pins of the CLI's standard output and exit codes.

Each case runs ``pqsurf.cli.main`` in this process and compares what it
prints with ``tests/golden/<case>.out`` and its exit code with
``tests/golden/exit_codes.json``.  The cases: ``invariants``,
``singularities`` and ``bounds`` (text and ``--json``) on the five ``.pq``
fixtures, on ``tests/data/z5_orientation.pq`` (the one input whose output
reads the orientation of a string) and on the paper's six surfaces
(``tests/data/c1sq6/*.pq``, the cases ``c1sq6_<stem>``), ``bounds`` on the
two in-scope copies in ``tests/data/`` (whose Lemma CC verdicts differ),
``table`` (text and ``--json``) on all six fixtures together
and (text and ``--json``) on a ``.rows`` file with a failing row, and
``hj``, ``local-check`` and ``bigness`` calls, text and ``--json``: one
``bigness`` call has no certificate and one has m* = 121.  Each text golden is
also rendered from the payload of its ``--json`` twin, and the surface
commands print the same bytes on copies of the ``.pq`` fixtures and of the
six surfaces whose points are relabelled, so that their group elements have
other image strings.

A change that is meant to change output rewrites the files from the root of
the checkout with

    PYTHONPATH=src python -m tests.test_golden_outputs

and the diff of ``tests/golden/`` then shows every byte it changed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import re
from pathlib import Path

import pytest

from pqsurf import cli
from pqsurf.inputs import parse_input, realize
from tests.conftest import fixture_path

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent / "data"
EXIT_CODES = GOLDEN / "exit_codes.json"

PQ = ["a5_255_335", "a6_245_334", "a7_247_357", "beauville_55", "z2_hyperelliptic"]
ALL_FIXTURES = [str(fixture_path(f"{stem}.pq")) for stem in PQ] + [str(fixture_path("table_c1sq6.rows"))]
C1SQ6 = {f"c1sq6_{path.stem}": str(path) for path in sorted((DATA / "c1sq6").glob("*.pq"))}  # the paper's six surfaces
# the .pq fixtures, the one input whose output reads the orientation of a string, and the six surfaces
SURFACES = {stem: str(fixture_path(f"{stem}.pq")) for stem in PQ} | {"z5_orientation": str(DATA / "z5_orientation.pq")} | C1SQ6


def _cases() -> dict[str, list[str]]:
    cases = {}
    for command in ("invariants", "singularities", "bounds"):
        for stem, path in SURFACES.items():
            cases[f"{command}-{stem}"] = [command, path]
            cases[f"{command}-{stem}-json"] = [command, path, "--json"]
    for stem in ("beauville_55_in_scope", "z2_hyperelliptic_in_scope"):
        path = str(DATA / f"{stem}.pq")
        cases[f"bounds-{stem}"] = ["bounds", path]
        cases[f"bounds-{stem}-json"] = ["bounds", path, "--json"]
    cases["table"] = ["table", *ALL_FIXTURES]
    cases["table-json"] = ["table", *ALL_FIXTURES, "--json"]
    cases["table-failing-row"] = ["table", str(DATA / "failing_row.rows")]
    cases["table-failing-row-json"] = ["table", str(DATA / "failing_row.rows"), "--json"]
    single = {
        "hj-7-3": ["hj", "7", "3"],
        "local-check": ["local-check", "--m", "2", "--section", "z1^2 + 3*z1*z2 - 1/2*z2^2"],
        "bigness": ["bigness", "--ksq", "6", "--chi", "1", "--points", "2"],
        "bigness-no-certificate": ["bigness", "--ksq", "1", "--chi", "1", "--points", "40"],
        "bigness-m-star-121": ["bigness", "--ksq", "81", "--chi", "1", "--points", "40"],
    }
    for case, argv in single.items():
        cases[case] = argv
        cases[f"{case}-json"] = [*argv, "--json"]
    return cases


CASES = _cases()


def run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_and_exit_code(case):
    code, out = run(CASES[case])
    assert out == (GOLDEN / f"{case}.out").read_bytes()
    assert code == json.loads(EXIT_CODES.read_text())[case]


@pytest.mark.parametrize("case", sorted(c for c in CASES if f"{c}-json" in CASES))
def test_text_view_renders_the_json_payload(case):
    """Each text golden is the command's renderer applied to the payload of
    its ``--json`` golden: the text view is a function of the JSON."""
    args = cli.build_parser().parse_args(CASES[case])
    payload = json.loads((GOLDEN / f"{case}-json.out").read_text())
    del payload["schema_version"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        args.render(payload)
    assert out.getvalue().encode() == (GOLDEN / f"{case}.out").read_bytes()


def _with_points_relabelled(text: str) -> str:
    """The ``.pq`` text with every point x of its ``[group]`` cycles renamed
    d - 1 - x, as ``big_group`` relabels its system: the same surface, whose
    group elements have other image strings.  Reordering the ``[group]``
    lines would change nothing, since the element order follows the first
    system."""
    degree = int(re.search(r"(?m)^degree = (\d+)$", text).group(1))
    relabel = functools.partial(re.sub, r"\d+", lambda m: str(degree - 1 - int(m[0])))
    return re.sub(r"(?m)^(\w+ = )(\(.*)$", lambda m: m[1] + relabel(m[2]), text)


@pytest.mark.parametrize("stem", [*PQ, *C1SQ6])
def test_output_does_not_depend_on_element_order(stem, tmp_path):
    path = Path(SURFACES[stem])
    text = path.read_text()
    relabelled = tmp_path / path.name  # a surface is named by its file, so the copy takes the same name
    relabelled.write_text(_with_points_relabelled(text))
    if stem != "z2_hyperelliptic":  # Z/2 on two points: every relabelling fixes its involution
        assert realize(parse_input(relabelled.read_text()))[0].images != realize(parse_input(text))[0].images
    for command in ("singularities", "invariants", "bounds"):
        for case, extra in ((f"{command}-{stem}", []), (f"{command}-{stem}-json", ["--json"])):
            assert run([command, str(relabelled), *extra]) == (0, (GOLDEN / f"{case}.out").read_bytes())


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(CASES)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], out = run(argv)
        (GOLDEN / f"{case}.out").write_bytes(out)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
