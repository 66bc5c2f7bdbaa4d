"""The paper's six surfaces, end to end.

The surfaces with p_g = 0 and c1^2 = c2 have K^2 = e = 6.  After
Bauer-Pignatelli, they are the six rows of ``table_c1sq6.rows``.  Each row
has one witness under ``tests/data/c1sq6/``, a ``.pq`` file that declares
``in_scope_c1sq6 = true``.  A header comment in the file states the group's
construction and the signatures.  For each file:

* ``invariants`` gives K^2 = e = 6, chi = 1, p_g = 0 and two nodes;
* ``table`` gives the row's line in every column but the name;
* ``bounds`` finds every central component non-rational.
"""

import json
from pathlib import Path

import pytest

from pqsurf.cli import main
from tests.conftest import fixture_path

C1SQ6 = Path(__file__).resolve().parent / "data" / "c1sq6"
ROW_OF = {"z2xd4": "Z2xD4", "z2xs4": "Z2xS4", "a5": "A5", "z2xs5": "Z2xS5", "psl27": "PSL(2,7)", "a6": "A6"}


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_one_file_per_row():
    assert {p.stem for p in C1SQ6.glob("*.pq")} == set(ROW_OF)


@pytest.mark.parametrize("stem", sorted(ROW_OF))
def test_invariants(capsys, stem):
    code, out = run(capsys, "invariants", str(C1SQ6 / f"{stem}.pq"), "--json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["Ksq"], payload["e"], payload["chi"], payload["q"], payload["pg"]) == (6, 6, 1, 0, 0)
    assert payload["singularities"] == [{"n": 2, "a": 1, "count": 2}]


@pytest.mark.parametrize("stem", sorted(ROW_OF))
def test_table_gives_the_row(capsys, stem):
    code, out = run(capsys, "table", str(fixture_path("table_c1sq6.rows")), str(C1SQ6 / f"{stem}.pq"), "--json")
    rows = {row.pop("name"): row for row in json.loads(out)["rows"]}
    assert code == 0 and len(rows) == 7
    assert rows[stem] == rows[ROW_OF[stem]]


@pytest.mark.parametrize("stem", sorted(ROW_OF))
def test_bounds_finds_every_central_non_rational(capsys, stem):
    path = C1SQ6 / f"{stem}.pq"
    assert "in_scope_c1sq6 = true" in path.read_text()
    code, out = run(capsys, "bounds", str(path))
    assert code == 0
    assert out.endswith("all central components non-rational\n")
