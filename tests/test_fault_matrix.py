"""A fault matrix: each quantity the engine computes, against the gate that
catches a wrong value of it.

``ENGINE_FAULTS`` in ``tests/test_cli.py`` asks whether each gate can fire.
This module asks the reverse.  Each row plants one wrong value, in process,
by wrapping one name (its owner, the name, a wrapper of the original), and
runs ``invariants --json`` and ``bounds --json`` on every input: the five
shipped ``.pq`` fixtures, the six witnesses in ``tests/data/c1sq6`` and
``tests/data/z5_orientation.pq``.  On each input the fault either leaves
the output and the exit code as they were, as the input never reads the
wrong value, or ends in exit 4 with one line that names what the row
expects: a cell, a curve, a string, or the invariant whose gate failed.
Every row ends in exit 4 on at least one input.

A gap that no gate catches is a strict xfail that names the ROADMAP item
that would close it, so a closed gap fails until its mark goes.
"""

import contextlib
import functools
import io
import re
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from pqsurf import cli, inputs, surface
from pqsurf.groups import FiniteGroup
from tests.conftest import fixture_path
from tests.test_cli import _first_point_dualized, _string_of_n_over_a

DATA = Path(__file__).resolve().parent / "data"
INPUTS = {path.name: str(path) for path in sorted(fixture_path("").iterdir()) if path.name.endswith(".pq")} | {
    f"c1sq6/{path.name}": str(path) for path in sorted((DATA / "c1sq6").glob("*.pq"))} | {
    "z5_orientation.pq": str(DATA / "z5_orientation.pq")}
COMMANDS = ("invariants", "bounds")

CHI = r"chi = \(K\^2 \+ e\)/12 = \S+ is not a positive integer"  # Noether's divisibility names no curve
CELL = r"fibre relation fails in cell \(\d+, \d+\)"


class Fault(NamedTuple):
    owner: object
    name: str
    wrap: Callable  # the original -> the faulty replacement
    names: str  # a pattern of what the error line names after the file


def _locus_with(change):
    """A wrapper of ``enumerate_singularities`` that changes its locus."""
    def wrap(enumerate_singularities):
        return lambda sys1, sys2: change(enumerate_singularities(sys1, sys2), sys2)
    return wrap


def _one_more_free_orbit(locus, sys2):
    return locus._replace(free_orbit_counts={**locus.free_orbit_counts,
                                             (1, 1): locus.free_orbit_counts[(1, 1)] + 1})


def _first_point_moved(locus, sys2):
    """The first point moved to the next cell over the same branch point of C1."""
    if not locus.points:
        return locus
    first = locus.points[0]
    i, j = first.branch_pair
    return locus._replace(points=(first._replace(branch_pair=(i, j % sys2.branch_count + 1)), *locus.points[1:]))


def _multiplicity_plus_one(position):
    """A wrapper of ``_string_multiplicities`` that adds 1 to one component's
    multiplicity in the fibre of C1's central component: the last one (the
    end that meets M_j) or, on a string of three or more, the middle one."""
    def wrap(multiplicities):
        def wrapped(b, n, m, first_end):
            d = list(multiplicities(b, n, m, first_end))
            if first_end and (position == "end" or len(d) >= 3):
                d[-1 if position == "end" else len(d) // 2] += 1
            return tuple(d)
        return wrapped
    return wrap


def _n1_squared_minus_one(build):
    def wrapped(model):
        build(model)
        n1 = model.N[0]
        model._set(n1, n1, model._rows[n1][n1] - 1)
    return wrapped


def _class_of_itself(conjugacy_class):
    """Membership in a class answered as if each element were conjugate to itself only."""
    return lambda group, x: {group.images[x]: 0}


def _order_minus_one(powers):
    """The powers of an element of order m > 2 cut to m - 1 of them."""
    return lambda group, i: (lambda cycle: cycle[:-1] if len(cycle) > 2 else cycle)(powers(group, i))


FAULTS = {
    "free-orbit-count": Fault(surface, "enumerate_singularities", _locus_with(_one_more_free_orbit),
                              r"fibre relation fails in cell \(1, 1\)"),
    "point-type": Fault(surface, "enumerate_singularities", _first_point_dualized,
                        r"central component [NM]\d+ has non-integral self-intersection"),
    "point-cell": Fault(surface, "enumerate_singularities", _locus_with(_first_point_moved),
                        rf"{CELL}|non-integral string multiplicity \S+ for \([\d, ]+\), m=\d+"),
    "end-string-multiplicity": Fault(surface, "_string_multiplicities", _multiplicity_plus_one("end"), CELL),
    "inner-string-multiplicity": Fault(surface, "_string_multiplicities", _multiplicity_plus_one("inner"), CHI),
    "string-orientation": Fault(surface, "_type_data", _string_of_n_over_a,
                                r"adjunction gives 2g - 2 = -?\d+ on [NM]\d+"),
    "k_x": Fault(surface, "_type_data", lambda f: lambda t: f(t)._replace(k_num=f(t).k_num + t.n),
                 r"K\^2 = -?\d+ from the lattice != 8\(g1-1\)\(g2-1\)/\|G\| - sum k_x = \S+"),
    "N_i^2": Fault(surface.SurfaceModel, "_build", _n1_squared_minus_one,
                   rf"{CHI}|Y\.E \+ Y\^2 = -?\d+ != r - sum a/n = -?\d+ on N1|adjunction gives .+ on N1"),
    "string-length-in-e": Fault(inputs, "string_length", lambda f: lambda t: f(t) + 1,
                                rf"{CHI}|e = \d+ != \d+ by Zeuthen-Segre on S -> C[12]/G"),
    "class-membership": Fault(FiniteGroup, "conjugacy_class", _class_of_itself,
                              rf"cell \(\d+, \d+\): -?\d+ coset pairs of type \(\d+, \d+\) are not whole orbits"
                              rf"|{CHI}|adjunction gives 2g - 2 = -?\d+ on [NM]\d+"),
    "element-order": Fault(FiniteGroup, "powers", _order_minus_one, r"(?!)"),  # no gate names it yet
}

# A wrong element order reaches only the checks of the input: Riemann-Hurwitz
# ("cover has genus 1 < 2", "branching data gives 2g - 2 = 8/3, not an
# admissible value") or a declared signature, each exit 3
ORDER_GAP = "ROADMAP item 11: a wrong element order in FiniteGroup.powers exits 3, not 4"
GAPS = {("element-order", name): ORDER_GAP for name in INPUTS if name != "z2_hyperelliptic.pq"}


@functools.cache
def unpatched(argv: tuple) -> tuple:
    return run(argv)


def run(argv: tuple) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--json"])
    return code, out.getvalue(), err.getvalue()


def outcomes(fault: Fault, path: str) -> list:
    """Each command's (exit code, stdout, stderr) with the fault planted,
    and its (exit code, stdout, stderr) without."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fault.owner, fault.name, fault.wrap(getattr(fault.owner, fault.name)))
        faulty = [run((command, path)) for command in COMMANDS]
    return list(zip(faulty, (unpatched((command, path)) for command in COMMANDS)))


def caught(fault: Fault, path: str, result: tuple) -> bool:
    code, out, err = result
    return code == 4 and out == "" and bool(re.fullmatch(f"error: {re.escape(path)}: (?:{fault.names})[^\n]*\n", err))


def gap(reason: str | None) -> list:
    return [pytest.mark.xfail(strict=True, reason=reason)] if reason else []


@pytest.mark.parametrize("row, name", [pytest.param(row, name, marks=gap(GAPS.get((row, name))))
                                       for row in FAULTS for name in INPUTS])
def test_fault_is_caught_or_unseen(row, name):
    fault, path = FAULTS[row], INPUTS[name]
    for faulty, clean in outcomes(fault, path):
        assert faulty == clean or caught(fault, path, faulty), faulty[::2]


@pytest.mark.parametrize("row", [pytest.param(row, marks=gap(ORDER_GAP if row == "element-order" else None))
                                 for row in FAULTS])
def test_every_fault_is_caught_somewhere(row):
    fault = FAULTS[row]
    assert any(caught(fault, path, faulty) for path in INPUTS.values() for faulty, _ in outcomes(fault, path))


def test_the_inputs_are_the_fixtures_the_witnesses_and_the_orientation_file():
    assert len(INPUTS) == 12 and all(Path(path).is_file() for path in INPUTS.values())
