"""Each subcommand loads only the layers it uses.

Fresh ``python -m pqsurf.cli`` processes run under ``-X importtime``, which
names every module the process imports; nothing here is timed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pqsurf

SRC = Path(pqsurf.__file__).resolve().parent.parent

# pqsurf.__all__ as it was when the package imported every submodule eagerly,
# less quotient_data, DivisorClass and serialize_input, which are deleted, and
# orbit_partition and intersect_subgroups, which only the test oracles use
# (tests/locus_oracle.py)
ALL = [
    "EngineInconsistencyError", "FiniteGroup", "PQError", "ParseError",
    "Permutation", "SingularityType", "SourceSection", "SphericalSystem", "Subgroup",
    "SurfaceModel", "ValidationError", "bigness_certificate", "branch_fiber",
    "build_surface_model", "conjugate_subgroup", "covers", "cyclic_subgroup", "differentials",
    "dual_type", "element_order", "enumerate_singularities", "errors", "gamma_pullback",
    "group_from_generators", "groups", "hj", "hj_evaluate", "hj_expand", "inputs",
    "invariance_check", "is_holomorphic", "left_cosets", "make_system",
    "normalized_key", "parse_input", "realize", "rh_genus",
    "run_invariants", "singularities", "string_intersection_matrix",
    "string_length", "surface", "validate_system", "vanishing_conditions",
]

ENGINE = {"groups", "covers", "surface", "inputs", "bounds"}


def imported(*args):
    """Every module a fresh interpreter imports for ``args``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.split("|")[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def loaded(*args):
    """The pqsurf submodules a fresh interpreter imports for ``args``."""
    return {name.split(".", 1)[1] for name in imported(*args) if name.startswith("pqsurf.")}


FIXTURES = SRC / "pqsurf" / "fixtures"
COMMANDS = {
    "hj": ["hj", "7", "3"],
    "bigness": ["bigness", "--ksq", "6", "--chi", "1", "--points", "2"],
    "local-check": ["local-check", "--m", "2", "--section", "z1^2 + z2^2"],
    "table": ["table", str(FIXTURES / "table_c1sq6.rows"), str(FIXTURES / "beauville_55.pq")],
    "invariants": ["invariants", str(FIXTURES / "beauville_55.pq")],
    "singularities": ["singularities", str(FIXTURES / "z2_hyperelliptic.pq")],
    "bounds": ["bounds", str(FIXTURES / "beauville_55.pq")],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_command_imports_dataclasses(command):
    # dataclasses pulls in inspect, ast and dis: more than a short command's own work
    modules = imported("-m", "pqsurf.cli", *COMMANDS[command], "--json")
    assert not modules & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv",
    [
        ["bigness", "--ksq", "6", "--chi", "1", "--points", "2", "--json"],
        ["local-check", "--m", "2", "--section", "z1^2 + z2^2", "--json"],
    ],
    ids=["bigness", "local-check"],
)
def test_differentials_commands_skip_the_engine(argv):
    modules = loaded("-m", "pqsurf.cli", *argv)
    assert "differentials" in modules
    assert not modules & (ENGINE | {"singularities", "hj"})


def test_hj_command_skips_the_engine():
    modules = loaded("-m", "pqsurf.cli", "hj", "7", "3", "--json")
    assert "hj" in modules
    assert not modules & ENGINE


def test_rows_table_skips_the_engine():
    # formula mode computes e, chi and P_g in inputs, without the group engine or the lattice
    modules = loaded("-m", "pqsurf.cli", "table", str(SRC / "pqsurf" / "fixtures" / "table_c1sq6.rows"))
    assert "inputs" in modules
    assert not modules & {"groups", "covers", "singularities", "surface", "bounds", "differentials"}


def test_package_import_loads_no_submodule():
    assert loaded("-c", "import pqsurf") == set()


def test_all_is_unchanged_and_resolves():
    assert pqsurf.__all__ == ALL
    for name in ALL:
        assert getattr(pqsurf, name) is not None


def test_submodules_and_moved_names_resolve():
    from pqsurf import bounds, hj, singularities

    assert bounds.__name__ == "pqsurf.bounds"
    assert pqsurf.singularities is singularities
    assert singularities.SingularityType is hj.SingularityType is pqsurf.SingularityType
    assert singularities.dual_type is pqsurf.dual_type
    with pytest.raises(AttributeError):
        getattr(pqsurf, "no_such_name")
