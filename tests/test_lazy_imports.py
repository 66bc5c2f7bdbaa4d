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

# pqsurf.__all__ as it was when the package imported every submodule eagerly
ALL = [
    "DivisorClass", "EngineInconsistencyError", "FiniteGroup", "PQError", "ParseError",
    "Permutation", "SingularityType", "SourceSection", "SphericalSystem", "Subgroup",
    "SurfaceModel", "ValidationError", "bigness_certificate", "branch_fiber",
    "build_surface_model", "conjugate_subgroup", "covers", "cyclic_subgroup", "differentials",
    "dual_type", "element_order", "enumerate_singularities", "errors", "gamma_pullback",
    "group_from_generators", "groups", "hj", "hj_evaluate", "hj_expand", "inputs",
    "intersect_subgroups", "invariance_check", "is_holomorphic", "left_cosets", "make_system",
    "normalized_key", "orbit_partition", "parse_input", "quotient_data", "realize", "rh_genus",
    "run_invariants", "serialize_input", "singularities", "string_intersection_matrix",
    "string_length", "surface", "validate_system", "vanishing_conditions",
]

ENGINE = {"groups", "covers", "surface", "inputs", "bounds"}


def loaded(*args):
    """The pqsurf submodules a fresh interpreter imports for ``args``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    names = {
        line.split("|")[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return {name.split(".", 1)[1] for name in names if name.startswith("pqsurf.")}


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
