"""Every function in src/pqsurf runs in some command.

A fresh interpreter runs the cases of ``tests/test_golden_outputs.py``, from
the import of ``pqsurf.cli`` on, under a call-event profiler
(``sys.setprofile``).  Every function, method and lambda defined in
``src/pqsurf`` must be entered, except the few in ``UNREACHED``, each with
its reason.  This extends ``tests/test_public_names.py`` from names to
reach: code that no command runs is deleted, not kept.  Comprehensions are
not counted; they run inside the function that holds them.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pqsurf

PACKAGE = Path(pqsurf.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}

_RECORD_COPY = "checks copies of a record made by _make or _replace; safety code that no command needs"
_BRANCH_FIBER = ("called by the benchmark's staged covers.fiber_ms layer and the test oracles; "
                 "a command reads the singular locus off conjugacy classes, not off fibres")
_PERMUTATION_GROUPS = ("builds a group from Permutation objects, for the benchmark's groups.closure_ms layer and "
                       "the tests; a command closes its group over the image strings of its first system")
UNREACHED = {
    "pqsurf.covers.SphericalSystem.<lambda>": _RECORD_COPY,
    "pqsurf.differentials.SourceSection.<lambda>": _RECORD_COPY,
    "pqsurf.differentials.PuiseuxDifferential.<lambda>": _RECORD_COPY,
    "pqsurf.groups.Permutation.<lambda>": _RECORD_COPY,
    "pqsurf.hj.SingularityType.<lambda>": _RECORD_COPY,
    "pqsurf.covers.branch_fiber": _BRANCH_FIBER,
    "pqsurf.groups.FiniteGroup.conjugate": "used only by branch_fiber: " + _BRANCH_FIBER,
    "pqsurf.groups.group_from_generators": _PERMUTATION_GROUPS,
    "pqsurf.groups.Permutation.degree": "used only by group_from_generators: " + _PERMUTATION_GROUPS,
}

# Runs in the fresh interpreter: prints [file name, first line, qualified
# name] of every function of the package entered.  pytest, which the golden
# module imports, is loaded before the profiler starts.
CHILD = """
import json, sys
from pathlib import Path
import pytest
entered = {}
def profile(frame, event, arg):
    if event == "call":
        entered[id(frame.f_code)] = frame.f_code
sys.setprofile(profile)
from tests.test_golden_outputs import CASES, run
for argv in CASES.values():
    run(argv)
sys.setprofile(None)
package = Path(sys.argv[1])
print(json.dumps([[Path(c.co_filename).name, c.co_firstlineno, c.co_qualname]
                  for c in entered.values() if Path(c.co_filename).resolve().parent == package]))
"""


def defined() -> dict[tuple[str, int, str], str]:
    """Every function, method and lambda in the package's source, keyed by
    (file name, first line, qualified name), valued by its module-qualified name."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "pqsurf" if path.stem == "__init__" else f"pqsurf.{path.stem}"
        codes = [compile(path.read_text(), str(path), "exec")]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if hasattr(c, "co_code")]
            if code.co_flags & inspect.CO_OPTIMIZED and code.co_name not in COMPREHENSIONS:  # a function body
                found[path.name, code.co_firstlineno, code.co_qualname] = f"{module}.{code.co_qualname}"
    return found


def entered() -> set[tuple[str, int, str]]:
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(PACKAGE)], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {tuple(key) for key in json.loads(proc.stdout)}


DEFINED = defined()


def test_every_function_runs_in_a_command():
    reached = entered()
    missed = {key: name for key, name in DEFINED.items() if key not in reached}
    unlisted = sorted(f"src/pqsurf/{file}:{line} {qualname}" for (file, line, qualname), name in missed.items()
                      if name not in UNREACHED)
    assert not unlisted, "no golden case enters:\n" + "\n".join(unlisted)
    stale = sorted(set(UNREACHED) - set(missed.values()))
    assert not stale, "allowed to be unreached, but reached or gone: " + ", ".join(stale)
