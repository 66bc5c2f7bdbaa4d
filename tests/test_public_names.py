"""Every public name has a user.

A name in ``pqsurf.__all__`` must be referenced in a module of the package
other than ``__init__.py``, on a line that is not its own ``def`` or
``class`` line, or in the benchmark (``perfbench/*.py``).  Tests do not
count: a name that only tests use is not part of what the program runs.
"""

import re
from pathlib import Path

import pytest

import pqsurf

SRC = Path(pqsurf.__file__).resolve().parent
PERFBENCH = SRC.parent.parent / "perfbench"


def lines_of(paths):
    return [line for path in paths for line in path.read_text().splitlines()]


SRC_LINES = lines_of(p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py")
PERFBENCH_LINES = lines_of(sorted(PERFBENCH.glob("*.py")))


@pytest.mark.parametrize("name", pqsurf.__all__)
def test_public_name_has_a_user(name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    users = [line for line in SRC_LINES if word.search(line) and not own.match(line)]
    users += [line for line in PERFBENCH_LINES if word.search(line)]
    assert users, f"{name} is public, but nothing in src/pqsurf or perfbench uses it"
