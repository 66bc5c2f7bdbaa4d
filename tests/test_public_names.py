"""Every public name has a user.

A name in ``pqsurf.__all__`` must be referenced in a module of the package
other than ``__init__.py``, on a line that is not its own ``def`` or
``class`` line, or in the benchmark (``perfbench/*.py``).  So must every
public method and property of a class in ``pqsurf.__all__``, as an
attribute (``.name``).  Tests do not count: a name that only tests use is
not part of what the program runs.
"""

import inspect
import re
import types
from pathlib import Path

import pytest

import pqsurf

SRC = Path(pqsurf.__file__).resolve().parent
PERFBENCH = SRC.parent.parent / "perfbench"


def lines_of(paths):
    return [line for path in paths for line in path.read_text().splitlines()]


SRC_LINES = lines_of(p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py")
PERFBENCH_LINES = lines_of(sorted(PERFBENCH.glob("*.py")))
MEMBERS = sorted(
    f"{name}.{member}"
    for name in pqsurf.__all__
    if inspect.isclass(cls := getattr(pqsurf, name))
    for member, value in vars(cls).items()
    if not member.startswith("_")
    and isinstance(value, (property, classmethod, staticmethod, types.FunctionType))
)


@pytest.mark.parametrize("name", pqsurf.__all__)
def test_public_name_has_a_user(name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    users = [line for line in SRC_LINES if word.search(line) and not own.match(line)]
    users += [line for line in PERFBENCH_LINES if word.search(line)]
    assert users, f"{name} is public, but nothing in src/pqsurf or perfbench uses it"


@pytest.mark.parametrize("member", MEMBERS)
def test_public_member_has_a_user(member):
    attribute = re.compile(rf"\.{re.escape(member.rpartition('.')[2])}\b")
    users = [line for line in SRC_LINES + PERFBENCH_LINES if attribute.search(line)]
    assert users, f"{member} is public, but nothing in src/pqsurf or perfbench uses it"
