"""Every public name has a user.

Each module of ``src/pqsurf`` is one home for its names; the package
re-exports nothing.  A public name is a module of the package, or a
top-level ``def``, ``class`` or assignment of one whose name has no leading
underscore (found with ``ast``).  Each must be referenced on a line of
``src/pqsurf`` other than its own definition, or on a line of the benchmark
(``perfbench/*.py``).  So must every public method and property of a public
class, as an attribute (``.name``).  Tests do not count: a name that only
tests use is not part of what the program runs.
"""

import ast
import re
from pathlib import Path

import pytest

import pqsurf

SRC = Path(pqsurf.__file__).resolve().parent
PERFBENCH = SRC.parent.parent / "perfbench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def assigned(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


# name -> (file, line) of its definition; a module is defined by all its lines
DEFINITIONS = {path.stem: (path, None) for path in MODULES}
MEMBERS = []
for path in MODULES:
    for node in ast.parse(path.read_text()).body:
        DEFINITIONS.update((name, (path, node.lineno)) for name in assigned(node) if not name.startswith("_"))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            MEMBERS += [f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]

# (file, line number, text) of every line a user may stand on
LINES = [(path, number, line) for path in [*MODULES, *sorted(PERFBENCH.glob("*.py"))]
         for number, line in enumerate(path.read_text().splitlines(), 1)]


@pytest.mark.parametrize("name", sorted(DEFINITIONS))
def test_public_name_has_a_user(name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    home, own = DEFINITIONS[name]
    users = [line for path, number, line in LINES
             if word.search(line) and not (path == home and own in (None, number))]
    assert users, f"{name} is public, but nothing in src/pqsurf or perfbench uses it"


@pytest.mark.parametrize("member", sorted(MEMBERS))
def test_public_member_has_a_user(member):
    attribute = re.compile(rf"\.{re.escape(member.rpartition('.')[2])}\b")
    users = [line for _, _, line in LINES if attribute.search(line)]
    assert users, f"{member} is public, but nothing in src/pqsurf or perfbench uses it"
