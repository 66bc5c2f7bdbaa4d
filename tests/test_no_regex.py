"""No module of ``src/pqsurf`` imports ``re``.

Every input grammar (integers, cycle notation, generator words, singularity
items, polynomials) is read with ``str`` methods in one pass, and
``tests/test_grammar_oracle.py`` holds the patterns they replaced as
reference grammars.  An import of ``re``, plain or from, is found in the
syntax tree of each module, so a comment or a string naming it does not
count.
"""

import ast
from pathlib import Path

import pytest

import pqsurf

SRC = Path(pqsurf.__file__).resolve().parent
MODULES = sorted(SRC.rglob("*.py"))


def imported_modules(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
    return names


def test_the_scan_finds_an_import_of_re():
    assert "re" in imported_modules(ast.parse("def f():\n    import re\n"))
    assert "re" in imported_modules(ast.parse("from re import fullmatch\n"))
    assert "re" not in imported_modules(ast.parse("from .re import x\nimport regex\n"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_does_not_import_re(path):
    assert "re" not in imported_modules(ast.parse(path.read_text()))
