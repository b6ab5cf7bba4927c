"""Rational arithmetic stays confined to the lattice module.

Every other module works on integers only; ``RationalSubspace`` is the
one place that still accepts ``Fraction`` input, and clears its
denominators on the way in.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "toricfree"


def imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_only_lattice_imports_fractions():
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(p.name == "lattice.py" for p in modules)
    users = {p.name for p in modules
             if any(m.split(".")[0] == "fractions" for m in imported_modules(p))}
    assert users <= {"lattice.py"}
