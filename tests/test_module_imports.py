"""Import rules between the modules of the package.

No module imports ``fractions``: every module, ``RationalSubspace``
too, works on integers only and reads its entries through
``operator.index``.  The two deciders stay independent: neither
``smoothness`` nor ``klyachko`` reaches the other through the package's
imports, so their agreement is evidence and not one computation run
twice; their one fan pass lives in ``fans``, which reaches neither, and
only the geometry modules, ``cones`` and ``fans``, read face keys.
Splitting rows off a lattice basis is one loop, ``lattice._split_chain``:
no other module reaches its steps.  Every command pays for the package
import first, so no module imports ``dataclasses`` or ``inspect``, and
importing the command line loads neither.
"""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "toricfree"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_modules(path):
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def package_imports(path, stems):
    """Modules of the package a module imports, by name, however the import is spelled."""
    found = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                names.append(node.module)
            found.update(part for name in names for part in name.split(".") if part in stems)
    return found


def test_no_module_imports_fractions():
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(p.name == "lattice.py" for p in modules)
    users = {p.name for p in modules
             if any(m.split(".")[0] == "fractions" for m in imported_modules(p))}
    assert not users


def test_no_module_imports_dataclasses_or_inspect():
    users = {f"{p.name}: {m}" for p in sorted(PACKAGE.glob("*.py"))
             for m in imported_modules(p) if m.split(".")[0] in {"dataclasses", "inspect"}}
    assert not users


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -I: no PYTHONPATH and no user site, so only the interpreter and the package load modules;
    # -B: -I ignores PYTHONDONTWRITEBYTECODE, so without it the import writes bytecode into src/
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import toricfree.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-B", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def reachable(start):
    """The package's modules that the module ``start`` reaches through its imports, by stem."""
    stems = {p.stem for p in PACKAGE.glob("*.py")}
    assert {start, "smoothness", "klyachko"} <= stems
    graph = {stem: package_imports(PACKAGE / f"{stem}.py", stems) for stem in stems}
    seen, queue = set(), [start]
    while queue:
        for module in graph[queue.pop()] - seen:
            seen.add(module)
            queue.append(module)
    return seen


def test_deciders_do_not_import_each_other():
    assert "klyachko" not in reachable("smoothness")
    assert "smoothness" not in reachable("klyachko")


def test_the_fan_pass_reaches_neither_decider():
    # each decider hands fans._decide_from_tops its own rules
    assert not {"smoothness", "klyachko"} & reachable("fans")


def test_no_unused_imports():
    # __init__ imports names to re-export them; __future__ imports are compiler directives
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items()
                   if name not in used]
    assert not unused


def modules_naming(private):
    """The package's files that import, call or read as an attribute any of these names."""
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            if names & private:
                users.add(path.name)
    return users


def test_only_lattice_names_the_split_steps():
    # any mention outside lattice.py counts
    assert modules_naming({"_split_off", "_hermite_eliminate"}) == {"lattice.py"}


def test_only_the_geometry_modules_name_the_face_keys():
    # the fan passes of both deciders go through fans._decide_from_tops
    assert modules_naming({"_face_keys"}) == {"cones.py", "fans.py"}
