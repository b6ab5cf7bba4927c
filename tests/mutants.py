"""Mutation check: does Tier-1 fail on each listed mutant of the package?

Each mutant replaces one piece of text in one file of ``src/`` by another.
The script copies ``src/``, ``tests/``, ``bench/`` and ``pyproject.toml``
into a temporary directory for each mutant, applies the mutant to the
copy, never to ``src/``, and runs Tier-1 there, stopping at the first
failing test.  A mutant is killed when the suite fails on it and survives
when the suite passes.  It prints one line per mutant, its outcome and
whether that is the outcome expected, and exits 1 when any outcome is not
the one expected or a mutant's text does not occur exactly once.
Arguments, when given, are substrings of mutant names: only the mutants
whose names contain one of them run, and a substring that names no
mutant ends the script with exit code 2 before any run.

An expected survivor must carry, in a comment beside it, the argument that
it is equivalent to the code it replaces.  Tier-1 does not collect this
file; each mutant costs up to one full Tier-1 run.  Run it from anywhere:

    python3 tests/mutants.py                       # every mutant
    python3 tests/mutants.py maximal matrix_rank   # the mutants so named
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")
# reads the mutated copy, where the mutant's old text is gone by design
STALENESS_TEST = "tests/test_mutants.py::test_every_mutant_text_occurs_once"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    expected: str = "killed"


MUTANTS = (
    Mutant("face BFS skips a zero set", "src/toricfree/cones.py",
           "            for zero in zero_sets:\n",
           "            for zero in zero_sets[1:]:\n"),
    Mutant("fan closure drops each cone's own key", "src/toricfree/fans.py",
           "                keys |= _face_keys(c)\n",
           "                keys |= _face_keys(c) - {c.generators}\n"),
    Mutant("fan closure bound counts the rank once", "src/toricfree/fans.py",
           "        if len(keys) * rank * rank > _MAX_CLOSURE_SIZE:\n",
           "        if len(keys) * rank > _MAX_CLOSURE_SIZE:\n"),
    Mutant("fan closure bound refuses a closure exactly at it", "src/toricfree/fans.py",
           "        if len(keys) * rank * rank > _MAX_CLOSURE_SIZE:\n",
           "        if len(keys) * rank * rank >= _MAX_CLOSURE_SIZE:\n"),
    Mutant("maximal cones kept in validation order", "src/toricfree/fans.py",
           'object.__setattr__(self, "_top", tuple(top))',
           'object.__setattr__(self, "_top", tuple(top[::-1]))'),
    Mutant("maximal cones without the zero-cone fallback", "src/toricfree/fans.py",
           "        return self._top or self.cones\n",
           "        return self._top\n"),
    Mutant("is_face_of without its rank check", "src/toricfree/cones.py",
           '''        if self.rank != other.rank:
            raise ValueError("cones live in different lattices")
        self._require_strongly_convex()
        other._require_strongly_convex()
        return self.generators in _face_keys(other)
''',
           '''        self._require_strongly_convex()
        other._require_strongly_convex()
        return self.generators in _face_keys(other)
'''),
    Mutant("pair check accepts a face of either cone", "src/toricfree/fans.py",
           "key in faces and key in _face_keys(b)",
           "key in faces or key in _face_keys(b)"),
    Mutant("fan walls matched without the opposite-sides test", "src/toricfree/fans.py",
           "        if len(normals) != 2 or normals[0] != negated(normals[1]):\n",
           "        if len(normals) != 2:\n"),
    Mutant("fan walls accept a wall seen only once", "src/toricfree/fans.py",
           "        if len(normals) != 2 or normals[0] != negated(normals[1]):\n",
           "        if len(normals) > 2 or len(normals) == 2 and normals[0] != negated(normals[1]):\n"),
    Mutant("fan walls skip the interior-point test", "src/toricfree/fans.py",
           "    return all(any(dot(d, p) < 0 for d in c.dual.generators) for c in top[1:])\n",
           "    return True\n"),
    Mutant("fan walls count a point on a top's boundary as outside it", "src/toricfree/fans.py",
           "any(dot(d, p) < 0 for d in c.dual.generators)",
           "any(dot(d, p) <= 0 for d in c.dual.generators)"),
    Mutant("certificate check without its direct-sum determinant", "src/toricfree/klyachko.py",
           "if sum(dims) != n or not _bareiss(",
           "if sum(dims) != n or False and _bareiss("),
    Mutant("fan pass inherits from every top cone, not only positive ones",
           "src/toricfree/fans.py",
           "decided.items() if report.verdict\n",
           "decided.items()\n"),
    Mutant("fan pass lets a lone cone inherit from its own report", "src/toricfree/fans.py",
           "        return ((geometry, decide(geometry)),)\n",
           "        return ((geometry, inherit(geometry, decide(geometry))),)\n"),
    Mutant("fan pass reports a lone cone together with its faces", "src/toricfree/fans.py",
           "        return ((geometry, decide(geometry)),)\n",
           "        return _decide_from_tops(Fan([geometry]), decide, inherit)\n"),
    Mutant("fan pass decides a cone under a positive top instead of inheriting",
           "src/toricfree/fans.py",
           "report = decide(c) if top_report is None else inherit(c, top_report)\n",
           "report = decide(c)\n"),
    Mutant("fan freeness pass takes the top's witnesses past the face's weight_class",
           "src/toricfree/klyachko.py",
           "{u: face.weight_class(top.witnesses[u]) for u in face.rays()}",
           "{u: top.witnesses[u] for u in face.rays()}"),
    # the two verdicts agree on every cone, so the reports do not change: only the
    # tests that watch which decider the smoothness pass calls can tell it apart
    Mutant("fan smoothness pass inherits from the freeness verdict", "src/toricfree/smoothness.py",
           "_decide_from_tops(geometry, is_smooth_cone,",
           "_decide_from_tops(geometry, lambda c: is_smooth_cone(c)._replace(verdict=__import__("
           '"toricfree.klyachko").klyachko.decide_tangent_locally_free(c).verdict),'),
    Mutant("cone slots leave the face keys unset", "src/toricfree/cones.py",
           '    put(cone, "_face_keys", None)\n',
           ""),
    Mutant("certificate check without its canonical-representative test",
           "src/toricfree/klyachko.py",
           "        if m != weight_class:\n",
           "        if False:\n"),
    Mutant("certificate check without its containment test", "src/toricfree/klyachko.py",
           "                    space.contains_subspace(sub) for",
           "                    True for"),
    Mutant("certificate check skips the containment test once the dimensions agree",
           "src/toricfree/klyachko.py",
           "            if got != want or not all(\n",
           "            if got != want or got != want and not all(\n"),
    Mutant("certificate check's ranked walk stops one entry early", "src/toricfree/klyachko.py",
           "            while k < len(ranked) and ranked[k][0] < j:\n",
           "            while k < len(ranked) - 1 and ranked[k][0] < j:\n"),
    Mutant("certificate check passes a threshold between steps", "src/toricfree/klyachko.py",
           "                return _mismatch(u, i, got, want)\n",
           "                pass\n"),
    Mutant("certificate check without its distinct-class test", "src/toricfree/klyachko.py",
           "    if len(set(classes)) != len(classes):\n",
           "    if False:\n"),
    Mutant("certificate check accepts a zero summand", "src/toricfree/klyachko.py",
           "        if not sub.basis:\n",
           "        if False:\n"),
    Mutant("certificate check without its ambient-dimension guard", "src/toricfree/klyachko.py",
           "        if filt.ambient != n:\n",
           "        if False:\n"),
    Mutant("certificate keeps its entries in the order given", "src/toricfree/klyachko.py",
           "tuple(sorted(entries, key=_first))",
           "tuple(entries)"),
    Mutant("certificate _make, so _replace too, skips the sort", "src/toricfree/klyachko.py",
           "        return cls(*iterable)\n",
           "        return tuple.__new__(cls, iterable)\n"),
    Mutant("certificate without its empty slots", "src/toricfree/klyachko.py",
           "    __slots__ = ()\n",
           ""),
    Mutant("generator config _make, so _replace too, skips the checks", "src/toricfree/corpus.py",
           "        return cls(*iterable)\n",
           "        return tuple.__new__(cls, iterable)\n"),
    Mutant("generator config without its empty slots", "src/toricfree/corpus.py",
           "    __slots__ = ()\n",
           ""),
    Mutant("Smith form without its divisibility fix-up", "src/toricfree/lattice.py",
           "        off = next((i for i in range(t + 1, m) if any(c % p for c in d[i][t + 1:n])), None)\n",
           "        off = None\n"),
    Mutant("matrix_rank returns the kernel's rank", "src/toricfree/lattice.py",
           "    return n - len(_kernel_basis(rows, n))\n",
           "    return len(_kernel_basis(rows, n))\n"),
    Mutant("subspace row insert keeps a negative pivot", "src/toricfree/lattice.py",
           "    if work[p] < 0:\n        g = -g\n",
           ""),
    Mutant("subspace row insert keeps a negative pivot on unit content",
           "src/toricfree/lattice.py",
           "    new = work if g == 1 else",
           "    new = work if abs(g) == 1 else"),
    # Equivalent: ``_reduce_row`` against an empty basis walks no row and
    # returns its input as it was; the shortcut only skips the kernel lookup.
    Mutant("subspace row insert reduces against an empty basis", "src/toricfree/lattice.py",
           "    work = _reduce_row(row, basis, pivots) if basis else row\n",
           "    work = _reduce_row(row, basis, pivots)\n",
           expected="survived"),
    Mutant("Euclid step takes the floor quotient", "src/toricfree/lattice.py",
           "q = (2 * p + pk) // (2 * pk)",
           "q = p // pk"),
    Mutant("row-update kernel adds the multiple", "src/toricfree/lattice.py",
           'f"a[{i}] - q * b[{i}]"',
           'f"a[{i}] + q * b[{i}]"'),
    Mutant("dot kernel drops its last term", "src/toricfree/lattice.py",
           'products = [f"a[{i}] * b[{i}]" for i in range(n)]',
           'products = [f"a[{i}] * b[{i}]" for i in range(n - 1)]'),
    Mutant("combination kernel swaps its scalars", "src/toricfree/lattice.py",
           'f"s * a[{i}] - t * b[{i}]"',
           'f"t * a[{i}] - s * b[{i}]"'),
    Mutant("dot kernel chains every product in one sum", "src/toricfree/lattice.py",
           "_CHUNK = 64\n",
           "_CHUNK = 1 << 30\n"),
    Mutant("split record keeps each vector's sign as found", "src/toricfree/lattice.py",
           "    return tuple(b0) if pairings[k] > 0 else negated(b0)\n",
           "    return tuple(b0)\n"),
    # Equivalent: with an empty basis every ``_split_off`` finds no pairing
    # and returns None, and ``_hermite_eliminate`` has no row to reduce, so
    # the record is all None and no row is left either way; the early
    # return only saves the calls.
    Mutant("split chain without its empty-basis return", "src/toricfree/lattice.py",
           "    if not basis:\n        return [None for _ in rows], []\n",
           "",
           expected="survived"),
    Mutant("weight class returns early although the annihilator has rows",
           "src/toricfree/cones.py",
           "        if not rows:\n            return w\n",
           "        if len(rows) <= 1:\n            return w\n"),
    # Equivalent: with no annihilator row the reduction loop runs no step
    # and returns the weight as ``vec`` read it; the return only skips it.
    Mutant("weight class reduces against a zero annihilator", "src/toricfree/cones.py",
           "        if not rows:\n            return w\n",
           "",
           expected="survived"),
    Mutant("adjacency test asks for one more common normal", "src/toricfree/cones.py",
           "need = rank - len(lin) - 2",
           "need = rank - len(lin) - 1"),
    Mutant("Fourier-Motzkin step keeps a zero ray's mask without the new bit",
           "src/toricfree/cones.py",
           "                    kept.append((r, m | bit))\n",
           "                    kept.append((r, m))\n"),
    Mutant("adjacency test scans the positive rays' masks only", "src/toricfree/cones.py",
           "masks = [m for _, m in rays]",
           "masks = [m for _, m, _ in pos]"),
    Mutant("pair check runs on the first top cone alone", "src/toricfree/fans.py",
           "    for i, a in enumerate(cones):\n",
           "    for i, a in enumerate(cones[:1]):\n"),
    Mutant("every input generator kept as extreme", "src/toricfree/cones.py",
           "every) == 1 << j)",
           "every) == 1 << j or True)"),
    Mutant("split normal takes no projection step", "src/toricfree/cones.py",
           "                if pr:\n                    r = primitive(",
           "                if False:\n                    r = primitive("),
    Mutant("canonical cone does not reduce rays modulo the lineality", "src/toricfree/cones.py",
           "rays = {primitive(_reduce_row(ray, lin_rows, pivots)) for ray in rays}",
           "rays = {primitive(ray) for ray in rays}"),
    Mutant("certificate row cap doubled", "src/toricfree/serialize.py",
           "rows in decoded)) > cone.rank:",
           "rows in decoded)) > 2 * cone.rank:"),
    Mutant("recheck takes any verdict but null", "src/toricfree/serialize.py",
           'if not isinstance(verdict := free_doc.get("verdict"), bool):',
           'if (verdict := free_doc.get("verdict")) is None:'),
    Mutant("vector codec takes a list holding a bool whole", "src/toricfree/serialize.py",
           "set(map(type, value)) <= {int}",
           "set(map(type, value)) <= {int, bool}"),
    Mutant("integer codec accepts bool", "src/toricfree/serialize.py",
           "    if type(value) is int:\n",
           "    if isinstance(value, int):\n"),
    Mutant("fan document without its required-keys check", "src/toricfree/serialize.py",
           """    if "rank" not in doc or "cones" not in doc:\n"""
           """        raise ValueError("fan document requires 'rank' and 'cones'")\n""",
           ""),
    Mutant("geometry document without its both-keys check", "src/toricfree/serialize.py",
           """    if "cones" in doc and "generators" in doc:\n"""
           """        raise ValueError("document is both a cone ('generators') and a fan ('cones')")\n""",
           ""),
    Mutant("fan document without its cone-list check", "src/toricfree/serialize.py",
           "    if not isinstance(cones_field, list):\n"
           """        raise ValueError("'cones' must be a list of generator lists")\n""",
           ""),
    Mutant("certificate document without its entries check", "src/toricfree/serialize.py",
           """    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):\n"""
           """        raise ValueError("certificate document requires an 'entries' list")\n""",
           ""),
    Mutant("certificate entry without its object check", "src/toricfree/serialize.py",
           "        if not isinstance(entry, dict):\n"
           """            raise ValueError("certificate entry must be an object")\n""",
           ""),
    Mutant("certificate entry without its basis-list check", "src/toricfree/serialize.py",
           "        if not isinstance(basis_field, list):\n"
           """            raise ValueError("certificate entry requires a 'subspace_basis' list")\n""",
           ""),
)


def run(mutant: Mutant) -> str:
    """The mutant's outcome: killed, survived, or stale when its text is not there once."""
    with tempfile.TemporaryDirectory(prefix="toricfree-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(source, work / name)
        target = work / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        suite = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--deselect", STALENESS_TEST],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return "survived" if suite.returncode == 0 else "killed"


def main(names: list[str]) -> int:
    unmatched = [s for s in names if not any(s in m.name for m in MUTANTS)]
    if unmatched:
        print(f"no mutant name contains {', '.join(map(repr, unmatched))}", file=sys.stderr)
        return 2
    unexpected = 0
    for mutant in (m for m in MUTANTS if not names or any(s in m.name for s in names)):
        outcome = run(mutant)
        ok = outcome == mutant.expected
        unexpected += not ok
        print(f"{outcome:8}  {'as expected' if ok else 'UNEXPECTED'}  "
              f"{mutant.path}: {mutant.name}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
