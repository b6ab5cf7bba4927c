"""Mutation check: does Tier-1 fail on each listed mutant of the package?

Each mutant replaces one piece of text in one file of ``src/`` by another.
The script copies ``src/``, ``tests/``, ``bench/`` and ``pyproject.toml``
into a temporary directory for each mutant, applies the mutant to the
copy, never to ``src/``, and runs Tier-1 there, stopping at the first
failing test.  A mutant is killed when the suite fails on it and survives
when the suite passes.  It prints one line per mutant, its outcome and
whether that is the outcome expected, and exits 1 when any outcome is not
the one expected or a mutant's text does not occur exactly once.

An expected survivor must carry, in a comment beside it, the argument that
it is equivalent to the code it replaces.  Tier-1 does not collect this
file; each mutant costs up to one full Tier-1 run.  Run it from anywhere:

    python3 tests/mutants.py
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
    Mutant("maximal_cones counts a cone as its own proper face", "src/toricfree/fans.py",
           "for k in _face_keys(c) if k != c.generators}",
           "for k in _face_keys(c)}"),
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
           "meet.is_face_of(a) and meet.is_face_of(b)",
           "meet.is_face_of(a) or meet.is_face_of(b)"),
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
             "--continue-on-collection-errors"],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return "survived" if suite.returncode == 0 else "killed"


def main() -> int:
    unexpected = 0
    for mutant in MUTANTS:
        outcome = run(mutant)
        ok = outcome == mutant.expected
        unexpected += not ok
        print(f"{outcome:8}  {'as expected' if ok else 'UNEXPECTED'}  "
              f"{mutant.path}: {mutant.name}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
