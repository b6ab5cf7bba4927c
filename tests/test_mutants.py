"""The mutation list in ``tests/mutants.py`` still applies to the package.

Each mutant replaces one piece of text in one file of ``src/``.  An edit
of ``src/`` that removes or repeats that text strands the mutant, and the
mutation script would only report it as stale after a long run; this
finds it at once.
"""

from mutants import MUTANTS, ROOT


def test_every_mutant_text_occurs_once():
    stale = [m.name for m in MUTANTS
             if (ROOT / m.path).read_text(encoding="utf-8").count(m.old) != 1]
    assert stale == []

