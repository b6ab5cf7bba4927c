"""Hypothesis runs derandomized, so every run of the suite draws the same examples.

Each property test's examples then follow from the test and the code
alone, not from the run or from an example database in ``.hypothesis/``
(``derandomize`` implies no database).  Every other setting comes from
the profile Hypothesis loads by default, and each test keeps its own
``max_examples`` and ``deadline``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
