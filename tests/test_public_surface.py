"""The package's public surface.

The root exports a cone, the two deciders and their agreement check, the
four names README's "Library use" imports; everything else is imported
from its module.  A fan takes its lattice rank explicitly, and no alias
restates another public name.
"""

import pytest

import toricfree
from toricfree.cones import Cone
from toricfree.fans import Fan, validate_fan
from toricfree.klyachko import Filtration
from toricfree.lattice import RationalSubspace

ROOT = {"Cone", "check_zariski_lipman", "decide_tangent_locally_free", "is_smooth_cone"}


def test_the_root_exports_four_names_and_no_alias_or_rank_default_remains():
    assert sorted(toricfree.__all__) == sorted(ROOT) and len(toricfree.__all__) == 4
    assert all(callable(getattr(toricfree, name)) for name in ROOT)
    star = {}
    exec("from toricfree import *", star)
    assert set(star) - {"__builtins__"} == ROOT
    cones = [Cone([(1, 0), (0, 1)], 2)]
    for build in (Fan, validate_fan):
        with pytest.raises(TypeError):
            build(cones)
    for owner, alias in ((RationalSubspace, "span"), (Fan, "rays"), (Filtration, "breakpoints")):
        assert not hasattr(owner, alias)
