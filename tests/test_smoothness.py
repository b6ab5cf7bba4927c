"""Lattice-basis smoothness test on cones."""

import random

from oracles import sympy_invariant_factors
from toricfree.cones import Cone, NotStronglyConvexError
from toricfree.smoothness import SmoothnessReport, is_smooth_cone


def test_orthants_smooth():
    for n in (2, 3, 4):
        gens = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        rep = is_smooth_cone(Cone(gens, n))
        assert rep.verdict and rep.reason is None


def test_zero_cone_and_primitive_rays_smooth():
    assert is_smooth_cone(Cone.zero(3)).verdict
    assert is_smooth_cone(Cone([(1, 2)], 2)).verdict
    assert is_smooth_cone(Cone([(3, 5, 7)], 3)).verdict


def test_index_two_surface_singularity():
    rep = is_smooth_cone(Cone([(1, 0), (1, 2)], 2))
    assert not rep.verdict
    assert rep.invariant_factor == 2
    assert rep.reason == "invariant factor 2 exceeds 1"


def test_higher_index_singularities():
    for k in range(2, 7):
        rep = is_smooth_cone(Cone([(1, 0), (1, k)], 2))
        assert not rep.verdict
        assert rep.invariant_factor == k


def test_too_many_rays():
    c = Cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
    rep = is_smooth_cone(c)
    assert not rep.verdict
    assert rep.reason == "4 rays but dimension 3"
    assert rep.invariant_factor is None


def test_lower_dimensional_cones():
    assert is_smooth_cone(Cone([(1, 0, 0), (0, 1, 0)], 3)).verdict
    # smooth needs the rays to extend to a basis, not just be independent
    rep = is_smooth_cone(Cone([(2, 0, 1), (0, 2, 1)], 3))
    assert not rep.verdict
    assert rep.invariant_factor == 2


def test_smoothness_inherited_by_faces():
    rng = random.Random(31)
    checked = 0
    while checked < 80:
        n = rng.choice([2, 3])
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        try:
            c = Cone(gens, n)
        except (NotStronglyConvexError, ValueError):
            continue
        if not is_smooth_cone(c).verdict:
            continue
        checked += 1
        for f in c.faces():
            assert is_smooth_cone(f).verdict, (c.generators, f.generators)


def test_unimodular_simplicial_cones_smooth():
    # any subset of a lattice basis spans a smooth cone
    assert is_smooth_cone(Cone([(1, 0, 0), (1, 1, 0), (1, 1, 1)], 3)).verdict
    assert is_smooth_cone(Cone([(2, 1), (1, 1)], 2)).verdict


def _reference_report(cone):
    """The smoothness report rebuilt from sympy's invariant factors of the rays."""
    rays = [list(u) for u in cone.rays()]
    if not rays:
        return SmoothnessReport(True)
    factors = sympy_invariant_factors(rays)
    if len(factors) != len(rays):
        return SmoothnessReport(False, reason=f"{len(rays)} rays but dimension {len(factors)}")
    for f in factors:
        if f != 1:
            return SmoothnessReport(
                False, reason=f"invariant factor {f} exceeds 1", invariant_factor=f)
    return SmoothnessReport(True)


def test_report_matches_sympy_invariant_factors():
    # a cone from Cone(...) stores its dimension, a face computes it when asked;
    # every face of every cone is checked, so both routes are covered
    rng = random.Random(2011)
    drawn = 0
    while drawn < 150:
        n = rng.choice([2, 3, 4, 5])
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n + 2))]
        try:
            c = Cone(gens, n)
        except (NotStronglyConvexError, ValueError):
            continue
        drawn += 1
        for cone in c.faces():  # the cone itself included
            assert is_smooth_cone(cone) == _reference_report(cone), cone
