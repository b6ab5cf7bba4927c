"""Smoothness of the affine piece attached to a strongly convex cone.

The test is purely lattice-theoretic: the cone is smooth exactly when its
extreme ray generators form part of a basis of the ambient lattice, which
requires one generator per dimension of the cone and all invariant factors
equal to one.  This module deliberately uses nothing from the filtration
machinery, so the two deciders stay independent.
"""

from __future__ import annotations

from typing import NamedTuple

from .cones import Cone
from .lattice import invariant_factors


class SmoothnessReport(NamedTuple):
    """Outcome of the smoothness decision on one cone."""

    verdict: bool
    reason: str | None = None
    invariant_factor: int | None = None


def is_smooth_cone(cone: Cone) -> SmoothnessReport:
    """Decide smoothness of a strongly convex cone.

    True iff the number of extreme rays equals the cone dimension and the
    ray generators extend to a lattice basis.  The zero cone is smooth.
    """
    rays = cone.rays()
    # the cone dimension is the rank of the rays, so only independent rays reach the Smith form
    if len(rays) != cone.dim:
        return SmoothnessReport(False, reason=f"{len(rays)} rays but dimension {cone.dim}")
    for f in invariant_factors(rays):
        if f != 1:
            return SmoothnessReport(
                False, reason=f"invariant factor {f} exceeds 1", invariant_factor=f)
    return SmoothnessReport(True)
