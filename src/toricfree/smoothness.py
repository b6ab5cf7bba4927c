"""Smoothness of the affine piece attached to a strongly convex cone.

The test is purely lattice-theoretic: the cone is smooth exactly when its
extreme ray generators form part of a basis of the ambient lattice, which
requires one generator per dimension of the cone and all invariant factors
equal to one.  On a fan a face of a smooth top cone is smooth, its rays
part of the top's basis, with no test: the fan pass is the one top-cone
pass, ``fans._decide_from_tops``, with that rule.  This module
deliberately uses nothing from the filtration machinery, so the two
deciders stay independent.
"""

from __future__ import annotations

from typing import NamedTuple

from .cones import Cone
from .fans import _decide_from_tops
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


def decide_smooth_on_fan(fan) -> tuple[tuple[Cone, SmoothnessReport], ...]:
    """The smoothness report of every cone of a validated fan, in the fan's order.

    Only the top cones and the cones under no smooth top are decided.
    """
    return _decide_from_tops(fan, is_smooth_cone, lambda face, top: SmoothnessReport(True))
