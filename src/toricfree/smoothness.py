"""Smoothness of the affine piece attached to a strongly convex cone.

The test is purely lattice-theoretic: the cone is smooth exactly when its
extreme ray generators form part of a basis of the ambient lattice, which
requires one generator per dimension of the cone and all invariant factors
equal to one.  On a fan a face of a smooth top cone is smooth, its rays
part of the top's basis, with no test.  This module deliberately uses
nothing from the filtration machinery, so the two deciders stay
independent.
"""

from __future__ import annotations

from typing import NamedTuple

from .cones import Cone, _face_keys
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
    decided = {top: is_smooth_cone(top) for top in fan.maximal_cones()}
    # the generators of every face of a smooth top
    smooth = {key for top, report in decided.items() if report.verdict
              for key in _face_keys(top)}
    per_cone = []
    for c in fan.cones:
        report = decided.get(c)
        if report is None:
            report = SmoothnessReport(True) if c.generators in smooth else is_smooth_cone(c)
        per_cone.append((c, report))
    return tuple(per_cone)
