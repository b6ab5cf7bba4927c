"""Cross-check that the smoothness and local-freeness deciders agree.

The two verdicts are computed by disjoint code paths (lattice normal forms
on one side, filtration certificates on the other); equality of the two on
every strongly convex cone is the statement the sweep machinery exercises
at scale.  On a fan each decider runs its own fan pass, which decides the
top cones and lets the faces of positive tops inherit from them; the same
pass takes a lone cone as its own only top.
"""

from __future__ import annotations

import time
from typing import Iterable, NamedTuple

from .cones import Cone
from .klyachko import (
    LocalFreenessReport,
    decide_tangent_locally_free,
    decide_tangent_locally_free_on_fan,
)
from .smoothness import SmoothnessReport, decide_smooth_on_fan, is_smooth_cone


class AgreementRecord(NamedTuple):
    """Both verdicts on one cone and whether they coincide."""

    cone: Cone
    smooth: SmoothnessReport
    locally_free: LocalFreenessReport
    agree: bool


class SweepSummary(NamedTuple):
    """Aggregate outcome of an agreement sweep over a cone corpus."""

    count: int
    agreements: int
    disagreements: tuple[AgreementRecord, ...]
    smooth_count: int
    elapsed_seconds: float

    @property
    def all_agree(self) -> bool:
        return not self.disagreements


def check_zariski_lipman(cone: Cone) -> AgreementRecord:
    """Run both deciders on one cone and record whether they agree."""
    smooth = is_smooth_cone(cone)
    free = decide_tangent_locally_free(cone)
    return AgreementRecord(cone, smooth, free, smooth.verdict == free.verdict)


def check_zariski_lipman_on_fan(geometry) -> tuple[AgreementRecord, ...]:
    """Both verdicts on every cone of a fan, or on a lone cone, from each decider's pass."""
    smooth = decide_smooth_on_fan(geometry)
    free = decide_tangent_locally_free_on_fan(geometry)
    return tuple(AgreementRecord(c, s, f, s.verdict == f.verdict)
                 for (c, s), (_, f) in zip(smooth, free))


def sweep(cones: Iterable[Cone]) -> SweepSummary:
    """Check agreement over a corpus; disagreements are collected, not raised.

    A nonempty disagreement list is a test failure for the caller to
    surface, since no strongly convex cone can have differing verdicts.
    """
    start = time.perf_counter()
    count = 0
    smooth_count = 0
    disagreements: list[AgreementRecord] = []
    for cone in cones:
        record = check_zariski_lipman(cone)
        count += 1
        if not record.agree:
            disagreements.append(record)
        if record.smooth.verdict:
            smooth_count += 1
    disagreements.sort(key=lambda r: r.cone.sort_key())
    return SweepSummary(
        count=count,
        agreements=count - len(disagreements),
        disagreements=tuple(disagreements),
        smooth_count=smooth_count,
        elapsed_seconds=time.perf_counter() - start,
    )
