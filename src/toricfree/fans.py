"""Fans: finite face-closed collections of strongly convex cones.

Validation closes the input cones under faces, at most ``MAX_FACES``
cones in all, over the union of their face keys (the generator tuples of
their faces), so a face shared by many cones is one cone of the closure,
built once: the input cone itself, or one cone built from its key.  It
checks the defining compatibility condition, that the intersection of
any two cones is a face of each, only on the input cones that are not
faces of another input, the fan's maximal cones, which the closure finds
as it goes and the fan keeps.  The faces,
other inputs among them, need no check of their own: if two cones meet
in a face of each, then so does every pair of their faces
(Cox-Little-Schenck, Toric Varieties, section 3.1).  The intersection of
a pair is a face of each exactly when its generators are among the face
keys of each, which the closure has found already.  A failed check
reports the offending pair of input cones together with their
intersection so the caller can see exactly where compatibility breaks.

There are two validation paths.  A complete simplicial fan, such as the
fan of P^2 or of P^1 x P^1, is proved valid in time linear in its top
cones by ``_complete_by_walls``: each wall shared by exactly two tops
lying on opposite sides of it, and one interior point covered once
(De Loera, Rambau and Santos, Triangulations, 2010, chapter 4).  Every
other fan, invalid ones included, is checked pairwise as above, so every
error names the same pair it always did; the wall path can only accept.

A closure of c cones in rank n is refused past ``_MAX_CLOSURE_SIZE``
counted as c x n x n, checked as soon as the closure is known and before
any pair check: each cone of it is a report entry whose certificate holds
up to n x n integers, and sorting the closure runs a split chain per
face, which is nearly all of the time on a large one.

Both deciders read the kept top cones too, through one pass,
``_decide_from_tops``: a closure cone under a top answered yes on
inherits from it, since both properties pass to faces.  The same pass
takes a lone cone as its own only top, so it is the one place that tells
a cone from a fan.  Each decider supplies its rules and reads only its
own verdicts (``smoothness``, ``klyachko``); this module imports neither.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .cones import MAX_FACES, Cone, FaceLimitError, _canonical_cone, _face_keys, _incidence
from .lattice import Vector, dot, negated

# Most closure cones x rank x rank a fan may have (module docstring): about
# 3.6 times the rank-12 orthant with its faces, 4,096 x 12 x 12 = 589,824.
_MAX_CLOSURE_SIZE = 2 ** 21


class FanValidationError(ValueError):
    """Raised when a cone collection fails the pairwise face condition."""

    def __init__(self, first: Cone, second: Cone, intersection: Cone):
        self.first = first
        self.second = second
        self.intersection = intersection
        super().__init__(
            f"cones {first.generators} and {second.generators} intersect in "
            f"{intersection.generators}, which is not a face of both"
        )


class Fan:
    """An immutable validated fan: the full face-closed cone list, and its top cones."""

    __slots__ = ("rank", "cones", "_top")

    def __init__(self, cones: Iterable[Cone], rank: int):
        cone_list = list(cones)
        if rank < 1:
            raise ValueError("lattice rank must be at least 1")
        for c in cone_list:
            if c.rank != rank:
                raise ValueError(f"cone {c.generators} lives in rank {c.rank}, expected {rank}")
            if not c.is_strongly_convex:
                raise ValueError(f"cone {c.generators} is not strongly convex")
        distinct = sorted(set(cone_list), key=Cone.sort_key)
        # the closure is bounded before any pair is checked; the largest
        # cones go first, so the faces of one cover the cones below it; the
        # zero cone is a face of each, and the whole closure of no cone
        keys: set[tuple[Vector, ...]] = {()}
        top = []
        for c in reversed(distinct):
            if c.generators not in keys:
                top.append(c)
                keys |= _face_keys(c)
                if len(keys) > MAX_FACES:
                    raise FaceLimitError("the face closure of the fan")
        if len(keys) * rank * rank > _MAX_CLOSURE_SIZE:
            raise ValueError(
                f"the face closure of the fan has {len(keys)} cones in rank {rank}: closure "
                f"cones x rank x rank is {len(keys) * rank * rank}, more than the maximum "
                f"of {_MAX_CLOSURE_SIZE}")
        # only the caller's cones that are faces of no other are checked, in
        # sorted order, so a failure is reported in their terms; their faces,
        # the other inputs among them, then meet correctly; a complete
        # simplicial fan is proved valid by its walls instead (module docstring)
        top.reverse()
        if not _complete_by_walls(top, rank):
            _check_pairs(top)
        # one cone per distinct face: the caller's own, or one built from its key
        given = {c.generators: c for c in distinct}
        ordered = sorted((given.get(k) or _canonical_cone((), k, rank) for k in keys),
                         key=Cone.sort_key)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "cones", tuple(ordered))
        object.__setattr__(self, "_top", tuple(top))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Fan is immutable")

    def __iter__(self):
        return iter(self.cones)

    def __len__(self) -> int:
        return len(self.cones)

    def skeleton(self, dim: int) -> tuple[Cone, ...]:
        """All cones of exactly the given dimension."""
        return tuple(c for c in self.cones if c.dim == dim)

    def codim_le1_subfan(self) -> "Fan":
        """The subfan of zero- and one-dimensional cones."""
        return Fan([c for c in self.cones if c.dim <= 1], self.rank)

    def maximal_cones(self) -> tuple[Cone, ...]:
        """Cones that are not proper faces of any other cone in the fan, in sorted order.

        They are the top cones validation found, the caller's own objects;
        a fan of no cone but the zero cone has the zero cone alone.
        """
        return self._top or self.cones

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fan):
            return NotImplemented
        return self.rank == other.rank and self.cones == other.cones

    def __hash__(self) -> int:
        return hash((self.rank, self.cones))

    def __repr__(self) -> str:
        return f"Fan({len(self.cones)} cones, rank={self.rank})"


def _complete_by_walls(top: Sequence[Cone], rank: int) -> bool:
    """Whether the top cones are the maximal cones of a complete simplicial fan.

    True only when every top has ``rank`` rays and dimension ``rank``; each
    wall (the rays of a top on which one of its facet normals vanishes, read
    off the incidence its face keys were found from) belongs to exactly two
    tops, whose primitive normals on it are negatives of each other; and
    the sum p of the first top's rays pairs negatively with some dual
    generator of every other top, so lies in no other.  False says nothing:
    the caller then checks the pairs.

    Proof that True means a fan.  The tops, glued along their matched
    walls, form a closed pseudo-manifold, and the map that sends it to the
    unit sphere by each cone's own rays is, cell by cell, a homeomorphism
    onto a spherical simplex.  Opposite sides make that map
    orientation-preserving on every cell for one orientation of the
    whole, so it has a degree, and the local degree at every point is at
    least 1: by induction on links, since the link of a face in a closed
    pseudo-manifold whose walls lie on opposite sides is again one, of
    lower dimension, mapped the same way.  The point p lies inside the
    first top and in no other, so it is covered once and the degree is 1.
    So the map is a bijection: two tops meet only in the faces their
    gluing shares, which have the same rays in both, and two convex cones
    that meet in a union of common faces meet in one common face.
    """
    if not top:
        return False
    walls: dict[tuple[Vector, ...], list[Vector]] = {}
    for c in top:
        if len(c.generators) != rank or c.dim != rank:
            return False
        incidence = _incidence(c)
        for j, normal in enumerate(c.dual.generators):
            wall = tuple([r for r, m in incidence if m >> j & 1])
            walls.setdefault(wall, []).append(normal)
    for normals in walls.values():
        if len(normals) != 2 or normals[0] != negated(normals[1]):
            return False
    p = [sum(column) for column in zip(*top[0].generators)]
    return all(any(dot(d, p) < 0 for d in c.dual.generators) for c in top[1:])


def _check_pairs(cones: Sequence[Cone]) -> None:
    """Each pair meets in a face of both, ``is_face_of`` less the checks the fan has made."""
    for i, a in enumerate(cones):
        faces = _face_keys(a)
        for b in cones[i + 1:]:
            meet = a.intersection(b)
            key = meet.generators
            if not (key in faces and key in _face_keys(b)):
                raise FanValidationError(a, b, meet)


def _decide_from_tops(geometry: Fan | Cone, decide: Callable, inherit: Callable) -> tuple:
    """Each cone of a validated fan, or a lone cone, with its report, in the fan's order.

    A lone cone is its own only top, reported alone.  Top cones, and cones
    under no top with a true ``verdict``, get ``decide(cone)``; every
    other cone gets ``inherit(cone, top_report)``.
    """
    if isinstance(geometry, Cone):
        return ((geometry, decide(geometry)),)
    decided = {top: decide(top) for top in geometry.maximal_cones()}
    # the report of a positive top, keyed by the generators of each of its faces
    under = {key: report for top, report in decided.items() if report.verdict
             for key in _face_keys(top)}
    per_cone = []
    for c in geometry.cones:
        report = decided.get(c)
        if report is None:
            top_report = under.get(c.generators)
            report = decide(c) if top_report is None else inherit(c, top_report)
        per_cone.append((c, report))
    return tuple(per_cone)


def validate_fan(cones: Iterable[Cone], rank: int) -> Fan:
    """Validate the given cones, by their walls or pairwise, and close them under faces.

    Returns the validated fan; raises FanValidationError when two of the
    given cones meet badly, with the offending pair recorded on the exception.
    """
    return Fan(cones, rank)


def fan_from_generators(cone_generators: Sequence[Sequence[Sequence[int]]], rank: int) -> Fan:
    """Build a fan from raw generator lists for its (typically maximal) cones."""
    return Fan([Cone(gens, rank) for gens in cone_generators], rank)
