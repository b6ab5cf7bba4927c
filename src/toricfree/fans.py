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
(Cox-Little-Schenck, Toric Varieties, section 3.1).  A failed check
reports the offending pair of input cones together with their
intersection so the caller can see exactly where compatibility breaks.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .cones import MAX_FACES, Cone, FaceLimitError, _canonical_cone, _face_keys
from .lattice import Vector


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

    def __init__(self, cones: Iterable[Cone], rank: int | None = None):
        cone_list = list(cones)
        if rank is None:
            if not cone_list:
                raise ValueError("cannot infer lattice rank from an empty fan")
            rank = cone_list[0].rank
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
        # only the caller's cones that are faces of no other are checked, in
        # sorted order, so a failure is reported in their terms; their faces,
        # the other inputs among them, then meet correctly (module docstring)
        top.reverse()
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

    def rays(self) -> tuple:
        """Primitive generators of the one-dimensional cones, sorted."""
        return tuple(sorted(c.generators[0] for c in self.skeleton(1)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fan):
            return NotImplemented
        return self.rank == other.rank and self.cones == other.cones

    def __hash__(self) -> int:
        return hash((self.rank, self.cones))

    def __repr__(self) -> str:
        return f"Fan({len(self.cones)} cones, rank={self.rank})"


def _check_pairs(cones: Sequence[Cone]) -> None:
    for i, a in enumerate(cones):
        for b in cones[i + 1:]:
            meet = a.intersection(b)
            if not (meet.is_face_of(a) and meet.is_face_of(b)):
                raise FanValidationError(a, b, meet)


def validate_fan(cones: Iterable[Cone], rank: int | None = None) -> Fan:
    """Validate the given cones pairwise and close them under faces.

    Returns the validated fan; raises FanValidationError when two of the
    given cones meet badly, with the offending pair recorded on the exception.
    """
    return Fan(cones, rank)


def fan_from_generators(cone_generators: Sequence[Sequence[Sequence[int]]], rank: int) -> Fan:
    """Build a fan from raw generator lists for its (typically maximal) cones."""
    return Fan([Cone(gens, rank) for gens in cone_generators], rank)
