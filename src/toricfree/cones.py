"""Rational polyhedral cones: duals, faces, and canonical generator sets.

A cone lives in a fixed lattice of rank n and is stored by its canonical
generating set.  For strongly convex cones that set is the sorted tuple of
primitive extreme ray generators.  Dual cones need not be strongly convex;
their lineality space enters the generator list as explicit plus/minus
pairs of basis vectors, so membership is always the single uniform test
"pairs nonnegatively against every dual generator".  Every fact about a
cone's dual comes from one double description of its generators, kept in
one slot.  Its split chain comes first: the Hermite rows of the
annihilator, which ``dim``, ``perp_sublattice`` and ``weight_class``
read directly, and the split record of the cone's generators, which
``split_basis`` hands to the local-freeness decider.  The dual rays are
inserted over that chain the first time the dual is read, and ``dual``
hands them to ``_canonical_cone``.  ``Cone(...)`` runs the chain, and
inserts the rays at once only when the chain finds its input dependent,
to read the dual rays' zero sets for extremality; any other cone runs the
chain on first need.  A cone's incidence, its rays beyond the lineality
each with its bitmask over the dual's generators, is found once, when an
intersection resumes from the cone or its face keys are read.  The face
keys of a pointed cone, the generator tuples of its faces, are read off
its incidence once, with no cone built per face: ``is_face_of`` is one
lookup in them, ``faces`` builds its cones from them on each call, and a
fan's closure is their union.  Face lattices, and the face
closures of fans, stop at ``MAX_FACES`` cones.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import and_, mul
from typing import Iterable, Sequence

from .lattice import (
    RationalSubspace,
    Vector,
    _kernel_basis,
    _reduce_row,
    _split_chain,
    _standard_basis,
    dot,
    negated,
    primitive,
    vec,
)


# Most faces ``Cone.faces()`` enumerates, and most cones in the face closure
# of a fan.  ``verify`` decides every cone of a fan's closure: on the rank-12
# orthant, whose 4,096 faces sit at this cap, it takes about 6 s on 2 cores.
MAX_FACES = 4096


class FaceLimitError(ValueError):
    """Raised when a face lattice or a fan's face closure passes ``MAX_FACES``."""

    def __init__(self, what: str):
        super().__init__(f"{what} has more than the maximum of {MAX_FACES} faces")


class NotStronglyConvexError(ValueError):
    """Raised when cone input contains a line.

    The witness is a primitive lattice vector v with both v and -v in the
    cone described by the input generators.
    """

    def __init__(self, witness: Vector):
        self.witness = witness
        super().__init__(f"cone contains the line through {witness}")


class Cone:
    """An immutable cone in canonical form.

    ``Cone(generators, rank)`` rejects input spanning a line and reduces
    the generators to the sorted primitive extreme rays.  Cones whose
    generators are already canonical (duals, faces, intersections) are
    built by ``_canonical_cone`` alone.  Every cone runs the double
    description at most once, into ``_described``: ``Cone(...)`` on its
    input, any other cone on its generators when first needed.  The split
    chain, first, gives the dimension, the annihilator and the dependent
    generators.  Input it finds independent over Q is extreme and spans
    no line, so it is the cone's generators, and its rays wait for the
    first read of the dual.  Otherwise the rays are inserted at once.
    Their masks index the input, and only ``__init__`` reads them; when
    an input generator is not extreme it redoes only the split record.
    The incidence, filled by ``_incidence`` on first need, is another
    table: the cone's own rays beyond its lineality, each with its mask
    over the generators of its dual; ``_face_keys`` reads the face keys
    off it into their slot, and ``faces`` builds its cones from them on
    each call.  Equality and hashing use only the canonical generator
    tuple, so equal cones are interchangeable everywhere.
    """

    __slots__ = ("rank", "generators", "lineality_basis", "_described", "_dual",
                 "_incidence", "_face_keys", "_perp_pivots")

    def __init__(self, generators: Iterable[Sequence[int]], rank: int):
        if rank < 1:
            raise ValueError("lattice rank must be at least 1")
        gens = []
        for g in generators:
            v = vec(g)
            if len(v) != rank:
                raise ValueError(f"generator {v} has length {len(v)}, expected {rank}")
            if d := gcd(*v):
                gens.append(tuple([c // d for c in v]))
        gens = sorted(set(gens))
        splits, lin_rows = _split_chain(gens, _standard_basis(rank), rank)
        if None not in splits:
            # independent over Q: every generator is extreme and they span no line
            _set_slots(self, rank, tuple(gens), (), (tuple(lin_rows), None, splits))
            return
        lin_rows, dual_rays, splits = _double_description(gens, rank, None, (splits, lin_rows))
        # bit j of a dual ray's mask is set iff the ray vanishes on gens[j]
        masks = [m for _, m in dual_rays]
        every = (1 << len(gens)) - 1
        # the lineality space is the smallest face, so it holds a generator
        # iff it is not zero: one on which every dual ray vanishes
        if reduce(and_, masks, every):
            raise NotStronglyConvexError(
                _kernel_basis(lin_rows + tuple(r for r, _ in dual_rays), rank)[0])
        # the facets through g cut out its smallest face, so g is extreme
        # iff no other generator lies on all of them
        extreme = tuple(g for j, g in enumerate(gens)
                        if reduce(and_, [m for m in masks if m >> j & 1], every) == 1 << j)
        if len(extreme) < len(gens):
            # the split record indexes the cone's own generators
            splits = _split_chain(extreme, _standard_basis(rank), rank)[0]
        _set_slots(self, rank, extreme, (), (lin_rows, dual_rays, splits))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Cone is immutable")

    @classmethod
    def zero(cls, rank: int) -> "Cone":
        return cls((), rank)

    @property
    def dim(self) -> int:
        """The rank less that of the annihilator, whose Hermite rows the split chain keeps."""
        return self.rank - len(self._description()[0])

    @property
    def is_strongly_convex(self) -> bool:
        return not self.lineality_basis

    @property
    def dual(self) -> "Cone":
        """The dual cone, its rays inserted over the kept split chain when first read."""
        if self._dual is None:
            lin_rows, rays, splits = self._description()
            if rays is None:
                described = _double_description(self.generators, self.rank, None,
                                                (splits, lin_rows))
                object.__setattr__(self, "_described", described)
                rays = described[1]
            dual = _canonical_cone(lin_rows, [r for r, _ in rays], self.rank)
            object.__setattr__(self, "_dual", dual)
        return self._dual

    def _description(self) -> tuple[tuple[Vector, ...], list[tuple[Vector, int]] | None,
                                    list[Vector | None]]:
        """The double description of the cone's own generators, its split chain found once.

        The dual rays are None until ``dual`` inserts them over the chain.
        """
        if self._described is None:
            splits, lin_rows = _split_chain(self.generators, _standard_basis(self.rank),
                                            self.rank)
            object.__setattr__(self, "_described", (tuple(lin_rows), None, splits))
        return self._described

    def split_basis(self) -> list[Vector | None]:
        """The split record of the cone's double description, one entry per generator.

        Entry j is the b_j with <g_j, b_j> > 0 that ``_split_chain`` set
        aside for g_j, splitting the generators off the standard basis in
        turn, or None where g_j is dependent on the generators before it.
        """
        return self._description()[2]

    @property
    def facet_normals(self) -> tuple[Vector, ...]:
        """Extreme rays of the dual beyond its lineality pairs.

        Together with the span constraints these are the irredundant
        inequalities cutting the cone out of its linear span.
        """
        return _rays_beyond_lineality(self.dual)

    def contains(self, v: Sequence[int]) -> bool:
        w = vec(v)
        if len(w) != self.rank:
            raise ValueError(f"vector length {len(w)}, expected {self.rank}")
        return all(dot(d, w) >= 0 for d in self.dual.generators)

    def rays(self) -> tuple[Vector, ...]:
        """Primitive generators of the one-dimensional faces."""
        self._require_strongly_convex()
        return self.generators

    def _require_strongly_convex(self) -> None:
        if self.lineality_basis:
            raise ValueError("operation requires a strongly convex cone")

    def faces(self) -> tuple["Cone", ...]:
        """All faces, the cone itself and the zero cone included, in canonical order.

        Built on each call from the face keys ``_face_keys`` keeps: the cone
        itself, and one ``_canonical_cone`` for each other key.  Raises
        ``FaceLimitError`` once there are more than ``MAX_FACES``.
        """
        self._require_strongly_convex()
        faces = [self if key == self.generators else _canonical_cone((), key, self.rank)
                 for key in _face_keys(self)]
        return tuple(sorted(faces, key=Cone.sort_key))

    def is_face_of(self, other: "Cone") -> bool:
        """Whether this cone is a face of ``other``: one lookup of its generators.

        ``other``'s face keys, the generator tuples of its faces, are found
        the first time and kept, and cones in one lattice are equal exactly
        when their generators are; no face is built as a cone.  Both cones
        must be strongly convex and live in the same lattice.
        """
        if self.rank != other.rank:
            raise ValueError("cones live in different lattices")
        self._require_strongly_convex()
        other._require_strongly_convex()
        return self.generators in _face_keys(other)

    def perp_sublattice(self) -> list[Vector]:
        """Canonical basis of the annihilator of the cone in the dual lattice.

        These are the lattice vectors pairing to zero with every generator:
        the dual's lineality basis, Hermite-reduced rows of a saturated
        sublattice.  Reading them does not build the dual.
        """
        return list(self._description()[0])

    def weight_class(self, m: Sequence[int]) -> Vector:
        """Canonical representative of a dual-lattice vector modulo the annihilator.

        The representative is obtained by top-down reduction against the
        Hermite basis of ``perp_sublattice``, so equal classes always reduce
        to the same tuple.  The rows' pivots are found on the first call.
        """
        w = list(vec(m))
        if len(w) != self.rank:
            raise ValueError(f"weight length {len(w)}, expected {self.rank}")
        rows = self._description()[0]
        if self._perp_pivots is None:
            object.__setattr__(self, "_perp_pivots",
                               tuple(next(j for j, c in enumerate(row) if c) for row in rows))
        for row, pivot in zip(rows, self._perp_pivots):
            q = w[pivot] // row[pivot]
            if q:
                w = [a - q * b for a, b in zip(w, row)]
        return tuple(w)

    def span(self) -> RationalSubspace:
        return RationalSubspace.span(self.rank, self.generators)

    def intersection(self, other: "Cone") -> "Cone":
        """The cone cut out by the inequalities of both cones.

        The double description resumes from ``other``'s lineality and
        incidence, found once per cone, so only this cone's inequalities
        are inserted.  A pointed ``other`` leaves no lineality to split.
        """
        if self.rank != other.rank:
            raise ValueError("cones live in different lattices")
        lin_rows, rays, _ = _double_description(self.dual.generators, self.rank, other)
        return _canonical_cone(lin_rows, [r for r, _ in rays], self.rank)

    def sort_key(self) -> tuple:
        return (self.dim, self.generators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cone):
            return NotImplemented
        return self.rank == other.rank and self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.rank, self.generators))

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"Cone([{gens}], rank={self.rank})"


def dual_cone(cone: Cone) -> Cone:
    return cone.dual


def linearly_independent_rays(cone: Cone) -> bool:
    """Whether the extreme rays are linearly independent over Q: one ray per dimension."""
    return len(cone.rays()) == cone.dim


def _canonical_cone(lin_rows: Sequence[Vector], rays: Iterable[Vector], rank: int) -> Cone:
    """The cone spanned by a lineality basis, as plus/minus pairs, and rays.

    The only builder that skips the double description, and the only place
    that reduces rays modulo a lineality space.  The rows must be the
    Hermite basis ``_double_description`` returns, and the rays its extreme
    rays modulo that space or a subset of a pointed cone's generators.  The
    Hermite rows are in echelon form with positive pivots, so clearing
    their pivot columns in pivot order (``_reduce_row``) leaves a positive
    multiple of the unique residue with zero pivot coordinates, and
    ``primitive`` makes that multiple canonical.  With no rows the rays are
    the distinct primitive extreme rays of a pointed cone already, and are
    only sorted.
    """
    if lin_rows:
        pivots = [next(j for j, c in enumerate(row) if c) for row in lin_rows]
        rays = {primitive(_reduce_row(ray, lin_rows, pivots)) for ray in rays}
        rays = [*lin_rows, *map(negated, lin_rows), *rays]
    cone = object.__new__(Cone)
    _set_slots(cone, rank, tuple(sorted(rays)), tuple(lin_rows))
    return cone


def _set_slots(cone: Cone, rank: int, generators: tuple[Vector, ...],
               lin_rows: tuple[Vector, ...], described: tuple | None = None) -> None:
    """Fill every slot of a cone; the dual, incidence, face keys and pivots start unbuilt."""
    values = (rank, generators, lin_rows, described, None, None, None, None)
    for name, value in zip(Cone.__slots__, values):
        object.__setattr__(cone, name, value)


def _rays_beyond_lineality(cone: Cone) -> tuple[Vector, ...]:
    """A cone's generators other than the plus/minus pairs of its lineality basis."""
    pairs = set(cone.lineality_basis) | set(map(negated, cone.lineality_basis))
    return tuple(g for g in cone.generators if g not in pairs)


def _incidence(cone: Cone) -> tuple[tuple[Vector, int], ...]:
    """A cone's rays beyond its lineality, each with its mask over its dual's generators.

    Bit j of a ray's mask is set iff ``cone.dual.generators[j]`` vanishes
    on it.  Found the first time it is read and kept in its slot.
    """
    if cone._incidence is None:
        duals = cone.dual.generators
        object.__setattr__(cone, "_incidence", tuple(
            (r, sum(1 << j for j, d in enumerate(duals) if not sum(map(mul, d, r))))
            for r in _rays_beyond_lineality(cone)))
    return cone._incidence


def _face_keys(cone: Cone) -> frozenset[tuple[Vector, ...]]:
    """The generator tuples of a pointed cone's faces, itself and the zero cone included.

    The faces are the intersections of facets, each facet the rays its bit
    is set for in the incidence; the dual's lineality pairs vanish on every
    ray, so they cut each face to itself, which is already seen.  The rays
    are the cone's sorted generators, so a face is a bitmask over them, and
    its key lists the rays of its set bits in order.  Found the first time
    it is read and kept in its slot, with no cone built per face.  Raises
    ``FaceLimitError`` once there are more than ``MAX_FACES``.
    """
    if cone._face_keys is None:
        incidence = _incidence(cone)
        every = (1 << len(incidence)) - 1
        zero_sets = []
        for j in range(len(cone.dual.generators)):
            zero = sum(1 << i for i, (_, m) in enumerate(incidence) if m >> j & 1)
            zero_sets.append(zero)
        seen = {every}
        queue = [every]  # a pointed cone's facets meet in its apex, so the zero cone is reached
        while queue:
            current = queue.pop()
            for zero in zero_sets:
                cut = current & zero
                if cut not in seen:
                    seen.add(cut)
                    if len(seen) > MAX_FACES:
                        raise FaceLimitError(f"the face lattice of a rank-{cone.rank} cone")
                    queue.append(cut)
        object.__setattr__(cone, "_face_keys", frozenset(
            tuple([r for i, (r, _) in enumerate(incidence) if cut >> i & 1]) for cut in seen))
    return cone._face_keys


def _double_description(normals: Sequence[Vector], rank: int, start: Cone | None = None,
                        chain: tuple[list[Vector | None], Sequence[Vector]] | None = None
                        ) -> tuple[tuple[Vector, ...], list[tuple[Vector, int]],
                                   list[Vector | None]]:
    """V-description of the solution set of ``dot(a, x) >= 0`` for each a in normals.

    Returns the canonical Hermite basis of the lineality space and the
    extreme rays modulo it, each paired with its mask (bit i set iff
    ``dot(normals[i], ray) == 0``), as the insertion left them: neither
    reduced modulo that space nor sorted.  ``_canonical_cone`` does both;
    ``Cone.__init__`` reads its generators' zero sets off the masks, which
    reduction would not change.  The third value is the split record.
    Inequalities are inserted one at a time, and the rays kept between
    insertions are always exactly the extreme rays modulo the current
    lineality (Motzkin et al. 1953).

    The insertion resumes from the cone ``start`` when given: from its
    lineality basis and its incidence (its other generators, each masked
    over the generators of its dual, the inequalities cutting out exactly
    that cone), which the cone keeps for the next resumption.  The
    normals then take the bits after those, and the result is the one the
    insertion of those inequalities followed by ``normals`` would give,
    since it does not depend on the insertion order.  With no
    start the insertion starts from the whole space: the standard basis as
    lineality, no rays and nothing processed.

    The lineality and the split record come first, from one
    ``_split_chain`` of the normals off the starting lineality basis (or
    ``chain``, that chain's record and rows, when it has run already): its
    Hermite rows are the canonical lineality basis, and a normal a it set
    b0 aside for, with ``dot(a, b0) > 0``, takes a projection step along
    b0.  That projection maps the old cone modulo its lineality
    isomorphically onto its slice on the hyperplane of a, so the projected
    rays and b0 are the new extreme rays with no test.  Any other normal
    takes a Fourier-Motzkin step, which scores each ray against a once:
    the rays on the nonnegative side stay extreme, a zero one gaining the
    bit of a, and of the combinations of a positive and a negative ray
    only those formed from adjacent rays are extreme; with no ray on one
    side there is no pair to test.  Each ray carries its mask
    over the processed normals, and two rays are adjacent iff the normals
    Z vanishing on both number at least ``rank - lineality - 2`` and no
    third ray vanishes on all of Z (the incidence test of Fukuda and
    Prodon 1996).  The masks stay exact: projecting along the lineality,
    combining two rays with positive coefficients and reducing modulo the
    final lineality only scale each processed normal's pairing by a
    positive factor or add two pairings of one sign.

    All arithmetic is integral: a candidate ray r is replaced across the
    hyperplane of a new inequality a by combinations like
    ``dot(a, p) * r_neg - dot(a, r_neg) * p`` whose pairings cancel exactly.
    """
    if start is None:
        lin: Sequence[Vector] = _standard_basis(rank)
        rays: list[tuple[Vector, int]] = []  # (ray, mask)
        processed = 0
    else:
        lin = start.lineality_basis
        rays = list(_incidence(start))
        processed = len(start.dual.generators)
    splits, lin_rows = chain or _split_chain(normals, lin, rank)
    need = rank - len(lin) - 2  # rank - lineality - 2; each split cuts the lineality by one
    for i, (a, b0) in enumerate(zip(normals, splits), processed):
        bit = 1 << i
        if b0:
            need += 1
            p0 = sum(map(mul, a, b0))
            # project every ray onto the hyperplane of a
            projected = []
            for r, m in rays:
                pr = sum(map(mul, a, r))
                if pr:
                    r = primitive([p0 * x - pr * y for x, y in zip(r, b0)])
                projected.append((r, m | bit))
            rays = projected + [(b0, bit - 1)]
        else:
            # one pass scores each ray: the nonnegative side stays, in order
            pos, neg, kept = [], [], []
            for r, m in rays:
                p = sum(map(mul, a, r))
                if p > 0:
                    pos.append((r, m, p))
                    kept.append((r, m))
                elif p:
                    neg.append((r, m, p))
                else:
                    kept.append((r, m | bit))
            if pos and neg:
                masks = [m for _, m in rays]
                for p_ray, pm, pp in pos:
                    for n_ray, nm, pn in neg:
                        z = pm & nm
                        # extreme rays have distinct masks, so this asks for a third ray on all of z
                        if z.bit_count() >= need and not any(
                                m & z == z and m != pm and m != nm for m in masks):
                            w = primitive([pp * x - pn * y for x, y in zip(n_ray, p_ray)])
                            kept.append((w, z | bit))
            rays = kept
    return tuple(lin_rows), rays, splits
