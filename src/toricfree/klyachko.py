"""Filtration data for the tangent sheaf and the local-freeness decision.

The tangent sheaf on the open piece attached to a ray is described by one
decreasing filtration of the ambient space per ray: the full space up to
level 0, the line through the ray generator at level 1, zero from level 2
on.  On a cone, local freeness amounts to a weight-graded splitting of the
ambient space that reproduces every ray filtration; such a splitting is a
checkable certificate, and for the tangent sheaf it exists exactly when
integral dual weights with delta pairings against the rays do.  The
decider finds those weights by a triangular solve on the basis that the
cone's double description split off the standard basis, one Euclid-step
split per ray, with no Smith form, and reports each as the canonical
representative of its class modulo the annihilator; smoothness keeps the
only Smith form.

The certificate check reads each entry's weight class, dimension and
subspace once, and then walks each ray's entries once, ranked by their
pairing with the ray, in step with that ray's filtration: the summed
dimension falls as entries drop out, and the containment test runs only
where the filtration steps.  The decider builds the family, the
certificate's subspaces and the certificate itself from vectors it made,
through private builders that skip the public constructors' entry
checks; ``recheck`` does the same with the vectors ``decode_vector`` has
checked.

On a fan a face of a top cone found locally free inherits the top's
witnesses, then gets the usual certificate and self-check: the fan pass
is the one top-cone pass, ``fans._decide_from_tops``, with that rule.
Only this decider's verdicts are read, so it stays independent of
smoothness.
"""

from __future__ import annotations

from operator import index, itemgetter, mul
from typing import Mapping, NamedTuple, Sequence

from .cones import Cone
from .fans import _decide_from_tops
from .lattice import (
    RationalSubspace,
    Vector,
    _bareiss,
    _kernels,
    dot,
    is_primitive,
    vec,
)


class Filtration:
    """A decreasing integer-indexed family of subspaces of Q^n.

    The value is the full space below the first breakpoint and must reach
    zero at the last one.  Stored canonically as (index, subspace) pairs
    with strictly decreasing subspaces, so equal filtrations compare equal.
    """

    __slots__ = ("ambient", "steps")

    def __init__(self, ambient: int, steps: Sequence[tuple[int, RationalSubspace]]):
        previous = RationalSubspace.full(ambient)
        canonical: list[tuple[int, RationalSubspace]] = []
        last = None
        for i, sub in sorted(((index(i), sub) for i, sub in steps), key=lambda s: s[0]):
            if sub.ambient != ambient:
                raise ValueError("subspace ambient dimension mismatch")
            if i == last:
                raise ValueError(f"duplicate breakpoint {i}")
            last = i
            if sub == previous:
                continue
            if not previous.contains_subspace(sub):
                raise ValueError(f"filtration increases at level {i}")
            canonical.append((i, sub))
            previous = sub
        if previous.dim != 0:
            raise ValueError("filtration must reach the zero subspace")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "steps", tuple(canonical))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Filtration is immutable")

    @property
    def breakpoints(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.steps)

    def at(self, i: int) -> RationalSubspace:
        """The subspace at level i, an integer like the breakpoints."""
        i = index(i)
        current = RationalSubspace.full(self.ambient)
        for j, sub in self.steps:
            if i >= j:
                current = sub
            else:
                break
        return current

    def __eq__(self, other) -> bool:
        if not isinstance(other, Filtration):
            return NotImplemented
        return self.ambient == other.ambient and self.steps == other.steps

    def __hash__(self) -> int:
        return hash((self.ambient, self.steps))

    def __repr__(self) -> str:
        parts = ", ".join(f"{i}: dim {sub.dim}" for i, sub in self.steps)
        return f"Filtration({self.ambient}, [{parts}])"


FiltrationFamily = Mapping[Vector, Filtration]
"""A filtration per ray, keyed by the primitive ray generator."""

_first = itemgetter(0)


def tangent_filtration(ray: Sequence[int], ambient_rank: int) -> Filtration:
    """The three-level filtration of the tangent sheaf at one ray.

    Full space through level 0, the line spanned by the ray generator at
    level 1, zero from level 2 on.  The ray must be a primitive vector of
    length ``ambient_rank``; ``_tangent_filtration`` builds the steps
    once that is checked.
    """
    u = vec(ray)
    if len(u) != ambient_rank:
        raise ValueError(f"ray length {len(u)}, expected {ambient_rank}")
    if not is_primitive(u):
        raise ValueError(f"ray generator {u} is not primitive")
    return _tangent_filtration(u, ambient_rank)


def _tangent_filtration(u: Vector, n: int) -> Filtration:
    """The tangent filtration at a primitive ray generator u of length n, unchecked.

    The steps are built already canonical, without the validating
    ``Filtration`` constructor; in rank 1 the line is the whole space, so
    level 1 is no step.
    """
    zero = (2, RationalSubspace.zero(n))
    filt = object.__new__(Filtration)
    object.__setattr__(filt, "ambient", n)
    object.__setattr__(filt, "steps",
                       (zero,) if n == 1 else ((1, RationalSubspace._line(u)), zero))
    return filt


def tangent_family(cone: Cone) -> dict[Vector, Filtration]:
    """Tangent filtrations for every ray of a strongly convex cone.

    The rays are primitive vectors of the cone's rank already, so each
    filtration goes straight to the builder, past ``tangent_filtration``'s
    input checks.
    """
    n = cone.rank
    return {u: _tangent_filtration(u, n) for u in cone.rays()}


def sections_dimension(ray: Sequence[int], m: Sequence[int]) -> int:
    """Dimension of the weight-m graded piece of tangent sections at one ray.

    Equals the tangent filtration evaluated at minus the pairing of m with
    the ray generator: the ambient rank when the pairing is nonnegative,
    1 when it is exactly -1, and 0 below that.
    """
    u = vec(ray)
    filt = tangent_filtration(u, len(u))
    return filt.at(-dot(vec(m), u)).dim


class _CertificateFields(NamedTuple):
    cone: Cone
    entries: tuple[tuple[Vector, RationalSubspace], ...]


class DecompositionCertificate(_CertificateFields):
    """A candidate weight-graded splitting of the ambient space on a cone.

    Entries pair a weight class (canonical representative modulo the
    cone's annihilator sublattice) with a subspace, sorted by weight
    however the certificate is made, ``_make`` and ``_replace`` too.
    Validity is decided by verify_certificate, not the constructor.
    """

    __slots__ = ()

    def __new__(cls, cone: Cone, entries):
        return cls._from_vectors(cone, [(vec(m), sub) for m, sub in entries])

    @classmethod
    def _from_vectors(cls, cone: Cone, entries) -> "DecompositionCertificate":
        """The certificate of entries whose weights are vectors already, read unchecked."""
        return tuple.__new__(cls, (cone, tuple(sorted(entries, key=_first))))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class LocalFreenessReport(NamedTuple):
    """Outcome of the local-freeness decision on one cone."""

    verdict: bool
    witnesses: dict[Vector, Vector] | None = None
    certificate: DecompositionCertificate | None = None
    failure: str | None = None
    failing_ray: Vector | None = None


def diagnose_certificate(cone: Cone, family: FiltrationFamily,
                         cert: DecompositionCertificate) -> str | None:
    """Check a certificate against a filtration family; None means valid.

    The certificate must split the ambient space as a direct sum, and for
    every ray the partial sums over classes pairing at least i with the
    ray generator must reproduce the filtration at every level i.  Both
    sides are step functions of i, so it suffices to compare at each
    breakpoint and each pairing threshold.  Below all of them every
    summand counts and the filtration is the whole space, so both sides
    have dimension n, which the direct-sum check has already compared.
    No sum is formed: the whole sum is direct when the dimensions add up
    to n and the n stacked basis rows have a nonzero determinant, and
    then a partial sum has the summed dimension, so it equals the
    filtration's subspace exactly when the dimensions agree and that
    subspace contains every summand.

    The weight classes, dimensions and subspaces are read once.  Each
    ray's entries are then ranked by their pairing with it and walked
    once, in step with the filtration's steps: at level i the entries
    pairing below i have left the sum, whose dimension is n less theirs.
    Between two steps the filtration stays where it is while the sum
    loses summands, so the first pairing threshold strictly between two
    steps (or below the first) fails as soon as the walk reaches it; at
    a step both sides change, and the dimensions and the containment are
    compared there.  The last step is the zero subspace, so a sum that
    matches it has no entry left, and no level above it can fail.  The
    first level that fails, lowest first, gives the message.
    """
    n = cone.rank
    if cert.cone != cone:
        raise ValueError("certificate was issued for a different cone")
    rays = cone.rays()
    for u in rays:
        if u not in family:
            raise ValueError(f"family has no filtration for ray {u}")
    for filt in family.values():
        if filt.ambient != n:
            raise ValueError("filtration ambient dimension mismatch")
    weights = [m for m, _ in cert.entries]
    subs = [sub for _, sub in cert.entries]
    classes = [cone.weight_class(m) for m in weights]
    if len(set(classes)) != len(classes):
        return "weight classes are not pairwise distinct modulo the annihilator"
    # the entries' weights are vectors already: the certificate's constructor made them so
    for m, sub, weight_class in zip(weights, subs, classes):
        if m != weight_class:
            return f"weight {m} is not the canonical class representative"
        if sub.ambient != n:
            return "certificate subspace has wrong ambient dimension"
        if not sub.basis:
            return f"zero subspace attached to class {m}"
    dims = [len(sub.basis) for sub in subs]
    if sum(dims) != n or not _bareiss([[*row] for sub in subs for row in sub.basis]):
        return "subspaces do not sum directly to the full space"
    pair = _kernels(n)[0]
    for u in rays:
        ranked = sorted(zip([pair(m, u) for m in weights], dims, subs), key=_first)
        got, want, k = n, n, 0
        for j, space in family[u].steps:
            if k < len(ranked) and (i := ranked[k][0] + 1) < j:
                # a threshold between steps: the entries pairing i - 1 leave, the filtration stays
                while k < len(ranked) and ranked[k][0] < i:
                    got -= ranked[k][1]
                    k += 1
                return _mismatch(u, i, got, want)
            while k < len(ranked) and ranked[k][0] < j:
                got -= ranked[k][1]
                k += 1
            want = len(space.basis)
            if got != want or not all(
                    space.contains_subspace(sub) for _, _, sub in ranked[k:]):
                return _mismatch(u, j, got, want)
    return None


def _mismatch(u: Vector, i: int, got: int, want: int) -> str:
    return (f"filtration mismatch at ray {u}, level {i}: "
            f"summed dimension {got}, filtration dimension {want}")


def verify_certificate(cone: Cone, family: FiltrationFamily,
                       cert: DecompositionCertificate) -> bool:
    """True iff the certificate reproduces the family; see diagnose_certificate."""
    return diagnose_certificate(cone, family, cert) is None


def decide_tangent_locally_free(cone: Cone) -> LocalFreenessReport:
    """Decide local freeness of the tangent sheaf on one strongly convex cone.

    The verdict is true exactly when the extreme rays are linearly
    independent and each ray generator admits an integral dual weight
    pairing 1 with it and 0 with every other ray.  Each witness is reported
    as its class's canonical representative, ``cone.weight_class``: two
    weights with those pairings differ by an element of the annihilator,
    so the class does not depend on how the weight was found.  On success
    the emitted certificate assigns the line through each ray generator to
    its witness class, with any left-over directions carried by the zero
    class.

    No Smith form is taken, and no split of its own: the cone's split
    record, ``cone.split_basis()``, holds the b_j set aside as ray u_j was
    split off the standard basis in turn, with <u_j, b_j> > 0, leaving a
    basis of the lattice points on which u_1, ..., u_j vanish.  So
    b_1, ..., b_k and what is left form a lattice basis on which
    T[j][i] = <u_j, b_i> is lower triangular with a nonzero diagonal, and
    the record holds None, nothing set aside, exactly where u_j is
    dependent on the rays before it.  Each split takes one vector out of
    a basis of n, so more than n rays always leave a None, and the record
    is the only dependence test.  A weight m = sum y_i b_i pairs delta_ij
    with the rays iff T y = e_i on the first k coordinates, and forward
    substitution gives the one rational solution, so an integral witness
    exists iff every quotient it takes is exact.
    """
    n = cone.rank
    rays = cone.rays()
    if None in (split := cone.split_basis()):
        return LocalFreenessReport(False, failure="dependent rays")
    pair, sub, _ = _kernels(n)
    # row j holds T[j][0..j]
    table = [[pair(u, b) for b in split[:j + 1]] for j, u in enumerate(rays)]
    witnesses: dict[Vector, Vector] = {}
    for i, u in enumerate(rays):
        # y_l = 0 for l < i, so m sums b_l from l = i on
        m, y = [0] * n, []
        for j in range(i, len(rays)):
            row = table[j]
            y_j, rest = divmod((j == i) - sum(map(mul, row[i:j], y)), row[j])
            if rest:
                return LocalFreenessReport(
                    False, failure=f"no integral dual weight for ray {u}", failing_ray=u)
            y.append(y_j)
            if y_j:
                m = sub(m, -y_j, split[j])
        witnesses[u] = cone.weight_class(m)
    return _certified(cone, witnesses)


def _certified(cone: Cone, witnesses: dict[Vector, Vector]) -> LocalFreenessReport:
    """The positive report with these witnesses, its certificate self-checked first."""
    n = cone.rank
    rays = cone.rays()
    # each ray's certificate line is its filtration at level 1, built once for the self-check too
    family = tangent_family(cone)
    entries = [(witnesses[u], family[u].at(1)) for u in rays]
    # the rays are independent here, so they span less than Q^n exactly when
    # len(rays) < n; the orthogonal complement of their span is the annihilator
    if len(rays) < n:
        entries.append(((0,) * n, RationalSubspace._from_vectors(n, cone.perp_sublattice())))
    cert = DecompositionCertificate._from_vectors(cone, entries)
    problem = diagnose_certificate(cone, family, cert)
    if problem is not None:
        raise AssertionError(f"emitted certificate failed verification: {problem}")
    return LocalFreenessReport(True, witnesses=witnesses, certificate=cert)


def decide_tangent_locally_free_on_fan(fan) -> tuple[tuple[Cone, LocalFreenessReport], ...]:
    """The local-freeness report of every cone of a validated fan, in the fan's order.

    Only the top cones and the cones under no positive top are decided.
    The witnesses m_u of a top pair delta with the rays of each face tau,
    so tau's are ``tau.weight_class(m_u)``, the ones its own decision
    would find.
    """
    return _decide_from_tops(fan, decide_tangent_locally_free, lambda face, top: _certified(
        face, {u: face.weight_class(top.witnesses[u]) for u in face.rays()}))
