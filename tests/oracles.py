"""Independent oracles used only by the test suite.

Integer solving goes through sympy's Smith decomposition rather than the
package's own solver, and the local-freeness oracle enumerates the whole
forced weight box instead of reusing the decision procedure, so each
comparison genuinely crosses two routes.  The local-freeness witnesses
are also found a second way, by the package's Smith form with its
transforms, which the decider itself no longer takes, and a third, by
the decider's own earlier loop that split each ray off the standard
basis itself instead of reading the cone's split record.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_decomp

from toricfree.cones import Cone, _canonical_cone, _double_description
from toricfree.klyachko import (
    DecompositionCertificate,
    LocalFreenessReport,
    diagnose_certificate,
    tangent_family,
    verify_certificate,
)
from toricfree.lattice import (
    RationalSubspace,
    _split_off,
    _standard_basis,
    dot,
    hermite_normal_form,
    identity_matrix,
    is_zero,
    smith_normal_form,
    solve_integer_system,
    transpose,
    vec,
)


def sympy_solve_integer(rows: list[list[int]], rhs: list[int]) -> tuple[int, ...] | None:
    """One integer solution of rows @ x = rhs via sympy's Smith decomposition."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    dm = DomainMatrix([[ZZ(c) for c in row] for row in rows], (m, n), ZZ)
    d, s, t = smith_normal_decomp(dm)
    d_list = [[int(c) for c in row] for row in d.to_list()]
    s_list = [[int(c) for c in row] for row in s.to_list()]
    t_list = [[int(c) for c in row] for row in t.to_list()]
    c = [sum(s_list[i][j] * rhs[j] for j in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(m):
        di = d_list[i][i] if i < n else 0
        if di:
            if c[i] % di:
                return None
            y[i] = c[i] // di
        elif c[i]:
            return None
    return tuple(sum(t_list[i][j] * y[j] for j in range(n)) for i in range(n))


def sympy_determinant(rows: list[list[int]]) -> int:
    """Determinant of a nonempty square integer matrix by sympy's domain matrices."""
    n = len(rows)
    return int(DomainMatrix([[ZZ(c) for c in row] for row in rows], (n, n), ZZ).det())


def sympy_invariant_factors(rows: list[list[int]]) -> tuple[int, ...]:
    from sympy.matrices import Matrix
    from sympy.matrices.normalforms import smith_normal_form as snf

    if not rows:
        return ()
    d = snf(Matrix(rows))
    k = min(d.shape)
    return tuple(abs(int(d[i, i])) for i in range(k) if d[i, i] != 0)


def brute_force_locally_free(cone: Cone) -> bool:
    """Exhaustive certificate search over the forced weight box.

    Any tangent certificate class must pair into {0, 1} with every ray
    (values >= 2 violate the zero tail of the filtration, and a negative
    value would exclude the class from a sum that has to be everything).
    The search solves every 0/1 pairing pattern with the sympy-based
    integer solver; a class whose pattern hits two distinct rays would
    need a subspace inside two different lines, so coverage can only come
    from the singleton patterns, each carrying that ray's line, plus the
    zero pattern carrying a complement.  Every assembled candidate goes
    through verify_certificate, which is the final authority.
    """
    rays = cone.rays()
    n = cone.rank
    if not rays:
        cert = DecompositionCertificate(cone, [((0,) * n, RationalSubspace.full(n))])
        return verify_certificate(cone, tangent_family(cone), cert)
    k = len(rays)
    matrix = [list(u) for u in rays]
    achievable: dict[tuple[int, ...], tuple[int, ...]] = {}
    for pattern in product((0, 1), repeat=k):
        m = sympy_solve_integer(matrix, list(pattern))
        if m is not None:
            achievable[pattern] = m
    singletons = {}
    for i in range(k):
        pattern = tuple(1 if j == i else 0 for j in range(k))
        if pattern not in achievable:
            return False
        singletons[i] = achievable[pattern]
    entries = [(cone.weight_class(singletons[i]), RationalSubspace.span(n, [rays[i]]))
               for i in range(k)]
    ray_span = RationalSubspace.span(n, rays)
    if ray_span.dim < n:
        entries.append((cone.weight_class((0,) * n), ray_span.orthogonal_complement()))
    cert = DecompositionCertificate(cone, entries)
    return verify_certificate(cone, tangent_family(cone), cert)


def witnesses_by_smith(cone: Cone) -> LocalFreenessReport:
    """Local-freeness witnesses from Smith forms with their transforms.

    Rays no more numerous than the rank are independent iff the first
    len(rays) diagonal entries of their Smith form are nonzero, and the
    witness for ray i solves rays @ m = e_i in Smith coordinates, by
    ``solve_integer_system``.  The report carries the raw solutions, no
    certificate, and the first ray with no integral solution.  Transform
    entries grow fast with the rank, so keep the inputs small.
    """
    rays = cone.rays()
    smith = smith_normal_form(rays) if len(rays) <= cone.rank else None
    if smith is None or not all(smith[0][i][i] for i in range(len(rays))):
        return LocalFreenessReport(False, failure="dependent rays")
    witnesses = {}
    for idx, u in enumerate(rays):
        m = solve_integer_system(rays, [int(j == idx) for j in range(len(rays))])
        if m is None:
            return LocalFreenessReport(
                False, failure=f"no integral dual weight for ray {u}", failing_ray=u)
        witnesses[u] = m
    return LocalFreenessReport(True, witnesses=witnesses)


def decide_by_own_splits(cone: Cone) -> LocalFreenessReport:
    """``decide_tangent_locally_free`` splitting each ray off the standard basis itself.

    The decider reads b_1, ..., b_k from the split record of the cone's
    double description; this runs the same ``_split_off`` calls in a loop
    of its own, stopping at the first ray that sets nothing aside, and
    builds and self-checks the same certificate.
    """
    n = cone.rank
    rays = cone.rays()
    if len(rays) > n:
        return LocalFreenessReport(False, failure="dependent rays")
    basis = list(_standard_basis(n))
    split: list = []
    table: list[list[int]] = []  # row j holds T[j][0..j]
    for u in rays:
        step = _split_off(basis, u)
        if step is None:
            return LocalFreenessReport(False, failure="dependent rays")
        split.append(step[0])
        table.append([dot(u, b) for b in split])
    witnesses = {}
    for i, u in enumerate(rays):
        m, y = [0] * n, []
        for j in range(i, len(rays)):
            row = table[j]
            y_j, rest = divmod((j == i) - sum(a * b for a, b in zip(row[i:j], y)), row[j])
            if rest:
                return LocalFreenessReport(
                    False, failure=f"no integral dual weight for ray {u}", failing_ray=u)
            y.append(y_j)
            m = [x + y_j * c for x, c in zip(m, split[j])]
        witnesses[u] = cone.weight_class(m)
    family = tangent_family(cone)
    entries = [(witnesses[u], RationalSubspace.span(n, [u])) for u in rays]
    if len(rays) < n:
        entries.append(((0,) * n, RationalSubspace.span(n, cone.perp_sublattice())))
    cert = DecompositionCertificate(cone, entries)
    problem = diagnose_certificate(cone, family, cert)
    if problem is not None:
        raise AssertionError(f"emitted certificate failed verification: {problem}")
    return LocalFreenessReport(True, witnesses=witnesses, certificate=cert)


def diagnose_by_partial_sums(cone: Cone, family, cert: DecompositionCertificate) -> str | None:
    """``diagnose_certificate`` by forming every sum it talks about.

    The same checks in the same order with the same messages, but the
    direct sum is tested by adding all the subspaces and comparing with
    the full space, and each level by adding the chosen subspaces and
    comparing with the filtration's subspace.
    """
    n = cone.rank
    if cert.cone != cone:
        raise ValueError("certificate was issued for a different cone")
    rays = cone.rays()
    for u in rays:
        if u not in family:
            raise ValueError(f"family has no filtration for ray {u}")
    for _, filt in family.items():
        if filt.ambient != n:
            raise ValueError("filtration ambient dimension mismatch")
    entries = cert.entries
    classes = [cone.weight_class(m) for m, _ in entries]
    if len(set(classes)) != len(classes):
        return "weight classes are not pairwise distinct modulo the annihilator"
    for (m, sub), weight_class in zip(entries, classes):
        if vec(m) != weight_class:
            return f"weight {m} is not the canonical class representative"
        if sub.ambient != n:
            return "certificate subspace has wrong ambient dimension"
        if sub.dim == 0:
            return f"zero subspace attached to class {m}"
    total_dim = sum(sub.dim for _, sub in entries)
    span_all = RationalSubspace.zero(n)
    for _, sub in entries:
        span_all = span_all + sub
    if total_dim != n or span_all != RationalSubspace.full(n):
        return "subspaces do not sum directly to the full space"
    for u in rays:
        filt = family[u]
        pairings = [dot(m, u) for m, _ in entries]
        levels = set(filt.breakpoints) | {p + 1 for p in pairings}
        levels.add(min(levels) - 1)
        for i in sorted(levels):
            expected = filt.at(i)
            got = RationalSubspace.zero(n)
            for (m, sub), p in zip(entries, pairings):
                if p >= i:
                    got = got + sub
            if got != expected:
                return (f"filtration mismatch at ray {u}, level {i}: "
                        f"summed dimension {got.dim}, filtration dimension {expected.dim}")
    return None


def fraction_rank(rows: list[list[int]]) -> int:
    """Rank over Q by plain fraction Gaussian elimination."""
    work = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = work[rank][col]
        work[rank] = [c / inv for c in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                coeff = work[i][col]
                work[i] = [a - coeff * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def is_extreme_by_rank(ray: tuple[int, ...], normals, lineality_dim: int) -> bool:
    """Rank test for extremality of a ray of the cone ``dot(a, x) >= 0`` for a in normals.

    A ray of a cone whose lineality space has dimension l is extreme iff the
    normals vanishing on it have rank ``len(ray) - l - 1`` over Q.  The
    ray must already lie in the cone.
    """
    active = [list(a) for a in normals if sum(x * y for x, y in zip(a, ray)) == 0]
    return fraction_rank(active) == len(ray) - lineality_dim - 1


def fraction_rref_rows(rows: list[list[Fraction | int]], ambient: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon basis by Fraction elimination, each row rescaled
    to a primitive integer vector (its pivot stays positive)."""
    work = [[Fraction(c) for c in row] for row in rows]
    reduced = []
    rank = 0
    for col in range(ambient):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = work[rank][col]
        work[rank] = [c / inv for c in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                coeff = work[i][col]
                work[i] = [a - coeff * b for a, b in zip(work[i], work[rank])]
        rank += 1
    for row in work[:rank]:
        den = 1
        for c in row:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in row]
        g = 0
        for c in ints:
            g = gcd(g, c)
        reduced.append(tuple(c // g for c in ints))
    return tuple(reduced)


def cone_membership_by_duality(cone: Cone, v: tuple[int, ...]) -> bool:
    """Membership decided from scratch: nonnegative pairing with every dual generator."""
    return all(sum(a * b for a, b in zip(d, v)) >= 0 for d in cone.dual.generators)


def is_face_by_supporting_hyperplane(f: Cone, c: Cone) -> bool:
    """Face test from one supporting hyperplane, without the face lattice.

    The sum m of the dual generators of c that vanish on f is a supporting
    hyperplane whose slice of c is the smallest face containing f, so f is
    a face exactly when the rays of c on that hyperplane are those of f.
    """
    if not all(cone_membership_by_duality(c, g) for g in f.generators):
        return False
    vanishing = [d for d in c.dual.generators
                 if all(sum(x * y for x, y in zip(d, g)) == 0 for g in f.generators)]
    m = [sum(column) for column in zip(*vanishing)] or [0] * c.rank
    return {r for r in c.rays() if sum(x * y for x, y in zip(m, r)) == 0} == set(f.generators)


def intersection_from_scratch(a: Cone, b: Cone) -> Cone:
    """The intersection by one double description from the whole space over both cones' normals."""
    normals = list(a.dual.generators) + list(b.dual.generators)
    lin_rows, rays, _ = _double_description(normals, a.rank)
    return _canonical_cone(lin_rows, [r for r, _ in rays], a.rank)


def kernel_by_hermite_transform(a: list[list[int]]) -> list[tuple[int, ...]]:
    """Hermite basis of the saturated kernel of a nonempty integer matrix, by a transform.

    The rows of the unimodular transform U with U @ a^T in Hermite form
    that meet its zero rows are a basis of the kernel; their own Hermite
    form is the canonical one.  The package's ``integer_kernel_basis``
    takes Euclid steps on a lattice basis instead.  U's entries explode on
    large matrices (Kannan & Bachem 1979), so keep the inputs small.
    """
    n = len(a[0])
    h, u = hermite_normal_form(transpose(a))
    kernel_rows = [u[i] for i in range(n) if is_zero(h[i])]
    return [vec(row) for row in hermite_normal_form(kernel_rows)[0] if not is_zero(row)]


def lineality_by_kernel(normals: list[tuple[int, ...]], rank: int) -> list[tuple[int, ...]]:
    """Hermite basis of the lineality space of ``dot(a, x) >= 0`` for a in normals.

    That space is the kernel of the normals, taken by
    ``kernel_by_hermite_transform``, or all of Z^rank when there are none.
    """
    if not normals:
        return [vec(row) for row in identity_matrix(rank)]
    return kernel_by_hermite_transform([list(a) for a in normals])

