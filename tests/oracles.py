"""Independent oracles used only by the test suite.

Integer solving goes through sympy's Smith decomposition, and through
the package's Smith form with its transforms, rather than the package's
own solver, which reads solutions off a kernel; the normal forms are
checked against sympy's and against the extended-gcd elimination the
package once ran, and the local-freeness oracle enumerates the whole forced weight box instead of
reusing the decision procedure, so each comparison genuinely crosses two
routes.  The local-freeness witnesses are also found a second way, by
the package's Smith form with its transforms, which the decider itself
no longer takes, and a third, by the decider's own earlier loop that
split each ray off the standard basis itself instead of reading the
cone's split record.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import hermite_normal_form as sympy_hnf
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
    copy_matrix,
    dot,
    identity_matrix,
    mat_vec,
    smith_normal_form,
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


def sympy_hermite_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """The package's row-style Hermite form H of a nonempty matrix, by sympy.

    sympy's form W = x @ V is column-style, with each column's last nonzero
    entry as its pivot, pivots in rising rows, the entries right of a pivot
    reduced and the zero columns dropped.  Taking x as the transpose of
    rows with its rows reversed, and reversing W's rows and columns, gives
    the transpose of H with pivots first and the entries left of a pivot
    reduced; H's zero rows are put back at the bottom.
    """
    m, n = len(rows), len(rows[0])
    x = transpose(rows)[::-1]
    w = sympy_hnf(DomainMatrix([[ZZ(c) for c in row] for row in x], (n, m), ZZ)).to_list()
    h = transpose([[int(c) for c in row[::-1]] for row in w[::-1]])
    return h + [[0] * n for _ in range(m - len(h))]


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
    entries = [(cone.weight_class(singletons[i]), RationalSubspace(n, [rays[i]]))
               for i in range(k)]
    ray_span = RationalSubspace(n, rays)
    if ray_span.dim < n:
        entries.append((cone.weight_class((0,) * n), ray_span.orthogonal_complement()))
    cert = DecompositionCertificate(cone, entries)
    return verify_certificate(cone, tangent_family(cone), cert)


def solve_by_smith(a: list[list[int]], b: list[int]) -> tuple[int, ...] | None:
    """One integer solution of a @ x = b in the package's Smith coordinates, or None.

    The package's ``solve_integer_system`` once ran this; it now reads the
    solution off a kernel.  Every free Smith coordinate is set to zero.
    """
    m = len(a)
    if len(b) != m:
        raise ValueError(f"system has {m} equations but {len(b)} right-hand sides")
    d, u, v = smith_normal_form(a)
    n = len(v)
    c = mat_vec(u, vec(b))
    y = [0] * n
    for i in range(m):
        di = d[i][i] if i < n else 0
        if di:
            if c[i] % di:
                return None
            y[i] = c[i] // di
        elif c[i]:
            return None
    return mat_vec(v, y)


def witnesses_by_smith(cone: Cone) -> LocalFreenessReport:
    """Local-freeness witnesses from Smith forms with their transforms.

    Rays no more numerous than the rank are independent iff the first
    len(rays) diagonal entries of their Smith form are nonzero, and the
    witness for ray i solves rays @ m = e_i in Smith coordinates, by
    ``solve_by_smith``.  The report carries the raw solutions, no
    certificate, and the first ray with no integral solution.  Transform
    entries grow fast with the rank, so keep the inputs small.
    """
    rays = cone.rays()
    smith = smith_normal_form(rays) if len(rays) <= cone.rank else None
    if smith is None or not all(smith[0][i][i] for i in range(len(rays))):
        return LocalFreenessReport(False, failure="dependent rays")
    witnesses = {}
    for idx, u in enumerate(rays):
        m = solve_by_smith(rays, [int(j == idx) for j in range(len(rays))])
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
        split.append(step)
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
    entries = [(witnesses[u], RationalSubspace(n, [u])) for u in rays]
    if len(rays) < n:
        entries.append(((0,) * n, RationalSubspace(n, cone.perp_sublattice())))
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
        levels = {i for i, _ in filt.steps} | {p + 1 for p in pairings}
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
    takes Euclid steps on a lattice basis instead, and the transform here
    is the extended-gcd one of ``xgcd_hermite_normal_form``, so no step is
    shared.  U's entries explode on large matrices (Kannan & Bachem 1979),
    so keep the inputs small.
    """
    n = len(a[0])
    h, u = xgcd_hermite_normal_form(transpose(a))
    kernel_rows = [u[i] for i in range(n) if not any(h[i])]
    return [vec(row) for row in xgcd_hermite_normal_form(kernel_rows)[0] if any(row)]


def lineality_by_kernel(normals: list[tuple[int, ...]], rank: int) -> list[tuple[int, ...]]:
    """Hermite basis of the lineality space of ``dot(a, x) >= 0`` for a in normals.

    That space is the kernel of the normals, taken by
    ``kernel_by_hermite_transform``, or all of Z^rank when there are none.
    """
    if not normals:
        return [vec(row) for row in identity_matrix(rank)]
    return kernel_by_hermite_transform([list(a) for a in normals])



# The extended-gcd elimination that ``toricfree.lattice`` ran before all
# its eliminations took the smallest-pivot Euclid step, kept as the second
# algorithm for the normal forms.  H and D are unique, so they must agree
# with the package's; the transforms U and V need not.  It is slow on
# dense input: about 30 s for a 30 x 30 Hermite form with entries up to 10^6.

def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = a*x + b*y and g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _clear_entry(mat: list[list[int]], i: int, j: int, col: int) -> None:
    """Clear mat[j][col] against the nonzero pivot mat[i][col] by one determinant-one 2x2 row step.

    When the pivot divides the entry this is plain elimination, which
    leaves row i as it is; otherwise it is the extended-gcd step, which
    turns the pivot into gcd(pivot, entry).
    """
    ri, rj = mat[i], mat[j]
    a, b = ri[col], rj[col]
    if b % a == 0:
        q = b // a
        mat[j] = [s - q * p for p, s in zip(ri, rj)]
    else:
        g, x, y = xgcd(a, b)
        z, w = b // g, a // g
        mat[i] = [x * p + y * s for p, s in zip(ri, rj)]
        mat[j] = [w * s - z * p for p, s in zip(ri, rj)]


def _xgcd_hermite_eliminate(h: list[list[int]], ncols: int) -> None:
    """Bring the first ncols columns of h to Hermite form in place; further columns ride along."""
    m = len(h)
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, m) if h[i][col]), None)
        if pivot is None:
            continue
        h[row], h[pivot] = h[pivot], h[row]
        for i in range(row + 1, m):
            if h[i][col]:
                _clear_entry(h, row, i, col)
        if h[row][col] < 0:
            h[row] = [-c for c in h[row]]
        top = h[row]
        p = top[col]
        for i in range(row):
            q = h[i][col] // p
            if q:
                h[i] = [s - q * c for c, s in zip(top, h[i])]
        row += 1


def _xgcd_smith_eliminate(d: list[list[int]], m: int, n: int) -> None:
    """Bring the top-left m x n block of d to Smith form in place; further rows and columns ride along."""
    t = 0
    while t < min(m, n):
        # smallest nonzero entry, first in row-major order on ties (a unit is never beaten)
        best, pi, pj = 0, t, t
        for i in range(t, m):
            for j, c in enumerate(d[i][t:n], t):
                if c and (abs(c) < best or not best):
                    best, pi, pj = abs(c), i, j
            if best == 1:
                break
        if not best:
            break
        d[t], d[pi] = d[pi], d[t]
        if pj != t:
            for r in d:
                r[t], r[pj] = r[pj], r[t]
        while True:
            for i in range(t + 1, m):
                if d[i][t]:
                    _clear_entry(d, t, i, t)
            for j in range(t + 1, n):
                a, b = d[t][t], d[t][j]
                if not b:
                    continue
                # the column step; rows zero in both columns stay zero
                if b % a == 0:
                    q = b // a
                    for r in d:
                        if r[t]:
                            r[j] -= q * r[t]
                else:
                    g, x, y = xgcd(a, b)
                    z, w = b // g, a // g
                    for r in d:
                        p, s = r[t], r[j]
                        if p or s:
                            r[t], r[j] = x * p + y * s, w * s - z * p
            if any(d[i][t] for i in range(t + 1, m)):
                continue  # the column ops can reintroduce entries below the pivot
            off = next((i for i in range(t + 1, m)
                        if any(d[i][j] % d[t][t] for j in range(t + 1, n))), None)
            if off is None:
                break
            # pull the offending row up, then re-reduce
            d[t] = [p + s for p, s in zip(d[t], d[off])]
        if d[t][t] < 0:
            d[t] = [-c for c in d[t]]
        t += 1


def xgcd_hermite_normal_form(a) -> tuple[list[list[int]], list[list[int]]]:
    """``hermite_normal_form`` on the extended-gcd elimination: (H, U) with H = U @ a."""
    rows = copy_matrix(a)
    n = len(rows[0]) if rows else 0
    hu = [row + e for row, e in zip(rows, identity_matrix(len(rows)))]
    _xgcd_hermite_eliminate(hu, n)
    return [row[:n] for row in hu], [row[n:] for row in hu]


def xgcd_smith_normal_form(a) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """``smith_normal_form`` on the extended-gcd elimination: (D, U, V) with D = U @ a @ V."""
    rows = copy_matrix(a)
    m = len(rows)
    n = len(rows[0]) if rows else 0
    d = [row + e for row, e in zip(rows, identity_matrix(m))] + identity_matrix(n)
    _xgcd_smith_eliminate(d, m, n)
    return [row[:n] for row in d[:m]], [row[n:] for row in d[:m]], d[m:]


def xgcd_invariant_factors(a) -> tuple[int, ...]:
    """``invariant_factors`` on the extended-gcd elimination, with no transform."""
    d = copy_matrix(a)
    m, n = len(d), len(d[0]) if d else 0
    _xgcd_smith_eliminate(d, m, n)
    return tuple(d[i][i] for i in range(min(m, n)) if d[i][i])
