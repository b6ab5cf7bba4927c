"""Cone geometry: construction, duality, faces, annihilator sublattices."""

import hashlib
import itertools
import random

import pytest

from oracles import (
    cone_membership_by_duality,
    fraction_rank,
    intersection_from_scratch,
    is_extreme_by_rank,
    is_face_by_supporting_hyperplane,
    lineality_by_kernel,
)
from timing import deadline
from toricfree import cones
from toricfree.cones import (
    Cone,
    NotStronglyConvexError,
    _canonical_cone,
    _double_description,
    dual_cone,
    linearly_independent_rays,
)
from toricfree.lattice import dot, matrix_rank, primitive


def random_strongly_convex_cones(seed, count, ranks=(2, 3, 4), bound=5, max_extra=2):
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        n = rng.choice(ranks)
        k = rng.randint(1, n + max_extra)
        gens = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
        try:
            cones.append(Cone(gens, n))
        except (NotStronglyConvexError, ValueError):
            continue
    return cones


def test_construction_canonicalizes():
    c = Cone([(2, 0), (0, 3)], 2)
    assert c.generators == ((0, 1), (1, 0))
    assert c == Cone([(1, 0), (0, 1)], 2)
    # redundant interior generator dropped
    assert Cone([(1, 0), (1, 1), (0, 1)], 2).generators == ((0, 1), (1, 0))
    # duplicates collapse
    assert Cone([(1, 2), (2, 4)], 2).generators == ((1, 2),)


def test_construction_rejects_lines():
    with pytest.raises(NotStronglyConvexError) as exc:
        Cone([(1, 0), (-1, 0)], 2)
    witness = exc.value.witness
    assert witness in ((1, 0), (-1, 0))
    with pytest.raises(NotStronglyConvexError):
        Cone([(1, 0), (-1, 0), (0, 1)], 2)
    with pytest.raises(NotStronglyConvexError):
        Cone([(1, 1), (-1, -1)], 2)
    # the witness names the contained line
    with pytest.raises(NotStronglyConvexError) as exc:
        Cone([(1, 2), (0, 1), (-1, -2)], 2)
    assert exc.value.witness in ((1, 2), (-1, -2))


def test_construction_input_validation():
    with pytest.raises(ValueError):
        Cone([(1, 0, 0)], 2)
    with pytest.raises(ValueError):
        Cone([], 0)
    with pytest.raises(TypeError):
        Cone([(0.5, 1)], 2)
    # zero vectors are ignored, not errors
    assert Cone([(0, 0), (1, 0)], 2).generators == ((1, 0),)


def test_zero_cone():
    z = Cone.zero(2)
    assert z.generators == () and z.dim == 0
    assert z.is_strongly_convex
    assert z.contains((0, 0))
    assert not z.contains((1, 0))
    assert z.faces() == (z,)
    assert z.perp_sublattice() == [(1, 0), (0, 1)]
    assert z.weight_class((7, -9)) == (0, 0)


def test_dual_examples():
    assert Cone([(1, 0), (0, 1)], 2).dual.generators == ((0, 1), (1, 0))
    assert Cone([(1, 0), (1, 2)], 2).dual.generators == ((0, 1), (2, -1))
    # zero cone dualizes to everything
    z = Cone.zero(2)
    assert z.dual.lineality_basis != ()
    assert z.dual.dim == 2
    assert not z.dual.is_strongly_convex


def test_dual_of_lower_dimensional_cone_has_lineality():
    r = Cone([(1, 2)], 2)
    d = r.dual
    assert not d.is_strongly_convex
    assert d.lineality_basis == ((2, -1),)
    # lineality enters the generator list as a plus/minus pair
    assert (2, -1) in d.generators and (-2, 1) in d.generators
    assert d.dual == r


def test_biduality_on_random_corpus():
    for c in random_strongly_convex_cones(seed=101, count=300):
        assert c.dual.dual == c


def test_dual_generators_pair_nonnegatively():
    for c in random_strongly_convex_cones(seed=102, count=100):
        for d in c.dual.generators:
            for g in c.generators:
                assert dot(d, g) >= 0


def test_membership_agrees_with_facet_description():
    rng = random.Random(103)
    for c in random_strongly_convex_cones(seed=104, count=100):
        n = c.rank
        for _ in range(8):
            v = tuple(rng.randint(-7, 7) for _ in range(n))
            assert c.contains(v) == cone_membership_by_duality(c, v)
        for g in c.generators:
            assert c.contains(g)
            coeffs = [rng.randint(0, 3) for _ in c.generators]
            combo = tuple(sum(a * g[i] for a, g in zip(coeffs, c.generators))
                          for i in range(n))
            assert c.contains(combo)


def test_strong_convexity_iff_dual_full_dimensional():
    # two independent computations: primal lineality check vs dual dimension
    for c in random_strongly_convex_cones(seed=105, count=120):
        assert c.is_strongly_convex
        assert c.dual.dim == c.rank
    r = Cone([(1, 2)], 2)
    assert r.dual.dim == 2


def test_extreme_ray_minimality():
    for c in random_strongly_convex_cones(seed=106, count=80):
        rays = c.rays()
        if len(rays) < 2:
            continue
        regenerated = Cone(rays, c.rank)
        assert regenerated == c
        for i in range(len(rays)):
            rest = rays[:i] + rays[i + 1:]
            smaller = Cone(rest, c.rank)
            assert not smaller.contains(rays[i])


def test_rays_requires_strong_convexity():
    d = Cone([(1, 2)], 2).dual
    with pytest.raises(ValueError):
        d.rays()
    with pytest.raises(ValueError):
        d.faces()


def test_faces_orthant():
    c = Cone([(1, 0), (0, 1)], 2)
    faces = c.faces()
    assert len(faces) == 4
    gens = set(f.generators for f in faces)
    assert gens == {(), ((0, 1),), ((1, 0),), ((0, 1), (1, 0))}


def test_faces_single_ray():
    r = Cone([(1, 2)], 2)
    assert [f.generators for f in r.faces()] == [(), ((1, 2),)]


def test_faces_conifold():
    c = Cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
    assert len(c.generators) == 4
    faces = c.faces()
    assert len(faces) == 10
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.dim, []).append(f)
    assert {d: len(v) for d, v in by_dim.items()} == {0: 1, 1: 4, 2: 4, 3: 1}
    for f in faces:
        assert f.is_face_of(c)
        for g in f.faces():
            assert g in faces


def test_is_face_of_negative_cases():
    orthant = Cone([(1, 0), (0, 1)], 2)
    inner = Cone([(1, 1)], 2)
    assert orthant.contains((1, 1))
    assert not inner.is_face_of(orthant)
    outside = Cone([(-1, 0)], 2)
    assert not outside.is_face_of(orthant)
    assert orthant.is_face_of(orthant)
    assert Cone.zero(2).is_face_of(orthant)
    with pytest.raises(ValueError):
        Cone([(1,)], 1).is_face_of(orthant)


def test_face_transitivity_on_random_corpus():
    for c in random_strongly_convex_cones(seed=107, count=40, ranks=(2, 3)):
        faces = c.faces()
        for f in faces:
            assert f.is_face_of(c)
            for g in f.faces():
                assert g.is_face_of(c)


def test_is_face_of_agrees_with_supporting_hyperplane_oracle():
    faces = non_faces = 0
    for c in random_strongly_convex_cones(seed=113, count=200, ranks=(2, 3, 4), max_extra=3):
        rays = c.rays()
        for mask in range(2 ** len(rays)):
            f = Cone([r for i, r in enumerate(rays) if mask >> i & 1], c.rank)
            expected = is_face_by_supporting_hyperplane(f, c)
            assert f.is_face_of(c) == expected
            faces += expected
            non_faces += not expected
    assert faces >= 1000 and non_faces >= 300


def test_intersection_examples():
    a = Cone([(1, 0), (1, 2)], 2)
    b = Cone([(1, 2), (0, 1)], 2)
    meet = a.intersection(b)
    assert meet.generators == ((1, 2),)
    assert meet.is_face_of(a) and meet.is_face_of(b)
    bad_a = Cone([(1, 0), (1, 2)], 2)
    bad_b = Cone([(1, 1), (0, 1)], 2)
    overlap = bad_a.intersection(bad_b)
    assert overlap.generators == ((1, 1), (1, 2))
    assert not overlap.is_face_of(bad_a)
    assert not overlap.is_face_of(bad_b)


def test_intersection_rejects_cones_of_another_lattice():
    a, b = Cone([(1, 0)], 2), Cone([(1, 0, 0), (0, 1, 0)], 3)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="^cones live in different lattices$"):
            x.intersection(y)


def test_intersection_commutes_and_is_contained():
    cones = random_strongly_convex_cones(seed=108, count=30, ranks=(2, 3))
    rng = random.Random(109)
    for _ in range(40):
        a, b = rng.sample(cones, 2)
        if a.rank != b.rank:
            continue
        meet = a.intersection(b)
        assert meet == b.intersection(a)
        for g in meet.generators:
            assert a.contains(g) and b.contains(g)


def test_intersection_agrees_with_double_description_from_scratch():
    """Resuming from the second cone gives the intersection run from the whole space."""
    rng = random.Random(120)
    by_rank = {}
    for n in range(1, 7):
        pool = [Cone.zero(n), Cone([[1] * n], n)]
        while len(pool) < 14:
            k = rng.randint(1, n + 2)
            # a lower-dimensional cone spans the image of fewer coordinates
            width = rng.randint(1, n)
            gens = [[rng.randint(-4, 4) if j < width else 0 for j in range(n)] for _ in range(k)]
            rng.shuffle(gens[0])
            try:
                c = Cone(gens, n)
            except NotStronglyConvexError:
                continue
            pool.append(c)
        # duals of lower-dimensional cones carry lineality
        by_rank[n] = pool + [c.dual for c in pool[:8]]
    lineal = compared = 0
    for n, pool in by_rank.items():
        for a in pool:
            for b in [a] + rng.sample(pool, 6):
                for first, second in ((a, b), (b, a)):
                    got, want = first.intersection(second), intersection_from_scratch(first, second)
                    assert got.generators == want.generators
                    assert got.lineality_basis == want.lineality_basis
                    lineal += bool(want.lineality_basis)
                    compared += 1
    assert compared >= 1000 and lineal >= 100


def seeded_cones(rng, n, count, lower=False):
    """Seeded cones of rank n, each on a few generators in a seeded sublattice.

    The sublattice has rank d from 1 to n, below n when ``lower``, so the
    dual of a lower-dimensional one carries lineality pairs.
    """
    pool = []
    while len(pool) < count:
        d = rng.randint(1, n - 1 if lower else n)
        basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)]
        gens = [[sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)]
                for coeffs in ([rng.randint(-3, 3) for _ in range(d)]
                               for _ in range(rng.randint(1, d + 3)))]
        try:
            c = Cone(gens, n)
        except NotStronglyConvexError:
            continue
        if not lower or c.dim < n:
            pool.append(c)
    return pool


def unbuilt_copy(c):
    """A copy of c holding only its generators and lineality: no dual, incidence or faces."""
    copy = object.__new__(Cone)
    cones._set_slots(copy, c.rank, c.generators, c.lineality_basis)
    return copy


def test_intersection_from_a_kept_incidence_matches_a_fresh_start():
    """A start that served an earlier intersection gives what a fresh copy of it gives.

    Pointed starts and duals with lineality, ranks 2-4, both argument
    orders; the intersection run from the whole space is the reference
    for both.
    """
    rng = random.Random(2701)
    pointed = lineal = 0
    for n in (2, 3, 4):
        pool = seeded_cones(rng, n, 10)
        starts = pool + [c.dual for c in pool]
        for a in starts:
            for b in rng.sample(starts, 6):
                for first, second in ((a, b), (b, a)):
                    # the start keeps its incidence from an intersection with another cone
                    rng.choice(starts).intersection(second)
                    got = first.intersection(second)
                    for want in (first.intersection(unbuilt_copy(second)),
                                 intersection_from_scratch(first, second)):
                        assert got.generators == want.generators
                        assert got.lineality_basis == want.lineality_basis
                    pointed += not second.lineality_basis
                    lineal += bool(second.lineality_basis)
    assert pointed >= 200 and lineal >= 200


def test_second_intersection_reuses_the_start_incidence(monkeypatch):
    """The masks of a start are found on its first intersection and read on every later one.

    Finding them walks the start's rays beyond its lineality, so a later
    intersection from the same start makes no such walk.
    """
    walked = []
    original = cones._rays_beyond_lineality

    def counted(c):
        walked.append(c)
        return original(c)

    monkeypatch.setattr(cones, "_rays_beyond_lineality", counted)
    square = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]
    cutters = [Cone([(1, 1, 0), (0, 0, 1)], 3), Cone([(1, 1, 1)], 3),
               Cone([(1, 0, 0), (0, 0, 1)], 3), Cone([(1, 0, 0), (-1, 1, 2)], 3)]
    for start in (Cone(square, 3), Cone([(1, 0, 0), (1, 2, 0)], 3).dual):
        assert start._incidence is None
        cutters[0].intersection(start)
        kept = start._incidence
        assert kept is not None and any(c is start for c in walked)
        walked.clear()
        for a in cutters[1:] + [start.dual]:
            assert a.intersection(start) == intersection_from_scratch(a, start)
        assert start._incidence is kept
        assert not any(c is start for c in walked)


def test_faces_of_lower_dimensional_cones_agree_with_supporting_hyperplanes():
    """Zero sets read off the incidence give the faces, past the dual's lineality pairs."""
    rng = random.Random(2702)
    faces = non_faces = 0
    for n in (2, 3, 4, 5, 6):
        for c in seeded_cones(rng, n, 30, lower=True):
            assert c.dual.lineality_basis
            rays = c.rays()
            expected = set()
            for mask in range(2 ** len(rays)):
                f = Cone([r for i, r in enumerate(rays) if mask >> i & 1], n)
                if is_face_by_supporting_hyperplane(f, c):
                    expected.add(f.generators)
                else:
                    non_faces += 1
            assert {f.generators for f in c.faces()} == expected
            faces += len(expected)
    assert faces >= 300 and non_faces >= 100


def count_cone_builds(monkeypatch) -> list:
    """Record every later call of ``cones._canonical_cone``, which builds each face cone."""
    builds = []
    original = cones._canonical_cone

    def counted(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(cones, "_canonical_cone", counted)
    return builds


def test_is_face_of_lists_the_faces_of_an_unlisted_cone(monkeypatch):
    square = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]
    builds = count_cone_builds(monkeypatch)
    # the zero cone, the cone itself, and a diagonal of its square section
    for candidate, expected in ((Cone.zero(3), True), (Cone(square, 3), True),
                                (Cone([(1, 0, 0), (0, 1, 1)], 3), False)):
        c = Cone(square, 3)
        c.dual  # the incidence reads the dual; no face is built as a cone
        builds.clear()
        assert candidate.is_face_of(c) is expected
        assert builds == []
        assert is_face_by_supporting_hyperplane(candidate, c) is expected


def test_kept_face_keys_are_the_generators_of_the_faces(monkeypatch):
    """The face keys are found without building a face, and ``faces()`` is built from them.

    Seeded cones of ranks 1-6, lower-dimensional ones and the zero cone
    among them: the keys are the faces' generator tuples, found once, and
    the faces are sorted by ``sort_key`` with the cone itself among them.
    """
    rng = random.Random(2901)
    builds = count_cone_builds(monkeypatch)
    lower = 0
    for n in range(1, 7):
        for c in [Cone.zero(n), *seeded_cones(rng, n, 12)]:
            lower += c.dim < n
            c.dual  # the incidence reads the dual; no face is built as a cone
            builds.clear()
            keys = cones._face_keys(c)
            assert builds == []
            faces = c.faces()
            assert len(builds) == len(keys) - 1  # every face but the cone itself
            assert keys == {f.generators for f in faces}
            assert cones._face_keys(c) is keys
            assert list(faces) == sorted(faces, key=Cone.sort_key)
            assert c in faces and Cone.zero(n) in faces
    assert lower >= 30


def test_perp_sublattice_examples():
    assert Cone([(1, 0)], 2).perp_sublattice() == [(0, 1)]
    assert Cone([(1, 0), (0, 1)], 2).perp_sublattice() == []
    assert Cone([(2, 4)], 2).perp_sublattice() == [(2, -1)]
    assert Cone([(1, 2)], 2).perp_sublattice() == [(2, -1)]


def test_perp_sublattice_is_kernel_of_generators():
    """The dual's lineality basis is the Hermite kernel of the generators."""
    cones = random_strongly_convex_cones(seed=112, count=40, ranks=(1, 2, 3, 4))
    rng = random.Random(113)
    for c in cones:
        other = rng.choice([d for d in cones if d.rank == c.rank])
        for x in (c, c.dual, c.intersection(other), *c.faces()):
            assert x.perp_sublattice() == lineality_by_kernel(x.generators, x.rank)


def test_weight_class_reduces_mod_perp():
    r = Cone([(1, 0)], 2)
    assert r.weight_class((3, 5)) == r.weight_class((3, -2))
    assert r.weight_class((3, 5)) != r.weight_class((4, 5))
    full = Cone([(1, 0), (0, 1)], 2)
    assert full.weight_class((3, -7)) == (3, -7)


def test_contains_and_weight_class_reject_a_vector_of_another_length():
    c = Cone([(1, 0, 0), (1, 2, 0)], 3)
    for v in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match=f"^vector length {len(v)}, expected 3$"):
            c.contains(v)
        with pytest.raises(ValueError, match=f"^weight length {len(v)}, expected 3$"):
            c.weight_class(v)


def test_weight_class_constant_on_class_and_injective_in_box():
    rng = random.Random(110)
    for c in random_strongly_convex_cones(seed=111, count=40, ranks=(2, 3)):
        perp = c.perp_sublattice()
        n = c.rank
        for _ in range(6):
            m = tuple(rng.randint(-6, 6) for _ in range(n))
            shift = list(m)
            for row in perp:
                k = rng.randint(-3, 3)
                shift = [a + k * b for a, b in zip(shift, row)]
            assert c.weight_class(m) == c.weight_class(shift)
            # the canonical representative is a member of the class
            rep = c.weight_class(m)
            diff = [a - b for a, b in zip(m, rep)]
            from toricfree.lattice import solve_integer_system
            if perp:
                assert solve_integer_system(
                    [list(col) for col in zip(*perp)], diff) is not None
            else:
                assert rep == m


def test_linearly_independent_rays():
    assert linearly_independent_rays(Cone([(1, 0), (0, 1)], 2))
    assert linearly_independent_rays(Cone([(1, 0), (1, 2)], 2))
    assert linearly_independent_rays(Cone.zero(2))
    conifold = Cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
    assert not linearly_independent_rays(conifold)


def test_linearly_independent_rays_matches_fraction_rank():
    # the lower-dimensional cones have more rays than dimensions, but no more than the rank
    cones = random_strongly_convex_cones(seed=1206, count=120, ranks=(1, 2, 3, 4, 5, 6))
    cones += [Cone(gens, n) for n, gens in high_rank_inputs("lower", 1206, 8, range(4, 7))]
    assert {c.rank for c in cones} == {1, 2, 3, 4, 5, 6}
    for c in cones:
        for f in c.faces():
            rays = [list(u) for u in f.rays()]
            assert linearly_independent_rays(f) == (fraction_rank(rays) == len(rays))


def canonical_from_scratch(normals, n):
    """Lineality rows and generators of the canonical cone built from the double description."""
    lin_rows, rays, _ = _double_description(normals, n)
    cone = _canonical_cone(lin_rows, [r for r, _ in rays], n)
    return cone.lineality_basis, cone.generators


def test_double_description_ignores_zero_normals():
    # a zero normal holds everywhere: it only adds one bit to every ray's zero set
    rng = random.Random(1207)
    for n in range(1, 7):
        for _ in range(60):
            normals = [tuple(rng.randint(-3, 3) for _ in range(n))
                       for _ in range(rng.randint(0, n + 3))]
            normals = [a for a in normals if any(a)]
            expected = canonical_from_scratch(normals, n)
            padded = list(normals)
            for _ in range(rng.randint(1, 2)):
                padded.insert(rng.randint(0, len(padded)), (0,) * n)
            assert canonical_from_scratch(padded, n) == expected


def test_double_description_masks_are_exact():
    # bit i of a ray's mask is set iff normals[i] vanishes on it; the lists
    # carry repeated, dependent and zero normals
    rng = random.Random(1301)
    for n in range(1, 7):
        for _ in range(60):
            normals = [tuple(rng.randint(-3, 3) for _ in range(n))
                       for _ in range(rng.randint(0, n + 3))]
            for _ in range(rng.randint(0, 3)):
                if not normals:
                    break
                a, b = rng.choice(normals), rng.choice(normals)
                extra = rng.choice([a, tuple(2 * x for x in a), tuple(x + y for x, y in zip(a, b)),
                                    (0,) * n])
                normals.insert(rng.randint(0, len(normals)), extra)
            _, rays, _ = _double_description(normals, n)
            for ray, mask in rays:
                for i, a in enumerate(normals):
                    assert bool(mask >> i & 1) == (dot(a, ray) == 0)


def test_double_description_lineality_matches_kernel_oracle():
    """The lattice basis the insertion carries ends as the Hermite kernel of the normals.

    Normals are drawn from a sublattice of random rank, so the lineality is
    often nonzero, with zero, repeated and dependent normals mixed in; the
    resumed starts are the ones ``Cone.intersection`` takes.
    """
    rng = random.Random(1501)
    lineal = resumed = 0
    for n in range(1, 9):
        cones = []
        for _ in range(30):
            bound = rng.choice([3, 1000, 10 ** 6])
            base = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(rng.randint(0, n))]
            normals = [tuple(sum(rng.randint(-1, 1) * b[j] for b in base) for j in range(n))
                       for _ in range(rng.randint(0, n + 2))]
            for _ in range(rng.randint(0, 3)):
                if not normals:
                    break
                a, b = rng.choice(normals), rng.choice(normals)
                extra = rng.choice([a, tuple(3 * x for x in a), tuple(x - y for x, y in zip(a, b)),
                                    (0,) * n])
                normals.insert(rng.randint(0, len(normals)), extra)
            want = lineality_by_kernel(normals, n)
            assert _double_description(normals, n)[0] == tuple(want)
            lineal += bool(want)
            try:
                cones.append(Cone(normals, n))
            except NotStronglyConvexError:
                pass
        pool = cones + [c.dual for c in cones]
        for _ in range(80):
            a = rng.choice(pool)
            b = rng.choice([a, a.dual, rng.choice(pool)])
            got = _double_description(a.dual.generators, n, b)[0]
            assert got == tuple(lineality_by_kernel(list(b.dual.generators + a.dual.generators), n))
            resumed += bool(got)
    assert lineal >= 120 and resumed >= 60


def test_line_in_a_rank_24_cone_is_named_quickly():
    # the kernel that named the line once took minutes on this input
    rng = random.Random(2030)
    gens = [[rng.randint(0, 1000) for _ in range(24)] for _ in range(24)]
    with deadline(10), pytest.raises(NotStronglyConvexError) as info:
        Cone(gens + [[-c for c in gens[0]]], 24)
    assert info.value.witness == primitive(gens[0])


def test_dual_cone_function_alias():
    c = Cone([(1, 0), (1, 2)], 2)
    assert dual_cone(c) is c.dual


def test_cone_dim_matches_rank_of_generators():
    """Built, dual, intersected or a face, a cone's dimension is its generators' rank."""
    built = random_strongly_convex_cones(seed=112, count=60)
    rng = random.Random(114)
    for c in built:
        other = rng.choice([d for d in built if d.rank == c.rank])
        for x in (c, c.dual, c.intersection(other), *c.faces()):
            assert x.dim == matrix_rank([list(g) for g in x.generators])


def test_one_double_description_per_cone(monkeypatch):
    calls = []
    original = cones._double_description

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cones, "_double_description", counted)
    reads = [lambda c: c.dual, lambda c: c.facet_normals, lambda c: c.perp_sublattice(),
             lambda c: c.weight_class([3] * c.rank), lambda c: c.split_basis()]
    # a full-dimensional cone with a non-simplicial face lattice, one with an annihilator,
    # and one whose input generator (1, 1, 0) is not extreme
    for gens in ([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)], [(1, 0, 0), (1, 2, 0)],
                 [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]):
        for order in itertools.permutations(reads):
            calls.clear()
            c = Cone(gens, 3)
            # dependent input is described at once, independent input on the
            # first read of the dual, over the split chain it was built from
            assert len(calls) == (matrix_rank(gens) < len(gens))
            for read in order + order:
                read(c)
            assert len(calls) == 1
            faces = Cone(gens, 3).faces()
            for other in (faces[len(faces) // 2], Cone(gens, 3).dual):
                calls.clear()
                for read in order + order:
                    read(other)
                assert len(calls) == 1


def test_independent_cone_inserts_its_rays_on_the_first_read_of_the_dual(monkeypatch):
    calls = []
    original = cones._double_description

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cones, "_double_description", counted)
    for gens, n in (([(1, 0, 0), (1, 2, 0)], 3), ([(2, 1), (-1, 3)], 2), ([(5,)], 1), ([], 4)):
        calls.clear()
        c = Cone(gens, n)
        c.perp_sublattice(), c.weight_class([3] * n), c.split_basis()
        assert calls == [] and c.dim == len(gens)
        dual = c.dual
        assert len(calls) == 1
        c.dual, c.perp_sublattice(), c.split_basis(), c.facet_normals, c.faces()
        assert len(calls) == 1 and c.dual is dual


def eagerly_described(gens, n):
    """A copy of Cone(gens, n) holding its whole double description from the start.

    Dependent input is described by the constructor already, over the
    input; independent input is its own generators.
    """
    cone = Cone(gens, n)
    if cone._described[1] is None:
        object.__setattr__(cone, "_described", _double_description(cone.generators, n))
    return cone


def test_lazily_filled_cone_matches_an_eagerly_described_copy():
    """Inserting the rays over the stored chain gives the description run from scratch.

    The rays, their order and their masks agree, and so do the dual, the
    faces and the intersections either cone is cut by or resumed from.
    """
    rng = random.Random(2611)
    lazy_seen = 0
    for n in range(1, 7):
        pool = []
        while len(pool) < 12:
            k = rng.randint(1, n + 1)
            gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
            try:
                pool.append((Cone(gens, n), eagerly_described(gens, n)))
            except NotStronglyConvexError:
                continue
        for lazy, eager in pool:
            lazy_seen += lazy._described[1] is None
            assert lazy.perp_sublattice() == eager.perp_sublattice()
            assert lazy.split_basis() == eager.split_basis()
        for lazy, eager in pool:
            # the first read of the dual resumes another cone's insertion from this one
            other, _ = rng.choice(pool)
            for got, want in ((other.intersection(lazy), other.intersection(eager)),
                              (lazy.intersection(other), eager.intersection(other))):
                assert got.generators == want.generators
                assert got.lineality_basis == want.lineality_basis
            assert lazy.dual.generators == eager.dual.generators
            assert lazy.dual.lineality_basis == eager.dual.lineality_basis
            assert [f.generators for f in lazy.faces()] == [f.generators for f in eager.faces()]
            assert lazy._described == eager._described
    assert lazy_seen >= 40


def test_cone_immutable_and_hashable():
    c = Cone([(1, 0)], 2)
    with pytest.raises(AttributeError):
        c.rank = 3
    assert len({c, Cone([(2, 0)], 2)}) == 1


def pinned_cone_inputs():
    """A fixed seeded set of generator lists whose exact cones are pinned below.

    Ranks 1-5 with coordinates up to 30.  In half the lists every generator
    is flipped into one half-space, so most of them span pointed cones with
    many rays.  Some lists get a redundant generator (a positive combination
    of two others), some are drawn from a proper sublattice (lower
    dimensional cones), and some get the negative of one generator (a line,
    so construction must reject them).
    """
    rng = random.Random(20240605)
    inputs = []
    for _ in range(1500):
        n = rng.choice((1, 2, 3, 3, 4, 4, 4, 5, 5, 5))
        bound = rng.choice((1, 2, 5, 30))
        k = rng.randint(1, n + 3)
        roll = rng.random()
        if roll < 0.2 and n > 1:
            d = rng.randint(1, n - 1)
            basis = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
            gens = [[sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)]
                    for coeffs in ([rng.randint(-bound, bound) for _ in range(d)]
                                   for _ in range(k))]
        else:
            gens = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
        if rng.random() < 0.5:
            h = [rng.randint(-3, 3) for _ in range(n)]
            gens = [g if dot(g, h) >= 0 else [-x for x in g] for g in gens]
        if 0.2 <= roll < 0.45 and k > 1:
            g, h = rng.sample(gens, 2)
            s, t = rng.randint(1, 3), rng.randint(1, 3)
            gens.append([s * x + t * y for x, y in zip(g, h)])
        elif roll >= 0.85:
            gens.append([-x for x in rng.choice(gens)])
        rng.shuffle(gens)
        inputs.append((n, gens))
    return inputs


# SHA-256 of the exact cone data below, recorded before the double
# description stopped re-testing rays it already knows to be extreme.
PINNED_CONE_DIGEST = "fec3d04d442bd01f17fca1c70ea58100ea7f4f6c60e940267295737bc0298578"


def test_cone_layer_is_pinned():
    digest = hashlib.sha256()
    previous: dict[int, Cone] = {}
    rejected = accepted = 0
    for n, gens in pinned_cone_inputs():
        try:
            c = Cone(gens, n)
        except NotStronglyConvexError as exc:
            rejected += 1
            digest.update(repr(("line", exc.witness)).encode())
            continue
        accepted += 1
        dd = c.dual.dual
        record = [c.generators, c.dual.generators, c.dual.lineality_basis,
                  c.facet_normals, dd.generators, dd.lineality_basis]
        if n <= 4:
            record.append([f.generators for f in c.faces()])
        other = previous.get(n, Cone.zero(n))
        record.append(c.intersection(other).generators)
        previous[n] = c
        digest.update(repr(record).encode())
    assert rejected >= 100 and accepted >= 1000
    assert digest.hexdigest() == PINNED_CONE_DIGEST


def dual_records(cones):
    """What each cone reports of its dual, with the annihilator read before the dual too.

    Per cone: the annihilator before the dual is read, the dual's
    generators and lineality basis, the facet normals, the faces, an
    intersection each way with the previous cone of its rank, the
    annihilator again, and the annihilators of a face, of the dual and
    of the intersection, cones that are built without ``Cone(...)``.
    """
    previous: dict[int, Cone] = {}
    for c in cones:
        before = c.perp_sublattice()
        other = previous.get(c.rank, Cone.zero(c.rank))
        meet = c.intersection(other)
        faces = c.faces()
        yield [before, c.dual.generators, c.dual.lineality_basis, c.facet_normals,
               [f.generators for f in faces], meet.generators, c.perp_sublattice(),
               faces[len(faces) // 2].perp_sublattice(), c.dual.perp_sublattice(),
               meet.perp_sublattice(), other.intersection(c).generators]
        previous[c.rank] = c


# SHA-256 of the records above, recorded while every cone still built its
# dual in the constructor.
PINNED_DUAL_DIGEST = "c56e8c9f5ad6f1e26def94e59227f1257c7346ff6d5848be7eb6e9ef09d9f38a"


def test_lazy_dual_is_pinned():
    digest = hashlib.sha256()
    cones = random_strongly_convex_cones(seed=4242, count=400, ranks=(1, 2, 3, 4, 5))
    for record in dual_records(cones):
        digest.update(repr(record).encode())
    assert digest.hexdigest() == PINNED_DUAL_DIGEST


def high_rank_inputs(kind, seed, count=1, ranks=range(6, 13)):
    """Seeded generator lists of ranks 6-12, past the ranks pinned above.

    ``pointed`` lists are flipped into the half-space of a random
    functional, ``lower`` ones are such lists mapped into Z^rank by a random
    injective matrix from a lattice of smaller rank, ``line`` ones are
    pointed lists plus the negative of one of their generators, and
    ``circuit`` ones are pointed lists plus ``-(g + h)`` for two of their
    generators g, h, so a line lies in the cone though no generator's
    negative is in the list.  Each list holds a positive combination of two
    of its generators, and small coordinate bounds are common, so many rays
    lie on the hyperplanes of later normals.
    """
    rng = random.Random(seed)

    def pointed(n, k):
        bound = rng.choice((1, 2, 9))
        h = [rng.randint(-3, 3) or 1 for _ in range(n)]
        gens = []
        while len(gens) < k - 1:
            g = [rng.randint(-bound, bound) for _ in range(n)]
            if dot(g, h):
                gens.append(g if dot(g, h) > 0 else [-x for x in g])
        g, h = rng.sample(gens, 2)
        gens.append([x + rng.randint(1, 3) * y for x, y in zip(g, h)])
        rng.shuffle(gens)
        return gens

    inputs = []
    for n in ranks:
        for _ in range(count):
            k = n + rng.randint(1, 3)
            if kind == "lower":
                d = rng.randint(2, n - 2)
                while True:
                    basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)]
                    if fraction_rank(basis) == d:
                        break
                gens = [[sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)]
                        for coeffs in pointed(d, k)]
            else:
                gens = pointed(n, k)
                if kind == "line":
                    gens.append([-x for x in rng.choice(gens)])
                elif kind == "circuit":
                    negatives = {primitive([-x for x in g]) for g in gens}
                    while True:
                        g, h = rng.sample(gens, 2)
                        circuit = [-x - y for x, y in zip(g, h)]
                        if primitive(circuit) not in negatives:
                            break
                    gens.append(circuit)
            inputs.append((n, gens))
    return inputs


@pytest.mark.parametrize("kind,seed", [("pointed", 61), ("lower", 62)])
def test_high_rank_cones_against_rank_oracle(kind, seed):
    for n, gens in high_rank_inputs(kind, seed):
        c = Cone(gens, n)
        dual = c.dual
        assert all(dot(d, g) >= 0 for g in gens for d in dual.generators)
        assert all(dot(d, g) == 0 for g in gens for d in dual.lineality_basis)
        for g in {primitive(g) for g in gens}:
            assert is_extreme_by_rank(g, dual.generators, 0) == (g in c.generators)
        for f in c.facet_normals:
            assert is_extreme_by_rank(f, gens, len(dual.lineality_basis))
        assert len(dual.lineality_basis) == n - c.dim


@pytest.mark.parametrize("kind,seed", [("line", 63), ("circuit", 64)])
def test_high_rank_line_witness_against_rank_oracle(kind, seed):
    for n, gens in high_rank_inputs(kind, seed):
        with pytest.raises(NotStronglyConvexError) as exc:
            Cone(gens, n)
        lin_rows, dual_rays, _ = _double_description([tuple(g) for g in gens], n)
        dual_rays = tuple(r for r, _ in dual_rays)
        for r in dual_rays:
            assert is_extreme_by_rank(r, gens, len(lin_rows))
        assert all(dot(r, g) >= 0 for g in gens for r in dual_rays)
        assert all(dot(l, g) == 0 for g in gens for l in lin_rows)
        # the dual is not full-dimensional: the rank test the masks replaced
        assert fraction_rank(list(lin_rows + dual_rays)) < n
        # pairing to zero with the whole dual puts the line through w in the cone
        w = exc.value.witness
        assert any(w) and all(dot(d, w) == 0 for d in lin_rows + dual_rays)
