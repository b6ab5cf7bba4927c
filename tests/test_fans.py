"""Fan validation, face closure, skeletons, maximal cones."""

import collections
import functools
import itertools
import math
import random

import pytest

from oracles import is_face_by_supporting_hyperplane
from toricfree import cones, fans
from toricfree.cones import Cone
from toricfree.corpus import lookup
from toricfree.fans import Fan, FanValidationError, _check_pairs, fan_from_generators, validate_fan
from toricfree.klyachko import tangent_filtration
from toricfree.lattice import RationalSubspace, primitive


def projective_plane():
    return fan_from_generators(
        [[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]], 2)


def test_projective_plane_closure_count():
    fan = projective_plane()
    assert len(fan) == 7
    assert len(fan.skeleton(2)) == 3
    assert len(fan.skeleton(1)) == 3
    assert len(fan.skeleton(0)) == 1
    assert tuple(sorted(c.generators[0] for c in fan.skeleton(1))) == ((-1, -1), (0, 1), (1, 0))


def test_single_cone_always_valid():
    c = Cone([(1, 0), (1, 2)], 2)
    fan = validate_fan([c], 2)
    assert c in fan
    assert len(fan) == 4
    assert fan.maximal_cones() == (c,)


def test_invalid_pair_reports_intersection():
    a = Cone([(1, 0), (1, 2)], 2)
    b = Cone([(1, 1), (0, 1)], 2)
    with pytest.raises(FanValidationError) as exc:
        validate_fan([a, b], 2)
    err = exc.value
    assert {err.first, err.second} == {a, b}
    assert err.intersection.generators == ((1, 1), (1, 2))


def test_pair_must_meet_in_a_face_of_both():
    # the meet is the whole of b but not a face of a
    a = Cone([(1, 0), (0, 1)], 2)
    b = Cone([(1, 0), (1, 1)], 2)
    with pytest.raises(FanValidationError, match=r"intersect in \(\(1, 0\), \(1, 1\)\), "
                                                 "which is not a face of both") as exc:
        Fan([a, b], 2)
    assert {exc.value.first, exc.value.second} == {a, b}


def test_face_closure_idempotent():
    fan = projective_plane()
    again = Fan(fan.cones, fan.rank)
    assert again == fan
    # every face of every cone is present exactly once
    seen = set()
    for c in fan:
        assert c not in seen
        seen.add(c)
        for f in c.faces():
            assert f in fan


def test_codim_le1_subfan():
    fan = projective_plane()
    sub = fan.codim_le1_subfan()
    assert isinstance(sub, Fan)
    assert len(sub) == 4
    assert all(c.dim <= 1 for c in sub)
    ray_fan = validate_fan([Cone([(1, 2)], 2)], 2)
    assert ray_fan.codim_le1_subfan() == ray_fan


def test_zero_fan():
    fan = validate_fan([Cone.zero(2)], 2)
    assert len(fan) == 1
    assert fan.skeleton(1) == ()
    assert fan.maximal_cones() == (Cone.zero(2),)


def test_opposite_rays_form_a_fan():
    fan = validate_fan([Cone([(1, 0)], 2), Cone([(-1, 0)], 2)], 2)
    assert len(fan) == 3
    assert len(fan.maximal_cones()) == 2


def test_maximal_cones_projective_plane():
    fan = projective_plane()
    assert set(fan.maximal_cones()) == set(fan.skeleton(2))


def test_fan_requires_consistent_rank():
    with pytest.raises(ValueError):
        Fan([Cone([(1, 0)], 2), Cone([(1, 0, 0)], 3)], 2)


def test_fan_rejects_non_strongly_convex_members():
    dual_with_lineality = Cone([(1, 2)], 2).dual
    with pytest.raises(ValueError):
        Fan([dual_with_lineality], 2)


def test_fan_equality_and_membership():
    fan = projective_plane()
    same = fan_from_generators(
        [[(0, 1), (-1, -1)], [(1, 0), (0, 1)], [(-1, -1), (1, 0)]], 2)
    assert fan == same
    assert hash(fan) == hash(same)
    assert Cone([(1, 0)], 2) in fan
    assert Cone([(1, 1)], 2) not in fan


def test_input_may_list_maximal_cones_only():
    # closure fills in rays and the origin
    fan = fan_from_generators([[(1, 0), (0, 1)]], 2)
    assert len(fan) == 4
    sub = fan.codim_le1_subfan()
    assert len(sub) == 3


# The face closure of a fan is no longer checked pairwise when the fan is
# built, because that follows from the check on the input cones.  These
# tests keep the full closure check as an oracle over named and seeded fans.

def _counter_clockwise(a, b):
    upper_a = a[1] > 0 or (a[1] == 0 and a[0] > 0)
    upper_b = b[1] > 0 or (b[1] == 0 and b[0] > 0)
    if upper_a != upper_b:
        return -1 if upper_a else 1
    return -(a[0] * b[1] - a[1] * b[0])


def complete_planar_rays(seed, count, bound=5):
    """``count`` primitive planar rays, ±e1 and ±e2 among them, sorted by angle."""
    rng = random.Random(seed)
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    while len(rays) < count:
        x, y = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1:
            rays.add((x, y))
    return sorted(rays, key=functools.cmp_to_key(_counter_clockwise))


def complete_planar_fan(seed, count):
    rays = complete_planar_rays(seed, count)
    return fan_from_generators([[u, v] for u, v in zip(rays, rays[1:] + rays[:1])], 2)


def planar_fan_times_p1_cones(seed, count):
    rays = complete_planar_rays(seed, count)
    return [Cone([(*u, 0), (*v, 0), (0, 0, s)], 3)
            for u, v in zip(rays, rays[1:] + rays[:1]) for s in (1, -1)]


def planar_fan_times_p1(seed, count):
    return Fan(planar_fan_times_p1_cones(seed, count), 3)


@pytest.mark.parametrize("name", ["P2", "P1xP1", "P112"])
def test_named_fan_closure_meets_in_faces(name):
    fan = lookup(name).geometry
    _check_pairs(fan.cones)


@pytest.mark.parametrize("seed,count", [(1, 5), (2, 7), (3, 8)])
def test_seeded_planar_fan_closure_meets_in_faces(seed, count):
    fan = complete_planar_fan(seed, count)
    assert len(fan) == 2 * count + 1
    _check_pairs(fan.cones)


@pytest.mark.parametrize("seed,count", [(4, 5), (5, 6), (6, 8)])
def test_seeded_product_fan_closure_meets_in_faces(seed, count):
    fan = planar_fan_times_p1(seed, count)
    assert len(fan) == 6 * count + 3
    _check_pairs(fan.cones)


def cross_polytope_cones(n):
    """The maximal cones of the fan over the faces of the cross-polytope: the 2^n orthants."""
    return [Cone([[s[i] * (i == j) for j in range(n)] for i in range(n)], n)
            for s in itertools.product((1, -1), repeat=n)]


def cube_fan_cones():
    """The six maximal cones of the fan over the faces of the cube [-1, 1]^3, four rays each."""
    corners = list(itertools.product((-1, 1), repeat=3))
    return [Cone([p for p in corners if p[i] == s], 3) for i in range(3) for s in (-1, 1)]


def orthants_listed_twice_with_faces():
    """Two orthants of rank 3, each listed again as an equal copy, with faces of the first."""
    tops = cross_polytope_cones(3)[:2]
    return [*tops, *(Cone(c.generators, 3) for c in tops), *tops[0].faces(), Cone.zero(3)]


@pytest.mark.parametrize("build, rank, count", [
    *(pytest.param(functools.partial(planar_fan_times_p1_cones, seed, count), 3, 2 * count,
                   id=f"{seed}-{count}") for seed, count in [(4, 5), (5, 6), (6, 8)]),
    *(pytest.param(functools.partial(cross_polytope_cones, n), n, 2 ** n,
                   id=f"cross-polytope-{n}") for n in (2, 3, 4, 5)),
    pytest.param(cube_fan_cones, 3, 6, id="cube"),
    pytest.param(list, 2, 1, id="empty"),
    pytest.param(orthants_listed_twice_with_faces, 3, 2, id="duplicates-and-faces"),
])
def test_seeded_product_fan_maximal_cones_match_face_definition(build, rank, count):
    """The maximal cones are the closure cones that are proper faces of none, in the fan's order.

    Each is the caller's own cone object; the empty fan has the zero cone
    of its closure alone.
    """
    inputs = build()
    fan = Fan(inputs, rank)
    expected = tuple(c for c in fan.cones
                     if not any(c != d and c.is_face_of(d) for d in fan.cones))
    assert len(expected) == count
    assert fan.maximal_cones() == expected
    assert all(any(m is c for c in inputs) for m in fan.maximal_cones()) or not inputs


def test_maximal_cones_build_no_cone(monkeypatch):
    """Reading the maximal cones runs no double description and builds no cone.

    Validation found them already.  The fan is the rank-12 orthant listed
    with its 767 largest faces, whose closure holds 4,096 cones.
    """
    n = 12
    keys = [c for k in range(n, -1, -1) for c in itertools.combinations(range(n), k)][:768]
    fan = Fan([Cone([[int(i == j) for j in range(n)] for i in c], n) for c in keys], n)
    calls = []
    for name in ("_double_description", "_face_keys", "_canonical_cone"):
        def counted(*args, _name=name, _original=getattr(cones, name)):
            calls.append(_name)
            return _original(*args)
        # fans binds the private helpers it uses under their own names
        for module in (cones, fans):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    assert fan.maximal_cones() == (fan.cones[-1],)
    assert calls == []


def test_closure_size_is_bounded_before_the_pair_check(monkeypatch):
    """Closure cones x rank x rank may reach ``fans._MAX_CLOSURE_SIZE``, and no more.

    The cone on 11 unit vectors in rank 32 has 2,048 faces, so exactly
    2^21; on 12 it has 4,096, under ``MAX_FACES`` but one step over, and
    is refused before any pair is checked or any closure cone is built.
    """
    def units(k, n):
        return Cone([[int(i == j) for j in range(n)] for i in range(k)], n)

    assert len(Fan([units(11, 32)], 32)) * 32 * 32 == fans._MAX_CLOSURE_SIZE == 2 ** 21

    def refuse(*args):
        raise AssertionError("the closure size was not checked first")

    monkeypatch.setattr(fans, "_check_pairs", refuse)
    monkeypatch.setattr(fans, "_canonical_cone", refuse)
    with pytest.raises(ValueError, match=f"more than the maximum of {2 ** 21}$"):
        Fan([units(12, 32)], 32)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cross_polytope_fan_closure_matches_the_sign_patterns(n):
    """The closure holds one cone per sign pattern, and the face tests agree with an oracle.

    A face of an orthant takes each axis with one sign or leaves it out,
    so the closure is the 3^n sign patterns; the 2^n orthants are maximal.
    """
    inputs = cross_polytope_cones(n)
    fan = Fan(inputs, n)
    patterns = {tuple(sorted(tuple(s * (i == j) for j in range(n)) for i, s in enumerate(p) if s))
                for p in itertools.product((1, 0, -1), repeat=n)}
    assert len(fan) == 3 ** n
    assert {c.generators for c in fan} == patterns
    assert fan.maximal_cones() == tuple(sorted(inputs, key=Cone.sort_key))
    for f in fan:
        for c in inputs:
            assert f.is_face_of(c) == is_face_by_supporting_hyperplane(f, c)


def test_closure_runs_one_split_chain_per_closure_cone(monkeypatch):
    """Each distinct face is built once, as the input cone or from its face key.

    The rank-5 cross-polytope fan holds 243 faces of its 32 orthants, 32
    faces each.  Outside the pair checks, whose intersections each run a
    chain of their own, a split chain runs at most once per closure cone
    the input did not give, and never twice on the same generators.
    """
    inputs = cross_polytope_cones(5)
    chained, inside = [], [0]
    chain, meet = cones._split_chain, Cone.intersection

    def counted_chain(rows, *args):
        if not inside[0]:
            chained.append(tuple(rows))
        return chain(rows, *args)

    def counted_meet(self, other):
        inside[0] += 1
        try:
            return meet(self, other)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(cones, "_split_chain", counted_chain)
    monkeypatch.setattr(Cone, "intersection", counted_meet)
    fan = Fan(inputs, 5)
    assert len(fan) == 243
    assert len(chained) == len(set(chained)) <= len(fan) - len(inputs)


def count_pair_checks(monkeypatch):
    """Count ``Cone.intersection`` calls, each one pair the validation checks."""
    calls = [0]
    meet = Cone.intersection

    def counted(self, other):
        calls[0] += 1
        return meet(self, other)

    monkeypatch.setattr(Cone, "intersection", counted)
    return calls


@pytest.mark.parametrize("seed", [31, 32, 33, 34])
def test_listed_faces_give_the_fan_of_the_top_cones(monkeypatch, seed):
    """A fan listed with some faces of its cones is the fan of those cones alone.

    The inputs that are faces of another input are closed over but not
    checked pairwise: the top cones' pairs are the only intersections,
    and a complete simplicial fan, proved a fan by its walls, makes none.
    The fans are a planar fan x P^1, which is complete, some orthants of
    the rank-4 cross-polytope fan, and one rank-5 orthant, each listed
    with a seeded sample of its faces (rays, the zero cone and the
    inputs' own faces of every dimension among them).
    """
    rng = random.Random(seed)
    samples = [
        (list(planar_fan_times_p1(seed, rng.randint(5, 8)).maximal_cones()), True),
        (rng.sample(cross_polytope_cones(4), rng.randint(2, 6)), False),
        (cross_polytope_cones(5)[:1], False),
    ]
    calls = count_pair_checks(monkeypatch)
    for tops, complete in samples:
        faces = sorted({f for c in tops for f in c.faces()} - set(tops), key=Cone.sort_key)
        listed = tops + rng.sample(faces, rng.randint(1, len(faces)))
        rng.shuffle(listed)
        expected = Fan(tops, tops[0].rank)
        calls[0] = 0
        fan = Fan(listed, tops[0].rank)
        assert calls[0] == (0 if complete else len(tops) * (len(tops) - 1) // 2)
        assert fan.cones == expected.cones
        assert set(fan.maximal_cones()) == set(tops)


def test_invalid_pair_is_named_when_a_face_is_listed():
    # a and b overlap in the open cone between (1, 1) and (1, 2); the ray
    # through (1, 2) is a face of a listed too, and c, the first cone in
    # the sorted order, meets both correctly; the pair named is the two
    # top cones, though the listed ray also meets b in a non-face
    a = Cone([(1, 0), (1, 2)], 2)
    b = Cone([(1, 1), (0, 1)], 2)
    c = Cone([(-1, 0), (0, -1)], 2)
    face = Cone([(1, 2)], 2)
    for listed in ([a, b, face], [face, c, b, a], [c, a, face, b, Cone.zero(2)]):
        with pytest.raises(FanValidationError) as exc:
            Fan(listed, 2)
        err = exc.value
        assert (err.first, err.second) == (b, a)
        assert err.intersection.generators == ((1, 1), (1, 2))


def test_value_objects_show_themselves_compare_only_to_their_kind_and_refuse_assignment():
    cone = Cone([(1, 0), (1, 2)], 2)
    values = {
        cone: "Cone([(1, 0), (1, 2)], rank=2)",
        Fan([cone], 2): "Fan(4 cones, rank=2)",
        tangent_filtration((1, 2), 2): "Filtration(2, [1: dim 1, 2: dim 0])",
        RationalSubspace(2, [(2, 4)]): "RationalSubspace(2, [(1, 2)])",
    }
    for value, shown in values.items():
        assert repr(value) == shown
        assert value.__eq__(shown) is NotImplemented and value != shown
        with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
            value.rank = 3


# A complete simplicial fan is proved a fan by its walls and one interior
# point (``fans._complete_by_walls``); every other input is checked pairwise.

def tops_with_face_keys(cone_list):
    """The distinct cones in sorted order, each with its face keys read, as ``Fan`` has them."""
    tops = sorted(set(cone_list), key=Cone.sort_key)
    for c in tops:
        cones._face_keys(c)
    return tops


def wall_counts(tops):
    """How many tops hold each wall, a face key of one ray fewer than the rank."""
    rank = tops[0].rank
    return collections.Counter(key for c in tops for key in cones._face_keys(c)
                               if len(key) == rank - 1)


def cycle_cones(path):
    """The planar cones on consecutive rays of a closed path of rays."""
    return [Cone([u, v], 2) for u, v in zip(path, path[1:] + path[:1])]


def suspended_cones(path, apex=(0, 0, -1)):
    """The cones over a closed path of planar rays in the plane z = 0, to e3 and to ``apex``."""
    return [Cone([(*u, 0), (*v, 0), top], 3)
            for u, v in zip(path, path[1:] + path[:1]) for top in ((0, 0, 1), apex)]


QUADRANTS = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def fresh_ray(rng, used, quadrant=None):
    """A primitive planar ray with entries at most 5 in size and not in ``used``, which it joins.

    With ``quadrant``, a pair of signs, the ray lies inside that open quadrant.
    """
    while True:
        x, y = rng.randint(-5, 5), rng.randint(-5, 5)
        if quadrant:
            x, y = quadrant[0] * abs(x), quadrant[1] * abs(y)
        if math.gcd(x, y) == 1 and (x, y) not in used and (x * y or not quadrant):
            used.add((x, y))
            return x, y


def wound_planar_path(rng, winding, extra):
    """Distinct primitive planar rays going ``winding`` times round the origin, in path order.

    Each turn is sorted by angle from +e1 and holds the axes (the first
    turn) or a ray inside each open quadrant, so consecutive rays are
    less than a half-turn apart, and ``extra`` more rays.
    """
    used = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    path = []
    for turn in range(winding):
        rays = list(used) if turn == 0 else [fresh_ray(rng, used, q) for q in QUADRANTS]
        rays += [fresh_ray(rng, used) for _ in range(extra)]
        path += sorted(rays, key=functools.cmp_to_key(_counter_clockwise))
    return path


def subdivided_octahedron_rays(rng, steps, corrupt):
    """The rays of each top of the rank-3 cross-polytope fan after ``steps`` stellar subdivisions.

    Each step puts a ray inside a random top and replaces the top by the
    cones on that ray and each facet of the top.  With ``corrupt``, the
    last ray takes a negative weight on one ray of its top, so it lies
    outside the top and its cones fold over a neighbour.
    """
    tops = [c.generators for c in cross_polytope_cones(3)]
    for step in range(steps):
        top = tops.pop(rng.randrange(len(tops)))
        weights = [rng.randint(1, 3) for _ in top]
        if corrupt and step == steps - 1:
            weights[rng.randrange(3)] = -rng.randint(1, 3)
        ray = primitive([sum(w * r[i] for w, r in zip(weights, top)) for i in range(3)])
        tops += [[*(r for r in top if r != skipped), ray] for skipped in top]
    return tops


def sheared(rng, tops, n):
    """The rays of each top under three random elementary shears of Z^n, a unimodular map."""
    shears = [(*rng.sample(range(n), 2), rng.randint(-2, 2)) for _ in range(3)] if n > 1 else []

    def shear(v):
        v = list(v)
        for i, j, k in shears:
            v[i] += k * v[j]
        return v

    return [[shear(r) for r in rays] for rays in tops]


def fan_configurations(count, seed):
    """Seeded top cone lists, each with whether they are the tops of a complete simplicial fan.

    They take turns: planar fans wound 1-3 times; their suspensions to e3
    and to a tilted -e3, which for two turns are double covers of rank 3
    branched around the two apexes; stellar subdivisions of the
    octahedron fan, the last ray corrupted in about half; and the
    cross-polytope fans of ranks 1-4 under a unimodular shear.  Each of
    the first three kinds has one top dropped in about a quarter of them.
    """
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 4
        if kind == 0:
            winding = rng.randint(1, 3)
            cone_list = cycle_cones(wound_planar_path(rng, winding, rng.randint(0, 3)))
            complete = winding == 1
        elif kind == 1:
            winding = rng.randint(1, 2)
            apex = (rng.randint(-2, 2), rng.randint(-2, 2), -1)
            cone_list = suspended_cones(wound_planar_path(rng, winding, rng.randint(0, 2)), apex)
            complete = winding == 1
        elif kind == 2:
            corrupt = rng.random() < 0.5
            tops = subdivided_octahedron_rays(rng, rng.randint(corrupt, 3), corrupt)
            cone_list, complete = [Cone(rays, 3) for rays in tops], not corrupt
        else:
            n = rng.randint(1, 4)
            tops = sheared(rng, [c.generators for c in cross_polytope_cones(n)], n)
            cone_list, complete = [Cone(rays, n) for rays in tops], True
        if kind < 3 and rng.random() < 0.25:
            cone_list.pop(rng.randrange(len(cone_list)))
            complete = False
        yield cone_list, complete


def test_walls_accept_only_fans_and_every_complete_simplicial_fan():
    """Whenever the walls prove a fan, the pairwise check passes; every complete one is proved.

    Over 1,200 seeded configurations, invalid ones among them: covers
    wound more than once, whose walls all match, folds and overlaps from
    a corrupted subdivision, and fans with a hole where a top was dropped.
    """
    proved = complete_count = 0
    for i, (cone_list, complete) in enumerate(fan_configurations(1200, 3901)):
        tops = tops_with_face_keys(cone_list)
        accepted = fans._complete_by_walls(tops, tops[0].rank)
        if accepted:
            proved += 1
            _check_pairs(tops)
        assert accepted or not complete, f"configuration {i} is complete but not proved"
        complete_count += complete
    assert proved == complete_count > 400


# A planar fan wound twice: the four quadrants, then the square turned by 45
# degrees.  Every ray is on two tops, one on each side of it.  The first top in
# sorted order, on (-1, -1) and (-1, 1), has the sum of its rays on the ray
# (-1, 0) of the first turn, so on the boundary of two tops.
WOUND_TWICE = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (-1, -1), (1, -1)]
# A path once round the origin that turns back at (1, -2) and again at (1, -5):
# every ray is on two tops, but at those two both lie on one side of it
FOLDED = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, -2), (1, -5), (2, -1)]


@pytest.mark.parametrize("cone_list, counts", [
    pytest.param(cycle_cones(WOUND_TWICE), {2}, id="planar-wound-twice"),
    pytest.param(suspended_cones(WOUND_TWICE), {2}, id="double-cover-around-e3"),
    pytest.param([c for c in cycle_cones(WOUND_TWICE) if (-1, 0) not in c.generators], {1, 2},
                 id="wound-twice-less-the-tops-on-(-1,0)"),
    pytest.param(cycle_cones(FOLDED), {2}, id="folded"),
])
def test_matched_walls_that_are_no_fan_fall_back_to_the_pair_check(cone_list, counts):
    """Each wall matched is not enough: these fall back to the pair check, which refuses them.

    The two covers wound twice match every wall on opposite sides, but
    their interior point is covered twice; with the two tops round that
    point dropped it is covered once, but walls are left with one top;
    the folded fan's walls each have two tops, but not on opposite sides.
    """
    tops = tops_with_face_keys(cone_list)
    assert set(wall_counts(tops).values()) == counts
    assert not fans._complete_by_walls(tops, tops[0].rank)
    with pytest.raises(FanValidationError):
        Fan(cone_list, tops[0].rank)


def test_complete_fans_are_proved_by_their_walls_alone(monkeypatch):
    """A complete simplicial fan makes no intersection; opposite rays are one in rank 1."""
    calls = count_pair_checks(monkeypatch)
    line = Fan([Cone([(1,)], 1), Cone([(-1,)], 1)], 1)
    assert [c.generators for c in line] == [(), ((-1,),), ((1,),)]
    assert fans._complete_by_walls(line.maximal_cones(), 1)
    assert len(projective_plane()) == 7
    assert len(Fan(cross_polytope_cones(4), 4)) == 81
    assert calls[0] == 0
