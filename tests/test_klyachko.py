"""Filtrations, certificates, and the local-freeness decision."""

import random

import pytest

from oracles import (
    brute_force_locally_free,
    decide_by_own_splits,
    diagnose_by_partial_sums,
    fraction_rank,
    witnesses_by_smith,
)
from timing import deadline
from toricfree import cones
from toricfree.cones import Cone, NotStronglyConvexError
from toricfree.fans import fan_from_generators, validate_fan
from toricfree.klyachko import (
    DecompositionCertificate,
    Filtration,
    decide_tangent_locally_free,
    decide_tangent_locally_free_on_fan,
    diagnose_certificate,
    sections_dimension,
    tangent_family,
    tangent_filtration,
    verify_certificate,
)
from toricfree.lattice import RationalSubspace, dot, is_primitive, primitive
from toricfree.serialize import freeness_to_document


def random_cones(seed, count, ranks=(2, 3, 4), bound=5):
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        n = rng.choice(ranks)
        k = rng.randint(1, n + 2)
        gens = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
        try:
            cones.append(Cone(gens, n))
        except (NotStronglyConvexError, ValueError):
            continue
    return cones


def test_filtration_normalization_and_evaluation():
    span = RationalSubspace(2, [(1, 0)])
    zero = RationalSubspace.zero(2)
    f = Filtration(2, [(1, span), (2, zero)])
    assert tuple(i for i, _ in f.steps) == (1, 2)
    assert f.at(-5) == RationalSubspace.full(2)
    assert f.at(0) == RationalSubspace.full(2)
    assert f.at(1) == span
    assert f.at(2) == zero
    assert f.at(99) == zero
    # redundant steps collapse
    g = Filtration(2, [(0, RationalSubspace.full(2)), (1, span), (2, zero)])
    assert g == f


def test_filtration_validation():
    span = RationalSubspace(2, [(1, 0)])
    other = RationalSubspace(2, [(0, 1)])
    with pytest.raises(ValueError):
        Filtration(2, [(1, span)])  # never reaches zero
    with pytest.raises(ValueError):
        Filtration(2, [(1, span), (2, other), (3, RationalSubspace.zero(2))])
    with pytest.raises(ValueError):
        Filtration(2, [(1, span), (1, RationalSubspace.zero(2))])
    with pytest.raises(ValueError):
        Filtration(2, [(1, RationalSubspace.full(2)), (1, RationalSubspace.zero(2))])
    with pytest.raises(ValueError):
        Filtration(2, [(1, span), (2, span), (2, RationalSubspace.zero(2))])
    with pytest.raises(ValueError):
        Filtration(2, [(1, RationalSubspace(3, [(1, 0, 0)]))])


def test_filtration_rejects_non_integer_breakpoints():
    # truncating 0.2 and 0.9 to 0 once let this through with breakpoints (0, 0)
    line = RationalSubspace(2, [(1, 0)])
    zero = RationalSubspace.zero(2)
    with pytest.raises(TypeError):
        Filtration(2, [(0.2, line), (0.9, zero)])
    with pytest.raises(TypeError):
        Filtration(2, [(1, line), (2.0, zero)])


def test_filtration_levels_are_integers():
    # a float level once compared against the breakpoints and answered
    f = Filtration(2, [(1, RationalSubspace(2, [(1, 0)])), (2, RationalSubspace.zero(2))])
    for level in (1.5, 0.5):
        with pytest.raises(TypeError):
            f.at(level)
    assert f.at(True) == f.at(1)
    assert f.at(True).dim == 1


def test_tangent_filtration_levels():
    f = tangent_filtration((1, 0), 2)
    assert f.at(0).dim == 2
    assert f.at(1) == RationalSubspace(2, [(1, 0)])
    assert f.at(2).dim == 0
    assert f.at(-5).dim == 2
    g = tangent_filtration((1, 2), 2)
    assert g.at(1) == RationalSubspace(2, [(1, 2)])
    with pytest.raises(ValueError):
        tangent_filtration((2, 4), 2)
    with pytest.raises(ValueError):
        tangent_filtration((1, 0, 0), 2)


def test_tangent_filtration_is_the_validated_filtration():
    # rank 1 is included: there the line is the whole space and the filtration has one step
    rng = random.Random(1106)
    for n in range(1, 7):
        for _ in range(8):
            u = (0,) * n
            while not is_primitive(u):
                u = tuple(rng.randint(-6, 6) for _ in range(n))
            expected = Filtration(n, [(1, RationalSubspace(n, [u])),
                                      (2, RationalSubspace.zero(n))])
            got = tangent_filtration(u, n)
            assert got == expected
            assert got.steps == expected.steps
            assert tuple(i for i, _ in got.steps) == tuple(i for i, _ in expected.steps)
            assert hash(got) == hash(expected)
            if n == 1:
                assert tuple(i for i, _ in got.steps) == (2,)
    # tangent_family builds each ray's filtration past tangent_filtration's input checks
    ranks = set()
    for c in random_cones(seed=1107, count=90, ranks=(1, 2, 3, 4, 5, 6)):
        family = tangent_family(c)
        assert list(family) == list(c.rays())
        for u, got in family.items():
            expected = tangent_filtration(u, c.rank)
            assert got == expected
            assert got.steps == expected.steps
            assert tuple(i for i, _ in got.steps) == tuple(i for i, _ in expected.steps)
            assert hash(got) == hash(expected)
            if c.rank == 1:
                assert tuple(i for i, _ in got.steps) == (2,)
        ranks.add(c.rank)
    assert ranks == {1, 2, 3, 4, 5, 6}


def test_sections_dimension_thresholds():
    assert sections_dimension((1, 0), (0, 0)) == 2
    assert sections_dimension((1, 0), (-1, 7)) == 1
    assert sections_dimension((1, 0), (-2, 0)) == 0
    assert sections_dimension((1, 0, 0), (5, 1, 2)) == 3


def test_sections_dimension_rejects_non_integer_weights():
    # a weight is read like a ray: (-0.5, 3) once gave 2
    with pytest.raises(TypeError):
        sections_dimension((1, 0), (-0.5, 3))
    with pytest.raises(TypeError):
        Cone([(1, 0)], 2).weight_class((0.5, 1))


def test_sections_dimension_closed_form_random():
    rng = random.Random(7)
    from toricfree.lattice import primitive
    for _ in range(1000):
        n = rng.choice([2, 3, 4])
        while True:
            u = [rng.randint(-6, 6) for _ in range(n)]
            if any(u):
                break
        u = primitive(u)
        m = tuple(rng.randint(-6, 6) for _ in range(n))
        pairing = dot(m, u)
        expected = n if pairing >= 0 else (1 if pairing == -1 else 0)
        assert sections_dimension(u, m) == expected


def test_verify_certificate_orthant():
    c = Cone([(1, 0), (0, 1)], 2)
    family = tangent_family(c)
    cert = DecompositionCertificate(c, [
        ((1, 0), RationalSubspace(2, [(1, 0)])),
        ((0, 1), RationalSubspace(2, [(0, 1)])),
    ])
    assert verify_certificate(c, family, cert)


def test_verify_certificate_rejects_duplicate_classes():
    c = Cone([(1, 0), (0, 1)], 2)
    family = tangent_family(c)
    cert = DecompositionCertificate(c, [
        ((0, 0), RationalSubspace(2, [(1, 0)])),
        ((0, 0), RationalSubspace(2, [(0, 1)])),
    ])
    assert not verify_certificate(c, family, cert)
    assert "distinct" in diagnose_certificate(c, family, cert)


def test_verify_certificate_rejects_overlapping_subspaces():
    c = Cone([(1, 0), (0, 1)], 2)
    family = tangent_family(c)
    cert = DecompositionCertificate(c, [
        ((1, 0), RationalSubspace(2, [(1, 0)])),
        ((0, 1), RationalSubspace(2, [(1, 0)])),
    ])
    assert not verify_certificate(c, family, cert)


def test_verify_certificate_no_certificate_for_a1():
    c = Cone([(1, 0), (1, 2)], 2)
    family = tangent_family(c)
    cert = DecompositionCertificate(c, [
        ((1, 0), RationalSubspace(2, [(1, 0)])),
        ((0, 1), RationalSubspace(2, [(1, 2)])),
    ])
    assert not verify_certificate(c, family, cert)


def test_verify_certificate_missing_ray_is_error():
    c = Cone([(1, 0), (0, 1)], 2)
    family = {(1, 0): tangent_filtration((1, 0), 2)}
    cert = DecompositionCertificate(c, [((0, 0), RationalSubspace.full(2))])
    with pytest.raises(ValueError):
        verify_certificate(c, family, cert)


def test_diagnose_rejects_a_filtration_of_another_ambient_dimension():
    c = Cone([(1, 0, 0)], 3)
    family = {(1, 0, 0): Filtration(4, [(2, RationalSubspace.zero(4))])}
    cert = decide_tangent_locally_free(c).certificate
    with pytest.raises(ValueError, match="^filtration ambient dimension mismatch$"):
        diagnose_certificate(c, family, cert)


def test_diagnose_rejects_a_certificate_subspace_of_another_ambient_dimension():
    c = Cone([(1, 0), (0, 1)], 2)
    cert = DecompositionCertificate(c, [
        ((0, 1), RationalSubspace(2, [(0, 1)])),
        ((1, 0), RationalSubspace(3, [(1, 0, 0)])),
    ])
    assert diagnose_certificate(c, tangent_family(c), cert) == (
        "certificate subspace has wrong ambient dimension")


def test_verify_certificate_wrong_cone_is_error():
    a = Cone([(1, 0), (0, 1)], 2)
    b = Cone([(1, 0), (1, 2)], 2)
    cert = DecompositionCertificate(a, [((0, 0), RationalSubspace.full(2))])
    with pytest.raises(ValueError):
        verify_certificate(b, tangent_family(b), cert)


def test_verify_certificate_entry_order_invariance():
    c = Cone([(1, 0), (0, 1)], 2)
    family = tangent_family(c)
    e1 = ((1, 0), RationalSubspace(2, [(1, 0)]))
    e2 = ((0, 1), RationalSubspace(2, [(0, 1)]))
    assert DecompositionCertificate(c, [e1, e2]) == DecompositionCertificate(c, [e2, e1])
    assert verify_certificate(c, family, DecompositionCertificate(c, [e2, e1]))


def test_certificate_entries_are_sorted_however_it_is_made():
    c = Cone([(1, 0), (0, 1)], 2)
    e1 = ((1, 0), RationalSubspace(2, [(1, 0)]))
    e2 = ((0, 1), RationalSubspace(2, [(0, 1)]))
    cert = DecompositionCertificate(c, [e1])
    # weights given as lists come back as tuples, in weight order
    unsorted = [([1, 0], e1[1]), ([0, 1], e2[1])]
    for made in (cert._replace(entries=unsorted), DecompositionCertificate._make((c, unsorted))):
        assert type(made) is DecompositionCertificate
        assert made.entries == (e2, e1)
    assert cert == (c, (e1,))
    with pytest.raises(AttributeError):
        cert.entries = (e2, e1)
    with pytest.raises(AttributeError):
        cert.extra = 1


def test_verify_certificate_representative_invariance():
    # on a lower-dimensional cone, shifting a weight by the annihilator
    # and re-reducing gives the same certificate
    c = Cone([(1, 0)], 2)
    family = tangent_family(c)
    rep = decide_tangent_locally_free(c)
    assert rep.verdict
    base = rep.certificate
    shifted_entries = []
    for m, sub in base.entries:
        shifted = tuple(a + 3 * b for a, b in zip(m, (0, 1)))  # (0,1) spans the annihilator
        shifted_entries.append((c.weight_class(shifted), sub))
    assert verify_certificate(c, family, DecompositionCertificate(c, shifted_entries))
    # a non-canonical representative is diagnosed, not silently accepted
    raw = DecompositionCertificate(c, [((m[0], m[1] + 3), sub) for m, sub in base.entries])
    assert not verify_certificate(c, family, raw)


def test_decide_orthant():
    c = Cone([(1, 0), (0, 1)], 2)
    rep = decide_tangent_locally_free(c)
    assert rep.verdict
    assert rep.witnesses == {(1, 0): (1, 0), (0, 1): (0, 1)}
    assert rep.certificate is not None
    assert verify_certificate(c, tangent_family(c), rep.certificate)


def test_decide_a1_failure():
    rep = decide_tangent_locally_free(Cone([(1, 0), (1, 2)], 2))
    assert not rep.verdict
    assert rep.failing_ray == (1, 0)
    assert "no integral dual weight" in rep.failure
    assert rep.certificate is None and rep.witnesses is None


def test_decide_conifold_dependent_rays():
    c = Cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
    rep = decide_tangent_locally_free(c)
    assert not rep.verdict
    assert rep.failure == "dependent rays"
    assert rep.failing_ray is None


def test_decide_zero_cone_and_single_rays():
    rep = decide_tangent_locally_free(Cone.zero(3))
    assert rep.verdict and rep.witnesses == {}
    assert len(rep.certificate.entries) == 1
    class_, sub = rep.certificate.entries[0]
    assert class_ == (0, 0, 0) and sub.dim == 3
    for ray in [(1, 0), (1, 2), (0, 1)]:
        rep = decide_tangent_locally_free(Cone([ray], 2))
        assert rep.verdict, ray
        assert dot(rep.witnesses[ray], ray) == 1


def test_decide_lower_dimensional_cone_uses_zero_class():
    c = Cone([(1, 0, 0), (0, 1, 0)], 3)
    rep = decide_tangent_locally_free(c)
    assert rep.verdict
    classes = [m for m, _ in rep.certificate.entries]
    assert (0, 0, 0) in classes
    assert len(rep.certificate.entries) == 3


def test_emitted_certificates_verify_on_random_corpus():
    count = 0
    for c in random_cones(seed=200, count=300):
        rep = decide_tangent_locally_free(c)
        if rep.verdict:
            count += 1
            assert verify_certificate(c, tangent_family(c), rep.certificate)
            assert rep.witnesses is not None
            for u, m in rep.witnesses.items():
                for u2 in c.rays():
                    assert dot(m, u2) == (1 if u2 == u else 0)
    assert count > 50


def seeded_cones_ranks_1_to_6(seed=1717, per_rank=80):
    """Seeded cones of ranks 1-6, about half of them drawn from at most rank-many generators."""
    rng = random.Random(seed)
    cones = []
    for n in range(1, 7):
        found = 0
        while found < per_rank:
            bound = rng.choice((1, 2, 3, 5))
            k = rng.randint(1, n + 2 if rng.random() < 0.5 else n)
            gens = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
            try:
                cones.append(Cone(gens, n))
            except (NotStronglyConvexError, ValueError):
                continue
            found += 1
    return cones


def test_witnesses_match_the_smith_oracle_and_are_canonical():
    outcomes = set()
    for c in seeded_cones_ranks_1_to_6():
        rep = decide_tangent_locally_free(c)
        want = witnesses_by_smith(c)
        assert (rep.verdict, rep.failure, rep.failing_ray) == (
            want.verdict, want.failure, want.failing_ray), c
        if rep.verdict:
            assert rep.witnesses == {u: c.weight_class(m) for u, m in want.witnesses.items()}
            rays = c.rays()
            for u, w in rep.witnesses.items():
                assert w == c.weight_class(w)
                assert [dot(w, v) for v in rays] == [int(v == u) for v in rays]
        else:
            assert rep.witnesses is None and rep.certificate is None
        outcomes.add((c.rank, rep.verdict, rep.failure == "dependent rays"))
    # every rank gives positive cones, every rank from 2 on a ray with no
    # witness, and every rank from 3 on dependent rays (rank 1 cones are
    # smooth, and a pointed rank-2 cone has independent rays)
    assert {(n, True, False) for n in range(1, 7)} <= outcomes
    assert {(n, False, False) for n in range(2, 7)} <= outcomes
    assert {(n, False, True) for n in range(3, 7)} <= outcomes


def rank30_cone(seed, count):
    rng = random.Random(seed)
    return Cone([[rng.randint(0, 1000) for _ in range(30)] for _ in range(count)], 30)


# the first ray of the dense cone with no witness, as the Smith form found it
RANK30_FAILING_RAY = (13, 310, 246, 628, 253, 33, 467, 562, 57, 301, 111, 417, 211, 205, 745,
                      964, 280, 31, 996, 56, 580, 807, 955, 454, 337, 517, 115, 663, 124, 379)


def test_rank_30_ci_cones_are_decided_quickly():
    # a Smith form with transforms took about 40 s on the first cone, and
    # gave the second a 38,742-bit witness that could not be written out
    with deadline(10):
        dense = decide_tangent_locally_free(rank30_cone(2030, 30))
        lineal_cone = rank30_cone(5, 20)
        lineal = decide_tangent_locally_free(lineal_cone)
    assert not dense.verdict
    assert dense.failing_ray == RANK30_FAILING_RAY
    assert dense.failure == f"no integral dual weight for ray {RANK30_FAILING_RAY}"
    assert lineal.verdict and len(lineal.witnesses) == 20
    assert max(abs(c).bit_length() for w in lineal.witnesses.values() for c in w) <= 200
    rays = lineal_cone.rays()
    for u, w in lineal.witnesses.items():
        assert [dot(w, v) for v in rays] == [int(v == u) for v in rays]


def _tampered_entries(cone, entries, rng):
    """Entry lists derived from a valid certificate's by one local edit each."""
    entries = list(entries)
    n = cone.rank
    k = len(entries)
    out = []
    if k >= 2:
        i, j = rng.sample(range(k), 2)
        swapped = list(entries)
        swapped[i], swapped[j] = (entries[i][0], entries[j][1]), (entries[j][0], entries[i][1])
        out.append(swapped)
        merged = [e for t, e in enumerate(entries) if t != j]
        merged[merged.index(entries[i])] = (entries[i][0], entries[i][1] + entries[j][1])
        out.append(merged)
    i = rng.randrange(k)
    out.append(entries[:i] + entries[i + 1:])
    out.append(entries + [entries[i]])
    m, sub = entries[i]
    out.append(entries[:i] + [(cone.weight_class([2 * c for c in m]), sub)] + entries[i + 1:])
    for step in (1, -1):
        shifted = list(m)
        shifted[rng.randrange(n)] += step
        out.append(entries[:i] + [(cone.weight_class(shifted), sub)] + entries[i + 1:])
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(sub.dim)]
        other = RationalSubspace(n, rows)
        if other.dim == sub.dim:
            break
    out.append(entries[:i] + [(m, other)] + entries[i + 1:])
    return out


def _generic_entries(cone, rng):
    """A weight-graded splitting of Q^n: random subspaces of random dimensions, distinct classes."""
    n = cone.rank
    rows = []
    while fraction_rank(rows) < n:
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    groups = [rows[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    weights = []
    while len(weights) < len(groups):
        w = cone.weight_class([rng.randint(-2, 2) for _ in range(n)])
        if w not in weights:
            weights.append(w)
    return [(w, RationalSubspace(n, g)) for w, g in zip(weights, groups)]


def _partial_sum_family(cone, entries):
    """Hand-built filtrations the entries split: at level i, the sum of those pairing at least i."""
    n = cone.rank
    family = {}
    for u in cone.rays():
        steps = [(p + 1, RationalSubspace(
            n, [row for m, sub in entries if dot(m, u) > p for row in sub.basis]))
            for p in {dot(m, u) for m, _ in entries}]
        family[u] = Filtration(n, steps)
    return family


def test_diagnose_matches_partial_sums_on_tampered_certificates():
    # the dimension-count check gives the message of the check that forms every sum
    rng = random.Random(909)
    seen = set()
    positives = 0
    # non-tangent families too: hand-built filtrations with negative breakpoints,
    # three or more steps and steps of dimension above 1
    generic_seen = set()
    many_steps = negative = wide = False
    for c in random_cones(seed=208, count=160, ranks=(2, 3, 4, 5)):
        rep = decide_tangent_locally_free(c)
        if not rep.verdict:
            continue
        positives += 1
        family = tangent_family(c)
        certs = [rep.certificate] + [DecompositionCertificate(c, e)
                                     for e in _tampered_entries(c, rep.certificate.entries, rng)]
        for cert in certs:
            message = diagnose_certificate(c, family, cert)
            assert message == diagnose_by_partial_sums(c, family, cert), (c.generators, cert.entries)
            seen.add(message.split(":")[0] if message else None)
        entries = _generic_entries(c, rng)
        generic = _partial_sum_family(c, entries)
        u, step = rng.choice(c.rays()), rng.choice((-1, 1))
        shifted = {**generic, u: Filtration(c.rank, [(i + step, sub)
                                                    for i, sub in generic[u].steps])}
        cases = [(generic, rep.certificate), (shifted, DecompositionCertificate(c, entries))]
        cases += [(generic, DecompositionCertificate(c, e))
                  for e in [entries] + _tampered_entries(c, entries, rng)]
        for fam, cert in cases:
            message = diagnose_certificate(c, fam, cert)
            assert message == diagnose_by_partial_sums(c, fam, cert), (c.generators, cert.entries)
            generic_seen.add(message.split(":")[0] if message else None)
        for filt in generic.values():
            many_steps |= len(filt.steps) >= 3
            negative |= filt.steps[0][0] < 0
            wide |= any(sub.dim > 1 for _, sub in filt.steps)
    assert positives > 40
    assert many_steps and negative and wide
    assert {None, "subspaces do not sum directly to the full space",
            "weight classes are not pairwise distinct modulo the annihilator"} <= generic_seen
    assert any(m and m.startswith("filtration mismatch") for m in generic_seen)
    assert {None, "subspaces do not sum directly to the full space",
            "weight classes are not pairwise distinct modulo the annihilator"} <= seen
    assert any(m and m.startswith("filtration mismatch") for m in seen)


def test_verdict_monotonic_along_faces():
    for c in random_cones(seed=201, count=120, ranks=(2, 3)):
        if decide_tangent_locally_free(c).verdict:
            for f in c.faces():
                assert decide_tangent_locally_free(f).verdict, (c.generators, f.generators)


def test_brute_force_oracle_agreement_named():
    assert brute_force_locally_free(Cone([(1, 0), (0, 1)], 2))
    assert not brute_force_locally_free(Cone([(1, 0), (1, 2)], 2))
    assert not brute_force_locally_free(
        Cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3))
    assert brute_force_locally_free(Cone.zero(2))
    assert brute_force_locally_free(Cone([(1, 2)], 2))


def test_fan_decision_p112():
    fan = fan_from_generators(
        [[(1, 0), (0, 1)], [(0, 1), (-1, -2)], [(-1, -2), (1, 0)]], 2)
    per_cone = decide_tangent_locally_free_on_fan(fan)
    assert not all(r.verdict for _, r in per_cone)
    failing = [c.generators for c, r in per_cone if not r.verdict]
    assert failing == [((-1, -2), (1, 0))]


def test_fan_decision_covers_every_cone():
    fan = fan_from_generators([[(1, 0), (0, 1)]], 2)
    per_cone = decide_tangent_locally_free_on_fan(fan)
    assert all(r.verdict for _, r in per_cone)
    assert len(per_cone) == len(fan.cones) == 4


def test_fan_of_rays_always_locally_free():
    fan = validate_fan([Cone([(1, 2)], 2), Cone([(-1, 0)], 2), Cone([(3, -1)], 2)], 2)
    per_cone = decide_tangent_locally_free_on_fan(fan)
    assert all(r.verdict for _, r in per_cone)


def test_split_record_matches_the_deciders_own_splits(monkeypatch):
    """The split basis read from the double description is the one a loop of its own finds.

    About 40% of the inputs get a non-extreme generator, the sum of two
    drawn ones.  Such a cone keeps its constructor's description, with only
    the split record redone over its own rays, so no input runs a second
    double description.  A cone on independent generators runs none: the
    decider reads only the split chain it was built from.
    """
    calls = []
    original = cones._double_description

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cones, "_double_description", counted)
    rng = random.Random(2111)
    outcomes, redone, lazy = {}, 0, 0
    for n in range(1, 7):
        for bound in range(1, 10):
            for _ in range(75):
                gens = [[rng.randint(-bound, bound) for _ in range(n)]
                        for _ in range(rng.randint(1, n + 2))]
                if len(gens) > 1 and rng.random() < 0.4:
                    a, b = rng.sample(gens, 2)
                    gens.insert(rng.randint(0, len(gens)), [x + y for x, y in zip(a, b)])
                calls.clear()
                try:
                    cone = Cone(gens, n)
                except NotStronglyConvexError:
                    continue
                ours = freeness_to_document(decide_tangent_locally_free(cone))
                distinct = {primitive(g) for g in gens if any(g)}
                redundant = len(distinct) > len(cone.generators)
                assert len(calls) == (fraction_rank(list(distinct)) < len(distinct))
                lazy += not calls
                # a cone with more rays than the rank fails before reading the record
                redone += redundant and len(cone.generators) <= n
                assert ours == freeness_to_document(decide_by_own_splits(cone))
                kind = ours.get("failure", "free").split(" for ")[0]
                outcomes[kind] = outcomes.get(kind, 0) + 1
    assert redone >= 800 and lazy >= 1500
    assert min(outcomes.values()) >= 400 and len(outcomes) == 3
