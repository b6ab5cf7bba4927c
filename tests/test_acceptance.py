"""Acceptance suite: the release gate for the whole package.

Each test covers one numbered criterion and prints a single pass/fail
line, so a full run reads as a checklist.  Tolerances are zero
throughout: every check is exact arithmetic on exact objects.
"""

import json
import random
import time

import pytest

from oracles import brute_force_locally_free
from toricfree.cli import main
from toricfree.cones import Cone, NotStronglyConvexError, dual_cone
from toricfree.corpus import default_config, named_examples, sample_cones
from toricfree.fans import Fan
from toricfree.klyachko import (
    decide_tangent_locally_free,
    sections_dimension,
    tangent_family,
    verify_certificate,
)
from toricfree.lattice import (
    determinant,
    hermite_normal_form,
    mat_mul,
    mat_vec,
    primitive,
    smith_normal_form,
)
from toricfree.serialize import (
    cone_to_document,
    fan_to_document,
    parse_geometry_document,
    recheck_report,
)
from toricfree.smoothness import is_smooth_cone
from toricfree.verifier import check_zariski_lipman

SWEEP_SEEDS = {2: 1021, 3: 1031, 4: 1041}
SWEEP_SIZE = 5000


def report_line(capsys, number, label, ok, detail):
    with capsys.disabled():
        print(f"acceptance criterion {number} ({label}): "
              f"{'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def sweep_records():
    """One shared sweep: 5000 cones per rank at bound 5, fixed seeds."""
    start = time.perf_counter()
    records = []
    for rank in (2, 3, 4):
        cfg = default_config(rank, seed=SWEEP_SEEDS[rank], bound=5)
        for cone in sample_cones(cfg, SWEEP_SIZE):
            records.append(check_zariski_lipman(cone))
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_1_equivalence_sweep(capsys, sweep_records):
    records, elapsed = sweep_records
    named = []
    for ex in named_examples():
        for cone in ex.geometry.cones if isinstance(ex.geometry, Fan) else (ex.geometry,):
            named.append(check_zariski_lipman(cone))
    disagreements = [r for r in records + named if not r.agree]
    total = len(records) + len(named)
    ok = not disagreements and len(records) == 3 * SWEEP_SIZE and elapsed < 120.0
    report_line(capsys, 1, "equivalence sweep", ok,
                f"{len(records)} random + {len(named)} named cones, "
                f"{total - len(disagreements)}/{total} agree, {elapsed:.1f}s")
    assert len(records) == 3 * SWEEP_SIZE
    assert not disagreements, disagreements[:3]
    assert elapsed < 120.0


def test_criterion_2_named_regression_table(capsys):
    mismatches = []
    for ex in named_examples():
        cones = ex.geometry.cones if isinstance(ex.geometry, Fan) else (ex.geometry,)
        smooth = all(is_smooth_cone(c).verdict for c in cones)
        free = all(decide_tangent_locally_free(c).verdict for c in cones)
        if (smooth, free) != (ex.smooth, ex.locally_free):
            mismatches.append((ex.name, smooth, free, ex.smooth, ex.locally_free))
    ok = not mismatches
    report_line(capsys, 2, "named regression table", ok,
                f"{len(named_examples())} examples, {len(mismatches)} mismatches")
    assert not mismatches, mismatches


def test_criterion_3_certificate_soundness(capsys, sweep_records):
    records, _ = sweep_records
    checked = 0
    bad = 0
    for record in records:
        rep = record.locally_free
        if not rep.verdict:
            continue
        checked += 1
        cone = record.cone
        if rep.certificate is None or not verify_certificate(
                cone, tangent_family(cone), rep.certificate):
            bad += 1
    ok = checked >= 1000 and bad == 0
    report_line(capsys, 3, "certificate soundness", ok,
                f"{checked} certificates re-verified, {bad} failures")
    assert checked >= 1000
    assert bad == 0


def test_criterion_4_brute_force_oracle(capsys):
    rng = random.Random(740)
    seen = set()
    disagreements = []
    attempts = 0
    while len(seen) < 500 and attempts < 200_000:
        attempts += 1
        rank = rng.choice([2, 3])
        k = rng.randint(1, rank + 2)
        gens = [[rng.randint(0, 4) for _ in range(rank)] for _ in range(k)]
        if any(all(c == 0 for c in g) for g in gens):
            continue
        cone = Cone(gens, rank)  # first-orthant cones are strongly convex
        key = (cone.rank, cone.generators)
        if key in seen:
            continue
        seen.add(key)
        if brute_force_locally_free(cone) != decide_tangent_locally_free(cone).verdict:
            disagreements.append(cone.generators)
    ok = len(seen) >= 500 and not disagreements
    report_line(capsys, 4, "brute-force oracle", ok,
                f"{len(seen)} distinct cones of rank <= 3, "
                f"{len(disagreements)} disagreements")
    assert len(seen) >= 500
    assert not disagreements, disagreements[:3]


def is_unimodular(u):
    return abs(determinant(u)) == 1


def hnf_shape_ok(h):
    pivots = []
    for row in h:
        cols = [j for j, x in enumerate(row) if x != 0]
        if not cols:
            pivots.append(None)
            continue
        p = cols[0]
        if row[p] <= 0:
            return False
        if pivots and pivots[-1] is None:
            return False  # nonzero row below a zero row
        if pivots and pivots[-1] is not None and p <= pivots[-1]:
            return False
        pivots.append(p)
    for i, p in enumerate(pivots):
        if p is None:
            continue
        for k in range(i):
            if not 0 <= h[k][p] < h[i][p]:
                return False
    return True


def test_criterion_5_lattice_identities(capsys):
    rng = random.Random(55)
    failures = 0
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        h, u = hermite_normal_form(a)
        if h != mat_mul(u, a) or not is_unimodular(u) or not hnf_shape_ok(h):
            failures += 1
            continue
        d, su, sv = smith_normal_form(a)
        if d != mat_mul(mat_mul(su, a), sv) or not is_unimodular(su) \
                or not is_unimodular(sv):
            failures += 1
            continue
        diag = [d[i][i] for i in range(min(rows, cols))]
        off_diag_zero = all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        chain_ok = all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1) if diag[i])
        zeros_last = all(diag[i] == 0 or i == 0 or diag[i - 1] != 0
                         for i in range(len(diag)))
        det_ok = True
        if rows == cols:
            prod = 1
            for x in diag:
                prod *= x
            det_ok = abs(determinant(a)) == abs(prod)
        if not (off_diag_zero and chain_ok and zeros_last and det_ok):
            failures += 1
    ok = failures == 0
    report_line(capsys, 5, "lattice normal-form identities", ok,
                f"1000 matrices up to 6x6, {failures} failures")
    assert failures == 0


def random_strongly_convex(rng, ranks=(2, 3, 4), bound=5):
    while True:
        n = rng.choice(ranks)
        k = rng.randint(1, n + 2)
        gens = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
        if any(all(c == 0 for c in g) for g in gens):
            continue
        try:
            return Cone(gens, n)
        except NotStronglyConvexError:
            continue


def test_criterion_6_duality_involution(capsys):
    rng = random.Random(66)
    failures = 0
    for _ in range(1000):
        cone = random_strongly_convex(rng)
        if dual_cone(dual_cone(cone)) != cone:
            failures += 1
    ok = failures == 0
    report_line(capsys, 6, "duality involution", ok,
                f"1000 cones of ranks 2-4, {failures} failures")
    assert failures == 0


def random_unimodular(rng, n, depth=8):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, depth)):
        kind = rng.choice(["add", "swap", "neg"])
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == "add" and i != j:
            step = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            step[i][j] = rng.randint(-3, 3)
            m = mat_mul(step, m)
        elif kind == "swap" and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return m


def test_criterion_7_unimodular_invariance(capsys):
    rng = random.Random(77)
    failures = 0
    for _ in range(200):
        cone = random_strongly_convex(rng, ranks=(2, 3))
        g = random_unimodular(rng, cone.rank)
        if cone.rays():
            image = Cone([mat_vec(g, list(u)) for u in cone.rays()], cone.rank)
        else:
            image = Cone.zero(cone.rank)
        same_smooth = (is_smooth_cone(cone).verdict == is_smooth_cone(image).verdict)
        same_free = (decide_tangent_locally_free(cone).verdict
                     == decide_tangent_locally_free(image).verdict)
        if not (same_smooth and same_free):
            failures += 1
    ok = failures == 0
    report_line(capsys, 7, "unimodular invariance", ok,
                f"200 cone/automorphism pairs, {failures} failures")
    assert failures == 0


def test_criterion_8_sections_formula(capsys):
    rng = random.Random(88)
    failures = 0
    for _ in range(1000):
        n = rng.choice([2, 3, 4])
        while True:
            u = [rng.randint(-6, 6) for _ in range(n)]
            if any(u):
                break
        u = primitive(u)
        m = tuple(rng.randint(-8, 8) for _ in range(n))
        pairing = sum(a * b for a, b in zip(m, u))
        expected = n if pairing >= 0 else (1 if pairing == -1 else 0)
        if sections_dimension(u, m) != expected:
            failures += 1
    ok = failures == 0
    report_line(capsys, 8, "sections formula", ok,
                f"1000 ray/weight pairs, {failures} failures")
    assert failures == 0


def test_criterion_9_cli_contract(capsys, tmp_path):
    problems = []
    for ex in named_examples():
        geometry = ex.geometry
        doc = fan_to_document(geometry) if isinstance(geometry, Fan) \
            else cone_to_document(geometry)
        if parse_geometry_document(json.loads(json.dumps(doc))) != geometry:
            problems.append(f"{ex.name}: document round trip changed the geometry")
            continue
        path = tmp_path / f"{ex.name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

        code = main(["smooth", str(path)])
        out = capsys.readouterr().out
        if code != (0 if ex.smooth else 1):
            problems.append(f"{ex.name}: smooth exit {code}")
        if json.loads(out)["verdict"] is not ex.smooth:
            problems.append(f"{ex.name}: smooth verdict mismatch")

        code = main(["locally-free", str(path)])
        out = capsys.readouterr().out
        if code != (0 if ex.locally_free else 1):
            problems.append(f"{ex.name}: locally-free exit {code}")
        free_doc = json.loads(out)
        if free_doc["verdict"] is not ex.locally_free:
            problems.append(f"{ex.name}: locally-free verdict mismatch")
        if recheck_report(free_doc):
            problems.append(f"{ex.name}: fresh report failed recheck")

        report_path = tmp_path / f"{ex.name}-report.json"
        report_path.write_text(json.dumps(free_doc), encoding="utf-8")
        code = main(["recheck", str(report_path)])
        capsys.readouterr()
        if code != 0:
            problems.append(f"{ex.name}: recheck exit {code}")

        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        if code != 0 or json.loads(out)["verdict"] is not True:
            problems.append(f"{ex.name}: verify disagreement")
    ok = not problems
    report_line(capsys, 9, "CLI contract", ok,
                f"{len(named_examples())} named inputs, {len(problems)} problems")
    assert not problems, problems
