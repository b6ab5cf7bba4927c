"""Agreement of the two deciders, pointwise and in bulk."""

import json
import random

import toricfree.klyachko as klyachko
import toricfree.verifier as verifier
from toricfree.cli import main
from toricfree.cones import Cone, NotStronglyConvexError
from toricfree.corpus import default_config, named_examples, sample_cones
from toricfree.fans import Fan
from toricfree.klyachko import LocalFreenessReport
from toricfree.lattice import mat_mul, mat_vec
from toricfree.serialize import (
    agreement_to_entry,
    cone_to_document,
    parse_cone_document,
    parse_fan_document,
    sweep_report,
)
from toricfree.smoothness import is_smooth_cone
from toricfree.verifier import check_zariski_lipman, sweep


def test_named_examples_agree_and_match_expectations():
    for ex in named_examples():
        cones = ex.geometry.cones if isinstance(ex.geometry, Fan) else (ex.geometry,)
        for cone in cones:
            record = check_zariski_lipman(cone)
            assert record.agree, ex.name
        assert ex.smooth == ex.locally_free  # sanity of the table itself


def test_agreement_on_random_corpus():
    for rank in (2, 3, 4):
        summary = sweep(sample_cones(default_config(rank, seed=10 + rank, bound=5), 400))
        assert summary.count == 400
        assert summary.all_agree
        assert summary.agreements == 400
        assert summary.disagreements == ()
        # both verdicts occur; a one-sided corpus would test nothing
        assert 0 < summary.smooth_count < 400
        assert summary.elapsed_seconds > 0


def test_sweep_summary_counts():
    cones = [Cone([(1, 0), (0, 1)], 2), Cone([(1, 0), (1, 2)], 2), Cone.zero(2)]
    summary = sweep(cones)
    assert summary.count == 3
    assert summary.agreements == 3
    assert summary.smooth_count == 2
    assert summary.all_agree


def random_unimodular(rng, n, depth=8):
    """Product of elementary integer matrices; always determinant +-1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, depth)):
        kind = rng.choice(["add", "swap", "neg"])
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == "add" and i != j:
            coeff = rng.randint(-3, 3)
            step = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            step[i][j] = coeff
            m = mat_mul(step, m)
        elif kind == "swap" and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == "neg":
            m[i] = [-x for x in m[i]]
    return m


def test_verdicts_invariant_under_lattice_automorphisms():
    rng = random.Random(99)
    done = 0
    while done < 120:
        n = rng.choice([2, 3])
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        try:
            cone = Cone(gens, n)
        except (NotStronglyConvexError, ValueError):
            continue
        g = random_unimodular(rng, n)
        image = Cone([mat_vec(g, list(u)) for u in cone.rays()], n) \
            if cone.rays() else Cone.zero(n)
        before = check_zariski_lipman(cone)
        after = check_zariski_lipman(image)
        assert before.agree and after.agree
        assert before.smooth.verdict == after.smooth.verdict
        assert before.locally_free.verdict == after.locally_free.verdict
        done += 1


def test_disagreements_would_be_collected_not_raised():
    # sweep never raises on verdicts; structure of the summary is stable
    summary = sweep([])
    assert summary.count == 0 and summary.all_agree
    assert summary.disagreements == ()


def flipped_on(chosen, decide):
    """``decide``, with the verdict turned over on each cone that ``chosen`` accepts."""
    def flip(cone):
        report = decide(cone)
        if not chosen(cone):
            return report
        return LocalFreenessReport(not report.verdict, failure="flipped")
    return flip


def test_sweep_collects_and_sorts_the_disagreements(monkeypatch):
    cones = [Cone([(1, 0), (1, 2)], 2), Cone([(1, 0), (0, 1)], 2), Cone.zero(2),
             Cone([(1, 3)], 2), Cone([(2, 1), (-1, 3)], 2)]
    chosen = {cones[0], cones[1], cones[3]}
    # the sweep's per-cone check reads the decider from verifier's namespace
    monkeypatch.setattr(verifier, "decide_tangent_locally_free",
                        flipped_on(chosen.__contains__, klyachko.decide_tangent_locally_free))
    summary = sweep(cones)
    expected = tuple(check_zariski_lipman(c) for c in (cones[3], cones[1], cones[0]))
    assert [r.cone for r in expected] == sorted(chosen, key=Cone.sort_key)
    assert summary.disagreements == expected
    assert not any(r.agree for r in expected)
    assert (summary.count, summary.agreements, summary.smooth_count) == (5, 2, 3)
    assert not summary.all_agree
    doc = sweep_report(summary, {})
    assert (doc["count"], doc["agreements"], doc["smooth_count"]) == (5, 2, 3)
    assert doc["disagreements"] == [agreement_to_entry(r) for r in expected]
    assert [e["agree"] for e in doc["disagreements"]] == [False] * 3


def test_sweep_command_exits_1_on_a_disagreement(monkeypatch, capsys):
    # every smooth cone is reported not locally free, so each one disagrees
    monkeypatch.setattr(verifier, "decide_tangent_locally_free", flipped_on(
        lambda cone: is_smooth_cone(cone).verdict, klyachko.decide_tangent_locally_free))
    assert main(["sweep", "--rank", "2", "--count", "40", "--seed", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    found = doc["disagreements"]
    assert 0 < doc["smooth_count"] == len(found) < doc["count"] == 40
    assert doc["agreements"] == doc["count"] - len(found)
    assert all(e["smooth"]["verdict"] and not e["locally_free"]["verdict"] and not e["agree"]
               for e in found)
    keys = [parse_cone_document(e["cone"]).sort_key() for e in found]
    assert keys == sorted(keys)


def test_verify_command_exits_1_on_a_disagreement(monkeypatch, capsys, tmp_path):
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({"rank": 2, "generators": [[1, 0], [0, 1]]}), encoding="utf-8")
    p2_doc = {"rank": 2, "cones": [[[1, 0], [0, 1]], [[0, 1], [-1, -1]], [[-1, -1], [1, 0]]]}
    p2 = tmp_path / "p2.json"
    p2.write_text(json.dumps(p2_doc), encoding="utf-8")
    assert main(["verify", str(plane)]) == main(["verify", str(p2)]) == 0
    capsys.readouterr()
    # one top cone of P^2 turns over: its faces lie under the other tops and inherit
    top = parse_fan_document(p2_doc).maximal_cones()[1]
    # the passes, lone cones among them, read the decider from klyachko's namespace
    with monkeypatch.context() as patch:
        patch.setattr(klyachko, "decide_tangent_locally_free",
                      flipped_on(lambda cone: True, klyachko.decide_tangent_locally_free))
        assert main(["verify", str(plane)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is False
    assert [(e["smooth"]["verdict"], e["locally_free"], e["agree"]) for e in doc["entries"]] == [
        (True, {"verdict": False, "failure": "flipped"}, False)]
    monkeypatch.setattr(klyachko, "decide_tangent_locally_free",
                        flipped_on(top.__eq__, klyachko.decide_tangent_locally_free))
    assert main(["verify", str(p2)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is False and len(doc["entries"]) == 7
    assert [e["cone"] for e in doc["entries"] if not e["agree"]] == [cone_to_document(top)]
