"""Deciding a fan from its top cones.

Each decider decides a fan's top cones and gives every closure cone under
a positive top the verdict the top implies: a face of a smooth cone is
smooth, and a face of a cone on which the tangent sheaf is locally free
takes the top's witnesses through its own ``weight_class``, with the usual
certificate and self-check.  The reports must be the ones the per-cone
deciders give, byte for byte, on every closure cone.
"""

import hashlib
import itertools
import json
import random
from functools import cmp_to_key
from math import gcd

import pytest

import toricfree.klyachko as klyachko
import toricfree.smoothness as smoothness
from toricfree.cli import main
from toricfree.cones import Cone
from toricfree.fans import Fan
from toricfree.klyachko import decide_tangent_locally_free, decide_tangent_locally_free_on_fan
from toricfree.serialize import parse_fan_document
from toricfree.smoothness import SmoothnessReport, decide_smooth_on_fan, is_smooth_cone
from toricfree.verifier import check_zariski_lipman, check_zariski_lipman_on_fan


def _angle_order(a, b):
    """Counter-clockwise order of planar directions from +e1, by exact cross products."""
    upper_a = a[1] > 0 or (a[1] == 0 and a[0] > 0)
    upper_b = b[1] > 0 or (b[1] == 0 and b[0] > 0)
    if upper_a != upper_b:
        return -1 if upper_a else 1
    cross = a[0] * b[1] - a[1] * b[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def planar_product_fan(seed, k=12, bound=7):
    """A complete planar fan on k seeded primitive rays, the axes among them, times P^1."""
    rng = random.Random(seed)
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    while len(rays) < k:
        x, y = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if g := gcd(x, y):
            rays.add((x // g, y // g))
    rays = sorted(rays, key=cmp_to_key(_angle_order))
    cones = [[[a, b, 0], [c, d, 0], [0, 0, sign]]
             for (a, b), (c, d) in zip(rays, rays[1:] + rays[:1]) for sign in (1, -1)]
    return {"rank": 3, "cones": cones}


def cube_fan():
    """The complete fan over the faces of [-1, 1]^3: six cones of four dependent rays."""
    v = list(itertools.product((-1, 1), repeat=3))
    return {"rank": 3, "cones": [[list(p) for p in v if p[i] == s]
                                 for i in range(3) for s in (-1, 1)]}


def cross_polytope_fan(n):
    """The complete fan over the faces of the rank-n cross-polytope: its 2^n orthants."""
    return {"rank": n, "cones": [[[s[i] * (i == j) for j in range(n)] for i in range(n)]
                                 for s in itertools.product((1, -1), repeat=n)]}


def orthant_with_faces(n):
    """The rank-n orthant listed together with every one of its faces."""
    return {"rank": n, "cones": [[[int(i == j) for j in range(n)] for i in c]
                                 for k in range(n, -1, -1)
                                 for c in itertools.combinations(range(n), k)]}


FAN_DOCUMENTS = {
    "planar-1": planar_product_fan(1),
    "planar-2": planar_product_fan(2),
    "planar-3": planar_product_fan(3),
    "cube": cube_fan(),
    "cross-4": cross_polytope_fan(4),
    "orthant-6-faces": orthant_with_faces(6),
}

# SHA-256 over the exit codes and stdout of verify, smooth and locally-free on
# FAN_DOCUMENTS, computed when every closure cone was still decided on its own.
GOLDEN_FAN_COMMANDS = "5afe14ad37baf8c583c3d785160ab695f4ce82ced09f9c4200fe1524e355fe10"


def test_fan_command_reports_match_per_cone_decisions(capsys, tmp_path):
    digest = hashlib.sha256()
    path = tmp_path / "fan.json"
    for doc in FAN_DOCUMENTS.values():
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("verify", "smooth", "locally-free"):
            code = main([command, str(path)])
            out, err = capsys.readouterr()
            assert err == ""
            digest.update(f"{command} {code}\n{out}".encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_FAN_COMMANDS


def mixed_fan():
    """A smooth and a non-smooth top cone sharing the smooth face cone(e1, e2).

    The second top's rays have determinant -2, and it lies in x3 <= 0, the
    first in x3 >= 0, so the two meet in that face.
    """
    smooth_top = Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    singular_top = Cone([(1, 0, 0), (0, 1, 0), (1, 1, -2)], 3)
    return Fan([singular_top, smooth_top], 3)


FANS = {name: parse_fan_document(doc) for name, doc in FAN_DOCUMENTS.items()}
FANS["mixed"] = mixed_fan()


@pytest.mark.parametrize("name", sorted(FANS))
def test_fan_passes_match_per_cone_decisions(name):
    fan = FANS[name]
    assert decide_smooth_on_fan(fan) == tuple((c, is_smooth_cone(c)) for c in fan.cones)
    direct = tuple((c, decide_tangent_locally_free(c)) for c in fan.cones)
    assert decide_tangent_locally_free_on_fan(fan) == direct
    assert check_zariski_lipman_on_fan(fan) == tuple(map(check_zariski_lipman, fan.cones))


def counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` from here on; returns the list of cones passed."""
    seen, original = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda cone: seen.append(cone) or original(cone))
    return seen


@pytest.mark.parametrize("name, decided", [
    ("cross-4", 16),          # every face lies under one of the 16 smooth orthants
    ("orthant-6-faces", 1),   # every listed cone is a face of the orthant
    ("cube", 27),             # no top is smooth, so every closure cone is decided
    ("mixed", 5),             # two tops, and the three faces of the singular top alone
])
def test_only_cones_under_no_positive_top_are_decided(monkeypatch, name, decided):
    fan = FANS[name]
    smooth_calls = counting(monkeypatch, smoothness, "is_smooth_cone")
    free_calls = counting(monkeypatch, klyachko, "decide_tangent_locally_free")
    decide_smooth_on_fan(fan)
    decide_tangent_locally_free_on_fan(fan)
    assert len(smooth_calls) == len(free_calls) == decided
    assert set(fan.maximal_cones()) <= set(smooth_calls) == set(free_calls)


def test_a_face_under_a_smooth_and_a_singular_top():
    fan = FANS["mixed"]
    face = Cone([(1, 0, 0), (0, 1, 0)], 3)
    smooth = dict(decide_smooth_on_fan(fan))
    free = dict(decide_tangent_locally_free_on_fan(fan))
    singular_top = Cone([(1, 0, 0), (0, 1, 0), (1, 1, -2)], 3)
    assert not smooth[singular_top].verdict and not free[singular_top].verdict
    assert smooth[face] == SmoothnessReport(True) == is_smooth_cone(face)
    assert free[face] == decide_tangent_locally_free(face)
    assert free[face].witnesses == {(0, 1, 0): (0, 1, 0), (1, 0, 0): (1, 0, 0)}
    records = check_zariski_lipman_on_fan(fan)
    assert all(r.agree for r in records) and len(records) == len(fan.cones) == 12


def test_each_fan_pass_inherits_only_from_its_own_decider(monkeypatch):
    expected = {name: (decide_smooth_on_fan(fan), decide_tangent_locally_free_on_fan(fan))
                for name, fan in FANS.items()}

    def refuse(cone):
        raise AssertionError("one decider's fan pass called the other decider")

    with monkeypatch.context() as patch:
        patch.setattr(klyachko, "decide_tangent_locally_free", refuse)
        for name, fan in FANS.items():
            assert decide_smooth_on_fan(fan) == expected[name][0]
    monkeypatch.setattr(smoothness, "is_smooth_cone", refuse)
    for name, fan in FANS.items():
        assert decide_tangent_locally_free_on_fan(fan) == expected[name][1]


def test_inherited_certificates_are_self_checked(monkeypatch):
    fan = FANS["orthant-6-faces"]
    original = klyachko.diagnose_certificate
    # refuse every certificate but the top's, so only the inherited ones fail
    monkeypatch.setattr(klyachko, "diagnose_certificate", lambda cone, family, cert: (
        original(cone, family, cert) if cone.dim == 6 else "refused"))
    with pytest.raises(AssertionError, match="emitted certificate failed verification: refused"):
        decide_tangent_locally_free_on_fan(fan)
