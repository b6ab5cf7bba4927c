"""JSON round-trips and report rechecking."""

import json
import random

import pytest

from timing import deadline
from toricfree.cones import Cone
from toricfree.corpus import named_examples
from toricfree.fans import Fan
from toricfree.klyachko import decide_tangent_locally_free, tangent_family, verify_certificate
from toricfree.serialize import (
    SAFE_INT,
    certificate_to_document,
    cone_to_document,
    decode_int,
    decode_vector,
    encode_int,
    fan_to_document,
    locally_free_report,
    parse_certificate_document,
    parse_cone_document,
    parse_fan_document,
    parse_geometry_document,
    recheck_report,
    smooth_report,
    sweep_report,
    verify_report,
)
from toricfree.verifier import sweep


def test_int_codec_round_trip():
    for v in (0, 1, -1, SAFE_INT, -SAFE_INT):
        assert encode_int(v) == v
        assert decode_int(encode_int(v)) == v
    for v in (SAFE_INT + 1, -(SAFE_INT + 1), 10 ** 40):
        encoded = encode_int(v)
        assert isinstance(encoded, str)
        assert decode_int(encoded) == v
    # the encoded form must survive a JSON round trip exactly
    big = 2 ** 80 + 7
    assert decode_int(json.loads(json.dumps(encode_int(big)))) == big


def test_int_codec_rejections():
    with pytest.raises(ValueError):
        decode_int(True)
    with pytest.raises(ValueError):
        decode_int(1.5)
    with pytest.raises(ValueError):
        decode_int("12px")
    # int() is lenient; the codec takes ASCII decimal digits with an optional '-' only
    for lenient in (" 12 ", "1_000", "+5", "\u0661\u0662"):
        with pytest.raises(ValueError, match="expected a decimal integer string"):
            decode_int(lenient)
    # past Python's digit limit for int(): name the count, do not echo the input
    with pytest.raises(ValueError, match="5000-digit integer string is over the limit") as exc:
        decode_int("7" * 5000)
    assert len(str(exc.value)) < 200
    # a long string the codec rejects outright is not counted against the digit limit
    for long_lenient in (" " + "7" * 5000, "\u0661" * 5000, "+" + "7" * 5000):
        with pytest.raises(ValueError, match="expected a decimal integer string") as exc:
            decode_int(long_lenient)
        assert len(str(exc.value)) < 200
    with pytest.raises(ValueError, match=r"'12px12px.*\.\.\. \(4000 characters\)") as exc:
        decode_int("12px" * 1000)
    assert len(str(exc.value)) < 200
    with pytest.raises(ValueError):
        decode_vector("not a list")
    with pytest.raises(ValueError):
        decode_vector([1, 2, 3], rank=2)
    # a huge vector or non-vector is named by an excerpt and its length, not echoed
    with pytest.raises(ValueError, match=r"has length 200000, expected 3") as exc:
        decode_vector([1] * 200_000, rank=3)
    assert len(str(exc.value)) < 200
    with pytest.raises(ValueError, match=r"expected a list of integers, got \{") as exc:
        decode_vector({str(i): i for i in range(50_000)})
    assert len(str(exc.value)) < 200
    with pytest.raises(ValueError, match=r"expected an integer, got \[") as exc:
        decode_vector([1, list(range(50_000))])
    assert len(str(exc.value)) < 200
    # a list that is not all int is read entry by entry, with decode_int's messages
    assert decode_vector([1, "12"]) == (1, 12)
    for bad, shown in (([1, True], "True"), ([2.0, 1], "2.0"), ([[1], 2], r"\[1\]")):
        with pytest.raises(ValueError, match=f"^expected an integer, got {shown}$"):
            decode_vector(bad)


def test_cone_document_round_trip_on_corpus():
    for ex in named_examples():
        if isinstance(ex.geometry, Cone):
            doc = cone_to_document(ex.geometry)
            again = parse_cone_document(json.loads(json.dumps(doc)))
            assert again == ex.geometry


def test_fan_document_round_trip_on_corpus():
    for ex in named_examples():
        if isinstance(ex.geometry, Fan):
            doc = fan_to_document(ex.geometry)
            again = parse_fan_document(json.loads(json.dumps(doc)))
            assert again == ex.geometry


def test_geometry_dispatch():
    cone_doc = {"rank": 2, "generators": [[1, 0]]}
    fan_doc = {"rank": 2, "cones": [[[1, 0]]]}
    assert isinstance(parse_geometry_document(cone_doc), Cone)
    assert isinstance(parse_geometry_document(fan_doc), Fan)
    with pytest.raises(ValueError):
        parse_geometry_document({"rank": 2})
    with pytest.raises(ValueError):
        parse_geometry_document([1, 2])
    # neither key wins: a fan read from such a document would drop the generators
    with pytest.raises(ValueError, match=r"both a cone \('generators'\) and a fan \('cones'\)"):
        parse_geometry_document({**cone_doc, **fan_doc})


def test_malformed_documents():
    with pytest.raises(ValueError):
        parse_cone_document({"generators": [[1, 0]]})
    with pytest.raises(ValueError):
        parse_cone_document({"rank": 2, "generators": "eh"})
    with pytest.raises(ValueError):
        parse_cone_document({"rank": 2, "generators": [[1, 0, 0]]})
    with pytest.raises(ValueError):
        parse_fan_document({"rank": 2, "cones": [[[1, 0]], "eh"]})


def test_big_coordinate_round_trip():
    big = 2 ** 60
    c = Cone([(big, 1), (1, 0)], 2)
    doc = json.loads(json.dumps(cone_to_document(c)))
    gens = doc["generators"]
    assert any(isinstance(coord, str) for g in gens for coord in g)
    assert parse_cone_document(doc) == c


def test_certificate_round_trip():
    c = Cone([(1, 0), (0, 1)], 2)
    cert = decide_tangent_locally_free(c).certificate
    doc = json.loads(json.dumps(certificate_to_document(cert)))
    again = parse_certificate_document(doc, c)
    assert again == cert
    assert verify_certificate(c, tangent_family(c), again)


def test_report_documents_are_json_serializable():
    for ex in named_examples():
        for builder in (smooth_report, locally_free_report, verify_report):
            doc = builder(ex.geometry)
            parsed = json.loads(json.dumps(doc))
            assert parsed["verdict"] == (ex.smooth if builder is smooth_report
                                         else ex.locally_free if builder is locally_free_report
                                         else True)
            assert parsed["tool"]["name"] == "toricfree"


def test_sweep_report_fields():
    summary = sweep([Cone([(1, 0), (0, 1)], 2), Cone([(1, 0), (1, 2)], 2)])
    doc = json.loads(json.dumps(sweep_report(summary, {"seed": 1})))
    assert doc["count"] == 2
    assert doc["agreements"] == 2
    assert doc["disagreements"] == []
    assert doc["smooth_count"] == 1
    assert doc["smooth_rate"] == 0.5
    assert doc["config"] == {"seed": 1}


def test_recheck_accepts_fresh_reports():
    for ex in named_examples():
        for builder in (locally_free_report, verify_report):
            doc = json.loads(json.dumps(builder(ex.geometry)))
            assert recheck_report(doc) == []


def test_recheck_flags_missing_certificate():
    doc = json.loads(json.dumps(locally_free_report(Cone([(1, 0), (0, 1)], 2))))
    del doc["entries"][0]["locally_free"]["certificate"]
    failures = recheck_report(doc)
    assert len(failures) == 1
    assert "without certificate" in failures[0]


def test_recheck_flags_tampered_certificate():
    doc = json.loads(json.dumps(locally_free_report(Cone([(1, 0), (0, 1)], 2))))
    cert = doc["entries"][0]["locally_free"]["certificate"]
    cert["entries"][0]["subspace_basis"] = [[1, 1]]
    failures = recheck_report(doc)
    assert len(failures) == 1


def test_recheck_bounds_certificate_rows_before_elimination():
    # 120 dense rows on top of the 119 other lines of a rank-120 orthant's
    # certificate: eliminating them took seconds, counting them takes none
    n = 120
    orthant = Cone([[int(i == j) for j in range(n)] for i in range(n)], n)
    doc = json.loads(json.dumps(locally_free_report(orthant)))
    rng = random.Random(1)
    cert = doc["entries"][0]["locally_free"]["certificate"]
    cert["entries"][0]["subspace_basis"] = [
        [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(n)]
    with deadline(3), pytest.raises(ValueError, match="239 subspace_basis rows.*rank of 120"):
        recheck_report(doc)


def test_recheck_flags_flipped_verdict():
    # claim freeness on a singular cone: parses fine, fails verification
    doc = json.loads(json.dumps(locally_free_report(Cone([(1, 0), (0, 1)], 2))))
    doc["entries"][0]["cone"]["generators"] = [[1, 0], [1, 2]]
    failures = recheck_report(doc)
    assert len(failures) == 1


def test_recheck_ignores_false_verdicts():
    doc = json.loads(json.dumps(locally_free_report(Cone([(1, 0), (1, 2)], 2))))
    assert recheck_report(doc) == []


def test_recheck_malformed():
    with pytest.raises(ValueError):
        recheck_report({"kind": "locally-free"})
    with pytest.raises(ValueError):
        recheck_report({"entries": [{"locally_free": {"verdict": True}}]})
    # a verdict that is not a JSON boolean is neither a claim nor a denial
    cone_doc = {"rank": 2, "generators": [[1, 0], [0, 1]]}
    for verdict in (0, None, [], "false"):
        entry = {"cone": cone_doc, "locally_free": {"verdict": verdict}}
        with pytest.raises(ValueError, match="entry 0"):
            recheck_report({"entries": [entry]})
    entry = {"cone": cone_doc, "locally_free": {"verdict": list(range(50_000))}}
    with pytest.raises(ValueError, match=r"characters\)") as exc:
        recheck_report({"entries": [entry]})
    assert len(str(exc.value)) < 200
