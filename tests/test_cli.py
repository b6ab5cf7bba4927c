"""CLI contract: exit codes, JSON output, error reporting."""

import collections
import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from timing import deadline
from toricfree.cli import _build_parser, _encode, main
from toricfree.cones import MAX_FACES
from toricfree.corpus import default_config, named_examples, sample_cones
from toricfree.fans import _MAX_CLOSURE_SIZE, Fan
from toricfree.serialize import (
    MAX_CONE_GENERATORS,
    MAX_FAN_CONES,
    MAX_RANK,
    cone_to_document,
    fan_to_document,
    parse_cone_document,
)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def orthant_file(tmp_path):
    return write_json(tmp_path, "orthant.json",
                      {"rank": 2, "generators": [[1, 0], [0, 1]]})


@pytest.fixture
def singular_file(tmp_path):
    return write_json(tmp_path, "a1.json",
                      {"rank": 2, "generators": [[1, 0], [1, 2]]})


@pytest.fixture
def line_file(tmp_path):
    return write_json(tmp_path, "line.json",
                      {"rank": 2, "generators": [[1, 2], [-1, -2]]})


@pytest.fixture
def fan_file(tmp_path):
    return write_json(tmp_path, "p112.json", {
        "rank": 2,
        "cones": [[[1, 0], [0, 1]], [[0, 1], [-1, -2]], [[-1, -2], [1, 0]]],
    })


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_smooth_affirmative(capsys, orthant_file):
    code, out, err = run_cli(capsys, "smooth", orthant_file)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["kind"] == "smooth"
    assert doc["tool"]["name"] == "toricfree"


def test_smooth_negative_with_reason(capsys, singular_file):
    code, out, _ = run_cli(capsys, "smooth", singular_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] is False
    assert doc["entries"][0]["smooth"]["reason"] == "invariant factor 2 exceeds 1"


def test_smooth_rejects_line(capsys, line_file):
    code, out, err = run_cli(capsys, "smooth", line_file)
    assert code == 2
    assert out == ""
    assert err.startswith("toricfree: error:")


def test_locally_free_witness_shape(capsys, orthant_file):
    code, out, _ = run_cli(capsys, "locally-free", orthant_file)
    assert code == 0
    doc = json.loads(out)
    entry = doc["entries"][0]["locally_free"]
    assert entry["witnesses"] == [
        {"ray": [0, 1], "weight": [0, 1]},
        {"ray": [1, 0], "weight": [1, 0]},
    ]
    assert entry["certificate"]["entries"]


def test_locally_free_failure_fields(capsys, singular_file):
    code, out, _ = run_cli(capsys, "locally-free", singular_file)
    assert code == 1
    entry = json.loads(out)["entries"][0]["locally_free"]
    assert entry["failure"] == "no integral dual weight for ray (1, 0)"
    assert entry["failing_ray"] == [1, 0]
    assert "certificate" not in entry


def test_verify_agrees_even_when_both_negative(capsys, singular_file):
    code, out, _ = run_cli(capsys, "verify", singular_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert all(e["agree"] for e in doc["entries"])


def test_verify_fan(capsys, fan_file):
    code, out, _ = run_cli(capsys, "verify", fan_file)
    assert code == 0
    doc = json.loads(out)
    # closure of three maximal cones: 3 + 3 rays + zero cone
    assert len(doc["entries"]) == 7


def test_locally_free_fan_negative(capsys, fan_file):
    code, out, _ = run_cli(capsys, "locally-free", fan_file)
    assert code == 1
    doc = json.loads(out)
    bad = [e for e in doc["entries"] if not e["locally_free"]["verdict"]]
    assert len(bad) == 1
    assert bad[0]["cone"]["generators"] == [[-1, -2], [1, 0]]


def test_sweep_and_exit_code(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--rank", "2", "--count", "40", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 40
    assert doc["agreements"] == 40
    assert doc["config"]["prng"] == "python-random-mt19937"
    assert doc["config"]["max_generators"] == 4


def test_sweep_rejects_bad_count(capsys):
    code, _, err = run_cli(capsys, "sweep", "--rank", "2", "--count", "0", "--seed", "3")
    assert code == 2
    assert "count" in err


def test_sections_flag_forms(capsys, orthant_file):
    code, out, _ = run_cli(capsys, "sections", orthant_file,
                           "--ray", "1,0", "--weight", "0,0")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run_cli(capsys, "sections", orthant_file,
                           "--ray=1,0", "--weight=-1,7")
    assert (code, out.strip()) == (0, "1")
    # unfolded flag with a leading minus sign must parse too
    code, out, _ = run_cli(capsys, "sections", orthant_file,
                           "--ray", "-1,0", "--weight", "1,3")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run_cli(capsys, "sections", orthant_file,
                           "--ray", "1,0", "--weight", "-2,5")
    assert (code, out.strip()) == (0, "0")


def test_sections_validation(capsys, orthant_file):
    code, _, err = run_cli(capsys, "sections", orthant_file,
                           "--ray", "2,4", "--weight", "0,0")
    assert code == 2 and "primitive" in err
    code, _, err = run_cli(capsys, "sections", orthant_file,
                           "--ray", "1,0,0", "--weight", "0,0")
    assert code == 2 and "length" in err
    code, _, err = run_cli(capsys, "sections", orthant_file,
                           "--ray", "1,x", "--weight", "0,0")
    assert code == 2


@pytest.mark.parametrize("flag, bad", [
    (["--ray", "\u0661,\u0660"], "\u0661"),  # Arabic-Indic digits, which int() reads as 1 and 0
    (["--ray", "1_0,0"], "1_0"),
    (["--ray", " 1,+0"], " 1"),
    (["--ray", "-1,3"], None),
    (["--ray=-1,3"], None),
], ids=["arabic-indic-digits", "underscore", "space-and-plus", "negative", "negative-folded"])
def test_sections_flags_parse_integers_like_documents(capsys, orthant_file, flag, bad):
    code, _, err = run_cli(capsys, "sections", orthant_file, *flag, "--weight", "0,0")
    if bad is None:
        assert code == 0
    else:
        assert code == 2 and repr(bad) in err


def test_generate_emits_parseable_lines(capsys):
    code, out, _ = run_cli(capsys, "generate", "--seed", "11", "--rank", "3",
                           "--count", "5")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 5
    for line in lines:
        cone = parse_cone_document(json.loads(line))
        assert cone.rank == 3
        assert cone.is_strongly_convex


def test_generate_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "generate", "--seed", "4", "--rank", "2", "--count", "8")
    _, second, _ = run_cli(capsys, "generate", "--seed", "4", "--rank", "2", "--count", "8")
    assert first == second


def test_recheck_round_trip(capsys, tmp_path, orthant_file):
    code, out, _ = run_cli(capsys, "locally-free", orthant_file)
    assert code == 0
    report_file = write_json(tmp_path, "report.json", json.loads(out))
    code, out, _ = run_cli(capsys, "recheck", report_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True and doc["failures"] == []


def test_recheck_catches_tampering(capsys, tmp_path, orthant_file):
    _, out, _ = run_cli(capsys, "locally-free", orthant_file)
    doc = json.loads(out)
    doc["entries"][0]["cone"]["generators"] = [[1, 0], [1, 2]]
    report_file = write_json(tmp_path, "tampered.json", doc)
    code, out, _ = run_cli(capsys, "recheck", report_file)
    assert code == 1
    assert json.loads(out)["failures"]


def test_recheck_rejects_a_zero_summand(capsys, tmp_path, orthant_file):
    _, out, _ = run_cli(capsys, "locally-free", orthant_file)
    doc = json.loads(out)
    cert = doc["entries"][0]["locally_free"]["certificate"]
    cert["entries"].append({"weight_class": [1, 1], "subspace_basis": []})
    code, out, _ = run_cli(capsys, "recheck", write_json(tmp_path, "zero.json", doc))
    assert code == 1
    assert json.loads(out)["failures"] == [
        "entry 0 (((0, 1), (1, 0))): zero subspace attached to class (1, 1)"]


def test_examples_listing(capsys):
    code, out, _ = run_cli(capsys, "examples")
    assert code == 0
    doc = json.loads(out)
    rows = {r["name"]: r for r in doc["examples"]}
    assert len(rows) == 15
    assert rows["P2"]["kind"] == "fan"
    assert rows["conifold"] == {"name": "conifold", "kind": "cone",
                                "smooth": False, "locally_free": False}


def test_error_paths(capsys, tmp_path):
    code, _, err = run_cli(capsys, "smooth", str(tmp_path / "missing.json"))
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "smooth", str(bad))
    assert code == 2
    schema = write_json(tmp_path, "schema.json", {"rank": 2})
    code, _, err = run_cli(capsys, "smooth", schema)
    assert code == 2 and "neither" in err


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = run_cli(capsys, "smooth", str(deep))
    assert code == 2
    assert out == ""
    assert err.startswith("toricfree: error:")


@pytest.mark.parametrize("rank", [MAX_RANK + 1, 10 ** 6])
def test_declared_rank_is_bounded(capsys, tmp_path, rank):
    cone_file = write_json(tmp_path, "cone.json", {"rank": rank, "generators": []})
    fan_file = write_json(tmp_path, "fan.json", {"rank": rank, "cones": [[]]})
    report_file = write_json(tmp_path, "report.json", {
        "entries": [{"cone": {"rank": rank, "generators": []},
                     "locally_free": {"verdict": True}}],
    })
    for argv in (("smooth", cone_file), ("verify", fan_file), ("recheck", report_file)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("toricfree: error:") and f"maximum of {MAX_RANK}" in err


@pytest.mark.parametrize("text", [" 12 ", "1_000", "+5", "\u0661\u0662"])
def test_lenient_integer_strings_exit_2(capsys, tmp_path, text):
    cone_file = write_json(tmp_path, "cone.json", {"rank": 2, "generators": [[text, 1]]})
    code, out, err = run_cli(capsys, "smooth", cone_file)
    assert code == 2 and out == ""
    assert err.startswith("toricfree: error:") and "expected a decimal integer string" in err
    assert len(err) < 200


def one_entry_report(certificate):
    return {"entries": [{"cone": {"rank": 2, "generators": [[1, 0]]},
                         "locally_free": {"verdict": True, "certificate": certificate}}]}


@pytest.mark.parametrize("command, doc, message", [
    ("verify", {"cones": [[[1, 0]]]}, "fan document requires 'rank' and 'cones'"),
    ("verify", {"rank": 2, "cones": 5}, "'cones' must be a list of generator lists"),
    ("recheck", one_entry_report(5), "certificate document requires an 'entries' list"),
    ("recheck", one_entry_report({"entries": [5]}), "certificate entry must be an object"),
    ("recheck", one_entry_report({"entries": [{"weight_class": [0, 0], "subspace_basis": 5}]}),
     "certificate entry requires a 'subspace_basis' list"),
    # a fan listing no cone declares its rank alone, and no cone's own check reads it
    ("verify", {"rank": 0, "cones": []}, "lattice rank must be at least 1"),
    ("locally-free", {"rank": "-2", "cones": []}, "lattice rank must be at least 1"),
    ("verify", {"rank": 2, "generators": [[1, 0], [0, 1]], "cones": []},
     "document is both a cone ('generators') and a fan ('cones')"),
])
def test_malformed_fans_and_certificates_are_named(capsys, tmp_path, command, doc, message):
    code, out, err = run_cli(capsys, command, write_json(tmp_path, "doc.json", doc))
    assert code == 2 and out == ""
    assert err == f"toricfree: error: {message}\n"


def test_rank_at_the_bound_is_accepted():
    cone = parse_cone_document({"rank": MAX_RANK, "generators": [[1] + [0] * (MAX_RANK - 1)]})
    assert cone.rank == MAX_RANK and cone.rays() == ((1,) + (0,) * (MAX_RANK - 1),)


def test_fan_cone_count_is_bounded(capsys, tmp_path):
    # one small cone repeated: the count is checked before any cone is built
    path = write_json(tmp_path, "big-fan.json",
                      {"rank": 2, "cones": [[[1, 0], [0, 1]]] * (MAX_FAN_CONES + 1)})
    code, out, err = run_cli(capsys, "verify", path)
    assert code == 2 and out == ""
    assert f"maximum of {MAX_FAN_CONES}" in err


def orthant(rank, sign=1):
    return [[sign * int(i == j) for j in range(rank)] for i in range(rank)]


@pytest.mark.parametrize("cones", [
    [orthant(14)],  # one cone with 16,384 faces
    [orthant(12), orthant(12, -1)],  # two cones at the cap, meeting in the apex
], ids=["rank-14-orthant", "two-rank-12-orthants"])
def test_fan_face_closure_is_bounded(capsys, tmp_path, cones):
    # verify decides every cone of the closure: the cap ends it before that
    path = write_json(tmp_path, "orthant-fan.json", {"rank": len(cones[0]), "cones": cones})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", path)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.startswith("toricfree: error:") and f"maximum of {MAX_FACES}" in err


@pytest.mark.parametrize("command", ["verify", "smooth", "locally-free"])
def test_fan_closure_size_is_bounded(capsys, tmp_path, command):
    # one cone on 12 unit vectors in rank 128: 4,096 faces, under the face cap,
    # but each would be a report entry of up to 128 x 128 certificate integers;
    # the deadline also ends a run past the bound while it still sorts the closure,
    # before the reports take gigabytes
    path = write_json(tmp_path, "units-fan.json", {"rank": 128, "cones": [orthant(128)[:12]]})
    with deadline(5):
        code, out, err = run_cli(capsys, command, path)
    assert code == 2 and out == ""
    assert err.startswith("toricfree: error:") and f"maximum of {_MAX_CLOSURE_SIZE}" in err


def test_cone_generator_count_is_bounded(capsys, tmp_path):
    gens = [[1, k] for k in range(MAX_CONE_GENERATORS + 1)]
    cone_file = write_json(tmp_path, "cone.json", {"rank": 2, "generators": gens})
    fan_file = write_json(tmp_path, "fan.json", {"rank": 2, "cones": [[[1, 0]], gens]})
    for argv in (("smooth", cone_file), ("verify", fan_file)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("toricfree: error:") and f"maximum of {MAX_CONE_GENERATORS}" in err
    cone = parse_cone_document({"rank": 2, "generators": gens[:-1]})
    assert cone.rays() == ((1, 0), (1, MAX_CONE_GENERATORS - 1))


@pytest.mark.parametrize("command", ["sweep", "generate"])
def test_generator_count_is_bounded(capsys, command):
    # the config is validated before any draw, so nothing of this size is allocated
    code, _, err = run_cli(capsys, command, "--rank", "3", "--count", "1", "--seed", "1",
                           "--max-gens", "1000000000")
    assert code == 2
    assert "max_generators" in err


def test_usage_errors_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["sweep", "--rank", "2"]) == 2  # missing required flags
    capsys.readouterr()


def test_cached_parser_matches_a_fresh_one(capsys, tmp_path, orthant_file):
    # the parser is built once per process and reused by every call
    _, out, _ = run_cli(capsys, "locally-free", orthant_file)
    report_file = write_json(tmp_path, "report.json", json.loads(out))
    calls = [
        ["sweep", "--rank", "2"],  # usage error: missing required flags
        ["--version"],
        ["sections", orthant_file, "--ray", "-1,3", "--weight", "2,0"],
        ["smooth", orthant_file],
        ["recheck", report_file],
    ]
    assert _build_parser() is _build_parser()
    cached = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in cached] == [2, 0, 0, 0, 0]
    for argv, result in zip(calls, cached):
        _build_parser.cache_clear()
        assert run_cli(capsys, *argv) == result


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "smooth" in out and "locally-free" in out


def test_console_script_subprocess(tmp_path):
    doc = {"rank": 2, "generators": [[1, 0], [0, 1]]}
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "toricfree", "verify", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] is True


# Golden digests of report bytes and exit codes, computed before the fan
# validation and CLI clean-up; any later change that alters a verdict, a
# certificate or the layout of a report changes one of them.  The named and
# seeded digests were re-pinned when witnesses became canonical class
# representatives (``Cone.weight_class``): the earlier reports, with each
# witness mapped through ``weight_class``, hash to the same values.
GOLDEN_NAMED = "b7e6bd2fe68f1bf166acc8ada85ea0c32f9cd602e1e28cb39e1222ecccbb108c"
GOLDEN_SEEDED = "7610c4614c2cd1228112e87aba41c82abba65aeec06fbaf8f5170b880735459a"
GOLDEN_SWEEP = "8381e00aaf5111931822c7b0831594e75fd27f4edaf237ecb51ee185d16a63ac"


def _report_digest(capsys, tmp_path, documents):
    digest = hashlib.sha256()
    path = tmp_path / "doc.json"
    for doc in documents:
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("locally-free", "verify"):
            code, out, err = run_cli(capsys, command, str(path))
            assert err == ""
            digest.update(f"{command} {code}\n{out}".encode("utf-8"))
    return digest.hexdigest()


def test_golden_named_corpus_reports(capsys, tmp_path):
    documents = [fan_to_document(e.geometry) if isinstance(e.geometry, Fan)
                 else cone_to_document(e.geometry) for e in named_examples()]
    assert _report_digest(capsys, tmp_path, documents) == GOLDEN_NAMED


def test_golden_seeded_cone_reports(capsys, tmp_path):
    cones = sample_cones(default_config(3, seed=7), 200)
    documents = [cone_to_document(c) for c in cones]
    assert _report_digest(capsys, tmp_path, documents) == GOLDEN_SEEDED


def test_golden_sweep_report(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--rank", "3", "--count", "200", "--seed", "7")
    doc = json.loads(out)
    del doc["elapsed"]
    text = f"{code}\n{json.dumps(doc, indent=2)}"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SWEEP


def high_rank_document(rank, count, bound):
    """A seeded cone document: ``count`` generators with coordinates in [0, bound], row by row."""
    rng = random.Random(1000 + rank)
    return {"rank": rank,
            "generators": [[rng.randint(0, bound) for _ in range(rank)] for _ in range(count)]}


# SHA-256 of the `smooth` output for the rank-8 and rank-12 documents,
# computed before extremality in the cone layer became an incidence test.
GOLDEN_HIGH_RANK_SMOOTH = "b37e075af8afa57233837bacdf69b41bd975aaf735d537221331209dd60cd85a"


def test_golden_high_rank_smooth_reports(capsys, tmp_path):
    digest = hashlib.sha256()
    for rank, count in ((8, 12), (12, 16)):
        path = write_json(tmp_path, f"rank{rank}.json", high_rank_document(rank, count, 10 ** 6))
        code, out, err = run_cli(capsys, "smooth", path)
        assert code == 1 and err == ""
        digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_HIGH_RANK_SMOOTH


# Hostile input: small JSON documents shaped like cones, fans and reports,
# with junk mixed in at every level, plus arbitrary nested values.
junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 5), st.floats(),
                 st.sampled_from(["", "1", "-2", "x", "0x1", "1e3", " 4"]))


def mostly(good, bad):
    """``good`` nine times in ten, so that most documents get past the parser."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


def vector(rank):
    entry = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(str), junk)
    return mostly(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
                  st.one_of(st.lists(entry, max_size=4), junk))


def vectors(rank):
    return st.lists(vector(rank), max_size=5)


@st.composite
def hostile_documents(draw):
    rank = draw(st.integers(1, 4))
    declared = draw(mostly(st.sampled_from([rank, str(rank)]), junk))
    cone = {"rank": declared, "generators": draw(vectors(rank))}
    certificate = st.fixed_dictionaries({"entries": st.lists(st.fixed_dictionaries(
        {"weight_class": vector(rank), "subspace_basis": mostly(vectors(rank), junk)}),
        max_size=4)})
    freeness = st.fixed_dictionaries({"verdict": mostly(st.just(True), junk),
                                      "certificate": mostly(certificate, junk)})
    keys = st.sampled_from(["rank", "generators", "cones", "entries", "cone",
                            "locally_free", "verdict", "certificate"])
    doc = draw(st.one_of(
        st.just(cone),
        st.fixed_dictionaries({"rank": st.just(declared),
                               "cones": st.lists(vectors(rank), max_size=4)}),
        st.fixed_dictionaries({"entries": st.lists(st.fixed_dictionaries(
            {"cone": mostly(st.just(cone), junk), "locally_free": st.one_of(freeness, junk)}),
            max_size=3)}),
        st.recursive(junk, lambda inner: st.one_of(
            st.lists(inner, max_size=5), st.dictionaries(keys, inner, max_size=4)),
            max_leaves=20),
    ))
    return doc, rank


@settings(max_examples=200, deadline=5000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hostile_documents(), st.data())
def test_hostile_documents_exit_cleanly(tmp_path, case, data):
    doc, rank = case
    path = write_json(tmp_path, "hostile.json", doc)
    point = st.lists(st.integers(-2, 2), min_size=1, max_size=rank).map(
        lambda v: ",".join(map(str, v)))
    ray, weight = data.draw(point), data.draw(point)
    for argv in (["smooth", path], ["locally-free", path], ["verify", path], ["recheck", path],
                 ["sections", path, "--ray", ray, "--weight", weight]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert type(code) is int and code in (0, 1, 2), argv


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.sampled_from([-0.0, 0.1, 1e16, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.text(),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24)


@given(json_values)
@example({"q\"uote\\back": ["\u00e9\u65e5\U0001f600", "\x00\x1f\t\n\x7f", '"', "\\"]})
@example([2 ** 53 + 1, -2 ** 64, [-0.0, 0.1, 1e16, math.nan, math.inf, -math.inf]])
@example({"a": {}, "b": [], "c": [[], {}, ()], "d": ({"e": [{}]},)})
@settings(max_examples=300, deadline=None)
def test_report_encoder_matches_json_indent(value):
    assert _encode(value, "\n") == json.dumps(value, indent=2)


class _FloatSubclass(float):
    pass


# json.dumps takes a dict or float subclass, so these two pin that the
# encoder hands json only an exact float or None
@pytest.mark.parametrize("value", [{1, 2}, {1: "a"}, {"a": [{(1, 2): 0}]}, [frozenset()], b"x",
                                   collections.OrderedDict([("a", 1)]), _FloatSubclass(1.5)])
def test_report_encoder_rejects_other_types(value):
    with pytest.raises(TypeError):
        _encode(value, "\n")
