"""The benchmark tracer still binds to every name it traces.

``bench/tracer.py`` wraps the functions, methods and properties listed in
its ``TARGETS`` and treats ``iter_random_cones`` as a generator.  Deleting
or changing the kind of one of those names breaks the traced benchmark,
so this test installs the tracer, runs a few commands under it and puts
every original back.
"""

import importlib.util
import json
from pathlib import Path

import toricfree.cli
from toricfree.cli import main

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tmp_path, capsys):
    tracer_module = load_tracer()
    # three quadrants of P^1 x P^1: not complete, so validated pairwise
    fan_file = tmp_path / "three-quadrants.json"
    fan_file.write_text(json.dumps({
        "rank": 2, "cones": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]], [[-1, 0], [0, -1]]],
    }), encoding="utf-8")
    original_main = toricfree.cli.main
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert toricfree.cli.main is not original_main
        assert toricfree.cli.main(["verify", str(fan_file)]) == 0
        assert toricfree.cli.main(["sweep", "--rank", "2", "--count", "3", "--seed", "1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert toricfree.cli.main is original_main is main
    agg = tracer.take()
    assert agg.calls["cli.main"] == 2
    assert agg.calls["serialize.verify_report"] == 1
    assert agg.calls[tracer_module.DRAW] == 3
    # the fan is validated once: one intersection per pair of its 3 input cones
    assert tracer_module.layer_metrics(agg)["fans.pair_checks"] == 3
