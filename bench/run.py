"""End-to-end and per-layer benchmark for the toricfree CLI.

Run from the repository root:

    python3 bench/run.py --workload sweep-r4 --seed 1 --seconds 30 --trace 0

Each timed round is one in-process call of ``toricfree.cli.main`` on
inputs built from ``--seed`` (see ``workloads.py``), in this one process
and thread.  Every round's exit code and JSON report are checked, and
every round of the same input must report the same fields, timing
fields apart.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``.

On a shared virtual machine the CPU speed can drift by 2x within
minutes while CPU time stays equal to wall time, so every round and
every set-up step is followed by a fixed stdlib int/Fraction reference
loop, and its time is reported rescaled to a nominal host on which that
loop takes ``REF_NOMINAL_NS``.

With ``--trace 1`` the untraced rounds are followed by two traced passes
(see ``tracer.py``); the per-layer metrics come from those, and the two
must make identical calls.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Aggregate, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
TRACED_PASSES = 2
# reference-loop time of the nominal host, in ns
REF_NOMINAL_NS = 5_000_000
TIMING_FIELDS = ("elapsed",)

_ref_rng = random.Random(2202)
REF_MATRICES = [[[_ref_rng.randint(-5, 5) for _ in range(6)] for _ in range(5)] for _ in range(4)]


def _pivot(row) -> int:
    return next(j for j, c in enumerate(row) if c)


def reference_loop() -> int:
    """Fixed stdlib work shaped like the program's: Fraction row reduction,
    then primitive integer tuples deduplicated, sorted and paired.

    A loop of Fraction arithmetic alone speeds up more than the program
    does when the host is fast, which biases the rescaled times by the
    share of fast rounds; the integer tuple and set work evens that out.
    """
    for matrix in REF_MATRICES:
        reduced = []
        for row in matrix:
            work = [Fraction(c) for c in row]
            for r in reduced:
                coeff = work[_pivot(r)]
                if coeff:
                    work = [a - coeff * b for a, b in zip(work, r)]
            if any(work):
                pivot = _pivot(work)
                inv = work[pivot]
                work = [a / inv for a in work]
                for r in reduced:
                    coeff = r[pivot]
                    if coeff:
                        r[:] = [a - coeff * b for a, b in zip(r, work)]
                reduced.append(work)
    x, seen, rays = 7, set(), []
    for _ in range(1200):
        x = (x * 1103515245 + 12345) % 2147483648
        v = tuple((x >> shift) % 11 - 5 for shift in (0, 4, 8, 12))
        g = 0
        for c in v:
            g = gcd(g, c)
        if g and (v := tuple(c // g for c in v)) not in seen:
            seen.add(v)
            rays.append(v)
    rays.sort()
    return sum(sum(p * q for p, q in zip(a, b)) >= 0 for a in rays[:40] for b in rays[:40])


class HostClock:
    """Times a call and the reference loop right after it.

    The scale of a call is the nominal reference time over the mean of
    the reference times just before and just after it.
    """

    def __init__(self):
        self.refs: list[int] = []
        self._last = self._reference()

    def _reference(self) -> int:
        start = perf_counter_ns()
        reference_loop()
        ref = perf_counter_ns() - start
        self.refs.append(ref)
        return ref

    def timed(self, fn):
        """Return (fn's result, raw ns, scale to the nominal host)."""
        start = perf_counter_ns()
        result = fn()
        raw = perf_counter_ns() - start
        after = self._reference()
        scale = REF_NOMINAL_NS / ((self._last + after) / 2)
        self._last = after
        return result, raw, scale


class Tally:
    """Counts operations and failures, and checks that outputs repeat."""

    def __init__(self, n_chunks: int):
        self.attempted = 0
        self.failed = 0
        self._first: list = [None] * n_chunks

    def fail(self, problem: str) -> None:
        self.failed += 1
        print(f"bench: {problem}", file=sys.stderr)

    def record(self, chunk, index, outcome) -> None:
        self.attempted += 1
        code, text, error = outcome
        if error is not None:
            self.fail(f"{' '.join(chunk.argv)} raised:\n{error}")
            return
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            self.fail(f"{' '.join(chunk.argv)} printed no JSON report")
            return
        problem = chunk.check(code, doc)
        if problem is None and index is not None:
            fields = json.dumps({k: v for k, v in doc.items() if k not in TIMING_FIELDS},
                                sort_keys=True)
            if self._first[index] is None:
                self._first[index] = fields
            elif fields != self._first[index]:
                problem = "report differs from the first round on the same input"
        if problem is not None:
            self.fail(f"{' '.join(chunk.argv)}: {problem}")


def call_cli(cli, argv) -> tuple:
    """One CLI invocation: (exit code, stdout, traceback or None)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    except Exception:  # a crash is a failed operation, not the end of the run
        return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), None


def purge_package() -> None:
    for key in [k for k in sys.modules if k == "toricfree" or k.startswith("toricfree.")]:
        del sys.modules[key]


def import_cli():
    purge_package()
    import toricfree.cli as cli
    return cli


def set_up(build, seed: int, workdir: Path, clock: "HostClock"):
    """Import the package afresh and build the inputs, each step timed.

    Returns the CLI module, the chunks, and the raw and rescaled ns.
    """
    cli, raw, scale = clock.timed(import_cli)
    raw_ns, scaled_ns = raw, raw * scale
    stream = build(seed, workdir)
    chunks = []
    while True:
        chunk, raw, scale = clock.timed(lambda: next(stream, None))
        raw_ns += raw
        scaled_ns += raw * scale
        if chunk is None:
            return cli, chunks, raw_ns, scaled_ns
        chunks.append(chunk)


def timed_rounds(cli, chunks, clock, tally, until_ns=None, tracer=None):
    """Run every chunk once per pass, passes until ``until_ns`` (at least one).

    Returns per-chunk lists of (raw ns, scale) and, when tracing, one
    Aggregate per pass with times rescaled to the nominal host.
    """
    samples = [[] for _ in chunks]
    passes = []
    while True:
        agg = Aggregate()
        for j, chunk in enumerate(chunks):
            outcome, raw, scale = clock.timed(lambda: call_cli(cli, chunk.argv))
            if tracer is not None:
                agg.add(tracer.take(), scale)
            samples[j].append((raw, scale))
            tally.record(chunk, j, outcome)
        passes.append(agg)
        if until_ns is None or perf_counter_ns() >= until_ns:
            return samples, passes


def pass_seconds(samples, scaled: bool = True) -> float:
    """Sum over chunks of the median round time: one pass, robust to outliers."""
    return sum(statistics.median(raw * (scale if scaled else 1) for raw, scale in rounds)
               for rounds in samples) / 1e9


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    build = WORKLOADS[workload]
    clock = HostClock()
    # import the package's stdlib dependencies once, so that every set-up
    # below times the same work: the package's own modules and the inputs
    import_cli()
    setups = []
    for _ in range(SETUP_REPS):
        cli, built, raw_ns, scaled_ns = set_up(build, seed, workdir, clock)
        setups.append((raw_ns, scaled_ns))
    chunks = [c for c in built if not c.control]
    tally = Tally(len(chunks))
    deadline = perf_counter_ns() + seconds * 10 ** 9
    samples, _ = timed_rounds(cli, chunks, clock, tally, until_ns=deadline)
    for control in (c for c in built if c.control):
        tally.record(control, None, call_cli(cli, control.argv))
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, passes = [], []
            for _ in range(TRACED_PASSES):
                rounds, (agg,) = timed_rounds(cli, chunks, clock, tally, tracer=tracer)
                traced.append(pass_seconds(rounds))
                passes.append(agg)
        finally:
            tracer.uninstall()
        if any(p.counts() != passes[0].counts() for p in passes):
            tally.fail("traced passes over the same input made different calls")
        per_pass = [layer_metrics(p) for p in passes]
        # counts repeat exactly (checked above); times take the median
        values = {name: value if isinstance(value, int)
                  else statistics.median(m[name] for m in per_pass)
                  for name, value in per_pass[0].items()}
        values["host.raw_pass_s"] = pass_seconds(samples, scaled=False)
        values["host.raw_setup_s"] = statistics.median(raw for raw, _ in setups) / 1e9
        values["host.ref_loop_us"] = statistics.median(clock.refs) / 1e3
        values["trace.overhead_ratio"] = statistics.median(traced) / pass_seconds(samples) - 1
    else:
        values = {
            "pass_s": pass_seconds(samples),
            "setup_s": statistics.median(scaled for _, scaled in setups) / 1e9,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - tally.failed / tally.attempted,
        }
    units = declared_metrics(trace)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not "
                           "both measured and declared in BENCHMARK.json")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "toricfree" / "cli.py").is_file():
        print(f"bench: no toricfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
