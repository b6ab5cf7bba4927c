"""Span tracing for the benchmark, installed from outside the package.

The tracer wraps the public functions of each toricfree module, and the
methods of its core classes, with a timing shim.  Module-level functions
are replaced under every name any toricfree module bound them to at
import (``from .lattice import matrix_rank`` leaves a second binding in
``cones``), so calls are caught whichever module makes them.  Class
methods are replaced on the class.  ``uninstall`` puts every original
back, and the timed runs never call ``install`` at all.

Tiny vector helpers (``dot``, ``vec``, ``primitive`` and the like) and
private helpers are left unwrapped on purpose: they run millions of
times, a shim would cost more than they do, and their time lands in the
self time of the public function that called them.

Spans are aggregated as they close, not stored: per span name the call
count, self time (duration minus the time covered by child spans) and
total time (outermost span of that name only, so recursion is not
counted twice), and per (parent, child) name pair the count and time.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# Public surface wrapped per module.  "Class.method" entries are patched on
# the class; the rest are module-level functions.
TARGETS: dict[str, tuple[str, ...]] = {
    "lattice": (
        "matrix_rank", "determinant", "hermite_normal_form", "smith_normal_form",
        "invariant_factors", "solve_integer_system", "integer_kernel_basis",
        "extends_to_lattice_basis",
        "RationalSubspace.__init__", "RationalSubspace.contains",
        "RationalSubspace.contains_subspace", "RationalSubspace.__add__",
        "RationalSubspace.intersection", "RationalSubspace.orthogonal_complement",
        "RationalSubspace.integer_basis",
    ),
    "cones": (
        "linearly_independent_rays", "dual_cone",
        "Cone.__init__", "Cone.dual", "Cone.facet_normals", "Cone.contains",
        "Cone.faces", "Cone.is_face_of", "Cone.perp_sublattice", "Cone.weight_class",
        "Cone.span", "Cone.intersection",
    ),
    "fans": (
        "validate_fan", "fan_from_generators",
        "Fan.__init__", "Fan.skeleton", "Fan.codim_le1_subfan", "Fan.maximal_cones",
    ),
    "corpus": ("iter_random_cones", "random_cone", "sample_cones", "named_examples", "lookup"),
    "smoothness": ("is_smooth_cone",),
    "klyachko": (
        "tangent_filtration", "tangent_family", "sections_dimension",
        "diagnose_certificate", "verify_certificate", "decide_tangent_locally_free",
        "decide_tangent_locally_free_on_fan", "Filtration.__init__", "Filtration.at",
    ),
    "verifier": ("check_zariski_lipman", "sweep"),
    "serialize": (
        "parse_cone_document", "parse_fan_document", "parse_geometry_document",
        "parse_certificate_document", "cone_to_document", "fan_to_document",
        "certificate_to_document", "smoothness_to_document", "freeness_to_document",
        "agreement_to_entry", "smooth_report", "locally_free_report", "verify_report",
        "sweep_report", "recheck_report",
    ),
    "cli": ("main",),
}

LAYERS = tuple(TARGETS)

# Each ``next`` on the cone stream is one span under this name.
DRAW = "corpus.draw"

# Span names whose individual durations are kept, for percentiles.
SAMPLED = frozenset({"smoothness.is_smooth_cone", "klyachko.decide_tangent_locally_free"})


def _count_positive(tracer, args, result):
    if result.verdict:
        tracer.agg.events["klyachko.positive"] += 1


def _count_disagreement(tracer, args, result):
    if not result.agree:
        tracer.agg.events["verifier.disagreements"] += 1


def _count_closed_cones(tracer, args, result):
    tracer.agg.events["fans.cones_closed"] += len(args[0].cones)


def _count_report_entries(tracer, args, result):
    tracer.agg.events["serialize.recheck_entries"] += len(args[0]["entries"])


# Result observers: read a count off a call's arguments or result.
OBSERVERS = {
    "klyachko.decide_tangent_locally_free": _count_positive,
    "verifier.check_zariski_lipman": _count_disagreement,
    "fans.Fan.__init__": _count_closed_cones,
    "serialize.recheck_report": _count_report_entries,
}


class Aggregate:
    """Span totals of one interval; times in nanoseconds, or scaled by ``add``."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.layer_total_ns: Counter = Counter()
        self.edge_calls: Counter = Counter()
        self.edge_ns: Counter = Counter()
        self.events: Counter = Counter()
        self.durations: dict[str, list] = defaultdict(list)

    def add(self, other: "Aggregate", scale: float) -> None:
        """Accumulate ``other`` with every time multiplied by ``scale``."""
        self.calls.update(other.calls)
        self.edge_calls.update(other.edge_calls)
        self.events.update(other.events)
        for mine, theirs in ((self.self_ns, other.self_ns), (self.total_ns, other.total_ns),
                             (self.layer_total_ns, other.layer_total_ns),
                             (self.edge_ns, other.edge_ns)):
            for key, value in theirs.items():
                mine[key] += value * scale
        for key, values in other.durations.items():
            self.durations[key].extend(v * scale for v in values)

    def counts(self) -> tuple:
        """Everything that must repeat exactly for the same input."""
        return (sorted(self.calls.items()), sorted(self.edge_calls.items(), key=repr),
                sorted(self.events.items()))


class Tracer:
    """Collects spans into an ``Aggregate``; see the module docstring."""

    def __init__(self):
        self.agg = Aggregate()
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def take(self) -> Aggregate:
        """Return the spans closed so far and start a fresh aggregate."""
        if self._stack:
            raise RuntimeError("cannot take an aggregate while spans are open")
        agg, self.agg = self.agg, Aggregate()
        return agg

    def _enter(self, name: str) -> None:
        layer = name.partition(".")[0]
        self._depth[name] += 1
        self._depth[layer] += 1
        self._stack.append([name, perf_counter_ns(), 0])

    def _exit(self) -> None:
        end = perf_counter_ns()
        name, start, child_ns = self._stack.pop()
        layer = name.partition(".")[0]
        duration = end - start
        agg = self.agg
        agg.calls[name] += 1
        agg.self_ns[name] += duration - child_ns
        self._depth[name] -= 1
        if not self._depth[name]:
            agg.total_ns[name] += duration
        self._depth[layer] -= 1
        if not self._depth[layer]:
            agg.layer_total_ns[layer] += duration
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        agg.edge_calls[(parent, name)] += 1
        agg.edge_ns[(parent, name)] += duration
        if name in SAMPLED:
            agg.durations[name].append(duration)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if observe is not None:
                observe(self, args, result)
            return result

        return shim

    def _wrap_stream(self, fn):
        """Wrap a generator function so that each ``next`` is one span."""
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def stream():
                while True:
                    enter(DRAW)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    yield item

            return stream()

        return shim

    def install(self) -> None:
        """Patch every target in the already imported toricfree package."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == "toricfree" or key.startswith("toricfree.")]
        for layer, targets in TARGETS.items():
            module = sys.modules[f"toricfree.{layer}"]
            for target in targets:
                name = f"{layer}.{target}"
                owner_name, _, attr = target.rpartition(".")
                if owner_name:
                    self._patch_method(getattr(module, owner_name), attr, name)
                else:
                    self._patch_function(modules, getattr(module, attr), name)

    def _patch_function(self, modules, original, name: str) -> None:
        if inspect.isgeneratorfunction(original):
            shim = self._wrap_stream(original)
        else:
            shim = self._wrap(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, shim)

    def _patch_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, property):
            shim = property(self._wrap(name, original.fget), doc=original.__doc__)
        else:
            shim = self._wrap(name, original)
        self._restore.append((cls, attr, original))
        setattr(cls, attr, shim)

    def uninstall(self) -> None:
        """Put every original back, last patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _ratio(part: float, whole: float) -> float:
    """part / whole, and 0 when the base is empty."""
    return part / whole if whole else 0.0


def _percentile_us(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0] / 1e3 if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] / 1e3


RS_INIT = "lattice.RationalSubspace.__init__"
DECIDE = "klyachko.decide_tangent_locally_free"
DIAGNOSE = "klyachko.diagnose_certificate"
SMOOTH = "smoothness.is_smooth_cone"
FAN_INIT = "fans.Fan.__init__"
RECHECK = "serialize.recheck_report"
PARSERS = tuple(f"serialize.{t}" for t in TARGETS["serialize"] if t.startswith("parse_"))
EMITTERS = tuple(f"serialize.{t}" for t in TARGETS["serialize"]
                 if t.endswith(("_document", "_report", "_entry"))
                 and not t.startswith("parse_") and t != "recheck_report")


def layer_metrics(agg: Aggregate) -> dict[str, float]:
    """Per-layer metrics of one pass; times in seconds or microseconds."""
    calls, self_ns = agg.calls, agg.self_ns

    def self_s(*names: str) -> float:
        return sum(self_ns[n] for n in names) / 1e9

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        names = [n for n in calls if n.partition(".")[0] == layer]
        metrics[f"{layer}.calls"] = sum(calls[n] for n in names)
        metrics[f"{layer}.self_s"] = self_s(*names)
        metrics[f"{layer}.total_s"] = agg.layer_total_ns[layer] / 1e9
    metrics.update({
        "lattice.subspace_builds": calls[RS_INIT],
        "lattice.subspace_self_s": self_s(RS_INIT),
        "lattice.snf_calls": calls["lattice.smith_normal_form"],
        "lattice.snf_self_s": self_s("lattice.smith_normal_form"),
        "lattice.hnf_self_s": self_s("lattice.hermite_normal_form"),
        "lattice.solve_calls": calls["lattice.solve_integer_system"],
        "lattice.kernel_calls": calls["lattice.integer_kernel_basis"],
        "lattice.rank_calls": calls["lattice.matrix_rank"],
        "lattice.rank_self_s": self_s("lattice.matrix_rank"),
        "cones.builds": calls["cones.Cone.__init__"],
        "cones.build_self_s": self_s("cones.Cone.__init__"),
        "cones.faces_calls": calls["cones.Cone.faces"],
        "cones.intersections": calls["cones.Cone.intersection"],
        "cones.intersection_self_s": self_s("cones.Cone.intersection"),
        "cones.face_tests": calls["cones.Cone.is_face_of"],
        "cones.face_test_self_s": self_s("cones.Cone.is_face_of"),
        "fans.build_s": agg.total_ns[FAN_INIT] / 1e9,
        "fans.pair_checks": agg.edge_calls[(FAN_INIT, "cones.Cone.intersection")],
        "fans.cones_closed": agg.events["fans.cones_closed"],
        "corpus.draw_s": agg.total_ns[DRAW] / 1e9,
        "corpus.accept_ratio": _ratio(calls[DRAW], agg.edge_calls[(DRAW, "cones.Cone.__init__")]),
        "smoothness.p99_us": _percentile_us(agg.durations[SMOOTH], 99),
        "klyachko.decide_calls": calls[DECIDE],
        "klyachko.decide_self_s": self_s(DECIDE),
        "klyachko.decide_p50_us": _percentile_us(agg.durations[DECIDE], 50),
        "klyachko.decide_p99_us": _percentile_us(agg.durations[DECIDE], 99),
        "klyachko.selfcheck_share": _ratio(agg.edge_ns[(DECIDE, DIAGNOSE)], agg.total_ns[DECIDE]),
        "klyachko.positive_ratio": _ratio(agg.events["klyachko.positive"], calls[DECIDE]),
        "klyachko.diagnose_calls": calls[DIAGNOSE],
        "klyachko.diagnose_self_s": self_s(DIAGNOSE),
        "verifier.checks": calls["verifier.check_zariski_lipman"],
        "verifier.disagreements": agg.events["verifier.disagreements"],
        "serialize.parse_s": self_s(*PARSERS),
        "serialize.emit_s": self_s(*EMITTERS),
        "serialize.recheck_verified_ratio": _ratio(agg.edge_calls[(RECHECK, DIAGNOSE)],
                                                   agg.events["serialize.recheck_entries"]),
    })
    return metrics
