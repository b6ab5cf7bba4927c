"""Workload inputs, built from the seed, and the checks on their outputs.

Each workload yields chunks: one CLI invocation each, whose inputs
together make one pass.  Splitting a pass into chunks keeps every timed
round (and every timed step of set-up) short, so the host-speed
reference taken around it tracks the host closely, while the pass as a
whole is large enough that its cost barely depends on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cmp_to_key
from math import gcd
from pathlib import Path
from typing import Callable, Iterator, Optional

SWEEP_CHUNKS, SWEEP_COUNT = 20, 200        # 4000 rank-4 cones per pass
FAN_CHUNKS, FAN_PLANAR_RAYS, FAN_BOUND = 2, 12, 7     # two 75-cone fans per pass
RECHECK_CHUNKS, RECHECK_ENTRIES = 5, 200   # 1000 report entries per pass


@dataclass(frozen=True)
class Chunk:
    """One CLI invocation and the check its exit code and JSON report must pass.

    A control chunk runs once, outside the timed rounds.
    """

    argv: tuple[str, ...]
    check: Callable[[int, dict], Optional[str]]
    control: bool = False


def _check_sweep(code: int, doc: dict) -> Optional[str]:
    if code != 0:
        return f"sweep exited {code}"
    if doc.get("count") != SWEEP_COUNT or doc.get("agreements") != SWEEP_COUNT:
        return f"sweep agreed on {doc.get('agreements')} of {doc.get('count')} cones"
    if doc.get("disagreements") != []:
        return "sweep reported disagreements"
    return None


def build_sweep(seed: int, workdir: Path) -> Iterator[Chunk]:
    rng = random.Random(seed)
    for _ in range(SWEEP_CHUNKS):
        yield Chunk(("sweep", "--rank", "4", "--count", str(SWEEP_COUNT),
                     "--seed", str(rng.randrange(2 ** 31))), _check_sweep)


def _angle_order(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Exact counter-clockwise order of planar directions, starting at +e1."""
    upper_a = a[1] > 0 or (a[1] == 0 and a[0] > 0)
    upper_b = b[1] > 0 or (b[1] == 0 and b[0] > 0)
    if upper_a != upper_b:
        return -1 if upper_a else 1
    cross = a[0] * b[1] - a[1] * b[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def planar_rays(rng: random.Random, k: int, bound: int) -> list[tuple[int, int]]:
    """k distinct primitive planar rays, +-e1 and +-e2 among them, in angle order.

    With the axes present, consecutive rays are less than a half-turn
    apart, so each consecutive pair spans a strongly convex cone and the
    pairs together form a complete fan.
    """
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    while len(rays) < k:
        x, y = rng.randint(-bound, bound), rng.randint(-bound, bound)
        g = gcd(x, y)
        if g:
            rays.add((x // g, y // g))
    return sorted(rays, key=cmp_to_key(_angle_order))


def product_fan_document(rays: list[tuple[int, int]]) -> dict:
    """The complete planar fan on ``rays`` times P^1, as a rank-3 fan document."""
    cones = []
    for (a, b), (c, d) in zip(rays, rays[1:] + rays[:1]):
        for sign in (1, -1):
            cones.append([[a, b, 0], [c, d, 0], [0, 0, sign]])
    return {"rank": 3, "cones": cones}


def _check_fan(code: int, doc: dict) -> Optional[str]:
    entries = doc.get("entries", [])
    # k rays, 3k two-dimensional cones, 2k maximal cones, and the zero cone
    expected = 6 * FAN_PLANAR_RAYS + 3
    if len(entries) != expected:
        return f"verify returned {len(entries)} entries, expected {expected}"
    if not all(e.get("agree") is True for e in entries):
        return "verify found a cone where the deciders disagree"
    if code != 0:
        return f"verify exited {code}"
    return None


def build_fan(seed: int, workdir: Path) -> Iterator[Chunk]:
    rng = random.Random(seed)
    for j in range(FAN_CHUNKS):
        path = workdir / f"fan-{j}.json"
        doc = product_fan_document(planar_rays(rng, FAN_PLANAR_RAYS, FAN_BOUND))
        path.write_text(json.dumps(doc), encoding="utf-8")
        yield Chunk(("verify", str(path)), _check_fan)


def _check_recheck(code: int, doc: dict) -> Optional[str]:
    if code != 0 or doc.get("failures") != []:
        return f"recheck exited {code} with failures {doc.get('failures')}"
    return None


def _check_tampered(code: int, doc: dict) -> Optional[str]:
    if code != 1 or not doc.get("failures"):
        return f"recheck accepted a tampered certificate (exit {code})"
    return None


def tamper(report: dict) -> dict:
    """A copy of the report with one certificate weight doubled.

    The first nonzero weight class of the first certificate is a witness
    pairing 1 with its ray; doubled it pairs 2, so the partial sums no
    longer reproduce the ray's filtration (or the weight is no longer the
    canonical class representative).  Either way recheck must reject it.
    """
    copy = json.loads(json.dumps(report))
    for entry in copy["entries"]:
        cert = entry["locally_free"].get("certificate")
        for item in cert["entries"] if cert else ():
            if any(item["weight_class"]):
                item["weight_class"] = [2 * int(c) for c in item["weight_class"]]
                return copy
    raise ValueError("report has no certificate with a nonzero weight to tamper with")


def build_recheck(seed: int, workdir: Path) -> Iterator[Chunk]:
    from toricfree.corpus import default_config, iter_random_cones
    from toricfree.serialize import locally_free_report

    rng = random.Random(seed)
    first = None
    for j in range(RECHECK_CHUNKS):
        stream = iter_random_cones(default_config(4, rng.randrange(2 ** 31)))
        singles = [locally_free_report(next(stream)) for _ in range(RECHECK_ENTRIES)]
        entries = [e for r in singles for e in r["entries"]]
        report = {"tool": singles[0]["tool"], "kind": "locally-free",
                  "verdict": all(e["locally_free"]["verdict"] for e in entries),
                  "entries": entries}
        path = workdir / f"report-{j}.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        first = first or report
        yield Chunk(("recheck", str(path)), _check_recheck)
    tampered = workdir / "report-tampered.json"
    tampered.write_text(json.dumps(tamper(first)), encoding="utf-8")
    yield Chunk(("recheck", str(tampered)), _check_tampered, control=True)


WORKLOADS = {
    "sweep-r4": build_sweep,
    "fan-verify": build_fan,
    "recheck": build_recheck,
}
