"""JSON interchange: cone/fan documents and self-verifying reports.

Integers within the IEEE-754 exact range are serialized as JSON numbers;
anything larger becomes a decimal string, and the parser accepts both.
Reports embed every cone they talk about, so a report can be re-verified
later with no other inputs (see ``recheck_report``).  A report on a cone
or a fan takes its entries from the deciders' passes, which take either
geometry, so nothing here tells the two apart once a document is parsed.
"""

from __future__ import annotations

import re
import sys
from typing import Any, Callable, Union

from . import __version__
from .cones import Cone
from .fans import Fan
from .klyachko import (
    DecompositionCertificate,
    LocalFreenessReport,
    decide_tangent_locally_free_on_fan,
    diagnose_certificate,
    tangent_family,
)
from .lattice import RationalSubspace, Vector
from .smoothness import SmoothnessReport, decide_smooth_on_fan
from .verifier import AgreementRecord, SweepSummary, check_zariski_lipman_on_fan

SAFE_INT = 2 ** 53 - 1
# Largest lattice rank a document may declare.  Building a cone costs at
# least rank x rank integers, so an unbounded rank could exhaust memory.
MAX_RANK = 256
# Most cones a fan document may list.  Validation intersects every pair of
# them that are not faces of another listed cone, so its time grows with
# the square of that count: verifying a planar fan x P^1 with this many
# maximal cones takes about 2.5 s on 2 cores.  Listed faces add no pair: the
# rank-12 orthant listed with its 767 largest faces verifies in about 2.7 s.
MAX_FAN_CONES = 768
# Most generators a cone document, or one cone of a fan document, may list.
# The dual of the rank-4 cone over the moment curve has the most facets a
# cone on that many rays can have in rank 4 (McMullen's upper bound
# theorem), and ``verify`` on it takes about 7 s on 2 cores at this count.
MAX_CONE_GENERATORS = 384

Geometry = Union[Cone, Fan]

_DECIMAL = re.compile(r"-?[0-9]+")


def encode_int(value: int) -> int | str:
    return value if -SAFE_INT <= value <= SAFE_INT else str(value)


def decode_int(value: Any) -> int:
    if type(value) is int:
        return value
    if isinstance(value, str):
        # int() alone would also take spaces, '_', '+' and non-ASCII digits
        if _DECIMAL.fullmatch(value):
            try:
                return int(value, 10)
            except ValueError:  # over the interpreter's digit limit
                digits, limit = len(value.lstrip("-")), sys.get_int_max_str_digits()
                raise ValueError(
                    f"{digits}-digit integer string is over the limit of {limit}"
                ) from None
        shown = repr(value) if len(value) <= 40 else f"{value[:40]!r}... ({len(value)} characters)"
        raise ValueError(f"expected a decimal integer string, got {shown}")
    raise ValueError(f"expected an integer, got {_excerpt(value)}")


def _excerpt(value: Any) -> str:
    """The repr of value, cut to 40 characters with its full length noted."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def encode_vector(v: Vector) -> list:
    return [encode_int(c) for c in v]


def decode_vector(value: Any, rank: int | None = None) -> Vector:
    """A list of integers as a tuple; an all-``int`` list is taken whole, any other per entry."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list of integers, got {_excerpt(value)}")
    v = tuple(value) if set(map(type, value)) <= {int} else tuple(map(decode_int, value))
    if rank is not None and len(v) != rank:
        raise ValueError(f"vector {_excerpt(v)} has length {len(v)}, expected {rank}")
    return v


def _decode_rank(value: Any) -> int:
    rank = decode_int(value)
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} exceeds the maximum of {MAX_RANK}")
    return rank


def cone_to_document(cone: Cone) -> dict:
    return {
        "rank": cone.rank,
        "generators": [encode_vector(g) for g in cone.generators],
    }


def parse_cone_document(doc: Any) -> Cone:
    if not isinstance(doc, dict):
        raise ValueError("cone document must be a JSON object")
    if "rank" not in doc or "generators" not in doc:
        raise ValueError("cone document requires 'rank' and 'generators'")
    rank = _decode_rank(doc["rank"])
    gens_field = doc["generators"]
    if not isinstance(gens_field, list):
        raise ValueError("'generators' must be a list of integer vectors")
    _check_generator_count(gens_field, "cone document")
    generators = [decode_vector(g, rank) for g in gens_field]
    return Cone(generators, rank)


def _check_generator_count(gens_field: list, what: str) -> None:
    if len(gens_field) > MAX_CONE_GENERATORS:
        raise ValueError(f"{what} lists {len(gens_field)} generators, "
                         f"over the maximum of {MAX_CONE_GENERATORS}")


def fan_to_document(fan: Fan) -> dict:
    return {
        "rank": fan.rank,
        "cones": [[encode_vector(g) for g in c.generators] for c in fan.maximal_cones()],
    }


def parse_fan_document(doc: Any) -> Fan:
    if not isinstance(doc, dict):
        raise ValueError("fan document must be a JSON object")
    if "rank" not in doc or "cones" not in doc:
        raise ValueError("fan document requires 'rank' and 'cones'")
    rank = _decode_rank(doc["rank"])
    cones_field = doc["cones"]
    if not isinstance(cones_field, list):
        raise ValueError("'cones' must be a list of generator lists")
    if len(cones_field) > MAX_FAN_CONES:
        raise ValueError(
            f"fan lists {len(cones_field)} cones, over the maximum of {MAX_FAN_CONES}")
    for pos, gens in enumerate(cones_field):
        if not isinstance(gens, list):
            raise ValueError("each fan cone must be a list of integer vectors")
        _check_generator_count(gens, f"fan cone {pos}")
    return Fan([Cone([decode_vector(g, rank) for g in gens], rank) for gens in cones_field], rank)


def parse_geometry_document(doc: Any) -> Geometry:
    """Dispatch a parsed JSON document to a cone or a fan by its shape."""
    if not isinstance(doc, dict):
        raise ValueError("geometry document must be a JSON object")
    if "cones" in doc and "generators" in doc:
        raise ValueError("document is both a cone ('generators') and a fan ('cones')")
    if "cones" in doc:
        return parse_fan_document(doc)
    if "generators" in doc:
        return parse_cone_document(doc)
    raise ValueError("document is neither a cone ('generators') nor a fan ('cones')")


def _subspace_rows(sub: RationalSubspace) -> list:
    return [encode_vector(row) for row in sub.integer_basis()]


def certificate_to_document(cert: DecompositionCertificate) -> dict:
    return {
        "entries": [
            {"weight_class": encode_vector(m), "subspace_basis": _subspace_rows(sub)}
            for m, sub in cert.entries
        ],
    }


def parse_certificate_document(doc: Any, cone: Cone) -> DecompositionCertificate:
    """The certificate of a document, its rows bounded before any elimination.

    A certificate the tool writes lists exactly ``rank`` rows in all (a
    line per ray, the annihilator's rows besides), so more rows than the
    rank are rejected before a subspace is built from them.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ValueError("certificate document requires an 'entries' list")
    decoded = []
    for entry in doc["entries"]:
        if not isinstance(entry, dict):
            raise ValueError("certificate entry must be an object")
        weight = decode_vector(entry.get("weight_class"), cone.rank)
        basis_field = entry.get("subspace_basis")
        if not isinstance(basis_field, list):
            raise ValueError("certificate entry requires a 'subspace_basis' list")
        decoded.append((weight, [decode_vector(r, cone.rank) for r in basis_field]))
    if (total := sum(len(rows) for _, rows in decoded)) > cone.rank:
        raise ValueError(f"certificate lists {total} subspace_basis rows, "
                         f"over the cone's rank of {cone.rank}")
    # decode_vector has checked every entry and length, so nothing is read twice
    return DecompositionCertificate._from_vectors(
        cone, [(weight, RationalSubspace._from_vectors(cone.rank, rows)) for weight, rows in decoded])


def smoothness_to_document(report: SmoothnessReport) -> dict:
    doc: dict = {"verdict": report.verdict}
    if report.reason is not None:
        doc["reason"] = report.reason
    if report.invariant_factor is not None:
        doc["invariant_factor"] = encode_int(report.invariant_factor)
    return doc


def freeness_to_document(report: LocalFreenessReport) -> dict:
    doc: dict = {"verdict": report.verdict}
    if report.witnesses is not None:
        doc["witnesses"] = [
            {"ray": encode_vector(u), "weight": encode_vector(m)}
            for u, m in sorted(report.witnesses.items())
        ]
    if report.certificate is not None:
        doc["certificate"] = certificate_to_document(report.certificate)
    if report.failure is not None:
        doc["failure"] = report.failure
    if report.failing_ray is not None:
        doc["failing_ray"] = encode_vector(report.failing_ray)
    return doc


def _tool_stamp() -> dict:
    return {"name": "toricfree", "version": __version__}


def _cone_report(kind: str, entries: list[dict], passes: Callable[[dict], bool]) -> dict:
    """The report of a per-cone command: tool stamp, kind, verdict, and one entry per cone.

    The verdict holds iff every entry passes.
    """
    return {
        "tool": _tool_stamp(),
        "kind": kind,
        "verdict": all(map(passes, entries)),
        "entries": entries,
    }


def smooth_report(geometry: Geometry) -> dict:
    pairs = decide_smooth_on_fan(geometry)
    return _cone_report("smooth", [{
        "cone": cone_to_document(cone),
        "smooth": smoothness_to_document(report),
    } for cone, report in pairs], lambda e: e["smooth"]["verdict"])


def locally_free_report(geometry: Geometry) -> dict:
    pairs = decide_tangent_locally_free_on_fan(geometry)
    return _cone_report("locally-free", [{
        "cone": cone_to_document(cone),
        "locally_free": freeness_to_document(report),
    } for cone, report in pairs], lambda e: e["locally_free"]["verdict"])


def agreement_to_entry(record: AgreementRecord) -> dict:
    return {
        "cone": cone_to_document(record.cone),
        "smooth": smoothness_to_document(record.smooth),
        "locally_free": freeness_to_document(record.locally_free),
        "agree": record.agree,
    }


def verify_report(geometry: Geometry) -> dict:
    records = check_zariski_lipman_on_fan(geometry)
    return _cone_report("verify", [agreement_to_entry(r) for r in records], lambda e: e["agree"])


def sweep_report(summary: SweepSummary, config_doc: dict) -> dict:
    return {
        "tool": _tool_stamp(),
        "kind": "sweep",
        "config": config_doc,
        "count": summary.count,
        "agreements": summary.agreements,
        "disagreements": [agreement_to_entry(r) for r in summary.disagreements],
        "smooth_count": summary.smooth_count,
        "smooth_rate": summary.smooth_count / summary.count if summary.count else 0.0,
        "elapsed": summary.elapsed_seconds,
    }


def recheck_report(doc: Any) -> list[str]:
    """Re-validate every certificate inside a parsed ReportDocument.

    Returns a list of failure descriptions; empty means every entry that
    claims local freeness carries a certificate that verifies against the
    tangent filtrations of its embedded cone.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ValueError("report document requires an 'entries' list")
    failures = []
    for pos, entry in enumerate(doc["entries"]):
        if not isinstance(entry, dict) or "cone" not in entry:
            raise ValueError(f"entry {pos} is malformed: no embedded cone")
        cone = parse_cone_document(entry["cone"])
        free_doc = entry.get("locally_free")
        if free_doc is None:
            continue
        if not isinstance(free_doc, dict):
            raise ValueError(f"entry {pos}: 'locally_free' must be an object")
        if not isinstance(verdict := free_doc.get("verdict"), bool):
            raise ValueError(f"entry {pos}: 'verdict' must be true or false, got {_excerpt(verdict)}")
        if not verdict:
            continue
        cert_doc = free_doc.get("certificate")
        if cert_doc is None:
            failures.append(f"entry {pos} ({cone.generators}): verdict true without certificate")
            continue
        cert = parse_certificate_document(cert_doc, cone)
        problem = diagnose_certificate(cone, tangent_family(cone), cert)
        if problem is not None:
            failures.append(f"entry {pos} ({cone.generators}): {problem}")
    return failures
