"""Command-line interface.

Exit codes follow checker conventions: 0 for an affirmative verdict,
1 for a negative one, 2 for any input or usage error.  Reports go to
stdout as JSON; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterator, Sequence

from . import __version__
from .cones import Cone
from .corpus import (
    PRNG_ALGORITHM,
    GenerationBudgetError,
    GeneratorConfig,
    iter_random_cones,
    named_examples,
)
from .klyachko import sections_dimension
from .serialize import (
    cone_to_document,
    decode_int,
    locally_free_report,
    parse_geometry_document,
    recheck_report,
    smooth_report,
    sweep_report,
    verify_report,
)
from .verifier import sweep as run_sweep

AFFIRMATIVE, NEGATIVE, ERROR = 0, 1, 2


def _comma_ints(text: str) -> tuple[int, ...]:
    """A vector flag: each comma-separated part is read by ``decode_int``, as in documents."""
    try:
        return tuple(map(decode_int, text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}: {exc}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="toricfree",
        description="Exact smoothness and tangent-sheaf local-freeness checks "
                    "for rational polyhedral cones and fans.")
    parser.add_argument("--version", action="version", version=f"toricfree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the random-corpus flags shared by sweep and generate; each adds its own --count
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--rank", type=int, required=True)
    corpus.add_argument("--bound", type=int, default=5)
    corpus.add_argument("--seed", type=int, required=True)
    corpus.add_argument("--min-gens", type=int, default=1)
    corpus.add_argument("--max-gens", type=int, default=None,
                        help="defaults to rank + 2")

    p_smooth = sub.add_parser("smooth", help="decide smoothness for a cone or fan file")
    p_smooth.add_argument("file")

    p_free = sub.add_parser("locally-free",
                            help="decide tangent-sheaf local freeness for a cone or fan file")
    p_free.add_argument("file")

    p_verify = sub.add_parser("verify",
                              help="run both deciders and check they agree")
    p_verify.add_argument("file")

    p_sweep = sub.add_parser("sweep", parents=[corpus], help="random-corpus agreement sweep")
    p_sweep.add_argument("--count", type=int, required=True)

    p_sections = sub.add_parser(
        "sections", help="graded tangent-section dimension at a ray and weight")
    p_sections.add_argument("file", help="cone or fan file fixing the ambient rank")
    p_sections.add_argument("--ray", type=_comma_ints, required=True)
    p_sections.add_argument("--weight", type=_comma_ints, required=True)

    p_generate = sub.add_parser(
        "generate", parents=[corpus], help="emit random cone documents, one JSON object per line")
    p_generate.add_argument("--count", type=int, default=1)

    p_recheck = sub.add_parser(
        "recheck", help="re-verify every certificate embedded in a report file")
    p_recheck.add_argument("file")

    sub.add_parser("examples", help="list the named example corpus")

    return parser


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(doc) -> None:
    sys.stdout.write(_encode(doc, "\n") + "\n")


def _encode(value, newline: str) -> str:
    """The text of ``json.dumps(value, indent=2)``; ``newline`` breaks the line before this depth.

    With ``indent`` set, ``json`` always runs its pure-Python encoder; this
    one joins strings, hands each string to json's C quoting and each
    ``int`` to the builtin ``repr`` that json itself calls, and leaves a
    ``float`` or ``None`` to ``json.dumps``.  It takes dicts with ``str``
    keys, lists, tuples, ``str``, ``int``, ``float``, ``bool`` and ``None``,
    by exact type, and raises ``TypeError`` on anything else.
    """
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        return f"[{inner}{(',' + inner).join([_encode(v, inner) for v in value])}{newline}]"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        # the C quoting raises TypeError on a key that is not a str
        items = [f"{encode_basestring_ascii(k)}: {_encode(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if kind in _SCALAR_TEXT:
        return _SCALAR_TEXT[kind](value)
    if kind is float or value is None:
        return json.dumps(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# json's text for the scalars reports hold in bulk, looked up by exact type;
# a float (only sweep reports hold any) or None goes to ``json.dumps`` itself
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
}


def _corpus_from_args(args) -> tuple[GeneratorConfig, Iterator[Cone]]:
    """The generator config of a sweep or generate command, and its cone stream."""
    max_gens = args.max_gens if args.max_gens is not None else args.rank + 2
    config = GeneratorConfig(rank=args.rank, min_generators=args.min_gens,
                             max_generators=max_gens, bound=args.bound, seed=args.seed)
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    return config, iter_random_cones(config)


def _fold_vector_flags(argv: Sequence[str]) -> list[str]:
    """Join ``--ray -1,3`` into ``--ray=-1,3`` so negative entries parse."""
    folded = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in ("--ray", "--weight") and i + 1 < len(argv):
            folded.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            folded.append(token)
    return folded


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fold_vector_flags(argv))
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (ValueError, KeyError, OSError, RecursionError, GenerationBudgetError) as exc:
        print(f"toricfree: error: {exc}", file=sys.stderr)
        return ERROR


def _dispatch(args) -> int:
    # built per call, so the report builders are looked up by module name
    # at dispatch time like every other function called here
    report_builders = {
        "smooth": smooth_report,
        "locally-free": locally_free_report,
        "verify": verify_report,
    }
    if args.command in report_builders:
        report = report_builders[args.command](parse_geometry_document(_load_json(args.file)))
        _emit(report)
        return AFFIRMATIVE if report["verdict"] else NEGATIVE

    if args.command == "sweep":
        config, stream = _corpus_from_args(args)
        summary = run_sweep(next(stream) for _ in range(args.count))
        config_doc = {**dataclasses.asdict(config), "prng": PRNG_ALGORITHM}
        _emit(sweep_report(summary, config_doc))
        return AFFIRMATIVE if summary.all_agree else NEGATIVE

    if args.command == "sections":
        geometry = parse_geometry_document(_load_json(args.file))
        ray = args.ray
        if len(ray) != geometry.rank:
            raise ValueError(f"--ray has length {len(ray)}, document rank is {geometry.rank}")
        if len(args.weight) != geometry.rank:
            raise ValueError(
                f"--weight has length {len(args.weight)}, document rank is {geometry.rank}")
        print(sections_dimension(ray, args.weight))
        return AFFIRMATIVE

    if args.command == "generate":
        _, stream = _corpus_from_args(args)
        for _ in range(args.count):
            sys.stdout.write(json.dumps(cone_to_document(next(stream))) + "\n")
        return AFFIRMATIVE

    if args.command == "recheck":
        failures = recheck_report(_load_json(args.file))
        _emit({"kind": "recheck", "failures": failures, "verdict": not failures})
        return AFFIRMATIVE if not failures else NEGATIVE

    if args.command == "examples":
        rows = [{"name": e.name,
                 "kind": "fan" if hasattr(e.geometry, "cones") else "cone",
                 "smooth": e.smooth, "locally_free": e.locally_free}
                for e in named_examples()]
        _emit({"kind": "examples", "examples": rows})
        return AFFIRMATIVE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
