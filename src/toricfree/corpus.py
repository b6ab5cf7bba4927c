"""Deterministic cone generation and the named example library.

Random cones come from rejection sampling with Python's Mersenne Twister
(`random.Random`), which is reproducible across platforms and versions;
the algorithm identifier below travels with every report so a sweep can
be replayed from its seed.  Each integer is drawn from the generator's
raw bits by ``_uniform``, the rule ``randint`` follows, so the stream is
``randint``'s without depending on how ``randint`` is written.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Union

from .cones import Cone, NotStronglyConvexError
from .fans import Fan, fan_from_generators

PRNG_ALGORITHM = "python-random-mt19937"

REJECTION_LIMIT = 10_000

# Cap on the generator count of one draw; each draw allocates that many vectors.
MAX_GENERATORS = 64


class GenerationBudgetError(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


class _GeneratorFields(NamedTuple):
    rank: int
    min_generators: int
    max_generators: int
    bound: int
    seed: int


class GeneratorConfig(_GeneratorFields):
    """Parameters for the random cone stream.

    Coordinates are drawn uniformly from [-bound, bound]; the generator
    count is drawn uniformly from [min_generators, max_generators], with
    max_generators at most ``MAX_GENERATORS``; draws containing the zero
    vector or spanning a line are rejected whole.  Every way of making a
    config, ``_make`` and ``_replace`` too, goes through the checks in
    ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, rank: int, min_generators: int, max_generators: int,
                bound: int, seed: int):
        if not 2 <= rank <= 6:
            raise ValueError(f"rank {rank} outside the supported range 2..6")
        if min_generators < 0 or min_generators > max_generators:
            raise ValueError("generator count range is empty or negative")
        if max_generators > MAX_GENERATORS:
            raise ValueError(
                f"max_generators {max_generators} exceeds the cap {MAX_GENERATORS}")
        if bound < 1:
            raise ValueError("coordinate bound must be at least 1")
        return super().__new__(cls, rank, min_generators, max_generators, bound, seed)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def default_config(rank: int, seed: int, bound: int = 5) -> GeneratorConfig:
    """Generator counts 1 through rank+2: a healthy mix of dimensions."""
    return GeneratorConfig(rank=rank, min_generators=1,
                           max_generators=rank + 2, bound=bound, seed=seed)


def iter_random_cones(config: GeneratorConfig) -> Iterator[Cone]:
    """Endless reproducible stream of strongly convex cones."""
    rng = random.Random(config.seed)
    while True:
        yield _draw_cone(rng, config)


def random_cone(config: GeneratorConfig) -> Cone:
    """First cone of the stream for this config."""
    return next(iter_random_cones(config))


def sample_cones(config: GeneratorConfig, count: int) -> list[Cone]:
    return list(islice(iter_random_cones(config), count))


def _uniform(getrandbits: Callable[[int], int], low: int, high: int) -> int:
    """A uniform integer in [low, high] from ``getrandbits``, as ``randint`` draws it.

    That is CPython's ``_randbelow`` rule on the width n = high - low + 1:
    draw n.bit_length() bits, again while the result is at least n.  A
    one-value range still draws bits.
    """
    n = high - low + 1
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return low + r


def _draw_cone(rng: random.Random, config: GeneratorConfig) -> Cone:
    bits, bound, rank = rng.getrandbits, config.bound, config.rank
    for _ in range(REJECTION_LIMIT):
        k = _uniform(bits, config.min_generators, config.max_generators)
        coords = [_uniform(bits, -bound, bound) for _ in range(k * rank)]
        gens = [coords[i:i + rank] for i in range(0, len(coords), rank)]
        if not all(map(any, gens)):
            continue
        try:
            return Cone(gens, config.rank)
        except NotStronglyConvexError:
            continue
    raise GenerationBudgetError(
        f"no strongly convex cone found in {REJECTION_LIMIT} attempts for {config}")


class NamedExample(NamedTuple):
    """A library cone or fan with its expected verdict pair."""

    name: str
    geometry: Union[Cone, Fan]
    smooth: bool
    locally_free: bool


def named_examples() -> tuple[NamedExample, ...]:
    """The regression corpus with hand-checked verdicts."""
    examples = [
        NamedExample("zero", Cone.zero(2), True, True),
        NamedExample("ray-e1", Cone([(1, 0)], 2), True, True),
        NamedExample("ray-12", Cone([(1, 2)], 2), True, True),
        NamedExample("ray-112", Cone([(1, 1, 2)], 3), True, True),
        NamedExample("orthant2", Cone([(1, 0), (0, 1)], 2), True, True),
        NamedExample("orthant3", Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3), True, True),
        NamedExample("conifold", Cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3),
                     False, False),
        NamedExample("P2", fan_from_generators(
            [[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]], 2), True, True),
        NamedExample("P1xP1", fan_from_generators(
            [[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)], [(0, -1), (1, 0)]], 2),
            True, True),
        NamedExample("P112", fan_from_generators(
            [[(1, 0), (0, 1)], [(0, 1), (-1, -2)], [(-1, -2), (1, 0)]], 2), False, False),
    ]
    for k in range(1, 6):
        examples.append(NamedExample(
            f"A{k}", Cone([(1, 0), (1, k + 1)], 2), False, False))
    examples.sort(key=lambda e: e.name)
    return tuple(examples)


def lookup(name: str) -> NamedExample:
    for example in named_examples():
        if example.name == name:
            return example
    raise KeyError(f"no named example {name!r}")
