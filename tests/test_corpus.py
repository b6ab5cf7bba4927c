"""Deterministic generation and the named example library."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toricfree import corpus
from toricfree.cones import Cone, NotStronglyConvexError
from toricfree.corpus import (
    MAX_GENERATORS,
    PRNG_ALGORITHM,
    GenerationBudgetError,
    GeneratorConfig,
    NamedExample,
    default_config,
    iter_random_cones,
    lookup,
    named_examples,
    random_cone,
    sample_cones,
    _draw_cone,
    _uniform,
)
from toricfree.fans import Fan


@given(seed=st.integers(0, 2**64), bound=st.integers(1, 2**70),
       low=st.integers(0, MAX_GENERATORS), width=st.integers(0, 10))
def test_uniform_draws_the_randint_stream(seed, bound, low, width):
    # coordinates in [-bound, bound], then generator counts in [low, low + width],
    # min = max included; the two generators must end in the same state too
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(20):
        assert _uniform(ours.getrandbits, -bound, bound) == theirs.randint(-bound, bound)
        assert _uniform(ours.getrandbits, low, low + width) == theirs.randint(low, low + width)
    assert ours.getstate() == theirs.getstate()


def draw_by_uniform(rng, config):
    """``_draw_cone`` drawing every number through ``_uniform``, one call per coordinate."""
    bits, bound = rng.getrandbits, config.bound
    for _ in range(corpus.REJECTION_LIMIT):
        k = _uniform(bits, config.min_generators, config.max_generators)
        gens = [[_uniform(bits, -bound, bound) for _ in range(config.rank)] for _ in range(k)]
        if any(all(c == 0 for c in g) for g in gens):
            continue
        try:
            return Cone(gens, config.rank)
        except NotStronglyConvexError:
            continue
    raise GenerationBudgetError(
        f"no strongly convex cone found in {corpus.REJECTION_LIMIT} attempts for {config}")


def outcome(draw, rng, config):
    try:
        return draw(rng, config)
    except GenerationBudgetError as exc:
        return str(exc)


def test_draw_matches_the_nested_uniform_reference(monkeypatch):
    # the flat coordinate list draws the cones, and leaves the generator in
    # the state, of one ``_uniform`` call per coordinate of nested lists; a
    # small budget makes the crowded ranges run out of attempts now and then,
    # so the failing draw is compared as well
    monkeypatch.setattr(corpus, "REJECTION_LIMIT", 2)
    draws = failed = 0
    for rank in range(2, 7):
        for bound in range(1, 10):
            for low, high in ((0, 0), (0, rank + 2), (1, rank), (rank, 2 * rank + 2)):
                config = GeneratorConfig(rank, low, high, bound, seed=rank * 100 + bound)
                ours, theirs = random.Random(config.seed), random.Random(config.seed)
                for _ in range(10):
                    got = outcome(_draw_cone, ours, config)
                    assert got == outcome(draw_by_uniform, theirs, config)
                    assert ours.getstate() == theirs.getstate()
                    draws += 1
                    failed += isinstance(got, str)
    assert draws == 1800 and failed >= 50


def test_streams_are_bit_identical():
    cfg = default_config(3, seed=42)
    a = sample_cones(cfg, 60)
    b = sample_cones(cfg, 60)
    assert a == b
    # a different seed diverges quickly
    c = sample_cones(default_config(3, seed=43), 60)
    assert a != c


def test_stream_prefix_stability():
    cfg = default_config(2, seed=9)
    long = sample_cones(cfg, 50)
    short = sample_cones(cfg, 20)
    assert long[:20] == short


def test_golden_first_cones():
    # pinned outputs: any change to the sampler or to cone
    # canonicalization shows up here first
    assert [c.generators for c in sample_cones(default_config(2, seed=1), 3)] == [
        ((-1, -4), (1, -1)),
        ((-1, -2), (1, 1)),
        ((-1, 1), (3, -5)),
    ]
    assert [c.generators for c in sample_cones(default_config(3, seed=1), 2)] == [
        ((-2, 1, 1), (4, -4, -1)),
        ((-5, 2, -1), (-4, 2, -5), (1, 1, 4), (5, 1, -2)),
    ]
    assert random_cone(default_config(4, seed=1)).generators == (
        (2, 2, 2, 5), (4, -4, -1, -4))


def test_generated_cones_respect_config():
    cfg = GeneratorConfig(rank=3, min_generators=1, max_generators=4, bound=2, seed=77)
    for cone in sample_cones(cfg, 120):
        assert cone.rank == 3
        assert cone.is_strongly_convex
        # canonical generators may be fewer than drawn, never more;
        # primitivization can push coordinates past the draw bound, so
        # no coordinate bound is asserted here
        assert len(cone.generators) <= 4


def test_zero_generator_config_yields_zero_cone():
    cfg = GeneratorConfig(rank=2, min_generators=0, max_generators=0, bound=1, seed=5)
    cone = random_cone(cfg)
    assert cone == Cone.zero(2)


def test_budget_exhaustion_raises():
    # 30 draws from {-1,0,1}^2 essentially never stay strongly convex
    cfg = GeneratorConfig(rank=2, min_generators=30, max_generators=30, bound=1, seed=0)
    with pytest.raises(GenerationBudgetError) as raised:
        random_cone(cfg)
    assert str(raised.value) == (
        "no strongly convex cone found in 10000 attempts for GeneratorConfig("
        "rank=2, min_generators=30, max_generators=30, bound=1, seed=0)")


def test_config_repr_is_fixed():
    # the budget error's message embeds it
    assert repr(default_config(3, 7)) == (
        "GeneratorConfig(rank=3, min_generators=1, max_generators=5, bound=5, seed=7)")


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(rank=1, min_generators=1, max_generators=2, bound=5, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(rank=7, min_generators=1, max_generators=2, bound=5, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(rank=2, min_generators=3, max_generators=2, bound=5, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(rank=2, min_generators=-1, max_generators=2, bound=5, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(rank=2, min_generators=1, max_generators=2, bound=0, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(rank=2, min_generators=1, max_generators=MAX_GENERATORS + 1,
                        bound=5, seed=0)


# one out-of-range field of default_config(3, 7) per check the config makes
OUT_OF_RANGE = [
    ("rank", 1),
    ("rank", 7),
    ("min_generators", -1),
    ("min_generators", 6),
    ("max_generators", 0),
    ("max_generators", MAX_GENERATORS + 1),
    ("bound", 0),
]


@pytest.mark.parametrize("field, value", OUT_OF_RANGE)
def test_config_is_checked_however_it_is_made(field, value):
    base = default_config(3, 7)
    fields = {**base._asdict(), field: value}
    with pytest.raises(ValueError):
        GeneratorConfig(**fields)
    with pytest.raises(ValueError):
        GeneratorConfig._make(fields.values())
    with pytest.raises(ValueError):
        base._replace(**{field: value})


def test_config_is_an_immutable_named_tuple():
    cfg = default_config(3, 7)
    assert cfg == (3, 1, 5, 5, 7)
    assert cfg._asdict() == {"rank": 3, "min_generators": 1, "max_generators": 5,
                             "bound": 5, "seed": 7}
    moved = cfg._replace(seed=8)
    assert type(moved) is GeneratorConfig and moved == (3, 1, 5, 5, 8)
    assert type(GeneratorConfig._make(cfg)) is GeneratorConfig
    with pytest.raises(AttributeError):
        cfg.rank = 4
    with pytest.raises(AttributeError):
        cfg.extra = 1


def test_default_config_shape():
    cfg = default_config(4, seed=3)
    assert (cfg.rank, cfg.min_generators, cfg.max_generators, cfg.bound) == (4, 1, 6, 5)
    assert default_config(2, seed=0, bound=9).bound == 9


def test_verdict_mix_is_healthy():
    from toricfree.smoothness import is_smooth_cone
    for rank in (2, 3):
        cones = sample_cones(default_config(rank, seed=555), 300)
        smooth = sum(1 for c in cones if is_smooth_cone(c).verdict)
        assert 0.05 * len(cones) < smooth < 0.95 * len(cones)


def test_prng_identifier():
    assert PRNG_ALGORITHM == "python-random-mt19937"


def test_named_example_table():
    table = named_examples()
    names = [e.name for e in table]
    assert names == sorted(names)
    assert len(names) == len(set(names)) == 15
    expected = {
        "zero": (True, True),
        "ray-e1": (True, True),
        "ray-12": (True, True),
        "ray-112": (True, True),
        "orthant2": (True, True),
        "orthant3": (True, True),
        "conifold": (False, False),
        "P2": (True, True),
        "P1xP1": (True, True),
        "P112": (False, False),
        "A1": (False, False),
        "A2": (False, False),
        "A3": (False, False),
        "A4": (False, False),
        "A5": (False, False),
    }
    assert {e.name: (e.smooth, e.locally_free) for e in table} == expected
    for e in table:
        assert isinstance(e.geometry, (Cone, Fan))


def test_lookup():
    ex = lookup("A1")
    assert isinstance(ex, NamedExample)
    assert ex.geometry == Cone([(1, 0), (1, 2)], 2)
    with pytest.raises(KeyError):
        lookup("nonsense")


def test_iterator_is_endless():
    it = iter_random_cones(default_config(2, seed=8))
    first = [next(it) for _ in range(5)]
    assert all(isinstance(c, Cone) for c in first)
