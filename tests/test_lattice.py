"""Exact linear algebra: normal forms, integer solving, rational subspaces."""

import hashlib
import random
from fractions import Fraction
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    fraction_rank,
    fraction_rref_rows,
    kernel_by_hermite_transform,
    solve_by_smith,
    sympy_determinant,
    sympy_hermite_normal_form,
    sympy_invariant_factors,
    sympy_solve_integer,
    xgcd,
    xgcd_hermite_normal_form,
    xgcd_invariant_factors,
    xgcd_smith_normal_form,
)
from timing import deadline
from toricfree.cones import Cone
from toricfree.lattice import (
    RationalSubspace,
    _hermite_eliminate,
    _kernels,
    _split_chain,
    _split_off,
    _standard_basis,
    content,
    determinant,
    dot,
    extends_to_lattice_basis,
    hermite_normal_form,
    integer_kernel_basis,
    invariant_factors,
    is_primitive,
    mat_mul,
    mat_vec,
    matrix_rank,
    negated,
    primitive,
    smith_normal_form,
    solve_integer_system,
    transpose,
    vec,
)
from toricfree.serialize import parse_fan_document

int_entries = st.integers(min_value=-20, max_value=20)


@st.composite
def int_matrices(draw, max_dim=5, entries=int_entries):
    m = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=1, max_value=max_dim))
    return [[draw(entries) for _ in range(n)] for _ in range(m)]


def pivot(row):
    return next(j for j, c in enumerate(row) if c)


def assert_hermite_form(h):
    """Zero rows at the bottom, staircase pivots, positive pivots, reduced above."""
    nonzero = [row for row in h if any(row)]
    assert h[:len(nonzero)] == nonzero
    pivots = [pivot(row) for row in nonzero]
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for i, row in enumerate(nonzero):
        p = pivots[i]
        assert row[p] > 0
        for j in range(i):
            assert 0 <= nonzero[j][p] < row[p]


def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((-3, 6)) == (-1, 2)
    assert primitive((5,)) == (1,)
    assert primitive(c for c in (2, 4)) == (1, 2)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_xgcd_identity():
    rng = random.Random(0)
    for _ in range(500):
        a, b = rng.randint(-99, 99), rng.randint(-99, 99)
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


@settings(max_examples=200)
@given(int_matrices())
def test_hermite_normal_form_contract(a):
    h, u = hermite_normal_form(a)
    assert mat_mul(u, a) == h
    assert abs(determinant(u)) == 1
    assert_hermite_form(h)


@settings(max_examples=200)
@given(int_matrices())
def test_smith_normal_form_contract(a):
    d, u, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    m, n = len(a), len(a[0])
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(m, n))]
    factors = [x for x in diag if x]
    assert diag[:len(factors)] == factors
    assert all(x > 0 for x in factors)
    for a_, b_ in zip(factors, factors[1:]):
        assert b_ % a_ == 0


@settings(max_examples=150)
@given(int_matrices(max_dim=4))
def test_invariant_factors_match_sympy(a):
    assert invariant_factors(a) == sympy_invariant_factors(a)


def test_dense_normal_forms_are_fast_and_exact():
    # the extended-gcd elimination took 28.9 s on one dense 30 x 30 Hermite
    # form; the checks run outside the deadline, each oracle only up to the
    # size it handles within about a quarter of a second
    rng = random.Random(2230)
    shapes = [(k, k) for k in (1, 3, 8, 16, 24, 30)] + [(8, 16), (16, 8), (20, 30), (30, 20)]
    matrices = [[[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(m)]
                for m, n in shapes]
    matrices.append(_product(rng, 24, 12, 24, 288))  # rank 12, entries up to 10^6
    for a in matrices:
        m, n = len(a), len(a[0])
        with deadline(3):
            h, u = hermite_normal_form(a)
            d, du, dv = smith_normal_form(a)
            factors = invariant_factors(a)
        assert mat_mul(u, a) == h and abs(determinant(u)) == 1
        assert_hermite_form(h)
        assert mat_mul(mat_mul(du, a), dv) == d
        # the transforms stay small: 6,207 bits at most here, where the Smith
        # form that searched the whole block for each pivot reached 26,283
        assert max(abs(c).bit_length() for row in du + dv for c in row) <= 10_000
        assert abs(determinant(du)) == abs(determinant(dv)) == 1
        assert factors == tuple(d[i][i] for i in range(min(m, n)) if d[i][i])
        if max(m, n) <= 16:
            assert h == xgcd_hermite_normal_form(a)[0]
        if max(m, n) <= 24:
            assert factors == xgcd_invariant_factors(a)
        if max(m, n) <= 20:
            assert h == sympy_hermite_normal_form(a)
            assert factors == sympy_invariant_factors(a)


def test_determinant_matches_sympy_on_sparse_and_dense_matrices():
    # the sparse draws hit the rows that Bareiss skips: zero in the pivot column
    # under a pivot equal to the previous one
    rng = random.Random(2121)
    for n in range(1, 9):
        for density in (0.15, 0.4, 1.0):
            for _ in range(40):
                bound = rng.choice([1, 3, 1000])
                a = [[rng.randint(-bound, bound) if rng.random() < density else 0
                      for _ in range(n)] for _ in range(n)]
                assert determinant(a) == sympy_determinant(a)


def test_permutation_determinant_is_fast():
    # the zero-skipping step leaves a permutation's rows alone: only swaps remain
    n = 256
    perm = list(range(n))
    random.Random(256).shuffle(perm)
    a = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                sign = -sign
    # stepping every row takes about 0.7 s per matrix (Python 3.11, 2-core machine)
    with deadline(1):
        assert determinant(a) == sign
        assert determinant(transpose(a)) == sign
        assert determinant([[int(i == j) for j in range(n)] for i in range(n)]) == 1


def test_square_determinant_is_product_of_invariant_factors():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        det = determinant(a)
        prod = 1
        for f in invariant_factors(a):
            prod *= f
        if det == 0:
            assert len(invariant_factors(a)) < n
        else:
            assert abs(det) == prod


@settings(max_examples=200)
@given(int_matrices(max_dim=4, entries=st.integers(min_value=-6, max_value=6)),
       st.data())
def test_solve_integer_system_round_trip(a, data):
    n = len(a[0])
    x0 = [data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(n)]
    b = list(mat_vec(a, x0))
    x = solve_integer_system(a, b)
    assert x is not None
    assert list(mat_vec(a, x)) == b
    # deterministic
    assert solve_integer_system(a, b) == x


@settings(max_examples=200)
@given(int_matrices(max_dim=4, entries=st.integers(min_value=-6, max_value=6)),
       st.data())
def test_solve_integer_system_matches_sympy_solvability(a, data):
    m = len(a)
    b = [data.draw(st.integers(min_value=-10, max_value=10)) for _ in range(m)]
    mine = solve_integer_system(a, b)
    theirs = sympy_solve_integer(a, b)
    assert (mine is None) == (theirs is None)
    if mine is not None:
        assert list(mat_vec(a, mine)) == b


def test_solve_integer_system_unsolvable_cases():
    assert solve_integer_system([[2]], [1]) is None
    assert solve_integer_system([[1, 0], [1, 0]], [1, 2]) is None
    assert solve_integer_system([[2, 0], [0, 3]], [4, 6]) == (2, 2)
    assert solve_integer_system([], []) == ()
    assert transpose([]) == []
    with pytest.raises(ValueError):
        solve_integer_system([[1, 2]], [1, 2])
    with pytest.raises(TypeError):
        solve_integer_system([[2]], [1.0])


@pytest.mark.parametrize("call", [
    determinant,
    matrix_rank,
    hermite_normal_form,
    smith_normal_form,
    invariant_factors,
    integer_kernel_basis,
    lambda a: solve_integer_system(a, [0] * len(a)),
    lambda a: mat_mul(a, a),
    lambda a: mat_mul([[1, 2]], a),
    lambda a: mat_vec(a, [1, 1]),
], ids=["determinant", "matrix_rank", "hermite_normal_form", "smith_normal_form",
        "invariant_factors", "integer_kernel_basis", "solve_integer_system", "mat_mul",
        "mat_mul_right_operand", "mat_vec"])
def test_entry_points_take_integer_matrices_only(call):
    # a float is never rounded and a short row never truncates the others
    with pytest.raises(TypeError):
        call([[1.5, 2], [3, 4]])
    with pytest.raises(ValueError):
        call([[1, 2], [3]])


@settings(max_examples=200)
@given(int_matrices(max_dim=5, entries=st.integers(min_value=-5, max_value=5)))
def test_integer_kernel_basis_spans_saturated_kernel(a):
    kernel = integer_kernel_basis(a)
    m = len(a)
    for v in kernel:
        assert mat_vec(a, v) == (0,) * m
    assert len(kernel) == len(a[0]) - fraction_rank(a)
    if kernel:
        # saturated sublattices have unit invariant factors
        assert extends_to_lattice_basis(kernel)


def test_integer_kernel_basis_matches_hermite_transform_oracle():
    # ranks 1-8 with zero, repeated and dependent rows; the oracle's
    # transform grows fast, so the matrices stay at most 11 columns wide
    rng = random.Random(1608)
    ranks = set()
    for rank in range(1, 9):
        for _ in range(12):
            n = rank + rng.randint(0, 3)
            bound = rng.choice((3, 10**6))
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(rank)]
            for _ in range(rng.randint(0, 3)):
                u, v = rng.choice(rows), rng.choice(rows)
                rows.append(rng.choice([[0] * n, list(u), [2 * x - 3 * y for x, y in zip(u, v)]]))
            rng.shuffle(rows)
            ranks.add(matrix_rank(rows))
            assert integer_kernel_basis(rows) == kernel_by_hermite_transform(rows)
    assert ranks == set(range(1, 9))


# SHA-256 of the kernel below as the Hermite-transform kernel computed it;
# that took over a minute on this matrix.
PINNED_DENSE_KERNEL_DIGEST = "1641ec5d10b5f477d3a6a8332fe1b041fa37b4d4c229a02c173a744306fbddd7"


def test_dense_kernel_is_fast_and_pinned():
    rng = random.Random(7)
    a = [[rng.randint(-10**6, 10**6) for _ in range(30)] for _ in range(29)]
    with deadline(10):
        kernel = integer_kernel_basis(a)
    assert len(kernel) == 1 and is_primitive(kernel[0])
    assert mat_vec(a, kernel[0]) == (0,) * 29
    assert hashlib.sha256(repr(kernel).encode()).hexdigest() == PINNED_DENSE_KERNEL_DIGEST


def test_extends_to_lattice_basis_examples():
    assert extends_to_lattice_basis([])
    assert extends_to_lattice_basis([(1, 0), (0, 1)])
    assert extends_to_lattice_basis([(1, 2)])
    assert extends_to_lattice_basis([(2, 1)])
    assert not extends_to_lattice_basis([(2, 0)])
    assert not extends_to_lattice_basis([(1, 0), (1, 2)])
    assert not extends_to_lattice_basis([(1, 0), (0, 1), (1, 1)])


@settings(max_examples=200)
@given(int_matrices(max_dim=5, entries=st.integers(min_value=-9, max_value=9)))
def test_matrix_rank_matches_fraction_elimination(a):
    assert matrix_rank(a) == fraction_rank(a)


@st.composite
def subspaces(draw, ambient):
    k = draw(st.integers(min_value=0, max_value=ambient))
    rows = [[draw(st.integers(min_value=-4, max_value=4)) for _ in range(ambient)]
            for _ in range(k)]
    return RationalSubspace(ambient, rows)


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_subspace_sum_and_intersection_dimensions(ambient, data):
    a = data.draw(subspaces(ambient))
    b = data.draw(subspaces(ambient))
    total = a + b
    meet = a.intersection(b)
    assert total.dim + meet.dim == a.dim + b.dim
    assert a.contains_subspace(meet) and b.contains_subspace(meet)
    assert total.contains_subspace(a) and total.contains_subspace(b)


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_subspace_complement_is_complementary(ambient, data):
    a = data.draw(subspaces(ambient))
    c = a.orthogonal_complement()
    assert a.dim + c.dim == ambient
    assert a.intersection(c).dim == 0
    assert (a + c) == RationalSubspace.full(ambient)
    assert c.orthogonal_complement() == a


def _subspace_pairs(rng, n):
    """Pairs (a, b) of subspaces of Q^n: b = a, b in a, a in b, equal dimensions, zero, full."""
    def rows(k):
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]

    def combos(basis, k):
        return [[sum(rng.randint(-2, 2) * v[j] for v in basis) for j in range(n)]
                for _ in range(k)]

    a = RationalSubspace(n, rows(rng.randint(1, n)))
    yield a, RationalSubspace(n, combos(a.basis, a.dim + 1))
    yield a, RationalSubspace(n, combos(a.basis, rng.randint(0, a.dim)))
    v = combos(a.basis, 1)[0]
    if any(v):
        yield a, RationalSubspace._line(primitive(v))
    yield a, a + RationalSubspace(n, rows(1))
    yield a, RationalSubspace(n, rows(a.dim))
    yield a, RationalSubspace(n, rows(rng.randint(0, n)))
    yield a, RationalSubspace(n, [])
    yield a, RationalSubspace.full(n)


def test_contains_subspace_matches_fraction_elimination():
    # b lies in a exactly when adding b's rows leaves a's reduced basis alone;
    # both orders of each pair run the full-space, equal-or-larger-dimension
    # and row-by-row branches, each answer drawn at least once
    rng = random.Random(2506)
    answers = set()
    for _ in range(25):
        for n in range(1, 7):
            for a, b in _subspace_pairs(rng, n):
                for s, t in ((a, b), (b, a)):
                    expected = fraction_rref_rows(list(s.basis + t.basis), n) == s.basis
                    assert s.contains_subspace(t) is expected, (s.basis, t.basis)
                    branch = "full" if s.dim == n else "dims" if t.dim >= s.dim else "rows"
                    answers.add((branch, expected))
    assert answers == {("full", True), ("dims", True), ("dims", False),
                       ("rows", True), ("rows", False)}


def test_subspace_canonical_equality():
    s = RationalSubspace(3, [(1, 2, 3), (2, 4, 6), (0, 0, 1)])
    t = RationalSubspace(3, [(1, 2, 0), (0, 0, 1)])
    assert s == t
    assert hash(s) == hash(t)
    assert s.dim == 2
    assert s.contains((3, 6, 7))
    assert not s.contains((0, 1, 0))
    assert s.integer_basis() == [(1, 2, 0), (0, 0, 1)]


def test_subspace_degenerate_cases():
    zero = RationalSubspace.zero(3)
    full = RationalSubspace.full(3)
    assert zero.dim == 0 and full.dim == 3
    assert zero.orthogonal_complement() == full
    assert full.orthogonal_complement() == zero
    assert zero + full == full
    assert full.intersection(zero) == zero
    with pytest.raises(ValueError):
        RationalSubspace(2, [(1, 2, 3)])
    with pytest.raises(ValueError):
        full.contains((1, 0))


def test_subspace_fraction_rows():
    # a rational row is not cleared of denominators: it raises as in vec
    with pytest.raises(TypeError):
        RationalSubspace(2, [[Fraction(1, 2), Fraction(3, 4)]])
    with pytest.raises(TypeError):
        RationalSubspace.full(2).contains((Fraction(1, 2), 1))


def test_non_integer_entries_are_rejected():
    # floats are not rounded, Fractions not cleared and strings not parsed; bools stay exact
    for bad in ([0.5, 1], [1.0, 2], ["1", "2"], [Fraction(1, 2), 1]):
        with pytest.raises(TypeError):
            vec(bad)
        with pytest.raises(TypeError):
            RationalSubspace(2, [bad])
        with pytest.raises(TypeError):
            RationalSubspace.full(2).contains(bad)
    with pytest.raises(TypeError):
        RationalSubspace(2.5)
    with pytest.raises(TypeError):
        mat_vec([[1.5, 2]], [2, 1])
    with pytest.raises(TypeError):
        mat_vec([[1, 2]], [0.5, 1])
    with pytest.raises(TypeError):
        dot([0.5], [2])
    with pytest.raises(TypeError):
        dot([2], [Fraction(1, 2)])
    assert vec([True, False]) == (1, 0)
    assert RationalSubspace(2, [[True, False]]).basis == ((1, 0),)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=6), st.data())
def test_subspace_sum_matches_fraction_rref_oracle(ambient, data):
    pick = st.one_of(subspaces(ambient), st.just(RationalSubspace.zero(ambient)),
                     st.just(RationalSubspace.full(ambient)))
    a, b = data.draw(pick), data.draw(pick)
    total = a + b
    assert total.basis == fraction_rref_rows(list(a.basis + b.basis), ambient)
    assert total == b + a


def test_split_chain_sets_aside_one_vector_per_independent_row():
    # zero, repeated and dependent rows among drawn ones, at ranks 1-6
    rng = random.Random(2411)
    for n in range(1, 7):
        for _ in range(40):
            bound = rng.choice((2, 9, 10**4))
            rows = [[rng.randint(-bound, bound) for _ in range(n)]
                    for _ in range(rng.randint(1, n + 2))]
            if rng.random() < 0.5:
                a, b = rng.choice(rows), rng.choice(rows)
                rows.insert(rng.randint(0, len(rows)), [2 * x - y for x, y in zip(a, b)])
            if rng.random() < 0.2:
                rows.insert(rng.randint(0, len(rows)), [0] * n)
            record, left = _split_chain(rows, _standard_basis(n), n)
            assert left == integer_kernel_basis(rows)
            for i, (row, b) in enumerate(zip(rows, record, strict=True)):
                if matrix_rank(rows[:i + 1]) == matrix_rank(rows[:i]):
                    assert b is None
                else:
                    assert dot(row, b) > 0
                    assert all(dot(r, b) == 0 for r in rows[:i])
            assert abs(determinant([b for b in record if b is not None] + left)) == 1


def test_split_chain_on_an_empty_basis_matches_the_general_path():
    # a pointed cone's lineality: nothing to split off and nothing to reduce
    rng = random.Random(2703)
    for n in range(1, 6):
        for count in range(5):
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(count)]
            record = [_split_off([], row) for row in rows]
            left = []
            _hermite_eliminate(left, n)
            assert _split_chain(rows, [], n) == (record, left)
            assert _split_chain(iter(rows), (), n) == (record, left)


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))


@pytest.mark.parametrize("call, expected", [
    (lambda: integer_kernel_basis([]), "cannot infer ambient rank from an empty matrix"),
    (lambda: RationalSubspace(-1), "ambient dimension must be nonnegative"),
    (lambda: RationalSubspace(2).contains_subspace(RationalSubspace(3)),
     "ambient dimension mismatch"),
    (lambda: RationalSubspace(2) + RationalSubspace(3), "ambient dimension mismatch"),
    (lambda: RationalSubspace(2).intersection(RationalSubspace(3)), "ambient dimension mismatch"),
    (lambda: mat_mul([[1, 2]], [[1, 2]]), "inner dimension mismatch"),
    (lambda: parse_fan_document([[[1, 0]]]), "fan document must be a JSON object"),
    (lambda: Cone([(1, 0, 0), (1, 1, 0)], 3).span(), RationalSubspace(3, [(1, 0, 0), (0, 1, 0)])),
], ids=["integer_kernel_basis-empty", "subspace-negative-ambient", "contains_subspace-ambient",
        "add-ambient", "intersection-ambient", "mat_mul-inner", "parse_fan_document-non-object",
        "cone-span"])
def test_checks_no_other_test_reaches(call, expected):
    """Each input check raises its own message; a cone's span is its generators' subspace."""
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            call()
    else:
        assert call() == expected


def euclid_gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


# small, zero, negative and beyond-64-bit entries; the scale makes the content vary
vector_entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.sampled_from([2 ** 64, -2 ** 64 - 1, 2 ** 64 + 1]),
)


@st.composite
def int_vector(draw, n):
    scale = draw(st.sampled_from([1, 1, -1, 6, 2 ** 65]))
    return [scale * draw(vector_entries) for _ in range(n)]


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=6), st.sampled_from([list, tuple, iter]), st.data())
def test_vector_helpers_match_definitions(n, kind, data):
    # vec, content, is_primitive, negated and primitive take any
    # iterable; dot takes sequences, so a generator case checks it on a tuple
    v, w = data.draw(int_vector(n)), data.draw(int_vector(n))
    seq = tuple if kind is iter else kind
    g = 0
    for c in v:
        g = euclid_gcd(g, c)
    made = vec(kind(v))
    assert made == tuple(v) and all(type(c) is int for c in made)
    assert content(kind(v)) == g
    assert is_primitive(kind(v)) == (g == 1)
    assert negated(kind(v)) == tuple(-c for c in v)
    assert dot(seq(v), seq(w)) == sum(v[i] * w[i] for i in range(n))
    with pytest.raises(ValueError):
        dot(seq(v), seq(w + [1]))
    if g == 0:
        with pytest.raises(ValueError):
            primitive(kind(v))
    else:
        p = primitive(kind(v))
        assert type(p) is tuple and all(type(c) is int for c in p)
        assert [g * c for c in p] == v
        assert is_primitive(p)


def test_vector_helpers_turn_bools_into_ints():
    for v in ([True, False, True], (True,), [False, 2], [True, True]):
        p = primitive(v)
        assert p == tuple(int(c) // content(v) for c in v)
        assert all(type(c) is int for c in p), v
        assert all(type(c) is int for c in vec(v))


def test_kernels_match_their_comprehensions():
    # lengths 0-12 and one whose dot, chained as one sum, fails to compile
    rng = random.Random(3417)
    for n in [*range(13), 3000]:
        pair, sub, comb = _kernels(n)
        for _ in range(30 if n <= 12 else 3):
            bits = rng.choice((3, 64, 200))
            a = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)]
            b = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)]
            q, s, t = (rng.choice((0, 1, -1, -7, rng.randint(-2 ** 200, 2 ** 200)))
                       for _ in range(3))
            for x, y in ((a, b), (tuple(a), tuple(b)), (tuple(a), b)):
                assert pair(x, y) == sum(map(mul, x, y))
                assert sub(x, q, y) == [u - q * v for u, v in zip(x, y)]
                assert comb(s, x, t, y) == [s * u - t * v for u, v in zip(x, y)]
                assert type(sub(x, q, y)) is list and type(comb(s, x, t, y)) is list


def test_kernels_take_only_an_integer_length():
    _kernels(4)
    # a float equal to a cached length is refused, not served from the cache
    for bad in (4.0, "4", Fraction(4), None):
        with pytest.raises(TypeError):
            _kernels(bad)
    with pytest.raises(ValueError):
        _kernels(-1)
    assert _kernels(True)[0]([2], [3]) == 6  # bool is an int, as in vec
    assert _kernels.cache_info().maxsize is not None


rational_entries = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)


@st.composite
def rational_rows(draw, ambient):
    """Up to ambient + 1 rows over integers, or over integers and fractions."""
    entries = draw(st.sampled_from([st.integers(min_value=-6, max_value=6), rational_entries]))
    k = draw(st.integers(min_value=0, max_value=ambient + 1))
    return [[draw(entries) for _ in range(ambient)] for _ in range(k)]


def cleared(rows):
    """Each rational row times the lcm of its denominators: integer rows with the same span."""
    out = []
    for row in rows:
        fracs = [Fraction(c) for c in row]
        den = lcm(*(c.denominator for c in fracs))
        out.append([int(c * den) for c in fracs])
    return out


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_subspace_matches_fraction_rref_oracle(ambient, data):
    rows = data.draw(rational_rows(ambient))
    s = RationalSubspace(ambient, cleared(rows))
    assert s.basis == fraction_rref_rows(rows, ambient)
    assert s.integer_basis() == list(s.basis)
    for row in cleared(rows):
        assert s.contains(row)
    # permuting the rows and rescaling each by a nonzero rational changes nothing
    perm = data.draw(st.permutations(rows))
    scales = [data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=5)
                        .filter(bool)) for _ in perm]
    t = RationalSubspace(ambient, cleared([c * f for c in row] for row, f in zip(perm, scales)))
    assert t == s and hash(t) == hash(s)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_subspace_dimension_formula_and_complement_involution(ambient, data):
    a = RationalSubspace(ambient, cleared(data.draw(rational_rows(ambient))))
    b = RationalSubspace(ambient, cleared(data.draw(rational_rows(ambient))))
    assert (a + b).dim + a.intersection(b).dim == a.dim + b.dim
    assert a.orthogonal_complement().orthogonal_complement() == a
    assert b.orthogonal_complement().orthogonal_complement() == b


def _unit_upper(rng, n, bound):
    return [[1 if i == j else (rng.randint(-bound, bound) if j > i and rng.random() < 0.2 else 0)
             for j in range(n)] for i in range(n)]


def _product(rng, m, r, n, bound):
    f = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(m)]
    g = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(r)]
    return mat_mul(f, g)


def pinned_matrices():
    """A fixed seeded matrix set whose exact normal forms are pinned below.

    Small square, tall and wide matrices, some with zero or repeated rows,
    then four 30-60 dimensional ones with entries up to 10^6, built so
    that their transforms stay cheap to compute: unit upper triangular,
    that block stacked over sums of its rows, and two low-rank products.
    """
    rng = random.Random(20240604)
    small = [[], [[0]], [[0, 0], [0, 0]], [[7]], [[-4, 6]], [[6], [-4]]]
    for _ in range(240):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        for i in range(m):
            roll = rng.random()
            if roll < 0.15:
                a[i] = [0] * n
            elif roll < 0.3 and i:
                a[i] = [rng.choice((-2, -1, 1, 3)) * c for c in a[rng.randrange(i)]]
        small.append(a)
    top = _unit_upper(rng, 30, 5 * 10**5)
    stacked = top + [[x + rng.choice((-1, 1)) * y for x, y in zip(*rng.sample(top, 2))]
                     for _ in range(30)]
    rng.shuffle(stacked)
    large = [_unit_upper(rng, 30, 10**6), stacked,
             _product(rng, 40, 3, 60, 577), _product(rng, 50, 5, 50, 447)]
    return small, large


# SHA-256 of the exact outputs below, recorded before the elimination
# steps in lattice.py were shared, and computed here from the extended-gcd
# elimination kept in tests/oracles.py, so it pins that oracle as the
# code the package once ran.  The package's H and D are the same, being
# unique; its transforms U and V are not, and are pinned separately below.
PINNED_NORMAL_FORM_DIGEST = "618d366bcd3a631d3ebf381791c7442adec4e03931336ca030e1f11f0d3106fa"


def test_normal_forms_are_pinned():
    small, large = pinned_matrices()
    assert all(abs(c) <= 10**6 for a in large for row in a for c in row)
    digest = hashlib.sha256()
    for a in small + large:
        digest.update(repr((xgcd_hermite_normal_form(a), xgcd_smith_normal_form(a),
                            matrix_rank(a))).encode())
    assert digest.hexdigest() == PINNED_NORMAL_FORM_DIGEST


# SHA-256 of the package's exact outputs on the same set.  H and D are
# unique; the transforms U and V are not, and fix the solutions of
# ``solve_by_smith`` in tests/oracles.py, and with them the raw witnesses
# of its Smith oracle.  Neither reaches a report: the package's solver
# reads its solutions off a kernel, and the decider's witnesses are class
# representatives.
PINNED_EUCLID_NORMAL_FORM_DIGEST = "a1f7247b41115cf4e27e66bf06370987b3d95664283e25ecadb8521a0e24840a"


def test_normal_forms_match_the_oracle_and_are_pinned():
    small, large = pinned_matrices()
    digest = hashlib.sha256()
    for a in small + large:
        (h, u), (d, du, dv), rank = hermite_normal_form(a), smith_normal_form(a), matrix_rank(a)
        assert h == xgcd_hermite_normal_form(a)[0]
        assert d == xgcd_smith_normal_form(a)[0]
        assert rank == len([row for row in h if any(row)])
        assert mat_mul(u, a) == h and mat_mul(mat_mul(du, a), dv) == d
        assert abs(determinant(u)) == abs(determinant(du)) == abs(determinant(dv)) == 1
        digest.update(repr(((h, u), (d, du, dv), rank)).encode())
    assert digest.hexdigest() == PINNED_EUCLID_NORMAL_FORM_DIGEST


def test_solutions_agree_with_the_smith_oracle_on_the_pinned_set():
    # solvable right-hand sides a @ x0 and random ones, mostly unsolvable
    small, large = pinned_matrices()
    rng = random.Random(2323)
    for a in small + large:
        x0 = [rng.randint(-9, 9) for _ in (a[0] if a else ())]
        for b in (list(mat_vec(a, x0)), [rng.randint(-9, 9) for _ in a]):
            mine, theirs = solve_integer_system(a, b), solve_by_smith(a, b)
            assert (mine is None) == (theirs is None)
            for x in (mine, theirs):
                assert x is None or list(mat_vec(a, x)) == b
        assert solve_integer_system(a, list(mat_vec(a, x0))) is not None


# SHA-256 of the outputs below, recorded while both functions still ran the
# full normal forms with their transforms.  The kernels of large[2],
# large[3] and the transposed stacked matrix are left out: the extended-gcd
# Hermite form that once ended every kernel did not finish on them, so
# they were never pinned; test_large_kernels_are_fast_and_saturated checks them.
PINNED_KERNEL_DIGEST = "07f33399d94cd5236b51d06a02ff6d48761e6e55ea00dfafb7567c668cac91c2"


def test_kernels_and_invariant_factors_are_pinned():
    small, large = pinned_matrices()
    digest = hashlib.sha256()
    for a in small + large:
        digest.update(repr((invariant_factors(a), invariant_factors(transpose(a)))).encode())
    for a in [b for s in small for b in (s, transpose(s)) if b] + large[:2]:
        digest.update(repr(integer_kernel_basis(a)).encode())
    assert digest.hexdigest() == PINNED_KERNEL_DIGEST


def test_large_kernels_are_fast_and_saturated():
    _, large = pinned_matrices()
    for a in (large[2], large[3], transpose(large[1])):
        with deadline(2):
            kernel = integer_kernel_basis(a)
        assert all(mat_vec(a, v) == (0,) * len(a) for v in kernel)
        assert len(kernel) == len(a[0]) - fraction_rank(a)
        assert_hermite_form(kernel)
        # saturated: the basis extends to one of Z^n
        assert invariant_factors(kernel) == (1,) * len(kernel)


def test_matrix_rank_on_large_matrices():
    _, large = pinned_matrices()
    for a in large:
        for sub in (a, a[:len(a) // 3], transpose(a)):
            assert matrix_rank(sub) == fraction_rank(sub)
