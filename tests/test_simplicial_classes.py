"""Exhaustive agreement on every simplicial cone up to an index.

A k-dimensional simplicial cone in rank n is equivalent under GL_n(Z) to
the cone on the rows of a k x k lower-triangular Hermite normal form H,
padded with n - k zero columns: H has diagonal d_i > 0, entries
0 <= h_ij < d_i left of it and primitive rows, and its index is
det H = d_1 ... d_k (Schrijver, Theory of Linear and Integer Programming,
ch. 4).  Both deciders' answers are invariant under GL_n(Z), so running
them on every such H of index at most D covers every simplicial cone
class of index at most D, with no random draw.

Besides agreement, each cone is held to closed forms that no decider
computes: both verdicts hold iff the index is 1, the invariant factors of
the rays are one per ray, each dividing the next, and multiply to the
index, a reported invariant factor divides it, and a negative
local-freeness report names a ray of the cone.

Run as a script, it checks one dimension up to a larger index and exits
non-zero on the first failed check:

    PYTHONPATH=src python3 tests/test_simplicial_classes.py 3 40
"""

import math
import random
import sys
from itertools import product

import pytest

from oracles import brute_force_locally_free
from toricfree.cones import Cone
from toricfree.lattice import invariant_factors
from toricfree.verifier import check_zariski_lipman

AMBIENT = 5

# cone dimension -> (largest index, number of Hermite forms of index up to it)
BOUNDS = {2: (60, 1102), 3: (24, 5534), 4: (8, 1954), 5: (4, 649)}


def hermite_forms(k, max_index):
    """Every k x k lower-triangular Hermite form with primitive rows and index <= max_index.

    Yields (rows, index); row i is (h_i1, ..., h_i(i-1), d_i, 0, ..., 0).
    """
    def extend(rows, index):
        i = len(rows)
        if i == k:
            yield rows, index
            return
        for d in range(1, max_index // index + 1):
            for left in product(range(d), repeat=i):
                if math.gcd(d, *left) == 1:
                    yield from extend(rows + [left + (d,) + (0,) * (k - i - 1)], index * d)

    yield from extend([], 1)


def padded(rows):
    return [row + (0,) * (AMBIENT - len(row)) for row in rows]


def check_form(rows, index):
    """Both deciders on the cone of one padded Hermite form, held to the closed forms."""
    cone = Cone(padded(rows), AMBIENT)
    rays = cone.rays()
    assert len(rays) == cone.dim == len(rows), rows
    record = check_zariski_lipman(cone)
    smooth, free = record.smooth, record.locally_free
    assert record.agree, rows
    assert smooth.verdict == free.verdict == (index == 1), rows
    factors = invariant_factors(rays)
    assert len(factors) == len(rows) and math.prod(factors) == index, rows
    assert all(b % a == 0 for a, b in zip(factors, factors[1:])), rows
    if index > 1:
        assert smooth.invariant_factor > 1 and index % smooth.invariant_factor == 0, rows
        assert free.failing_ray in rays, rows
    return cone


def check_all(k, max_index):
    """Check every Hermite form of dimension k and index up to max_index; returns their count."""
    count = 0
    for rows, index in hermite_forms(k, max_index):
        check_form(rows, index)
        count += 1
    return count


@pytest.mark.parametrize("k", sorted(BOUNDS))
def test_every_simplicial_class_up_to_an_index_agrees(k):
    max_index, expected = BOUNDS[k]
    assert check_all(k, max_index) == expected


def test_the_forms_are_distinct_and_of_their_index():
    # the enumeration itself: no form twice, and the diagonal product of each
    forms = list(hermite_forms(3, 12))
    assert len(set(map(tuple, (rows for rows, _ in forms)))) == len(forms)
    assert all(math.prod(row[i] for i, row in enumerate(rows)) == index for rows, index in forms)
    # in dimension 2: the identity alone at index 1, one form of index 2
    assert [rows for rows, index in hermite_forms(2, 2)] == [
        [(1, 0), (0, 1)], [(1, 0), (1, 2)]]


@pytest.mark.parametrize("k", sorted(BOUNDS))
def test_brute_force_oracle_agrees_on_a_seeded_subset(k):
    max_index, _ = BOUNDS[k]
    forms = list(hermite_forms(k, max_index))
    # the identity, index 1, comes first; the sample is almost all of index above 1
    for rows, index in forms[:1] + random.Random(800 + k).sample(forms, 11):
        cone = check_form(rows, index)
        assert brute_force_locally_free(cone) == (index == 1), rows


if __name__ == "__main__":
    dim, bound = map(int, sys.argv[1:3])
    print(f"dimension {dim}, index <= {bound}: {check_all(dim, bound)} cones checked")
