"""Exact linear algebra over the integers and rationals.

Everything here runs on Python's arbitrary-precision ``int``; no floating
point is used anywhere.  Vectors are plain tuples of ints, matrices are
lists of rows; the entry points copy a matrix with ``vec``'s entry check
and check its row lengths.  The normal forms (Hermite, Smith) return the
transformation matrices alongside the reduced matrix so callers can
verify the defining identities directly.  Each form is one elimination
on one matrix, and its transforms ride along as an identity block of
extra columns (U) or, for Smith, extra rows (V), so ``invariant_factors``
carries none.  Every unimodular elimination (Hermite, Smith and the
kernel's splits) takes one Euclid step: pivot on the smallest nonzero
entry and subtract from the others the nearest integer multiple
q = (2p + p_k) // (2p_k) of it, which leaves each remainder at most half
the pivot, until only the pivot is left.
``_euclid`` runs that loop on the pairings of a list of rows; a Hermite
form and a Smith form run it on each pivot's column, and ``_split_off``
on a lattice basis's pairings with a vector.  ``_split_chain`` is the
one loop that splits rows off a lattice basis: ``_split_off`` sets a
vector aside per independent row, and one Hermite form with no
transform, ``_hermite_eliminate``, makes the rest canonical.  The only
kernel, ``_kernel_basis``, is that chain on the standard basis; a
subspace's orthogonal complement and an integer solution of a @ x = b
are read off it, and the cone layer's double description takes its
lineality and split record from the same chain, and ``matrix_rank``
is the column count less the kernel's rank.
Rational subspaces keep a reduced basis by one fraction-free
elimination (cross-multiplication with a gcd reduction per row, after
Bareiss 1968 and Cohen, *A Course in Computational Algebraic Number
Theory*, §2.4).  Reducing a vector modulo a subspace is one step,
``_reduce_row``, which clears the pivot columns of any echelon basis in
pivot order.  The residue with zero pivot coordinates is unique, so that
walk lands on a positive multiple of it whichever echelon basis with
positive pivots it is given: ``RationalSubspace`` walks its reduced
basis, and the cone layer walks a Hermite basis of the lineality space.
A sum of subspaces is the constructor run on both bases.  Every entry,
of a vector, a matrix or a subspace row, goes through ``operator.index``
as in ``vec``, so a float, a rational or a string raises TypeError
instead of being rounded, cleared or parsed.
The hot vector loops, here the Euclid steps' row updates, the Hermite
reduction, the split chain's pairings and ``_reduce_row``, and in the
cone and decider layers the double description, the incidence, weight
classes, witnesses and the certificate check, call ``_kernels``: per
vector length, a dot product and two row updates written out term by
term and compiled once.  On vectors of length 3 or 4 a ``zip`` or
``map`` loop costs two to three times the unrolled expression; at
length 40 the gain is small.  The kernels do the loops' integer
operations in the same order, so every result is the same.  Their
source comes from fixed templates and the length alone, taken through
``operator.index``; no entry ever reaches the compiler.  A chained sum
nests one level per term when compiled and at 3,000 terms raises
RecursionError, so a longer dot sums a flat list of chains of at most
64 products, and every length compiles by one path.  A bounded cache
keeps the kernels of the lengths last used.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from math import gcd
from operator import index, mul, neg
from typing import Callable, Iterable, Sequence

Vector = tuple[int, ...]
Matrix = list[list[int]]


# Most products one term of the unrolled dot chains: a chained sum nests one
# level per term when compiled, and at 3,000 terms compiling it raises
# RecursionError, so longer dots sum a flat list of such chains.
_CHUNK = 64


@lru_cache(maxsize=32, typed=True)
def _kernels(n: int) -> tuple[Callable[..., int], Callable[..., list[int]],
                              Callable[..., list[int]]]:
    """Unrolled ``dot(a, b)``, ``a - q * b`` and ``s * a - t * b`` for vectors of length n.

    Each does the comprehension's integer operations in the same order,
    with no zip, map or loop; the two row updates return lists.  The
    source is built from n alone, so no vector entry ever reaches the
    compiler, and it is compiled once per length; ``typed`` keeps a
    float length from hitting an int's entry, so it reaches ``index``
    and raises TypeError.  No operand's length is checked.
    """
    n = index(n)
    if n < 0:
        raise ValueError(f"negative vector length {n}")
    products = [f"a[{i}] * b[{i}]" for i in range(n)]
    chunks = [" + ".join(products[i:i + _CHUNK]) for i in range(0, n, _CHUNK)] or ["0"]
    total = chunks[0] if len(chunks) == 1 else f"sum([{', '.join(chunks)}])"
    row_update = ", ".join(f"a[{i}] - q * b[{i}]" for i in range(n))
    combination = ", ".join(f"s * a[{i}] - t * b[{i}]" for i in range(n))
    source = (f"def dot(a, b):\n    return {total}\n"
              f"def sub(a, q, b):\n    return [{row_update}]\n"
              f"def comb(s, a, t, b):\n    return [{combination}]\n")
    namespace = {"__builtins__": {}, "sum": sum}
    exec(compile(source, f"<kernels of length {n}>", "exec"), namespace)
    return namespace["dot"], namespace["sub"], namespace["comb"]


def vec(coords: Iterable[int]) -> Vector:
    return tuple(map(index, coords))


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, map(index, a), map(index, b)))


def negated(v: Sequence[int]) -> Vector:
    return tuple(map(neg, v))


def content(v: Sequence[int]) -> int:
    """Gcd of the entries (0 for the zero vector)."""
    return gcd(*v)


def primitive(v: Iterable[int]) -> Vector:
    """Divide out the content, leaving the shortest integer vector on the same ray.

    Raises ValueError on the zero vector, which spans no ray.
    """
    v = tuple(v)
    g = content(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple([c // g for c in v])


def is_primitive(v: Sequence[int]) -> bool:
    return content(v) == 1


def identity_matrix(n: int) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def copy_matrix(a: Sequence[Sequence[int]]) -> Matrix:
    """A copy of a, its entries through ``operator.index`` as in ``vec``; rows of one length.

    A float raises TypeError and rows of different lengths ValueError.
    """
    rows = [list(map(index, row)) for row in a]
    if len(lengths := set(map(len, rows))) > 1:
        raise ValueError(f"ragged matrix: row lengths {sorted(lengths)}")
    return rows


def transpose(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_vec(a: Sequence[Sequence[int]], x: Sequence[int]) -> Vector:
    x = vec(x)
    return tuple(dot(row, x) for row in copy_matrix(a))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """a @ b, both operands copied through ``copy_matrix``."""
    a, b = copy_matrix(a), copy_matrix(b)
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimension mismatch")
    bt = transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def determinant(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination.

    Rows the step would leave as they are go untouched, so a permutation
    costs only its row swaps.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    return _bareiss(copy_matrix(a))


def _bareiss(m: Matrix) -> int:
    """The determinant of a nonempty square matrix of int lists, unchecked; m is overwritten."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        same = m[k][k] == prev
        for i in range(k + 1, n):
            if same and not m[i][k]:
                continue  # the step would scale this row by pivot / prev = 1
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def matrix_rank(a: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix over Q: the column count less the kernel's rank."""
    rows = copy_matrix(a)
    n = len(rows[0]) if rows else 0
    return n - len(_kernel_basis(rows, n))


def _euclid(rows: list[Sequence[int]], live: list[int], pairings: list[int],
            sub: Callable[..., list[int]]) -> int:
    """Unimodular Euclid steps on rows until one pairs nonzero; its index.

    pairings[j] is row j's pairing and live lists, in index order, each j
    whose pairing is nonzero.  The row k of smallest |p_k| is subtracted
    q times from each other live row, q the nearest integer to p_j / p_k,
    and rows whose pairing drops to zero leave; the pairings are updated
    with the rows.  Ties go to the lowest index.  A round leaves every
    other pairing at most |p_k| / 2 in size, so the pivot of the next
    round is found among them in the same pass that updates them.  sub
    is the row-update kernel of ``_kernels`` for the rows' length.
    """
    k = live[0]
    best = abs(pairings[k])
    for j in live:
        if abs(pairings[j]) < best:
            k, best = j, abs(pairings[j])
    while len(live) > 1:
        pk, rk = pairings[k], rows[k]
        survivors, pivot, best = [], k, 0
        for j in live:
            if j != k:
                p = pairings[j]
                q = (2 * p + pk) // (2 * pk)
                if q:
                    p -= q * pk
                    pairings[j] = p
                    rows[j] = sub(rows[j], q, rk)
                if not p:
                    continue
                if not best or abs(p) < best:
                    pivot, best = j, abs(p)
            survivors.append(j)
        live, k = survivors, pivot
    return k


def _hermite_eliminate(h: Matrix, ncols: int) -> None:
    """Bring the first ncols columns of h to Hermite form in place; further columns ride along.

    Each column's entries are the pairings of ``_euclid`` on the rows not
    yet holding a pivot; the one row left nonzero becomes the next pivot
    row, made positive, and the rows above are reduced into [0, pivot).
    """
    m = len(h)
    if not m:
        return
    sub = _kernels(len(h[0]))[1]
    row = 0
    for col in range(ncols):
        live = [i for i in range(row, m) if h[i][col]]
        if not live:
            continue
        pairings = [r[col] for r in h]
        k = _euclid(h, live, pairings, sub)
        h[row], h[k] = h[k], h[row]
        if h[row][col] < 0:
            h[row] = [-c for c in h[row]]
        top = h[row]
        p = top[col]
        for i in range(row):
            q = h[i][col] // p
            if q:
                h[i] = sub(h[i], q, top)
        row += 1


def hermite_normal_form(a: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U @ a, U unimodular, H upper staircase with
    positive pivots, entries above each pivot reduced into [0, pivot),
    and zero rows collected at the bottom.  U is read off [a | I].
    """
    rows = copy_matrix(a)
    n = len(rows[0]) if rows else 0
    hu = [row + e for row, e in zip(rows, identity_matrix(len(rows)))]
    _hermite_eliminate(hu, n)
    return [row[:n] for row in hu], [row[n:] for row in hu]


def _smith_eliminate(d: Matrix, m: int, n: int) -> None:
    """Bring the top-left m x n block of d to Smith form in place; further rows and columns ride along.

    For each pivot t, ``_euclid`` clears column t below row t (a zero
    column swaps in the first later nonzero one, or the block is done)
    and row t is reduced by nearest-integer multiples of the pivot.  The
    smallest remainder, at most half the pivot and the leftmost on ties,
    is swapped into column t, and the step runs again.  When
    the pivot then fails to divide the rest of the block, the offending
    row is added to row t, which leaves a remainder too.
    """
    sub = _kernels(len(d[0]) if d else 0)[1]
    t = 0
    while t < min(m, n):
        live = [i for i in range(t, m) if d[i][t]]
        if not live:
            j = next((j for j in range(t + 1, n) if any(d[i][j] for i in range(t, m))), None)
            if j is None:
                break
            for r in d:
                r[t], r[j] = r[j], r[t]
            continue
        k = _euclid(d, live, [r[t] for r in d], sub)
        d[t], d[k] = d[k], d[t]
        top = d[t]
        p = top[t]
        best, pj = 0, t
        for j in range(t + 1, n):
            q = (2 * top[j] + p) // (2 * p)
            if q:
                # the column step; rows zero in column t stay as they are
                for r in d:
                    if r[t]:
                        r[j] -= q * r[t]
            c = abs(top[j])
            if c and (not best or c < best):
                best, pj = c, j
        if best:
            for r in d:
                r[t], r[pj] = r[pj], r[t]
            continue
        off = next((i for i in range(t + 1, m) if any(c % p for c in d[i][t + 1:n])), None)
        if off is not None:
            d[t] = [a + b for a, b in zip(top, d[off])]
            continue
        if p < 0:
            d[t] = [-c for c in top]
        t += 1


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form.

    Returns (D, U, V) with D = U @ a @ V, U and V unimodular, D diagonal
    with nonnegative entries d_1 | d_2 | ... (nonzero factors first).
    U and V are read off [a | I] stacked over I.
    """
    rows = copy_matrix(a)
    m = len(rows)
    n = len(rows[0]) if rows else 0
    d = [row + e for row, e in zip(rows, identity_matrix(m))] + identity_matrix(n)
    _smith_eliminate(d, m, n)
    return [row[:n] for row in d[:m]], [row[n:] for row in d[:m]], d[m:]


def invariant_factors(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith form, in divisibility order; no transform is built."""
    d = copy_matrix(a)
    m, n = len(d), len(d[0]) if d else 0
    _smith_eliminate(d, m, n)
    return tuple(d[i][i] for i in range(min(m, n)) if d[i][i])


def solve_integer_system(a: Sequence[Sequence[int]], b: Sequence[int]) -> Vector | None:
    """One integer solution x of a @ x = b, or None when no integer solution exists.

    The kernel of [a | -b] holds (x, s) exactly when a @ x = s b, and its
    last coordinates form the ideal of the s that occur.  ``_euclid`` on
    them leaves one kernel vector with the generator of that ideal last;
    a solution exists when the generator is a unit, and that vector, made
    to end in 1, gives it.  The steps are deterministic, so equal inputs
    always give equal outputs.
    """
    rows = copy_matrix(a)
    if len(b) != len(rows):
        raise ValueError(f"system has {len(rows)} equations but {len(b)} right-hand sides")
    n = len(rows[0]) if rows else 0
    kernel: list[Sequence[int]] = _kernel_basis([row + [-c] for row, c in zip(rows, vec(b))], n + 1)
    pairings = [x[n] for x in kernel]
    live = [j for j, s in enumerate(pairings) if s]
    if not live:
        return None
    k = _euclid(kernel, live, pairings, _kernels(n + 1)[1])
    s = pairings[k]
    return tuple([s * c for c in kernel[k][:n]]) if abs(s) == 1 else None


def integer_kernel_basis(a: Sequence[Sequence[int]]) -> list[Vector]:
    """Canonical basis of the saturated kernel {x in Z^n : a @ x = 0}.

    Works on a with n columns, so a must not be empty.  The rows returned
    are the Hermite normal form of a kernel basis, so the result is
    canonical for the kernel as a sublattice; the basis comes from Euclid
    steps on the standard basis, not from a Hermite transform.
    """
    rows = copy_matrix(a)
    if not rows:
        raise ValueError("cannot infer ambient rank from an empty matrix; pass explicit rows")
    return _kernel_basis(rows, len(rows[0]))


@lru_cache(maxsize=16)
def _standard_basis(rank: int) -> tuple[Vector, ...]:
    """The standard basis of Z^rank, built once per rank."""
    return tuple(vec(row) for row in identity_matrix(rank))


def _split_off(basis: list[Sequence[int]], a: Sequence[int]) -> Vector | None:
    """Pop the one vector of a lattice basis that pairs nonzero with a, after Euclid steps.

    ``_euclid`` runs on the pairings with a until one vector pairs
    nonzero; it is popped and returned with its sign set to pair
    positively.  None when every pairing is 0.
    """
    pair, sub, _ = _kernels(len(a))
    pairings = [pair(a, b) for b in basis]
    live = [j for j, p in enumerate(pairings) if p]
    if not live:
        return None
    k = _euclid(basis, live, pairings, sub)
    b0 = basis.pop(k)
    return tuple(b0) if pairings[k] > 0 else negated(b0)


def _split_chain(rows: Iterable[Sequence[int]], basis: Iterable[Sequence[int]], rank: int
                 ) -> tuple[list[Vector | None], list[Vector]]:
    """Split each row in turn off a lattice basis in Z^rank: the record and the Hermite rows left.

    Entry i of the record is the vector b with <rows[i], b> > 0 that
    ``_split_off`` set aside for rows[i], or None where every vector left
    pairs to zero with it.  The steps are unimodular, so the vectors left
    are a basis of the lattice's points on which every row vanishes, and
    their Hermite form is unique for it.  An empty basis, the lineality
    of a pointed cone, sets nothing aside and leaves nothing to reduce.
    """
    basis = list(basis)
    if not basis:
        return [None for _ in rows], []
    record = [_split_off(basis, row) for row in rows]
    _hermite_eliminate(basis, rank)
    return record, [tuple(b) for b in basis]


def _kernel_basis(rows: Iterable[Sequence[int]], rank: int) -> list[Vector]:
    """Hermite basis of the saturated kernel in Z^rank of rows of length rank (Z^rank for none)."""
    return _split_chain(rows, _standard_basis(rank), rank)[1]


def extends_to_lattice_basis(vectors: Sequence[Sequence[int]]) -> bool:
    """Whether the given integer vectors extend to a basis of the full lattice.

    True exactly when they are linearly independent and every invariant
    factor of their matrix equals 1.  The empty family extends trivially.
    """
    rows = [vec(v) for v in vectors]
    factors = invariant_factors(rows)
    return len(factors) == len(rows) and all(f == 1 for f in factors)


class RationalSubspace:
    """A linear subspace of Q^n, stored by canonical primitive integer rows.

    The stored basis is the reduced row echelon basis with every row scaled
    to a primitive integer vector whose pivot entry is positive.  That basis
    is unique, so two subspaces compare equal exactly when they contain the
    same vectors.  Instances are immutable and hashable.  Rows are read
    through ``vec``; a rational row is given as an integer multiple of it.
    """

    __slots__ = ("ambient", "basis", "_pivots")

    def __init__(self, ambient: int, rows: Iterable[Sequence[int]] = ()):
        ambient = index(ambient)
        if ambient < 0:
            raise ValueError("ambient dimension must be nonnegative")
        vectors = []
        for row in map(vec, rows):
            if len(row) != ambient:
                raise ValueError(f"row length {len(row)} in ambient dimension {ambient}")
            vectors.append(row)
        _set_span(self, ambient, vectors)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("RationalSubspace is immutable")

    @classmethod
    def _from_vectors(cls, ambient: int, rows: Iterable[Vector]) -> "RationalSubspace":
        """The span of rows that are vectors of length ambient already, read unchecked.

        For rows whose entries and lengths were checked where they were
        made, by ``decode_vector`` or an elimination, so ``vec`` and the
        length test would only read them again.
        """
        sub = object.__new__(cls)
        _set_span(sub, ambient, rows)
        return sub

    @classmethod
    def _line(cls, u: Vector) -> "RationalSubspace":
        """The line through a primitive nonzero vector, built canonical with no elimination."""
        p = next(j for j, c in enumerate(u) if c)
        line = object.__new__(cls)
        object.__setattr__(line, "ambient", len(u))
        object.__setattr__(line, "basis", (u if u[p] > 0 else negated(u),))
        object.__setattr__(line, "_pivots", (p,))
        return line

    @classmethod
    @lru_cache(maxsize=16)
    def zero(cls, ambient: int) -> "RationalSubspace":
        return cls(ambient)

    @classmethod
    @lru_cache(maxsize=16)
    def full(cls, ambient: int) -> "RationalSubspace":
        return cls(ambient, identity_matrix(ambient))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[int]) -> bool:
        v = vec(v)
        if len(v) != self.ambient:
            raise ValueError(f"vector length {len(v)} in ambient dimension {self.ambient}")
        return not any(_reduce_row(v, self.basis, self._pivots))

    def contains_subspace(self, other: "RationalSubspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        if other.dim >= self.dim:
            return other.basis == self.basis
        return all(self.contains(row) for row in other.basis)

    def __add__(self, other: "RationalSubspace") -> "RationalSubspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return RationalSubspace(self.ambient, self.basis + other.basis)

    def intersection(self, other: "RationalSubspace") -> "RationalSubspace":
        return (self.orthogonal_complement() + other.orthogonal_complement()).orthogonal_complement()

    def orthogonal_complement(self) -> "RationalSubspace":
        """Complement with respect to the standard dot product on Q^n.

        The saturated integer kernel of the stored rows, ``_kernel_basis``,
        spans it over Q.
        """
        return RationalSubspace(self.ambient, _kernel_basis(self.basis, self.ambient))

    def integer_basis(self) -> list[Vector]:
        """The stored basis: RREF rows rescaled to primitive integer vectors."""
        return list(self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSubspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        rows = ", ".join("(" + ", ".join(str(c) for c in row) + ")" for row in self.basis)
        return f"RationalSubspace({self.ambient}, [{rows}])"


def _set_span(sub: RationalSubspace, ambient: int, rows: Iterable[Sequence[int]]) -> None:
    """Fill a new subspace's slots with the canonical basis of the span of rows."""
    basis: list[Sequence[int]] = []
    pivots: list[int] = []
    for row in rows:
        _insert_row(basis, pivots, row)
    object.__setattr__(sub, "ambient", ambient)
    object.__setattr__(sub, "basis", tuple(map(tuple, basis)))
    object.__setattr__(sub, "_pivots", tuple(pivots))


def _reduce_row(work: Sequence[int], basis: Sequence[Sequence[int]],
                pivots: Sequence[int]) -> Sequence[int]:
    """Clear the pivot columns of work against an echelon basis by cross-multiplication.

    Each step replaces work by ``d * work - c * row`` with d > 0, after
    dividing out gcd(c, d), so the result is a positive multiple of a
    residue of work modulo the span of the basis.  The rows are walked in
    pivot order and each row is zero left of its pivot, so a step never
    touches a column already cleared: the basis need only be in echelon
    form.  The result is zero at every pivot column, and only one residue
    is, so any echelon basis of the same subspace with positive pivots
    gives the same result up to a positive factor.
    """
    comb = _kernels(len(work))[2]
    for row, p in zip(basis, pivots):
        c = work[p]
        if c:
            d = row[p]
            g = gcd(c, d)
            c //= g
            d //= g
            work = comb(d, work, c, row)
    return work


def _insert_row(basis: list[Sequence[int]], pivots: list[int], row: Sequence[int]) -> None:
    """Add one row to a canonical basis held as lists, keeping it canonical.

    The residue of row, made primitive with a positive pivot, goes in pivot
    order, or nowhere when row lies in the span.  The rows above it are
    then cleared at its pivot; the rows below it are zero there already.
    An empty basis leaves row as its own residue, and a residue of
    content 1 needs at most its sign changed.
    """
    work = _reduce_row(row, basis, pivots) if basis else row
    p = next((j for j, c in enumerate(work) if c), None)
    if p is None:
        return
    g = content(work)
    if work[p] < 0:
        g = -g
    new = work if g == 1 else [c // g for c in work]
    k = bisect(pivots, p)
    pivots.insert(k, p)
    basis.insert(k, new)
    for i in range(k):
        if basis[i][p]:
            basis[i] = primitive(_reduce_row(basis[i], (new,), (p,)))
