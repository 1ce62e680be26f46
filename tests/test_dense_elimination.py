"""Dense elimination against a Fraction reference.

The catalog and benchmark inputs are small or sparse. A seeded dense 40 x 40
integer matrix makes coefficient growth in the fraction-free elimination,
or a slip in the back-substitution, show up as a wrong answer or as time;
CI also runs this file as a step of its own under a timeout. ``solve``,
``rref`` and ``kernel`` are each compared with Gauss-Jordan on Python
``Fraction`` lists.

A seeded 64 x 64 permuted identity with a few dense rows is the other
extreme, the shape of the near-identity operators that the inverse of a
trivial R-matrix is solved on: most vectors ``Echelon.add`` sees meet no
pivot held and are kept without a pass over the pivots.
"""

import math
import random
from fractions import Fraction

import pytest

from bihomcheck import linalg
from bihomcheck.errors import Singular
from bihomcheck.linalg import Matrix, kernel, rref, solve

N = 40


def _matrix(rows):
    data = [{c: x for c, x in enumerate(r) if x} for r in rows]
    return Matrix.from_dicts(len(rows), len(rows[0]), data, ())


def _dense(m):
    return [[row.get(c, 0) for c in range(m.cols)] for row in m.data]


def _fraction_rref(rows):
    """Gauss-Jordan on lists of Fractions; returns (rows, rank)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        pivot = rows[rank][c]
        rows[rank] = [x / pivot for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[rank])]
        rank += 1
    return rows, rank


def _fraction_kernel(rows):
    """The RREF basis of {v : m v = 0}, from the reference RREF of m."""
    red, rank = _fraction_rref(rows)
    cols = len(rows[0])
    pivots = [next(c for c, x in enumerate(row) if x) for row in red[:rank]]
    vecs = []
    for fc in range(cols):
        if fc not in pivots:
            v = [Fraction(0)] * cols
            v[fc] = Fraction(1)
            for pc, row in zip(pivots, red):
                v[pc] = -row[fc]
            vecs.append(v)
    red, rank = _fraction_rref(vecs)
    return red[:rank]


def _random_rows(rng, count):
    return [[rng.randint(-3, 3) for _ in range(N)] for _ in range(count)]


def _deficient_rows(rng):
    """N rows of rank N - 6: each of the last six is a small combination of
    two earlier rows, and one of them repeats a row outright."""
    rows = _random_rows(rng, N - 6)
    for k in range(6):
        a, b = rng.sample(rows[: N - 6], 2)
        f, g = (1, 0) if k == 0 else (rng.randint(-2, 2) or 1, rng.randint(-2, 2) or 1)
        rows.append([f * x + g * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows


def test_dense_solve_matches_fractions():
    rng = random.Random(40)
    rows = _random_rows(rng, N)
    rhs = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(N)]
    red, rank = _fraction_rref([r + b for r, b in zip(rows, rhs)])
    assert rank == N
    got = solve(_matrix(rows), _matrix(rhs))
    assert _dense(got) == [row[N:] for row in red]
    assert _matrix(rows) @ got == _matrix(rhs)


def test_dense_rank_deficient_rref_kernel_and_solve_match_fractions():
    rng = random.Random(41)
    rows = _deficient_rows(rng)
    m = _matrix(rows)
    red, rank = rref(m)
    want, want_rank = _fraction_rref(rows)
    assert rank == want_rank == N - 6
    assert _dense(red) == want
    ker = kernel(m)
    assert _dense(ker.basis) == _fraction_kernel(rows)
    assert (m @ ker.basis.transpose()).is_zero()
    with pytest.raises(Singular):
        solve(m, _matrix([[1]] * N))


def test_back_substituted_rows_are_primitive_within_the_hadamard_bound(monkeypatch):
    # Before the final scaling, every row of an integer span is primitive.
    # Its entries are then r x r minors of the input divided by their
    # content, so none exceeds the Hadamard bound, the product of the row
    # norms; without the content removal they grow by a pivot per step.
    rows = _deficient_rows(random.Random(42))
    bound_sq = math.prod(sum(x * x for x in r) for r in rows)
    seen = []
    monic = linalg._monic

    def record(row, c):
        seen.append(row)
        return monic(row, c)

    monkeypatch.setattr(linalg, "_monic", record)
    _, rank = rref(_matrix(rows))
    assert len(seen) == rank
    for row in seen:
        assert all(type(x) is int for x in row.values())
        assert math.gcd(*row.values()) == 1
        assert all(x * x <= bound_sq for x in row.values())


# -- a permuted identity: most vectors meet no pivot held -----------------------

P = 64


def _permuted_identity_rows(rng, dense):
    """The P x P permutation matrix of a seeded permutation, with the rows at
    ``dense`` positions replaced by dense random rows."""
    perm = list(range(P))
    rng.shuffle(perm)
    rows = [[1 if c == perm[i] else 0 for c in range(P)] for i in range(P)]
    for i in dense:
        rows[i] = [rng.randint(-3, 3) for _ in range(P)]
    return rows


def test_permuted_identity_solve_and_kernel_match_fractions():
    rng = random.Random(64)
    rows = _permuted_identity_rows(rng, [5, 23, 40, 61])
    rhs = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(P)]
    red, rank = _fraction_rref([r + b for r, b in zip(rows, rhs)])
    assert rank == P
    got = solve(_matrix(rows), _matrix(rhs))
    assert _dense(got) == [row[P:] for row in red]
    # a dense row made a combination of two others drops the rank by one
    rows[40] = [2 * x - 3 * y for x, y in zip(rows[5], rows[23])]
    m = _matrix(rows)
    ker = kernel(m)
    assert _dense(ker.basis) == _fraction_kernel(rows)
    assert ker.dim == 1 and (m @ ker.basis.transpose()).is_zero()


def test_echelon_keeps_a_vector_that_meets_no_pivot_and_drops_one_in_the_span():
    rng = random.Random(65)
    rows = _permuted_identity_rows(rng, [3, 17])[:32]
    span = linalg.Echelon(P, ())
    for row in _matrix(rows).data:
        span.add(row)
    # two columns no held pivot meets: the vector is kept as it is, primitive
    free, other = [c for c in range(P) if c not in span.pivots][:2]
    assert span.add({free: 6, other: -4}) == {free: 3, other: -2}
    rows.append([6 if c == free else -4 if c == other else 0 for c in range(P)])
    # a combination of two dense rows and a permutation row lies in the span
    inside = [2 * x - y + 5 * z for x, y, z in zip(rows[3], rows[17], rows[9])]
    assert span.add({c: x for c, x in enumerate(inside) if x}) is None
    want, rank = _fraction_rref(rows)
    assert _dense(Matrix.from_dicts(rank, P, span.rows(), ())) == want[:rank]
