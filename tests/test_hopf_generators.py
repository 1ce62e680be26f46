"""Associativity and the bialgebra law read on a generating set.

``check_hopf_axioms`` reads ``hopf.assoc`` only on the columns (a, b, c)
with e_a in G, a set of basis elements whose left spin is H, and reads
``hopf.bialgebra`` only on the pairs (i, j) with e_i in G, and only once
``hopf.assoc`` passed (see the ``bihomcheck.hopf`` docstring for why that
is exact). Its report is compared here with a full scan over every basis
element, the way both laws were read before:
M (M (x) id) - M (id (x) M) for associativity, and every coproduct block
for the bialgebra law. Every verdict and witness must agree byte for byte.

The inputs are the catalog Hopf algebras and the two generated parametric
files of the benchmark (Sweedler's H4 over Q(t) among them), Z2 to Z8 and
Z2 x Z2, Z3, Z4 and Z5 in seeded unimodular bases, every one-entry
perturbation of the product of Z3 and Z4, and the Drinfeld double D(S3),
which is neither commutative nor cocommutative.

The work is pinned too, next to the count of the full scan: the
``kron_sum`` calls of the bialgebra law (one per coproduct block read) and
the blocks of the product that associativity reads. For Z8 that is 8 and
8 before, 2 and 2 now; for kZ2 it is 2 and 2 on both; for Z5 in one fixed
dense basis it is 5 and 5 before, 1 and 1 now (e_0 alone generates); for
the Drinfeld doubles D(S3) and D(D4) it is 36 and 64 before, 19 and 25
now.
"""

from __future__ import annotations

import importlib.util
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from bihomcheck import hopf
from bihomcheck.algfile import parse_algebra_file
from bihomcheck.catalog import catalog_file, catalog_names
from bihomcheck.hopf import HopfAlgebra, check_hopf_axioms
from bihomcheck.linalg import (
    Matrix,
    flip,
    kron,
    kron_apply,
    kron_sum,
    multiplications,
    triples_matrix,
    vstack,
)
from bihomcheck.report import CheckReport, coefficient_witness, column_witness, decode
from bihomcheck.scalars import Scalar
from test_witnesses import conjugated, klein, with_bumped_mult, zn

ROOT = pathlib.Path(__file__).resolve().parent.parent


# -- the full scan ----------------------------------------------------------------


def full_scan(h):
    """The JSON report of ``check_hopf_axioms`` with ``hopf.assoc`` and
    ``hopf.bialgebra`` read over every basis element; the other entries are
    taken as reported."""
    d, names = h.dim, h.basis_names
    M, C, u, eps = h.M, h.C, h.u, h.eps
    rep = CheckReport("hopf")
    w = column_witness([names] * 3, names, kron_apply(M, [M, d]) - kron_apply(M, [d, M]))
    rep.add("hopf.assoc", "(ab)c = a(bc)", w is None, w)

    Ct, Mt = C.transpose(), M.transpose()
    ops = multiplications(Mt, False)
    squares = vstack([Ct @ kron_sum(x, ops, ops) for x in h.coproducts()])

    def label(c, r):
        return "(x)".join(decode(r, [names] * 2)) if r < d * d else "counit"

    one = Matrix.identity(1, h.params)
    diff = vstack([(Mt @ Ct - squares).transpose(), eps @ M - kron(eps, eps)])
    w = coefficient_witness(lambda c: decode(c, [names] * 2), label, diff) or coefficient_witness(
        lambda c: ("1",), label, vstack([C @ u - kron(u, u), eps @ u - one])
    )
    rep.add("hopf.bialgebra", "coproduct and counit are algebra maps", w is None, w)
    scanned = {e.check_id: e for e in rep.entries}
    entries = [scanned.get(e.check_id, e) for e in check_hopf_axioms(h).entries]
    return CheckReport("hopf", entries).to_json()


# -- inputs -------------------------------------------------------------------------


def _benchmark_instances():
    spec = importlib.util.spec_from_file_location("bench_instances", ROOT / "perfbench" / "instances.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unimodular(rng, d, operations):
    """A random integer P and its integer inverse Q, as a product of
    elementary row additions row_i += c row_j, c = +-1."""
    p = [[int(i == j) for j in range(d)] for i in range(d)]
    q = [row[:] for row in p]
    for _ in range(operations):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        # the inverse picks up E_ij(-c) on the right: column j -= c column i
        for row in q:
            row[j] -= c * row[i]

    def matrix(rows):
        return Matrix.from_dicts(d, d, [{c: x for c, x in enumerate(r) if x} for r in rows], ())

    return matrix(p), matrix(q)


def dense_zn(n, seed):
    """Z_n in the basis of the columns of a seeded unimodular P."""
    p, q = unimodular(random.Random(f"Z{n}:{seed}"), n, 3 * n)
    return conjugated(zn(n), p, q)


def permutation_group(n):
    """The Cayley table of S_n on its permutations in lexicographic order
    (the identity first), (pq)(i) = p(q(i))."""
    elements = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(elements)}
    return [[index[tuple(p[q[i]] for i in range(n))] for q in elements] for p in elements]


def dihedral_group(n):
    """The Cayley table of the dihedral group of order 2n on r^k s^m at
    index m*n + k, r^a s^b r^c s^e = r^(a + (-1)^b c) s^(b + e)."""
    def mul(x, y):
        (b, a), (e, c) = divmod(x, n), divmod(y, n)
        return (b + e) % 2 * n + (a + (c if b == 0 else -c)) % n

    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def drinfeld_double(table, identity=0) -> HopfAlgebra:
    """D(G) = k^G x kG (Kassel, Quantum Groups, IX.4) from the Cayley table
    of G, on the basis d_a x at index a*n + x:

    - (d_a x)(d_b y) = [a = x b x^-1] d_a xy, with unit sum_a d_a 1;
    - the coproduct of d_a x is the sum over bc = a of d_b x (x) d_c x,
      and its counit is [a = 1];
    - S(d_a x) = d_(x^-1 a^-1 x) x^-1."""
    n = len(table)
    inv = [row.index(identity) for row in table]

    def conj(x, b):
        return table[table[x][b]][inv[x]]

    one = Scalar.of((), 1)
    d = n * n
    mult = triples_matrix(
        [(a * n + x, b * n + y, a * n + table[x][y], one)
         for a in range(n) for x in range(n) for b in range(n) for y in range(n)
         if conj(x, b) == a],
        d, (),
    )
    comult = triples_matrix(
        [(table[b][c] * n + x, b * n + x, c * n + x, one)
         for b in range(n) for c in range(n) for x in range(n)],
        d, (), coproduct=True,
    )
    unit = [one if x == identity else Scalar.of((), 0) for a in range(n) for x in range(n)]
    counit = [one if a == identity else Scalar.of((), 0) for a in range(n) for x in range(n)]
    antipode = [{} for _ in range(d)]
    for a in range(n):
        for x in range(n):
            antipode[conj(inv[x], inv[a]) * n + inv[x]][a * n + x] = 1
    names = [f"d{a}.{x}" for a in range(n) for x in range(n)]
    return HopfAlgebra(names, mult, unit, comult, counit, Matrix.from_dicts(d, d, antipode, ()), ())


def hopf_inputs():
    """Name and Hopf algebra of each input of the full-scan comparison."""
    out = {f"catalog:{name}": catalog_file(name).hopf for name in catalog_names()}
    bench = _benchmark_instances()
    out["sweedler-h4"] = parse_algebra_file(bench.sweedler_h4_file()).hopf
    out["yau-m2"] = parse_algebra_file(bench.yau_m2_file()).hopf
    out.update({f"Z{n}": zn(n) for n in range(2, 9)})
    out["Z2xZ2"] = klein()
    out.update({f"dense-Z{n}:{seed}": dense_zn(n, seed) for n in (3, 4, 5) for seed in range(5)})
    out["D(S3)"] = drinfeld_double(permutation_group(3))
    return out


INPUTS = hopf_inputs()


@pytest.mark.parametrize("name", list(INPUTS))
def test_the_report_is_the_full_scan(name):
    h = INPUTS[name]
    assert check_hopf_axioms(h).to_json() == full_scan(h)


@pytest.mark.parametrize("n", [3, 4])
def test_every_product_perturbation_reports_as_the_full_scan(n):
    h = zn(n)
    failing = set()
    for i, j, k in itertools.product(range(n), repeat=3):
        bumped = with_bumped_mult(h, i, j, k)
        got = check_hopf_axioms(bumped).to_json()
        assert got == full_scan(bumped), (i, j, k)
        failing.update(e["id"] for e in got["entries"] if e["status"] == "fail")
    # the perturbations reach both laws the shortcut reads
    assert {"hopf.assoc", "hopf.bialgebra"} <= failing


def test_the_inputs_cover_the_shortcut():
    """The full-scan inputs hold D(S3), a Hopf algebra that is neither
    commutative nor cocommutative, parametric ones, and dense ones whose G
    is smaller than the basis."""
    h = INPUTS["D(S3)"]
    swap = flip(h.dim, h.dim, ())
    assert check_hopf_axioms(h).ok
    assert kron_apply(h.M, [swap]) != h.M and swap @ h.C != h.C
    assert any(len(generators(INPUTS[f"dense-Z{n}:{seed}"])) < n
               for n in (3, 4, 5) for seed in range(5))
    assert INPUTS["sweedler-h4"].params == ("t",)


# -- G --------------------------------------------------------------------------------


def generators(h):
    """G as ``check_hopf_axioms`` reads it: the first slots a of the columns
    (a, b) of the product factor M_G of its first ``kron_apply``."""
    seen = []

    def spy(x, factors):
        seen.append(factors)
        return kron_apply(x, factors)

    hopf.kron_apply, real = spy, hopf.kron_apply
    try:
        check_hopf_axioms(h)
    finally:
        hopf.kron_apply = real
    d = h.dim
    return sorted({c // d for c in seen[0][0].nonzero_columns()})


def _basis(vectors):
    """Independent Fraction rows spanning the same space as ``vectors``,
    by Gaussian elimination."""
    rows = []
    for v in vectors:
        v = [Fraction(x) for x in v]
        for row in rows:
            c = next(i for i, x in enumerate(row) if x)
            if v[c]:
                f = v[c] / row[c]
                v = [x - f * y for x, y in zip(v, row)]
        if any(v):
            rows.append(v)
    return rows


def left_spin(h, gens):
    """A basis of the span of the products g1 (g2 (... gk)) of elements of
    ``gens``, k >= 1, grown a round at a time until its rank stops rising."""
    d = h.dim
    table = [[[h.M.at(k, i * d + j).value for k in range(d)] for j in range(d)] for i in range(d)]
    span = _basis([int(k == g) for k in range(d)] for g in gens)
    while True:
        grown = _basis(span + [[sum(v[j] * table[g][j][k] for j in range(d)) for k in range(d)]
                               for g in gens for v in span])
        if len(grown) == len(span):
            return span
        span = grown


@pytest.mark.parametrize(
    "name", [n for n in INPUTS if n.startswith(("Z", "dense")) or n == "catalog:kz2"]
)
def test_g_is_the_greedy_generating_set(name):
    """e_x is in G exactly when it lies outside the left spin of the
    elements of G before it, and the spin of G is H."""
    h = INPUTS[name]
    d = h.dim
    gens = generators(h)
    for x in range(d):
        before = [g for g in gens if g < x]
        spin = left_spin(h, before)
        outside = len(_basis(spin + [[int(k == x) for k in range(d)]])) > len(spin)
        assert (x in gens) == outside, x
    assert len(left_spin(h, gens)) == d


def test_z3_with_a_broken_square_reports_as_the_full_scan():
    """Z3 with g2 g2 = g1 + g0: associativity fails at (g1, g1, g2), and
    the bialgebra law fails only at (g2, g2), a block outside G = {g0, g1}.
    It is read there because associativity failed."""
    h = with_bumped_mult(zn(3), 2, 2, 0)
    assert generators(h) == [0, 1]
    report = check_hopf_axioms(h).to_json()
    assert report == full_scan(h)
    entries = {e["id"]: e for e in report["entries"]}
    assert entries["hopf.assoc"]["witness"]["basis"] == ["g1", "g1", "g2"]
    assert entries["hopf.bialgebra"]["witness"]["basis"] == ["g2", "g2"]


# -- work ---------------------------------------------------------------------------


@pytest.fixture
def coproduct_blocks(monkeypatch):
    """The number of ``kron_sum`` calls ``check_hopf_axioms`` has made so
    far: one per coproduct block of the bialgebra law it reads."""
    seen = [0]

    def counted(*args):
        seen[0] += 1
        return kron_sum(*args)

    monkeypatch.setattr(hopf, "kron_sum", counted)
    return seen


@pytest.mark.parametrize(
    "name, h, blocks",
    [
        ("Z8", lambda: zn(8), 2),  # 8 before
        ("kz2", lambda: catalog_file("kz2").hopf, 2),  # 2 before
        ("dense Z5", lambda: dense_zn(5, 0), 1),  # 5 before
        ("D(S3)", lambda: INPUTS["D(S3)"], 19),  # 36 before
        ("D(D4)", lambda: drinfeld_double(dihedral_group(4)), 25),  # 64 before
    ],
)
def test_both_laws_read_only_the_blocks_of_g(coproduct_blocks, name, h, blocks):
    h = h()
    assert len(generators(h)) == blocks
    coproduct_blocks[0] = 0
    assert check_hopf_axioms(h).ok
    assert coproduct_blocks[0] == blocks


def test_a_nonassociative_product_reads_every_coproduct_block(coproduct_blocks):
    h = with_bumped_mult(zn(3), 2, 2, 0)
    check_hopf_axioms(h)
    assert coproduct_blocks[0] == 3
