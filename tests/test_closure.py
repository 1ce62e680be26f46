"""Ideal closures against the round-based definition.

``ideal_closure`` spins one echelon form: it reduces only the images of
rows that have just entered the span and stops early when the span is
full. The reference here is the closure by definition, written without
the echelon: the span of the current rows and all their images, in
rounds, until a round adds nothing. The two must give the same RREF
subspace for every seed, including seeds that already lie inside a proper
ideal, on parametric and dense instances and on one whose coproduct is not
cocommutative.
"""

from __future__ import annotations

import functools

import pytest

from bihomcheck.bihom import BiHomLie, commutator_bracket
from bihomcheck.catalog import trivial_hopf, trivial_rmatrix
from bihomcheck.hmod import HModule, ModuleMap
from bihomcheck.linalg import Matrix, Subspace, rref
from bihomcheck.scalars import Scalar
from bihomcheck.structure import ideal_closure
from shipped import shipped
from test_structure_pins import conjugate, matrix_algebra
from test_witnesses import sweedler


def closure_by_rounds(x, seed: Subspace, kind: str) -> Subspace:
    """Span of the current rows and their images under alpha, beta, the
    H-action and the products with every basis vector, until it is fixed."""
    d, params = x.module.dim, x.params
    ident = Matrix.identity(d, params)
    maps = [m.transpose() for m in (x.alpha.matrix, x.beta.matrix, *x.module.action)]
    current = seed
    while True:
        rows = current.basis
        images = [rows, x.products(rows, ident)] + [rows @ m for m in maps]
        if kind == "associative":
            images.append(x.products(ident, rows))
        vecs = [r for m in images for r in m.data]
        red, rank = rref(Matrix.from_dicts(len(vecs), d, vecs, params))
        new = Subspace(d, Matrix.from_dicts(rank, d, red.data[:rank], params))
        if new == current:
            return current
        current = new


def _gl3():
    m3 = matrix_algebra(3)
    return commutator_bracket(m3, trivial_rmatrix(m3.module.hopf))


def _sweedler_commutator():
    _, r, a = sweedler()
    return commutator_bracket(a, r)


def _lie(bracket: Matrix, alpha=None, beta=None) -> BiHomLie:
    """A Lie structure over the trivial Hopf algebra; the maps default to
    the identity."""
    d, p = bracket.rows, bracket.params
    hopf = trivial_hopf()
    module = HModule(hopf, [f"e{i + 1}" for i in range(d)], [Matrix.identity(d, p)])
    alpha, beta = (
        ModuleMap(module, module, Matrix.identity(d, p) if m is None else m) for m in (alpha, beta)
    )
    return BiHomLie(module, bracket, alpha, beta, trivial_rmatrix(hopf))


def _abelian(cycled):
    """k^3 with the zero bracket and the shift e1 -> e2 -> e3 -> e1 as alpha
    or beta: a closure is spanned by the shifts of the seed, so it needs
    that map and no other operator."""
    shift = Matrix.from_dicts(3, 3, [{2: 1}, {0: 1}, {1: 1}], ())
    return _lie(Matrix.zero(3, 9, ()), **{cycled: shift})


def _filiform():
    """The filiform Lie algebra [e4, e1] = e2, [e4, e2] = e3 with its
    generator last, so closing e1 needs the bracket with the last basis
    vector and no other operator."""
    rows = [{}, {3 * 4 + 0: 1, 0 * 4 + 3: -1}, {3 * 4 + 1: 1, 1 * 4 + 3: -1}, {}]
    return _lie(Matrix.from_dicts(4, 16, rows, ()))


# name -> (structure, closure kind); M3 "lie" closes under right products
# only, so its closures are right ideals. The last three make a single
# operator (alpha, beta, the bracket with e4) the only way out of a seed.
CASES = {
    "gl3/conjugated": (lambda: conjugate(_gl3()), "lie"),
    "M3/associative": (lambda: matrix_algebra(3), "associative"),
    "M3/right": (lambda: matrix_algebra(3), "lie"),
    "example25-twisted": (lambda: shipped("example25-twisted", "L"), "lie"),
    "sweedler-A": (lambda: sweedler()[2], "associative"),
    "sweedler-commutator": (_sweedler_commutator, "lie"),
    "abelian/alpha-shift": (lambda: _abelian("alpha"), "lie"),
    "abelian/beta-shift": (lambda: _abelian("beta"), "lie"),
    "filiform4": (_filiform, "lie"),
}


@functools.cache
def case(name):
    """The structure, its kind and the smallest proper closure of a basis
    vector or of all products (None when each of them is 0 or the whole
    space)."""
    build, kind = CASES[name]
    x = build()
    d, p = x.module.dim, x.params
    ident = Matrix.identity(d, p)
    proper = None
    for rows in [[row] for row in ident.data] + [x.products(ident, ident).data]:
        c = closure_by_rounds(x, Subspace.span(d, rows, p), kind)
        if 0 < c.dim < d and (proper is None or c.dim < proper.dim):
            proper = c
    return x, kind, proper


def test_some_case_has_a_proper_ideal_to_seed_inside():
    # otherwise no seed below starts inside a proper ideal
    assert case("gl3/conjugated")[2] is not None
    assert case("M3/right")[2] is not None
    assert case("example25-twisted")[2] is not None
    assert case("sweedler-commutator")[2] is not None
    assert case("filiform4")[2] is not None


@pytest.mark.parametrize("name", sorted(CASES))
def test_closure_matches_the_rounds(name):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    x, kind, proper = case(name)
    d, p = x.module.dim, x.params
    ident = Matrix.identity(d, p)

    for row in [{}] + ident.data:
        seed = Subspace.span(d, [row], p)
        assert ideal_closure(x, seed, kind) == closure_by_rounds(x, seed, kind)

    @hypothesis.settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        inside=st.booleans(),
        coeffs=st.lists(
            st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=1, max_size=2
        ),
    )
    def check(inside, coeffs):
        # seed rows are combinations of the basis of a proper ideal, when
        # there is one and ``inside`` asks for it, else of the whole space
        gens = proper.basis.data if inside and proper is not None else ident.data
        gens = Matrix.from_dicts(len(gens), d, gens, p)
        rows = [[sum((Scalar.of(p, c) * g for c, g in zip(cs, col)), Scalar.of(p, 0))
                 for col in map(gens.col, range(d))] for cs in coeffs]
        seed = Subspace.from_rows(d, rows, p)
        got = ideal_closure(x, seed, kind)
        assert got == closure_by_rounds(x, seed, kind)
        if inside and proper is not None:
            assert proper.first_outside(got.basis) is None

    check()
