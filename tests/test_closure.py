"""Ideal closures against the round-based definition.

``ideal_closure`` spins one echelon form: it reduces only the images of
rows that have just entered the span and stops early when the span is
full. The reference here is the closure by definition, written without
the echelon: the span of the current rows and all their images, in
rounds, until a round adds nothing. The two must give the same RREF
subspace for every seed, including seeds that already lie inside a proper
ideal, on parametric and dense instances and on one whose coproduct is not
cocommutative.

A span may stop at a ceiling, the dimension of a subspace known to hold
it. The spin under each closed subspace that holds the seed must give the
closure by rounds; each series, whose terms are capped by the term before
once the series decreases, must equal the series by definition, with no
ceiling; whether a series reaches zero must be whether its term after n =
dim steps, made with no early exit, is zero; and the nonprime pair search,
which stops at the first nonzero product, must agree with the test on all
products. The references make
every product at once, as the matrix kron(U, V) B^T, and the product
rows that the structure makes one pair at a time must be its rows.
"""

from __future__ import annotations

import functools

import pytest

from bihomcheck.bihom import BiHomAlgebra, BiHomLie, commutator_bracket
from bihomcheck.catalog import trivial_hopf, trivial_rmatrix
from bihomcheck.hmod import HModule, ModuleMap
from bihomcheck.linalg import Matrix, Subspace, kron, rref
from bihomcheck.scalars import Scalar
from bihomcheck.structure import (
    SERIES_STABLE,
    SERIES_UNSETTLED,
    SERIES_ZERO,
    _annihilates,
    _closure_operators,
    _series,
    _spin,
    derived_series,
    ideal_closure,
    lower_central_series,
)
from shipped import shipped
from test_structure_pins import conjugate, matrix_algebra
from test_witnesses import sweedler


def _rref_span(rows: Matrix) -> Subspace:
    """The span of the rows, from their RREF."""
    d = rows.cols
    red, rank = rref(rows)
    return Subspace(d, Matrix.from_dicts(rank, d, red.data[:rank], rows.params))


def all_products(x, left: Matrix, right: Matrix) -> Matrix:
    """Every product at once, as the matrix kron(left, right) B^T: row
    i*right.rows + j is (row i of left) (row j of right)."""
    return kron(left, right) @ x.structure_matrix().transpose()


def closure_by_rounds(x, seed: Subspace, kind: str) -> Subspace:
    """Span of the current rows and their images under alpha, beta, the
    H-action and the products with every basis vector, until it is fixed."""
    d, params = x.module.dim, x.params
    ident = Matrix.identity(d, params)
    maps = [m.transpose() for m in (x.alpha.matrix, x.beta.matrix, *x.module.action)]
    current = seed
    while True:
        rows = current.basis
        images = [rows, all_products(x, rows, ident)] + [rows @ m for m in maps]
        if kind == "associative":
            images.append(all_products(x, ident, rows))
        vecs = [r for m in images for r in m.data]
        new = _rref_span(Matrix.from_dicts(len(vecs), d, vecs, params))
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
    for rows in [[row] for row in ident.data] + [all_products(x, ident, ident).data]:
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
            assert all(map(proper._holds, got.basis.data))

    check()


@functools.cache
def closed_subspaces(name):
    """The distinct closures by rounds of each basis vector and of all
    products, and the whole space."""
    x, kind, _ = case(name)
    d, p = x.module.dim, x.params
    ident = Matrix.identity(d, p)
    out = [Subspace.full_space(d, p)]
    for rows in [[row] for row in ident.data] + [all_products(x, ident, ident).data]:
        c = closure_by_rounds(x, Subspace.span(d, rows, p), kind)
        if c not in out:
            out.append(c)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_spin_under_any_closed_subspace_holding_the_seed_is_the_closure(name):
    x, kind, _ = case(name)
    d, p = x.module.dim, x.params
    ops = _closure_operators(x, kind)
    closed = closed_subspaces(name)
    # the zero seed, each basis vector and each basis row of a closed subspace
    rows = [{}] + Matrix.identity(d, p).data + [r for u in closed for r in u.basis.data]
    capped = 0
    for row in rows:
        seed = Subspace.span(d, [row], p)
        want = closure_by_rounds(x, seed, kind)
        holders = [u for u in closed if all(map(u._holds, seed.basis.data))]
        assert holders, "the whole space holds every seed"
        for u in holders:
            got = _spin(x, seed, ops, u)
            assert got == want
            capped += got is u and u.dim < d
    # some spin stops at the ceiling of a proper closed subspace
    assert capped or all(u.dim in (0, d) for u in closed)


def _next_term(x, start: Subspace, term: Subspace, derived: bool) -> Subspace:
    """V_k V_k or V_k start, the RREF of all its products, with no ceiling."""
    return _rref_span(all_products(x, term.basis, (term if derived else start).basis))


def series_by_definition(x, start: Subspace, derived: bool):
    """(terms, verdict, step) of V1 = start and V_{k+1} = V_k V_k or V_k
    start for at most n = dim steps, each term from ``_next_term``."""
    terms, term = [start], start
    if start.dim == 0:
        return terms, SERIES_ZERO, 0
    n = start.ambient_dim
    for step in range(1, n + 1):
        nxt = _next_term(x, start, term, derived)
        if nxt == term:
            return terms, SERIES_STABLE, step - 1
        terms.append(nxt)
        if nxt.dim == 0:
            return terms, SERIES_ZERO, step
        term = nxt
    return terms, SERIES_UNSETTLED, n


def _one_dim_abelian():
    return _lie(Matrix.zero(1, 1, ()))


def _cross_product_abelian():
    lie = shipped("cross-product-classical", "L")
    return BiHomLie(lie.module, Matrix.zero(3, 9, ()), lie.alpha, lie.beta, lie.rmatrix)


def _nil_powers(n=3):
    """span(x, x^2, ..., x^n) with x^i x^j = x^{i+j} and x^{n+1} = 0 over
    the trivial Hopf algebra, identity maps: the powers of the whole space
    lose one dimension at each step, so they take all n steps to reach 0."""
    module = HModule(trivial_hopf(), [f"x{i + 1}" for i in range(n)], [Matrix.identity(n, ())])
    rows = [{i * n + j: 1 for i in range(n) for j in range(n) if i + j + 1 == k}
            for k in range(n)]
    ident = ModuleMap.identity(module)
    return BiHomAlgebra(module, Matrix.from_dicts(n, n * n, rows, ()), ident, ident)


def _gl2():
    m2 = shipped("trivial-hopf", "A")
    return commutator_bracket(m2, trivial_rmatrix(m2.module.hopf))


def _gl2_pair():
    a = matrix_algebra(2, 2)
    return commutator_bracket(a, trivial_rmatrix(a.module.hopf))


# every structure of CASES and of tests/test_structure.py
SERIES_INPUTS = {
    **{name: (lambda name=name: case(name)[0]) for name in CASES},
    "example25-heisenberg/L": lambda: shipped("example25-heisenberg", "L"),
    "example25-heisenberg/A": lambda: shipped("example25-heisenberg", "A"),
    "example24/A": lambda: shipped("example24", "A"),
    "trivial-hopf/A": lambda: shipped("trivial-hopf", "A"),
    "cross-product-classical/L": lambda: shipped("cross-product-classical", "L"),
    "cross-product/abelian": _cross_product_abelian,
    "one-dim/abelian": _one_dim_abelian,
    "nil-powers": _nil_powers,
    "gl2": _gl2,
    "gl2+gl2": _gl2_pair,
}


def _series_triple(res):
    return res.terms, res.verdict, res.step


@functools.cache
def series_starts(name):
    """Zero, the whole space, each basis vector, each span of two
    consecutive basis vectors and each closure of a basis vector."""
    x = SERIES_INPUTS[name]()
    d, p = x.module.dim, x.params
    ident = Matrix.identity(d, p).data
    starts = [Subspace.zero_space(d, p), Subspace.full_space(d, p)]
    starts += [Subspace.span(d, [row], p) for row in ident]
    starts += [Subspace.span(d, ident[i : i + 2], p) for i in range(d - 1)]
    closures = []
    for row in ident:
        c = ideal_closure(x, Subspace.span(d, [row], p))
        if c not in closures:
            closures.append(c)
    return x, starts, closures


@pytest.mark.parametrize("name", sorted(SERIES_INPUTS))
def test_series_with_the_ceiling_match_the_definition(name):
    x, starts, closures = series_starts(name)
    full = starts[1]
    assert _series_triple(derived_series(x)) == series_by_definition(x, full, True)
    for start in starts + closures:
        got = lower_central_series(x, start)
        assert _series_triple(got) == series_by_definition(x, start, False)
    for c in closures:
        # the powers C, CC, (CC)C, ... of a closure, as the certificate takes them
        got = _series(x, c, derived=False, ideal=True)
        assert _series_triple(got) == series_by_definition(x, c, False)


def _reaches_zero_by_definition(x, start: Subspace, derived: bool) -> bool:
    """Whether V_{n+1} = 0, from all n steps of ``_next_term`` with no early
    exit."""
    term = start
    for _ in range(start.ambient_dim):
        term = _next_term(x, start, term, derived)
    return term.dim == 0


@pytest.mark.parametrize("name", sorted(SERIES_INPUTS))
def test_n_steps_decide_whether_a_series_reaches_zero(name):
    x, starts, closures = series_starts(name)
    full = starts[1]
    # decreasing chains: the derived series, the whole space and the powers
    # of a closure settle within n steps
    decreasing = [derived_series(x), lower_central_series(x, full)]
    decreasing += [_series(x, c, derived=False, ideal=True) for c in closures]
    assert all(res.verdict != SERIES_UNSETTLED for res in decreasing)
    assert decreasing[0].reaches_zero == _reaches_zero_by_definition(x, full, True)
    for c, res in zip(closures, decreasing[2:]):
        assert res.reaches_zero == _reaches_zero_by_definition(x, c, False)
    for start in starts + closures:
        got = lower_central_series(x, start).reaches_zero
        assert got == _reaches_zero_by_definition(x, start, False)


def test_a_series_can_take_all_n_steps():
    x = SERIES_INPUTS["nil-powers"]()
    res = lower_central_series(x, Subspace.full_space(3, ()))
    assert ([t.dim for t in res.terms], res.verdict, res.step) == ([3, 2, 1, 0], SERIES_ZERO, 3)


def test_some_series_start_is_not_decreasing():
    # V2 is not inside V1 for span(x1, x2) of the Heisenberg bracket, so its
    # lcs runs with no ceiling; on M3 under right products span(E12, E21)
    # never decreases (V2 = span(E11, E22), V3 = V1, ...) for all 9 steps
    x = SERIES_INPUTS["example25-heisenberg/L"]()
    d, p = x.module.dim, x.params
    x1x2 = Subspace.span(d, Matrix.identity(d, p).data[:2], p)
    terms, verdict, step = series_by_definition(x, x1x2, False)
    assert [t.dim for t in terms] == [2, 1, 0] and not terms[0]._holds(terms[1].basis.data[0])
    assert _series_triple(lower_central_series(x, x1x2)) == (terms, verdict, step)
    # the golden `structure example25-heisenberg lcs --object L --space 0,0,1`
    x3 = Subspace.span(d, [{2: 1}], p)
    assert _series_triple(lower_central_series(x, x3)) == series_by_definition(x, x3, False)
    m3 = case("M3/right")[0]
    e12_e21 = Subspace.span(9, [{1: 1}, {3: 1}], ())
    terms, verdict, step = series_by_definition(m3, e12_e21, False)
    assert (len(terms), verdict, step) == (10, SERIES_UNSETTLED, 9)
    assert _series_triple(lower_central_series(m3, e12_e21)) == (terms, verdict, step)


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_nonprime_search_agrees_with_all_products(name):
    x, _, _ = case(name)
    closed = closed_subspaces(name)
    for a in closed:
        for b in closed:
            assert _annihilates(x, a, b) == all_products(x, a.basis, b.basis).is_zero()


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_product_rows_are_the_rows_of_all_products(name):
    x, _, _ = case(name)
    closed = closed_subspaces(name)
    for a in closed:
        for b in closed:
            want = all_products(x, a.basis, b.basis).data
            assert list(x.products(a.basis.data, b.basis.data)) == want


def test_the_nonprime_search_sees_both_answers():
    seen = {
        _annihilates(x, a, b)
        for name in CASES
        for x in [case(name)[0]]
        for a in closed_subspaces(name)
        for b in closed_subspaces(name)
    }
    assert seen == {True, False}
