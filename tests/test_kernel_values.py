"""Elimination and the Hopf multiplication operators on kernel values.

``rref``, ``Echelon``, ``Subspace.span``, ``invert``, ``kernel`` and
``HopfAlgebra.tensor_square_mult`` run on raw constants (an ``int`` or a
``Fraction``) and keep a Scalar only for a non-constant. Each is checked
here against a dense reference written on plain Scalar arithmetic, over Q
with Fraction entries, over Q(s) with rows that mix constants and
non-constants, and on Sweedler's H4, whose coproduct is not cocommutative.
Every result must be stored canonically: no zero, only Scalars, and an int
for every integral constant.
"""

import fractions
import sys
from fractions import Fraction

import pytest

from bihomcheck.errors import Singular
from bihomcheck.linalg import Echelon, Matrix, Subspace, invert, kernel, kron, kron_apply, rref
from bihomcheck.scalars import Scalar, parse_scalar
from test_witnesses import sweedler

S = ("s",)
T = ("t",)

_ENTRIES = {
    (): ["1", "-1", "2", "-3", "1/2", "-2/3", "3/4", "-1/4", "5/6"],
    S: ["1", "-1", "2", "1/2", "-3/4", "s", "-s", "1/s", "s + 1", "s^2 - 1", "1/(s - 1)", "2*s/3"],
    T: ["1", "-1", "1/2", "-1/4", "t", "-t", "t/2", "1/t", "t^2 + 1"],
}


def _assert_canonical(rows):
    """No stored zero, only Scalars, and an int for an integral constant."""
    for row in rows:
        for x in row.values():
            assert type(x) is Scalar
            assert not x.is_zero()
            v = x.value
            assert v is None or type(v) is int or (type(v) is Fraction and v.denominator != 1)


def _mat(params, rows, cols, texts):
    return Matrix(rows, cols, [parse_scalar(t, params) for t in texts], params)


# -- references on plain Scalar arithmetic, dense --------------------------


def _ref_rref(rows, cols, params):
    """Gauss-Jordan on dense lists of Scalars; returns (rows, rank)."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(cols):
        p = next((i for i in range(rank, len(rows)) if not rows[i][c].is_zero()), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        inv = rows[rank][c].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != rank and not f.is_zero():
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rows, rank


def _ref_span(vecs, cols, params):
    red, rank = _ref_rref(vecs, cols, params)
    return red[:rank]


def _ref_kernel(m):
    red, rank = _ref_rref(m.row_list(), m.cols, m.params)
    zero, one = Scalar.of(m.params, 0), Scalar.of(m.params, 1)
    pivots = [next(c for c, x in enumerate(row) if not x.is_zero()) for row in red[:rank]]
    vecs = []
    for fc in range(m.cols):
        if fc not in pivots:
            v = [zero] * m.cols
            v[fc] = one
            for pc, row in zip(pivots, red):
                v[pc] = -row[fc]
            vecs.append(v)
    return _ref_span(vecs, m.cols, m.params)


def _ref_invert(m):
    n = m.rows
    zero, one = Scalar.of(m.params, 0), Scalar.of(m.params, 1)
    aug = [row + [one if j == i else zero for j in range(n)] for i, row in enumerate(m.row_list())]
    red, _ = _ref_rref(aug, 2 * n, m.params)
    if any(red[i][:n] != [one if j == i else zero for j in range(n)] for i in range(n)):
        return None
    return [row[n:] for row in red]


def _ref_tensor_square_mult(hopf, x, right):
    """Column (c, e) holds the coefficients of x (e_c (x) e_e), or of
    (e_c (x) e_e) x when ``right``, from the constants of the product."""
    d, mult = hopf.dim, hopf.mult
    zero = Scalar.of(hopf.params, 0)
    out = [[zero] * (d * d) for _ in range(d * d)]
    for a in range(d):
        for b in range(d):
            xab = x.at(a, b)
            if xab.is_zero():
                continue
            for c in range(d):
                for e in range(d):
                    for p in range(d):
                        for q in range(d):
                            if right:
                                f = mult[c][a][p] * mult[e][b][q]
                            else:
                                f = mult[a][c][p] * mult[b][e][q]
                            out[p * d + q][c * d + e] = out[p * d + q][c * d + e] + xab * f
    return out


# -- hypothesis strategies ----------------------------------------------------


def _cells(st, params, n):
    # one cell in two is zero
    cell = st.tuples(st.booleans(), st.sampled_from(_ENTRIES[params]))
    return st.lists(cell, min_size=n, max_size=n).map(lambda cs: [t if k else "0" for k, t in cs])


def _matrices(st, params_list, max_rows=4, max_cols=4, square=False):
    def shape(params):
        dims = st.integers(1, max_rows).flatmap(
            lambda r: st.tuples(st.just(r), st.just(r) if square else st.integers(1, max_cols))
        )
        return dims.flatmap(
            lambda rc: st.tuples(st.just(params), st.just(rc[0]), st.just(rc[1]),
                                 _cells(st, params, rc[0] * rc[1]))
        )
    return st.sampled_from(params_list).flatmap(shape)


def test_elimination_agrees_with_a_scalar_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hypothesis.given(c=_matrices(st, [(), S], max_rows=5))
    def check(c):
        params, rows, cols, texts = c
        m = _mat(params, rows, cols, texts)
        before = [dict(r) for r in m.data]

        red, rank = rref(m)
        want, want_rank = _ref_rref(m.row_list(), cols, params)
        assert (red.row_list(), rank) == (want, want_rank)
        _assert_canonical(red.data)

        span = Subspace.span(cols, m.data, params)
        assert span.basis.row_list() == _ref_span(m.row_list(), cols, params)
        _assert_canonical(span.basis.data)

        # Echelon keeps a row exactly when the rank grows
        ech = Echelon(cols, params)
        rank = 0
        for i, v in enumerate(m.data):
            kept = ech.add(v)
            grown = len(_ref_span(m.row_list()[: i + 1], cols, params))
            assert (kept is not None) == (grown > rank)
            rank = grown
            if kept is not None:
                _assert_canonical([kept])
                assert kept[min(kept)].is_one()
        assert ech.subspace() == span

        ker = kernel(m)
        assert ker.basis.row_list() == _ref_kernel(m)
        _assert_canonical(ker.basis.data)
        assert (m @ ker.basis.transpose()).is_zero()
        assert [dict(r) for r in m.data] == before

    check()


def test_inverse_agrees_with_a_scalar_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    singular = []

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(c=_matrices(st, [(), S], square=True))
    def check(c):
        params, n, _, texts = c
        m = _mat(params, n, n, texts)
        want = _ref_invert(m)
        if want is None:
            singular.append(c)
            with pytest.raises(Singular):
                invert(m)
            return
        got = invert(m)
        assert got.row_list() == want
        _assert_canonical(got.data)
        assert m @ got == Matrix.identity(n, params)

    check()
    assert singular


def test_sweedler_tensor_square_operators_agree_with_the_product_constants():
    # Sweedler's H4 is not cocommutative, and its product has -1 constants
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    hopf, r, _ = sweedler()

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(texts=_cells(st, T, 16), right=st.booleans())
    def check(texts, right):
        x = _mat(T, 4, 4, texts)
        got = hopf.tensor_square_mult(x, right=right)
        assert got.row_list() == _ref_tensor_square_mult(hopf, x, right)
        _assert_canonical(got.data)

    check()
    # R_t itself: Fraction and non-constant coefficients
    for right in (False, True):
        got = hopf.tensor_square_mult(r.coefficients, right=right)
        assert got.row_list() == _ref_tensor_square_mult(hopf, r.coefficients, right)
        _assert_canonical(got.data)


def test_non_constants_that_cancel_or_turn_constant_are_stored_canonically():
    # pivot s: s * (1/s) is the int 1, s - s cancels, and 1 + (1/s) * s is
    # the int 2 in the reduced first row
    m = _mat(S, 2, 3, ["s", "1", "s", "s", "2", "0"])
    red, rank = rref(m)
    assert rank == 2
    assert red.row_list() == _ref_rref(m.row_list(), 3, S)[0]
    assert red.data[0] == {0: Scalar.of(S, 1), 2: Scalar.of(S, 2)}
    assert type(red.data[0][0].value) is int and type(red.data[0][2].value) is int
    _assert_canonical(red.data)
    # a row that is s times another is dependent; a row 1/s times a constant
    # row is not, and its leading entry becomes the int 1
    ech = Echelon(3, S)
    first = ech.add({0: parse_scalar("s", S), 1: parse_scalar("s^2", S)})
    assert first == {0: Scalar.of(S, 1), 1: parse_scalar("s", S)}
    assert ech.add({0: parse_scalar("s^2", S), 1: parse_scalar("s^3", S)}) is None
    kept = ech.add({1: parse_scalar("1/s", S), 2: Scalar.of(S, 3)})
    assert type(kept[1].value) is int and kept[2] == parse_scalar("3*s", S)
    _assert_canonical([first, kept])


def _calls(fn):
    """The functions of the fractions module, and the builtin divmod, run
    inside fn()."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            seen.add(frame.f_code.co_name)
        elif event == "c_call" and arg is divmod:
            seen.add("divmod")

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


def test_products_over_fraction_entries_run_no_fraction_code():
    # every entry of the operator is +-1/4, as in R0 (x) R0 over Z2xZ2, and
    # the rows of x hold ints, a Fraction and 1, so terms cancel, collide
    # and are unit products
    signs = [[1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1], [-1, 1, 1, 1]]
    r = Matrix.from_rows([[Scalar.of((), Fraction(s, 4)) for s in row] for row in signs], ())
    x = _mat((), 3, 4, ["2", "0", "-1", "1", "1", "1", "0", "0", "1/3", "-2", "3", "0"])
    y = _mat((), 2, 8, ["1", "-1", "0", "2", "1/2", "0", "1", "1",
                        "0", "3", "1", "1", "0", "-1", "0", "1/3"])
    want = {
        "product": Matrix.from_rows(_dense_product(x, r), ()),
        "slot": Matrix.from_rows(_dense_product(y, kron(r, Matrix.identity(2, ()))), ()),
        "last": Matrix.from_rows(_dense_product(y, kron(Matrix.identity(2, ()), r)), ()),
    }
    got = {}

    def product():
        got["product"] = x @ r

    def slots():
        got["slot"] = kron_apply(y, [r, 2])
        got["last"] = kron_apply(y, [2, r])

    # a plain product reads the operator row from the column index
    assert _calls(product) == set()
    assert _calls(slots) <= {"divmod"}
    assert got == want
    for m in got.values():
        _assert_canonical(m.data)


def _dense_product(a, b):
    zero = Scalar.of(a.params, 0)
    return [
        [sum((a.at(i, k) * b.at(k, j) for k in range(a.cols)), zero) for j in range(b.cols)]
        for i in range(a.rows)
    ]
