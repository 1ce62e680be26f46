"""Elimination and the Hopf multiplication operators on kernel values.

A ``Matrix`` stores kernel values: a constant as its canonical ``int`` or
``Fraction``, and a Scalar only for a non-constant. ``rref``, ``Echelon``,
``Subspace.span``, ``solve``, ``invert``, ``kernel`` (one elimination path),
``kron_sum`` and ``HopfAlgebra.tensor_square_mult`` run on them. Each is
checked here against a dense reference written on plain Scalar arithmetic,
over Q with Fraction entries and with large integers over mixed
denominators, over Q(s) with rows that mix constants and non-constants,
and on Sweedler's H4, whose coproduct is not cocommutative. Every result
must be stored canonically, and read back as Scalars equal to the stored
values.
"""

import fractions
import math
import sys
from fractions import Fraction

import pytest

from bihomcheck.errors import Singular
from bihomcheck.linalg import (
    Echelon, Matrix, Subspace, invert, kernel, kron, kron_apply, kron_sum, rref, solve,
)
from bihomcheck.scalars import Scalar, parse_scalar
from storage import assert_canonical
from test_witnesses import sweedler

S = ("s",)
T = ("t",)

_ENTRIES = {
    (): ["1", "-1", "2", "-3", "1/2", "-2/3", "3/4", "-1/4", "5/6"],
    S: ["1", "-1", "2", "1/2", "-3/4", "s", "-s", "1/s", "s + 1", "s^2 - 1", "1/(s - 1)", "2*s/3"],
    T: ["1", "-1", "1/2", "-1/4", "t", "-t", "t/2", "1/t", "t^2 + 1"],
}


def _assert_stored(m):
    """m is stored canonically, and ``at``, ``row``, ``col`` and ``entries``
    read every cell as a Scalar equal to the stored value."""
    assert_canonical(m.data)
    zero = Scalar.of(m.params, 0)
    entries = m.entries
    cols = [m.col(c) for c in range(m.cols)]
    for r, stored in enumerate(m.data):
        row = m.row(r)
        for c in range(m.cols):
            v = stored.get(c)
            want = zero if v is None else v if type(v) is Scalar else Scalar.of(m.params, v)
            got = [m.at(r, c), row[c], cols[c][r], entries[r * m.cols + c]]
            assert all(type(x) is Scalar and x == want for x in got)


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
    (e_c (x) e_e) x when ``right``, from the constants of the product: the
    column form, the transpose of the row-form operator."""
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


def _large_matrices(st):
    """Q only, up to 8 rows: integers up to 10^12 in size and fractions over
    3 and 7, so a row mixes denominators and elimination grows coefficients."""
    n = st.integers(-10**12, 10**12)
    cell = st.one_of(st.just("0"), n.map(str),
                     st.tuples(n, st.sampled_from([3, 7])).map(lambda t: f"{t[0]}/{t[1]}"))
    return st.tuples(st.integers(1, 8), st.integers(1, 5)).flatmap(
        lambda rc: st.tuples(st.just(()), st.just(rc[0]), st.just(rc[1]),
                             st.lists(cell, min_size=rc[0] * rc[1], max_size=rc[0] * rc[1]))
    )


def _ref_echelon_add(held, v):
    """The Echelon of plain Scalars with a leading 1 on every row: v reduced
    against the rows held, in order, and kept; None when it vanishes."""
    for c, h in held:
        if not v[c].is_zero():
            f = v[c]
            v = [x - f * y for x, y in zip(v, h)]
    c = next((c for c, x in enumerate(v) if not x.is_zero()), None)
    if c is None:
        return None
    inv = v[c].inverse()
    held.append((c, [x * inv for x in v]))
    return held[-1][1]


def _assert_kept(kept, want, params):
    """A row Echelon keeps is a nonzero multiple of the reference's row. Over
    Q it is a primitive integer row with a positive pivot; a row holding a
    non-constant entry has a leading 1."""
    assert_canonical([kept])
    got = Matrix.from_dicts(1, len(want), [kept], params).row(0)
    c = min(kept)
    ratio = got[c] / want[c]
    assert got == [ratio * x for x in want]
    if not params:
        assert all(type(x) is int for x in kept.values())
        assert math.gcd(*kept.values()) == 1 and kept[c] > 0
    if any(type(x) is Scalar for x in kept.values()):
        assert type(kept[c]) is int and kept[c] == 1


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

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(c=st.one_of(_matrices(st, [(), S], max_rows=5), _large_matrices(st)))
    def check(c):
        params, rows, cols, texts = c
        m = _mat(params, rows, cols, texts)
        _assert_stored(m)
        before = [dict(r) for r in m.data]

        red, rank = rref(m)
        want, want_rank = _ref_rref(m.row_list(), cols, params)
        assert (red.row_list(), rank) == (want, want_rank)
        _assert_stored(red)

        span = Subspace.span(cols, m.data, params)
        assert span.basis.row_list() == _ref_span(m.row_list(), cols, params)
        _assert_stored(span.basis)

        # Echelon keeps a row exactly when the reference does, and the same
        # row up to a nonzero factor
        ech = Echelon(cols, params)
        held = []
        for v, dense in zip(m.data, m.row_list()):
            kept = ech.add(v)
            want = _ref_echelon_add(held, dense)
            assert (kept is None) == (want is None)
            if kept is not None:
                _assert_kept(kept, want, params)
        assert ech.subspace() == span

        ker = kernel(m)
        assert ker.basis.row_list() == _ref_kernel(m)
        _assert_stored(ker.basis)
        assert (m @ ker.basis.transpose()).is_zero()
        assert [dict(r) for r in m.data] == before

    check()


def _dependent_matrices(st, square=False):
    """Inputs of low rank: up to three seed rows, and rows that repeat a seed
    or add a multiple of one seed to another. Over Q the entries include
    Fractions; over Q(s) the first seed row is all constant and the others
    may hold non-constants, so rows mix both kinds."""
    def build(params, cols, seeds, picks):
        seeds = [[parse_scalar(t, params) for t in ts] for ts in seeds]
        rows = []
        for i, j, f in picks:
            a, b = seeds[i % len(seeds)], seeds[j % len(seeds)]
            f = parse_scalar(f, params)
            rows.append(a if i == j else [x + f * y for x, y in zip(a, b)])
        return params, len(rows), cols, [x for r in rows for x in r]

    def seeds(params, cols):
        first = _cells(st, (), cols)
        rest = st.lists(_cells(st, params, cols), min_size=0, max_size=2)
        return st.tuples(first, rest).map(lambda fr: [fr[0], *fr[1]])

    def case(params, rows, cols):
        pick = st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from(_ENTRIES[params]))
        return st.tuples(st.just(params), st.just(cols), seeds(params, cols),
                         st.lists(pick, min_size=rows, max_size=rows)).map(lambda c: build(*c))

    shape = st.integers(1, 5).flatmap(
        lambda r: st.tuples(st.just(r), st.just(r) if square else st.integers(1, 5)))
    return st.tuples(st.sampled_from([(), S]), shape).flatmap(lambda ps: case(ps[0], *ps[1]))


def test_rref_and_kernel_of_dependent_rows_agree_with_a_scalar_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    deficient = []

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hypothesis.given(c=_dependent_matrices(st))
    def check(c):
        params, rows, cols, scalars = c
        m = Matrix(rows, cols, scalars, params)
        red, rank = rref(m)
        want, want_rank = _ref_rref(m.row_list(), cols, params)
        assert (red.row_list(), rank) == (want, want_rank)
        _assert_stored(red)
        ker = kernel(m)
        assert ker.basis.row_list() == _ref_kernel(m)
        _assert_stored(ker.basis)
        if rank < rows:
            deficient.append(c)

    check()
    assert deficient


def test_solve_agrees_with_a_scalar_reference():
    # m X = b with several right-hand columns: Singular exactly when the
    # reference rank of m is below n, and otherwise the right-hand block of
    # the reference RREF of [m | b]
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    seen = set()

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hypothesis.given(c=st.one_of(_dependent_matrices(st, square=True),
                                  _matrices(st, [(), S], square=True)),
                      k=st.integers(1, 3), data=st.data())
    def check(c, k, data):
        params, n, _, cells = c
        entries = [x if type(x) is Scalar else parse_scalar(x, params) for x in cells]
        m = Matrix(n, n, entries, params)
        b = _mat(params, n, k, data.draw(_cells(st, params, n * k)))
        _, rank = _ref_rref(m.row_list(), n, params)
        seen.add(rank < n)
        if rank < n:
            with pytest.raises(Singular):
                solve(m, b)
            return
        red, _ = _ref_rref([r + s for r, s in zip(m.row_list(), b.row_list())], n + k, params)
        got = solve(m, b)
        assert got.row_list() == [row[n:] for row in red]
        _assert_stored(got)
        assert m @ got == b

    check()
    assert seen == {True, False}


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
        _assert_stored(got)
        assert m @ got == Matrix.identity(n, params)

    check()
    assert singular


def test_difference_agrees_with_scalar_subtraction_and_is_zero_only_on_equal_matrices():
    # a - b of equal matrices is answered by comparing the stored rows; the
    # pairs here are equal, differ in one entry (often on the same support),
    # or differ by the sign of one entry
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    seen = set()

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(change=st.sampled_from(["equal", "entry", "sign"]), data=st.data())
    def check(params, change, data):
        c = data.draw(_matrices(st, [params]))
        params, rows, cols, texts = c
        texts = list(texts)
        other = list(texts)
        k = data.draw(st.integers(0, rows * cols - 1))
        if change == "entry":
            others = [t for t in ["0", *_ENTRIES[params]] if t != texts[k]]
            other[k] = data.draw(st.sampled_from(others))
        elif change == "sign":
            if texts[k] == "0":
                texts[k] = other[k] = data.draw(st.sampled_from(_ENTRIES[params]))
            other[k] = f"-({texts[k]})"
        a, b = _mat(params, rows, cols, texts), _mat(params, rows, cols, other)
        got = a - b
        assert got.row_list() == [[x - y for x, y in zip(ra, rb)]
                                  for ra, rb in zip(a.row_list(), b.row_list())]
        assert got.is_zero() == (a == b) == (change == "equal")
        _assert_stored(got)
        # the result owns its rows
        assert not any(g is x for g in got.data for x in a.data + b.data)
        same_support = [r.keys() for r in a.data] == [r.keys() for r in b.data]
        seen.add((bool(params), change, same_support and any(a.data)))

    for params in ((), S):
        check(params)
    for params in (False, True):
        assert {(params, "equal", True), (params, "entry", True), (params, "sign", True)} <= seen


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
        assert got.row_list() == _transposed(_ref_tensor_square_mult(hopf, x, right))
        _assert_stored(got)

    check()
    # R_t itself: Fraction and non-constant coefficients
    x = r.coefficients
    for right in (False, True):
        got = hopf.tensor_square_mult(x, right=right)
        assert got.row_list() == _transposed(_ref_tensor_square_mult(hopf, x, right))
        _assert_stored(got)
        # row form: row c*4 + e is x (e_c (x) e_e), or (e_c (x) e_e) x
        for c in range(4):
            for e in range(4):
                basis = Matrix.from_dicts(4, 4, [{e: 1} if a == c else {} for a in range(4)], T)
                want = _square_product(hopf, basis, x) if right else _square_product(hopf, x, basis)
                assert got.row(c * 4 + e) == want
        # (1 (x) 1) R = R (1 (x) 1) = R
        assert got.row(0) == x.entries


def _transposed(rows):
    return [list(col) for col in zip(*rows)]


def _square_product(hopf, x, y):
    """The coefficients of x y in H (x) H, for coefficient matrices x and y:
    (e_a (x) e_b)(e_c (x) e_e) = e_a e_c (x) e_b e_e, on the constants of
    the product."""
    d, mult = hopf.dim, hopf.mult
    out = [Scalar.of(hopf.params, 0)] * (d * d)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    f = x.at(a, b) * y.at(c, e)
                    if f.is_zero():
                        continue
                    for p in range(d):
                        for q in range(d):
                            out[p * d + q] = out[p * d + q] + f * mult[a][c][p] * mult[b][e][q]
    return out


def test_non_constants_that_cancel_or_turn_constant_are_stored_canonically():
    # pivot s: s * (1/s) is the int 1, s - s cancels, and 1 + (1/s) * s is
    # the int 2 in the reduced first row
    m = _mat(S, 2, 3, ["s", "1", "s", "s", "2", "0"])
    red, rank = rref(m)
    assert rank == 2
    assert red.row_list() == _ref_rref(m.row_list(), 3, S)[0]
    assert red.data[0] == {0: 1, 2: 2}
    assert type(red.data[0][0]) is int and type(red.data[0][2]) is int
    _assert_stored(red)
    # a row that is s times another is dependent; a row 1/s times a constant
    # row is not, and its leading entry becomes the int 1
    ech = Echelon(3, S)
    first = ech.add({0: parse_scalar("s", S), 1: parse_scalar("s^2", S)})
    assert first == {0: 1, 1: parse_scalar("s", S)} and type(first[0]) is int
    assert ech.add({0: parse_scalar("s^2", S), 1: parse_scalar("s^3", S)}) is None
    kept = ech.add({1: parse_scalar("1/s", S), 2: 3})
    assert type(kept[1]) is int and kept[1] == 1 and kept[2] == parse_scalar("3*s", S)
    assert_canonical([first, kept])


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


def _ref_kron_sum(x, left, right):
    """The sum of x[a][b] kron(left[a], right[b]) on dense lists of Scalars."""
    zero = Scalar.of(x.params, 0)
    out = [[zero] * (left[0].cols * right[0].cols) for _ in range(left[0].rows * right[0].rows)]
    for a, xrow in enumerate(x.row_list()):
        for b, f in enumerate(xrow):
            term = kron(left[a], right[b]).row_list()
            out = [[o + f * t for o, t in zip(orow, trow)] for orow, trow in zip(out, term)]
    return out


def _assert_kron_sum(x, left, right):
    got = kron_sum(x, left, right)
    _assert_stored(got)
    assert got.row_list() == _ref_kron_sum(x, left, right)
    return got


def test_kron_sum_agrees_with_a_sum_of_kronecker_products():
    # two 2 x 3 operators on the left, three 3 x 2 on the right, so x is
    # 2 x 3; one cell in two is zero, and a row of x is zero now and then
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cells=_cells(st, S, 6 + 2 * 6 + 3 * 6))
    def check(cells):
        x = _mat(S, 2, 3, cells[:6])
        left = [_mat(S, 2, 3, cells[6 + 6 * i:12 + 6 * i]) for i in range(2)]
        right = [_mat(S, 3, 2, cells[18 + 6 * i:24 + 6 * i]) for i in range(3)]
        _assert_kron_sum(x, left, right)

    check()


def test_kron_sum_drops_terms_that_cancel():
    a = _mat(S, 2, 3, ["s", "0", "1/2", "0", "1/s", "-1"])
    b = _mat(S, 3, 2, ["1", "s + 1", "0", "-2/3", "s^2 - 1", "0"])
    c = _mat(S, 3, 2, ["0", "0", "1/(s - 1)", "0", "2", "s"])
    left, right = [a, _mat(S, 2, 3, ["1", "0", "0", "0", "0", "s"])], [b, -b, c]
    # a zero row of x, and s b - s b cancels inside the row that is left
    got = _assert_kron_sum(_mat(S, 2, 3, ["0", "0", "0", "s", "s", "1/2"]), left, right)
    assert got.rows == 6 and got.cols == 6 and not got.is_zero()
    # the two rows of x give opposite terms on equal left operators
    x = _mat(S, 2, 3, ["s", "0", "1", "-s", "0", "-1"])
    assert _assert_kron_sum(x, [a, a], right).is_zero()
    # a 1 x 1 coefficient times one operator is that operator scaled; the
    # factor is stored as its kernel value
    one = [Matrix.identity(1, S)]
    for t in ("0", "1", "2", "-1/3", "s", "1/s"):
        got = _assert_kron_sum(_mat(S, 1, 1, [t]), one, [a])
        assert got.row_list() == [[parse_scalar(t, S) * y for y in row] for row in a.row_list()]


def test_products_over_fraction_entries_run_no_fraction_code():
    # every entry of the operator is +-1/4, as in R0 (x) R0 over Z2xZ2, and
    # the rows of x hold ints, a Fraction and 1, so terms cancel, collide
    # and are unit products; a diagonal factor of Fractions is tested for
    # being the identity without comparing a Fraction
    signs = [[1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1], [-1, 1, 1, 1]]
    r = Matrix.from_rows([[Scalar.of((), Fraction(s, 4)) for s in row] for row in signs], ())
    x = _mat((), 3, 4, ["2", "0", "-1", "1", "1", "1", "0", "0", "1/3", "-2", "3", "0"])
    y = _mat((), 2, 8, ["1", "-1", "0", "2", "1/2", "0", "1", "1",
                        "0", "3", "1", "1", "0", "-1", "0", "1/3"])
    diag = _mat((), 2, 2, ["1/2", "0", "0", "1/3"])
    want = {
        "product": Matrix.from_rows(_dense_product(x, r), ()),
        "slot": Matrix.from_rows(_dense_product(y, kron(r, Matrix.identity(2, ()))), ()),
        "last": Matrix.from_rows(_dense_product(y, kron(Matrix.identity(2, ()), r)), ()),
        "diag": Matrix.from_rows(_dense_product(x, kron(diag, Matrix.identity(2, ()))), ()),
    }
    got = {}

    def product():
        got["product"] = x @ r

    def slots():
        got["slot"] = kron_apply(y, [r, 2])
        got["last"] = kron_apply(y, [2, r])
        got["diag"] = kron_apply(x, [diag, 2])

    # a plain product reads the operator row from the column index
    assert _calls(product) == set()
    assert _calls(slots) <= {"divmod"}
    assert got == want
    for m in got.values():
        _assert_stored(m)


def _dense_product(a, b):
    zero = Scalar.of(a.params, 0)
    return [
        [sum((a.at(i, k) * b.at(k, j) for k in range(a.cols)), zero) for j in range(b.cols)]
        for i in range(a.rows)
    ]
