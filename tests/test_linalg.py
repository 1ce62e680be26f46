"""Exact matrices, RREF, kernels, and the subspace lattice."""

import functools
import math
import random
from fractions import Fraction

import pytest

from bihomcheck.errors import AmbientMismatch, Singular
from bihomcheck import linalg
from bihomcheck.linalg import Matrix, Subspace, flip, invert, kernel, kron, kron_apply, rref, solve
from bihomcheck.scalars import Scalar, parse_scalar

P = ("b",)


def mat(rows, params=()):
    return Matrix.from_rows(
        [[parse_scalar(str(x), params) for x in r] for r in rows], params
    )


def test_rref_identity():
    m = Matrix.identity(2)
    red, rank = rref(m)
    assert red == m and rank == 2


def test_rref_rank_one():
    m = mat([[1, 2], [2, 4]])
    red, rank = rref(m)
    assert rank == 1
    assert red == mat([[1, 2], [0, 0]])


def test_rref_parameter_pivot():
    m = mat([["b", 0], [0, "b"]], P)
    red, rank = rref(m)
    assert rank == 2
    assert red == Matrix.identity(2, P)


def test_invert_alpha_beta_of_parametric_example():
    alpha = mat([[1, 0], [0, -1]], P)
    assert invert(alpha) == alpha
    beta = mat([[1, 0], [0, "b"]], P)
    assert invert(beta) == mat([[1, 0], [0, "1/b"]], P)


def test_invert_singular():
    with pytest.raises(Singular):
        invert(mat([[0]]))


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(3)).dim == 0
    full = kernel(Matrix.zero(3, 3))
    assert full == Subspace.full_space(3)


def test_kernel_of_heisenberg_ad_stack():
    # stacked maps v -> [v, x_j] for the symmetric Heisenberg bracket
    # [x1,x2] = [x2,x1] = x3; solving [v, x_i] = 0 by hand leaves span(x3)
    rows = [
        [0, 0, 0], [0, 0, 0], [0, 1, 0],  # v -> [v, x1]
        [0, 0, 0], [0, 0, 0], [1, 0, 0],  # v -> [v, x2]
        [0, 0, 0], [0, 0, 0], [0, 0, 0],  # v -> [v, x3]
    ]
    ker = kernel(mat(rows))
    assert ker == Subspace.from_rows(3, mat([[0, 0, 1]]).row_list())


def test_subspace_sum_and_intersection():
    v = Subspace.from_rows(2, mat([[1, 0]]).row_list())
    zero = Subspace.zero_space(2)
    assert Subspace.span(2, v.basis.data + zero.basis.data, ()) == v
    span_sum = Subspace.from_rows(2, mat([[1, 1]]).row_list())
    big = Subspace.from_rows(2, mat([[1, 0], [0, 1]]).row_list())
    assert all(map(big._holds, span_sum.basis.data))
    assert not span_sum._holds(big.basis.data[0])
    assert (big == Subspace.full_space(2)) is True


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        Subspace.from_rows(2, mat([[1, 0, 0]]).row_list())


def _random_matrix(rng, rows, cols):
    return Matrix.from_rows(
        [
            [Scalar.of((), Fraction(rng.randint(-3, 3))) for _ in range(cols)]
            for _ in range(rows)
        ],
        (),
    )


def test_rref_idempotent_and_kernel_exact():
    rng = random.Random(77)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        red, rank = rref(m)
        again, rank2 = rref(red)
        assert again == red and rank2 == rank
        ker = kernel(m)
        assert ker.dim == m.cols - rank
        assert (m @ ker.basis.transpose()).is_zero()


def test_random_inverses():
    rng = random.Random(78)
    produced = 0
    while produced < 15:
        m = _random_matrix(rng, 3, 3)
        try:
            inv = invert(m)
        except Singular:
            continue
        produced += 1
        assert inv @ m == Matrix.identity(3)
        assert m @ inv == Matrix.identity(3)


def test_kron_shapes_and_values():
    a = mat([[1, 2], [0, 1]])
    b = mat([[0, 1], [1, 0]])
    k = kron(a, b)
    assert (k.rows, k.cols) == (4, 4)
    # (a tensor b)[(i,k),(j,l)] = a[i,j] b[k,l]
    assert k.at(0 * 2 + 0, 1 * 2 + 1) == a.at(0, 1) * b.at(0, 1)
    assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)


def test_gaps_read_as_the_shared_zero_of_the_context():
    m = Matrix.identity(3, P)
    zero, one = Scalar.of(P, 0), Scalar.of(P, 1)
    assert m.at(0, 1) is zero and m.at(2, 2) is one
    assert all(x is zero for x in m.row(0)[1:] + m.col(0)[1:])
    assert m.entries == [one, zero, zero, zero, one, zero, zero, zero, one]


# Oracle: sympy's exact matrices over the fraction field, on small inputs
# whose entries are mostly zero.

_ENTRIES = {
    (): ["1", "-1", "2", "-3", "1/2", "-2/3"],
    ("a", "b"): ["1", "-2", "1/2", "a", "b", "a + b", "a*b - 1", "1/(a + 1)", "b/a", "a^2"],
}


def _stored_zeros(m):
    return [x for row in m.data for x in row.values() if x == 0]


def test_sparse_kernel_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from sympy.polys.matrices import DomainMatrix

    def matrices(params, rows, cols):
        # three cells in four are zero
        cell = st.tuples(st.integers(0, 3), st.sampled_from(_ENTRIES[params]))
        texts = st.lists(cell, min_size=rows * cols, max_size=rows * cols)
        return texts.map(lambda cs: [t if k == 0 else "0" for k, t in cs])

    def case(params):
        dims = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
        return dims.flatmap(
            lambda d: st.tuples(
                st.just(params),
                st.just(d),
                matrices(params, d[0], d[1]),
                matrices(params, d[0], d[1]),
                matrices(params, d[1], d[2]),
            )
        )

    @functools.cache
    def parse(params, text):
        symbols = {name: sympy.Symbol(name) for name in params}
        return sympy.parse_expr(text.replace("^", "**"), local_dict=symbols)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(c=st.sampled_from(list(_ENTRIES)).flatmap(case))
    def check(c):
        params, (r, k, n), ta, ta2, tb = c
        sym = functools.partial(parse, params)

        def ours(texts, rows, cols):
            xs = [parse_scalar(t, params) for t in texts]
            m = Matrix(rows, cols, xs, params)
            assert m.entries == xs
            return m

        def theirs(texts, rows, cols):
            return sympy.Matrix(rows, cols, [sym(t) for t in texts])

        def agree(m, s):
            assert not _stored_zeros(m)
            assert (m.rows, m.cols) == s.shape
            for i in range(m.rows):
                for j in range(m.cols):
                    assert sympy.cancel(sym(str(m.at(i, j))) - s[i, j]) == 0

        a, a2, b = ours(ta, r, k), ours(ta2, r, k), ours(tb, k, n)
        sa, sa2, sb = theirs(ta, r, k), theirs(ta2, r, k), theirs(tb, k, n)
        agree(a @ b, sa * sb)
        agree(kron(a, b), sympy.kronecker_product(sa, sb))
        agree(a.transpose(), sa.T)
        agree(a + a2, sa + sa2)
        agree(a - a2, sa - sa2)
        assert (a - a).is_zero() and not any((a - a).data)

        field = DomainMatrix.from_Matrix(sa).to_field()
        red, rank = rref(a)
        agree(red, field.rref()[0].to_Matrix())
        assert rank == field.rank()
        ker = kernel(a)
        assert ker.dim == k - rank
        assert not _stored_zeros(ker.basis)
        # a v = 0 for every kernel vector v, and a product whose entries all
        # cancel stores nothing
        assert not any((a @ ker.basis.transpose()).data)
        if r == k:
            if rank == k:
                agree(invert(a), field.inv().to_Matrix())
            else:
                with pytest.raises(Singular):
                    invert(a)

    check()


def _canonical(m):
    """Canonical storage: no stored zero, no constant held as a Scalar, no
    integral Fraction, and the integrality flag of m equal to a fresh scan
    of its entries (a flag not decided yet is decided by that scan)."""
    values = [x for row in m.data for x in row.values()]
    assert not _stored_zeros(m)
    assert not [x for x in values if type(x) is Fraction and x.denominator == 1]
    assert not [x for x in values if type(x) is Scalar and x.value is not None]
    assert m.integral() is all(type(x) is int for x in values)


def test_integer_kernel_agrees_with_sympy():
    # integral operands take the int-only loops; an operand with one
    # Fraction or non-constant Scalar entry (one matrix in three) takes the
    # generic loop. Entries are mostly +-1 and +-2, so sums cancel often,
    # and a Fraction k/2 times an even entry is an integer, which must be
    # stored as an int
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from sympy.polys.matrices import DomainMatrix

    params = ("b",)
    symbols = {"b": sympy.Symbol("b")}
    sym = functools.cache(lambda t: sympy.parse_expr(t.replace("^", "**"), local_dict=symbols))

    def skron(*ms):
        return functools.reduce(lambda u, v: sympy.Matrix(
            u.rows * v.rows, u.cols * v.cols,
            lambda i, j: u[i // v.rows, j // v.cols] * v[i % v.rows, j % v.cols]), ms)

    odd_entries = {"fraction": ["1/2", "-3/2", "5/2"], "scalar": ["b", "b + 1", "1/(b - 1)"]}

    # no shrink phase: each example runs sympy, so a failing case is
    # reported as drawn, in seconds, and not after minutes of shrinking
    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None,
                         phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate])
    @hypothesis.given(data=st.data())
    def check(data):
        draw = data.draw
        odd = odd_entries[draw(st.sampled_from(list(odd_entries)))]

        def both(rows, cols):
            ts = draw(st.lists(st.sampled_from(["0", "0", "1", "-1", "2", "-2", "3"]),
                               min_size=rows * cols, max_size=rows * cols))
            if draw(st.integers(0, 2)) == 0:
                ts[draw(st.integers(0, rows * cols - 1))] = draw(st.sampled_from(odd))
            m = Matrix(rows, cols, [parse_scalar(t, params) for t in ts], params)
            s = sympy.Matrix(rows, cols, [sym(t) for t in ts])
            return m, s

        def monomial(n):
            # a signed permutation with entries 1, -1 or 2, held as ints
            cols = draw(st.permutations(range(n)))
            vals = [draw(st.sampled_from([1, 1, -1, 2])) for _ in range(n)]
            m = Matrix.from_dicts(n, n, [{c: v} for c, v in zip(cols, vals)], params)
            s = sympy.zeros(n, n)
            for r, (c, v) in enumerate(zip(cols, vals)):
                s[r, c] = v
            return m, s

        def agree(m, s):
            _canonical(m)
            assert (m.rows, m.cols) == s.shape
            for i in range(m.rows):
                for j in range(m.cols):
                    x = m.data[i].get(j, 0)
                    if type(x) is Scalar:
                        got = sym(str(x))
                    else:
                        got = sympy.Rational(x.numerator, x.denominator)
                    assert got == s[i, j] or sympy.cancel(got - s[i, j]) == 0

        dims = st.integers(1, 3)
        r, k, n = draw(dims), draw(dims), draw(dims)
        (a, sa), (a2, sa2), (b, sb) = both(r, k), both(r, k), both(k, n)
        agree(a @ b, sa * sb)
        agree(kron(a, b), skron(sa, sb))
        agree(a.transpose(), sa.T)
        agree(a + a2, sa + sa2)
        agree(a - a2, sa - sa2)
        agree(linalg.hstack([a, a2]), sa.row_join(sa2))
        field = DomainMatrix.from_Matrix(sa).to_field()
        red, rank = rref(a)
        agree(red, field.rref()[0].to_Matrix())
        # the RREF of a basis of the null space is unique
        ker = kernel(a)
        assert ker.dim == k - rank
        _canonical(ker.basis)
        if ker.dim:
            agree(ker.basis, field.nullspace().rref()[0].to_Matrix())

        # a non-monomial factor on the middle slot, after a signed
        # permutation on the first: row_times in slot mode after _relabel
        n1, n2, n3, m2 = draw(st.integers(1, 2)), draw(dims), draw(st.integers(1, 2)), draw(dims)
        (x, sx), (f, sf) = both(r, n1 * n2 * n3), both(n2, m2)
        p, sp = monomial(n1)
        agree(kron_apply(x, [n1, f, n3]), sx * skron(sympy.eye(n1), sf, sympy.eye(n3)))
        agree(kron_apply(x, [p, f, n3]), sx * skron(sp, sf, sympy.eye(n3)))

        # the same chain plus one with a permutation tail (the unscaled sum)
        # and one with a signed permutation tail (the scaled sum)
        (y, sy), (z, sz) = both(r, n1 * m2 * n3), both(r, n1 * m2 * n3)
        perm = Matrix.from_dicts(n1 * m2, n1 * m2, [{c: 1} for c in reversed(range(n1 * m2))], params)
        sperm = sympy.Matrix(n1 * m2, n1 * m2, lambda i, j: int(i + j == n1 * m2 - 1))
        q, sq = monomial(n3)
        got = linalg.kron_apply_sum([(x, [[n1, f, n3]]), (y, [[perm, n3]]), (z, [[n1 * m2, q]])])
        agree(got, sx * skron(sympy.eye(n1), sf, sympy.eye(n3))
              + sy * skron(sperm, sympy.eye(n3))
              + sz * skron(sympy.eye(n1 * m2), sq))

        # an element of H (x) H with d = 2 acting on a tensor product
        (c, sc), ls, rs = both(2, 2), [both(2, n2) for _ in range(2)], [both(n3, 2) for _ in range(2)]
        want = sum((sc[i, j] * skron(ls[i][1], rs[j][1])
                    for i in range(2) for j in range(2)), sympy.zeros(2 * n3, n2 * 2))
        agree(linalg.kron_sum(c, [m for m, _ in ls], [m for m, _ in rs]), want)

    check()


def test_span_agrees_with_rref_on_tall_inputs():
    # Subspace.span stops reading its vectors once the rank is full and puts
    # only the rows it kept in RREF; the basis must still be the RREF of
    # every vector. Half the cases open with a permuted triangular block of
    # nonzero diagonal, so the rank is full before the tail is read.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def cells(params, n):
        # three cells in four are zero
        cell = st.tuples(st.integers(0, 3), st.sampled_from(_ENTRIES[params]))
        return st.lists(cell, min_size=n, max_size=n).map(
            lambda cs: [t if k == 0 else "0" for k, t in cs]
        )

    def case(params):
        return st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                st.just(params),
                st.just(d),
                st.booleans(),
                st.permutations(range(d)),
                cells(params, d * d),
                st.integers(0, 3 * d).flatmap(lambda n: cells(params, n * d)),
            )
        )

    def sparse_rows(params, texts, d):
        # the stored kernel rows of the matrix with these rows
        rows = [[parse_scalar(t, params) for t in texts[i : i + d]] for i in range(0, len(texts), d)]
        return Matrix.from_rows(rows, params).data

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(c=st.sampled_from(list(_ENTRIES)).flatmap(case))
    def check(c):
        params, d, full_first, order, square, tail = c
        head = []
        if full_first:
            for i, row in enumerate(sparse_rows(params, square, d)):
                head.append({**{j: x for j, x in row.items() if j > i}, i: row.get(i, 1)})
            head = [head[i] for i in order]
        vecs = head + sparse_rows(params, tail, d)
        before = [dict(v) for v in vecs]
        red, rank = rref(Matrix.from_dicts(len(vecs), d, before, params))
        span = Subspace.span(d, vecs, params)
        assert span.basis == Matrix.from_dicts(rank, d, red.data[:rank], params)
        assert vecs == before
        if full_first:
            assert span == Subspace.full_space(d, params)

    check()


def test_kron_apply_agrees_with_the_kronecker_product():
    # kron_apply applies each factor to its own slot of x's column index; the
    # oracle forms kron(*factors) and multiplies. Factors are identity slots
    # given as ints, square maps, d -> 1 and d -> d^2 maps, and d^2 x d^2
    # maps spanning two slots. Entries are mostly +-1, so sums often cancel.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entries = {(): ["1", "-1", "1", "-1", "2", "-1/2"], ("a", "b"): ["1", "-1", "a", "-a", "a*b", "1/b"]}
    shapes = {"square": lambda n: (n, n), "to-one": lambda n: (n, 1),
              "to-square": lambda n: (n, n * n), "two-slot": lambda n: (n * n, n * n)}

    def cells(params, n):
        # one cell in two is zero
        cell = st.tuples(st.booleans(), st.sampled_from(entries[params]))
        return st.lists(cell, min_size=n, max_size=n).map(lambda cs: [t if k else "0" for k, t in cs])

    def factor(params):
        def build(kind, n):
            if kind == "int":
                return st.just(n)
            r, c = shapes[kind](n)
            return cells(params, r * c).map(lambda ts: (r, c, ts))
        # slots of size 1 to 3; a factor that squares its size takes 1 or 2
        return st.sampled_from(["int", *shapes]).flatmap(
            lambda kind: st.integers(1, 2 if kind in ("to-square", "two-slot") else 3).flatmap(
                lambda n: build(kind, n)
            )
        )

    def case(params):
        return st.tuples(st.integers(1, 3), st.lists(factor(params), min_size=1, max_size=3)).flatmap(
            lambda rf: st.tuples(
                st.just(params), st.just(rf[0]), st.just(rf[1]),
                cells(params, rf[0] * math.prod(f if isinstance(f, int) else f[0] for f in rf[1])),
            )
        )

    cancelled = []

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(c=st.sampled_from(list(entries)).flatmap(case))
    def check(c):
        params, rows, specs, texts = c

        def ours(r, cols, ts):
            return Matrix(r, cols, [parse_scalar(t, params) for t in ts], params)

        factors = [f if isinstance(f, int) else ours(*f) for f in specs]
        mats = [Matrix.identity(f, params) if isinstance(f, int) else f for f in factors]
        x = ours(rows, len(texts) // rows, texts)
        big = functools.reduce(kron, mats)
        got = kron_apply(x, factors)
        assert got == x @ big == _product_by_rows(x, big)
        assert not _stored_zeros(got)
        # a structurally nonzero entry that is not stored has cancelled
        reach = {(r, j) for r, row in enumerate(x.data) for k in row for j in big.data[k]}
        if len(reach) > sum(len(row) for row in got.data):
            cancelled.append(c)

    check()
    assert cancelled


def test_unit_factors_cost_no_scalar_multiplication(monkeypatch):
    params = ("a", "b")
    x = mat([["a", 0, "1/b", 2, 0, "a*b"], [0, "-1", 0, "b", "a", 0], ["a+b", 1, 0, 0, 3, "-a"]], params)
    # a permutation of the six columns, and one of a slot of size 3
    perm = Matrix.from_dicts(6, 6, [{(5 * i + 2) % 6: 1} for i in range(6)], params)
    cycle = Matrix.from_dicts(3, 3, [{(i + 1) % 3: 1} for i in range(3)], params)
    swap = flip(2, 3, params)

    def plain(a, b):
        # the product entry by entry, every term multiplied out
        return Matrix(a.rows, b.cols, [
            sum((a.at(i, k) * b.at(k, j) for k in range(a.cols)), Scalar.of(params, 0))
            for i in range(a.rows) for j in range(b.cols)
        ], params)

    want = {
        "perm": plain(x, perm),
        "swap": plain(x, swap),
        "slots": plain(x, kron(Matrix.identity(2, params), cycle)),
        "identity": x,
    }
    calls = []
    real = Scalar.__mul__

    def counted(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    got = {
        "perm": x @ perm,
        "swap": kron_apply(x, [swap]),
        "slots": kron_apply(x, [2, cycle]),
        "identity": kron_apply(x, [Matrix.identity(2, params), 3]),
    }
    assert not calls
    assert got == want


def _product_by_rows(x, m):
    """x @ m through ``row_times`` on every row, even for a monomial m: the
    oracle that does not relabel."""
    return Matrix.from_dicts(x.rows, m.cols, [linalg.row_times(row, m) for row in x.data],
                             x.params)


def _row_times_calls(monkeypatch):
    calls = []
    real = linalg.row_times

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "row_times", counted)
    return calls


def test_permutation_factors_relabel_columns_without_row_times(monkeypatch):
    # each row of a permutation factor is a single int 1 and no column
    # repeats, so kron_apply relabels the column index of x instead of
    # multiplying. The oracle is x times kron(...) through row_times. The
    # 3-cycle is not its own inverse, so relabelling by the inverse
    # permutation gives a different matrix; x holds ints and Fractions over
    # Q, and non-constants over Q(s).
    d = 3
    xs = [
        mat([[1, 0, "-1/2", 2, 0, 0, 3, "5/7", 0] * 3, [0, "2/3", 1, 0, -4, 1, 0, 0, "1/3"] * 3]),
        mat([["s", 0, 1, "1/(s+1)", 0, "2/3", "s^2", 0, -1] * 3, [0, 1, 0, 0, "-s", 0, 2, 0, 0] * 3],
            ("s",)),
    ]
    for x in xs:
        params = x.params
        cycle = Matrix.from_dicts(d, d, [{(i + 1) % d: 1} for i in range(d)], params)
        swap = flip(d, d, params)
        # the flip of two slots in every position of the 3-slot power, the
        # flips of one slot past the other two, and the 3-cycle on each slot
        cases = [[swap, d], [d, swap], [flip(d, d * d, params)], [flip(d * d, d, params)],
                 [cycle, d, d], [d, cycle, d], [d, d, cycle], [cycle, swap]]
        want = [_product_by_rows(x, functools.reduce(
            kron, [Matrix.identity(f, params) if isinstance(f, int) else f for f in fs]))
            for fs in cases]
        calls = _row_times_calls(monkeypatch)
        got = [kron_apply(x, fs) for fs in cases]
        monkeypatch.undo()
        assert not calls
        assert got == want
        assert not any(_stored_zeros(m) for m in got)
    # a 2 in a row is monomial: the slot is relabelled and scaled, with no
    # row_times; a column hit twice, or two entries in a row, is not
    # monomial: the generic product runs. Both agree with the oracle
    params = xs[0].params
    scaled = Matrix.from_dicts(d, d, [{1: 1}, {2: 2}, {0: 1}], params)
    merged = Matrix.from_dicts(d, d, [{1: 1}, {1: 1}, {0: 1}], params)
    double = Matrix.from_dicts(d, d, [{1: 1}, {2: 1, 0: 1}, {0: 1}], params)
    for f, monomial in ((scaled, True), (merged, False), (double, False)):
        want = _product_by_rows(
            xs[0], kron(Matrix.identity(d, params), kron(f, Matrix.identity(d, params))))
        calls = _row_times_calls(monkeypatch)
        got = kron_apply(xs[0], [d, f, d])
        monkeypatch.undo()
        assert bool(calls) is not monomial and got == want


def test_kron_apply_sum_agrees_with_the_added_chains(monkeypatch):
    # sum_t x_t F_t1 F_t2 ... on d^3 columns, against each chain made
    # through row_times with the Kronecker operators formed, and added.
    # Factors are ints (identity slots), monomial maps of one slot or of two
    # (a random permutation, each entry 1, -1, 2, -1/2 or a parameter), and
    # in one case in three a dense map on one slot of a stage put anywhere in
    # the last chain, with a monomial map on another slot of that stage in
    # half of those: the slots up to the dense one go through row_times and
    # the monomial ones after it are summed; with only monomial factors no
    # row_times runs
    rng = random.Random(11)
    params = ("a", "b")
    for case in range(60):
        d = rng.choice((2, 3))

        def monomial(n):
            # kernel values: ints, a Fraction and a non-constant Scalar
            pool = [1, 1, 1, -1, 2, Fraction(-1, 2), parse_scalar("a", params)]
            return Matrix.from_dicts(n, n, [{c: rng.choice(pool)} for c in rng.sample(range(n), n)],
                                     params)

        def stage():
            kind = rng.choice(("one", "two-first", "two-last"))
            if kind == "one":
                slots = [d, d, d]
                slots[rng.randrange(3)] = monomial(d)
                return slots
            return [monomial(d * d), d] if kind == "two-first" else [d, monomial(d * d)]

        def x():
            return mat([[rng.choice(_ENTRIES[params]) if rng.random() < 0.4 else 0
                         for _ in range(d ** 3)] for _ in range(2)], params)

        xs = [x(), x()]
        terms = [(xs[0], [])] + [(rng.choice(xs), [stage() for _ in range(rng.randint(1, 2))])
                                 for _ in range(rng.randint(1, 3))]
        dense = case % 3 == 0
        if dense:
            slots = [d, d, d]
            j, k = rng.sample(range(3), 2)
            slots[j] = mat([[rng.choice(_ENTRIES[params]) for _ in range(d)] for _ in range(d)],
                           params)
            if rng.random() < 0.5:
                slots[k] = monomial(d)
            stages = terms[-1][1]
            stages.insert(rng.randint(0, len(stages)), slots)
        want = None
        for y, stages in terms:
            for fs in stages:
                y = _product_by_rows(y, functools.reduce(
                    kron, [Matrix.identity(f, params) if isinstance(f, int) else f for f in fs]))
            want = y if want is None else want + y
        calls = _row_times_calls(monkeypatch)
        got = linalg.kron_apply_sum(terms)
        monkeypatch.undo()
        assert got == want and not _stored_zeros(got)
        assert bool(calls) is dense
    # a chain and its negation cancel everywhere, and nothing is stored
    perm = Matrix.from_dicts(4, 4, [{2: 1}, {0: 1}, {3: 1}, {1: 1}], params)
    neg = Matrix.from_dicts(4, 4, [{2: -1}, {0: -1}, {3: -1}, {1: -1}], params)
    y = mat([["a", 0, 1, "1/2", 0, -2, 3, "b"]], params)
    assert not any(linalg.kron_apply_sum([(y, [[perm, 2]]), (y, [[neg, 2]])]).data)


def test_monomial_factors_of_products_and_inverses(monkeypatch):
    # a square monomial P (a scaled permutation) relabels the columns of
    # x @ P and picks and scales the rows of P @ y, with no row_times, and is
    # inverted with no elimination; the oracles are row_times and solve
    rng = random.Random(12)
    params = ("a", "b")
    pool = [1, 1, -1, 3, Fraction(2, 3), parse_scalar("a", params), parse_scalar("a + b", params)]
    for n in (1, 2, 4, 6):
        for _ in range(5):
            p = Matrix.from_dicts(n, n, [{c: rng.choice(pool)} for c in rng.sample(range(n), n)],
                                  params)
            x, y = (mat([[rng.choice(_ENTRIES[params]) for _ in range(cols)] for _ in range(rows)],
                        params) for rows, cols in ((3, n), (n, 3)))
            calls = _row_times_calls(monkeypatch)
            got = (x @ p, p @ y, invert(p))
            monkeypatch.undo()
            assert not calls
            assert got == (_product_by_rows(x, p), _product_by_rows(p, y),
                           solve(p, Matrix.identity(n, params)))
            assert not any(_stored_zeros(m) for m in got)
    ident = Matrix.identity(3, params)
    assert invert(ident) == ident and (ident @ ident).data is ident.data


def test_difference_agrees_with_adding_the_negation():
    # A - B subtracts row by row; the oracle negates B entry by entry and
    # adds. A cell of B is zero, a fresh entry or the cell of A itself, so
    # many differences cancel and must not be stored.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def case(params):
        cell = st.tuples(
            st.integers(0, 2), st.sampled_from(_ENTRIES[params]),
            st.integers(0, 3), st.sampled_from(_ENTRIES[params]),
        )
        return st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
            lambda d: st.tuples(st.just(params), st.just(d), st.lists(cell, min_size=d[0] * d[1],
                                                                      max_size=d[0] * d[1]))
        )

    cancelled = []

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(c=st.sampled_from(list(_ENTRIES)).flatmap(case))
    def check(c):
        params, (rows, cols), cells = c
        ta = [t if k else "0" for k, t, _, _ in cells]
        tb = [ta[n] if k == 0 else "0" if k == 1 else t for n, (_, _, k, t) in enumerate(cells)]
        a = Matrix(rows, cols, [parse_scalar(t, params) for t in ta], params)
        b = Matrix(rows, cols, [parse_scalar(t, params) for t in tb], params)
        got = a - b
        want = Matrix(rows, cols, [x + (-y) for x, y in zip(a.entries, b.entries)], params)
        assert got == want == a + (-b)
        assert not _stored_zeros(got)
        if any(x != "0" and x == y for x, y in zip(ta, tb)):
            cancelled.append(c)

    check()
    assert cancelled


def test_difference_of_shared_entries_negates_nothing(monkeypatch):
    # an entry on both sides costs one subtraction; only a constant is on
    # the right here, so no Scalar is negated
    q = mat([[1, "-1/2", 0], [0, 3, "2/3"]])
    x = mat([["a", 0, "1/b"], ["a*b - 1", "b", 0]], ("a", "b"))
    c = mat([[2, 0, 1], [-1, "1/2", 0]], ("a", "b"))
    calls = []
    real = Scalar.__neg__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Scalar, "__neg__", counted)
    assert (q - q).is_zero()
    got = x - c
    assert not calls
    monkeypatch.setattr(Scalar, "__neg__", real)
    assert got == x + (-c)
