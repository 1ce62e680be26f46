"""The product of H (x) H, and the verdict on (H, R) decided by products.

``HopfAlgebra.tensor_square_product`` is checked against its definition,
x y = sum x[a][b] y[c][e] (e_a e_c) (x) (e_b e_e), summed in sympy over the
structure constants read through ``M.at``. ``qt_and_flip`` and
``is_triangular`` decide triangularity by R R21 = 1 (x) 1 = R21 R on
D R, one denominator cleared, and solve for the inverse only when that
fails; they are checked against a reference on R itself that solves for
the inverse on every call, the way the verdict was computed before.
"""

from __future__ import annotations

import functools

import pytest

from bihomcheck.catalog import r_triangular_kz2, trivial_rmatrix
from bihomcheck.errors import NotInvertible, Singular
from bihomcheck.hopf import HopfAlgebra, RMatrix, check_hopf_axioms, is_triangular, qt_and_flip
from bihomcheck.linalg import Matrix, flip, invert, kron, kron_apply, solve
from bihomcheck.report import coefficient_witness, decode
from bihomcheck.scalars import parse_scalar
from test_hopf import klein_function_hopf, kz2
from test_witnesses import bump_matrix, conjugated, klein, sweedler, zn


def conjugated_z3():
    """Z3 in the basis of the columns of P, det P = 3, so that the structure
    constants and the unit have the denominator 3."""
    p = Matrix.from_dicts(3, 3, [{0: 1, 1: 1}, {1: 2, 2: 1}, {0: 1, 2: 1}], ())
    return conjugated(zn(3), p, invert(p))


def matrix(texts, d, params):
    return Matrix(d, d, [parse_scalar(t, params) for t in texts], params)


# -- the product of H (x) H -------------------------------------------------------

INTS = ["1", "-2", "3"]
FRACTIONS = ["1/2", "-1/3", "5/4"]
PARAMETRIC = ["t", "t/2", "1/(t + 1)", "t^2 - 1"]


def test_tensor_square_product_agrees_with_the_definition():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    algebras = [kz2(), sweedler()[0], klein(), conjugated_z3()]
    # the conjugated Z3 has Fraction structure constants
    assert any(type(x) is not int for row in algebras[3].M.data for x in row.values())

    @functools.cache
    def sym(text):
        return sympy.parse_expr(text.replace("^", "**"), local_dict={"t": sympy.Symbol("t")})

    def element(h):
        # one cell in two is zero; parametric entries only over Q(t)
        texts = INTS + FRACTIONS + (PARAMETRIC if h.params else [])
        cell = st.one_of(st.just("0"), st.sampled_from(texts))
        return st.lists(cell, min_size=h.dim**2, max_size=h.dim**2)

    cases = st.sampled_from(algebras).flatmap(
        lambda h: st.tuples(st.just(h), element(h), element(h))
    )

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(c=cases)
    def check(c):
        h, xt, yt = c
        d, M = h.dim, h.M
        x, y = matrix(xt, d, h.params), matrix(yt, d, h.params)
        want = [[0] * d for _ in range(d)]
        for a, b, c_, e in ((a, b, c_, e) for a in range(d) for b in range(d)
                            for c_ in range(d) for e in range(d)):
            xy = sym(str(x.at(a, b))) * sym(str(y.at(c_, e)))
            if xy == 0:
                continue
            for p in range(d):
                for q in range(d):
                    want[p][q] += xy * sym(str(M.at(p, a * d + c_))) * sym(str(M.at(q, b * d + e)))
        got = h.tensor_square_product(x, y)
        for p in range(d):
            for q in range(d):
                assert sympy.cancel(sym(str(got.at(p, q))) - want[p][q]) == 0, (p, q)

    check()


# -- the verdict on (H, R) ---------------------------------------------------------


def reference_qt_and_flip(h, r):
    """The report entries (id, status, witness) and the triangularity verdict
    of (H, R), on R itself, with the inverse of R solved for first: the way
    ``qt_and_flip`` computed them before it cleared denominators."""
    left, right = r.operators(h)
    uu = kron(h.u, h.u)
    try:
        inv = solve(left.transpose(), uu)
    except Singular:
        raise NotInvertible("R has no inverse in the tensor-square algebra") from None
    if inv.transpose() @ right != uu.transpose():
        raise NotInvertible("R has only a one-sided inverse candidate")
    d, names, M, Ct = h.dim, h.basis_names, h.M, h.C.transpose()
    R, Rt = r.coefficients, r.coefficients.transpose()
    flip_is_inverse = Matrix(d, d, inv.col(0), h.params) == Rt
    rho_t = kron_apply(M, [d, h.u]).transpose()
    lam_t = kron_apply(M, [h.u, d]).transpose()
    swap = flip(d, d, h.params)

    def name(index, factors):
        return "(x)".join(decode(index, [names] * factors))

    qt1 = Rt @ Ct - kron_apply(M, [Rt @ rho_t, Rt @ lam_t])
    qt2 = R @ Ct - kron_apply(kron_apply(M, [R @ rho_t, R @ lam_t]), [swap])
    qt3 = (Ct @ left - kron_apply(Ct, [swap]) @ right).transpose()
    witnesses = {
        "qt.1": coefficient_witness(lambda c: (), lambda c, r: name(c * d + r, 3), qt1),
        "qt.2": coefficient_witness(
            lambda c: (), lambda c, r: name(c * d * d + r, 3), qt2.transpose()
        ),
        "qt.3": coefficient_witness(lambda c: (names[c],), lambda c, r: name(r, 2), qt3),
    }
    return [(k, "pass" if w is None else "fail", w) for k, w in witnesses.items()], flip_is_inverse


def outcomes(h, r):
    """(ours, the reference's), each the entries and verdict or the refusal."""

    def run(decide):
        try:
            return decide()
        except NotInvertible as exc:
            return f"NotInvertible: {exc}"

    def ours():
        rep, tri = qt_and_flip(h, r)
        assert is_triangular(h, r) is tri
        return [(e.check_id, e.status, e.witness) for e in rep.entries], tri

    return run(ours), run(lambda: reference_qt_and_flip(h, r))


def bumped(r, a, b, text):
    x = r.coefficients
    return RMatrix(bump_matrix(x, a, b, parse_scalar(text, x.params)))


def pairs():
    h2, (h4, r_t, _), k4, c3 = kz2(), sweedler(), klein(), conjugated_z3()
    r0 = r_triangular_kz2()
    return {
        "kz2/R0": (h2, r0),
        "sweedler/R_t": (h4, r_t),
        "klein/R0(x)R0": (k4, RMatrix(kron(r0.coefficients, r0.coefficients))),
        "kz2/2(1(x)1)": (h2, RMatrix(Matrix.from_dicts(2, 2, [{0: 2}, {}], ()))),
        "kz2/g(x)g-e(x)e": (h2, RMatrix(Matrix.from_dicts(2, 2, [{0: -1}, {1: 1}], ()))),
        "kz2/R0-bumped": (h2, bumped(r0, 0, 1, "1/3")),
        "sweedler/R_t-bumped": (h4, bumped(r_t, 0, 2, "t/3")),
        "conjugated-z3/1(x)1": (c3, trivial_rmatrix(c3)),
        "klein-functions/R": klein_function_hopf(),
        "kz2/e(x)g": (h2, RMatrix(Matrix.from_dicts(2, 2, [{1: 1}, {}], ()))),
    }


@pytest.mark.parametrize("name", list(pairs()))
def test_qt_and_flip_agrees_with_the_solve_on_r(name):
    h, r = pairs()[name]
    ours, want = outcomes(h, r)
    assert ours == want


def test_the_pairs_reach_every_verdict_and_every_qt_failure():
    seen = {"verdicts": set(), "failed": set()}
    for h, r in pairs().values():
        ours, _ = outcomes(h, r)
        if isinstance(ours, str):
            seen["verdicts"].add(ours.split(":")[0])
            continue
        entries, tri = ours
        seen["verdicts"].add(tri)
        seen["failed"].update(k for k, status, _ in entries if status == "fail")
    assert seen == {"verdicts": {True, False, "NotInvertible"}, "failed": {"qt.1", "qt.2", "qt.3"}}


def test_random_r_matrices_agree_with_the_solve_on_r():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    h4, r_t, _ = sweedler()
    r0, c3 = r_triangular_kz2(), conjugated_z3()
    bases = [(kz2(), r0), (klein(), RMatrix(kron(r0.coefficients, r0.coefficients))),
             (c3, trivial_rmatrix(c3)), (h4, r_t)]

    def case(i):
        h, r = bases[i]
        texts = INTS + FRACTIONS + (PARAMETRIC if h.params else [])
        cell = st.one_of(st.just("0"), st.sampled_from(texts))
        # a whole new R on the small algebras, or one entry of a triangular R moved
        fresh = st.lists(cell, min_size=h.dim**2, max_size=h.dim**2).map(
            lambda cells: RMatrix(matrix(cells, h.dim, h.params))
        )
        index = st.integers(0, h.dim - 1)
        moved = st.tuples(index, index, st.sampled_from(texts)).map(lambda m: bumped(r, *m))
        return st.tuples(st.just(h), st.one_of(moved, fresh) if h.dim < 4 else moved)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(c=st.integers(0, len(bases) - 1).flatmap(case))
    def check(c):
        ours, want = outcomes(*c)
        assert ours == want

    check()


def test_the_verdict_differs_from_the_solve_only_off_the_hopf_axioms():
    # If H is associative and unital, R R21 = 1 (x) 1 = R21 R makes y -> R21 y
    # the inverse of y -> R y, so the solve succeeds and agrees. Here e g1 = 0
    # in Z3 breaks both laws, and R = e (x) e still has R R21 = e (x) e = R21 R,
    # but y -> R y is singular: the solve refuses, and the products say yes
    z3 = zn(3)
    mult = [[z3.M.col(a * 3 + b) for b in range(3)] for a in range(3)]
    mult[0][1][1] = mult[0][1][1] - 1
    h = HopfAlgebra(z3.basis_names, mult, z3.unit, z3.comult, z3.counit, z3.antipode, ())
    r = trivial_rmatrix(h)
    failed = [e.check_id for e in check_hopf_axioms(h).entries if e.status == "fail"]
    assert {"hopf.assoc", "hopf.unit"} <= set(failed)
    ours, want = outcomes(h, r)
    assert ours[1] is True
    assert want == "NotInvertible: R has no inverse in the tensor-square algebra"
