"""Hopf axiom suite, group algebras, and quasitriangular/triangular checks."""

from fractions import Fraction

import pytest

from bihomcheck.errors import NotAGroup, NotInvertible
from bihomcheck.hopf import (
    HopfAlgebra,
    RMatrix,
    check_hopf_axioms,
    check_quasitriangular,
    group_algebra,
    is_triangular,
)
from bihomcheck.linalg import Matrix, flip, kron, solve
from bihomcheck.scalars import Scalar
from report_entry import entry
from test_witnesses import sweedler

Z2 = [[0, 1], [1, 0]]
Z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]


def kz2():
    return group_algebra(Z2, 0, names=["e", "g"])


def r_half():
    """R0 = (1/2)(e(x)e + e(x)g + g(x)e - g(x)g)."""
    h = Fraction(1, 2)
    return RMatrix(
        Matrix.from_rows(
            [[Scalar.of((), h), Scalar.of((), h)], [Scalar.of((), h), Scalar.of((), -h)]],
            (),
        )
    )


def trivial_r(hopf):
    """R = 1 (x) 1 on any Hopf algebra."""
    return RMatrix(hopf.u @ hopf.u.transpose())


def test_kz2_passes_all_axioms():
    rep = check_hopf_axioms(kz2())
    assert rep.ok
    assert [e.check_id for e in rep.entries] == [
        "hopf.assoc",
        "hopf.unit",
        "hopf.coassoc",
        "hopf.counit",
        "hopf.bialgebra",
        "hopf.antipode",
    ]


def test_zero_antipode_fails_with_witness():
    h = kz2()
    broken = HopfAlgebra(
        h.basis_names, h.mult, h.unit, h.comult, h.counit, Matrix.zero(2, 2), ()
    )
    rep = check_hopf_axioms(broken)
    e = entry(rep, "hopf.antipode")
    assert e.status == "fail"
    assert e.witness.basis == ("e",)
    assert not rep.ok


def test_trivial_hopf_algebra():
    rep = check_hopf_axioms(group_algebra([[0]], 0, names=["e"]))
    assert rep.ok


def test_z4_group_algebra_passes():
    rep = check_hopf_axioms(group_algebra(Z4, 0))
    assert rep.ok


def test_not_a_group_errors():
    with pytest.raises(NotAGroup, match="identity"):
        group_algebra([[1, 0], [0, 1]], 0)
    with pytest.raises(NotAGroup, match="associativity|inverse|identity"):
        # left-identity holds, but row 1 is not cancellative
        group_algebra([[0, 1, 2], [1, 1, 1], [2, 1, 0]], 0)
    with pytest.raises(NotAGroup, match="element index"):
        group_algebra([[0, 5], [1, 0]], 0)


def test_quasitriangular_kz2_r0():
    rep = check_quasitriangular(kz2(), r_half())
    assert rep.ok


def test_quasitriangular_trivial_r():
    for h in (kz2(), group_algebra(Z4, 0)):
        assert check_quasitriangular(h, trivial_r(h)).ok
        assert is_triangular(h, trivial_r(h))


def test_qt1_fails_for_e_tensor_g():
    # e(x)g is invertible in kZ2 (x) kZ2 (self-inverse, g^2 = e), but
    # (coproduct (x) id)(e(x)g) = e(x)e(x)g while R13 R23 = e(x)e(x)e
    h = kz2()
    one = Scalar.of((), 1)
    zero = Scalar.of((), 0)
    r = RMatrix(Matrix.from_rows([[zero, one], [zero, zero]], ()))
    inv = r.inverse_in(h)
    assert inv.at(0, 1) == one
    rep = check_quasitriangular(h, r)
    assert entry(rep, "qt.1").status == "fail"
    assert not rep.ok


def test_noninvertible_r_is_refused():
    # g(x)g - e(x)e squares to zero, so it has no inverse
    h = kz2()
    one = Scalar.of((), 1)
    zero = Scalar.of((), 0)
    r = RMatrix(Matrix.from_rows([[-one, zero], [zero, one]], ()))
    with pytest.raises(NotInvertible):
        check_quasitriangular(h, r)


def test_solve_on_the_left_operator_makes_r_x_the_unit():
    # RMatrix.inverse_in tests only x R = 1 (x) 1: the exact solve on the
    # transpose of the left operator makes R x = 1 (x) 1 hold by construction.
    # kZ2 with R0, Sweedler's H4 with R_t, and Z2 x Z2 (index 2x + y for
    # (x, y)) with the dense R0 (x) R0
    h4, r_t, _ = sweedler()
    klein = group_algebra([[a ^ b for b in range(4)] for a in range(4)], 0)
    r0 = r_half().coefficients
    for h, r in ((kz2(), r_half()), (h4, r_t), (klein, RMatrix(kron(r0, r0)))):
        left, right = r.operators(h)
        uu = kron(h.u, h.u)
        x = solve(left.transpose(), uu).transpose()
        assert x @ left == uu.transpose()
        assert x @ right == uu.transpose()


def test_triangularity_of_r0():
    assert is_triangular(kz2(), r_half())


def klein_function_hopf():
    """Functions on Z2 x Z2: basis of point idempotents, convolution
    coproduct, R from the bicharacter (x, y) -> (-1)^(x1 y2)."""
    elems = [(0, 0), (0, 1), (1, 0), (1, 1)]
    idx = {e: i for i, e in enumerate(elems)}
    names = [f"f{a}{b}" for a, b in elems]
    zero = Scalar.of((), 0)
    one = Scalar.of((), 1)
    d = 4
    mult = [[[zero] * d for _ in range(d)] for _ in range(d)]
    comult = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for i, x in enumerate(elems):
        mult[i][i][i] = one
        for j, y in enumerate(elems):
            s = idx[((x[0] + y[0]) % 2, (x[1] + y[1]) % 2)]
            comult[s][i][j] = one
    unit = [one] * d
    counit = [one if e == (0, 0) else zero for e in elems]
    antipode = Matrix.identity(d)  # every element is 2-torsion
    h = HopfAlgebra(names, mult, unit, comult, counit, antipode, ())
    r = RMatrix(
        Matrix.from_rows(
            [
                [Scalar.of((), (-1) ** (x[0] * y[1])) for y in elems]
                for x in elems
            ],
            (),
        )
    )
    return h, r


def test_quasitriangular_but_not_triangular_dim4():
    h, r = klein_function_hopf()
    assert check_hopf_axioms(h).ok
    rep = check_quasitriangular(h, r)
    assert rep.ok
    # R is its own inverse but not symmetric under the flip
    assert not is_triangular(h, r)


def test_counit_is_algebra_map_and_antipode_antihomomorphism():
    for h in (kz2(), group_algebra(Z4, 0), klein_function_hopf()[0]):
        # eps(ab) = eps(a) eps(b) and S(ab) = S(b) S(a)
        assert h.eps @ h.M == kron(h.eps, h.eps)
        swap = flip(h.dim, h.dim, h.params)
        assert h.antipode @ h.M == h.M @ kron(h.antipode, h.antipode) @ swap


def test_qt_normalization_consequences():
    # (counit (x) id)(R) = 1 and (id (x) counit)(R) = 1 for accepted pairs
    cases = [(kz2(), r_half()), (kz2(), trivial_r(kz2())), klein_function_hopf()]
    for h, r in cases:
        assert check_quasitriangular(h, r).ok
        assert h.eps @ r.coefficients == h.u.transpose()
        assert r.coefficients @ h.eps.transpose() == h.u


def test_group_algebra_is_cocommutative():
    for h in (kz2(), group_algebra(Z4, 0)):
        assert flip(h.dim, h.dim, h.params) @ h.C == h.C
