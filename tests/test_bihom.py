"""Commutator and twist constructions, and the BiHom axiom suites.

Expected structure constants below were derived by hand from the bracket
formula before the implementation existed (working through the sign of the
braided product (R2.u)(R1.v) = (-1)^{|u||v|} uv for the order-2 group
action), and are frozen here as the oracle.
"""

import pytest

from bihomcheck.bihom import (
    BiHomAlgebra,
    BiHomLie,
    check_bihom_associative,
    check_generalized_bihom_lie,
    check_lemma31,
    commutator_bracket,
    twist_bracket,
)
from bihomcheck.algfile import substitute_file
from bihomcheck.catalog import catalog_file, r_triangular_kz2, trivial_rmatrix
from bihomcheck.errors import NotBijective, NotEndomorphism, NotTriangular
from bihomcheck.hmod import HModule, ModuleMap
from bihomcheck.hopf import RMatrix
from bihomcheck.linalg import Matrix
from bihomcheck.scalars import Scalar, parse_scalar
from report_entry import entry
from shipped import shipped

B = ("b",)
L = ("l1", "l2", "l1p", "l2p")


def heisenberg_over_q():
    """The Heisenberg L of example25-heisenberg over Q, with no parameters:
    only its twist maps hold parameters, so binding them leaves L as it is."""
    f = substitute_file(catalog_file("example25-heisenberg"), dict.fromkeys(L, 1))
    return f.objects["L"].structure(f.rmatrix)


def diagonal(values):
    """The diagonal matrix over Q of the ints ``values``."""
    return Matrix.from_dicts(len(values), len(values), [{i: v} for i, v in enumerate(values)], ())


def substituted_example24(value):
    """Example 2.4 with the parameter pinned to a rational number."""
    a = shipped("example24", "A")
    m = a.module

    def sub_matrix(mat):
        return Matrix(
            mat.rows, mat.cols, [x.substitute({"b": value}) for x in mat.entries], B
        )

    module = HModule(m.hopf, m.basis_names, [sub_matrix(op) for op in m.action])
    mult = [
        [[x.substitute({"b": value}) for x in row] for row in plane]
        for plane in a.mult
    ]
    alpha = ModuleMap(module, module, sub_matrix(a.alpha.matrix))
    beta = ModuleMap(module, module, sub_matrix(a.beta.matrix))
    unit = [x.substitute({"b": value}) for x in a.unit]
    return BiHomAlgebra(module, mult, alpha, beta, unit=unit)


def test_example24_bihom_associative_suite():
    rep = check_bihom_associative(shipped("example24", "A"))
    assert rep.ok
    ids = [e.check_id for e in rep.entries]
    assert "bihom.assoc" in ids and "module-algebra.equivariance" in ids


def test_plain_associative_algebra_is_bihom_with_identity_maps():
    assert check_bihom_associative(shipped("trivial-hopf", "A")).ok


def test_example24_with_identity_alpha_fails_with_witness():
    a = shipped("example24", "A")
    ident = ModuleMap.identity(a.module)
    broken = BiHomAlgebra(a.module, a.mult, ident, a.beta, unit=a.unit)
    rep = check_bihom_associative(broken)
    e = entry(rep, "bihom.assoc")
    assert e.status == "fail"
    # brute force over all 8 triples confirms a genuine witness exists;
    # the first failing triple in scan order is (x1, x1, x2):
    # alpha(x1)(x1 x2) = b^2 x2 versus (x1 x1) beta(x2) = b^2 x2 passes, so
    # the scan lands on the first triple where alpha(x2) = -x2 mattered
    i, j, k = e.witness.basis
    assert {i, j, k} <= {"x1", "x2"}


def test_commutator_on_example24_is_the_zero_bracket():
    # Hand evaluation of the bracket formula: with u = inv(alpha)beta(b),
    # v = alpha inv(beta)(a), the braided product is (-1)^{|u||v|} u v, and
    # every pair cancels exactly:
    #   [x1,x1] = x1 - x1 = 0
    #   [x1,x2] = b x2 - (-b x2)(x1) = b x2 - b x2 = 0
    #   [x2,x1] = -x2 - (x1)(-x2/b) = -x2 + x2 = 0
    #   [x2,x2] = 0 - 0 = 0
    # (the printed table in the source differs; the formula is ground truth)
    a = shipped("example24", "A")
    lie = commutator_bracket(a, r_triangular_kz2(B))
    for i in range(2):
        for j in range(2):
            assert all(c.is_zero() for c in lie.bracket[i][j])
    assert check_generalized_bihom_lie(lie).ok


def test_commutator_trivial_twists_is_classical_commutator():
    a = shipped("trivial-hopf", "A")
    lie = commutator_bracket(a, trivial_rmatrix(a.module.hopf))
    d = a.module.dim
    ident = Matrix.identity(d, a.params)
    rows = list(a.products(ident.data, ident.data))  # row i*d + j is e_i e_j
    p = Matrix.from_dicts(d * d, d, rows, a.params)
    for i in range(d):
        for j in range(d):
            classical = [x - y for x, y in zip(p.row(i * d + j), p.row(j * d + i))]
            assert all((x - y).is_zero() for x, y in zip(lie.bracket[i][j], classical))
    assert check_generalized_bihom_lie(lie).ok


def test_commutator_of_heisenberg_product_is_the_symmetric_bracket():
    # both odd generators: [x1,x2] = x1 x2 - (-1)^{1.1} x2 x1 = x3,
    # [x2,x1] = 0 + x1 x2 = x3; this recovers the catalog bracket exactly
    a = shipped("example25-heisenberg", "A")
    lie = commutator_bracket(a, r_triangular_kz2(L))
    expected = shipped("example25-heisenberg", "L")
    for i in range(3):
        for j in range(3):
            assert all(
                (x - y).is_zero()
                for x, y in zip(lie.bracket[i][j], expected.bracket[i][j])
            )


def test_commutator_refuses_singular_beta():
    with pytest.raises(NotBijective):
        commutator_bracket(substituted_example24(0), r_triangular_kz2(B))


def test_commutator_refuses_non_quasitriangular_r():
    a = shipped("example24", "A")
    zero = Scalar.of(B, 0)
    one = Scalar.of(B, 1)
    e_tensor_g = RMatrix(Matrix.from_rows([[zero, one], [zero, zero]], B))
    with pytest.raises(NotTriangular):
        commutator_bracket(a, e_tensor_g)


def test_hom_degeneration_beta_equals_alpha():
    # b = -1 makes beta = diag(1,-1) = alpha; the Hom-case axioms are the
    # BiHom suite with the two maps equal
    a = substituted_example24(-1)
    assert a.alpha.matrix == a.beta.matrix
    lie = commutator_bracket(a, r_triangular_kz2(B))
    rep = check_generalized_bihom_lie(lie)
    assert rep.ok


def test_generalized_lie_suite_on_catalog_brackets():
    assert check_generalized_bihom_lie(shipped("example25-heisenberg", "L")).ok
    assert check_generalized_bihom_lie(shipped("cross-product-classical", "L")).ok
    assert check_generalized_bihom_lie(shipped("example25-twisted", "L")).ok


def test_classical_cross_product_reduces_to_antisymmetry_and_jacobi():
    lie = shipped("cross-product-classical", "L")
    rep = check_generalized_bihom_lie(lie)
    assert rep.ok
    # break antisymmetry only: [e1,e2] = e3 but [e2,e1] = e3
    bracket = [[list(v) for v in plane] for plane in lie.bracket]
    bracket[1][0][2] = Scalar.of((), 1)
    broken = BiHomLie(lie.module, bracket, lie.alpha, lie.beta, lie.rmatrix)
    rep = check_generalized_bihom_lie(broken)
    assert entry(rep, "lie.skew").status == "fail"


def test_twist_bracket_symbolic_table():
    base = shipped("example25-heisenberg", "L")
    alpha, beta = catalog_file("example25-heisenberg").objects["L"].twist_maps()
    lie = twist_bracket(base, alpha, beta)
    want_01 = parse_scalar("l1*l2p", L)
    want_10 = parse_scalar("l1p*l2", L)
    for i in range(3):
        for j in range(3):
            vec = lie.bracket[i][j]
            if (i, j) == (0, 1):
                assert vec[2] == want_01 and vec[0].is_zero() and vec[1].is_zero()
            elif (i, j) == (1, 0):
                assert vec[2] == want_10 and vec[0].is_zero() and vec[1].is_zero()
            else:
                assert all(c.is_zero() for c in vec)
    assert check_generalized_bihom_lie(lie).ok
    # matches the catalog's stored twisted instance
    stored = shipped("example25-twisted", "L")
    for i in range(3):
        for j in range(3):
            assert all(
                (x - y).is_zero()
                for x, y in zip(lie.bracket[i][j], stored.bracket[i][j])
            )


def test_twist_with_identity_maps_is_identity():
    base = shipped("example25-heisenberg", "L")
    ident = ModuleMap.identity(base.module)
    lie = twist_bracket(base, ident, ident)
    for i in range(3):
        for j in range(3):
            assert all(
                (x - y).is_zero()
                for x, y in zip(lie.bracket[i][j], base.bracket[i][j])
            )


def test_twist_numeric_specialization():
    # alpha = diag(2,1,2), beta = id: [x1,x2]' = 2 x3 and [x2,x1]' = x3,
    # the symbolic table at l1=2, l2=1, l1p=l2p=1
    base = heisenberg_over_q()
    two = Scalar.of((), 2)
    one = Scalar.of((), 1)
    alpha = ModuleMap(base.module, base.module, diagonal([2, 1, 2]))
    beta = ModuleMap.identity(base.module)
    lie = twist_bracket(base, alpha, beta)
    assert lie.bracket[0][1][2] == two
    assert lie.bracket[1][0][2] == one


def test_twist_rejects_non_endomorphism():
    base = heisenberg_over_q()
    bad = ModuleMap(base.module, base.module, diagonal([1, 2, 1]))
    with pytest.raises(NotEndomorphism):
        twist_bracket(base, bad, ModuleMap.identity(base.module))


def test_twist_hom_degeneration():
    # beta := alpha collapses to the Hom case and still passes the suite
    base = shipped("example25-heisenberg", "L")
    alpha, _ = catalog_file("example25-heisenberg").objects["L"].twist_maps()
    lie = twist_bracket(base, alpha, alpha)
    assert check_generalized_bihom_lie(lie).ok
    want = parse_scalar("l1*l2", L)
    assert lie.bracket[0][1][2] == want
    assert lie.bracket[1][0][2] == want


def hom_case_verdicts(lie):
    """Independently coded Hom-case axioms (the two twisting maps equal):
    returns (maps-multiplicative, skew, jacobi) verdicts computed directly
    from the bracket tensor, the single map, and the braiding."""
    from bihomcheck.hmod import braiding
    from bihomcheck.linalg import kron

    m = lie.module
    d = m.dim
    a = lie.alpha.matrix
    B = lie.structure_matrix()
    tau = braiding(m, m, lie.rmatrix)
    multiplicative = (a @ B - B @ kron(a, a)).is_zero()
    skew = (B @ kron(a, a) + (B @ tau) @ kron(a, a)).is_zero()
    inner = B @ kron(a, a)
    J = B @ kron(a @ a, inner)
    ident = Matrix.identity(d, lie.params)
    p2 = kron(tau, ident) @ kron(ident, tau)
    p3 = kron(ident, tau) @ kron(tau, ident)
    jacobi = (J + J @ p2 + J @ p3).is_zero()
    return multiplicative, skew, jacobi


def test_hom_configuration_verdicts_match_on_equal_maps():
    # on inputs with beta = alpha the BiHom suite and the Hom-case checker
    # must agree axiom by axiom, on valid and on broken instances alike
    cases = []
    base = shipped("example25-heisenberg", "L")
    alpha, _ = catalog_file("example25-heisenberg").objects["L"].twist_maps()
    cases.append(twist_bracket(base, alpha, alpha))
    cross = shipped("cross-product-classical", "L")
    cases.append(cross)
    # a broken instance: symmetric bracket where antisymmetry is required
    broken = BiHomLie(
        cross.module, heisenberg_over_q().bracket, cross.alpha, cross.beta, cross.rmatrix
    )
    cases.append(broken)
    for lie in cases:
        assert lie.alpha.matrix == lie.beta.matrix
        mult_ok, skew_ok, jac_ok = hom_case_verdicts(lie)
        rep = check_generalized_bihom_lie(lie)
        assert (entry(rep, "lie.twist-endomorphisms").status == "pass") == mult_ok
        assert (entry(rep, "lie.skew").status == "pass") == skew_ok
        assert (entry(rep, "lie.jacobi").status == "pass") == jac_ok


def test_lemma31_classical_case():
    # trivial Hopf data and identity maps: both identities reduce to the
    # classical [a,bc] = [a,b]c + b[a,c] and [ab,c] = a[b,c] + [a,c]b
    a = shipped("trivial-hopf", "A")
    rep = check_lemma31(a, trivial_rmatrix(a.module.hopf))
    assert rep.ok
    assert entry(rep, "lemma31.1").detail == "64 triples checked"


def test_lemma31_example24():
    rep = check_lemma31(shipped("example24", "A"), r_triangular_kz2(B))
    assert rep.ok


def test_lemma31_heisenberg_product():
    rep = check_lemma31(shipped("example25-heisenberg", "A"), r_triangular_kz2(L))
    assert rep.ok
