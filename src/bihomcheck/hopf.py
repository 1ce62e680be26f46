"""Finite-dimensional Hopf algebras by structure constants, and R-matrices.

Every structure map is one sparse ``Matrix`` on tensor powers of H. The
basis of H (x) H is e_a (x) e_b at index a*d + b, and so on for higher
powers, so the column order of a map out of a tensor power is the
lexicographic order of basis tuples.

- ``M`` (d x d^2) is the product: column i*d + j holds e_i e_j.
- ``C`` (d^2 x d) is the coproduct: column i holds the coefficients of
  the coproduct of e_i at rows a*d + b.
- ``u`` (d x 1) is the unit, ``eps`` (1 x d) the counit, and ``antipode``
  (d x d) has S(e_i) as column i.

An element x of H (x) H is its d x d coefficient matrix X, x = sum X[a][b]
e_a (x) e_b: an R-matrix, and each coproduct (``coproducts``). It acts on a
tensor product through ``linalg.kron_sum``, and on H (x) H itself as
y -> x y or y x (``tensor_square_mult``). These H (x) H operators are row
form, like the multiplication operators of a product: for a row vector v
of coefficients on H (x) H, ``v @ K`` is the row of x v (or v x), so row
a*d + b of K is x (e_a (x) e_b). Each Hopf and quasitriangular
axiom is an identity between products of these matrices, and a failing
check names the first failing basis tuple. A map tensored with identities,
such as M (M (x) id), is applied slot by slot with ``kron_apply``; a map
into a tensor power, such as (C (x) id) C, through the transpose.

The constructor takes ``M`` and ``C``, or nested constants that
``tensor_matrix`` converts: mult[i][j][k] is the coefficient of e_k in e_i e_j
and comult[i][j][k] that of e_j (x) e_k in the coproduct of e_i. Only ``M``
and ``C`` are kept, with ``mult`` and ``comult`` as read-only nested views;
the unit and counit are also readable as the lists ``unit`` and ``counit``.
"""

from __future__ import annotations

from functools import cached_property

from .errors import DimensionMismatch, NotAGroup, NotInvertible, Singular
from .linalg import (
    Matrix,
    flip,
    kron,
    kron_apply,
    kron_sum,
    multiplications,
    nested_tensor,
    solve,
    tensor_matrix,
    triples_matrix,
    vstack,
)
from .report import CheckReport, coefficient_witness, column_witness, decode
from .scalars import Scalar


class HopfAlgebra:
    """Hopf algebra data; run ``check_hopf_axioms`` to verify the laws."""

    def __init__(self, basis_names, mult, unit, comult, counit, antipode, params=()):
        self.basis_names = list(basis_names)
        self.dim = d = len(self.basis_names)
        self.params = tuple(params)
        self.unit = list(unit)
        self.counit = list(counit)
        self.antipode = antipode
        self.M = tensor_matrix(mult, d, self.params, name="mult")
        self.C = tensor_matrix(comult, d, self.params, coproduct=True, name="comult")
        if len(self.unit) != d or len(self.counit) != d:
            raise DimensionMismatch("unit/counit vectors have wrong length")
        if (antipode.rows, antipode.cols) != (d, d):
            raise DimensionMismatch("antipode matrix has wrong shape")
        self.u = Matrix(d, 1, self.unit, self.params)
        self.eps = Matrix(1, d, self.counit, self.params)

    @cached_property
    def mult(self) -> list:
        """mult[i][j][k], the coefficient of e_k in e_i e_j (a view of M)."""
        return nested_tensor(self.M)

    @cached_property
    def comult(self) -> list:
        """comult[i][j][k], the coefficient of e_j (x) e_k in the coproduct of e_i."""
        return nested_tensor(self.C, coproduct=True)

    def coproducts(self) -> list:
        """The coefficient matrix of the coproduct of each basis element."""
        return _coefficients(self.C, self.dim)

    def tensor_square_mult(self, x: Matrix, right=False) -> Matrix:
        """Row-form operator K of y -> x y (y -> y x when ``right``) on
        H (x) H for the element with coefficient matrix x: ``v @ K`` is the
        row of x v, and row c*d + e is x (e_c (x) e_e). It is the sum over a
        of kron(L_a, L_{x_a}) for L_b the row-form multiplication by e_b (on
        the right when ``right``) and x_a = sum_b x[a][b] e_b."""
        ops = multiplications(self.M.transpose(), right)
        return kron_sum(x, ops, ops)


def _coefficients(m: Matrix, d) -> list:
    """The d x d coefficient matrix of each column of m, a map into H (x) H
    (row a*d + b holds e_a (x) e_b), on the kernel values of m."""
    out = [[{} for _ in range(d)] for _ in range(m.cols)]
    for ab, row in enumerate(m.data):
        a, b = divmod(ab, d)
        for c, v in row.items():
            out[c][a][b] = v
    return [Matrix.from_dicts(d, d, rows, m.params) for rows in out]


class RMatrix:
    """Coefficient matrix of an element R of H (x) H."""

    def __init__(self, coefficients: Matrix):
        if coefficients.rows != coefficients.cols:
            raise DimensionMismatch("R-matrix coefficients must be square")
        self.coefficients = coefficients
        self.dim = coefficients.rows

    def operators(self, hopf: HopfAlgebra) -> tuple:
        """The row-form operators of y -> R y and y -> y R on H (x) H
        (``tensor_square_mult``): ``v @ K`` is the row of R v, or v R."""
        if hopf.dim != self.dim:
            raise DimensionMismatch("R-matrix dimension differs from the Hopf algebra")
        x = self.coefficients
        return hopf.tensor_square_mult(x), hopf.tensor_square_mult(x, right=True)

    def inverse_in(self, hopf: HopfAlgebra, operators=None) -> Matrix:
        """Coefficient matrix of the two-sided inverse of R in the algebra
        H (x) H; raises NotInvertible when none exists. ``operators`` is the
        pair ``operators(hopf)`` when the caller has built it already.

        The operators are row form, so R x = 1 (x) 1 reads x @ L = 1 (x) 1
        for the row x of the inverse. The exact solve on the transpose of L
        makes that side hold, and the other side, x R = 1 (x) 1, is checked
        with the one-row product x @ K of the right operator."""
        left, right = operators or self.operators(hopf)
        uu = kron(hopf.u, hopf.u)
        try:
            inv = solve(left.transpose(), uu)
        except Singular:
            raise NotInvertible("R has no inverse in the tensor-square algebra") from None
        # one-sided suffices in a finite-dimensional unital algebra, but the
        # input may not satisfy the unit laws, so confirm the other side
        if inv.transpose() @ right != uu.transpose():
            raise NotInvertible("R has only a one-sided inverse candidate")
        return _coefficients(inv, hopf.dim)[0]


def group_algebra(cayley, identity, names=None, params=()) -> HopfAlgebra:
    """Group algebra kG as a Hopf algebra from a Cayley table.

    The table is validated as a group (closure, identity, inverses,
    associativity) before any tensors are built; basis = group elements,
    coproduct is diagonal, counit is 1, antipode permutes to inverses.
    """
    n = len(cayley)
    if names is None:
        names = [f"g{i}" for i in range(n)]
    if len(names) != n:
        raise NotAGroup("name list length differs from table size")
    for i, row in enumerate(cayley):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise NotAGroup(f"cell ({i},{j}) = {v!r} is not an element index")
    if not 0 <= identity < n:
        raise NotAGroup(f"identity index {identity} out of range")
    for i in range(n):
        if cayley[identity][i] != i:
            raise NotAGroup(f"cell ({identity},{i}) breaks the left identity law")
        if cayley[i][identity] != i:
            raise NotAGroup(f"cell ({i},{identity}) breaks the right identity law")
    inverse = [None] * n
    for i in range(n):
        for j in range(n):
            if cayley[i][j] == identity and cayley[j][i] == identity:
                inverse[i] = j
                break
        if inverse[i] is None:
            raise NotAGroup(f"row {i} has no inverse element")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if cayley[cayley[i][j]][k] != cayley[i][cayley[j][k]]:
                    raise NotAGroup(
                        f"associativity fails at cells (({i},{j}),{k}) vs ({i},({j},{k}))"
                    )
    zero = Scalar.of(params, 0)
    one = Scalar.of(params, 1)
    mult = triples_matrix(
        [(i, j, k, one) for i, row in enumerate(cayley) for j, k in enumerate(row)], n, params
    )
    # the coproduct of g is g (x) g
    comult = triples_matrix([(i, i, i, one) for i in range(n)], n, params, coproduct=True)
    unit = [one if i == identity else zero for i in range(n)]
    antipode = Matrix.from_dicts(n, n, [{inverse[i]: 1} for i in range(n)], params)
    return HopfAlgebra(names, mult, unit, comult, [one] * n, antipode, params)


def _tensor_name(names, index, factors):
    return "(x)".join(decode(index, [names] * factors))


def check_hopf_axioms(h: HopfAlgebra) -> CheckReport:
    """One report entry per Hopf axiom, with a witness on first failure."""
    rep = CheckReport("hopf")
    d, names = h.dim, h.basis_names
    M, C, u, eps, S = h.M, h.C, h.u, h.eps, h.antipode
    ident = Matrix.identity(d, h.params)

    def basis(c):
        return (names[c],)

    w = column_witness([names] * 3, names, kron_apply(M, [M, d]) - kron_apply(M, [d, M]))
    rep.add("hopf.assoc", "(ab)c = a(bc)", w is None, w)

    left, right = kron_apply(M, [u, d]), kron_apply(M, [d, u])
    w = column_witness([names], names, left - ident, right - ident)
    rep.add("hopf.unit", "1a = a = a1", w is None, w)

    # (C (x) id) C is the transpose of C^T (C^T (x) id)
    Ct = C.transpose()
    diff = (kron_apply(Ct, [Ct, d]) - kron_apply(Ct, [d, Ct])).transpose()
    w = coefficient_witness(basis, lambda c, r: _tensor_name(names, r, 3), diff)
    law = "(coproduct (x) id) o coproduct = (id (x) coproduct) o coproduct"
    rep.add("hopf.coassoc", law, w is None, w)

    w = coefficient_witness(
        basis, lambda c, r: names[r], kron(eps, ident) @ C - ident, kron(ident, eps) @ C - ident
    )
    law = "(counit (x) id) o coproduct = id = (id (x) counit) o coproduct"
    rep.add("hopf.counit", law, w is None, w)

    # K_i, the row-form operator of y -> coproduct(e_i) y, on multiplication
    # operators built once: row j of C^T K_i is coproduct(e_i) coproduct(e_j),
    # so the stacked blocks hold it at row i*d + j, where M^T C^T holds the
    # coproduct of e_i e_j
    Mt = M.transpose()
    ops = multiplications(Mt, False)
    squares = vstack([Ct @ kron_sum(x, ops, ops) for x in h.coproducts()])

    def label(c, r):
        return _tensor_name(names, r, 2) if r < d * d else "counit"

    # each difference stacks the H (x) H coefficients above the counit row,
    # one column per pair (i, j)
    one = Matrix.identity(1, h.params)
    diff = vstack([(Mt @ Ct - squares).transpose(), eps @ M - kron(eps, eps)])
    w = coefficient_witness(lambda c: decode(c, [names] * 2), label, diff) or coefficient_witness(
        lambda c: ("1",), label, vstack([C @ u - kron(u, u), eps @ u - one])
    )
    rep.add("hopf.bialgebra", "coproduct and counit are algebra maps", w is None, w)

    w = column_witness(
        [names], names, kron_apply(M, [S, d]) @ C - u @ eps, kron_apply(M, [d, S]) @ C - u @ eps
    )
    rep.add(
        "hopf.antipode",
        "m o (S (x) id) o coproduct = unit o counit = m o (id (x) S) o coproduct",
        w is None,
        w,
    )
    return rep


def check_quasitriangular(h: HopfAlgebra, r: RMatrix) -> CheckReport:
    """QT axioms for (H, R); raises NotInvertible when R is not a unit."""
    return qt_and_flip(h, r)[0]


def qt_and_flip(h: HopfAlgebra, r: RMatrix):
    """The report of ``check_quasitriangular`` and the verdict of
    ``is_triangular`` from one solve for the inverse of R (the precondition
    of both, which also share the operators of R); raises NotInvertible
    when R is not a unit. Through ``triangularity`` this is the one verdict
    on (H, R) a command computes and hands to each check that needs it."""
    left, right = r.operators(h)
    rep = CheckReport("quasitriangular")
    d, names = h.dim, h.basis_names
    M, R, Rt, Ct = h.M, r.coefficients, r.coefficients.transpose(), h.C.transpose()
    flip_is_inverse = r.inverse_in(h, (left, right)) == Rt
    rho_t = kron_apply(M, [d, h.u]).transpose()  # a -> a1, transposed
    lam_t = kron_apply(M, [h.u, d]).transpose()  # a -> 1a, transposed
    swap = flip(d, d, h.params)

    # qt.1 and qt.2 compare tensors on H^(x)3 as matrices with one row per
    # value of one slot (the last in qt.1, the first in qt.2) and one column
    # per pair of the other two; the witness reads the first failing column,
    # then row, of the difference laid out so that this names the first
    # failing triple (a, b, c)
    # row c, columns (a, b): R^T C^T = M (R^T (x) R^T)(rho (x) lam)^T
    diff = Rt @ Ct - kron_apply(M, [Rt @ rho_t, Rt @ lam_t])
    w = coefficient_witness(lambda c: (), lambda c, r: _tensor_name(names, c * d + r, 3), diff)
    rep.add("qt.1", "(coproduct (x) id)(R) = R13 R23", w is None, w)

    # row a, columns (b, c): R C^T = M (R (x) R)(rho (x) lam)^T flip, the
    # flip a relabelling of the column pair
    diff = R @ Ct - kron_apply(kron_apply(M, [R @ rho_t, R @ lam_t]), [swap])
    w = coefficient_witness(
        lambda c: (), lambda c, r: _tensor_name(names, c * d * d + r, 3), diff.transpose()
    )
    rep.add("qt.2", "(id (x) coproduct)(R) = R13 R12", w is None, w)

    # row c of C^T K_L is R coproduct(e_c); the flip relabels C^T into the
    # rows coproduct-op(e_c), and row c of that times K_R is coproduct-op(e_c)
    # R. Transposed once for the witness: one column per basis element h
    diff = (Ct @ left - kron_apply(Ct, [swap]) @ right).transpose()
    w = coefficient_witness(lambda c: (names[c],), lambda c, r: _tensor_name(names, r, 2), diff)
    rep.add("qt.3", "R coproduct(h) = coproduct-op(h) R for every basis h", w is None, w)
    return rep, flip_is_inverse


def triangularity(h: HopfAlgebra, r: RMatrix):
    """``qt_and_flip(h, r)``, or the NotInvertible it raised: whether (H, R)
    is triangular, the hypothesis of the braided commutator, the twist and
    Lemma 3.1. A command keeps it only while it runs."""
    try:
        return qt_and_flip(h, r)
    except NotInvertible as exc:
        return exc


def is_triangular(h: HopfAlgebra, r: RMatrix) -> bool:
    """True iff the flip of R equals its inverse in H (x) H."""
    return r.inverse_in(h) == r.coefficients.transpose()
