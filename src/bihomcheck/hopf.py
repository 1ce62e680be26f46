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
a*d + b of K is x (e_a (x) e_b). The product of two elements x and y of
H (x) H is M (x (x) y) M^T (``tensor_square_product``). Each Hopf and
quasitriangular axiom is an identity between products of these matrices,
and a failing check names the first failing basis tuple.

Triangularity, R21 = R^-1, is decided by R R21 = 1 (x) 1 = R21 R; the
d^2 x d^2 system for R^-1 (``RMatrix.inverse_in``) is solved only when that
fails. That test and the qt checks run on D R, for D the common denominator
of R's constants (one denominator, as in FLINT's ``fmpq_mat``), so that a
rational R is handled on ints. A map tensored with identities,
such as M (M (x) id), is applied slot by slot with ``kron_apply``; a map
into a tensor power, such as (C (x) id) C, through the transpose.

``check_hopf_axioms`` reads associativity and the bialgebra law only on
the basis elements of a generating set G (``_generators``), by two closure
facts, each with a short proof:

- S = {x : (xy)z = x(yz) for all y, z} is a subspace closed under products,
  with no hypothesis: for x, x' in S, ((xx')y)z = (x(x'y))z = x((x'y)z) =
  x(x'(yz)) = (xx')(yz), using x, then x, then x', then x.
- S = {x : coproduct(xy) = coproduct(x) coproduct(y) for all y} is closed
  under products when H is associative: coproduct((xx')y) =
  coproduct(x(x'y)) = coproduct(x) coproduct(x'y) = coproduct(x)
  coproduct(x') coproduct(y) = coproduct(xx') coproduct(y), H (x) H being
  associative too.

Each S is a subspace closed under products, so once it holds G it holds
W, the span of G closed under left products by G, and G is chosen so that
W is H. Over Q(params) the spin decides W by its generic rank, and S is a
Q(params)-subspace. So associativity holds iff it holds on G, and so does
the bialgebra law once associativity passed; otherwise it is read on every
basis element. The witness is that of a scan over every basis element: one
outside G that comes before the first failing block of G lies in the spin
of generators that passed, so its block passes too.

The constructor takes ``M`` and ``C``, or nested constants that
``tensor_matrix`` converts: mult[i][j][k] is the coefficient of e_k in e_i e_j
and comult[i][j][k] that of e_j (x) e_k in the coproduct of e_i. Only ``M``
and ``C`` are kept, with ``mult`` and ``comult`` as read-only nested views;
the unit and counit are also readable as the lists ``unit`` and ``counit``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import DimensionMismatch, NotAGroup, NotInvertible, Singular
from .linalg import (
    Echelon,
    Matrix,
    _kmul,
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

    def tensor_square_product(self, x: Matrix, y: Matrix) -> Matrix:
        """The coefficient matrix of x y in H (x) H, sum x[a][b] y[c][e]
        (e_a e_c) (x) (e_b e_e), for coefficient matrices x and y."""
        return self.M @ (kron(x, y) @ self.M.transpose())


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

    def inverse_in(self, hopf: HopfAlgebra) -> Matrix:
        """Coefficient matrix of the two-sided inverse of R in the algebra
        H (x) H; raises NotInvertible when none exists. The triangularity
        verdict calls it only when flip(R) is not the inverse.

        The operators are row form, so R x = 1 (x) 1 reads x @ L = 1 (x) 1
        for the row x of the inverse. The exact solve on the transpose of L
        makes that side hold, and the other side, x R = 1 (x) 1, is checked
        with the one-row product x @ K of the right operator."""
        left, right = self.operators(hopf)
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

    def cleared(self, hopf: HopfAlgebra) -> tuple:
        """(D, D R) for D the least common multiple of the denominators of
        the constant coefficients of R, so that a constant D R holds ints."""
        if hopf.dim != self.dim:
            raise DimensionMismatch("R-matrix dimension differs from the Hopf algebra")
        x = self.coefficients
        D = lcm(*(v._denominator for row in x.data for v in row.values() if type(v) is Fraction))
        return D, RMatrix(_times(x, D))


def _times(m: Matrix, f) -> Matrix:
    """f m for a nonzero kernel value f; m itself when f is 1."""
    if type(f) is int and f == 1:
        return m
    data = [{c: _kmul(f, x) for c, x in row.items()} for row in m.data]
    return Matrix.from_dicts(m.rows, m.cols, data, m.params)


def _unscaled(diff: Matrix, n) -> Matrix:
    """diff / n for an int n > 0, the witness scale of an identity scaled
    by n; a zero diff, a passing identity, costs nothing."""
    return diff if n == 1 or diff.is_zero() else _times(diff, Fraction(1, n))


def _row(x: Matrix) -> Matrix:
    """The element of H (x) H with coefficient matrix x as one row."""
    d = x.rows
    data = [{a * d + b: v for a, row in enumerate(x.data) for b, v in row.items()}]
    return Matrix.from_dicts(1, d * d, data, x.params)


def _flip_is_inverse(h: HopfAlgebra, D, s: RMatrix, operators=None) -> bool:
    """Whether flip(R) is R^-1 in H (x) H, read on s = D R: s s21 =
    D^2 (1 (x) 1) = s21 s, by ``tensor_square_product`` or by the given
    operators of s. Only when that fails is s solved for, to raise
    NotInvertible for an R with no inverse; an inverse found then is not the
    flip. If H is associative and unital, a passing R has the inverse R21,
    so its left multiplication is invertible and the solve agrees."""
    x = s.coefficients
    xt = x.transpose()
    one = _times(h.u @ h.u.transpose(), D * D)
    if operators:
        # row form: v @ K is the row of s v (or v s), here for v = s21
        v, one = _row(xt), _row(one)
        products = (v @ k for k in operators)
    else:
        products = (h.tensor_square_product(*p) for p in ((x, xt), (xt, x)))
    if all(p == one for p in products):
        return True
    s.inverse_in(h)
    return False


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
            if type(v) is not int or not 0 <= v < n:
                raise NotAGroup(f"cell ({i},{j}) = {v!r} is not an element index")
    if type(identity) is not int or not 0 <= identity < n:
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


def _generators(ops: list, params) -> set:
    """G, the basis indices x whose e_x generate H, for ``ops`` the
    row-form operators of v -> e_j v: e_x is kept when it is not in W, the
    left spin of the elements kept before it (the closure of their span
    under v -> e_g v for each kept g), so the spin of all of G is H. W is
    one ``Echelon``, spun on as each element is kept."""
    d = len(ops)
    kept, odata, span = set(), [], Echelon(d, params)
    for x in range(d - 1):
        if (row := span.add({x: 1})) is None:
            continue
        kept.add(x)
        new = [] if ops[x].is_identity() else [ops[x].data]
        odata += new
        # W is closed under the generators kept before e_x, so the rows it
        # held before need only e_x, and none when e_x is a left identity;
        # e_x, the row held last, and each new row need every generator
        pending = [(r, new) for r, _ in span.pivots.values()]
        pending[-1] = (row, odata)
        span.spin(pending, odata)
        if span.full:
            return kept
    # W holds every earlier basis element and is not H, so it is their span:
    # the last one lies outside it, and needs no test and no spin
    kept.add(d - 1)
    return kept


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

    # ops[j] is the row-form operator of v -> e_j v; M_G keeps the columns
    # (a, b) for a in G (its transpose, the rows), so both sides vanish on
    # every other block a
    Mt = M.transpose()
    ops = multiplications(Mt, False)
    gens = _generators(ops, h.params)
    MGt = Mt if len(gens) == d else Matrix.from_dicts(
        d * d, d, [row if r // d in gens else {} for r, row in enumerate(Mt.data)], h.params
    )
    MG = M if MGt is Mt else MGt.transpose()
    w = column_witness([names] * 3, names, kron_apply(M, [MG, d]) - kron_apply(MG, [d, M]))
    associative = w is None
    rep.add("hopf.assoc", "(ab)c = a(bc)", associative, w)

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

    # K_i, the row-form operator of y -> coproduct(e_i) y, on the
    # multiplication operators: row j of C^T K_i is coproduct(e_i)
    # coproduct(e_j), so the stacked blocks hold it at row i*d + j, where
    # M^T C^T holds the coproduct of e_i e_j. Only the blocks i in G are
    # read, and only on an associative H; the others stay zero
    if not associative:
        gens, MGt = range(d), Mt
    squares = vstack([Ct @ kron_sum(x, ops, ops) if i in gens else Matrix.zero(d, d * d, h.params)
                      for i, x in enumerate(h.coproducts())])

    def label(c, r):
        return _tensor_name(names, r, 2) if r < d * d else "counit"

    # each difference stacks the H (x) H coefficients above the counit row,
    # one column per pair (i, j)
    one = Matrix.identity(1, h.params)
    diff = vstack([(MGt @ Ct - squares).transpose(), eps @ M - kron(eps, eps)])
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
    ``is_triangular``, on s = D R (``RMatrix.cleared``), whose operators the
    flip test, qt.3 and any solve share; raises NotInvertible when R is not
    a unit. qt.1 and qt.2 compare D times their side linear in R with the
    quadratic side, D^2 times the identity on R (qt.3 is D times it). Through
    ``triangularity`` this is the one verdict on (H, R) a command computes."""
    D, s = r.cleared(h)
    left, right = s.operators(h)
    flip_is_inverse = _flip_is_inverse(h, D, s, (left, right))
    rep = CheckReport("quasitriangular")
    d, names = h.dim, h.basis_names
    M, R, Rt, Ct = h.M, s.coefficients, s.coefficients.transpose(), h.C.transpose()
    rho_t = kron_apply(M, [d, h.u]).transpose()  # a -> a1, transposed
    lam_t = kron_apply(M, [h.u, d]).transpose()  # a -> 1a, transposed
    swap = flip(d, d, h.params)

    # qt.1 and qt.2 compare tensors on H^(x)3 as matrices with one row per
    # value of one slot (the last in qt.1, the first in qt.2) and one column
    # per pair of the other two; the witness reads the first failing column,
    # then row, of the difference laid out so that this names the first
    # failing triple (a, b, c)
    # row c, columns (a, b): R^T C^T = M (R^T (x) R^T)(rho (x) lam)^T
    diff = _unscaled(_times(Rt @ Ct, D) - kron_apply(M, [Rt @ rho_t, Rt @ lam_t]), D * D)
    w = coefficient_witness(lambda c: (), lambda c, r: _tensor_name(names, c * d + r, 3), diff)
    rep.add("qt.1", "(coproduct (x) id)(R) = R13 R23", w is None, w)

    # row a, columns (b, c): R C^T = M (R (x) R)(rho (x) lam)^T flip, the
    # flip a relabelling of the column pair
    diff = _times(R @ Ct, D) - kron_apply(kron_apply(M, [R @ rho_t, R @ lam_t]), [swap])
    diff = _unscaled(diff, D * D).transpose()
    w = coefficient_witness(lambda c: (), lambda c, r: _tensor_name(names, c * d * d + r, 3), diff)
    rep.add("qt.2", "(id (x) coproduct)(R) = R13 R12", w is None, w)

    # row c of C^T K_L is R coproduct(e_c); the flip relabels C^T into the
    # rows coproduct-op(e_c), and row c of that times K_R is coproduct-op(e_c)
    # R. Transposed once for the witness: one column per basis element h
    diff = _unscaled((Ct @ left - kron_apply(Ct, [swap]) @ right).transpose(), D)
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
    """True iff the flip of R equals its inverse in H (x) H: R R21 and
    R21 R are 1 (x) 1. Raises NotInvertible when they are not and R has no
    two-sided inverse (see ``_flip_is_inverse``)."""
    return _flip_is_inverse(h, *r.cleared(h))
