"""BiHom-associative and generalized BiHom-Lie structures.

The two constructions here are the point of the package: the braided
commutator bracket

    [a, b] = ab - (R2 . inv(alpha)beta(b)) (R1 . alpha inv(beta)(a))

turning a BiHom-associative algebra in the module category into a
generalized BiHom-Lie algebra, and the twist [a, b]' = [alpha(a), beta(b)]
of a generalized Lie algebra by a commuting pair of bracket endomorphisms.
Axiom suites enumerate every basis tuple exhaustively; nothing is sampled.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    ConstructionError,
    NotBijective,
    NotEndomorphism,
    NotInvertible,
    NotTriangular,
    Singular,
)
from .hmod import HModule, ModuleMap, braiding, check_module_algebra, equivariance_witness
from .hopf import RMatrix, triangularity
from .linalg import (
    Matrix,
    _kval,
    invert,
    kron_apply,
    kron_apply_sum,
    kron_row,
    multiplications,
    nested_tensor,
    row_times,
    tensor_matrix,
)
from .report import CheckReport, Witness, column_witness


class _StructureBase:
    """An object with a product or bracket, held as its dim x dim^2
    structure matrix B (column i*dim + j holds the image of e_i (x) e_j).

    The constructor takes B, or nested structure constants t[i][j][k] (the
    coefficient of e_k in the image of e_i (x) e_j), which
    ``tensor_matrix`` converts; only B is kept. ``tensor`` is a read-only
    nested view of B, built on first use. ``products`` is the one bilinear
    product of vectors: the vector products and all of structure theory
    read their rows from it, one pair at a time, and the axiom checks are
    sparse products with B.

    The row-form operators that structure theory applies again and again
    (``map_operators``, ``right_operators``, ``left_operators``) are built
    on first use and then kept, so a check that never asks for them does
    not pay for them.
    """

    def __init__(self, module: HModule, tensor, alpha: ModuleMap, beta: ModuleMap):
        self.module = module
        self.alpha = alpha
        self.beta = beta
        self.params = module.params
        self._matrix = tensor_matrix(tensor, module.dim, self.params)
        self._transposed = self._matrix.transpose()

    @cached_property
    def tensor(self) -> list:
        return nested_tensor(self._matrix)

    def structure_matrix(self) -> Matrix:
        return self._matrix

    @cached_property
    def map_operators(self) -> list:
        """alpha, beta and the H-action in row form: v @ op is the image of
        the row vector v."""
        maps = (self.alpha.matrix, self.beta.matrix, *self.module.action)
        return [m.transpose() for m in maps]

    @cached_property
    def right_operators(self) -> list:
        """The row-form operators v -> v e_j, one per basis vector e_j."""
        return multiplications(self._transposed, right=True)

    @cached_property
    def left_operators(self) -> list:
        """The row-form operators v -> e_j v, one per basis vector e_j."""
        return multiplications(self._transposed, right=False)

    def products(self, left_rows, right_rows):
        """The kernel row (u (x) v) B^T, the image of u (x) v, for each
        sparse kernel row u of ``left_rows`` and v of the list
        ``right_rows``, u major. Each row is made when it is read, so a
        reader that stops early makes no more of them."""
        d, t = self.module.dim, self._transposed.data
        for u in left_rows:
            for v in right_rows:
                yield row_times(kron_row(u, v, d), t)


class BiHomAlgebra(_StructureBase):
    """(A, m, alpha, beta) living in the module category of its Hopf algebra."""

    def __init__(self, module, mult, alpha, beta, unit=None, multiplicative=True):
        super().__init__(module, mult, alpha, beta)
        self.unit = unit
        self.multiplicative = multiplicative

    @property
    def mult(self):
        return self.tensor


class BiHomLie(_StructureBase):
    """(L, [,], alpha, beta) with the braiding supplied by an R-matrix."""

    def __init__(self, module, bracket, alpha, beta, rmatrix: RMatrix):
        super().__init__(module, bracket, alpha, beta)
        self.rmatrix = rmatrix
        self.validation = None  # the passing BiHom-Lie report of a construction

    @property
    def bracket(self):
        return self.tensor

    def bracket_vec(self, u, v):
        """Image of u (x) v for coordinate vectors u and v (plain lists)."""
        d = len(u)
        u, v = ({i: _kval(c) for i, c in enumerate(w) if not c.is_zero()} for w in (u, v))
        return Matrix.from_dicts(1, d, [next(self.products([u], [v]))], self.params).row(0)


def _maps_commute(rep, prefix, x):
    names = x.module.basis_names
    am, bm = x.alpha.matrix, x.beta.matrix
    w = column_witness([names], names, am @ bm - bm @ am)
    rep.add(f"{prefix}.maps-commute", "alpha o beta = beta o alpha", w is None, w)


def _maps_h_linear(rep, prefix, x):
    for label, mm in (("alpha", x.alpha), ("beta", x.beta)):
        bad = mm.h_linearity_witness()
        w = None if bad is None else Witness((bad,), ())
        rep.add(f"{prefix}.{label}-h-linear", f"{label} commutes with the H-action", bad is None, w)


def check_bihom_associative(a: BiHomAlgebra, *, module_algebra=None) -> CheckReport:
    """Eq-by-eq suite for BiHom-associativity in the module category. The
    ``check_module_algebra`` report on ``a`` is computed unless passed."""
    rep = CheckReport("bihom-assoc")
    m = a.module
    names = m.basis_names
    am = a.alpha.matrix
    bm = a.beta.matrix
    M = a.structure_matrix()

    _maps_commute(rep, "bihom", a)

    w = column_witness([names] * 3, names, kron_apply(M, [am, M]) - kron_apply(M, [M, bm]))
    rep.add("bihom.assoc", "alpha(a)(bc) = (ab)beta(c)", w is None, w)

    for label, f in (("alpha", am), ("beta", bm)):
        law = f"{label}(ab) = {label}(a){label}(b)"
        if a.multiplicative:
            w = column_witness([names] * 2, names, f @ M - kron_apply(M, [f, f]))
            rep.add(f"bihom.{label}-multiplicative", law, w is None, w)
        else:
            rep.skip(f"bihom.{label}-multiplicative", law, "object not flagged multiplicative")

    _maps_h_linear(rep, "bihom", a)

    if a.unit is not None:
        u = Matrix(m.dim, 1, a.unit, a.params)
        w = column_witness(
            [names], names, kron_apply(M, [u, m.dim]) - bm, kron_apply(M, [m.dim, u]) - am
        )
        rep.add("bihom.unit", "1a = beta(a) and a1 = alpha(a)", w is None, w)
    else:
        rep.skip("bihom.unit", "1a = beta(a) and a1 = alpha(a)", "object has no unit")

    rep.extend(module_algebra or check_module_algebra(a))
    return rep


def _refusal(verdict):
    """Why a ``triangularity`` verdict fails, or None when R is triangular."""
    if isinstance(verdict, NotInvertible):
        return f"R is not invertible: {verdict}"
    if not verdict[0].ok:
        return "R fails the quasitriangular axioms"
    return None if verdict[1] else "R is quasitriangular but flip(R) != inverse(R)"


def check_generalized_bihom_lie(l: BiHomLie, *, verdict=None, tau=None) -> CheckReport:
    """The four defining identities of a generalized BiHom-Lie algebra plus
    the morphism conditions on the bracket and the twisting maps. The
    ``triangularity`` verdict and the braiding are computed unless passed."""
    rep = CheckReport("bihom-lie")
    m = l.module
    names = m.basis_names
    pairs = [names] * 2
    d = m.dim
    am = l.alpha.matrix
    bm = l.beta.matrix
    B = l.structure_matrix()
    tri = _refusal(triangularity(m.hopf, l.rmatrix) if verdict is None else verdict) is None
    rep.add(
        "lie.rmatrix-triangular",
        "the R-matrix is quasitriangular with flip(R) = inverse(R)",
        tri,
        None,
        "" if tri else "braided axioms below are evaluated anyway",
    )
    _maps_commute(rep, "lie", l)

    w = column_witness(pairs, names, am @ B - kron_apply(B, [am, am])) or column_witness(
        pairs, names, bm @ B - kron_apply(B, [bm, bm])
    )
    rep.add(
        "lie.twist-endomorphisms",
        "alpha[l,l'] = [alpha(l),alpha(l')] and beta[l,l'] = [beta(l),beta(l')]",
        w is None,
        w,
    )

    if tau is None:
        tau = braiding(m, m, l.rmatrix)
    w = column_witness(pairs, names, kron_apply(B, [bm, am]) + kron_apply(B @ tau, [am, bm]))
    rep.add(
        "lie.skew",
        "[beta(l),alpha(l')] = -[R2.beta(l'), R1.alpha(l)]",
        w is None,
        w,
    )

    J = kron_apply(B, [bm @ bm, kron_apply(B, [bm, am])])
    # J and its two tau-rotations, (tau (x) id)(id (x) tau) and its reverse
    jacobi = kron_apply_sum([(J, []), (J, [[tau, d], [d, tau]]), (J, [[d, tau], [tau, d]])])
    w = column_witness([names] * 3, names, jacobi)
    rep.add(
        "lie.jacobi",
        "braided BiHom-Jacobi: {l,l',l''} + {tau-rotations} = 0 with "
        "{u,v,w} = [beta^2(u),[beta(v),alpha(w)]]",
        w is None,
        w,
    )

    w = equivariance_witness(m, B)
    rep.add("lie.bracket-h-linear", "the bracket commutes with the H-action", w is None, w)
    _maps_h_linear(rep, "lie", l)
    return rep


def _commutator_matrix(a: BiHomAlgebra, tau: Matrix) -> Matrix:
    """B = M - M tau (alpha inv(beta) (x) inv(alpha) beta) for the braiding tau."""
    try:
        alpha_inv = invert(a.alpha.matrix)
    except Singular:
        raise NotBijective("alpha is not bijective") from None
    try:
        beta_inv = invert(a.beta.matrix)
    except Singular:
        raise NotBijective("beta is not bijective") from None
    M = a.structure_matrix()
    # the first argument lands in the R1 slot
    return M - kron_apply(M @ tau, [a.alpha.matrix @ beta_inv, alpha_inv @ a.beta.matrix])


def braided_commutator(a: BiHomAlgebra, r: RMatrix, *, verdict=None):
    """The pair (tau, B) that the braided commutator of ``a`` rests on: the
    braiding tau of A (x) A and the commutator matrix B. Refuses first
    (NotTriangular) unless (H, R) is triangular (``verdict``, decided here
    unless passed), then (NotBijective) unless alpha and beta are."""
    if reason := _refusal(triangularity(a.module.hopf, r) if verdict is None else verdict):
        raise NotTriangular(reason)
    tau = braiding(a.module, a.module, r)
    return tau, _commutator_matrix(a, tau)


def commutator_bracket(a: BiHomAlgebra, r: RMatrix, *, verdict=None, commutator=None) -> BiHomLie:
    """Braided commutator of a BiHom-associative algebra over triangular (H, R).

    Refuses (NotBijective / NotTriangular) when the construction's
    preconditions fail; the returned object has been re-checked against the
    generalized BiHom-Lie suite, and carries that report as ``validation``.
    The re-check gets this call's ``triangularity`` verdict and braiding.
    ``commutator`` is the ``braided_commutator`` pair when already computed.
    """
    if verdict is None:
        verdict = triangularity(a.module.hopf, r)
    tau, B = commutator or braided_commutator(a, r, verdict=verdict)
    lie = BiHomLie(a.module, B, a.alpha, a.beta, r)
    rep = lie.validation = check_generalized_bihom_lie(lie, verdict=verdict, tau=tau)
    if not rep.ok:
        raise ConstructionError(
            "commutator bracket fails the BiHom-Lie suite; "
            "the input is not a valid generalized BiHom-associative algebra"
        )
    return lie


def twist_bracket(l: BiHomLie, alpha: ModuleMap, beta: ModuleMap) -> BiHomLie:
    """New bracket [a,b]' = [alpha(a), beta(b)] on a generalized Lie algebra.

    The input must carry identity twisting maps (ConstructionError
    otherwise); alpha and beta must be commuting bracket endomorphisms that
    are H-linear (NotEndomorphism otherwise). The result is validated by
    one run of the BiHom-Lie suite, which decides the triangularity of
    (H, R) once; the passing report is kept as ``validation``.
    """
    m = l.module
    if not (l.alpha.matrix.is_identity() and l.beta.matrix.is_identity()):
        raise ConstructionError("twist input must be a generalized Lie algebra with identity maps")
    B = l.structure_matrix()
    for label, mm in (("alpha", alpha), ("beta", beta)):
        if mm.h_linearity_witness() is not None:
            raise NotEndomorphism(f"{label} is not H-linear")
        if not (mm.matrix @ B - kron_apply(B, [mm.matrix, mm.matrix])).is_zero():
            raise NotEndomorphism(f"{label} is not a bracket endomorphism")
    if alpha.matrix @ beta.matrix != beta.matrix @ alpha.matrix:
        raise NotEndomorphism("twisting maps do not commute")
    lie = BiHomLie(m, kron_apply(B, [alpha.matrix, beta.matrix]), alpha, beta, l.rmatrix)
    rep = lie.validation = check_generalized_bihom_lie(lie)
    if not rep.ok:
        raise ConstructionError("twisted bracket fails the BiHom-Lie suite")
    return lie


def check_lemma31(a: BiHomAlgebra, r: RMatrix, *, commutator=None) -> CheckReport:
    """Two bracket/product compatibility identities for the braided
    commutator B, as identities of maps A (x) A (x) A -> A:

    (1) [alpha beta(a), bc] = [beta(a), b] beta(c) + (R2.beta(b)) [R1.alpha(a), c]
        B(ab (x) M) = M(B(beta (x) id) (x) beta)
                      + M(id (x) B)(tau (x) id)(alpha (x) beta (x) id)
    (2) [ab, alpha beta(c)] = alpha(a) [b, alpha(c)] + [a, R2.beta(c)] (R1.alpha(b))
        B(M (x) ab) = M(alpha (x) B(id (x) alpha))
                      + M(B (x) id)(id (x) tau)(id (x) alpha (x) beta)

    with ab = alpha beta; each nonzero column of a difference is one
    failing basis triple. (tau, B) is ``commutator``, or else
    ``braided_commutator(a, r)``, which refuses unless (H, R) is
    triangular.

    The first right-hand term of each identity factors through the
    product that the second term of the other reads,

        M(B(beta (x) id) (x) beta) = M(B (x) id)(beta (x) id (x) beta)
        M(alpha (x) B(id (x) alpha)) = M(id (x) B)(alpha (x) id (x) alpha)

    so MB = M(B (x) id) and BM = M(id (x) B) are each made once and read
    by both, and each right side is one ``kron_apply_sum`` on them: four
    d x d^3 products in all, with the left sides B(ab (x) M) and
    B(M (x) ab).
    """
    rep = CheckReport("lemma31")
    tau, B = commutator or braided_commutator(a, r)
    m = a.module
    d = m.dim
    names = m.basis_names
    M = a.structure_matrix()
    am = a.alpha.matrix
    bm = a.beta.matrix
    ab = am @ bm
    MB, BM = kron_apply(M, [B, d]), kron_apply(M, [d, B])
    for ident_id, law, lhs, rhs_terms in (
        (
            "lemma31.1",
            "[alpha beta(a), bc] = [beta(a), b] beta(c) + (R2.beta(b))[R1.alpha(a), c]",
            kron_apply(B, [ab, M]),
            [(MB, [[bm, d, bm]]), (BM, [[tau, d], [am, bm, d]])],
        ),
        (
            "lemma31.2",
            "[ab, alpha beta(c)] = alpha(a)[b, alpha(c)] + [a, R2.beta(c)](R1.alpha(b))",
            kron_apply(B, [M, ab]),
            [(BM, [[am, d, am]]), (MB, [[d, tau], [d, am, bm]])],
        ),
    ):
        diff = lhs - kron_apply_sum(rhs_terms)
        failing = len(diff.nonzero_columns())
        w = column_witness([names] * 3, names, diff)
        detail = f"{d ** 3} triples checked" + (f", {failing} failing" if failing else "")
        rep.add(ident_id, law, w is None, w, detail)
    return rep
