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

from .errors import (
    ConstructionError,
    NotBijective,
    NotEndomorphism,
    NotInvertible,
    NotTriangular,
    Singular,
)
from .hmod import HModule, ModuleMap, braiding, check_module_algebra, tensor_module
from .hopf import RMatrix, check_quasitriangular, is_triangular
from .linalg import Matrix, invert, kron
from .report import CheckReport, Witness, residual_from_vector


def _tensor_to_matrix(tensor, dim, params):
    """Rank-3 structure tensor as a dim x dim^2 matrix, column (i,j)."""
    entries = []
    for k in range(dim):
        for i in range(dim):
            for j in range(dim):
                entries.append(tensor[i][j][k])
    return Matrix(dim, dim * dim, entries, params)


def _first_bad_column(diff: Matrix):
    c = diff.first_nonzero_column()
    if c is None:
        return None
    return c, diff.col(c)


def _decode(c, dim, arity):
    out = []
    for _ in range(arity):
        out.append(c % dim)
        c //= dim
    return tuple(reversed(out))


class _StructureBase:
    """Shared plumbing for objects with a rank-3 structure tensor."""

    def __init__(self, module: HModule, tensor, alpha: ModuleMap, beta: ModuleMap):
        self.module = module
        self.tensor = tensor
        self.alpha = alpha
        self.beta = beta
        self.params = module.params

    def _apply_tensor(self, u, v):
        d = self.module.dim
        out = [self.module.zero] * d
        for i, a in enumerate(u):
            if a.is_zero():
                continue
            for j, b in enumerate(v):
                if b.is_zero():
                    continue
                ab = a * b
                row = self.tensor[i][j]
                for k in range(d):
                    c = row[k]
                    if not c.is_zero():
                        out[k] = out[k] + ab * c
        return out

    def structure_matrix(self) -> Matrix:
        return _tensor_to_matrix(self.tensor, self.module.dim, self.params)


class BiHomAlgebra(_StructureBase):
    """(A, m, alpha, beta) living in the module category of its Hopf algebra."""

    def __init__(self, module, mult, alpha, beta, unit=None, multiplicative=True):
        super().__init__(module, mult, alpha, beta)
        self.mult = mult
        self.unit = unit
        self.multiplicative = multiplicative

    def product_vec(self, u, v):
        return self._apply_tensor(u, v)


class BiHomLie(_StructureBase):
    """(L, [,], alpha, beta) with the braiding supplied by an R-matrix."""

    def __init__(self, module, bracket, alpha, beta, rmatrix: RMatrix):
        super().__init__(module, bracket, alpha, beta)
        self.bracket = bracket
        self.rmatrix = rmatrix

    def bracket_vec(self, u, v):
        return self._apply_tensor(u, v)


def _witness_on_pairs(diff: Matrix, names):
    bad = _first_bad_column(diff)
    if bad is None:
        return None
    c, col = bad
    i, j = _decode(c, len(names), 2)
    return Witness((names[i], names[j]), residual_from_vector(names, col))


def _witness_on_triples(diff: Matrix, names):
    bad = _first_bad_column(diff)
    if bad is None:
        return None
    c, col = bad
    i, j, k = _decode(c, len(names), 3)
    return Witness((names[i], names[j], names[k]), residual_from_vector(names, col))


def check_bihom_associative(a: BiHomAlgebra) -> CheckReport:
    """Eq-by-eq suite for BiHom-associativity in the module category."""
    rep = CheckReport("bihom-assoc")
    m = a.module
    names = m.basis_names
    d = m.dim
    am = a.alpha.matrix
    bm = a.beta.matrix
    M = a.structure_matrix()

    diff = am @ bm - bm @ am
    w = None
    if not diff.is_zero():
        c, col = _first_bad_column(diff)
        w = Witness((names[c],), residual_from_vector(names, col))
    rep.add("bihom.maps-commute", "alpha o beta = beta o alpha", w is None, w)

    lhs = M @ kron(am, M)
    rhs = M @ kron(M, bm)
    w = _witness_on_triples(lhs - rhs, names)
    rep.add("bihom.assoc", "alpha(a)(bc) = (ab)beta(c)", w is None, w)

    for label, f in (("alpha", am), ("beta", bm)):
        if a.multiplicative:
            diff = f @ M - M @ kron(f, f)
            w = _witness_on_pairs(diff, names)
            rep.add(
                f"bihom.{label}-multiplicative",
                f"{label}(ab) = {label}(a){label}(b)",
                w is None,
                w,
            )
        else:
            rep.skip(
                f"bihom.{label}-multiplicative",
                f"{label}(ab) = {label}(a){label}(b)",
                "object not flagged multiplicative",
            )

    for label, mm in (("alpha", a.alpha), ("beta", a.beta)):
        bad = mm.h_linearity_witness()
        w = None if bad is None else Witness((bad,), ())
        rep.add(f"bihom.{label}-h-linear", f"{label} commutes with the H-action", bad is None, w)

    if a.unit is not None:
        w = None
        for i in range(d):
            left = a.product_vec(a.unit, m.basis_vector(i))
            right = a.product_vec(m.basis_vector(i), a.unit)
            dl = [x - y for x, y in zip(left, bm.col(i))]
            dr = [x - y for x, y in zip(right, am.col(i))]
            for dv in (dl, dr):
                if any(not x.is_zero() for x in dv):
                    w = Witness((names[i],), residual_from_vector(names, dv))
                    break
            if w is not None:
                break
        rep.add("bihom.unit", "1a = beta(a) and a1 = alpha(a)", w is None, w)
    else:
        rep.skip("bihom.unit", "1a = beta(a) and a1 = alpha(a)", "object has no unit")

    rep.extend(check_module_algebra(a))
    return rep


def _triangular_entry(rep: CheckReport, l: BiHomLie):
    try:
        qt_ok = check_quasitriangular(l.module.hopf, l.rmatrix).ok
        tri = qt_ok and is_triangular(l.module.hopf, l.rmatrix)
    except NotInvertible:
        qt_ok = tri = False
    rep.add(
        "lie.rmatrix-triangular",
        "the R-matrix is quasitriangular with flip(R) = inverse(R)",
        tri,
        None,
        "" if tri else "braided axioms below are evaluated anyway",
    )
    return tri


def check_generalized_bihom_lie(l: BiHomLie) -> CheckReport:
    """The four defining identities of a generalized BiHom-Lie algebra plus
    the morphism conditions on the bracket and the twisting maps."""
    rep = CheckReport("bihom-lie")
    m = l.module
    names = m.basis_names
    d = m.dim
    am = l.alpha.matrix
    bm = l.beta.matrix
    B = l.structure_matrix()
    _triangular_entry(rep, l)

    diff = am @ bm - bm @ am
    w = None
    if not diff.is_zero():
        c, col = _first_bad_column(diff)
        w = Witness((names[c],), residual_from_vector(names, col))
    rep.add("lie.maps-commute", "alpha o beta = beta o alpha", w is None, w)

    w = None
    for label, f in (("alpha", am), ("beta", bm)):
        diff = f @ B - B @ kron(f, f)
        w = _witness_on_pairs(diff, names)
        if w is not None:
            break
    rep.add(
        "lie.twist-endomorphisms",
        "alpha[l,l'] = [alpha(l),alpha(l')] and beta[l,l'] = [beta(l),beta(l')]",
        w is None,
        w,
    )

    tau = braiding(m, m, l.rmatrix)
    skew = B @ kron(bm, am) + (B @ tau) @ kron(am, bm)
    w = _witness_on_pairs(skew, names)
    rep.add(
        "lie.skew",
        "[beta(l),alpha(l')] = -[R2.beta(l'), R1.alpha(l)]",
        w is None,
        w,
    )

    inner = B @ kron(bm, am)
    J = B @ kron(bm @ bm, inner)
    ident = Matrix.identity(d, l.params)
    p2 = kron(tau, ident) @ kron(ident, tau)
    p3 = kron(ident, tau) @ kron(tau, ident)
    jacobi = J + J @ p2 + J @ p3
    w = _witness_on_triples(jacobi, names)
    rep.add(
        "lie.jacobi",
        "braided BiHom-Jacobi: {l,l',l''} + {tau-rotations} = 0 with "
        "{u,v,w} = [beta^2(u),[beta(v),alpha(w)]]",
        w is None,
        w,
    )

    tens = tensor_module(m, m)
    w = None
    for t in range(m.hopf.dim):
        diff = m.action[t] @ B - B @ tens.action[t]
        bad = _first_bad_column(diff)
        if bad is not None:
            c, col = bad
            i, j = _decode(c, d, 2)
            w = Witness(
                (m.hopf.basis_names[t], names[i], names[j]),
                residual_from_vector(names, col),
            )
            break
    rep.add("lie.bracket-h-linear", "the bracket commutes with the H-action", w is None, w)

    for label, mm in (("alpha", l.alpha), ("beta", l.beta)):
        bad = mm.h_linearity_witness()
        w = None if bad is None else Witness((bad,), ())
        rep.add(f"lie.{label}-h-linear", f"{label} commutes with the H-action", bad is None, w)
    return rep


def _check_triangular_or_raise(a_or_module, r: RMatrix):
    hopf = a_or_module.module.hopf
    try:
        if not check_quasitriangular(hopf, r).ok:
            raise NotTriangular("R fails the quasitriangular axioms")
        if not is_triangular(hopf, r):
            raise NotTriangular("R is quasitriangular but flip(R) != inverse(R)")
    except NotInvertible as exc:
        raise NotTriangular(f"R is not invertible: {exc}") from None


def _commutator_tensor(a: BiHomAlgebra, r: RMatrix):
    m = a.module
    d = m.dim
    try:
        alpha_inv = invert(a.alpha.matrix)
    except Singular:
        raise NotBijective("alpha is not bijective") from None
    try:
        beta_inv = invert(a.beta.matrix)
    except Singular:
        raise NotBijective("beta is not bijective") from None
    ainv_b = alpha_inv @ a.beta.matrix
    a_binv = a.alpha.matrix @ beta_inv
    bracket = []
    for i in range(d):
        plane = []
        u = a_binv.col(i)  # first argument lands in the R1 slot
        for j in range(d):
            v = ainv_b.col(j)
            term = a.product_vec(m.basis_vector(i), m.basis_vector(j))
            braided = [m.zero] * d
            for p in range(m.hopf.dim):
                for q in range(m.hopf.dim):
                    c = r.entry(p, q)
                    if c.is_zero():
                        continue
                    prod = a.product_vec(m.action[q].apply(v), m.action[p].apply(u))
                    braided = [x + c * y for x, y in zip(braided, prod)]
            plane.append([x - y for x, y in zip(term, braided)])
        bracket.append(plane)
    return bracket


def commutator_bracket(a: BiHomAlgebra, r: RMatrix) -> BiHomLie:
    """Braided commutator of a BiHom-associative algebra over triangular (H, R).

    Refuses (NotBijective / NotTriangular) when the construction's
    preconditions fail; the returned object has been re-checked against the
    generalized BiHom-Lie suite.
    """
    _check_triangular_or_raise(a, r)
    bracket = _commutator_tensor(a, r)
    lie = BiHomLie(a.module, bracket, a.alpha, a.beta, r)
    rep = check_generalized_bihom_lie(lie)
    if not rep.ok:
        raise ConstructionError(
            "commutator bracket fails the BiHom-Lie suite; "
            "the input is not a valid generalized BiHom-associative algebra",
            rep,
        )
    return lie


def twist_bracket(l: BiHomLie, alpha: ModuleMap, beta: ModuleMap) -> BiHomLie:
    """New bracket [a,b]' = [alpha(a), beta(b)] on a generalized Lie algebra.

    The input must carry identity twisting maps; alpha and beta must be
    commuting bracket endomorphisms that are H-linear (NotEndomorphism
    otherwise). The result is validated before it is returned.
    """
    m = l.module
    d = m.dim
    ident = Matrix.identity(d, l.params)
    if l.alpha.matrix != ident or l.beta.matrix != ident:
        raise ValueError("twist input must be a generalized Lie algebra with identity maps")
    B = l.structure_matrix()
    for label, mm in (("alpha", alpha), ("beta", beta)):
        if mm.h_linearity_witness() is not None:
            raise NotEndomorphism(f"{label} is not H-linear")
        if not (mm.matrix @ B - B @ kron(mm.matrix, mm.matrix)).is_zero():
            raise NotEndomorphism(f"{label} is not a bracket endomorphism")
    if alpha.matrix @ beta.matrix != beta.matrix @ alpha.matrix:
        raise NotEndomorphism("twisting maps do not commute")
    bracket = []
    for i in range(d):
        plane = []
        for j in range(d):
            plane.append(l.bracket_vec(alpha.matrix.col(i), beta.matrix.col(j)))
        bracket.append(plane)
    lie = BiHomLie(m, bracket, alpha, beta, l.rmatrix)
    rep = check_generalized_bihom_lie(lie)
    if not rep.ok:
        raise ConstructionError("twisted bracket fails the BiHom-Lie suite", rep)
    return lie


def check_lemma31(a: BiHomAlgebra, r: RMatrix) -> CheckReport:
    """Two bracket/product compatibility identities for the braided
    commutator, expanded over every basis triple.

    (1) [alpha beta(a), bc] = [beta(a), b] beta(c) + (R2.beta(b)) [R1.alpha(a), c]
    (2) [ab, alpha beta(c)] = alpha(a) [b, alpha(c)] + [a, R2.beta(c)] (R1.alpha(b))
    """
    rep = CheckReport("lemma31")
    _check_triangular_or_raise(a, r)
    bracket = _commutator_tensor(a, r)
    lie = BiHomLie(a.module, bracket, a.alpha, a.beta, r)
    m = a.module
    d = m.dim
    names = m.basis_names
    am = a.alpha.matrix
    bm = a.beta.matrix
    abm = am @ bm
    hopf = m.hopf

    def braided_sum(make_term):
        out = [m.zero] * d
        for p in range(hopf.dim):
            for q in range(hopf.dim):
                c = r.entry(p, q)
                if c.is_zero():
                    continue
                t = make_term(p, q)
                out = [x + c * y for x, y in zip(out, t)]
        return out

    for ident_id, law, lhs_fn, rhs_fn in (
        (
            "lemma31.1",
            "[alpha beta(a), bc] = [beta(a), b] beta(c) + (R2.beta(b))[R1.alpha(a), c]",
            lambda ei, ej, ek: lie.bracket_vec(abm.apply(ei), a.product_vec(ej, ek)),
            lambda ei, ej, ek: [
                x + y
                for x, y in zip(
                    a.product_vec(lie.bracket_vec(bm.apply(ei), ej), bm.apply(ek)),
                    braided_sum(
                        lambda p, q: a.product_vec(
                            m.action[q].apply(bm.apply(ej)),
                            lie.bracket_vec(m.action[p].apply(am.apply(ei)), ek),
                        )
                    ),
                )
            ],
        ),
        (
            "lemma31.2",
            "[ab, alpha beta(c)] = alpha(a)[b, alpha(c)] + [a, R2.beta(c)](R1.alpha(b))",
            lambda ei, ej, ek: lie.bracket_vec(a.product_vec(ei, ej), abm.apply(ek)),
            lambda ei, ej, ek: [
                x + y
                for x, y in zip(
                    a.product_vec(am.apply(ei), lie.bracket_vec(ej, am.apply(ek))),
                    braided_sum(
                        lambda p, q: a.product_vec(
                            lie.bracket_vec(ei, m.action[q].apply(bm.apply(ek))),
                            m.action[p].apply(am.apply(ej)),
                        )
                    ),
                )
            ],
        ),
    ):
        w = None
        failing = 0
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    ei, ej, ek = (m.basis_vector(t) for t in (i, j, k))
                    diff = [x - y for x, y in zip(lhs_fn(ei, ej, ek), rhs_fn(ei, ej, ek))]
                    if any(not x.is_zero() for x in diff):
                        failing += 1
                        if w is None:
                            w = Witness(
                                (names[i], names[j], names[k]),
                                residual_from_vector(names, diff),
                            )
        detail = f"{d ** 3} triples checked" + (f", {failing} failing" if failing else "")
        rep.add(ident_id, law, w is None, w, detail)
    return rep
