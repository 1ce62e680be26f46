"""Built-in example instances, reachable by name from the CLI and tests.

Catalog names: trivial-hopf (2x2 matrix algebra over the trivial Hopf
algebra), kz2 (the order-2 group algebra with its nontrivial triangular
R-matrix), example24 (the 2-dimensional parametric BiHom-associative
algebra over kZ2), example25-heisenberg (the Heisenberg product and its
braided-commutator bracket over kZ2), example25-twisted (the same bracket
twisted by commuting diagonal endomorphisms with parameters l1, l2, l1p,
l2p), and cross-product-classical (the 3-dimensional cross-product Lie
algebra over the trivial Hopf algebra).
"""

from __future__ import annotations

from fractions import Fraction

from .algfile import AlgebraFile, AlgebraObject
from .bihom import BiHomAlgebra, BiHomLie
from .hmod import HModule, ModuleMap
from .hopf import HopfAlgebra, RMatrix, group_algebra
from .linalg import Matrix, triples_matrix
from .scalars import Scalar, parse_scalar

HEISENBERG_PARAMS = ("l1", "l2", "l1p", "l2p")


def sc(params, value):
    return Scalar.of(params, value)


def diagonal(params, values):
    d = len(values)
    zero = sc(params, 0)
    return Matrix.from_rows(
        [[values[i] if i == j else zero for j in range(d)] for i in range(d)], params
    )


def trivial_hopf(params=()) -> HopfAlgebra:
    return group_algebra([[0]], 0, names=["e"], params=params)


def kz2_hopf(params=()) -> HopfAlgebra:
    return group_algebra([[0, 1], [1, 0]], 0, names=["e", "g"], params=params)


def r_triangular_kz2(params=()) -> RMatrix:
    """R0 = (1/2)(e(x)e + e(x)g + g(x)e - g(x)g)."""
    h = Fraction(1, 2)
    return RMatrix(
        Matrix.from_rows(
            [[sc(params, h), sc(params, h)], [sc(params, h), sc(params, -h)]], params
        )
    )


def trivial_rmatrix(hopf: HopfAlgebra) -> RMatrix:
    """R = 1 (x) 1."""
    return RMatrix(hopf.u @ hopf.u.transpose())


def _sign_action_module(hopf, basis_names, signs) -> HModule:
    """Module over kZ2 where g acts diagonally by the given signs."""
    params = hopf.params
    dim = len(basis_names)
    ident = Matrix.identity(dim, params)
    gmat = diagonal(params, [sc(params, s) for s in signs])
    return HModule(hopf, basis_names, [ident, gmat])


def example24_algebra() -> BiHomAlgebra:
    """Two-dimensional BiHom-associative algebra over kZ2 with parameter b:
    x1 x1 = x1, x1 x2 = b x2, x2 x1 = -x2, x2 x2 = 0; alpha = diag(1,-1),
    beta = diag(1,b); g fixes x1 and negates x2; x1 is the BiHom unit."""
    params = ("b",)
    hopf = kz2_hopf(params)
    module = _sign_action_module(hopf, ["x1", "x2"], [1, -1])
    zero = sc(params, 0)
    one = sc(params, 1)
    b = Scalar.param(params, "b")
    mult = triples_matrix([(0, 0, 0, one), (0, 1, 1, b), (1, 0, 1, -one)], 2, params)
    alpha = ModuleMap(module, module, diagonal(params, [one, -one]))
    beta = ModuleMap(module, module, diagonal(params, [one, b]))
    return BiHomAlgebra(module, mult, alpha, beta, unit=[one, zero])


EXAMPLE24_PRINTED_BRACKET = (
    (0, 1, 1, "2*b"),
    (1, 0, 0, "b"),
    (1, 0, 1, "-1"),
)


def matrix_algebra_2x2() -> BiHomAlgebra:
    """Full 2x2 matrix algebra over the trivial Hopf algebra, identity maps."""
    params = ()
    hopf = trivial_hopf(params)
    names = ["E11", "E12", "E21", "E22"]
    module = HModule(hopf, names, [Matrix.identity(4, params)])
    zero = sc(params, 0)
    one = sc(params, 1)
    pos = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    # E_ij E_kl = E_il when j = k
    triples = [
        (a, b, pos[i, l], one) for (i, j), a in pos.items() for (k, l), b in pos.items() if j == k
    ]
    mult = triples_matrix(triples, 4, params)
    ident = ModuleMap.identity(module)
    return BiHomAlgebra(module, mult, ident, ident, unit=[one, zero, zero, one])


def heisenberg_module(params=HEISENBERG_PARAMS) -> HModule:
    """The module x1, x2, x3 over kZ2 on which g negates x1 and x2."""
    return _sign_action_module(kz2_hopf(params), ["x1", "x2", "x3"], [-1, -1, 1])


def heisenberg_assoc(params=HEISENBERG_PARAMS) -> BiHomAlgebra:
    """Strictly upper-triangular 3x3 matrices under the matrix product:
    x1 x2 = x3 is the only nonzero product. g negates x1 and x2.

    The printed module action in the source example fixes x2, but the
    braiding table and the H-linearity of the bracket force g.x2 = -x2;
    see the check_module tests for the as-printed variant.
    """
    module = heisenberg_module(params)
    mult = triples_matrix([(0, 1, 2, sc(params, 1))], 3, params)
    ident = ModuleMap.identity(module)
    return BiHomAlgebra(module, mult, ident, ident)


def heisenberg_lie(params=HEISENBERG_PARAMS, module=None) -> BiHomLie:
    """Generalized Lie algebra [x1,x2] = [x2,x1] = x3 (all other brackets
    zero) with identity maps; the braided commutator of heisenberg_assoc.
    Built on ``module`` when given, else on a new
    ``heisenberg_module(params)``."""
    if module is None:
        module = heisenberg_module(params)
    one = sc(module.params, 1)
    bracket = triples_matrix([(0, 1, 2, one), (1, 0, 2, one)], 3, module.params)
    ident = ModuleMap.identity(module)
    return BiHomLie(module, bracket, ident, ident, r_triangular_kz2(module.params))


def heisenberg_twist_maps(module: HModule):
    """alpha = diag(l1, l2, l1 l2), beta = diag(l1p, l2p, l1p l2p) on a
    Heisenberg module whose parameters include l1, l2, l1p and l2p."""
    params = module.params
    l1, l2, l1p, l2p = (Scalar.param(params, n) for n in HEISENBERG_PARAMS)
    alpha = ModuleMap(module, module, diagonal(params, [l1, l2, l1 * l2]))
    beta = ModuleMap(module, module, diagonal(params, [l1p, l2p, l1p * l2p]))
    return alpha, beta


def twisted_heisenberg(params=HEISENBERG_PARAMS) -> BiHomLie:
    """[x1,x2]' = l1 l2p x3, [x2,x1]' = l1p l2 x3, all other brackets zero."""
    base = heisenberg_lie(params)
    alpha, beta = heisenberg_twist_maps(base.module)
    l1, l2, l1p, l2p = (Scalar.param(params, n) for n in HEISENBERG_PARAMS)
    bracket = triples_matrix([(0, 1, 2, l1 * l2p), (1, 0, 2, l1p * l2)], 3, params)
    return BiHomLie(base.module, bracket, alpha, beta, base.rmatrix)


def cross_product_lie() -> BiHomLie:
    """[e1,e2] = e3, [e2,e3] = e1, [e3,e1] = e2, antisymmetric, classical."""
    params = ()
    hopf = trivial_hopf(params)
    module = HModule(hopf, ["e1", "e2", "e3"], [Matrix.identity(3, params)])
    # [e_i, e_j] = c e_k for each (i, j, k, c)
    signs = ((0, 1, 2, 1), (0, 2, 1, -1), (1, 0, 2, -1), (1, 2, 0, 1), (2, 0, 1, 1), (2, 1, 0, -1))
    bracket = triples_matrix([(i, j, k, sc(params, c)) for i, j, k, c in signs], 3, params)
    ident = ModuleMap.identity(module)
    return BiHomLie(module, bracket, ident, ident, trivial_rmatrix(hopf))


# -- catalog files -----------------------------------------------------------

GROUP_Z1 = {"group": {"names": ["e"], "table": [[0]], "identity": 0}}
GROUP_Z2 = {"group": {"names": ["e", "g"], "table": [[0, 1], [1, 0]], "identity": 0}}


def _reference_bracket():
    params = ("b",)
    triples = [(i, j, k, parse_scalar(t, params)) for i, j, k, t in EXAMPLE24_PRINTED_BRACKET]
    return triples_matrix(triples, 2, params)


def catalog_names():
    return [
        "trivial-hopf",
        "kz2",
        "example24",
        "example25-heisenberg",
        "example25-twisted",
        "cross-product-classical",
    ]


CATALOG_DESCRIPTIONS = {
    "trivial-hopf": "2x2 matrix algebra over the trivial Hopf algebra, identity maps",
    "kz2": "order-2 group algebra with the nontrivial triangular R-matrix",
    "example24": "2-dim parametric BiHom-associative algebra over kZ2 (parameter b)",
    "example25-heisenberg": "Heisenberg product and its braided commutator bracket over kZ2",
    "example25-twisted": "Heisenberg bracket twisted by diagonal maps in l1, l2, l1p, l2p",
    "cross-product-classical": "3-dim cross-product Lie algebra over the trivial Hopf algebra",
}


def catalog_file(name):
    """Built-in instance as a validated AlgebraFile, reachable without input
    files; unknown names raise KeyError."""
    if name == "trivial-hopf":
        a = matrix_algebra_2x2()
        return AlgebraFile(
            name=name,
            parameters=(),
            hopf_spec=GROUP_Z1,
            hopf=a.module.hopf,
            rmatrix=trivial_rmatrix(a.module.hopf),
            objects={"A": AlgebraObject.of("A", a)},
        )
    if name == "kz2":
        hopf = kz2_hopf()
        return AlgebraFile(
            name=name,
            parameters=(),
            hopf_spec=GROUP_Z2,
            hopf=hopf,
            rmatrix=r_triangular_kz2(),
            objects={},
        )
    if name == "example24":
        a = example24_algebra()
        obj = AlgebraObject.of("A", a, reference_bracket=_reference_bracket())
        return AlgebraFile(
            name=name,
            parameters=("b",),
            hopf_spec=GROUP_Z2,
            hopf=a.module.hopf,
            rmatrix=r_triangular_kz2(("b",)),
            objects={"A": obj},
        )
    if name == "example25-heisenberg":
        # A and L share one module, and so one Hopf algebra
        a = heisenberg_assoc()
        lie = heisenberg_lie(module=a.module)
        alpha, beta = heisenberg_twist_maps(a.module)
        lobj = AlgebraObject.of("L", lie, twist_alpha=alpha.matrix, twist_beta=beta.matrix)
        return AlgebraFile(
            name=name,
            parameters=HEISENBERG_PARAMS,
            hopf_spec=GROUP_Z2,
            hopf=a.module.hopf,
            rmatrix=r_triangular_kz2(HEISENBERG_PARAMS),
            objects={"A": AlgebraObject.of("A", a), "L": lobj},
        )
    if name == "example25-twisted":
        lie = twisted_heisenberg()
        return AlgebraFile(
            name=name,
            parameters=HEISENBERG_PARAMS,
            hopf_spec=GROUP_Z2,
            hopf=lie.module.hopf,
            rmatrix=lie.rmatrix,
            objects={"L": AlgebraObject.of("L", lie)},
        )
    if name == "cross-product-classical":
        lie = cross_product_lie()
        return AlgebraFile(
            name=name,
            parameters=(),
            hopf_spec=GROUP_Z1,
            hopf=lie.module.hopf,
            rmatrix=lie.rmatrix,
            objects={"L": AlgebraObject.of("L", lie)},
        )
    raise KeyError(f"unknown catalog name {name!r}")
