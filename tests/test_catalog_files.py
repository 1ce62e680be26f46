"""The catalog is data: each name is a shipped algebra file in its printed form.

Every file is derived here from its definition, and the derived file must
print to the shipped bytes: the matrix algebra from E_ij E_kl = δ_jk E_il,
kZ2's R from R0 = ½(e⊗e + e⊗g + g⊗e − g⊗g), Example 2.4 from its
multiplication table, maps and unit (its published reference bracket is
data), the Heisenberg L as the braided commutator of the Heisenberg
product, the twisted bracket as ``twist_bracket`` of that L by its stored
twist maps, and the cross product from the Levi-Civita symbol.
"""

import pathlib
from fractions import Fraction

import pytest

from bihomcheck import catalog
from bihomcheck.algfile import AlgebraFile, AlgebraObject, parse_algebra_file, print_algebra_file
from bihomcheck.bihom import BiHomAlgebra, commutator_bracket, twist_bracket
from bihomcheck.catalog import catalog_file, catalog_names, r_triangular_kz2
from bihomcheck.hmod import HModule, ModuleMap
from bihomcheck.hopf import RMatrix, group_algebra
from bihomcheck.linalg import Matrix, triples_matrix
from bihomcheck.scalars import Scalar, parse_scalar

FILES = pathlib.Path(catalog.__file__).parent / "catalog_files"
Z1 = {"group": {"names": ["e"], "table": [[0]], "identity": 0}}
Z2 = {"group": {"names": ["e", "g"], "table": [[0, 1], [1, 0]], "identity": 0}}
HEISENBERG = ("l1", "l2", "l1p", "l2p")


def shipped_text(name):
    return (FILES / f"{name}.json").read_text(encoding="utf-8")


def hopf_of(spec, params):
    g = spec["group"]
    return group_algebra(g["table"], g["identity"], names=g["names"], params=params)


def printed(name, params, spec, hopf, rmatrix, objects):
    return print_algebra_file(AlgebraFile(name, params, spec, hopf, rmatrix, objects))


def diag(params, *texts):
    """The diagonal matrix of scalar texts."""
    rows = [[Scalar.of(params, 0)] * len(texts) for _ in texts]
    for i, t in enumerate(texts):
        rows[i][i] = parse_scalar(t, params)
    return Matrix.from_rows(rows, params)


def triples(params, d, *rows):
    """The structure matrix of (i, j, k, scalar text) rows."""
    return triples_matrix([(i, j, k, parse_scalar(t, params)) for i, j, k, t in rows], d, params)


def sign_module(hopf, names, signs):
    """The kZ2-module on ``names`` where g acts diagonally by ``signs``."""
    p = hopf.params
    return HModule(hopf, names, [Matrix.identity(len(names), p), diag(p, *map(str, signs))])


def r0(params):
    """R0 = ½(e⊗e + e⊗g + g⊗e − g⊗g): row a, column b holds the coefficient
    of e_a ⊗ e_b."""
    terms = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}
    rows = [{b: Fraction(c, 2) for (a2, b), c in terms.items() if a2 == a} for a in range(2)]
    return RMatrix(Matrix.from_dicts(2, 2, rows, params))


def test_every_shipped_file_is_its_printed_form():
    stems = {path.stem for path in FILES.glob("*.json")}
    assert stems == set(catalog_names())
    for name in stems:
        text = shipped_text(name)
        assert print_algebra_file(parse_algebra_file(text)) == text, name


def test_catalog_file_is_the_parsed_shipped_file():
    for name in catalog_names():
        assert print_algebra_file(catalog_file(name)) == shipped_text(name)
    with pytest.raises(KeyError):
        catalog_file("example26")


def test_trivial_hopf_is_the_2x2_matrix_algebra():
    hopf = hopf_of(Z1, ())
    names = ["E11", "E12", "E21", "E22"]
    module = HModule(hopf, names, [Matrix.identity(4)])
    pos = {(i, j): n for n, (i, j) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)])}
    # E_ij E_kl = δ_jk E_il
    mult = triples((), 4, *(
        (a, b, pos[i, l], "1") for (i, j), a in pos.items() for (k, l), b in pos.items() if j == k
    ))
    ident = Matrix.identity(4)
    one, zero = Scalar.of((), 1), Scalar.of((), 0)
    a = AlgebraObject("A", names, module, "mult", mult, ident, ident, unit=[one, zero, zero, one])
    r = catalog.trivial_rmatrix(hopf)
    assert r.coefficients == Matrix.identity(1)
    assert printed("trivial-hopf", (), Z1, hopf, r, {"A": a}) == shipped_text("trivial-hopf")


def test_kz2_is_the_group_algebra_with_r0():
    hopf = hopf_of(Z2, ())
    for params in ((), ("b",), HEISENBERG):
        assert r_triangular_kz2(params).coefficients == r0(params).coefficients
    assert printed("kz2", (), Z2, hopf, r0(()), {}) == shipped_text("kz2")


def example24_product():
    """x1 x1 = x1, x1 x2 = b x2, x2 x1 = -x2, x2 x2 = 0; alpha = diag(1, -1),
    beta = diag(1, b); g fixes x1 and negates x2; x1 is the BiHom unit."""
    p = ("b",)
    module = sign_module(hopf_of(Z2, p), ["x1", "x2"], [1, -1])
    mult = triples(p, 2, (0, 0, 0, "1"), (0, 1, 1, "b"), (1, 0, 1, "-1"))
    alpha = ModuleMap(module, module, diag(p, "1", "-1"))
    beta = ModuleMap(module, module, diag(p, "1", "b"))
    return BiHomAlgebra(module, mult, alpha, beta, unit=[Scalar.of(p, 1), Scalar.of(p, 0)])


def test_example24_is_its_table_maps_and_unit():
    a = example24_product()
    obj = AlgebraObject.of("A", a)
    # the bracket table as published, kept as data: [x1,x2] = 2b x2 and
    # [x2,x1] = b x1 - x2; the braided commutator of A is 0
    obj.reference_bracket = triples(("b",), 2, (0, 1, 1, "2*b"), (1, 0, 0, "b"), (1, 0, 1, "-1"))
    assert commutator_bracket(a, r0(("b",))).structure_matrix().is_zero()
    text = printed("example24", ("b",), Z2, a.module.hopf, r0(("b",)), {"A": obj})
    assert text == shipped_text("example24")


def test_heisenberg_l_is_the_braided_commutator_of_a():
    p = HEISENBERG
    # strictly upper-triangular 3x3 matrices: x1 x2 = x3 is the only product,
    # and g negates x1 and x2
    module = sign_module(hopf_of(Z2, p), ["x1", "x2", "x3"], [-1, -1, 1])
    ident = ModuleMap.identity(module)
    a = BiHomAlgebra(module, triples(p, 3, (0, 1, 2, "1")), ident, ident)
    lie = commutator_bracket(a, r0(p))
    l_obj = AlgebraObject.of("L", lie)
    l_obj.twist_alpha = diag(p, "l1", "l2", "l1*l2")
    l_obj.twist_beta = diag(p, "l1p", "l2p", "l1p*l2p")
    objects = {"A": AlgebraObject.of("A", a), "L": l_obj}
    text = printed("example25-heisenberg", p, Z2, module.hopf, r0(p), objects)
    assert text == shipped_text("example25-heisenberg")


def test_twisted_heisenberg_is_the_twist_of_the_heisenberg_l():
    f = catalog_file("example25-heisenberg")
    l_obj = f.objects["L"]
    lie = twist_bracket(l_obj.structure(f.rmatrix), *l_obj.twist_maps())
    objects = {"L": AlgebraObject.of("L", lie)}
    text = printed("example25-twisted", HEISENBERG, Z2, f.hopf, f.rmatrix, objects)
    assert text == shipped_text("example25-twisted")


def test_cross_product_is_the_levi_civita_bracket():
    hopf = hopf_of(Z1, ())
    names = ["e1", "e2", "e3"]
    module = HModule(hopf, names, [Matrix.identity(3)])
    # [e_i, e_j] = Σ_k ε_ijk e_k, with ε_ijk = (i - j)(j - k)(k - i) / 2 on 0, 1, 2
    bracket = triples((), 3, *(
        (i, j, k, str((i - j) * (j - k) * (k - i) // 2))
        for i in range(3) for j in range(3) for k in range(3) if len({i, j, k}) == 3
    ))
    ident = Matrix.identity(3)
    lie = AlgebraObject("L", names, module, "bracket", bracket, ident, ident)
    r = catalog.trivial_rmatrix(hopf)
    text = printed("cross-product-classical", (), Z1, hopf, r, {"L": lie})
    assert text == shipped_text("cross-product-classical")
