"""Input generators for the benchmark workloads.

Everything here is built from bihomcheck constructors and written-out
files, so the program under test only ever sees finished instances. The
workload seed enters only through ``dense_basis``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from bihomcheck.algfile import AlgebraFile, AlgebraObject, print_algebra_file
from bihomcheck.bihom import BiHomAlgebra, BiHomLie
from bihomcheck.catalog import r_triangular_kz2, trivial_hopf, trivial_rmatrix
from bihomcheck.hmod import HModule, ModuleMap
from bihomcheck.hopf import HopfAlgebra, RMatrix, group_algebra
from bihomcheck.linalg import Matrix, kron
from bihomcheck.scalars import Scalar


# -- standard-basis families --------------------------------------------------


def cyclic_group_algebra(n):
    """kZ_n with basis g0..g{n-1}."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_algebra(table, 0, names=[f"g{i}" for i in range(n)])


def klein_r0r0():
    """k(Z2 x Z2) with the dense triangular R-matrix R0 (x) R0 (all 16
    coefficients are +-1/4), so the quasitriangular loops see a full R."""
    table = [[(a ^ b) for b in range(4)] for a in range(4)]
    hopf = group_algebra(table, 0, names=["e", "a", "b", "ab"])
    r0 = r_triangular_kz2().coefficients
    # element index 2*x + y stands for (x, y) in Z2 x Z2
    rows = [
        [r0.at(i >> 1, j >> 1) * r0.at(i & 1, j & 1) for j in range(4)] for i in range(4)
    ]
    return hopf, RMatrix(Matrix.from_rows(rows, ()))


def matrix_algebra(n):
    """M_n over the trivial Hopf algebra with identity twisting maps and
    basis E11, E12, ..., Enn (index n*i + j)."""
    d = n * n
    hopf = trivial_hopf()
    names = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    module = HModule(hopf, names, [Matrix.identity(d, ())])
    zero = Scalar.of((), 0)
    one = Scalar.of((), 1)
    mult = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for l in range(n):
                mult[n * i + j][n * j + l][n * i + l] = one
    ident = ModuleMap.identity(module)
    unit = [one if i % (n + 1) == 0 else zero for i in range(d)]
    return BiHomAlgebra(module, mult, ident, ident, unit=unit)


def general_linear(n):
    """gl_n with [E_ij, E_kl] = d_jk E_il - d_li E_kj over the trivial Hopf
    algebra, written down directly; it equals the braided commutator of
    ``matrix_algebra(n)``, which the workloads check."""
    d = n * n
    a = matrix_algebra(n)
    zero = Scalar.of((), 0)
    one = Scalar.of((), 1)
    bracket = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out = bracket[n * i + j][n * k + l]
                    if j == k:
                        out[n * i + l] = out[n * i + l] + one
                    if l == i:
                        out[n * k + j] = out[n * k + j] - one
    return BiHomLie(a.module, bracket, a.alpha, a.beta, trivial_rmatrix(a.module.hopf))


# -- seeded change of basis -----------------------------------------------------


def _fraction_matrix(rows):
    return Matrix.from_rows([[Scalar.of((), x) for x in row] for row in rows], ())


def unimodular_pair(rng, d, operations):
    """Random integer P and its integer inverse as a product of
    ``operations`` elementary row additions row_i += c*row_j, c = +-1."""
    p = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    q = [row[:] for row in p]
    for _ in range(operations):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        # the inverse picks up E_ij(-c) on the right: column j -= c * column i
        for row in q:
            row[j] -= c * row[i]
    return _fraction_matrix(p), _fraction_matrix(q)


def signed_permutation(rng, d):
    """Random S with S e_i = +-e_pi(i), and its inverse (the transpose)."""
    perm = list(range(d))
    rng.shuffle(perm)
    s = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        s[perm[i]][i] = Fraction(rng.choice((1, -1)))
    return _fraction_matrix(s), _fraction_matrix([list(col) for col in zip(*s)])


def dense_basis(key, d, operations, seed, unit=None, unit_support=None):
    """Change of basis P = P0 S and its inverse.

    P0 is a fixed draw of ``operations`` elementary operations with entries
    in +-1, keyed by ``key``, so every seed gets the same density (when
    ``unit`` is given, P0 is redrawn until the unit vector has exactly
    ``unit_support`` nonzero coordinates, which fixes the number of nonzero
    R-matrix coefficients). The seed picks the signed relabelling S, i.e.
    where the nonzero constants sit and their signs.
    """
    rng = random.Random(key)
    while True:
        p0, q0 = unimodular_pair(rng, d, operations)
        if unit is None or sum(1 for x in _vec(q0 @ _col(unit)) if not x.is_zero()) == unit_support:
            break
    s, s_inv = signed_permutation(random.Random(f"{key}:{seed}"), d)
    return p0 @ s, s_inv @ q0


def _tensor_to_cols(tensor, d):
    """t[i][j][k] as the d x d^2 matrix with column i*d + j."""
    entries = [tensor[i][j][k] for k in range(d) for i in range(d) for j in range(d)]
    return Matrix(d, d * d, entries, ())


def _cols_to_tensor(m, d):
    return [[[m.at(k, i * d + j) for k in range(d)] for j in range(d)] for i in range(d)]


def _vec(m):
    return [m.at(r, 0) for r in range(m.rows)]


def _col(vec):
    return Matrix(len(vec), 1, list(vec), ())


def conjugate_hopf(h: HopfAlgebra, r: RMatrix, p: Matrix, q: Matrix):
    """(H, R) in the basis f_i = sum_k P[k][i] e_k, where q = P^-1."""
    d = h.dim
    mult = q @ _tensor_to_cols(h.mult, d) @ kron(p, p)
    # column i holds the coefficients of e_a (x) e_b in the coproduct of e_i
    cm = Matrix(
        d * d, d, [h.comult[i][a][b] for a in range(d) for b in range(d) for i in range(d)], ()
    )
    cm = kron(q, q) @ cm @ p
    comult = [[[cm.at(a * d + b, i) for b in range(d)] for a in range(d)] for i in range(d)]
    unit = _vec(q @ _col(h.unit))
    counit = (Matrix(1, d, list(h.counit), ()) @ p).row(0)
    antipode = q @ h.antipode @ p
    hh = HopfAlgebra(h.basis_names, _cols_to_tensor(mult, d), unit, comult, counit, antipode)
    rvec = kron(q, q) @ Matrix(d * d, 1, list(r.coefficients.entries), ())
    return hh, RMatrix(Matrix(d, d, _vec(rvec), ()))


def _conjugate_parts(x, p, q):
    d = x.module.dim
    module = HModule(x.module.hopf, x.module.basis_names, [q @ op @ p for op in x.module.action])
    tensor = _cols_to_tensor(q @ _tensor_to_cols(x.tensor, d) @ kron(p, p), d)
    alpha = ModuleMap(module, module, q @ x.alpha.matrix @ p)
    beta = ModuleMap(module, module, q @ x.beta.matrix @ p)
    return module, tensor, alpha, beta


def conjugate_algebra(a: BiHomAlgebra, p: Matrix, q: Matrix) -> BiHomAlgebra:
    """The same BiHom algebra, over the same Hopf algebra, in the basis P."""
    module, mult, alpha, beta = _conjugate_parts(a, p, q)
    unit = None if a.unit is None else _vec(q @ _col(a.unit))
    return BiHomAlgebra(module, mult, alpha, beta, unit=unit)


def conjugate_lie(l: BiHomLie, p: Matrix, q: Matrix) -> BiHomLie:
    module, bracket, alpha, beta = _conjugate_parts(l, p, q)
    return BiHomLie(module, bracket, alpha, beta, l.rmatrix)


# -- algebra files ---------------------------------------------------------------


def _triples(tensor, d):
    return [
        [i, j, k, str(tensor[i][j][k])]
        for i in range(d)
        for j in range(d)
        for k in range(d)
        if not tensor[i][j][k].is_zero()
    ]


def raw_hopf_spec(h: HopfAlgebra):
    """The ``raw`` file form of a Hopf algebra given by structure constants."""
    d = h.dim
    return {
        "raw": {
            "names": list(h.basis_names),
            "mult": _triples(h.mult, d),
            "comult": _triples(h.comult, d),
            "unit": [str(x) for x in h.unit],
            "counit": [str(x) for x in h.counit],
            "antipode": [[str(x) for x in h.antipode.row(r)] for r in range(d)],
        }
    }


def algebra_file_text(name, hopf, hopf_spec, rmatrix, algebras=()):
    """Canonical file text for a Hopf algebra with R and product objects."""
    objects = {}
    for oname, a in algebras:
        objects[oname] = AlgebraObject(
            name=oname,
            basis=list(a.module.basis_names),
            module=a.module,
            kind="mult",
            tensor=a.mult,
            alpha=a.alpha.matrix,
            beta=a.beta.matrix,
            unit=a.unit,
        )
    f = AlgebraFile(name, (), hopf_spec, hopf, rmatrix, objects)
    return print_algebra_file(f)


# -- generated parametric algebra files ------------------------------------------


def sweedler_h4_file():
    """Sweedler's H4 over Q(t) as a raw Hopf file: basis 1, g, x, gx with
    g^2 = 1, x^2 = 0, xg = -gx, Delta x = x(x)1 + g(x)x, S(x) = -gx, the
    one-parameter triangular family R_t, and the module algebra
    A = k[u]/(u^2) with g.u = -u and x.u = 1. It is the only
    non-cocommutative input of the benchmark."""
    mult = [
        [0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"], [0, 3, 3, "1"],
        [1, 0, 1, "1"], [1, 1, 0, "1"], [1, 2, 3, "1"], [1, 3, 2, "1"],
        [2, 0, 2, "1"], [2, 1, 3, "-1"],
        [3, 0, 3, "1"], [3, 1, 2, "-1"],
    ]
    comult = [
        [0, 0, 0, "1"], [1, 1, 1, "1"],
        [2, 2, 0, "1"], [2, 1, 2, "1"],
        [3, 3, 1, "1"], [3, 0, 3, "1"],
    ]
    doc = {
        "format": "bihom-algebra-file/1",
        "name": "sweedler-h4",
        "parameters": ["t"],
        "hopf": {
            "raw": {
                "names": ["1", "g", "x", "gx"],
                "mult": mult,
                "comult": comult,
                "unit": ["1", "0", "0", "0"],
                "counit": ["1", "1", "0", "0"],
                # column j is S(e_j): S(x) = -gx, S(gx) = x
                "antipode": [
                    ["1", "0", "0", "0"],
                    ["0", "1", "0", "0"],
                    ["0", "0", "0", "1"],
                    ["0", "0", "-1", "0"],
                ],
            }
        },
        "rmatrix": [
            ["1/2", "1/2", "0", "0"],
            ["1/2", "-1/2", "0", "0"],
            ["0", "0", "t/2", "-t/2"],
            ["0", "0", "t/2", "t/2"],
        ],
        "objects": {
            "A": {
                "basis": ["1A", "u"],
                "action": {
                    "1": [["1", "0"], ["0", "1"]],
                    "g": [["1", "0"], ["0", "-1"]],
                    "x": [["0", "1"], ["0", "0"]],
                    "gx": [["0", "1"], ["0", "0"]],
                },
                "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
                "alpha": [["1", "0"], ["0", "1"]],
                "beta": [["1", "0"], ["0", "1"]],
                "unit": ["1", "0"],
            }
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def yau_m2_file():
    """M2 over Q(s, t) with the Yau-twisted product a.b = alpha(a) beta(b),
    where alpha and beta are conjugation by diag(1, s) and diag(1, t).
    Both maps are commuting algebra automorphisms, so the result is
    BiHom-associative with BiHom unit 1."""
    idx = [(0, 0), (0, 1), (1, 0), (1, 1)]

    def factor(p, ij):
        """Conjugation by diag(1, p) scales E_ij by d_i / d_j."""
        return {(0, 1): f"1/{p}", (1, 0): p}.get(ij, "1")

    mult = [
        [a, b, idx.index((i, l)), f"{factor('s', (i, j))}*{factor('t', (k, l))}"]
        for a, (i, j) in enumerate(idx)
        for b, (k, l) in enumerate(idx)
        if j == k
    ]

    def diag_map(p):
        return [[factor(p, idx[r]) if r == c else "0" for c in range(4)] for r in range(4)]

    doc = {
        "format": "bihom-algebra-file/1",
        "name": "yau-m2",
        "parameters": ["s", "t"],
        "hopf": {"group": {"names": ["e"], "table": [[0]], "identity": 0}},
        "rmatrix": [["1"]],
        "objects": {
            "A": {
                "basis": ["E11", "E12", "E21", "E22"],
                "action": {"e": [["1" if r == c else "0" for c in range(4)] for r in range(4)]},
                "mult": mult,
                "alpha": diag_map("s"),
                "beta": diag_map("t"),
                "unit": ["1", "0", "0", "1"],
            }
        },
    }
    return json.dumps(doc, indent=2) + "\n"
