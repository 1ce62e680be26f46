"""The braided identities against a reference that builds every matrix.

``check_generalized_bihom_lie`` sums the braided Jacobi term J and its two
tau-rotations, and ``check_lemma31`` the right side of each identity, in
one pass (``linalg.kron_apply_sum``) over the monomial factors after the
last one that is not, and makes Lemma 3.1 from four products with the two factorizations in its
docstring. The reference here makes every matrix the way the identities
read on paper: each product through ``row_times`` and ``kron`` (so no
factor is ever relabelled), the Jacobi as J + rot2 + rot3 from the four
rotated copies, and Lemma 3.1 from six products. Every verdict, witness
and failing count must agree byte for byte, and so must the braiding, the
commutator bracket and the twisted bracket.

The inputs are every catalog object and both generated parametric files
of the benchmark (Sweedler's H4 over Q(t), whose braiding has two entries
per row, and Yau's M2 over Q(s, t), whose twisting maps are diagonal with
parameters), M2 and M3 with gl2 and gl3, M3 in three seeded unimodular
bases, M3 with signed and scaled monomial twisting maps and M2 with dense
ones, the regular module of kZ2 (g swaps the basis) with R0, whose braiding
has four entries of +-1/2 per row, with a product and a bracket on it, and
every one-entry +1 perturbation of the bracket of gl2 and of
example25-twisted's L, on which the Jacobi identity fails.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest

from bihomcheck.algfile import parse_algebra_file
from bihomcheck.bihom import (
    BiHomAlgebra,
    BiHomLie,
    braided_commutator,
    check_generalized_bihom_lie,
    check_lemma31,
    commutator_bracket,
    twist_bracket,
)
from bihomcheck.catalog import catalog_file, catalog_names, r_triangular_kz2, trivial_rmatrix
from bihomcheck.errors import BihomError
from bihomcheck.hmod import HModule, ModuleMap, braiding, tensor_module
from bihomcheck.linalg import Matrix, flip, hstack, invert, kron, kron_sum, row_times
from bihomcheck.report import CheckEntry, CheckReport, Witness, column_witness
from test_hopf_generators import _benchmark_instances, unimodular
from test_structure_pins import matrix_algebra

# -- the reference ------------------------------------------------------------------


def times(x, m):
    """x m through ``row_times`` on every row of x, whatever m is."""
    return Matrix.from_dicts(x.rows, m.cols, [row_times(row, m.data) for row in x.data], x.params)


def apply(x, factors):
    """x kron(*factors), the Kronecker operator made; an int n is the
    identity on a slot of size n."""
    return times(x, functools.reduce(kron, [Matrix.identity(f, x.params) if isinstance(f, int)
                                            else f for f in factors]))


def reference_braiding(m, r):
    """tau on m (x) m: the flip of R acting, then the factor swap."""
    return times(kron_sum(r.coefficients.transpose(), m.action, m.action),
                 flip(m.dim, m.dim, m.params))


def reference_commutator(a, tau):
    """B = M - M tau (alpha inv(beta) (x) inv(alpha) beta)."""
    am, bm = a.alpha.matrix, a.beta.matrix
    M = a.structure_matrix()
    return M - apply(times(M, tau), [times(am, invert(bm)), times(invert(am), bm)])


def _h_linear(mm):
    """The first Hopf basis element whose action the module map does not
    commute with, or None."""
    src, hopf = mm.source, mm.source.hopf
    lhs = times(mm.matrix, hstack(src.action))
    rhs = apply(hstack(mm.target.action), [hopf.dim, mm.matrix])
    c = (lhs - rhs).first_nonzero_column()
    return None if c is None else hopf.basis_names[c // src.dim]


def _replaced(report, found):
    """``report`` with the entries named in ``found`` (id -> (failed, witness,
    detail or None)) recomputed: their law and order are the report's."""
    entries = []
    for e in report.entries:
        if e.check_id in found:
            failed, w, detail = found.pop(e.check_id)
            e = CheckEntry(e.check_id, e.law, "fail" if failed else "pass", w if failed else None,
                           e.detail if detail is None else detail)
        entries.append(e)
    assert not found, f"not reported: {sorted(found)}"
    return CheckReport(report.suite, entries, list(report.notes), report.probe_seed).to_json()


def reference_lie(l, tau, report):
    """The JSON of ``report``, the BiHom-Lie report of l braided by tau, with
    every entry but the verdict on R recomputed; the Jacobi identity is
    J + rot2 + rot3, each rotation made as a matrix."""
    m = l.module
    names, d = m.basis_names, m.dim
    am, bm, B = l.alpha.matrix, l.beta.matrix, l.structure_matrix()
    pairs = [names] * 2

    def entry(w):
        return (w is not None, w, None)

    found = {"lie.maps-commute": entry(column_witness([names], names, times(am, bm) - times(bm, am)))}
    found["lie.twist-endomorphisms"] = entry(
        column_witness(pairs, names, times(am, B) - apply(B, [am, am]))
        or column_witness(pairs, names, times(bm, B) - apply(B, [bm, bm])))
    found["lie.skew"] = entry(column_witness(pairs, names, apply(B, [bm, am]) + apply(times(B, tau), [am, bm])))
    J = apply(B, [times(bm, bm), apply(B, [bm, am])])
    rot2 = apply(apply(J, [tau, d]), [d, tau])
    rot3 = apply(apply(J, [d, tau]), [tau, d])
    found["lie.jacobi"] = entry(column_witness([names] * 3, names, J + rot2 + rot3))
    act = hstack(m.action)
    square = hstack(tensor_module(m, m).action)
    diff = apply(act, [m.hopf.dim, B]) - times(B, square)
    found["lie.bracket-h-linear"] = entry(column_witness([m.hopf.basis_names, names, names], names, diff))
    for label, mm in (("alpha", l.alpha), ("beta", l.beta)):
        bad = _h_linear(mm)
        found[f"lie.{label}-h-linear"] = entry(None if bad is None else Witness((bad,), ()))
    return _replaced(report, found)


def reference_lemma31(a, tau, B, report):
    """The JSON of ``report``, the Lemma 3.1 report on a with (tau, B), from
    six products: each side as it reads on paper."""
    names, d = a.module.basis_names, a.module.dim
    M, am, bm = a.structure_matrix(), a.alpha.matrix, a.beta.matrix
    ab = times(am, bm)
    sides = {
        "lemma31.1": (apply(B, [ab, M]),
                      apply(M, [apply(B, [bm, d]), bm])
                      + apply(apply(apply(M, [d, B]), [tau, d]), [am, bm, d])),
        "lemma31.2": (apply(B, [M, ab]),
                      apply(M, [am, apply(B, [d, am])])
                      + apply(apply(apply(M, [B, d]), [d, tau]), [d, am, bm])),
    }
    found = {}
    for check_id, (lhs, rhs) in sides.items():
        diff = lhs - rhs
        failing = len(diff.nonzero_columns())
        w = column_witness([names] * 3, names, diff)
        found[check_id] = (w is not None, w,
                           f"{d ** 3} triples checked" + (f", {failing} failing" if failing else ""))
    return _replaced(report, found)


# -- the comparisons ------------------------------------------------------------------


def compare_lie(l):
    tau = braiding(l.module, l.module, l.rmatrix)
    ref_tau = reference_braiding(l.module, l.rmatrix)
    assert tau == ref_tau
    report = check_generalized_bihom_lie(l)
    assert report.to_json() == reference_lie(l, ref_tau, report)
    return report


def compare_algebra(a, r):
    """Lemma 3.1, the commutator bracket and its BiHom-Lie report against
    the reference; a refusal must be the same either way."""
    try:
        tau, B = braided_commutator(a, r)
    except BihomError as exc:
        with pytest.raises(type(exc)):
            check_lemma31(a, r)
        return None
    ref_tau = reference_braiding(a.module, r)
    assert tau == ref_tau
    assert B == reference_commutator(a, ref_tau)
    report = check_lemma31(a, r)
    assert report.to_json() == reference_lemma31(a, ref_tau, B, report)
    lie = BiHomLie(a.module, B, a.alpha, a.beta, r)
    lie_report = check_generalized_bihom_lie(lie, tau=tau)
    assert lie_report.to_json() == reference_lie(lie, ref_tau, lie_report)
    if lie_report.ok:
        built = commutator_bracket(a, r)
        assert built.structure_matrix() == B
        assert built.validation.to_json() == lie_report.to_json()
    return report, lie_report


# -- inputs ------------------------------------------------------------------------


def _files():
    bench = _benchmark_instances()
    files = {name: catalog_file(name) for name in catalog_names()}
    files["sweedler-h4"] = parse_algebra_file(bench.sweedler_h4_file())
    files["yau-m2"] = parse_algebra_file(bench.yau_m2_file())
    return files


FILE_OBJECTS = [(f, o) for f, x in _files().items() for o in x.objects]


def with_maps(a, alpha, beta):
    """a with the twisting maps replaced."""
    m = a.module
    return BiHomAlgebra(m, a.structure_matrix(), ModuleMap(m, m, alpha), ModuleMap(m, m, beta),
                        unit=a.unit, multiplicative=a.multiplicative)


def conjugated_m3(seed):
    """M3 in the basis of the columns of a seeded unimodular P."""
    a = matrix_algebra(3)
    p, q = unimodular(random.Random(f"M3:{seed}"), 9, 12)
    module = HModule(a.module.hopf, a.module.basis_names, [q @ op @ p for op in a.module.action])
    ident = ModuleMap.identity(module)
    return BiHomAlgebra(module, q @ a.structure_matrix() @ kron(p, p), ident, ident)


def kz2_regular(kind, seed):
    """kZ2 acting on itself (g swaps e and g), with the group product or a
    seeded product or bracket of small integers, braided by R0."""
    f = catalog_file("kz2")
    h, r = f.hopf, r_triangular_kz2()
    swap = Matrix.from_dicts(2, 2, [{1: 1}, {0: 1}], ())
    module = HModule(h, ["e", "g"], [Matrix.identity(2, ()), swap])
    if kind == "group":
        table = Matrix.from_dicts(2, 4, [{0: 1, 3: 1}, {1: 1, 2: 1}], ())
    else:
        rng = random.Random(f"kz2:{kind}:{seed}")
        table = Matrix.from_dicts(2, 4, [{c: x for c in range(4) if (x := rng.randint(-2, 2))}
                                         for _ in range(2)], ())
    ident = ModuleMap.identity(module)
    maps = (ident, ModuleMap(module, module, swap)) if seed % 2 else (ident, ident)
    if kind == "bracket":
        return BiHomLie(module, table, *maps, r)
    return BiHomAlgebra(module, table, *maps), r


def bumped(l, r, c):
    """l with 1 added to the entry (r, c) of its bracket matrix."""
    B = l.structure_matrix()
    one = Matrix.from_dicts(B.rows, B.cols, [{c: 1} if i == r else {} for i in range(B.rows)], l.params)
    return BiHomLie(l.module, B + one, l.alpha, l.beta, l.rmatrix)


# -- tests -------------------------------------------------------------------------


@pytest.mark.parametrize("name, obj", FILE_OBJECTS)
def test_file_objects(name, obj):
    f = _files()[name]
    o = f.objects[obj]
    x = o.structure(f.rmatrix)
    if isinstance(x, BiHomLie):
        compare_lie(x)
        if o.twist_alpha is not None:
            twisted = twist_bracket(x, *o.twist_maps())
            alpha, beta = o.twist_maps()
            assert twisted.structure_matrix() == apply(x.structure_matrix(), [alpha.matrix, beta.matrix])
            assert twisted.validation.to_json() == compare_lie(twisted).to_json()
    else:
        assert compare_algebra(x, f.rmatrix) is not None


@pytest.mark.parametrize("n", [2, 3])
def test_matrix_algebras_and_gl(n):
    a = matrix_algebra(n)
    r = trivial_rmatrix(a.module.hopf)
    report, lie_report = compare_algebra(a, r)
    assert report.ok and lie_report.ok
    compare_lie(commutator_bracket(a, r))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_m3_in_dense_bases(seed):
    a = conjugated_m3(seed)
    report, lie_report = compare_algebra(a, trivial_rmatrix(a.module.hopf))
    assert report.ok and lie_report.ok


def test_monomial_and_dense_twisting_maps():
    # a signed permutation with a 2 and a -1/2 on M3, and a dense
    # unimodular map on M2: neither is an automorphism, so the identities
    # fail and their witnesses and failing counts are compared
    a = matrix_algebra(3)
    r = trivial_rmatrix(a.module.hopf)
    signed = Matrix.from_dicts(9, 9, [{(4 * i + 1) % 9: [1, -1, 2, Fraction(-1, 2)][i % 4]}
                                      for i in range(9)], ())
    reports = [compare_algebra(with_maps(a, signed, signed), r),
               compare_algebra(with_maps(a, Matrix.identity(9, ()), signed), r)]
    m2 = matrix_algebra(2)
    p, q = unimodular(random.Random("M2:maps"), 4, 6)
    reports.append(compare_algebra(with_maps(m2, p, p), r))
    reports.append(compare_algebra(with_maps(m2, p, q), r))
    assert all(rep is not None and not rep[0].ok for rep in reports)


@pytest.mark.parametrize("kind, seed", [("group", 0), ("group", 1), ("product", 0), ("product", 1)])
def test_kz2_regular_module_products(kind, seed):
    a, r = kz2_regular(kind, seed)
    assert max(len(row) for row in braiding(a.module, a.module, r).data) == 4
    assert compare_algebra(a, r) is not None


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_kz2_regular_module_brackets(seed):
    compare_lie(kz2_regular("bracket", seed))


@pytest.mark.parametrize("name", ["gl2", "example25-twisted"])
def test_one_entry_perturbations(name):
    if name == "gl2":
        a = matrix_algebra(2)
        base = commutator_bracket(a, trivial_rmatrix(a.module.hopf))
    else:
        f = catalog_file(name)
        base = f.objects["L"].structure(f.rmatrix)
    B = base.structure_matrix()
    failed = 0
    for r in range(B.rows):
        for c in range(B.cols):
            report = compare_lie(bumped(base, r, c))
            failed += {e.check_id: e for e in report.entries}["lie.jacobi"].status == "fail"
    assert failed
