"""Acceptance criteria, one test per criterion.

Every check is exact (zero residual polynomials, not tolerances); the two
stated runtime bounds are asserted with a wall clock. Run with ``pytest -v
tests/test_acceptance.py`` for one pass/fail line per criterion, or ``-s``
to see the explicit ACCEPTANCE lines.
"""

import json
import pathlib
import random
import time
from fractions import Fraction

from bihomcheck.bihom import (
    BiHomAlgebra,
    BiHomLie,
    check_bihom_associative,
    check_generalized_bihom_lie,
    check_lemma31,
    commutator_bracket,
    twist_bracket,
)
from bihomcheck.catalog import (
    catalog_file,
    catalog_names,
    r_triangular_kz2,
    trivial_hopf,
    trivial_rmatrix,
)
from bihomcheck.cli import run_structure, run_suite
from bihomcheck.hmod import HModule, ModuleMap, braiding
from bihomcheck.hopf import check_quasitriangular, is_triangular
from bihomcheck.linalg import Matrix, Subspace
from bihomcheck.scalars import Scalar, parse_scalar
from bihomcheck.structure import (
    center,
    derived_series,
    ideal_closure,
    is_H_bihom_lie_ideal,
    lower_central_series,
    simplicity_certificate,
)
from report_entry import entry
from shipped import shipped

GOLDEN = pathlib.Path(__file__).parent / "golden"
L = ("l1", "l2", "l1p", "l2p")


def announce(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_quasitriangularity_of_kz2_r0():
    start = time.perf_counter()
    h = catalog_file("kz2").hopf
    r = r_triangular_kz2()
    rep = check_quasitriangular(h, r)
    assert rep.ok, rep.render_text()
    assert is_triangular(h, r)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    announce(1, f"(kZ2, R0) is quasitriangular and triangular, exact, {elapsed * 1000:.0f}ms")


def test_criterion_2_example24_bihom_associative_suite_symbolic():
    start = time.perf_counter()
    rep = check_bihom_associative(shipped("example24", "A"))
    assert rep.ok, rep.render_text()
    # the suite enumerated all 8 triples with symbolic b and found zero residuals
    assert entry(rep, "bihom.assoc").status == "pass"
    assert entry(rep, "bihom.alpha-multiplicative").status == "pass"
    assert entry(rep, "bihom.beta-multiplicative").status == "pass"
    assert entry(rep, "module-algebra.equivariance").status == "pass"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    announce(2, f"Example 2.4 passes the full BiHom-associative suite in Q(b), {elapsed * 1000:.0f}ms")


def test_criterion_3_commutator_construction_on_example24():
    a = shipped("example24", "A")
    lie = commutator_bracket(a, r_triangular_kz2(("b",)))
    rep = check_generalized_bihom_lie(lie)
    assert rep.ok, rep.render_text()
    for check_id in ("lie.maps-commute", "lie.twist-endomorphisms", "lie.skew", "lie.jacobi"):
        assert entry(rep, check_id).status == "pass"
    # the computed table is emitted alongside an informational diff against
    # the published values; correctness is judged by the formula, so the
    # discrepancy must be reported without failing anything
    suite = run_suite(catalog_file("example24"), "all")
    assert suite.ok
    diff_notes = [n for n in suite.notes if "differs from the stored reference" in n]
    assert diff_notes, "expected an informational diff against the printed table"
    assert any("[x1,x2]: computed 0" in n for n in suite.notes)
    announce(3, "commutator bracket on Example 2.4 passes Eqs 2.1-2.4 in Q(b); printed-table diff is informational")


# -- criterion 4: degeneration oracle ----------------------------------------

ARCHETYPES = {
    "diagonal3": {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1},
    "truncated-poly": {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1,
                       (2, 0, 2): 1, (1, 1, 2): 1},
    "upper-triangular": {(0, 0, 0): 1, (1, 1, 1): 1, (0, 2, 2): 1, (2, 1, 2): 1},
    "split-dual": {(0, 0, 0): 1, (1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1},
    "zero": {},
}


def _dense(table):
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k), v in table.items():
        c[i][j][k] = Fraction(v)
    return c


def _frac_matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _frac_inverse(a):
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [x / f for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                g = aug[r][col]
                aug[r] = [x - g * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _conjugate(c, p):
    """Structure constants in the basis f_i = sum_a p[a][i] e_a."""
    pinv = _frac_inverse(p)
    n = len(c)
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = [Fraction(0)] * n
            for a in range(n):
                if p[a][i] == 0:
                    continue
                for b in range(n):
                    if p[b][j] == 0:
                        continue
                    w = p[a][i] * p[b][j]
                    for k in range(n):
                        if c[a][b][k] != 0:
                            acc[k] += w * c[a][b][k]
            for d in range(n):
                out[i][j][d] = sum(pinv[d][k] * acc[k] for k in range(n))
    return out


def random_associative_constants(rng):
    """Random-looking 3-dim associative structure constants: a known
    associative archetype conjugated by a random invertible basis change."""
    name = rng.choice(sorted(ARCHETYPES))
    c = _dense(ARCHETYPES[name])
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        if _frac_inverse(p) is not None:
            break
    return _conjugate(c, p)


def _as_bihom_algebra(constants):
    hopf = trivial_hopf()
    module = HModule(hopf, ["u1", "u2", "u3"], [Matrix.identity(3)])
    tensor = [
        [[Scalar.of((), constants[i][j][k]) for k in range(3)] for j in range(3)]
        for i in range(3)
    ]
    ident = ModuleMap.identity(module)
    return BiHomAlgebra(module, tensor, ident, ident)


def _as_bihom_lie(constants):
    a = _as_bihom_algebra(constants)
    tensor = [
        [[Scalar.of((), constants[i][j][k]) for k in range(3)] for j in range(3)]
        for i in range(3)
    ]
    return BiHomLie(a.module, tensor, a.alpha, a.beta, trivial_rmatrix(a.module.hopf))


# independent classical oracle: plain Fraction arithmetic on the constants,
# no scalar/matrix machinery from the package under test
def classical_antisymmetry(c):
    n = len(c)
    return all(
        c[i][j][k] + c[j][i][k] == 0 for i in range(n) for j in range(n) for k in range(n)
    )


def classical_jacobi(c):
    n = len(c)

    def bk(i, j):
        return [c[i][j][k] for k in range(n)]

    def bkv(vec, j):
        out = [Fraction(0)] * n
        for m in range(n):
            if vec[m]:
                for k in range(n):
                    out[k] += vec[m] * c[m][j][k]
        return out

    def bkv_right(i, vec):
        out = [Fraction(0)] * n
        for m in range(n):
            if vec[m]:
                for k in range(n):
                    out[k] += vec[m] * c[i][m][k]
        return out

    for x in range(n):
        for y in range(n):
            for z in range(n):
                total = [Fraction(0)] * n
                # [x,[y,z]] + [z,[x,y]] + [y,[z,x]]
                for first, inner in ((x, bk(y, z)), (z, bk(x, y)), (y, bk(z, x))):
                    term = bkv_right(first, inner)
                    total = [a + t for a, t in zip(total, term)]
                if any(total):
                    return False
    return True


def test_criterion_4_degeneration_matches_classical_commutator():
    rng = random.Random(20240815)
    for trial in range(20):
        constants = random_associative_constants(rng)
        a = _as_bihom_algebra(constants)
        assert check_bihom_associative(a).ok, f"trial {trial}: generator broke associativity"
        lie = commutator_bracket(a, trivial_rmatrix(a.module.hopf))
        classical = [
            [
                [constants[i][j][k] - constants[j][i][k] for k in range(3)]
                for j in range(3)
            ]
            for i in range(3)
        ]
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert lie.bracket[i][j][k].value == classical[i][j][k]
        rep = check_generalized_bihom_lie(lie)
        assert rep.ok
        assert classical_antisymmetry(classical) and classical_jacobi(classical)
    # verdict agreement also on brackets that are not Lie: the braided checks
    # with trivial data must agree axiom-by-axiom with the classical oracle
    agreements = 0
    for trial in range(12):
        raw = [
            [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            for _ in range(3)
        ]
        variants = [raw]
        anti = [
            [[raw[i][j][k] - raw[j][i][k] for k in range(3)] for j in range(3)]
            for i in range(3)
        ]
        variants.append(anti)
        for constants in variants:
            lie = _as_bihom_lie(constants)
            rep = check_generalized_bihom_lie(lie)
            assert entry(rep, "lie.skew").status == (
                "pass" if classical_antisymmetry(constants) else "fail"
            )
            assert entry(rep, "lie.jacobi").status == (
                "pass" if classical_jacobi(constants) else "fail"
            )
            agreements += 1
    assert agreements == 24
    announce(4, "20 seeded associative degenerations equal ab-ba entrywise; suite verdicts match the classical oracle on 44 instances")


def test_criterion_5_twist_reproduces_printed_table_and_hom_case():
    base = shipped("example25-heisenberg", "L")
    alpha, beta = catalog_file("example25-heisenberg").objects["L"].twist_maps()
    lie = twist_bracket(base, alpha, beta)
    want_01 = parse_scalar("l1*l2p", L)
    want_10 = parse_scalar("l1p*l2", L)
    for i in range(3):
        for j in range(3):
            vec = lie.bracket[i][j]
            if (i, j) == (0, 1):
                assert vec == [Scalar.of(L, 0), Scalar.of(L, 0), want_01]
            elif (i, j) == (1, 0):
                assert vec == [Scalar.of(L, 0), Scalar.of(L, 0), want_10]
            else:
                assert all(c.is_zero() for c in vec)
    assert check_generalized_bihom_lie(lie).ok
    # Hom degeneration: beta := alpha, i.e. l1p -> l1, l2p -> l2
    hom = twist_bracket(base, alpha, alpha)
    assert check_generalized_bihom_lie(hom).ok
    assert hom.bracket[0][1][2] == parse_scalar("l1*l2", L)
    assert hom.bracket[1][0][2] == parse_scalar("l1*l2", L)
    announce(5, "twist gives [x1,x2]'=l1*l2p*x3, [x2,x1]'=l1p*l2*x3 exactly; BiHom suite and Hom degeneration pass")


def test_criterion_6_lemma31_zero_residuals():
    rep24 = check_lemma31(shipped("example24", "A"), r_triangular_kz2(("b",)))
    assert rep24.ok, rep24.render_text()
    m2 = shipped("trivial-hopf", "A")
    rep_m2 = check_lemma31(m2, trivial_rmatrix(m2.module.hopf))
    assert rep_m2.ok, rep_m2.render_text()
    for rep, triples in ((rep24, 8), (rep_m2, 64)):
        for cid in ("lemma31.1", "lemma31.2"):
            e = entry(rep, cid)
            assert e.status == "pass"
            assert e.detail == f"{triples} triples checked"
    announce(6, "Lemma 3.1 identities have zero residuals on every triple of example24 and the trivial-Hopf instance")


def test_criterion_7_structure_theory_values():
    lie = shipped("example25-heisenberg", "L")
    x3 = Subspace.from_rows(3, [[Scalar.of(L, 0), Scalar.of(L, 0), Scalar.of(L, 1)]], L)
    assert center(lie) == x3
    series = derived_series(lie)
    assert series.reaches_zero and series.step == 2
    assert [t.dim for t in series.terms] == [3, 1, 0]
    assert series.terms[1] == x3
    lcs = lower_central_series(lie, series.terms[1])
    assert lcs.reaches_zero
    cert = simplicity_certificate(lie)
    assert cert.nonsimple_ideal == x3
    a24 = shipped("example24", "A")
    cert24 = simplicity_certificate(a24)
    x2 = Subspace.from_rows(2, [[Scalar.of(("b",), 0), Scalar.of(("b",), 1)]], ("b",))
    assert cert24.nonsimple_ideal == x2
    # golden files pin the rendered reports for these computations
    for name, what, kwargs, fname in (
        ("example25-heisenberg", "center", dict(object_name="L"), "structure_center_example25-heisenberg.json"),
        ("example25-heisenberg", "derived-series", dict(object_name="L"), "structure_derived-series_example25-heisenberg.json"),
        ("example25-heisenberg", "certificate", dict(object_name="L"), "structure_certificate_example25-heisenberg.json"),
        ("example24", "certificate", dict(object_name="A"), "structure_certificate_example24.json"),
    ):
        rep = run_structure(catalog_file(name), what, **kwargs)
        assert rep.to_json() == json.loads((GOLDEN / fname).read_text())
    announce(7, "Heisenberg: center/derived/lcs/certificate all pin to span(x3); example24 certificate pins to span(x2)")


def test_criterion_8_property_suites_across_the_catalog():
    start = time.perf_counter()
    rng = random.Random(991)
    for name in catalog_names():
        f = catalog_file(name)
        # braiding symmetry on every module of the instance
        for obj in f.objects.values():
            tau = braiding(obj.module, obj.module, f.rmatrix)
            assert (tau @ tau).is_identity(), (name, obj.name)
        # closure operator laws and series stability per bracket object
        for obj in f.objects.values():
            if obj.kind == "bracket":
                lie = obj.structure(f.rmatrix)
                dim = obj.dim
                for _ in range(4):
                    rows = [
                        [Scalar.of(f.parameters, Fraction(rng.randint(-2, 2))) for _ in range(dim)]
                        for _ in range(rng.randint(0, 2))
                    ]
                    seed = Subspace.from_rows(dim, rows, f.parameters)
                    closed = ideal_closure(lie, seed)
                    assert closed.first_outside(seed.basis) is None
                    assert ideal_closure(lie, closed) == closed
                    one_more = Subspace.from_rows(
                        dim,
                        rows + [[Scalar.of(f.parameters, 1)] + [Scalar.of(f.parameters, 0)] * (dim - 1)],
                        f.parameters,
                    )
                    assert ideal_closure(lie, one_more).first_outside(closed.basis) is None
                for res in (
                    derived_series(lie),
                    lower_central_series(lie, Subspace.full_space(dim, f.parameters)),
                ):
                    for term in res.terms:
                        assert is_H_bihom_lie_ideal(lie, term), (name, obj.name)
        rep = run_suite(f, "all")
        assert rep.ok, f"{name}: {rep.render_text()}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"catalog property sweep took {elapsed:.1f}s, budget 60s"
    announce(8, f"closure laws, braiding symmetry, series stability, and full suites hold on the catalog in {elapsed:.1f}s")
