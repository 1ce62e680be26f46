"""Ideals, center, closures, series, certificates, and the instance-level
conclusions of the ideal-structure theorems."""

import random
from fractions import Fraction

import pytest

from bihomcheck.bihom import commutator_bracket
from bihomcheck.catalog import trivial_rmatrix
from bihomcheck.errors import AmbientMismatch
from bihomcheck.linalg import Subspace
from bihomcheck.scalars import Scalar
from bihomcheck.structure import (
    SERIES_STABLE,
    SERIES_ZERO,
    center,
    derived_series,
    ideal_closure,
    is_H_bihom_ideal,
    is_H_bihom_lie_ideal,
    lower_central_series,
    simplicity_certificate,
)
from shipped import shipped

L = ("l1", "l2", "l1p", "l2p")


def span(ambient, rows, params=()):
    return Subspace.from_rows(
        ambient,
        [[Scalar.of(params, x) for x in r] for r in rows],
        params,
    )


def x3_line(params=L):
    return span(3, [[0, 0, 1]], params)


def test_bracket_of_subspaces_heisenberg():
    # the lower central series from L steps through [L, L] and [[L, L], L]
    lie = shipped("example25-heisenberg", "L")
    full = Subspace.full_space(3, L)
    zero = Subspace.zero_space(3, L)
    res = lower_central_series(lie, full)
    assert res.verdict == SERIES_ZERO and res.step == 2
    assert res.terms[1] == x3_line()
    assert res.terms[2] == zero
    assert lower_central_series(lie, zero).terms == [zero]
    with pytest.raises(AmbientMismatch):
        lower_central_series(lie, Subspace.zero_space(2, L))


def test_lie_ideal_checks():
    lie = shipped("example25-heisenberg", "L")
    assert is_H_bihom_lie_ideal(lie, Subspace.full_space(3, L))
    assert is_H_bihom_lie_ideal(lie, x3_line())
    verdict = is_H_bihom_lie_ideal(lie, span(3, [[1, 0, 0]], L))
    assert not verdict
    assert "[U, L]" in verdict.reason
    # witness is the escaping bracket value [x1, x2] = x3
    assert [str(c) for c in verdict.witness] == ["0", "0", "1"]
    with pytest.raises(AmbientMismatch):
        is_H_bihom_lie_ideal(lie, Subspace.zero_space(2, L))


def test_associative_ideal_checks():
    a = shipped("example24", "A")
    assert is_H_bihom_ideal(a, Subspace.zero_space(2, ("b",)))
    assert is_H_bihom_ideal(a, span(2, [[0, 1]], ("b",)))
    verdict = is_H_bihom_ideal(a, span(2, [[1, 0]], ("b",)))
    assert not verdict
    assert verdict.witness is not None


def test_center_abelian_and_heisenberg():
    lie = shipped("example25-heisenberg", "L")
    assert center(lie) == x3_line()
    # twisted version with generic symbolic scalars has the same center
    assert center(shipped("example25-twisted", "L")) == x3_line()
    # an abelian bracket has everything central
    from bihomcheck.bihom import BiHomLie

    zero = Scalar.of(L, 0)
    abelian = BiHomLie(
        lie.module,
        [[[zero] * 3 for _ in range(3)] for _ in range(3)],
        lie.alpha,
        lie.beta,
        lie.rmatrix,
    )
    assert center(abelian) == Subspace.full_space(3, L)


def test_ideal_closure_examples():
    lie = shipped("example25-heisenberg", "L")
    assert ideal_closure(lie, Subspace.zero_space(3, L)).dim == 0
    got = ideal_closure(lie, span(3, [[1, 0, 0]], L))
    assert got == span(3, [[1, 0, 0], [0, 0, 1]], L)
    a = shipped("example24", "A")
    x2 = span(2, [[0, 1]], ("b",))
    assert ideal_closure(a, x2) == x2


def test_closure_operator_laws():
    # extensive, idempotent, monotone on seeded random seeds
    rng = random.Random(1234)
    lie = shipped("cross-product-classical", "L")
    a24 = shipped("example24", "A")
    for x, dim, params in ((lie, 3, ()), (shipped("example25-heisenberg", "L"), 3, L), (a24, 2, ("b",))):
        for _ in range(8):
            rows = [
                [Fraction(rng.randint(-2, 2)) for _ in range(dim)]
                for _ in range(rng.randint(0, 2))
            ]
            seed = span(dim, rows, params)
            closed = ideal_closure(x, seed)
            assert closed.first_outside(seed.basis) is None
            assert ideal_closure(x, closed) == closed
            bigger = span(dim, rows + [[1] + [0] * (dim - 1)], params)
            assert ideal_closure(x, bigger).first_outside(closed.basis) is None


def test_derived_series_heisenberg():
    lie = shipped("example25-heisenberg", "L")
    res = derived_series(lie)
    assert res.verdict == SERIES_ZERO and res.step == 2
    assert [t.dim for t in res.terms] == [3, 1, 0]
    assert res.terms[1] == x3_line()


def test_derived_series_abelian_and_simple():
    from bihomcheck.bihom import BiHomLie

    lie = shipped("cross-product-classical", "L")
    res = derived_series(lie)
    assert res.verdict == SERIES_STABLE
    assert res.terms[-1].dim == 3  # [L,L] = L for the cross product
    zero = Scalar.of((), 0)
    abelian = BiHomLie(
        lie.module,
        [[[zero] * 3 for _ in range(3)] for _ in range(3)],
        lie.alpha,
        lie.beta,
        lie.rmatrix,
    )
    res = derived_series(abelian)
    assert res.verdict == SERIES_ZERO and res.step == 1


def test_lower_central_series():
    lie = shipped("example25-heisenberg", "L")
    res = lower_central_series(lie, Subspace.zero_space(3, L))
    assert res.verdict == SERIES_ZERO and res.step == 0 or res.terms[0].dim == 0
    res = lower_central_series(lie, Subspace.full_space(3, L))
    assert res.verdict == SERIES_ZERO
    assert [t.dim for t in res.terms] == [3, 1, 0]
    res = lower_central_series(shipped("cross-product-classical", "L"), Subspace.full_space(3, ()))
    assert res.verdict == SERIES_STABLE


def test_simplicity_certificate_heisenberg():
    cert = simplicity_certificate(shipped("example25-heisenberg", "L"))
    assert cert.nonsimple_ideal == x3_line()
    assert cert.nonsemiprime_ideal is not None
    assert cert.nonprime_pair is not None


def test_simplicity_certificate_example24():
    cert = simplicity_certificate(shipped("example24", "A"))
    assert cert.nonsimple_ideal == span(2, [[0, 1]], ("b",))


def test_simplicity_certificate_finds_nothing_on_probes():
    from bihomcheck.bihom import BiHomLie
    from bihomcheck.catalog import trivial_hopf, trivial_rmatrix
    from bihomcheck.hmod import HModule, ModuleMap
    from bihomcheck.linalg import Matrix

    h = trivial_hopf()
    m = HModule(h, ["u"], [Matrix.identity(1)])
    zero = Scalar.of((), 0)
    one_dim = BiHomLie(
        m, [[[zero]]], ModuleMap.identity(m), ModuleMap.identity(m), trivial_rmatrix(h)
    )
    cert = simplicity_certificate(one_dim)
    assert cert.nonsimple_ideal is None  # no proper nonzero subspace exists
    # but the zero bracket makes (L, L) a primality counterexample
    assert cert.nonprime_pair is not None
    # cross product: no counterexample of any kind surfaces
    cert = simplicity_certificate(shipped("cross-product-classical", "L"))
    assert cert.nonsimple_ideal is None
    assert cert.nonprime_pair is None
    assert cert.nonsemiprime_ideal is None


def test_certificate_is_deterministic_in_the_seed():
    a = simplicity_certificate(shipped("example25-heisenberg", "L"), probe_seed=7)
    b = simplicity_certificate(shipped("example25-heisenberg", "L"), probe_seed=7)
    assert a.nonsimple_ideal == b.nonsimple_ideal
    assert a.probe_seed == 7


def test_series_terms_are_stable_ideals():
    # every term of both series passes the alpha/beta/H stability checks
    for lie in (shipped("example25-heisenberg", "L"), shipped("cross-product-classical", "L"), shipped("example25-twisted", "L")):
        for res in (
            derived_series(lie),
            lower_central_series(lie, Subspace.full_space(lie.module.dim, lie.params)),
        ):
            for term in res.terms:
                assert is_H_bihom_lie_ideal(lie, term)


def test_center_brackets_vanish_exactly():
    for lie in (shipped("example25-heisenberg", "L"), shipped("example25-twisted", "L"), shipped("cross-product-classical", "L")):
        z = center(lie)
        d = lie.module.dim
        for zv in z.vectors():
            for j in range(d):
                out = lie.bracket_vec(zv, lie.module.basis_vector(j))
                assert all(c.is_zero() for c in out)


def test_theorem_33_conclusion_on_matrix_algebra_under_both_readings():
    # the ambient hypothesis is stated as 'prime' but used as 'simple'; the
    # 2x2 matrix algebra satisfies both semi-decisions (no counterexample),
    # and for U with [U,U] != 0 an ideal I with 0 != [I,L] <= U exists
    a = shipped("trivial-hopf", "A")
    cert = simplicity_certificate(a)
    readings = {
        "prime": cert.nonprime_pair is None,
        "simple": cert.nonsimple_ideal is None,
    }
    assert readings["prime"] and readings["simple"]
    lie = commutator_bracket(a, trivial_rmatrix(a.module.hopf))
    # L, then [L, L] = sl2, which is its own bracket [[L,L],[L,L]]
    series = derived_series(lie)
    assert series.verdict == SERIES_STABLE and [t.dim for t in series.terms] == [4, 3]
    full, derived = series.terms
    for u in (full, derived):
        # [U, U] = [L, L] is nonzero, and I = L works: [L, L] lies in U
        assert u.first_outside(derived.basis) is None
