"""The specialisation square for the axiom suites and structure theory.

Checking a parametric file over Q(params) and then reading the verdict at a
rational point must agree with specialising the file at that point
(``substitute_file``, which ``--set`` runs) and then checking it:

- a check that passes symbolically passes at every point;
- a check that fails symbolically fails at every point where the residual of
  its first failing tuple does not vanish, and at that same tuple, since
  every earlier tuple has a zero residual over Q(params);
- a point that hits a pole of the file is refused with DenominatorVanishes.

Structure outputs computed over Q(params) and read at a point must agree
with the same outputs computed on the specialised file, wherever the
generic basis has no pole there. The outputs are the centre, every term of
the derived and lower central series and the closure of each basis vector:

- a span (a series term, a closure) is spanned by the values of its
  generic vectors, so its dimension at a point is at most the generic one;
- the centre is a kernel and holds the values of its generic vectors, so
  its dimension at a point is at least the generic one;
- where the two dimensions are equal, the subspaces are equal, and each
  output has at least one point where they are.

The inputs are the parametric catalog files, the two generated parametric
files of the benchmark, a perturbed ``example24`` whose verdict fails, the
Yau-twisted gl2 over Q(s, t) and gl3 over Q(s) of the parametric structure
pins, and a gl2 whose bracket has one entry scaled by s, which fails unless
s = 1.
"""

import functools
import json
from fractions import Fraction

import pytest

from bihomcheck.algfile import (
    AlgebraFile,
    AlgebraObject,
    parse_algebra_file,
    print_algebra_file,
    substitute_file,
)
from bihomcheck.catalog import GROUP_Z1, catalog_file
from bihomcheck.cli import run_suite
from bihomcheck.errors import DenominatorVanishes
from bihomcheck.bihom import BiHomLie
from bihomcheck.linalg import Subspace
from bihomcheck.report import FAIL, PASS
from bihomcheck.scalars import parse_scalar
from bihomcheck.structure import center, derived_series, ideal_closure, lower_central_series
from test_param_structure_pins import INSTANCES, general_linear, yau_general_linear
from test_scalar_pins import files as scalar_pin_files

VALUES = (2, -1, Fraction(1, 3), Fraction(5, 7))
MIXED = (3, Fraction(-1, 2), 7, Fraction(2, 5))


def points(params):
    """Each value bound to every parameter, then one mixed assignment."""
    mixed = {p: MIXED[i % len(MIXED)] for i, p in enumerate(params)}
    return [dict.fromkeys(params, v) for v in VALUES] + [mixed]


def perturbed_example24():
    """example24 with x2 x2 = (b - 2)/(b + 1) x2: the suites fail for generic
    b, the perturbation vanishes at b = 2, and b = -1 is a pole."""
    doc = json.loads(print_algebra_file(catalog_file("example24")))
    doc["name"] = "example24-perturbed"
    doc["objects"]["A"]["mult"].append([1, 1, 1, "(b - 2)/(b + 1)"])
    return parse_algebra_file(json.dumps(doc))


def lie_file(name, lie):
    """The printed algebra file of a BiHom-Lie algebra over the trivial Hopf
    algebra, as a JSON document."""
    f = AlgebraFile(
        name=name,
        parameters=lie.params,
        hopf_spec=GROUP_Z1,
        hopf=lie.module.hopf,
        rmatrix=lie.rmatrix,
        objects={"L": AlgebraObject.of("L", lie)},
    )
    return json.loads(print_algebra_file(f))


def scaled_gl2():
    """gl2 with [E12, E21] = s*E11 - E22: skew-symmetry fails for generic s
    and holds again at s = 1."""
    doc = lie_file("gl2-scaled", general_linear(2, ("s",)))
    bracket = doc["objects"]["L"]["bracket"]
    bracket[bracket.index([1, 2, 0, "1"])][3] = "s"
    return parse_algebra_file(json.dumps(doc))


@functools.cache
def files():
    """The parametric files among the catalog and the generated ones, and
    the failing and Yau-twisted inputs built here."""
    out = {name: f for name, f in scalar_pin_files().items() if f.parameters}
    out["example24-perturbed"] = perturbed_example24()
    for name in INSTANCES:
        out[name] = parse_algebra_file(json.dumps(lie_file(name, yau_general_linear(*INSTANCES[name]))))
    out["gl2-scaled"] = scaled_gl2()
    return out


# the files whose symbolic verdict fails
FAILING = ("example24-perturbed", "gl2-scaled")


def vanishes_at(witness, params, point):
    return all(parse_scalar(c, params).substitute(point).is_zero() for _, c in witness.residual)


@pytest.mark.parametrize("name", sorted(files()))
def test_suite_verdicts_commute_with_specialisation(name):
    f = files()[name]
    symbolic = run_suite(f, "all").entries
    failing_points = 0
    for point in points(f.parameters):
        if name == "example24-perturbed" and point == {"b": -1}:
            with pytest.raises(DenominatorVanishes):
                substitute_file(f, point)
            continue
        specialised = run_suite(substitute_file(f, point), "all").entries
        assert [e.check_id for e in specialised] == [e.check_id for e in symbolic], point
        for e, at in zip(symbolic, specialised):
            if e.status == PASS:
                assert at.status == PASS, (e.check_id, point)
            elif e.status == FAIL and not vanishes_at(e.witness, f.parameters, point):
                assert at.status == FAIL, (e.check_id, point)
                assert at.witness.basis == e.witness.basis, (e.check_id, point)
                failing_points += 1
    if any(e.status == FAIL for e in symbolic):
        assert failing_points > 0
    assert (name in FAILING) == any(e.status == FAIL for e in symbolic)


def test_the_scaled_gl2_passes_where_its_residual_vanishes():
    f = files()["gl2-scaled"]
    failed = [e for e in run_suite(f, "all").entries if e.status == FAIL]
    assert failed and all(vanishes_at(e.witness, f.parameters, {"s": 1}) for e in failed)
    assert run_suite(substitute_file(f, {"s": 1}), "all").ok


def _padded(terms, n):
    """A series as its first n terms: it stays at its last term."""
    return terms + [terms[-1]] * (n - len(terms))


def structure_outputs(x) -> dict:
    """name -> (subspace, whether it is a kernel) for the centre, the
    series terms and the closure of each basis vector; the series are
    padded to 17 terms, the most 16 steps make, so that the k-th terms
    of two series match."""
    d, p = x.module.dim, x.params
    out = {f"closure{i}": (ideal_closure(x, Subspace.span(d, [{i: 1}], p)), False)
           for i in range(d)}
    if isinstance(x, BiHomLie):
        out["center"] = (center(x), True)
        full = Subspace.full_space(d, p)
        series = {"derived": derived_series(x), "lcs": lower_central_series(x, full)}
        for label, res in series.items():
            out.update({f"{label}{k}": (t, False) for k, t in enumerate(_padded(res.terms, 17))})
    return out


def specialised(u: Subspace, point) -> Subspace:
    """The span of the values of u's basis at a point; raises
    DenominatorVanishes at a pole of the basis."""
    values = u.basis.map(lambda c: c.substitute(point).reparametrize(()), ())
    return Subspace.span(u.ambient_dim, values.data, ())


@pytest.mark.parametrize("name", sorted(files()))
def test_structure_outputs_commute_with_specialisation(name):
    f = files()[name]
    for obj in sorted(f.objects):
        generic = structure_outputs(f.objects[obj].structure(f.rmatrix))
        equal = dict.fromkeys(generic, 0)
        for point in points(f.parameters):
            try:
                g = substitute_file(f, point)
            except DenominatorVanishes:
                continue
            at = structure_outputs(g.objects[obj].structure(g.rmatrix))
            for key, (u, is_kernel) in generic.items():
                try:
                    want = specialised(u, point)
                except DenominatorVanishes:
                    continue
                got = at[key][0]
                assert (got.dim >= u.dim) if is_kernel else (got.dim <= u.dim), (obj, key, point)
                # a span at the point lies in the values of the generic
                # basis, and a kernel at the point holds them
                inner, outer = (want, got) if is_kernel else (got, want)
                assert all(map(outer._holds, inner.basis.data)), (obj, key, point)
                if got.dim == u.dim:
                    assert got == want, (obj, key, point)
                    equal[key] += 1
        assert all(equal.values()), (obj, [key for key, n in equal.items() if not n])
