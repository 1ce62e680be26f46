"""The specialisation square for the axiom suites.

Checking a parametric file over Q(params) and then reading the verdict at a
rational point must agree with specialising the file at that point
(``substitute_file``, which ``--set`` runs) and then checking it:

- a check that passes symbolically passes at every point;
- a check that fails symbolically fails at every point where the residual of
  its first failing tuple does not vanish, and at that same tuple, since
  every earlier tuple has a zero residual over Q(params);
- a point that hits a pole of the file is refused with DenominatorVanishes.

The inputs are the parametric catalog files, the two generated parametric
files of the benchmark, and a perturbed ``example24`` whose verdict fails.
"""

import functools
import json
from fractions import Fraction

import pytest

from bihomcheck.algfile import parse_algebra_file, print_algebra_file, substitute_file
from bihomcheck.catalog import catalog_file
from bihomcheck.cli import run_suite
from bihomcheck.errors import DenominatorVanishes
from bihomcheck.report import FAIL, PASS
from bihomcheck.scalars import parse_scalar
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


@functools.cache
def files():
    """The parametric files among the catalog and the generated ones."""
    out = {name: f for name, f in scalar_pin_files().items() if f.parameters}
    out["example24-perturbed"] = perturbed_example24()
    return out


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
    assert (name == "example24-perturbed") == any(e.status == FAIL for e in symbolic)
