"""Each span stops at its ceiling: counted ``Echelon.add`` calls and
counted product rows.

A span known to lie in a subspace U stops once its rank reaches dim U. The
certificate spins each seed under the smallest closure found that holds it,
and a decreasing series caps each term by the one before. The number of
vectors put into an echelon form measures that work without a clock, so it
is pinned here, next to the count before the ceiling:

- the certificate of gl3 (probe seed 0): 960 before;
- the derived and lower central series of gl3 from the whole space: 145
  and 153;
- the certificates of the Yau-twisted gl3 over Q(s, t) (probe seeds 0 and
  1): 2,112.

The order of the spin's operators changes its work too. An associative
closure spins every right product and then every left one; the ideal
check's order (e_j u then u e_j for each j) would make the certificates of
M2 + M2 (probe seeds 0 to 3) put 2,139 vectors into echelon forms, not
the 1,557 pinned here.

The products of two subspaces are made one row at a time, as the span
reads them, so a span that stops at its ceiling makes no more product
rows either. The rows ``_StructureBase.products`` makes are pinned too,
next to the count when every product row was built before the span: 145
for the derived series of gl3, 153 for its lower central series from the
whole space and 98 for the gl3 certificate (probe seed 0).
"""

from __future__ import annotations

import pytest

from bihomcheck import bihom, linalg
from bihomcheck.bihom import commutator_bracket
from bihomcheck.catalog import trivial_rmatrix
from bihomcheck.linalg import Subspace
from bihomcheck.structure import derived_series, lower_central_series, simplicity_certificate
from test_param_structure_pins import yau_general_linear
from test_structure_pins import matrix_algebra


@pytest.fixture
def adds(monkeypatch):
    """The number of ``Echelon.add`` calls so far, wherever each is made."""
    seen = [0]
    add = linalg.Echelon.add

    def counted(self, row):
        seen[0] += 1
        return add(self, row)

    monkeypatch.setattr(linalg.Echelon, "add", counted)
    return seen


@pytest.fixture
def product_rows(monkeypatch):
    """The number of product rows ``_StructureBase.products`` has made so
    far: each is one ``row_times`` through the transposed structure matrix."""
    seen = [0]
    row_times = bihom.row_times

    def counted(*args):
        seen[0] += 1
        return row_times(*args)

    monkeypatch.setattr(bihom, "row_times", counted)
    return seen


def _gl3():
    m3 = matrix_algebra(3)
    return commutator_bracket(m3, trivial_rmatrix(m3.module.hopf))


def test_the_gl3_certificate(adds):
    gl3 = _gl3()
    adds[0] = 0
    simplicity_certificate(gl3, probe_seed=0)
    assert adds[0] == 459


def test_the_gl3_series(adds):
    gl3 = _gl3()
    adds[0] = 0
    derived_series(gl3)
    assert adds[0] == 104
    adds[0] = 0
    lower_central_series(gl3, Subspace.full_space(9, ()))
    assert adds[0] == 106


def test_the_yau_gl3_certificates_over_two_parameters(adds):
    x = yau_general_linear(3, ("s", "t"), "s", "t")
    adds[0] = 0
    for seed in (0, 1):
        simplicity_certificate(x, probe_seed=seed)
    assert adds[0] == 1039


def test_the_m2_plus_m2_certificates_spin_right_products_first(adds):
    x = matrix_algebra(2, summands=2)
    adds[0] = 0
    for seed in range(4):
        simplicity_certificate(x, probe_seed=seed)
    assert adds[0] == 1557


def test_the_gl3_product_rows(product_rows):
    gl3 = _gl3()
    product_rows[0] = 0
    derived_series(gl3)
    assert product_rows[0] == 104
    product_rows[0] = 0
    lower_central_series(gl3, Subspace.full_space(9, ()))
    assert product_rows[0] == 106
    product_rows[0] = 0
    simplicity_certificate(gl3, probe_seed=0)
    assert product_rows[0] == 31
