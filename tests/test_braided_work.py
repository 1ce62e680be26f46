"""The braided identities make no relabelled copy: counted ``row_times``
calls and counted matrices.

``check_lemma31`` makes MB = M(B (x) id) and BM = M(id (x) B) once and
reads both identities off them, so it makes four d x d^3 products, each
one ``row_times`` call per row of B or M: 4 d = 36 calls at d = 9, where
six products made 6 d = 54. When tau, alpha and beta are monomial, each
right side and the braided Jacobi sum are added in one pass
(``linalg.kron_apply_sum``) into one matrix, with no rotated or relabelled
copy made. A product with a square monomial factor calls no ``row_times``
either: on the right (alpha beta, B tau) it relabels columns, on the left
(alpha B, beta B) it picks rows, once the factor's form is known or the
other factor holds at least as many entries as it has rows.

The counts are pinned by equality, on M3 and on M3 in the basis of test
seed 0 (dense constants, the same counts), next to the counts when every
relabelled copy was a matrix and Lemma 3.1 was read from six products:

- ``check_lemma31``: 63 ``row_times`` calls (54 in the six products and 9
  in alpha beta), 14 d x d^3 matrices and 17 matrices in all before; 36,
  8 and 9 now;
- ``check_generalized_bihom_lie`` with the braiding passed: 99
  ``row_times`` calls, 7 d x d^3 matrices (J, the four relabelled copies
  and the two sums) and 39 matrices in all before; 18 (9 for J and 9 for
  the bracket acting on the H-action), 2 (J and the sum) and 34 now in the
  dense basis, and 27, 2 and 34 on M3, whose bracket holds fewer than 81
  entries, so B tau, made before the form of tau is known, is 9
  ``row_times`` calls.

A braiding that is not monomial goes through ``row_times`` slot by slot,
and only the monomial factors after it are summed in the one pass, so no
chain and no partial sum is a matrix. On the regular module of kZ2 with R0
(d = 2), the Jacobi identity makes 16 ``row_times`` calls where it made 30
(the products with alpha and beta, the identity and the swap, no longer
call it), 5 d x d^3 matrices where it made 10 and 36 in all where it made
41 (when each chain was a matrix: 10 and 41); Lemma 3.1 makes 12
``row_times`` calls where it made 18 (four products, not six), 8 d x d^3
matrices where it made 14 and 9 in all where it made 17 (when each chain
was a matrix: 14 and 15).
"""

from __future__ import annotations

import pytest

from bihomcheck import linalg
from bihomcheck.bihom import BiHomLie, braided_commutator, check_generalized_bihom_lie, check_lemma31
from bihomcheck.catalog import trivial_rmatrix
from bihomcheck.hmod import braiding
from bihomcheck.hopf import triangularity
from test_braided_identities import conjugated_m3, kz2_regular
from test_structure_pins import matrix_algebra


@pytest.fixture
def work(monkeypatch):
    """The ``row_times`` calls and the shapes of the matrices built so far."""
    seen = {"row_times": 0, "shapes": []}
    row_times, set_ = linalg.row_times, linalg.Matrix._set

    def counted_row_times(*args):
        seen["row_times"] += 1
        return row_times(*args)

    def counted_set(self, rows, cols, data, params):
        seen["shapes"].append((rows, cols))
        set_(self, rows, cols, data, params)

    monkeypatch.setattr(linalg, "row_times", counted_row_times)
    monkeypatch.setattr(linalg.Matrix, "_set", counted_set)
    return seen


def _counted(work, check, d=9):
    work["row_times"], work["shapes"] = 0, []
    check()
    return work["row_times"], work["shapes"].count((d, d ** 3)), len(work["shapes"])


@pytest.mark.parametrize("a, skew", [(matrix_algebra(3), 9), (conjugated_m3(0), 0)], ids=["M3", "cM3"])
def test_lemma31_and_the_jacobi_identity(work, a, skew):
    r = trivial_rmatrix(a.module.hopf)
    verdict = triangularity(a.module.hopf, r)
    tau, B = braided_commutator(a, r, verdict=verdict)
    lie = BiHomLie(a.module, B, a.alpha, a.beta, r)
    lemma = _counted(work, lambda: check_lemma31(a, r, commutator=(tau, B)))
    jacobi = _counted(work, lambda: check_generalized_bihom_lie(lie, verdict=verdict, tau=tau))
    assert check_lemma31(a, r, commutator=(tau, B)).ok
    assert check_generalized_bihom_lie(lie, verdict=verdict, tau=tau).ok
    assert (lemma, jacobi) == ((36, 8, 9), (18 + skew, 2, 34))


def test_a_braiding_that_is_not_monomial(work):
    a, r = kz2_regular("product", 0)
    tau, B = braided_commutator(a, r)
    lie = kz2_regular("bracket", 0)
    verdict = triangularity(lie.module.hopf, lie.rmatrix)
    lie_tau = braiding(lie.module, lie.module, lie.rmatrix)
    lemma = _counted(work, lambda: check_lemma31(a, r, commutator=(tau, B)), d=2)
    jacobi = _counted(work, lambda: check_generalized_bihom_lie(lie, verdict=verdict, tau=lie_tau), d=2)
    assert (lemma, jacobi) == ((12, 8, 9), (16, 5, 36))
