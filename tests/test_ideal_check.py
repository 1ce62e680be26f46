"""The ideal checks against a reference that builds every image at once.

``is_H_bihom_lie_ideal`` and ``is_H_bihom_ideal`` make the images of the
basis rows of U one at a time and stop at the first that leaves U. The
reference here makes all of them first, as whole matrices: ``U @ op`` for
alpha, beta and each element of H, then the products as ``kron(U, I) B^T``
(u_i e_j at row i*d + j) and ``kron(I, U) B^T`` (e_j u_i at row j*k + i).
It reads them in the order the witness is defined by: map by map over the
rows of U, then for each row u_i and each basis vector e_j, e_j u_i before
u_i e_j for an ideal of an algebra, and u_i e_j alone for a Lie ideal.
Both kinds of check run on every structure and seed space of the structure
pins, so a check that walks the images in another order, or misses one,
gives another verdict, reason or witness here.
"""

from __future__ import annotations

import functools

import pytest

from bihomcheck.linalg import Matrix, Subspace, kron
from bihomcheck.structure import is_H_bihom_ideal, is_H_bihom_lie_ideal
from test_structure_pins import objects, seed_spaces

CHECKS = {"lie": is_H_bihom_lie_ideal, "associative": is_H_bihom_ideal}


@functools.cache
def inputs():
    return objects()


def _inside(u: Subspace, row: dict) -> bool:
    """Whether a kernel row lies in u: adding it leaves the rank as it is."""
    return Subspace.span(u.ambient_dim, u.basis.data + [row], u.params).dim == u.dim


def reference_check(x, u: Subspace, kind: str, op_major: bool = False):
    """(verdict, reason, witness) from every image built at once; with
    ``op_major`` the products are read basis vector by basis vector (e_j,
    then u_i) instead, the order the checks must not use."""
    d, k, p = x.module.dim, u.dim, x.params
    ident, bt = Matrix.identity(d, p), x.structure_matrix().transpose()
    labels = ["alpha(U)", "beta(U)"] + [f"{h}.U" for h in x.module.hopf.basis_names]
    maps = (x.alpha.matrix, x.beta.matrix, *x.module.action)
    images = [(f"{label} is not contained in U", row)
              for label, m in zip(labels, maps) for row in (u.basis @ m.transpose()).data]
    ua = (kron(u.basis, ident) @ bt).data  # row i*d + j: u_i e_j
    au = (kron(ident, u.basis) @ bt).data  # row j*k + i: e_j u_i
    order = [(i, j) for j in range(d) for i in range(k)] if op_major else \
        [(i, j) for i in range(k) for j in range(d)]
    for i, j in order:
        if kind == "associative":
            images.append(("AU is not contained in U", au[j * k + i]))
            images.append(("UA is not contained in U", ua[i * d + j]))
        else:
            images.append(("[U, L] is not contained in U", ua[i * d + j]))
    for reason, row in images:
        if not _inside(u, row):
            return False, reason, Matrix.from_dicts(1, d, [row], p).row(0)
    return True, "", None


@pytest.mark.parametrize("name", sorted(inputs()))
def test_the_ideal_checks_match_the_eager_reference(name):
    x = inputs()[name]
    failing = 0
    for label, u in seed_spaces(name, x).items():
        for kind, check in CHECKS.items():
            got = check(x, u)
            want = reference_check(x, u, kind)
            assert (got.is_ideal, got.reason, got.witness) == want, (label, kind)
            failing += not got.is_ideal
    assert failing


def test_some_witness_depends_on_the_order_of_the_products():
    # so the test above pins the order of the images, not only the verdict
    for kind in CHECKS:
        assert any(
            reference_check(x, u, kind) != reference_check(x, u, kind, op_major=True)
            for name, x in inputs().items()
            for u in seed_spaces(name, x).values()
        ), kind
