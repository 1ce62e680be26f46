"""Built-in example instances, reachable by name from the CLI.

Each catalog name is an algebra file shipped with the package,
``catalog_files/<name>.json``, in its canonical printed form.
``catalog_file(name)`` parses it with ``algfile.parse_algebra_file``, so a
catalog name and a user file take one path through parsing and validation,
and ``bihomcheck print <name>`` prints the file byte for byte. The tests
derive each file from its definition.

The trivial Hopf algebra, its R = 1 (x) 1 and the triangular R-matrix of
kZ2 are also built here, for the scaled instances of the benchmark.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .algfile import AlgebraFile, parse_algebra_file
from .hopf import HopfAlgebra, RMatrix, group_algebra
from .linalg import Matrix

GROUP_Z1 = {"group": {"names": ["e"], "table": [[0]], "identity": 0}}

# in the order of ``bihomcheck catalog``
CATALOG_DESCRIPTIONS = {
    "trivial-hopf": "2x2 matrix algebra over the trivial Hopf algebra, identity maps",
    "kz2": "order-2 group algebra with the nontrivial triangular R-matrix",
    "example24": "2-dim parametric BiHom-associative algebra over kZ2 (parameter b)",
    "example25-heisenberg": "Heisenberg product and its braided commutator bracket over kZ2",
    "example25-twisted": "Heisenberg bracket twisted by diagonal maps in l1, l2, l1p, l2p",
    "cross-product-classical": "3-dim cross-product Lie algebra over the trivial Hopf algebra",
}

_FILES = os.path.join(os.path.dirname(__file__), "catalog_files")


def catalog_names():
    return list(CATALOG_DESCRIPTIONS)


def catalog_file(name) -> AlgebraFile:
    """The shipped file of a catalog name, parsed and validated; unknown
    names raise KeyError."""
    if name not in CATALOG_DESCRIPTIONS:
        raise KeyError(f"unknown catalog name {name!r}")
    with open(os.path.join(_FILES, f"{name}.json"), encoding="utf-8") as fh:
        return parse_algebra_file(fh.read())


def trivial_hopf(params=()) -> HopfAlgebra:
    return group_algebra([[0]], 0, names=["e"], params=params)


def r_triangular_kz2(params=()) -> RMatrix:
    """R0 = (1/2)(e(x)e + e(x)g + g(x)e - g(x)g)."""
    h = Fraction(1, 2)
    return RMatrix(Matrix.from_dicts(2, 2, [{0: h, 1: h}, {0: h, 1: -h}], params))


def trivial_rmatrix(hopf: HopfAlgebra) -> RMatrix:
    """R = 1 (x) 1."""
    return RMatrix(hopf.u @ hopf.u.transpose())
