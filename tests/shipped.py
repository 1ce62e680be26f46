"""The catalog instances as the tests use them: the objects of the shipped
algebra files, so a test runs on what ``bihomcheck check <name>`` loads.

Catalog name and object of each instance: the 2x2 matrix algebra
(``trivial-hopf``, A), Example 2.4 (``example24``, A), the Heisenberg
product and its braided commutator (``example25-heisenberg``, A and L),
the twisted Heisenberg bracket (``example25-twisted``, L) and the
cross-product Lie algebra (``cross-product-classical``, L).
"""

from bihomcheck.catalog import catalog_file


def shipped(name, obj):
    """The BiHomAlgebra or BiHomLie of object ``obj`` of the catalog file
    ``name``, braided by the file's R-matrix."""
    f = catalog_file(name)
    return f.objects[obj].structure(f.rmatrix)
