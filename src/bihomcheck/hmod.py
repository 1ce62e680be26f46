"""Left H-modules, module maps, the braiding of the module category, and
H-equivariance checks for algebras living inside it.

An action is stored per Hopf basis element as an operator matrix, and
``action_matrix`` sets them side by side as one map H (x) V -> V, so every
law here is an identity between products of sparse matrices on tensor
powers. Tensor products of modules use the index convention
(i, j) -> i * dim_second + j throughout, and the column order of a
difference matrix is the lexicographic order of the basis tuples it
checks. The action on M (x) N and the braiding go through ``kron_sum``.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .hopf import HopfAlgebra, RMatrix
from .linalg import Matrix, flip, hstack, kron_apply, kron_sum
from .report import CheckReport, column_witness


class HModule:
    """Vector space with an action of H given per basis element of H."""

    def __init__(self, hopf: HopfAlgebra, basis_names, action):
        self.hopf = hopf
        self.basis_names = list(basis_names)
        self.dim = len(self.basis_names)
        self.action = list(action)
        if len(self.action) != hopf.dim:
            raise DimensionMismatch("one action matrix per Hopf basis element required")
        for m in self.action:
            if (m.rows, m.cols) != (self.dim, self.dim):
                raise DimensionMismatch("action matrix shape differs from module dimension")
        self.params = hopf.params

    def basis_vector(self, i):
        return Matrix.identity(self.dim, self.params).col(i)

    def action_matrix(self) -> Matrix:
        """The action as one map H (x) V -> V: column h*dim + v holds e_h . e_v."""
        return hstack(self.action)


class ModuleMap:
    """Linear map between modules over the same Hopf algebra."""

    def __init__(self, source: HModule, target: HModule, matrix: Matrix):
        if source.hopf is not target.hopf and source.hopf.basis_names != target.hopf.basis_names:
            raise DimensionMismatch("module map between modules over different Hopf algebras")
        if (matrix.rows, matrix.cols) != (target.dim, source.dim):
            raise DimensionMismatch("module map matrix shape mismatch")
        self.source = source
        self.target = target
        self.matrix = matrix

    def h_linearity_witness(self):
        """Name of the first Hopf basis element whose action the map does not
        commute with, or None when the map is H-linear."""
        hopf = self.source.hopf
        lhs = self.matrix @ self.source.action_matrix()
        rhs = kron_apply(self.target.action_matrix(), [hopf.dim, self.matrix])
        c = (lhs - rhs).first_nonzero_column()
        return None if c is None else hopf.basis_names[c // self.source.dim]

    @classmethod
    def identity(cls, module: HModule):
        return cls(module, module, Matrix.identity(module.dim, module.params))


def check_module(m: HModule) -> CheckReport:
    """Unit-acts-as-identity and compatibility with H multiplication."""
    rep = CheckReport("module")
    names = m.basis_names
    hnames = m.hopf.basis_names
    act = m.action_matrix()
    ident = Matrix.identity(m.dim, m.params)

    w = column_witness([names], names, kron_apply(act, [m.hopf.u, m.dim]) - ident)
    rep.add("module.unit", "the Hopf unit acts as the identity", w is None, w)

    # columns (h, h', v): h.(h'.v) against (h h').v
    diff = kron_apply(act, [m.hopf.dim, act]) - kron_apply(act, [m.hopf.M, m.dim])
    w = column_witness([hnames, hnames, names], names, diff)
    rep.add("module.compat", "h.(h'.m) = (h h').m on all Hopf basis pairs", w is None, w)
    return rep


def tensor_module(m: HModule, n: HModule) -> HModule:
    """Tensor product module; H acts through the coproduct."""
    names = [f"{a}(x){b}" for a in m.basis_names for b in n.basis_names]
    return HModule(m.hopf, names, [kron_sum(x, m.action, n.action) for x in m.hopf.coproducts()])


def braiding(m: HModule, n: HModule, r: RMatrix) -> Matrix:
    """Matrix of tau: M (x) N -> N (x) M, tau(m (x) n) = sum R2.n (x) R1.m."""
    if r.dim != m.hopf.dim:
        raise DimensionMismatch("R-matrix dimension differs from the Hopf algebra")
    # the flip of R acting on N (x) M, after the factor swap
    return kron_sum(r.coefficients.transpose(), n.action, m.action) @ flip(m.dim, n.dim, m.params)


def equivariance_witness(m: HModule, product: Matrix):
    """First (h, a, b) with h.(ab) != (h1.a)(h2.b) for a product or bracket
    given as its dim x dim^2 matrix on the module m, or None."""
    act = m.action_matrix()
    diff = kron_apply(act, [m.hopf.dim, product]) - product @ tensor_module(m, m).action_matrix()
    return column_witness([m.hopf.basis_names, m.basis_names, m.basis_names], m.basis_names, diff)


def check_module_algebra(a) -> CheckReport:
    """H-equivariance of the multiplication: h.(xy) = (h1.x)(h2.y).

    ``a`` is any object with a ``module`` and a ``structure_matrix``; both
    BiHom algebras and plain module algebras qualify.
    """
    rep = CheckReport("module-algebra")
    w = equivariance_witness(a.module, a.structure_matrix())
    rep.add(
        "module-algebra.equivariance",
        "h.(ab) = (h1.a)(h2.b) for every Hopf basis element and basis pair",
        w is None,
        w,
    )
    return rep

