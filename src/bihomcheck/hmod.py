"""Left H-modules, module maps, the braiding of the module category, and
H-equivariance checks for algebras living inside it.

An action is stored per Hopf basis element as an operator matrix, so every
law here is a composition of matrices. Tensor products of modules use the
index convention (i, j) -> i * dim_second + j throughout.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .hopf import HopfAlgebra, RMatrix
from .linalg import Matrix, kron
from .report import CheckReport, Witness, residual_from_vector
from .scalars import Scalar


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
        self.zero = Scalar.of(self.params, 0)
        self.one = Scalar.of(self.params, 1)

    def basis_vector(self, i):
        return [self.one if j == i else self.zero for j in range(self.dim)]

    def unit_action(self) -> Matrix:
        """Operator of the Hopf unit element."""
        out = Matrix.zero(self.dim, self.dim, self.params)
        for i, c in enumerate(self.hopf.unit):
            if not c.is_zero():
                out = out + self.action[i].scale(c)
        return out

    def act(self, hopf_index, vec):
        return self.action[hopf_index].apply(vec)


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

    def is_h_linear(self) -> bool:
        return self.h_linearity_witness() is None

    def h_linearity_witness(self):
        for i in range(self.source.hopf.dim):
            lhs = self.matrix @ self.source.action[i]
            rhs = self.target.action[i] @ self.matrix
            if lhs != rhs:
                return self.source.hopf.basis_names[i]
        return None

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        return ModuleMap(other.source, self.target, self.matrix @ other.matrix)

    @classmethod
    def identity(cls, module: HModule):
        return cls(module, module, Matrix.identity(module.dim, module.params))


def check_module(m: HModule) -> CheckReport:
    """Unit-acts-as-identity and compatibility with H multiplication."""
    rep = CheckReport("module")
    names = m.basis_names
    hnames = m.hopf.basis_names

    diff = m.unit_action() - Matrix.identity(m.dim, m.params)
    w = None
    if not diff.is_zero():
        col = diff.first_nonzero_column()
        w = Witness((names[col],), residual_from_vector(names, diff.col(col)))
    rep.add("module.unit", "the Hopf unit acts as the identity", w is None, w)

    w = None
    for i in range(m.hopf.dim):
        if w is not None:
            break
        for j in range(m.hopf.dim):
            lhs = m.action[i] @ m.action[j]
            rhs = Matrix.zero(m.dim, m.dim, m.params)
            for k in range(m.hopf.dim):
                c = m.hopf.mult[i][j][k]
                if not c.is_zero():
                    rhs = rhs + m.action[k].scale(c)
            diff = lhs - rhs
            if not diff.is_zero():
                col = diff.first_nonzero_column()
                w = Witness(
                    (hnames[i], hnames[j], names[col]),
                    residual_from_vector(names, diff.col(col)),
                )
                break
    rep.add("module.compat", "h.(h'.m) = (h h').m on all Hopf basis pairs", w is None, w)
    return rep


def tensor_module(m: HModule, n: HModule) -> HModule:
    """Tensor product module; H acts through the coproduct."""
    hopf = m.hopf
    names = [f"{a}(x){b}" for a in m.basis_names for b in n.basis_names]
    action = []
    for i in range(hopf.dim):
        op = Matrix.zero(m.dim * n.dim, m.dim * n.dim, m.params)
        for p in range(hopf.dim):
            for q in range(hopf.dim):
                c = hopf.comult[i][p][q]
                if not c.is_zero():
                    op = op + kron(m.action[p], n.action[q]).scale(c)
        action.append(op)
    return HModule(hopf, names, action)


def braiding(m: HModule, n: HModule, r: RMatrix) -> Matrix:
    """Matrix of tau: M (x) N -> N (x) M, tau(m (x) n) = sum R2.n (x) R1.m."""
    if r.dim != m.hopf.dim:
        raise DimensionMismatch("R-matrix dimension differs from the Hopf algebra")
    out = Matrix.zero(n.dim * m.dim, m.dim * n.dim, m.params)
    # plain flip of tensor factors: row b*dim_m + a holds a one at a*dim_n + b
    perm = Matrix.from_dicts(
        n.dim * m.dim,
        m.dim * n.dim,
        [{a * n.dim + b: m.one} for b in range(n.dim) for a in range(m.dim)],
        m.params,
    )
    for i in range(m.hopf.dim):
        for j in range(m.hopf.dim):
            c = r.entry(i, j)
            if c.is_zero():
                continue
            # tau = (action_N[j] (x) action_M[i]) o flip, weighted by R[i][j]
            out = out + (kron(n.action[j], m.action[i]) @ perm).scale(c)
    return out


def check_braiding_symmetry(m: HModule, r: RMatrix) -> bool:
    """tau_{M,M} squared is the identity (triangular R gives a symmetry)."""
    tau = braiding(m, m, r)
    return tau @ tau == Matrix.identity(m.dim * m.dim, m.params)


def check_module_algebra(a) -> CheckReport:
    """H-equivariance of the multiplication: h.(xy) = (h1.x)(h2.y).

    ``a`` is any object with a ``module`` and a way to multiply basis
    vectors (``product_vec``); both BiHom algebras and plain module
    algebras qualify.
    """
    rep = CheckReport("module-algebra")
    m = a.module
    hopf = m.hopf
    names = m.basis_names
    w = None
    for t in range(hopf.dim):
        if w is not None:
            break
        for i in range(m.dim):
            if w is not None:
                break
            for j in range(m.dim):
                lhs = m.act(t, a.product_vec(m.basis_vector(i), m.basis_vector(j)))
                rhs = [m.zero] * m.dim
                for p in range(hopf.dim):
                    for q in range(hopf.dim):
                        c = hopf.comult[t][p][q]
                        if c.is_zero():
                            continue
                        prod = a.product_vec(
                            m.act(p, m.basis_vector(i)), m.act(q, m.basis_vector(j))
                        )
                        rhs = [x + c * y for x, y in zip(rhs, prod)]
                diff = [x - y for x, y in zip(lhs, rhs)]
                if any(not x.is_zero() for x in diff):
                    w = Witness(
                        (hopf.basis_names[t], names[i], names[j]),
                        residual_from_vector(names, diff),
                    )
                    break
    rep.add(
        "module-algebra.equivariance",
        "h.(ab) = (h1.a)(h2.b) for every Hopf basis element and basis pair",
        w is None,
        w,
    )
    return rep


def is_H_commutative(a, r: RMatrix) -> bool:
    """(R2.b)(R1.a) = ab on all basis pairs, products taken in the algebra."""
    m = a.module
    hopf = m.hopf
    for i in range(m.dim):
        for j in range(m.dim):
            plain = a.product_vec(m.basis_vector(i), m.basis_vector(j))
            braided = [m.zero] * m.dim
            for p in range(hopf.dim):
                for q in range(hopf.dim):
                    c = r.entry(p, q)
                    if c.is_zero():
                        continue
                    prod = a.product_vec(
                        m.act(q, m.basis_vector(j)), m.act(p, m.basis_vector(i))
                    )
                    braided = [x + c * y for x, y in zip(braided, prod)]
            if any(not (x - y).is_zero() for x, y in zip(braided, plain)):
                return False
    return True
