"""Dense exact linear algebra over the scalar fraction field.

Matrices are small (paper examples are dimension <= 4, tensor cubes <= 64),
so everything is dense Gauss-Jordan with exact division; subspaces are kept
in reduced row echelon form so that equality of ideals is equality of
matrices.
"""

from __future__ import annotations

from .errors import AmbientMismatch, Singular
from .scalars import Scalar


class Matrix:
    """Dense row-major matrix of Scalars."""

    __slots__ = ("rows", "cols", "entries", "params")

    def __init__(self, rows, cols, entries, params=None):
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)
        if len(self.entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        if params is None:
            if not self.entries:
                raise ValueError("parameter context required for empty matrices")
            params = self.entries[0].params
        self.params = params

    @classmethod
    def from_rows(cls, rows, params=None):
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [x for r in rows for x in r], params)

    @classmethod
    def identity(cls, n, params=()):
        one = Scalar.of(params, 1)
        zero = Scalar.of(params, 0)
        return cls(n, n, [one if i == j else zero for i in range(n) for j in range(n)], params)

    @classmethod
    def zero(cls, rows, cols, params=()):
        z = Scalar.of(params, 0)
        return cls(rows, cols, [z] * (rows * cols), params)

    def at(self, r, c) -> Scalar:
        return self.entries[r * self.cols + c]

    def row(self, r):
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def row_list(self):
        return [self.row(r) for r in range(self.rows)]

    def col(self, c):
        return [self.entries[r * self.cols + c] for r in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def is_zero(self):
        return all(x.is_zero() for x in self.entries)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)], self.params)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)], self.params)

    def __neg__(self):
        return Matrix(self.rows, self.cols, [-a for a in self.entries], self.params)

    def scale(self, c: Scalar):
        return Matrix(self.rows, self.cols, [c * a for a in self.entries], self.params)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        zero = Scalar.of(self.params, 0)
        out = [zero] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if a.is_zero():
                    continue
                obase = k * other.cols
                rbase = i * other.cols
                for j in range(other.cols):
                    b = other.entries[obase + j]
                    if not b.is_zero():
                        out[rbase + j] = out[rbase + j] + a * b
        return Matrix(self.rows, other.cols, out, self.params)

    def apply(self, vec):
        """Matrix times column vector (a plain list of Scalars)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        zero = Scalar.of(self.params, 0)
        out = []
        for i in range(self.rows):
            s = zero
            base = i * self.cols
            for j, v in enumerate(vec):
                if not v.is_zero():
                    e = self.entries[base + j]
                    if not e.is_zero():
                        s = s + e * v
            out.append(s)
        return out

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      [self.at(r, c) for c in range(self.cols) for r in range(self.rows)],
                      self.params)

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in self.row(r)) for r in range(self.rows))
        return f"Matrix[{body}]"


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; basis convention (i,j) -> i*b.rows + j."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    zero = Scalar.of(a.params, 0)
    out = [zero] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.at(i, j)
            if x.is_zero():
                continue
            for k in range(b.rows):
                rbase = (i * b.rows + k) * cols + j * b.cols
                bbase = k * b.cols
                for l in range(b.cols):
                    y = b.entries[bbase + l]
                    if not y.is_zero():
                        out[rbase + l] = x * y
    return Matrix(rows, cols, out, a.params)


def rref(m: Matrix):
    """Reduced row echelon form over the fraction field; returns (rref, rank)."""
    rows = [list(m.row(r)) for r in range(m.rows)]
    pivot_row = 0
    pivots = []
    for c in range(m.cols):
        pr = None
        for r in range(pivot_row, m.rows):
            if not rows[r][c].is_zero():
                pr = r
                break
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        inv = rows[pivot_row][c].inverse()
        rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        for r in range(m.rows):
            if r != pivot_row and not rows[r][c].is_zero():
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivots.append(c)
        pivot_row += 1
        if pivot_row == m.rows:
            break
    out = Matrix.from_rows(rows, m.params) if rows else Matrix.zero(0, m.cols, m.params)
    return out, pivot_row


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises Singular when the rank drops."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    ident = Matrix.identity(n, m.params)
    aug = Matrix.from_rows([m.row(r) + ident.row(r) for r in range(n)], m.params)
    red, _ = rref(aug)
    left_ok = all(
        (red.at(i, j).is_one() if i == j else red.at(i, j).is_zero())
        for i in range(n)
        for j in range(n)
    )
    if not left_ok:
        raise Singular("matrix is singular")
    return Matrix(n, n, [red.at(i, n + j) for i in range(n) for j in range(n)], m.params)


def kernel(m: Matrix) -> "Subspace":
    """Null space {v : m v = 0} as an RREF subspace of dimension cols - rank."""
    red, rank = rref(m)
    pivots = []
    r = 0
    for c in range(m.cols):
        if r < rank and not red.at(r, c).is_zero():
            pivots.append(c)
            r += 1
    free = [c for c in range(m.cols) if c not in pivots]
    zero = Scalar.of(m.params, 0)
    one = Scalar.of(m.params, 1)
    basis = []
    for fc in free:
        v = [zero] * m.cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red.at(r, fc)
        basis.append(v)
    return Subspace.from_rows(m.cols, basis, m.params)


class Subspace:
    """Subspace of k^n held as an RREF basis matrix (rows are basis vectors)."""

    __slots__ = ("ambient_dim", "basis", "params")

    def __init__(self, ambient_dim, basis: Matrix):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.params = basis.params

    @classmethod
    def from_rows(cls, ambient_dim, rows, params=None):
        rows = [list(r) for r in rows]
        for r in rows:
            if len(r) != ambient_dim:
                raise AmbientMismatch("vector length differs from ambient dimension")
        if params is None and rows:
            params = rows[0][0].params
        if params is None:
            params = ()
        if not rows:
            return cls(ambient_dim, Matrix.zero(0, ambient_dim, params))
        red, rank = rref(Matrix.from_rows(rows, params))
        kept = [red.row(r) for r in range(rank)]
        if not kept:
            return cls(ambient_dim, Matrix.zero(0, ambient_dim, params))
        return cls(ambient_dim, Matrix.from_rows(kept, params))

    @classmethod
    def zero_space(cls, ambient_dim, params=()):
        return cls(ambient_dim, Matrix.zero(0, ambient_dim, params))

    @classmethod
    def full_space(cls, ambient_dim, params=()):
        return cls(ambient_dim, Matrix.identity(ambient_dim, params))

    @property
    def dim(self):
        return self.basis.rows

    def vectors(self):
        return self.basis.row_list()

    def _check(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __add__(self, other):
        self._check(other)
        return Subspace.from_rows(
            self.ambient_dim, self.vectors() + other.vectors(), self.params
        )

    def contains_vector(self, vec) -> bool:
        if len(vec) != self.ambient_dim:
            raise AmbientMismatch("vector length differs from ambient dimension")
        return self.coordinates(vec) is not None

    def coordinates(self, vec):
        """Coordinates of vec in this basis, or None if it lies outside."""
        residual = list(vec)
        coords = []
        for r in range(self.basis.rows):
            pc = next(
                c for c in range(self.ambient_dim) if not self.basis.at(r, c).is_zero()
            )
            coeff = residual[pc]
            coords.append(coeff)
            if not coeff.is_zero():
                row = self.basis.row(r)
                residual = [x - coeff * y for x, y in zip(residual, row)]
        if any(not x.is_zero() for x in residual):
            return None
        return coords

    def contains(self, other) -> bool:
        self._check(other)
        return all(self.contains_vector(v) for v in other.vectors())

    def intersect(self, other) -> "Subspace":
        """Intersection via the kernel of the stacked-basis relation."""
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero_space(self.ambient_dim, self.params)
        # solve a^T x = b^T y: kernel of [basis_a^T | -basis_b^T]
        cols = self.dim + other.dim
        rows = []
        for i in range(self.ambient_dim):
            row = [self.basis.at(r, i) for r in range(self.dim)]
            row += [-other.basis.at(r, i) for r in range(other.dim)]
            rows.append(row)
        null = kernel(Matrix.from_rows(rows, self.params))
        vecs = []
        for sol in null.vectors():
            coeffs = sol[: self.dim]
            vec = [Scalar.of(self.params, 0)] * self.ambient_dim
            for c, bv in zip(coeffs, self.vectors()):
                if not c.is_zero():
                    vec = [x + c * y for x, y in zip(vec, bv)]
            vecs.append(vec)
        return Subspace.from_rows(self.ambient_dim, vecs, self.params)

    def annihilator_matrix(self) -> Matrix:
        """Rows span {phi : phi . v = 0 for all v in the subspace}; the
        subspace is exactly the solution set of these linear equations."""
        if self.dim == 0:
            return Matrix.identity(self.ambient_dim, self.params)
        ann = kernel(self.basis)
        if ann.dim == 0:
            return Matrix.zero(0, self.ambient_dim, self.params)
        return ann.basis

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def subspace_ops(a: Subspace, b: Subspace, op: str):
    """Dispatcher mirroring the documented subspace operation set."""
    if op == "sum":
        return a + b
    if op == "intersect":
        return a.intersect(b)
    if op == "contains":
        return a.contains(b)
    if op == "equals":
        a._check(b)
        return a == b
    raise ValueError(f"unknown subspace op {op!r}")
