"""Sparse exact linear algebra over the scalar fraction field.

A matrix stores its nonzero entries only: row ``r`` is a ``{column:
value}`` dict, and no stored entry is ever zero. Structure maps on tensor
powers (braidings, tensor-factor permutations) are mostly zero, so every
operation here, products and elimination included, costs in proportion to
the stored nonzeros rather than to rows x cols. A map
X (F1 (x) F2 (x) ...) on a tensor power is applied slot by slot
(``kron_apply``): each factor acts on its own slot of X's column index,
and no Kronecker operator is formed; a monomial factor (one entry per row,
no column repeated, as a flip or a diagonal map) relabels that slot and
scales it. So does a square monomial operand of ``@``, on either side,
and ``invert`` inverts one with no elimination. A sum of such chains,
X F1 F2 ... + Y G1 G2 ... as in a braided Jacobi identity, is made in one
pass by ``kron_apply_sum``: each chain walks its slots as ``kron_apply``
does up to its last factor that is not monomial, and the monomial factors
after it send each column once as the terms are added, so no relabelled
copy of X or Y and no matrix per chain is made. An element of H (x) H
acts on a tensor product through ``kron_sum``, the one place where
Kronecker terms are summed. Exact arithmetic makes the order in which
entries are summed irrelevant. Subspaces are kept in reduced row echelon
form so that equality of ideals is equality of matrices. Storage is
canonical (below), so the difference of two equal matrices, a passing
identity, is decided by one comparison of the stored rows and never
subtracted entry by entry.

Entries are stored as *kernel values*, as FLINT's exact kernels run on
integers: a constant is its canonical ``int`` or ``Fraction``
(``Scalar.value``), and only a non-constant stays a Scalar. Two ints add
and multiply inline; any other pair goes through ``_kadd``/``_kmul``. The
constructors unwrap Scalars, and a Scalar is made only where an entry is
read through ``at``, ``row``, ``col``, ``entries``, ``row_list`` or the
printed form.

A matrix is never changed after it is built: no operation writes to the
row dicts of a matrix, so rows may be shared between matrices, and what a
matrix decides about itself is kept: its monomial form (``monomial``) and
whether every entry is an int (``integral``). As FLINT keeps integer
matrices on their own kernel, integral operands take an int-only loop,
``s = a * b`` or ``s += a * b`` with a cancelled entry deleted in place and
no type test: ``row_times`` (so ``@``, ``kron_apply``, ``Echelon.spin``
and the structure products) while its row holds ints, the unscaled sums
of ``kron_apply_sum``, and ``_add_scaled`` in ``kron_sum``, ``+``/``-``
and the fraction-free reduction of ``Echelon``. A product (``@``,
``kron_apply``, ``kron_sum``), transpose, sum or ``hstack`` of integral
operands, and a flip, is built known to be integral (``_made``); any
other matrix is scanned on first use. Any other operand takes the generic
loop, which dispatches on the type of each entry.

There is one elimination, ``Echelon``: ``rref``, ``solve``, ``invert``,
``kernel`` and ``Subspace`` put their rows in one at a time and read its
RREF. An all-constant vector has its denominators cleared on entry and is
reduced fraction-free, r <- (p/g) r - (f/g) row for the pivot p of a held
row and g = gcd(p, f), so a span of rational vectors is spun on ints only.
There is no exact division by the previous pivot as in Bareiss (1968):
content is removed when a row is kept and when back-substitution changes
it, and only the RREF divides by the pivots.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm, prod
from operator import add, mul

from .errors import AmbientMismatch, DimensionMismatch, Singular
from .scalars import Scalar, _const, _qadd, _qinv, _qmul


_UNDECIDED = object()  # the monomial form or integrality of a matrix before its first use
_IDENTITY = (None, None)  # the monomial form of an identity matrix


def _kval(x: Scalar):
    """The kernel value of a Scalar: its constant value, or x itself."""
    return x if (v := x.value) is None else v


class Matrix:
    """Sparse row-major matrix over the fraction field.

    ``data[r]`` maps each column holding a nonzero entry of row ``r`` to
    that entry as a kernel value (see the module docstring); absent columns
    are zero. ``Matrix(...)`` and ``from_rows`` take Scalars and unwrap
    them, and ``from_dicts`` takes kernel rows as they are. ``at``, ``row``,
    ``col`` and ``entries`` (the dense row-major list, built on demand) make
    a Scalar of each entry they return and fill the gaps with the one
    shared zero scalar of the parameter context.

    A matrix is never changed after construction, so its monomial form
    (``monomial``) and its integrality (``integral``: every entry an int)
    are decided on first use and kept in ``_form`` and ``_ints``; a
    product, transpose, sum or ``hstack`` of integral matrices is built
    with ``_ints`` True.
    """

    __slots__ = ("rows", "cols", "data", "params", "_form", "_ints")

    def __init__(self, rows, cols, entries, params=None):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        if params is None:
            if not entries:
                raise ValueError("parameter context required for empty matrices")
            params = entries[0].params
        data = [{c: _kval(x) for c, x in enumerate(entries[r * cols : (r + 1) * cols])
                 if not x.is_zero()} for r in range(rows)]
        self._set(rows, cols, data, params)

    def _set(self, rows, cols, data, params):
        self.rows = rows
        self.cols = cols
        self.data = data
        self.params = params
        self._form = _UNDECIDED
        self._ints = _UNDECIDED

    @classmethod
    def from_dicts(cls, rows, cols, data, params):
        """Matrix over row dicts ``{column: kernel value}`` that hold
        nonzero entries only; the dicts are taken over, not copied."""
        m = object.__new__(cls)
        m._set(rows, cols, data, params)
        return m

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
        return cls.from_dicts(n, n, [{i: 1} for i in range(n)], params)

    @classmethod
    def zero(cls, rows, cols, params=()):
        return cls.from_dicts(rows, cols, [{} for _ in range(rows)], params)

    @property
    def _zero(self) -> Scalar:
        """The shared zero scalar of the parameter context."""
        return Scalar.of(self.params, 0)

    def _scalar(self, x) -> Scalar:
        """The Scalar of a kernel value; an int one is the shared one."""
        if type(x) is int:
            return Scalar.of(self.params, x)
        return x if type(x) is Scalar else _const(self.params, x)

    @property
    def entries(self):
        return [x for r in range(self.rows) for x in self.row(r)]

    def at(self, r, c) -> Scalar:
        x = self.data[r].get(c)
        return self._zero if x is None else self._scalar(x)

    def row(self, r):
        out = [self._zero] * self.cols
        for c, x in self.data[r].items():
            out[c] = self._scalar(x)
        return out

    def row_list(self):
        return [self.row(r) for r in range(self.rows)]

    def col(self, c):
        zero = self._zero
        return [zero if (x := row.get(c)) is None else self._scalar(x) for row in self.data]

    def first_nonzero_column(self):
        """Smallest column holding a nonzero entry, or None for the zero matrix."""
        return min((min(row) for row in self.data if row), default=None)

    def nonzero_columns(self):
        """Sorted columns holding a nonzero entry."""
        return sorted({c for row in self.data for c in row})

    def monomial(self):
        """None unless each row holds exactly one entry and no column
        repeats; then (to, entries): row i holds entries[i] at column to[i].
        An entry that is the int 1 is None in ``entries``, which is None
        when every entry is; the identity is (None, None). Decided on first
        use and kept."""
        form = self._form
        if form is not _UNDECIDED:
            return form
        self._form = form = self._decide()
        return form

    def integral(self):
        """Whether every stored entry is an int. Decided on first use and
        kept."""
        ints = self._ints
        if ints is _UNDECIDED:
            self._ints = ints = _all_ints(self.data)
        return ints

    def _decide(self):
        """The monomial form (see ``monomial``), read off the rows."""
        if self.is_identity():
            return _IDENTITY
        data = self.data
        for row in data:
            if len(row) != 1:
                return None
        to = [c for row in data for c in row]
        if len(set(to)) != len(to):
            return None
        # only an int can be 1, so no Fraction is compared
        entries = [None if type(x) is int and x == 1 else x for row in data for x in row.values()]
        return to, None if all(x is None for x in entries) else entries

    def is_identity(self):
        """True for a square matrix with 1 on the diagonal and no other
        entry; only an int can be 1, so no Fraction is compared. It stops
        at the first row that is not the identity's."""
        return self.rows == self.cols and all(
            len(row) == 1 and type(x := row.get(r)) is int and x == 1
            for r, row in enumerate(self.data)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(row.items()) for row in self.data)))

    def is_zero(self):
        return not any(self.data)

    def _plus(self, other, f):
        """self + f * other, row by row: an entry on both sides costs one sum.
        The difference of equal matrices is decided by one comparison of the
        stored rows, which is exact because storage is canonical."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        if f == -1 and self.data == other.data:
            return Matrix.zero(self.rows, self.cols, self.params)
        ints = self.integral() and other.integral()
        data = []
        for a, b in zip(self.data, other.data):
            row = dict(a)
            _add_scaled(row, f, b, 0, ints)
            data.append(row)
        return _made(self.rows, self.cols, data, self.params, ints)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return Matrix.from_dicts(
            self.rows, self.cols,
            [{c: _kneg(x) for c, x in row.items()} for row in self.data], self.params,
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        # a square monomial operand is a scaled permutation: on the right it
        # relabels the columns, and on the left row i is entries[i] times
        # row to[i] of the other operand
        ints = self._ints is True and other._ints is True
        if (form := _permuting(other, self)) is not None:
            data = _relabel(self.data, form, other.rows, 1, other.cols)
        elif (form := _permuting(self, other)) is not None:
            to, entries = form
            odata = other.data
            data = odata if to is None else [
                odata[t] if entries is None or (f := entries[i]) is None else
                {c: v * f if type(v) is int and type(f) is int else _kmul(v, f)
                 for c, v in odata[t].items()} for i, t in enumerate(to)]
        else:
            data = [row_times(arow, other) for arow in self.data]
            # every entry of self is read, and other is decided by row_times
            ints = self.integral() and other.integral()
        return _made(self.rows, other.cols, data, self.params, ints)

    def map(self, f, params):
        """The matrix of f(x) for every stored entry x, read as a Scalar,
        over ``params``; f must send zero to zero, and entries it sends to
        zero are dropped."""
        data = [{c: _kval(y) for c, x in row.items() if not (y := f(self._scalar(x))).is_zero()}
                for row in self.data]
        return Matrix.from_dicts(self.rows, self.cols, data, params)

    def transpose(self):
        data = [{} for _ in range(self.cols)]
        for r, row in enumerate(self.data):
            for c, x in row.items():
                data[c][r] = x
        return _made(self.cols, self.rows, data, self.params, self._ints is True)

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in self.row(r)) for r in range(self.rows))
        return f"Matrix[{body}]"


def _permuting(m: Matrix, other: Matrix):
    """The monomial form of m as a factor of a product with ``other``, or
    None when m is not square and monomial. A form not known yet is read
    off m's rows only when ``other`` holds at least as many entries as m
    has rows, so a product pays for it only where it saves as much."""
    if m.rows != m.cols or (m._form is _UNDECIDED and sum(map(len, other.data)) < m.rows):
        return None
    return m.monomial()


def _made(rows, cols, data, params, ints) -> Matrix:
    """``Matrix.from_dicts``, known to be integral when ``ints`` is true;
    otherwise its integrality is left to be decided on first use."""
    m = object.__new__(Matrix)
    m._set(rows, cols, data, params)
    if ints:
        m._ints = True
    return m


def _all_ints(rows) -> bool:
    """Whether every value of the kernel rows ``rows`` is an int."""
    for row in rows:
        for x in row.values():
            if type(x) is not int:
                return False
    return True


def row_times(row: dict, m: Matrix, after=1) -> dict:
    """The sparse kernel row ``row @ m``.

    With ``after`` > 1, m acts on one slot of the column index instead:
    column left*n*after + i*after + right, for n the rows of m, goes to
    left*cols*after + c*after + right for each column c of row i, for cols
    the columns of m.

    While m is integral and every entry of ``row`` read so far is an int,
    each term is added as it is, with no type test. Otherwise a product
    with a factor equal to one is the other factor, so permutations cost
    no scalar multiplication; only an int can be 1, so no Fraction is ever
    compared. The fraction field has no zero divisors, so only a sum can be
    zero: an entry that cancels is deleted at once."""
    odata = m.data
    ints = m.integral()
    out = {}
    get = out.get
    width, out_width = len(odata) * after, m.cols * after
    for key, a in row.items():
        if after == 1 and key < width:
            i, base = key, 0
        else:
            left, rest = divmod(key, width)
            i, right = divmod(rest, after)
            base = left * out_width + right
        if ints and type(a) is int:
            # out holds ints only, as every term added so far was int
            for c, b in odata[i].items():
                k = base + c * after
                s = get(k)
                if s is None:
                    out[k] = a * b
                else:
                    s += a * b
                    if s:
                        out[k] = s
                    else:
                        del out[k]
            continue
        ints = False
        aint = type(a) is int
        unit = aint and a == 1
        for c, b in odata[i].items():
            if type(b) is int:
                t = a * b if aint else a if b == 1 else _kmul(a, b)
            else:
                t = b if unit else _kmul(a, b)
            k = base + c * after
            s = get(k)
            if s is None:
                out[k] = t
            else:
                s = s + t if type(s) is int and type(t) is int else _kadd(s, t)
                if type(s) is int and not s:
                    del out[k]
                else:
                    out[k] = s
    return out


def kron_apply(x: Matrix, factors) -> Matrix:
    """The product of x and ``kron(*factors)``, without forming the latter.

    The columns of x index a tensor power with one slot per factor, of the
    factor's row count; an int n stands for the identity on a slot of size
    n, and identity slots are skipped. Each other factor is applied to its
    own slot of every row in turn (the mode-by-mode product), so no d^k-wide
    operator is built. A factor may change its slot's size (u: d -> 1, M:
    d -> d^2) or span two slots (a braiding of V (x) V is one d^2 factor).
    A monomial factor (``Matrix.monomial``: one entry per row, no column
    repeated, as in a flip or a diagonal map) relabels the slot value of
    every column index and scales by the entry, with no multiplication by
    an entry that is the int 1; any other factor goes through
    ``row_times``.
    """
    slots, cols = _slots(x.cols, factors)
    data, ints = _walk(x.data, slots, x.integral())
    return _made(x.rows, cols, data, x.params, ints)


def _slots(cols, factors):
    """The slots of a product with ``kron(*factors)`` for a column index of
    ``cols``, and the column count of the product. A slot is (f, after, n,
    monomial form) for each factor f that is not an identity: f acts on the
    slot of size n with ``after`` values after it. Applied left to right,
    each factor finds the slots after it unchanged."""
    sizes = [f if isinstance(f, int) else f.rows for f in factors]
    if cols != prod(sizes):
        raise ValueError("shape mismatch in product")
    out, after = [], cols
    for f, n in zip(factors, sizes):
        after //= n
        if not isinstance(f, int) and (form := f.monomial()) is not _IDENTITY:
            out.append((f, after, n, form))
            cols = cols // n * f.cols
    return out, cols


def _walk(data, slots, ints):
    """The rows ``data`` through the ``slots`` in turn, and whether they
    are integral, as ``ints`` says of ``data``: a monomial factor relabels
    its slot (``_relabel``), any other goes through ``row_times``."""
    for f, after, n, form in slots:
        if form is None:
            data = [row_times(row, f, after) for row in data]
        else:
            data = _relabel(data, form, n, after, f.cols)
        ints = ints and f.integral()
    return data, ints


def _relabel(data, form, n, after, cols) -> list:
    """The rows ``data`` times a monomial factor of n rows and ``cols``
    columns on the slot with ``after`` values after it: row i of the factor
    sends slot value i to to[i], times entries[i]; the identity, (None,
    None), leaves the rows as they are. Each entry is moved on its own,
    which costs less than ``_send`` when the rows share few columns."""
    to, entries = form
    if to is None:
        return data
    span, width = n * after, cols * after
    if entries is None:
        return [{k // span * width + to[k // after % n] * after + k % after: v
                 for k, v in row.items()} for row in data]
    out = []
    for row in data:
        new = {}
        for k, v in row.items():
            i = k // after % n
            f = entries[i]
            if f is not None:
                v = v * f if type(v) is int and type(f) is int else _kmul(v, f)
            new[k // span * width + to[i] * after + k % after] = v
        out.append(new)
    return out


def _send(keys, slots):
    """Where the monomial ``slots`` (see ``_relabel``), applied in turn,
    send each column of the list ``keys``: the dicts column -> column and
    column -> entry, the latter None when every entry is the int 1, as is
    each such entry."""
    cols, scale = keys, None
    for f, after, n, (to, entries) in slots:
        if entries is not None:
            hits = [entries[c // after % n] for c in cols]
            scale = hits if scale is None else [
                s if e is None else e if s is None else
                s * e if type(s) is int and type(e) is int else _kmul(s, e)
                for s, e in zip(scale, hits)]
        span, width = n * after, f.cols * after
        cols = [c // span * width + to[c // after % n] * after + c % after for c in cols]
    return dict(zip(keys, cols)), None if scale is None else dict(zip(keys, scale))


def kron_apply_sum(terms) -> Matrix:
    """The sum of x F1 F2 ... over the pairs (x, [F1, F2, ...]) of
    ``terms``, each stage F a factor list as ``kron_apply`` takes it; every
    x has the same row count, and every chain the same column count.

    The slots of a chain up to its last factor that is not monomial are
    walked as in ``kron_apply``. The monomial tail after them sends each
    column to one column times one entry: each distinct column of the rows
    walked is sent through the tail once (``_send``), and every term is
    added row by row into one set of rows, dropping entries that cancel,
    so no relabelled copy of any x and no matrix per chain is made. While
    the sum and a term are integral and the tail scales nothing, the term is
    added with no type test."""
    chains = []
    for x, stages in terms:
        cols, slots = x.cols, []
        for factors in stages:
            stage, cols = _slots(cols, factors)
            slots += stage
        cut = max((i + 1 for i, (*_, form) in enumerate(slots) if form is None), default=0)
        data, ints = _walk(x.data, slots[:cut], x.integral())
        tail = slots[cut:]
        chains.append((data, ints and all(slot[0].integral() for slot in tail), tail, cols))
    x0, cols = terms[0][0], chains[0][3]
    if any((len(data), c) != (x0.rows, cols) for data, _, _, c in chains):
        raise ValueError("shape mismatch in sum")
    out, keys, out_ints = None, {}, True
    for data, ints, slots, _ in chains:
        if out is None and not slots:
            out, out_ints = [dict(row) for row in data], ints  # the first term, as it is
            continue
        if out is None:
            out = [{} for _ in data]
        # the distinct columns of the rows, found once for all the terms on them
        if (ks := keys.get(id(data))) is None:
            ks = keys[id(data)] = list({k for row in data for k in row})
        to, scale = _send(ks, slots)
        fast = out_ints and ints and scale is None
        out_ints = out_ints and ints
        for row, xrow in zip(out, data):
            get = row.get
            if fast:
                for k, v in xrow.items():
                    c = to[k]
                    s = get(c)
                    if s is None:
                        row[c] = v
                    else:
                        s += v
                        if s:
                            row[c] = s
                        else:
                            del row[c]
                continue
            for k, v in xrow.items():
                c = to[k]
                if scale is not None and (f := scale[k]) is not None:
                    v = v * f if type(v) is int and type(f) is int else _kmul(v, f)
                s = get(c)
                if s is None:
                    row[c] = v
                elif type(s) is int and type(v) is int:
                    s += v
                    if s:
                        row[c] = s
                    else:
                        del row[c]
                else:
                    s = _kadd(s, v)
                    if type(s) is int and not s:
                        del row[c]
                    else:
                        row[c] = s
    return Matrix.from_dicts(x0.rows, cols, out, x0.params)


def _kop(op, qop, a, b):
    """op(a, b) as a kernel value, for kernel values a and b: op itself for
    two ints, qop for two other constants, the Scalar operator for a
    non-constant."""
    if type(a) is not Scalar and type(b) is not Scalar:
        return op(a, b) if type(a) is int and type(b) is int else qop(a, b)
    p = (a if type(a) is Scalar else b).params
    s = op(a if type(a) is Scalar else _const(p, a), b if type(b) is Scalar else _const(p, b))
    return s if (v := s.value) is None else v


_kadd = partial(_kop, add, _qadd)
_kmul = partial(_kop, mul, _qmul)
_kneg = partial(_kmul, -1)


def _add_scaled(target: dict, f, src: dict, off=0, ints=False):
    """target[off + k] += f * src[k] in place, for kernel rows and a kernel
    value f, dropping entries that cancel; ``ints`` says that all three hold
    ints only, and no entry is then type-tested. Only an int kernel value is
    zero."""
    get = target.get
    if ints:
        for k, y in src.items():
            k += off
            v = get(k)
            if v is None:
                target[k] = f * y
            else:
                v += f * y
                if v:
                    target[k] = v
                else:
                    del target[k]
        return
    fint = type(f) is int
    for k, y in src.items():
        t = f * y if fint and type(y) is int else _kmul(f, y)
        k += off
        v = get(k)
        if v is None:
            target[k] = t
        else:
            v = v + t if type(v) is int and type(t) is int else _kadd(v, t)
            if type(v) is int and not v:
                del target[k]
            else:
                target[k] = v


def _integral(row: dict):
    """(r, True) for r the row times the least common denominator of its
    entries, as ints (the row itself when it holds ints only), or (the row,
    False) when an entry is not constant."""
    kinds = set(map(type, row.values()))
    if Scalar in kinds or Fraction not in kinds:
        return row, Scalar not in kinds
    m = lcm(*(x._denominator for x in row.values() if type(x) is Fraction))
    return {k: x * m if type(x) is int else x._numerator * (m // x._denominator)
            for k, x in row.items()}, True


def _clear(residual: dict, integral, prow: dict, int_row, c):
    """The kernel row ``residual``, which the caller owns, cleared at the
    pivot column c of the held row ``prow``, and whether it is integral."""
    f = residual[c]
    p = prow[c]
    if integral and int_row:
        g = gcd(p, f)
        if p != g:
            residual = {k: p // g * x for k, x in residual.items()}
        _add_scaled(residual, -f // g, prow, 0, True)
        return residual, True
    _add_scaled(residual, _kmul(f, _qinv(-p)), prow)
    return residual, False


def _primitive(row: dict, c) -> dict:
    """The integer row divided by its content, positive at its column c."""
    g = gcd(*row.values()) if row[c] > 0 else -gcd(*row.values())
    return row if g == 1 else {k: x // g for k, x in row.items()}


def _monic(row: dict, c) -> dict:
    """The kernel row scaled to 1 at its column c."""
    p = row[c]
    if type(p) is int and p == 1:
        return row
    inv = p.inverse() if type(p) is Scalar else _qinv(p)
    return {k: _kmul(x, inv) for k, x in row.items()}


def kron_row(arow: dict, brow: dict, bcols) -> dict:
    """The kernel row arow (x) brow, for a row ``brow`` of ``bcols`` columns."""
    row = {}
    for j, x in arow.items():
        off = j * bcols
        for l, y in brow.items():
            row[off + l] = x * y if type(x) is int and type(y) is int else _kmul(x, y)
    return row


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; basis convention (i,j) -> i*b.rows + j."""
    bcols = b.cols
    data = [kron_row(arow, brow, bcols) for arow in a.data for brow in b.data]
    return Matrix.from_dicts(a.rows * b.rows, a.cols * bcols, data, a.params)


def kron_sum(x: Matrix, left, right) -> Matrix:
    """The sum of x[a][b] kron(left[a], right[b]), for lists of equally
    shaped matrices: how an element x of H (x) H acts on a tensor product.
    Each kron(left[a], sum_b x[a][b] right[b]) is accumulated in place on
    kernel rows, on ints only when x and every matrix of both lists are
    integral; no Kronecker product or Scalar is made."""
    rrows, rcols = right[0].rows, right[0].cols
    ints = x.integral() and all(map(Matrix.integral, left)) and all(map(Matrix.integral, right))
    out = [{} for _ in range(left[0].rows * rrows)]
    for a, xrow in enumerate(x.data):
        y = [{} for _ in range(rrows)]
        for b, f in xrow.items():
            for yrow, row in zip(y, right[b].data):
                _add_scaled(yrow, f, row, 0, ints)
        if not any(y):
            continue
        for k, lrow in enumerate(left[a].data):
            for j, v in lrow.items():
                for l, yrow in enumerate(y):
                    if yrow:
                        _add_scaled(out[k * rrows + l], v, yrow, j * rcols, ints)
    return _made(len(out), left[0].cols * rcols, out, left[0].params, ints)


def multiplications(transposed: Matrix, right) -> list:
    """The row-form operators v -> v e_j (``right``) or v -> e_j v of a
    product whose d x d^2 matrix has the transpose ``transposed``: row i of
    the j-th is row i*d + j (or j*d + i) of it, shared, not copied."""
    d, t = transposed.cols, transposed.data
    return [Matrix.from_dicts(d, d, [t[i * d + j if right else j * d + i] for i in range(d)],
                              transposed.params) for j in range(d)]


def hstack(blocks) -> Matrix:
    """Blocks with equal row counts side by side, left to right."""
    data = [{} for _ in range(blocks[0].rows)]
    off = 0
    for b in blocks:
        for row, brow in zip(data, b.data):
            row.update({off + c: x for c, x in brow.items()})
        off += b.cols
    return _made(len(data), off, data, blocks[0].params, all(b._ints is True for b in blocks))


def vstack(blocks) -> Matrix:
    """Blocks with equal column counts stacked, top to bottom."""
    data = [row for b in blocks for row in b.data]
    return Matrix.from_dicts(len(data), blocks[0].cols, data, blocks[0].params)


def flip(m, n, params) -> Matrix:
    """The factor swap e_a (x) e_b -> e_b (x) e_a from k^m (x) k^n to k^n (x) k^m."""
    return _made(n * m, m * n, [{a * n + b: 1} for b in range(n) for a in range(m)], params, True)


def triples_matrix(triples, dim, params, coproduct=False) -> Matrix:
    """The structure matrix of (i, j, k, scalar) triples, repeated triples
    summed and no zero stored. A product (the scalar is the coefficient of
    e_k in e_i e_j) has the dim x dim^2 matrix with the entry at
    (k, i*dim + j); a coproduct (the coefficient of e_j (x) e_k in the
    coproduct of e_i) the dim^2 x dim matrix with it at (j*dim + k, i)."""
    data = [{} for _ in range(dim * dim if coproduct else dim)]
    for i, j, k, x in triples:
        r, c = (j * dim + k, i) if coproduct else (k, i * dim + j)
        v = data[r].get(c)
        data[r][c] = x if v is None else v + x
    data = [{c: _kval(x) for c, x in row.items() if not x.is_zero()} for row in data]
    return Matrix.from_dicts(len(data), dim if coproduct else dim * dim, data, params)


def tensor_matrix(tensor, dim, params, coproduct=False, name="structure") -> Matrix:
    """Structure constants as a sparse matrix: the one adaptor at the
    public boundary, where they may still arrive as nested lists t[i][j][k],
    laid out as in ``triples_matrix``. A ``Matrix`` of the right shape is
    returned unchanged. ``nested_tensor`` is the inverse."""
    if isinstance(tensor, Matrix):
        shape = (dim * dim, dim) if coproduct else (dim, dim * dim)
        if (tensor.rows, tensor.cols) != shape:
            raise DimensionMismatch(f"{name} matrix is not {shape[0]}x{shape[1]}")
        return tensor
    if len(tensor) != dim or any(
        len(plane) != dim or any(len(row) != dim for row in plane) for plane in tensor
    ):
        raise DimensionMismatch(f"{name} tensor is not {dim}x{dim}x{dim}")
    triples = ((i, j, k, x) for i, plane in enumerate(tensor)
               for j, row in enumerate(plane) for k, x in enumerate(row))
    return triples_matrix(triples, dim, params, coproduct)


def nested_tensor(m: Matrix, coproduct=False) -> list:
    """The nested constants t[i][j][k] of a product (or ``coproduct``) matrix,
    the inverse of ``tensor_matrix``: it backs the read-only nested views."""
    if coproduct:
        d = m.cols
        return [[[m.at(j * d + k, i) for k in range(d)] for j in range(d)] for i in range(d)]
    d = m.rows
    return [[m.col(i * d + j) for j in range(d)] for i in range(d)]


def _reduce(rows, dim, params) -> list:
    """The nonzero rows of the RREF of kernel rows of length ``dim`` (read,
    not changed), sorted by pivot; rows after the rank reaches ``dim`` are
    not read."""
    return Echelon(dim, params).extend(rows).rows()


def rref(m: Matrix):
    """Reduced row echelon form over the fraction field; returns (rref, rank)."""
    rows = _reduce(m.data, m.cols, m.params)
    rank = len(rows)
    rows += [{} for _ in range(m.rows - rank)]
    return Matrix.from_dicts(m.rows, m.cols, rows, m.params), rank


def solve(m: Matrix, b: Matrix) -> Matrix:
    """The X with m X = b for a square m; raises Singular when m is singular."""
    if m.rows != m.cols:
        raise ValueError("solve with a non-square matrix")
    n = m.rows
    rows = [{**row, **{n + k: x for k, x in brow.items()}} for row, brow in zip(m.data, b.data)]
    rows = _reduce(rows, n + b.cols, m.params)
    # m is invertible exactly when the pivots are the columns 0..n-1
    if [min(row) for row in rows[:n]] != list(range(n)):
        raise Singular("matrix is singular")
    data = [{k - n: x for k, x in row.items() if k >= n} for row in rows]
    return Matrix.from_dicts(n, b.cols, data, m.params)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises Singular when the rank drops. A
    monomial m, a scaled permutation, is inverted with no elimination: row
    to[i] of the inverse holds 1/entries[i] at column i."""
    form = m.monomial() if m.rows == m.cols else None
    if form is None:
        return solve(m, Matrix.identity(m.rows, m.params))
    to, entries = form
    if to is None:
        return m
    data = [None] * m.rows
    for i, c in enumerate(to):
        f = None if entries is None else entries[i]
        data[c] = {i: 1 if f is None else f.inverse() if type(f) is Scalar else _qinv(f)}
    return Matrix.from_dicts(m.rows, m.cols, data, m.params)


class Echelon:
    """A subspace of k^dim built one vector at a time, in echelon form.

    ``pivots`` maps the pivot column of each row held to (row, integral),
    in the order the rows were added; rows hold kernel values. A row is
    nonzero at its own pivot column and zero at the pivot column of every
    row added before it, so clearing the pivot columns in that order
    reduces a vector against all of them. Only the new vector is
    eliminated, never the rows already held. ``rows`` then puts the span in
    RREF with one back-substitution pass over the rows held.

    A vector of constants is reduced fraction-free (see the module
    docstring) and kept as a primitive integer row (content 1, positive
    pivot). Any other row (one with a non-constant entry, or reduced
    against such a row) is kept scaled to 1 at its pivot.

    ``within``, when given, is a subspace known to hold every row that will
    be added. Its dimension is the ceiling: once the rank reaches it, the
    span is ``within`` itself, and ``full`` says so (as in the spin of the
    MeatAxe, Parker 1984). Without it the ceiling is ``dim``.
    """

    __slots__ = ("dim", "params", "pivots", "within", "ceiling")

    def __init__(self, dim, params, within=None):
        self.dim = dim
        self.params = params
        self.pivots = {}
        self.within = within
        self.ceiling = dim if within is None else within.dim

    @property
    def full(self):
        """Whether the rank has reached the ceiling."""
        return len(self.pivots) == self.ceiling

    def extend(self, rows):
        """Add the kernel rows in turn until the echelon is full; the rows
        after that are not read, so a generator makes none of them. Returns
        the echelon."""
        if not self.full:
            for row in rows:
                if self.add(row) is not None and self.full:
                    break
        return self

    def spin(self, pending, ops):
        """Close the span under the row-form operators, the matrices
        ``ops``: ``pending`` holds (row, operators) pairs, each row to be
        multiplied by its operators, last pair first, and each row kept on
        the way is multiplied by all of ``ops``. Stops once the echelon is
        full; returns the echelon."""
        while pending and not self.full:
            row, todo = pending.pop()
            for o in todo:
                new = self.add(row_times(row, o))
                if new is not None:
                    if self.full:
                        break
                    pending.append((new, ops))
        return self

    def add(self, row):
        """Reduce the sparse kernel row ``row`` (read, not changed) against
        the rows held. A nonzero remainder is kept and returned, as a
        primitive integer row or a row with a leading 1 (see the class
        docstring); a vector already in the span gives None. The row
        returned is the one held, and may be ``row`` itself, so the caller
        must change neither."""
        residual, integral = _integral(row)
        if not residual:
            return None
        # a vector that meets no held pivot (a row of a near-identity
        # operator) is kept as it is, without a pass over the pivots or a copy
        if not self.pivots.keys().isdisjoint(residual.keys()):
            if residual is row:
                residual = dict(row)
            for c, (prow, int_row) in self.pivots.items():
                if c in residual:
                    residual, integral = _clear(residual, integral, prow, int_row, c)
                    if not residual:
                        return None
        c = min(residual)
        residual = _primitive(residual, c) if integral else _monic(residual, c)
        self.pivots[c] = (residual, integral)
        return residual

    def rows(self) -> list:
        """The span in RREF: its rows, each with a leading 1, by pivot."""
        if len(self.pivots) == self.dim:
            return [{i: 1} for i in range(self.dim)]
        done = {}
        # last kept first: a held row is zero at the pivots kept before it,
        # and a row done is zero at every pivot but its own
        for c, (row, integral) in reversed(self.pivots.items()):
            hits = [k for k in row if k in done]
            if hits:
                row = dict(row)
            for k in hits:
                row, integral = _clear(row, integral, *done[k], k)
            if hits and integral:
                row = _primitive(row, c)
            done[c] = (row, integral)
        return [_monic(done[c][0], c) for c in sorted(done)]

    def subspace(self) -> "Subspace":
        """The span as a Subspace."""
        if self.within is not None and self.full:
            return self.within
        rows = self.rows()
        return Subspace(self.dim, Matrix.from_dicts(len(rows), self.dim, rows, self.params))


def kernel(m: Matrix) -> "Subspace":
    """Null space {v : m v = 0} as an RREF subspace of dimension cols - rank."""
    pivots = {min(row): row for row in _reduce(m.data, m.cols, m.params)}
    # one vector per free column: 1 there, and minus that column at each pivot
    vecs = [{**{pc: _kneg(row[fc]) for pc, row in pivots.items() if fc in row}, fc: 1}
            for fc in range(m.cols) if fc not in pivots]
    return Subspace.span(m.cols, vecs, m.params)


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
        return cls.span(ambient_dim, Matrix.from_rows(rows, params).data, params)

    @classmethod
    def span(cls, ambient_dim, vecs, params, within=None):
        """Span of sparse vectors given as kernel rows ``{column: value}``
        holding nonzero entries only; the dicts are read, not changed.

        The vectors go into one ``Echelon`` one at a time, and the rest are
        not read once the rank reaches ``ambient_dim``, or the dimension of
        ``within``, a subspace known to hold them all, which is then the
        span. Only the independent rows left are put in RREF, which is
        unique, so the basis is the RREF of all the vectors."""
        return Echelon(ambient_dim, params, within).extend(vecs).subspace()

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

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def _holds(self, row):
        """Whether a sparse kernel row lies in this subspace."""
        residual = dict(row)
        for brow in self.basis.data:
            # the RREF pivot column of a basis row is zero in every other row
            coeff = residual.get(min(brow))
            if coeff is not None:
                _add_scaled(residual, _kneg(coeff), brow)
        return not residual

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"
