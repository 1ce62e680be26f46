"""Exact coefficient arithmetic: Q, sparse polynomials over Q, and their fraction field.

Every identity the checkers decide is a polynomial identity in the declared
parameters, so the coefficient domain is the fraction field of Q[params].
Zero-testing is exact, never numeric sampling.

A ``Scalar`` has two representations. A constant is held directly as an
``int`` when it is integral and as a ``Fraction`` otherwise, so arithmetic
on constants never builds a ``Polynomial``. Any other scalar is a reduced
pair of polynomials. Canonical-form rule: every construction path puts a
constant-valued result into the constant form, so ``==`` and ``hash``
compare representations.

Arithmetic between two constants works on their integer numerators and
denominators: two ints are added or multiplied as ints, and any other pair
goes through the gcd-reduced formulas of Knuth (TAOCP vol. 2, 4.5.1), the
ones ``Fraction``'s own ``+`` and ``*`` use. ``_q`` turns the reduced pair
into the canonical value, setting a new ``Fraction``'s two slots directly,
since the pair needs no second gcd. So constant arithmetic runs no
``Fraction`` constructor or arithmetic operator, and the values still
compare, hash and print exactly as ``Fraction``s do.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from math import gcd as int_gcd

from .errors import DenominatorVanishes, DivisionByZero, ParseError, UnboundParameter, quoted


def _grlex_key(exps):
    return (sum(exps), exps)


class Polynomial:
    """Sparse multivariate polynomial over Q.

    ``params`` is the ordered tuple of parameter names; ``terms`` maps
    exponent tuples (same length as ``params``) to nonzero Fractions.
    Instances are immutable; all arithmetic returns new objects.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params, terms):
        self.params = tuple(params)
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def constant(cls, params, value):
        value = Fraction(value)
        if value == 0:
            return cls(params, {})
        return cls(params, {(0,) * len(params): value})

    @classmethod
    def variable(cls, params, name):
        params = tuple(params)
        i = params.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(params)))
        return cls(params, {e: Fraction(1)})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[(0,) * len(self.params)]

    def is_one(self):
        return self.is_constant() and self.constant_value() == 1

    def leading(self):
        """Leading (exponent, coefficient) in graded-lex order."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def occurring(self):
        """Names of parameters with a positive exponent somewhere."""
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k > 0:
                    used.add(self.params[i])
        return used

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.params == other.params
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.params, frozenset(self.terms.items())))

    def __neg__(self):
        return Polynomial(self.params, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if self.params != other.params:
            raise ValueError("parameter context mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Polynomial(self.params, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.params != other.params:
            raise ValueError("parameter context mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Polynomial(self.params, out)

    def scale(self, c):
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if c == 0:
            return Polynomial(self.params, {})
        return Polynomial(self.params, {e: c * v for e, v in self.terms.items()})

    def evaluate(self, values):
        """Full evaluation; ``values`` maps every occurring name to a Fraction."""
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v *= values[self.params[i]] ** k
            total += v
        return total

    def __repr__(self):
        return f"Polynomial({self.params!r}, {self.terms!r})"


# -- gcd machinery -----------------------------------------------------------
#
# Reduction of fractions needs a multivariate gcd. Most factors met in
# practice are monomials (Laurent-style twists such as s*t against s), so
# ``poly_gcd`` tries the monomial rule first: when one side is a single
# term, every divisor of it is a monomial, so the gcd is the largest
# monomial dividing both sides, the minimum exponent of each parameter over
# all terms, with coefficient 1. That is exactly the primitive gcd with
# positive leading coefficient, so the result does not depend on which path
# found it. Any other pair goes through content extraction and a primitive
# pseudo-remainder sequence (Brown, JACM 1971).


def _int_normalize(p: Polynomial):
    """Split p = c * q with q integer-coefficient, coprime content, positive
    graded-lex leading coefficient. Returns (c, q); c = 0 for the zero poly."""
    if p.is_zero():
        return Fraction(0), p
    num_gcd = 0
    den_lcm = 1
    for c in p.terms.values():
        num_gcd = int_gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
    content = Fraction(num_gcd, den_lcm)
    _, lead = p.leading()
    if lead < 0:
        content = -content
    if content == 1:
        return content, p
    return content, p.scale(1 / content)


def _deg_in(p: Polynomial, var: int):
    return max((e[var] for e in p.terms), default=0)


def _coeff_wrt(p: Polynomial, var: int, k: int):
    """Coefficient of var^k, a polynomial with the var slot zeroed."""
    out = {}
    for e, c in p.terms.items():
        if e[var] == k:
            out[e[:var] + (0,) + e[var + 1 :]] = c
    return Polynomial(p.params, out)

def _shift_var(p: Polynomial, var: int, k: int):
    return Polynomial(p.params, {e[:var] + (e[var] + k,) + e[var + 1 :]: c for e, c in p.terms.items()})


def _content_wrt(p: Polynomial, var: int):
    """gcd of the var-coefficients (a polynomial free of var)."""
    c = Polynomial(p.params, {})
    for k in range(_deg_in(p, var) + 1):
        q = _coeff_wrt(p, var, k)
        if not q.is_zero():
            c = poly_gcd(c, q)
            if c.is_one():
                break
    return c


def _pseudo_rem(f: Polynomial, g: Polynomial, var: int):
    """Pseudo-remainder of f by g in the main variable var."""
    dg = _deg_in(g, var)
    lg = _coeff_wrt(g, var, dg)
    r = f
    while not r.is_zero():
        dr = _deg_in(r, var)
        if dr < dg:
            break
        lr = _coeff_wrt(r, var, dr)
        r = r * lg - _shift_var(lr * g, var, dr - dg)
    return r


def poly_divexact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g; raises ArithmeticError if g does not divide f."""
    if g.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if f.is_zero():
        return f
    if len(g.terms) == 1:
        # division by a monomial shifts exponents
        ((ge, gc),) = g.terms.items()
        quot = {}
        for e, c in f.terms.items():
            qe = tuple(a - b for a, b in zip(e, ge))
            if any(k < 0 for k in qe):
                raise ArithmeticError("inexact polynomial division")
            quot[qe] = c / gc
        return Polynomial(f.params, quot)
    quot = {}
    ge, gc = g.leading()
    r = f
    while not r.is_zero():
        re, rc = r.leading()
        qe = tuple(a - b for a, b in zip(re, ge))
        if any(k < 0 for k in qe):
            raise ArithmeticError("inexact polynomial division")
        qc = rc / gc
        quot[qe] = quot.get(qe, Fraction(0)) + qc
        r = r - g * Polynomial(f.params, {qe: qc})
    return Polynomial(f.params, quot)


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Primitive gcd over Q[params], positive leading coefficient; constants
    collapse to 1 (rational contents are units in the fraction field)."""
    if f.is_zero() and g.is_zero():
        return f
    if f.is_zero():
        return _int_normalize(g)[1]
    if g.is_zero():
        return _int_normalize(f)[1]
    if len(f.terms) == 1 or len(g.terms) == 1:
        # the monomial rule (see above); a constant side gives 1
        e = tuple(map(min, zip(*f.terms, *g.terms)))
        return Polynomial(f.params, {e: Fraction(1)})
    f = _int_normalize(f)[1]
    g = _int_normalize(g)[1]
    used = sorted(set().union(*(
        {i for i, k in enumerate(e) if k > 0} for p in (f, g) for e in p.terms
    )))
    var = used[-1]
    if _deg_in(f, var) == 0 or _deg_in(g, var) == 0:
        # var occurs in only one of the two: gcd divides the other's content
        cf = _content_wrt(f, var) if _deg_in(f, var) else f
        cg = _content_wrt(g, var) if _deg_in(g, var) else g
        return poly_gcd(cf, cg)
    cf = _content_wrt(f, var)
    cg = _content_wrt(g, var)
    c = poly_gcd(cf, cg)
    a = poly_divexact(f, cf)
    b = poly_divexact(g, cg)
    if _deg_in(a, var) < _deg_in(b, var):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b, var)
        if r.is_zero():
            break
        if _deg_in(r, var) == 0:
            return _int_normalize(c)[1]
        # primitive over Z as well: without the rational content the
        # coefficients grow exponentially along the sequence
        a, b = b, _int_normalize(poly_divexact(r, _content_wrt(r, var)))[1]
    return _int_normalize(c * poly_divexact(b, _content_wrt(b, var)))[1]


def _norm(value):
    """Canonical constant value: an int when integral, else the Fraction."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _const(params, value):
    """Constant scalar from a canonical value (see ``_norm``)."""
    s = object.__new__(Scalar)
    s.params = params
    s.value = value
    return s


# -- constants on integer pairs ----------------------------------------------
#
# The helpers below take and return canonical constant values (see
# ``_norm``). A Fraction value is never integral, so its denominator is
# above 1 and it is never zero.


def _q(n, d):
    """The canonical value of n/d for coprime n and d > 0: n itself when
    d = 1, else a Fraction whose two slots are set here. ``Fraction(n, d)``
    would reduce the pair again, and the pair is already reduced."""
    if d == 1:
        return n
    q = object.__new__(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _qadd(a, b):
    """a + b, where at least one of a and b is a Fraction."""
    if type(a) is int:
        a, b = b, a
    na, da = a._numerator, a._denominator
    if type(b) is int:
        # gcd(na + b*da, da) = gcd(na, da) = 1
        return _q(na + b * da, da)
    nb, db = b._numerator, b._denominator
    g = int_gcd(da, db)
    if g == 1:
        return _q(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = int_gcd(t, g)
    return _q(t // g2, s * (db // g2))


def _qmul(a, b):
    """a * b, where at least one of a and b is a Fraction."""
    if type(a) is int:
        a, b = b, a
    na, da = a._numerator, a._denominator
    if type(b) is int:
        g = int_gcd(b, da)
        return _q(na * (b // g), da // g)
    nb, db = b._numerator, b._denominator
    g1 = int_gcd(na, db)
    g2 = int_gcd(nb, da)
    return _q((na // g1) * (nb // g2), (da // g2) * (db // g1))


def _qneg(a):
    """-a."""
    if type(a) is int:
        return -a
    return _q(-a._numerator, a._denominator)


def _qinv(a):
    """1/a for a nonzero a; the sign moves to the numerator."""
    if type(a) is int:
        n, d = 1, a
    else:
        n, d = a._denominator, a._numerator
    return _q(n, d) if d > 0 else _q(-n, -d)


# the shared zero and one of each parameter context, keyed by (params, value);
# scalars are never mutated after construction, so sharing them is safe
_INTERNED = {}


def _fraction(params, num, den):
    """Non-constant scalar from a pair already in reduced form."""
    s = object.__new__(Scalar)
    s.params = params
    s.value = None
    s._num = num
    s._den = den
    return s


class Scalar:
    """Element of the fraction field of Q[params], kept in canonical form.

    A constant is held as ``value``: an int when it is integral, a Fraction
    otherwise. Any other scalar has ``value`` None and a reduced pair of
    polynomials: the denominator is an integer-coefficient polynomial with
    coprime content and positive graded-lex leading coefficient, and
    numerator and denominator have no common polynomial factor. Every
    construction puts a constant-valued result into constant form, so
    ``==`` and ``hash`` are structural. ``num`` and ``den`` are readable on
    every scalar; for a constant they are built on demand.

    Two constants combine on their integer numerators and denominators
    (``_qadd``, ``_qmul``, ``_qneg``, ``_qinv``); two ints take one int
    operation. A non-integral result comes from
    ``_q``, which sets the slots of a new ``Fraction`` because the pair is
    already reduced, so no ``Fraction`` constructor or arithmetic operator
    runs.
    """

    __slots__ = ("params", "value", "_num", "_den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise DivisionByZero("scalar with zero denominator")
        if num.is_zero():
            den = Polynomial.constant(num.params, 1)
        elif den.is_one():
            pass
        elif den.is_constant():
            num = num.scale(1 / den.constant_value())
            den = Polynomial.constant(num.params, 1)
        else:
            g = poly_gcd(num, den)
            if not g.is_one():
                num = poly_divexact(num, g)
                den = poly_divexact(den, g)
            c, den = _int_normalize(den)
            if den.is_one():
                num = num.scale(1 / c)
                den = Polynomial.constant(num.params, 1)
            else:
                num = num.scale(1 / c)
        self.params = num.params
        if den.is_one() and num.is_constant():
            self.value = _norm(num.constant_value())
        else:
            self.value = None
            self._num = num
            self._den = den

    @property
    def num(self) -> Polynomial:
        if self.value is None:
            return self._num
        return Polynomial.constant(self.params, self.value)

    @property
    def den(self) -> Polynomial:
        if self.value is None:
            return self._den
        return Polynomial.constant(self.params, 1)

    @classmethod
    def of(cls, params, value):
        """Constant scalar from an int or Fraction. Zero and one are
        interned: each parameter context has one shared object for each."""
        if type(value) is not int:
            value = _norm(Fraction(value))
        params = tuple(params)
        if value == 0 or value == 1:
            key = (params, value)
            s = _INTERNED.get(key)
            if s is None:
                s = _INTERNED[key] = _const(params, value)
            return s
        return _const(params, value)

    @classmethod
    def param(cls, params, name):
        p = tuple(params)
        return cls(Polynomial.variable(p, name), Polynomial.constant(p, 1))

    # only an int value can be 0 or 1, so a Fraction value is never compared

    def is_zero(self) -> bool:
        v = self.value
        return type(v) is int and v == 0

    def is_one(self) -> bool:
        v = self.value
        return type(v) is int and v == 1

    def is_constant(self) -> bool:
        return self.value is not None

    def as_fraction(self) -> Fraction:
        v = self.value
        if v is None:
            raise ValueError(f"scalar {self} is not constant")
        return Fraction(v) if type(v) is int else v

    # A non-constant n/d plus or times a nonzero constant c gives
    # (n + c*d)/d or (c*n)/d, and c minus it gives (c*d - n)/d. All three
    # pairs are reduced, since gcd(n + c*d, d) = gcd(c*n, d) = gcd(n, d),
    # and none is constant.

    def _plus_constant(self, c):
        return _fraction(self.params, self._num + self._den.scale(c), self._den)

    def _times_constant(self, c):
        return _fraction(self.params, self._num.scale(c), self._den)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.params is not self.params and other.params != self.params:
                raise ValueError("parameter context mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.of(self.params, other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.value is not None or other.value is not None:
            return self.value == other.value
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        if self.value is not None:
            return hash(self.value)
        return hash((self._num, self._den))

    def __neg__(self):
        v = self.value
        if v is not None:
            return _const(self.params, _qneg(v))
        return _fraction(self.params, -self._num, self._den)

    # Each binary operation below starts with the same test: an operand
    # that is not a Scalar of this very parameter tuple goes through
    # ``_coerce``, which converts it or raises.

    def __add__(self, other):
        if type(other) is not Scalar or other.params is not self.params:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a = self.value
        b = other.value
        if a is not None:
            if b is not None:
                v = a + b if type(a) is int and type(b) is int else _qadd(a, b)
                return _const(self.params, v)
            return other._plus_constant(a) if a else other
        if b is not None:
            return self._plus_constant(b) if b else self
        sn, sd, on, od = self._num, self._den, other._num, other._den
        if sd.is_one() and od.is_one():
            num = sn + on
            if num.is_constant():
                return _const(self.params, _norm(num.constant_value()))
            return _fraction(self.params, num, sd)
        return Scalar(sn * od + on * sd, sd * od)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar or other.params is not self.params:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a = self.value
        b = other.value
        if b is not None:
            if a is not None:
                v = a - b if type(a) is int and type(b) is int else _qadd(a, _qneg(b))
                return _const(self.params, v)
            return self._plus_constant(_qneg(b)) if b else self
        on, od = other._num, other._den
        if a is not None:
            return _fraction(self.params, od.scale(a) - on, od)
        sn, sd = self._num, self._den
        if sd.is_one() and od.is_one():
            num = sn - on
            if num.is_constant():
                return _const(self.params, _norm(num.constant_value()))
            return _fraction(self.params, num, sd)
        return Scalar(sn * od - on * sd, sd * od)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Scalar or other.params is not self.params:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a = self.value
        b = other.value
        if a is not None:
            if b is not None:
                v = a * b if type(a) is int and type(b) is int else _qmul(a, b)
                return _const(self.params, v)
            return other._times_constant(a) if a else self
        if b is not None:
            return self._times_constant(b) if b else other
        sn, sd, on, od = self._num, self._den, other._num, other._den
        if sd.is_one() and od.is_one():
            # a product of non-constant polynomials is non-constant
            return _fraction(self.params, sn * on, sd)
        return Scalar(sn * on, sd * od)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("inverse of the zero scalar")
        v = self.value
        if v is not None:
            return _const(self.params, _qinv(v))
        return Scalar(self._den, self._num)

    def substitute(self, bindings) -> "Scalar":
        """Evaluate every occurring parameter; a ring homomorphism into Q.

        Raises UnboundParameter if an occurring parameter is missing from
        ``bindings`` and DenominatorVanishes if the binding hits a pole.
        """
        values = {k: Fraction(v) for k, v in bindings.items()}
        if self.value is not None:
            return self
        num, den = self._num, self._den
        for name in sorted(num.occurring() | den.occurring()):
            if name not in values:
                raise UnboundParameter(f"parameter '{name}' is unbound")
        d = den.evaluate(values)
        if d == 0:
            raise DenominatorVanishes(f"denominator {poly_str(den)} vanishes")
        n = num.evaluate(values)
        return Scalar.of(self.params, n / d)

    def reparametrize(self, new_params) -> "Scalar":
        """Move to another parameter context; every occurring name must survive."""
        new_params = tuple(new_params)
        if self.value is not None:
            return _const(new_params, self.value)
        idx = {name: i for i, name in enumerate(new_params)}
        missing = (self._num.occurring() | self._den.occurring()) - set(new_params)
        if missing:
            raise UnboundParameter(
                f"parameters {sorted(missing)} do not exist in the new context"
            )

        def remap(p):
            out = {}
            for e, c in p.terms.items():
                ne = [0] * len(new_params)
                for i, k in enumerate(e):
                    if k:
                        ne[idx[p.params[i]]] = k
                out[tuple(ne)] = c
            return Polynomial(new_params, out)

        return Scalar(remap(self._num), remap(self._den))

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return f"Scalar({scalar_str(self)!r})"


# -- canonical printing ------------------------------------------------------


def poly_str(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.terms, key=_grlex_key, reverse=True):
        c = p.terms[e]
        mono = "*".join(
            name if k == 1 else f"{name}^{k}"
            for name, k in zip(p.params, e)
            if k > 0
        )
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def _den_atomic(p: Polynomial) -> bool:
    # safe to print unparenthesized after '/': integer, or a power of one name
    if p.is_constant():
        return True
    if len(p.terms) != 1:
        return False
    (e, c), = p.terms.items()
    return c == 1 and sum(1 for k in e if k > 0) == 1


def scalar_str(s: Scalar) -> str:
    """Canonical text form; ``parse_scalar`` inverts it exactly."""
    if s.value is not None:
        return str(s.value)
    n, d = s._num, s._den
    if d.is_one():
        return poly_str(n)
    num = poly_str(n)
    if len(n.terms) > 1:
        num = f"({num})"
    den = poly_str(d)
    if not _den_atomic(d):
        den = f"({den})"
    return f"{num}/{den}"


# -- parsing -----------------------------------------------------------------

# largest exponent ``^`` accepts, so that one power stays cheap to evaluate
MAX_EXPONENT = 1000

# most terms ``^``, ``*`` and ``/`` let a parametric result have, estimated
# before it is computed; multiplying out costs about the product of the
# operands' term counts
MAX_POWER_TERMS = 300

# longest integer literal accepted, and the most digits a numerator or
# denominator of a parsed value may have; CPython's default limit for
# int() <-> str, stated here so that parsing does not depend on the
# interpreter and every parsed value can be printed
MAX_INT_DIGITS = 4300

# an integer this large has more than MAX_INT_DIGITS digits
_INT_LIMIT = 10**MAX_INT_DIGITS


def _rationals(s: Scalar):
    """The rational numbers a scalar is built from: its constant value, or
    the coefficients of its numerator and denominator."""
    if s.value is not None:
        return (s.value,)
    return (*s._num.terms.values(), *s._den.terms.values())


def too_long_to_print(s: Scalar) -> bool:
    """True when a numerator or denominator in s has more than
    MAX_INT_DIGITS digits."""
    return any(max(abs(q.numerator), q.denominator) >= _INT_LIMIT for q in _rationals(s))


def _power_bits(s: Scalar, exponent) -> int:
    """Estimated bit length of the largest number in s^exponent: the bit
    length of the largest numerator or denominator in s, plus the log of
    its term count (the growth of a sum raised to a power), minus one, times
    the exponent. For a constant this is a lower bound."""
    terms = 1 if s.value is not None else max(len(s._num.terms), len(s._den.terms))
    bits = max(max(abs(q.numerator), q.denominator).bit_length() for q in _rationals(s))
    return (bits + terms.bit_length() - 2) * exponent


def _power_terms(s: Scalar, exponent) -> int:
    """Upper bound on the term count of the numerator or denominator of
    s^exponent. A product of ``exponent`` terms out of n is one of at most
    comb(n - 1 + exponent, exponent) monomials, and its degree in each
    parameter is at most ``exponent`` times the degree there."""
    if s.value is not None:
        return 1
    out = 0
    for p in (s._num, s._den):
        box = 1
        for degree in map(max, zip(*p.terms)):
            box *= exponent * degree + 1
        out = max(out, min(comb(len(p.terms) - 1 + exponent, exponent), box))
    return out


def _product_terms(v: Scalar, w: Scalar, divide=False) -> int:
    """Upper bound on the term count of the numerator or denominator of
    v*w (v/w when ``divide``), for non-constant v and w. A product of
    polynomials with n and m terms has at most n*m terms, and its degree in
    each parameter is the sum of the two degrees there."""
    wn, wd = (w._den, w._num) if divide else (w._num, w._den)
    out = 0
    for p, q in ((v._num, wn), (v._den, wd)):
        box = 1
        for a, b in zip(map(max, zip(*p.terms)), map(max, zip(*q.terms))):
            box *= a + b + 1
        out = max(out, min(len(p.terms) * len(q.terms), box))
    return out


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].strip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", 1, pos + 1)
        if m.group(1):
            digits = m.group(1)
            if len(digits) > MAX_INT_DIGITS:
                raise ParseError(
                    f"integer literal of {len(digits)} digits exceeds the limit {MAX_INT_DIGITS}",
                    1,
                    m.start(1) + 1,
                )
            tokens.append(("int", int(digits), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, params):
        self.tokens = tokens
        self.params = tuple(params)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def fail(self, msg):
        kind, val, pos = self.peek()
        raise ParseError(msg, 1, pos + 1)

    def bounded(self, v, pos):
        """v, or a located ParseError when a number in it is too long to print."""
        if too_long_to_print(v):
            raise ParseError(f"value has a number of more than {MAX_INT_DIGITS} digits", 1, pos + 1)
        return v

    def expr(self):
        v = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, pos = self.take()
            w = self.term()
            v = self.bounded(v + w if op == "+" else v - w, pos)
        return v

    def term(self):
        v = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, pos = self.take()
            w = self.unary()
            # multiplying out costs about the product of the term counts;
            # a constant factor only scales
            if (
                v.value is None
                and w.value is None
                and _product_terms(v, w, op == "/") > MAX_POWER_TERMS
            ):
                what = "product" if op == "*" else "quotient"
                raise ParseError(f"{what} would have more than {MAX_POWER_TERMS} terms", 1, pos + 1)
            if op == "*":
                v = v * w
            else:
                if w.is_zero():
                    self.fail("division by zero")
                v = v / w
            v = self.bounded(v, pos)
        return v

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        v = self.primary()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            kind, val, pos = self.peek()
            if kind != "int":
                self.fail("exponent must be a nonnegative integer")
            if val > MAX_EXPONENT:
                self.fail(f"exponent {val} exceeds the limit {MAX_EXPONENT}")
            if val and _power_bits(v, val) >= _INT_LIMIT.bit_length():
                self.fail(f"power would have a number of more than {MAX_INT_DIGITS} digits")
            if val > 1 and _power_terms(v, val) > MAX_POWER_TERMS:
                self.fail(f"power would have more than {MAX_POWER_TERMS} terms")
            self.take()
            # square-and-multiply
            out = Scalar.of(self.params, 1)
            while val:
                if val & 1:
                    out = out * v
                val >>= 1
                if val:
                    v = v * v
            return self.bounded(out, pos)
        return v

    def primary(self):
        kind, val, pos = self.take()
        if kind == "int":
            return Scalar.of(self.params, val)
        if kind == "name":
            if val not in self.params:
                declared = ", ".join(self.params) or "none"
                raise ParseError(
                    f"unknown parameter {quoted(val)} (declared: {declared})",
                    1,
                    pos + 1,
                )
            return Scalar.param(self.params, val)
        if (kind, val) == ("op", "("):
            v = self.expr()
            if self.peek()[:2] != ("op", ")"):
                self.fail("expected ')'")
            self.take()
            return v
        raise ParseError("expected a number, parameter, or '('", 1, pos + 1)


def parse_scalar(text: str, params=()) -> Scalar:
    """Parse the textual scalar syntax into a reduced Scalar."""
    p = _Parser(_tokenize(text), params)
    try:
        v = p.expr()
    except DivisionByZero:
        raise ParseError("division by zero", 1, 1) from None
    if p.peek()[0] != "end":
        p.fail("trailing input")
    return v
