"""Exact coefficient arithmetic: Q and the fraction field Q(params).

Every identity the checkers decide is a polynomial identity in the declared
parameters, so the coefficient domain is the fraction field of Q[params],
which is also the fraction field of Z[params]. Zero-testing is exact, never
numeric sampling.

A ``Scalar`` has two representations. A constant is held directly as an
``int`` when it is integral and as a ``Fraction`` otherwise, so arithmetic
on constants never builds a ``Polynomial``. Any other scalar is c*P/Q, the
layout of FLINT's ``fmpq_poly`` (an integer polynomial over one common
denominator) carried over to rational functions: P and Q are coprime
polynomials with integer coefficients, each primitive (the gcd of its
coefficients is 1) with a positive leading coefficient in graded-lex order,
and the constant c holds the rest of the value. Canonical-form rule: every
construction path puts a constant-valued result into the constant form, and
any other value has exactly one such layout, so ``==`` and ``hash`` compare
representations.

Arithmetic between two constants, and on the constant c of a rational
function, works on their integer numerators and denominators: two ints are
added or multiplied as ints, and any other pair goes through the
gcd-reduced formulas of Knuth (TAOCP vol. 2, 4.5.1), the ones
``Fraction``'s own ``+`` and ``*`` use. ``_q`` turns the reduced pair into
the canonical value, setting a new ``Fraction``'s two slots directly, since
the pair needs no second gcd. So constant arithmetic runs no ``Fraction``
constructor or arithmetic operator, and the values still compare, hash and
print exactly as ``Fraction``s do.

Polynomial arithmetic (``polynomials``) runs on ints only, and content is
taken in one place, ``polynomials._split``. Negation, scaling by a constant
and the inverse touch only c (the inverse also swaps P and Q). A product of
primitive polynomials is primitive (Gauss's lemma), so a product of
rational functions needs no content pass: it cancels with the cross gcds
gcd(P1, Q2) and gcd(P2, Q1), as Knuth's rational multiply does. A sum
cancels only through the gcd of the two denominators.

Two cases take no gcd at all. A Laurent monomial is a scalar whose P and Q
are single terms; in canonical form they are bare monomials x^a and x^b
with coefficient 1 and disjoint support. The product of two of them is
c1*c2*x^e with e = a1 - b1 + a2 - b2, computed on the exponent tuples and
split into P = x^(e+) and Q = x^(e-), and the constant c1*c2 when e = 0.
Two scalars with the same P and Q, equal monomials among them, sum to
(c1 + c2)*P/Q, or to zero when c1 + c2 = 0. Both results are the canonical
form the gcd path would reach. Twisting by diagonal maps (Yau twists such
as Ad diag(1, s, s^2)) makes structure constants of this kind.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from math import gcd as int_gcd

from .errors import DenominatorVanishes, DivisionByZero, ParseError, UnboundParameter, quoted
from .polynomials import (
    Polynomial,
    _grlex_key,
    _lincomb,
    _one,
    _poly,
    _split,
    poly_divexact,
    poly_gcd,
)


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


def _ratio(n, d):
    """The canonical value of n/d for ints n and d != 0."""
    g = int_gcd(n, d)
    if d < 0:
        g = -g
    return _q(n // g, d // g)


def _pair(a):
    """(numerator, denominator) of a canonical value."""
    if type(a) is int:
        return a, 1
    return a._numerator, a._denominator


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


def _times(a, b):
    """a * b for any two canonical values."""
    return a * b if type(a) is int and type(b) is int else _qmul(a, b)


def _nonzero(a):
    """True for a canonical value other than 0 (a Fraction never is 0)."""
    return type(a) is not int or a != 0


# -- rational functions c*P/Q ------------------------------------------------
#
# The helpers below take the parts of non-constant scalars, (c, P, Q) in the
# layout of the module docstring, and return scalars.


def _fraction(params, c, P, Q):
    """Non-constant scalar c*P/Q from parts already in canonical form."""
    s = object.__new__(Scalar)
    s.params = params
    s.value = None
    s._parts = (c, P, Q)
    return s


def _ratfunc(params, c, P, Q):
    """c*P/Q from canonical parts; the constant c when P = Q = 1."""
    if P.is_one() and Q.is_one():
        return _const(params, c)
    return _fraction(params, c, P, Q)


def _cofactors(a, b):
    """Ints (m, n, d), d > 0, with a*X + b*Y = (m*X + n*Y)/d for nonzero
    canonical values a and b."""
    na, da = _pair(a)
    nb, db = _pair(b)
    if da == db:
        return na, nb, da
    g = int_gcd(da, db)
    return na * (db // g), nb * (da // g), da // g * db


def _combine(params, m, X, n, Y, d):
    """The value (m*X + n*Y)/d, for Polynomials X and Y with a nonzero sum,
    as a constant and the primitive part: (c, P)."""
    k, T = _split(_lincomb(m, X.terms, n, Y.terms))
    return _ratio(k, d), _poly(params, T)


def _plus_constant(params, k, c, P, Q):
    """k + c*P/Q for a nonzero constant k. The pair (k*Q + c*P)/Q is
    reduced, since gcd(k*Q + c*P, Q) = gcd(c*P, Q) = 1, and not constant."""
    m, n, d = _cofactors(c, k)
    c, P = _combine(params, m, P, n, Q, d)
    return _fraction(params, c, P, Q)


def _sum(params, c1, P1, Q1, c2, P2, Q2):
    """c1*P1/Q1 + c2*P2/Q2 (Knuth's rational add). Over g = gcd(Q1, Q2),
    with Q1 = g*s and Q2 = g*t, the sum is (c1*P1*t + c2*P2*s)/(g*s*t), and
    only a factor of g can cancel from it."""
    one = _one(params)
    if Q1 == Q2:
        if P1 == P2:
            # (c1 + c2)*P/Q (see the module docstring)
            c = c1 + c2 if type(c1) is int and type(c2) is int else _qadd(c1, c2)
            return _fraction(params, c, P1, Q1) if _nonzero(c) else Scalar.of(params, 0)
        g, s, t = Q1, one, one
    else:
        g = one if Q1.is_one() or Q2.is_one() else poly_gcd(Q1, Q2)
        s, t = poly_divexact(Q1, g), poly_divexact(Q2, g)
    m, n, d = _cofactors(c1, c2)
    # never zero: canonical parts with c1*P1/Q1 = -c2*P2/Q2 have P1 = P2, Q1 = Q2
    c, P = _combine(params, m, P1 * t, n, P2 * s, d)
    if not g.is_one():
        h = poly_gcd(P, g)
        if not h.is_one():
            P, Q2 = poly_divexact(P, h), poly_divexact(Q2, h)
    return _ratfunc(params, c, P, s * Q2)


def _monomial(params, c, e):
    """c * x^e for a Laurent exponent tuple e: P = x^(e+) and Q = x^(e-),
    which are coprime monomials with coefficient 1; the constant c when e
    is 0."""
    if not any(e):
        return _const(params, c)
    P = _poly(params, {tuple(k if k > 0 else 0 for k in e): 1})
    if min(e) >= 0:
        return _fraction(params, c, P, _one(params))
    return _fraction(params, c, P, _poly(params, {tuple(-k if k < 0 else 0 for k in e): 1}))


def _product(params, c, P1, Q1, P2, Q2):
    """c * (P1/Q1) * (P2/Q2) (Knuth's rational multiply): only P1 and Q2,
    and P2 and Q1, can share a factor, and the products of the primitive
    remainders are primitive. When all four are monomials, which in
    canonical form have coefficient 1, the product is a Laurent monomial
    whose exponents are added and subtracted directly."""
    if len(P1.terms) == len(Q1.terms) == len(P2.terms) == len(Q2.terms) == 1:
        (a1,), (b1,), (a2,), (b2,) = P1.terms, Q1.terms, P2.terms, Q2.terms
        return _monomial(params, c, [p - q + r - t for p, q, r, t in zip(a1, b1, a2, b2)])
    if not Q2.is_one():
        g = poly_gcd(P1, Q2)
        if not g.is_one():
            P1, Q2 = poly_divexact(P1, g), poly_divexact(Q2, g)
    if not Q1.is_one():
        g = poly_gcd(P2, Q1)
        if not g.is_one():
            P2, Q1 = poly_divexact(P2, g), poly_divexact(Q1, g)
    return _ratfunc(params, c, P1 * P2, Q1 * Q2)


# the shared zero and one of each parameter context, keyed by (params, value);
# scalars are never mutated after construction, so sharing them is safe
_INTERNED = {}


class Scalar:
    """Element of the fraction field of Z[params], kept in canonical form.

    A constant is held as ``value``: an int when it is integral, a Fraction
    otherwise. Any other scalar has ``value`` None and is c*P/Q (see the
    module docstring), held as ``_parts`` = (c, P, Q): P and Q are coprime
    primitive integer polynomials with positive graded-lex leading
    coefficients, not both 1, and c is a nonzero canonical constant. Every
    construction puts a constant-valued result into constant form, so ``==``
    and ``hash`` are structural.

    ``num`` and ``den`` are readable on every scalar: with c = a/b in lowest
    terms they are the integer polynomials a*P and b*Q (a and b for a
    constant), so ``Scalar(x.num, x.den) == x``.

    Two constants combine on their integer numerators and denominators
    (``_qadd``, ``_qmul``, ``_qneg``, ``_qinv``); two ints take one int
    operation. A non-integral result comes from ``_q``, which sets the slots
    of a new ``Fraction`` because the pair is already reduced, so no
    ``Fraction`` constructor or arithmetic operator runs.
    """

    __slots__ = ("params", "value", "_parts")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise DivisionByZero("scalar with zero denominator")
        self.params = params = num.params
        if num.is_zero():
            self.value = 0
            return
        g = poly_gcd(num, den)
        if not g.is_one():
            num, den = poly_divexact(num, g), poly_divexact(den, g)
        a, P = _split(num.terms)
        b, Q = _split(den.terms)
        P, Q = _poly(params, P), _poly(params, Q)
        c = _ratio(a, b)
        if P.is_one() and Q.is_one():
            self.value = c
        else:
            self.value = None
            self._parts = (c, P, Q)

    @property
    def num(self) -> Polynomial:
        v = self.value
        if v is None:
            c, P, _ = self._parts
            return P.scale(_pair(c)[0])
        return Polynomial.constant(self.params, _pair(v)[0])

    @property
    def den(self) -> Polynomial:
        v = self.value
        if v is None:
            c, _, Q = self._parts
            return Q.scale(_pair(c)[1])
        return Polynomial.constant(self.params, _pair(v)[1])

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
        return _fraction(p, 1, Polynomial.variable(p, name), _one(p))

    # only an int value can be 0 or 1, so a Fraction value is never compared

    def is_zero(self) -> bool:
        v = self.value
        return type(v) is int and v == 0

    def is_one(self) -> bool:
        v = self.value
        return type(v) is int and v == 1

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
        return self._parts == other._parts

    def __hash__(self):
        if self.value is not None:
            return hash(self.value)
        return hash(self._parts)

    def __neg__(self):
        v = self.value
        if v is not None:
            return _const(self.params, _qneg(v))
        c, P, Q = self._parts
        return _fraction(self.params, _qneg(c), P, Q)

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
            if _nonzero(a):
                return _plus_constant(self.params, a, *other._parts)
            return other
        if b is not None:
            if _nonzero(b):
                return _plus_constant(self.params, b, *self._parts)
            return self
        return _sum(self.params, *self._parts, *other._parts)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar or other.params is not self.params:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # negation touches only c or the constant, so the sum is canonical
        return self + (-other)

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
            if _nonzero(a):
                c, P, Q = other._parts
                return _fraction(self.params, _times(a, c), P, Q)
            return self
        if b is not None:
            if _nonzero(b):
                c, P, Q = self._parts
                return _fraction(self.params, _times(c, b), P, Q)
            return other
        c1, P1, Q1 = self._parts
        c2, P2, Q2 = other._parts
        return _product(self.params, _times(c1, c2), P1, Q1, P2, Q2)

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
        c, P, Q = self._parts
        return _fraction(self.params, _qinv(c), Q, P)

    def substitute(self, bindings) -> "Scalar":
        """Evaluate every occurring parameter; a ring homomorphism into Q.

        Raises UnboundParameter if an occurring parameter is missing from
        ``bindings`` and DenominatorVanishes if the binding hits a pole.
        """
        if self.value is not None:
            return self
        values = {k: Fraction(v) for k, v in bindings.items()}
        c, P, Q = self._parts
        for name in sorted(P.occurring() | Q.occurring()):
            if name not in values:
                raise UnboundParameter(f"parameter '{name}' is unbound")
        d = Q.evaluate(values)
        if d == 0:
            raise DenominatorVanishes(f"denominator {poly_str(Q)} vanishes")
        return Scalar.of(self.params, c * P.evaluate(values) / d)

    def reparametrize(self, new_params) -> "Scalar":
        """Move to another parameter context; every occurring name must survive."""
        new_params = tuple(new_params)
        if self.value is not None:
            return _const(new_params, self.value)
        c, P, Q = self._parts
        idx = {name: i for i, name in enumerate(new_params)}
        missing = (P.occurring() | Q.occurring()) - set(new_params)
        if missing:
            raise UnboundParameter(
                f"parameters {sorted(missing)} do not exist in the new context"
            )

        def remap(p):
            out = {}
            for e, v in p.terms.items():
                ne = [0] * len(new_params)
                for i, k in enumerate(e):
                    if k:
                        ne[idx[p.params[i]]] = k
                out[tuple(ne)] = v
            return _poly(new_params, out)

        # the graded-lex order follows the parameter order, so the sign of
        # a leading coefficient may change
        P, Q = remap(P), remap(Q)
        if P.leading()[1] < 0:
            c, P = _qneg(c), -P
        if Q.leading()[1] < 0:
            c, Q = _qneg(c), -Q
        return _fraction(new_params, c, P, Q)

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return f"Scalar({scalar_str(self)!r})"


# -- canonical printing ------------------------------------------------------


def _scaled(c, v):
    """(numerator, denominator) of c*v in lowest terms, for a canonical
    constant c and an int v."""
    if type(c) is int:
        return c * v, 1
    n, d = c._numerator, c._denominator
    g = int_gcd(v, d)
    return n * (v // g), d // g


def _terms_str(params, terms, c=1):
    """Text of the polynomial c*P, for the terms of P and a canonical
    constant c."""
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=_grlex_key, reverse=True):
        n, d = _scaled(c, terms[e])
        coef = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
        mono = "*".join(
            name if k == 1 else f"{name}^{k}"
            for name, k in zip(params, e)
            if k > 0
        )
        if not mono:
            body = coef
        elif coef == "1":
            body = mono
        else:
            body = f"{coef}*{mono}"
        if not parts:
            parts.append(("-" if n < 0 else "") + body)
        else:
            parts.append((" - " if n < 0 else " + ") + body)
    return "".join(parts)


def poly_str(p: Polynomial) -> str:
    return _terms_str(p.params, p.terms)


def _den_atomic(p: Polynomial) -> bool:
    # safe to print unparenthesized after '/': a power of one name (a
    # denominator Q is never constant)
    if len(p.terms) != 1:
        return False
    (e, c), = p.terms.items()
    return c == 1 and sum(1 for k in e if k > 0) == 1


def scalar_str(s: Scalar) -> str:
    """Canonical text form; ``parse_scalar`` inverts it exactly. A rational
    function c*P/Q prints as the polynomial c*P over Q."""
    if s.value is not None:
        return str(s.value)
    c, P, Q = s._parts
    num = _terms_str(s.params, P.terms, c)
    if Q.is_one():
        return num
    if len(P.terms) > 1:
        num = f"({num})"
    den = poly_str(Q)
    if not _den_atomic(Q):
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

# most parentheses and unary minus signs an expression may nest; the parser
# recurses once per level, so this keeps it below Python's recursion limit
MAX_NESTING = 100

# an integer this large has more than MAX_INT_DIGITS digits
_INT_LIMIT = 10**MAX_INT_DIGITS


def _printed_numbers(s: Scalar):
    """(numerator, denominator) of every number the text of s shows: its
    constant value, or the coefficients of c*P and of Q."""
    if s.value is not None:
        return (_pair(s.value),)
    c, P, Q = s._parts
    return (*(_scaled(c, v) for v in P.terms.values()), *((v, 1) for v in Q.terms.values()))


def too_long_to_print(s: Scalar) -> bool:
    """True when a numerator or denominator in s has more than
    MAX_INT_DIGITS digits."""
    return any(max(abs(n), d) >= _INT_LIMIT for n, d in _printed_numbers(s))


def _power_bits(s: Scalar, exponent) -> int:
    """Estimated bit length of the largest number in s^exponent: the bit
    length of the largest numerator or denominator in s, plus the log of
    its term count (the growth of a sum raised to a power), minus one, times
    the exponent. For a constant this is a lower bound."""
    terms = 1 if s.value is not None else max(len(p.terms) for p in s._parts[1:])
    bits = max(max(abs(n), d).bit_length() for n, d in _printed_numbers(s))
    return (bits + terms.bit_length() - 2) * exponent


def _power_terms(s: Scalar, exponent) -> int:
    """Upper bound on the term count of the numerator or denominator of
    s^exponent. A product of ``exponent`` terms out of n is one of at most
    comb(n - 1 + exponent, exponent) monomials, and its degree in each
    parameter is at most ``exponent`` times the degree there."""
    if s.value is not None:
        return 1
    out = 0
    for p in s._parts[1:]:
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
    _, wn, wd = w._parts
    if divide:
        wn, wd = wd, wn
    out = 0
    _, vn, vd = v._parts
    for p, q in ((vn, wn), (vd, wd)):
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
        self.depth = 0

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

    def nested(self, pos, parse):
        """parse() one nesting level deeper, for the '(' or '-' at pos."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression is nested more than {MAX_NESTING} deep", 1, pos + 1)
        self.depth += 1
        v = parse()
        self.depth -= 1
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
            return -self.nested(self.take()[2], self.unary)
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
            v = self.nested(pos, self.expr)
            if self.peek()[:2] != ("op", ")"):
                self.fail("expected ')'")
            self.take()
            return v
        raise ParseError("expected a number, parameter, or '('", 1, pos + 1)


def parse_scalar(text: str, params=()) -> Scalar:
    """Parse the textual scalar syntax into a reduced Scalar. An integer
    literal or a quotient p/q of two, optionally negated, is read without
    the tokenizer."""
    # the value the parser would build; ``isdecimal`` holds for exactly the
    # digits that ``\d`` matches and ``int`` reads, and is False on ""
    negative = text[:1] == "-"
    digits = text[1:] if negative else text
    if digits.isdecimal() and len(digits) <= MAX_INT_DIGITS:
        return Scalar.of(params, int(text))
    # a zero q is left to the parser, which locates the division by zero
    n, _, q = digits.partition("/")
    if n.isdecimal() and q.isdecimal() and max(len(n), len(q)) <= MAX_INT_DIGITS and int(q):
        v = _ratio(-int(n) if negative else int(n), int(q))
        return Scalar.of(params, v) if type(v) is int else _const(tuple(params), v)
    p = _Parser(_tokenize(text), params)
    try:
        v = p.expr()
    except DivisionByZero:
        raise ParseError("division by zero", 1, 1) from None
    if p.peek()[0] != "end":
        p.fail("trailing input")
    return v
