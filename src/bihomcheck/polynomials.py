"""Sparse multivariate polynomials over Z and their gcd.

``Polynomial`` holds int coefficients only; the fraction field built on it
is in ``scalars``. The helpers with a leading underscore are the integer
kernel that ``scalars`` shares: they take and return terms dicts of nonzero
ints, and none of them builds a ``Fraction``. Content is taken in one
place, ``_split``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from operator import add

from .errors import DivisionByZero


def _grlex_key(exps):
    return (sum(exps), exps)


def _integer(c):
    """A polynomial coefficient as an int; an integral Fraction is accepted."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    raise ValueError(f"polynomial coefficient {c} is not an integer")


class Polynomial:
    """Sparse multivariate polynomial over Z.

    ``params`` is the ordered tuple of parameter names; ``terms`` maps
    exponent tuples (same length as ``params``) to nonzero ints. The
    constructor converts integral ``Fraction`` coefficients to ints and
    refuses any other non-integer (ValueError). Instances are immutable; all
    arithmetic returns new objects.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params, terms):
        self.params = tuple(params)
        self.terms = {e: _integer(c) for e, c in terms.items() if c}

    @classmethod
    def constant(cls, params, value):
        params = tuple(params)
        return cls(params, {(0,) * len(params): value})

    @classmethod
    def variable(cls, params, name):
        params = tuple(params)
        i = params.index(name)
        return _poly(params, {tuple(int(j == i) for j in range(len(params))): 1})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        t = self.terms
        if len(t) != 1:
            return False
        ((e, c),) = t.items()
        return c == 1 and not any(e)

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
        return _poly(self.params, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if self.params != other.params:
            raise ValueError("parameter context mismatch")
        return _poly(self.params, _lincomb(1, self.terms, 1, other.terms))

    def __sub__(self, other):
        if self.params != other.params:
            raise ValueError("parameter context mismatch")
        return _poly(self.params, _lincomb(1, self.terms, -1, other.terms))

    def __mul__(self, other):
        if self.params != other.params:
            raise ValueError("parameter context mismatch")
        return _poly(self.params, _mul_terms(self.terms, other.terms))

    def scale(self, c):
        c = _integer(c)
        if c == 1:
            return self
        return _poly(self.params, {e: c * v for e, v in self.terms.items()} if c else {})

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


# -- integer polynomial kernel -----------------------------------------------


def _poly(params, terms):
    """Polynomial from a terms dict already known to hold nonzero ints."""
    p = object.__new__(Polynomial)
    p.params = params
    p.terms = terms
    return p


# the polynomial 1 of each parameter context; polynomials are immutable, so
# sharing it is safe
_ONES = {}


def _one(params):
    """The polynomial 1 in the context ``params``."""
    p = _ONES.get(params)
    if p is None:
        p = _ONES[params] = _poly(params, {(0,) * len(params): 1})
    return p


def _lincomb(a, f, b, g):
    """The terms of a*f + b*g, for nonzero ints a and b."""
    out = dict(f) if a == 1 else {e: a * c for e, c in f.items()}
    get = out.get
    for e, c in g.items():
        s = get(e, 0) + b * c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _mul_terms(f, g):
    """The terms of the product f*g."""
    if len(f) < len(g):
        f, g = g, f
    if len(g) == 1:
        # a single term shifts exponents, so no two products collide
        ((e2, c2),) = g.items()
        if not any(e2):
            return f if c2 == 1 else {e: c * c2 for e, c in f.items()}
        return {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in f.items()}
    out = {}
    get = out.get
    for e2, c2 in g.items():
        for e1, c1 in f.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _lc(terms):
    """Leading coefficient in graded-lex order of nonzero terms."""
    if len(terms) == 1:
        for c in terms.values():
            return c
    return terms[max(terms, key=_grlex_key)]


def _split(terms):
    """(k, pp) with terms = k * pp, where pp is primitive over Z with a
    positive graded-lex leading coefficient; (0, {}) for no terms. This is
    the one place where content is taken."""
    if not terms:
        return 0, terms
    k = int_gcd(*terms.values())
    if _lc(terms) < 0:
        k = -k
    if k == 1:
        return 1, terms
    return k, {e: c // k for e, c in terms.items()}


def _primitive(p: Polynomial) -> Polynomial:
    return _poly(p.params, _split(p.terms)[1])


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
# pseudo-remainder sequence (Brown, JACM 1971), all over Z.
#
# ``scalars`` avoids this machinery for the commonest case: a product of two
# Laurent monomials (P and Q single terms) adds and subtracts exponent
# tuples, and a sum of two fractions with the same P and Q adds their
# constants, so neither reaches ``poly_gcd`` or ``poly_divexact``.


def _deg_in(p: Polynomial, var: int):
    return max((e[var] for e in p.terms), default=0)


def _coeff_wrt(p: Polynomial, var: int, k: int):
    """Coefficient of var^k, a polynomial with the var slot zeroed."""
    out = {}
    for e, c in p.terms.items():
        if e[var] == k:
            out[e[:var] + (0,) + e[var + 1 :]] = c
    return _poly(p.params, out)


def _shift_var(p: Polynomial, var: int, k: int):
    return _poly(p.params, {e[:var] + (e[var] + k,) + e[var + 1 :]: c for e, c in p.terms.items()})


def _content_wrt(p: Polynomial, var: int):
    """gcd of the var-coefficients (a polynomial free of var)."""
    c = _poly(p.params, {})
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
    """Exact quotient f/g in Z[params]; raises ArithmeticError if g does not
    divide f there. By Gauss's lemma a primitive g that divides f over Q
    divides it over Z."""
    if g.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if f.is_zero() or g.is_one():
        return f
    quot = {}
    if len(g.terms) == 1:
        # division by a monomial shifts exponents
        ((ge, gc),) = g.terms.items()
        for e, c in f.terms.items():
            qe = tuple(a - b for a, b in zip(e, ge))
            qc, rem = divmod(c, gc)
            if rem or min(qe) < 0:
                raise ArithmeticError("inexact polynomial division")
            quot[qe] = qc
        return _poly(f.params, quot)
    ge, gc = g.leading()
    r = dict(f.terms)
    while r:
        re = max(r, key=_grlex_key)
        qe = tuple(a - b for a, b in zip(re, ge))
        qc, rem = divmod(r[re], gc)
        if rem or min(qe) < 0:
            raise ArithmeticError("inexact polynomial division")
        quot[qe] = qc
        for e, c in g.terms.items():
            e = tuple(map(add, e, qe))
            s = r.get(e, 0) - qc * c
            if s:
                r[e] = s
            else:
                del r[e]
    return _poly(f.params, quot)


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Primitive gcd over Z[params], positive leading coefficient; it is also
    the gcd over Q[params] up to a unit. Constants collapse to 1 (they are
    units in the fraction field)."""
    if f.is_zero() and g.is_zero():
        return f
    if f.is_zero():
        return _primitive(g)
    if g.is_zero():
        return _primitive(f)
    if len(f.terms) == 1 or len(g.terms) == 1:
        # the monomial rule (see above); a constant side gives 1
        e = tuple(map(min, zip(*f.terms, *g.terms)))
        return _poly(f.params, {e: 1})
    f = _primitive(f)
    g = _primitive(g)
    if f == g:
        return f
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
            return _primitive(c)
        # primitive over Z as well: without the integer content the
        # coefficients grow exponentially along the sequence
        a, b = b, _primitive(poly_divexact(r, _content_wrt(r, var)))
    return _primitive(c * poly_divexact(b, _content_wrt(b, var)))
