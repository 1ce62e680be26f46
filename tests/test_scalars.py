"""Exact scalar arithmetic, reduction, substitution, and text round-trips."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from bihomcheck import scalars
from bihomcheck.errors import (
    DenominatorVanishes,
    DivisionByZero,
    ParseError,
    UnboundParameter,
)
from bihomcheck.scalars import (
    MAX_EXPONENT,
    MAX_INT_DIGITS,
    MAX_NESTING,
    MAX_POWER_TERMS,
    Polynomial,
    Scalar,
    _Parser,
    _q,
    _tokenize,
    parse_scalar,
    poly_divexact,
    poly_gcd,
    scalar_str,
)

P = ("b",)
L = ("l1", "l2", "l1p", "l2p")


def sc(text, params=P):
    return parse_scalar(text, params)


def test_rational_arithmetic():
    a = Scalar.of((), Fraction(1, 2))
    b = Scalar.of((), Fraction(1, 3))
    assert (a + b).value == Fraction(5, 6)


def test_fraction_field_inverse():
    b = Scalar.param(P, "b")
    assert (b * b.inverse()).is_one()
    assert (b / b).is_one()


def test_substitution_of_product():
    v = sc("l1*l2p", L)
    assert v.substitute({"l1": 2, "l2p": 3}).value == 6


def test_is_zero_examples():
    assert Scalar.of(P, 0).is_zero()
    b = Scalar.param(P, "b")
    assert (b - b).is_zero()
    assert not (sc("l1*l2p", L) - sc("l1p*l2", L)).is_zero()


def test_substitute_examples():
    b = Scalar.param(P, "b")
    assert (b + b).substitute({"b": 3}).value == 6
    with pytest.raises(DenominatorVanishes):
        b.inverse().substitute({"b": 0})
    with pytest.raises(UnboundParameter):
        sc("l1*l2p", L).substitute({"l1": 2})


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Scalar.of(P, 1) / Scalar.of(P, 0)
    with pytest.raises(DivisionByZero):
        Scalar.of(P, 0).inverse()


def test_reduction_cancels_common_factor():
    b = Scalar.param(P, "b")
    one = Scalar.of(P, 1)
    v = (b * b + b) / (b + one)  # b(b+1)/(b+1)
    assert v == b
    assert v.den.is_one()


def test_denominator_normalization():
    b = Scalar.param(P, "b")
    v = Scalar.of(P, 1) / (Scalar.of(P, -2) * b)
    # denominator must be primitive with positive leading coefficient
    assert str(v) == "-1/2/b"
    assert v * (Scalar.of(P, -2) * b) == Scalar.of(P, 1)


def test_poly_gcd_basics():
    b = Polynomial.variable(P, "b")
    one = Polynomial.constant(P, 1)
    f = (b + one) * b
    g = (b + one) * (b + one)
    assert poly_gcd(f, g) == b + one
    # constants are units
    assert poly_gcd(Polynomial.constant(P, 4), Polynomial.constant(P, 6)).is_one()


def test_poly_gcd_keeps_pseudo_remainders_primitive():
    # coprime powers: unless each pseudo-remainder is divided by its
    # integer content, the coefficients grow exponentially along the
    # sequence and this gcd takes seconds
    a = Polynomial.variable(("a",), "a")
    f, g = a + Polynomial.constant(("a",), 2), a + Polynomial.constant(("a",), 3)
    for _ in range(4):
        f, g = f * f, g * g
    start = time.perf_counter()
    assert poly_gcd(f, g).is_one()
    assert time.perf_counter() - start < 1


def test_poly_divexact_by_a_monomial():
    a = Polynomial.variable(("a", "b"), "a")
    b = Polynomial.variable(("a", "b"), "b")
    one = Polynomial.constant(("a", "b"), 1)
    m = (a * a * b).scale(-3)
    assert poly_divexact((a + b + one) * m, m) == a + b + one
    assert poly_divexact(m, m) == one
    # a negative exponent means m does not divide
    for f in (a * b, a * a * b + b):
        with pytest.raises(ArithmeticError):
            poly_divexact(f, m)


def test_multivariate_gcd_and_reduction():
    l1 = Scalar.param(L, "l1")
    l2 = Scalar.param(L, "l2")
    l1p = Scalar.param(L, "l1p")
    v = (l1 * l2 * l1p) / (l1 * l1p)
    assert v == l2


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "1",
        "-1",
        "1/2",
        "-1/2",
        "b",
        "-b",
        "2*b",
        "b^2",
        "1/b",
        "1/b^2",
        "(b + 1)/b",
        "2/(b + 1)",
        "b - 1/2",
        "b^2 + 2*b + 1",
        "1/2*b",
    ],
)
def test_print_parse_round_trip(text):
    v = sc(text)
    assert sc(str(v)) == v
    # canonical strings are fixed points of parse-then-print
    assert str(sc(str(v))) == str(v)


def test_parse_multivariate():
    v = sc("(l1*l2p)/2", L)
    assert v == sc("1/2*l1*l2p", L)
    assert str(v) == "1/2*l1*l2p"


def test_parse_errors():
    with pytest.raises(ParseError):
        sc("b +")
    with pytest.raises(ParseError):
        sc("q", P)  # undeclared parameter
    with pytest.raises(ParseError):
        sc("(b")
    with pytest.raises(ParseError):
        sc("b^-2")
    with pytest.raises(ParseError):
        sc("1/0")
    with pytest.raises(ParseError):
        sc("b $ 2")


def _random_scalar(rng, params=L, depth=0):
    kind = rng.randrange(6 if depth < 2 else 3)
    if kind == 0:
        return Scalar.of(params, Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
    if kind == 1:
        return Scalar.param(params, rng.choice(params))
    if kind == 2:
        return Scalar.of(params, rng.randint(-3, 3))
    a = _random_scalar(rng, params, depth + 1)
    b = _random_scalar(rng, params, depth + 1)
    if kind == 3:
        return a + b
    if kind == 4:
        return a * b
    return a - b


def test_field_axioms_on_random_scalars():
    rng = random.Random(20240811)
    for _ in range(60):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        c = _random_scalar(rng)
        assert ((a + b) + c - (a + (b + c))).is_zero()
        assert (a * (b + c) - (a * b + a * c)).is_zero()
        if not a.is_zero():
            assert (a * a.inverse() - 1).is_zero()


def test_substitution_is_a_homomorphism():
    rng = random.Random(987)
    binding = {"l1": Fraction(2), "l2": Fraction(-1, 3), "l1p": Fraction(5), "l2p": Fraction(1, 7)}
    for _ in range(40):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        assert (a * b).substitute(binding) == a.substitute(binding) * b.substitute(binding)
        assert (a + b).substitute(binding) == a.substitute(binding) + b.substitute(binding)


def test_round_trip_on_random_scalars():
    rng = random.Random(4242)
    for _ in range(40):
        a = _random_scalar(rng)
        assert parse_scalar(scalar_str(a), L) == a


def test_reparametrize():
    v = sc("2*b")
    w = v.reparametrize(("a", "b"))
    assert str(w) == "2*b"
    assert w.params == ("a", "b")
    with pytest.raises(UnboundParameter):
        v.reparametrize(("c",))
    # the graded-lex order follows the parameter order, so a leading
    # coefficient can change sign; the moved value stays canonical
    v = sc("-3/(2*a - 4*b)", ("a", "b"))
    w = v.reparametrize(("b", "a"))
    assert str(w) == "3/2/(2*b - a)"
    assert w == parse_scalar(str(w), ("b", "a")) and w.reparametrize(("a", "b")) == v


def test_exponent_above_the_limit_is_refused_at_the_exponent():
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_scalar("x^1000000000", ("x",))
    assert time.perf_counter() - start < 1
    assert info.value.column == 3
    with pytest.raises(ParseError):
        sc(f"b^{MAX_EXPONENT + 1}")


@pytest.mark.parametrize(
    "text, params, column",
    [
        ("(a+2)^1000", ("a",), 7),
        ("(a+b+c+d+e+f)^1000", tuple("abcdef"), 15),
        ("((a+2)^10)^30", ("a",), 12),
        (f"1/(a+2)^{MAX_POWER_TERMS}", ("a",), 9),
    ],
)
def test_power_with_too_many_terms_is_refused_at_the_exponent(text, params, column):
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_scalar(text, params)
    assert time.perf_counter() - start < 0.5
    assert f"more than {MAX_POWER_TERMS} terms" in str(info.value)
    assert info.value.column == column


# far below every size bound, but nested deeper than a parser that recurses
# once per level, with no bound of its own, can go under the default limit
DEEP_TEXTS = ["(" * 199 + "1" + ")" * 199, "-" * 2000 + "1/2"]


@pytest.mark.parametrize("text", DEEP_TEXTS + ["-(" * 60 + "1" + ")" * 60])
def test_nesting_past_the_bound_is_refused_where_it_passes_it(text):
    with pytest.raises(ParseError) as info:
        parse_scalar(text)
    assert f"nested more than {MAX_NESTING} deep" in str(info.value)
    assert info.value.column == MAX_NESTING + 1


def test_nesting_at_the_bound_parses():
    n = MAX_NESTING
    assert parse_scalar("(" * n + "b" + ")" * n, P) == sc("b")
    assert parse_scalar("-" * n + "1/2") == parse_scalar("1/2")
    assert parse_scalar("-(" * (n // 2) + "2" + ")" * (n // 2)) == parse_scalar("2")
    # depth is released as each level closes
    assert parse_scalar("+".join(["(" * n + "1" + ")" * n] * 3)) == parse_scalar("3")


def test_power_just_below_the_term_limit_parses():
    # (a+2)^n has n + 1 terms
    v = parse_scalar(f"(a+2)^{MAX_POWER_TERMS - 1}", ("a",))
    assert len(v.num.terms) == MAX_POWER_TERMS
    w = parse_scalar(f"1/(a+2)^{MAX_POWER_TERMS - 1}", ("a",))
    assert len(w.den.terms) == MAX_POWER_TERMS
    # a monomial power has one term whatever the exponent
    assert str(parse_scalar("(a*b)^1000", ("a", "b"))) == "a^1000*b^1000"


@pytest.mark.parametrize(
    "text, params, column, what",
    [
        # each power passes the bound on its own
        ("(a+2)^299*(a+2)^299", ("a",), 10, "product"),
        ("(a+2)^150*(a+2)^150*(a+2)^150", ("a",), 10, "product"),
        ("(a+1)^14*(b+1)^20", ("a", "b"), 9, "product"),
        ("(a+2)^150/(1/(a+2)^150)", ("a",), 10, "quotient"),
    ],
)
def test_product_with_too_many_terms_is_refused_at_the_operator(text, params, column, what):
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_scalar(text, params)
    assert time.perf_counter() - start < 1
    assert f"{what} would have more than {MAX_POWER_TERMS} terms" in str(info.value)
    assert info.value.column == column


def test_product_just_below_the_term_limit_parses():
    # degree 149 + 150 = 299 in one parameter: 300 terms
    assert len(parse_scalar("(a+2)^149*(a+2)^150", ("a",)).num.terms) == MAX_POWER_TERMS
    # 15 * 20 = 300 terms in two parameters
    assert len(parse_scalar("(a+1)^14*(b+1)^19", ("a", "b")).num.terms) == MAX_POWER_TERMS
    # a constant factor only scales, so it is not refused even when the
    # other operand, a sum, already has more terms
    v = parse_scalar("2*((a+1)^14*(b+1)^19 + a^50)/3", ("a", "b"))
    assert len(v.num.terms) == MAX_POWER_TERMS + 1


def test_powers_by_square_and_multiply():
    b = Scalar.param(P, "b")
    assert str(sc("b^2")) == "b^2" and sc("b^2") == b * b
    assert str(sc("1/b^2")) == "1/b^2" and sc("1/b^2") == (b * b).inverse()
    assert sc("b^0") == 1
    assert sc("(b + 1)^5") == (b + 1) * (b + 1) * (b + 1) * (b + 1) * (b + 1)
    assert sc(f"2^{MAX_EXPONENT}") == Scalar.of(P, 2**MAX_EXPONENT)
    assert sc("(-1/2)^3").value == Fraction(-1, 8)


@pytest.mark.parametrize("text", ["(b^2 - 1)/(b - 1) - b", "(b + 1)/(b + 1)", "b/2*(2/b)"])
def test_parametric_expression_collapsing_to_a_constant_is_in_constant_form(text):
    v = sc(text)
    one = Scalar.of(P, 1)
    assert v.value is not None and v.is_one()
    assert v == one and hash(v) == hash(one)
    assert v != Scalar.param(P, "b") and Scalar.param(P, "b") != v
    assert type(v.value) is int
    assert v.num == one.num and v.den.is_one()


def test_constants_are_never_floats():
    third = Scalar.of((), 3).inverse()
    assert type(third.value) is Fraction and third.value == Fraction(1, 3)
    assert type(Scalar.of((), 3).value) is int
    assert type((Scalar.of(P, 1) / 2).value) is Fraction
    assert type((Scalar.of(P, Fraction(3, 2)) * 2).value) is int
    assert type(Scalar.of((), -1).inverse().value) is int
    assert type((Scalar.of(L, 6) / Scalar.of(L, 4)).value) is Fraction


def _agrees_with(s, q):
    """The constant scalar s holds the value of the Fraction q canonically:
    an int iff q is integral, reduced, and equal in hash and text."""
    assert isinstance(s, Scalar) and s.value is not None
    want = q.numerator if q.denominator == 1 else q
    assert type(s.value) is type(want)
    assert (s.value.numerator, s.value.denominator) == (q.numerator, q.denominator)
    assert s == Scalar.of(s.params, q) and s.is_zero() == (q == 0) and s.is_one() == (q == 1)
    assert hash(s) == hash(q)
    assert str(s) == str(q)


def test_constant_arithmetic_agrees_with_fraction():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # small values meet zero results and sign changes often; the wide ones
    # have more than 100 digits
    numerators = st.one_of(st.integers(-12, 12), st.integers(-(10**130), 10**130))
    denominators = st.one_of(st.integers(1, 12), st.integers(1, 10**120))
    rationals = st.builds(Fraction, numerators, denominators)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(x=rationals, y=rationals, params=st.sampled_from([(), P]))
    def check(x, y, params):
        a, b = Scalar.of(params, x), Scalar.of(params, y)
        for other, q in ((b, y), (y, y), (a, x)):
            _agrees_with(a + other, x + q)
            _agrees_with(a - other, x - q)
            _agrees_with(a * other, x * q)
            _agrees_with(other + a, q + x)
            _agrees_with(other - a, q - x)
            _agrees_with(other * a, q * x)
            if q:
                _agrees_with(a / other, x / q)
            if x:
                _agrees_with(other / a, q / x)
        _agrees_with(-a, -x)
        _agrees_with(a + (-a), Fraction(0))
        _agrees_with(a * 0, Fraction(0))
        if x:
            _agrees_with(a.inverse(), 1 / x)
            _agrees_with(a * a.inverse(), Fraction(1))
        else:
            with pytest.raises(DivisionByZero):
                a.inverse()

    check()


@pytest.mark.parametrize(
    "n, d",
    [
        (0, 1),
        (1, 1),
        (-7, 1),
        (1, 2),
        (-3, 4),
        (22, 7),
        pytest.param(10**120 + 1, 10**110, id="121-digits"),
        pytest.param(-(2**400), 3**250, id="121-digits-negative"),
    ],
)
def test_fraction_built_from_its_slots_is_a_fraction(n, d):
    # _q sets the two slots of a Fraction instead of calling the
    # constructor; a change to Fraction's slots in the standard library
    # would show here first
    q, want = _q(n, d), Fraction(n, d)
    assert type(q) is (int if d == 1 else Fraction)
    assert q == want and hash(q) == hash(want) and str(q) == str(want)
    assert (q.numerator, q.denominator) == (want.numerator, want.denominator)
    assert q + Fraction(1, 3) == want + Fraction(1, 3) and q * 3 == want * 3


def _trees(st, params, factors=False):
    """Expression trees: leaves are ("c", q) for Scalar.of, ("n", q) for a
    bare int or Fraction operand, ("p", name), and with ``factors`` also
    ("f", name, k) for the parameter plus the int k, so that sums share
    factors and reduction has something to cancel; nodes are
    (op, left, right) for the four operations and (op, child) for "neg" and
    "inv"."""
    q = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    leaves = [q.map(lambda v: ("c", v)), q.map(lambda v: ("n", v.numerator if v.denominator == 1 else v))]
    if params:
        leaves.append(st.sampled_from(params).map(lambda n: ("p", n)))
        if factors:
            leaves.append(st.tuples(st.just("f"), st.sampled_from(params), st.integers(-2, 2)))
    return st.recursive(
        st.one_of(*leaves),
        lambda kids: st.one_of(
            st.tuples(st.sampled_from("+-*/"), kids, kids),
            st.tuples(st.sampled_from(["neg", "inv"]), kids),
        ),
        max_leaves=6,
    )


_OPS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
    "neg": lambda x: -x,
    "inv": lambda x: x.inverse() if isinstance(x, Scalar) else 1 / x,
}


def _build(sympy, tree, params, symbols, check):
    """(value, sympy expression) of a tree, calling ``check(value,
    expression)`` after every operation; None after a division by zero,
    which must raise DivisionByZero."""
    kind = tree[0]
    if kind == "p":
        return Scalar.param(params, tree[1]), symbols[tree[1]]
    if kind == "f":
        _, name, k = tree
        return Scalar.param(params, name) + k, symbols[name] + k
    if kind in ("c", "n"):
        v = Fraction(tree[1])
        s = Scalar.of(params, v) if kind == "c" else tree[1]
        return s, sympy.Rational(v.numerator, v.denominator)
    kids = [_build(sympy, t, params, symbols, check) for t in tree[1:]]
    if None in kids:
        return None
    values = [x for x, _ in kids]
    exprs = [e for _, e in kids]
    if not any(isinstance(x, Scalar) for x in values):
        values[0] = Scalar.of(params, values[0])
    divisor = exprs[-1] if kind in ("/", "inv") else None
    if divisor is not None and sympy.cancel(divisor) == 0:
        with pytest.raises((DivisionByZero, ZeroDivisionError)):
            _OPS[kind](*values)
        return None
    out = _OPS[kind](*values)
    expr = 1 / exprs[0] if kind == "inv" else _OPS[kind](*exprs)
    check(out, expr)
    return out, expr


def _assert_canonical(x, constant_valued):
    """x is in canonical form: the constant form when its value is a
    constant, else c*P/Q with integer coefficients, P and Q primitive and
    coprime (sympy decides), positive leading coefficients and not both 1;
    num and den are integer polynomials that rebuild x."""
    sympy = pytest.importorskip("sympy")
    for p in (x.num, x.den):
        assert p.params == x.params
        assert all(type(v) is int and v for v in p.terms.values())
    assert (x.value is not None) == constant_valued
    if constant_valued:
        v = x.value
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1)
        assert Scalar(x.num, x.den) == x
        return
    c, P, Q = x._parts
    assert (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)
    assert not (P.is_one() and Q.is_one())
    for p in (P, Q):
        assert p.params == x.params and p.terms
        assert all(type(v) is int and v for v in p.terms.values())
        assert math.gcd(*p.terms.values()) == 1
        assert p.leading()[1] > 0
    assert sympy.gcd(_to_sympy(sympy, P), _to_sympy(sympy, Q)).is_number
    assert Scalar(x.num, x.den) == x and hash(Scalar(x.num, x.den)) == hash(x)


def _to_sympy(sympy, p):
    """The integer polynomial p as a sympy expression in its parameters."""
    symbols = sympy.symbols(p.params) if p.params else ()
    return sum(
        (v * sympy.Mul(*(s**k for s, k in zip(symbols, e))) for e, v in p.terms.items()),
        sympy.Integer(0),
    )


def test_every_operation_keeps_the_canonical_layout():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # one tree strategy per context, built once
    trees = {p: _trees(st, p, factors=True) for p in [("a",), ("a", "b"), ("a", "b", "c", "d")]}

    def check(x, expr):
        assert isinstance(x, Scalar)
        _assert_canonical(x, not sympy.cancel(expr).free_symbols)

    def undone(x, ex, y, ey):
        """Each operation with y, then its inverse: the results are
        canonical and the inverse gives x back. Undoing makes factors
        cancel, the work that reduction has to get right."""
        steps = [("+", "-"), ("-", "+")]
        if not y.is_zero():
            steps += [("*", "/"), ("/", "*")]
        for op, back in steps:
            there = _OPS[op](x, y)
            check(there, _OPS[op](ex, ey))
            again = _OPS[back](there, y)
            _assert_canonical(again, x.value is not None)
            assert again == x and hash(again) == hash(x)

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        case=st.sampled_from(sorted(trees)).flatmap(lambda p: st.tuples(st.just(p), trees[p], trees[p]))
    )
    def run(case):
        params, left, right = case
        symbols = {name: sympy.Symbol(name) for name in params}
        built = [_build(sympy, t, params, symbols, check) for t in (left, right)]
        if None not in built:
            (x, ex), (y, ey) = built
            # a leaf may be a bare int or Fraction
            undone(Scalar.of(params, 0) + x, ex, Scalar.of(params, 0) + y, ey)

    run()


def test_arithmetic_agrees_with_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def agree(x, expr, params, symbols):
        assert isinstance(x, Scalar)
        expr = sympy.cancel(expr)
        printed = sympy.parse_expr(str(x).replace("^", "**"), local_dict=symbols)
        assert sympy.cancel(printed - expr) == 0
        assert parse_scalar(str(x), params) == x
        if expr.free_symbols:
            assert x.value is None
            assert Scalar(x.num, x.den) == x
            return
        q = Fraction(int(expr.p), int(expr.q))
        constant = Scalar.of(params, q)
        assert x == constant and hash(x) == hash(constant)
        assert x.value == q
        assert type(x.value) is (int if q.denominator == 1 else Fraction)
        # the integer pair of the constant
        assert (x.num, x.den) == (
            Polynomial.constant(params, q.numerator),
            Polynomial.constant(params, q.denominator),
        )

    trees = {p: _trees(st, p) for p in [(), ("a", "b"), ("a", "b", "c", "d")]}

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hypothesis.given(case=st.sampled_from(sorted(trees)).flatmap(lambda p: st.tuples(st.just(p), trees[p])))
    def check(case):
        params, tree = case
        symbols = {name: sympy.Symbol(name) for name in params}
        _build(sympy, tree, params, symbols, lambda x, e: agree(x, e, params, symbols))

    check()


def test_laurent_monomial_arithmetic_agrees_with_the_gcd_path_and_sympy():
    # products and sums of two Laurent monomials c*x^k run on exponent
    # tuples; each result must be the canonical form the gcd path gives
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coefficients = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))

    def monomial(params, c, e):
        """c*x^e through the constructor, which runs the gcd path."""
        num = Polynomial(params, {tuple(max(k, 0) for k in e): c.numerator})
        den = Polynomial(params, {tuple(max(-k, 0) for k in e): c.denominator})
        return Scalar(num, den)

    def related(case):
        # the second operand is unrelated, the inverse monomial (products
        # cancel to a constant), the same monomial, or its negative (sums
        # cancel to zero)
        params, c1, e1, c2, e2, how = case
        if how == "inverse":
            e2 = tuple(-k for k in e1)
        elif how == "same":
            e2 = e1
        elif how == "negated":
            c2, e2 = -c1, e1
        return params, c1, e1, c2, e2

    def pairs(params):
        exponents = st.tuples(*[st.integers(-3, 3)] * len(params))
        how = st.sampled_from(["free", "inverse", "same", "negated"])
        return st.tuples(st.just(params), coefficients, exponents, coefficients, exponents, how).map(related)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        case=st.sampled_from([("a",), ("a", "b"), ("a", "b", "c", "d")]).flatmap(pairs)
    )
    def check(case):
        params, c1, e1, c2, e2 = case
        x, y = monomial(params, c1, e1), monomial(params, c2, e2)
        ex, ey = (sympy.cancel(_to_sympy(sympy, v.num) / _to_sympy(sympy, v.den)) for v in (x, y))
        unreduced = {
            "*": (x.num * y.num, x.den * y.den),
            "/": (x.num * y.den, x.den * y.num),
            "+": (x.num * y.den + y.num * x.den, x.den * y.den),
            "-": (x.num * y.den - y.num * x.den, x.den * y.den),
        }
        for op, (num, den) in unreduced.items():
            got, want = _OPS[op](x, y), sympy.cancel(_OPS[op](ex, ey))
            _assert_canonical(got, not want.free_symbols)
            assert sympy.cancel(_to_sympy(sympy, got.num) / _to_sympy(sympy, got.den) - want) == 0
            assert got == Scalar(got.num, got.den) == Scalar(num, den)
            assert hash(got) == hash(Scalar(num, den))

    check()


def _fraction_calls(fn):
    """Names of the functions of the fractions module that run inside fn()."""
    import fractions

    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            seen.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


def test_polynomial_arithmetic_and_gcd_run_no_fraction_code():
    xy = ("x", "y")
    f = parse_scalar("(x + y)*(x - 2*y + 1)*(x^2 + y)", xy).num
    g = parse_scalar("(x + y)*(y^2 - 3*x)", xy).num
    h = parse_scalar("(x - 3)^4*(x + 2)^3", xy).num
    a = parse_scalar("(2*x^2 - 3*y)/(6*x*y + 4)", xy)
    b = parse_scalar("(3/4*x + 1/6)/(x - y)", xy)
    c = Scalar.of(xy, Fraction(-5, 6))

    def polynomial_work():
        assert poly_gcd(f, g) == parse_scalar("x + y", xy).num
        assert poly_gcd(f * h, g * h) == parse_scalar("(x + y)*(x - 3)^4*(x + 2)^3", xy).num
        assert poly_divexact(f * g, g) == f
        assert ((f + g) * (f - g) - (f * f - g * g)).is_zero()
        assert (-f).scale(3) == f.scale(-3)

    def scalar_work():
        x = (a + b) * (a - b) / (b * c + a)
        y = (x - c).inverse() * a * a - b / c
        assert (y - y).is_zero() and (x / x).is_one()
        assert (a * c + c * b - c * (a + b)).is_zero()

    assert _fraction_calls(polynomial_work) == set()
    assert _fraction_calls(scalar_work) == set()


def test_integer_literal_above_the_digit_limit_is_a_located_parse_error():
    longest = "1" * MAX_INT_DIGITS
    assert sc(longest) == Scalar.of(P, int(longest))
    with pytest.raises(ParseError) as info:
        sc("b + 1" + longest)
    assert info.value.column == 5
    assert f"{MAX_INT_DIGITS + 1} digits exceeds the limit {MAX_INT_DIGITS}" in str(info.value)


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "-0",
        "007",
        "-12",
        "+1",
        "-",
        "--1",
        " 1",
        "1 ",
        pytest.param("7" * MAX_INT_DIGITS, id="longest"),
        pytest.param("-" + "7" * MAX_INT_DIGITS, id="longest-negated"),
        pytest.param("7" * (MAX_INT_DIGITS + 1), id="too-long"),
        pytest.param("-" + "7" * (MAX_INT_DIGITS + 1), id="too-long-negated"),
        pytest.param("\u0664\u0662", id="arabic-indic-42"),
        pytest.param("-\u0967\u0966", id="devanagari-minus-10"),
        # a digit to str.isdigit but not a decimal digit to int or \d
        pytest.param("\u00b2", id="superscript-two"),
    ],
)
@pytest.mark.parametrize("params", [(), P])
def test_integer_literals_parse_as_the_tokenizer_does(text, params):
    # parse_scalar reads a bare integer literal without the tokenizer; it
    # must give what the tokenizer and parser give, value or located error
    def outcome(parse):
        try:
            v = parse()
        except ParseError as exc:
            return str(exc), exc.column
        assert type(v) is Scalar and v.params == params and type(v.value) is int
        return v

    want = outcome(lambda: _Parser(_tokenize(text), params).expr())
    assert outcome(lambda: parse_scalar(text, params)) == want


QUOTIENTS = ["1/2", "-1/2", "2/4", "-0/3", "007/010", "6/3", "-4/2",
             "9" * MAX_INT_DIGITS + "/" + "7" * MAX_INT_DIGITS,
             "-" + "7" * MAX_INT_DIGITS + "/" + "9" * MAX_INT_DIGITS, "\u0664/\u0666"]


@pytest.mark.parametrize(
    "text",
    [
        *(pytest.param(t, id=t if len(t) < 10 else f"{len(t)}-characters") for t in QUOTIENTS),
        "1/0",
        "-1/0",
        "0/000",
        "1/-2",
        "--1/2",
        "1/2/3",
        "1 /2",
        "1/2 ",
        "/2",
        "1/",
        pytest.param("9" * (MAX_INT_DIGITS + 1) + "/7", id="numerator-too-long"),
        pytest.param("-9/" + "7" * (MAX_INT_DIGITS + 1), id="denominator-too-long"),
    ],
)
@pytest.mark.parametrize("params", [(), P])
def test_quotient_literals_parse_as_the_tokenizer_does(text, params):
    # parse_scalar reads a plain literal p/q, optionally negated, without the
    # tokenizer; it must give what the tokenizer and parser give, value or
    # located error
    def outcome(parse):
        try:
            v = parse()
        except ParseError as exc:
            return str(exc), exc.column
        assert type(v) is Scalar and v.params == params and type(v.value) in (int, Fraction)
        return v, str(v)

    want = outcome(lambda: _Parser(_tokenize(text), params).expr())
    assert outcome(lambda: parse_scalar(text, params)) == want


def test_quotient_literals_skip_the_tokenizer(monkeypatch):
    values = [parse_scalar(t) for t in QUOTIENTS]
    assert [str(v) for v in values[:7]] == ["1/2", "-1/2", "1/2", "0", "7/10", "2", "-2"]

    def tokenize(text):
        raise AssertionError(f"tokenized {text!r}")

    monkeypatch.setattr(scalars, "_tokenize", tokenize)
    assert [parse_scalar(t) for t in QUOTIENTS] == values
    # a zero denominator keeps the parser's error, located past the 0
    with pytest.raises(AssertionError, match="tokenized '1/0'"):
        parse_scalar("1/0")
    monkeypatch.undo()
    with pytest.raises(ParseError) as info:
        parse_scalar("1/0")
    assert (str(info.value), info.value.column) == ("division by zero (line 1, column 4)", 4)


@pytest.mark.parametrize("params", [(), P, L])
def test_zero_and_one_are_interned_per_parameter_context(params):
    for v in (0, 1):
        s = Scalar.of(params, v)
        assert Scalar.of(list(params), Fraction(v)) is s
        assert str(s) == str(v) and s == v and hash(s) == hash(v)


@pytest.mark.parametrize(
    "text, column",
    [("(2^1000)^1000", 10), ("((2^10)^100)^100", 14), ("(10^1000)^4*(10^1000)", 12), ("1/(7^1000)^6", 12)],
)
def test_numbers_above_the_digit_limit_are_refused_where_they_arise(text, column):
    with pytest.raises(ParseError) as info:
        sc(text)
    assert info.value.column == column
    assert f"more than {MAX_INT_DIGITS} digits" in str(info.value)


def test_values_just_below_the_digit_limit_parse_and_print():
    # 2^14000 has 4215 digits: the power estimate must not refuse it
    assert len(str(sc("(2^14)^1000"))) == 4215
    assert len(str(sc("(10^1000)^4 + 1"))) == 4001


def _scalar_texts(st, params):
    """Scalar strings from a small grammar: integers of up to 300 digits,
    the parameters, the four operations, and powers. Exponents up to 1000
    apply to constants only, so every example stays cheap to evaluate."""
    ints = st.sampled_from(["0", "1", "2", "7", "10", "9" * 50, "9" * 300])

    def grow(kids, exponents):
        binary = st.tuples(kids, st.sampled_from("+-*/"), kids).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
        power = st.tuples(kids, st.sampled_from(exponents)).map(lambda t: f"({t[0]})^{t[1]}")
        return st.one_of(binary, power)

    constants = st.recursive(ints, lambda kids: grow(kids, ["0", "1", "3", "200", "1000"]), max_leaves=5)
    leaves = st.one_of(constants, st.sampled_from(params)) if params else constants
    return st.recursive(leaves, lambda kids: grow(kids, ["0", "1", "2", "3"]), max_leaves=4)


def test_fuzzed_scalar_strings_parse_or_raise_parse_error():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    contexts = st.sampled_from([(), ("a",)])

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(case=contexts.flatmap(lambda p: st.tuples(st.just(p), _scalar_texts(st, p))))
    def check(case):
        params, text = case
        try:
            value = parse_scalar(text, params)
        except ParseError:
            return
        assert parse_scalar(str(value), params) == value

    check()


def test_poly_gcd_agrees_with_sympy_up_to_a_unit():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    params = ("a", "b")
    symbols = [sympy.Symbol(n) for n in params]
    monomials = st.tuples(st.integers(0, 3), st.integers(0, 2))
    polys = st.dictionaries(monomials, st.integers(-4, 4).filter(bool), max_size=4).map(
        lambda terms: Polynomial(params, {e: Fraction(c) for e, c in terms.items()})
    )
    singles = st.tuples(monomials, st.integers(-4, 4).filter(bool)).map(
        lambda ec: Polynomial(params, {ec[0]: Fraction(ec[1])})
    )
    # monomials other than 1
    contents = monomials.filter(any).map(lambda e: Polynomial(params, {e: Fraction(1)}))

    def settings(examples):
        return hypothesis.settings(
            max_examples=examples, deadline=None, derandomize=True, database=None
        )

    def to_sympy(p):
        a, b = symbols
        return sum((int(c) * a ** e[0] * b ** e[1] for e, c in p.terms.items()), sympy.Integer(0))

    def agrees(f, g):
        got = to_sympy(poly_gcd(f, g))
        want = sympy.gcd(to_sympy(f), to_sympy(g))
        if want == 0:
            assert got == 0
            return
        ratio = sympy.cancel(got / want)
        assert ratio.is_number and ratio != 0

    @settings(80)
    @hypothesis.given(f=polys, g=polys, h=polys)
    def common_factor(f, g, h):
        # a common factor h makes a nontrivial gcd likely
        agrees(f * h, g * h)

    @settings(30)
    @hypothesis.given(m=singles, g=polys, n=singles, swap=st.booleans())
    def single_term(m, g, n, swap):
        # one side is a single term; the other shares part of it when n does
        f, g = m, g * n
        agrees(*((g, f) if swap else (f, g)))

    @settings(30)
    @hypothesis.given(m=contents, f=polys, g=polys, h=polys)
    def shared_monomial_content(m, f, g, h):
        agrees(f * h * m, g * h * m)

    common_factor()
    single_term()
    shared_monomial_content()
