"""Expression DSL: parsing, printing, differentiation, evaluation."""

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from metallic_tm import exprs as E
from metallic_tm import manifold as mf
from metallic_tm.exprs import EvalError, ParseError, Var
from metallic_tm.scalars import MetallicScalar, half_root
from metallic_tm.verdicts import ResidualTracker

from conftest import cached_value, first_primes


def pt(*vals):
    return {Var("base", i + 1): v for i, v in enumerate(vals)}


# -- parsing -----------------------------------------------------------

def test_parse_basic():
    e = E.parse("x1 + 2*x2", 3)
    assert E.evaluate(e, pt(Fraction(1), Fraction(3), Fraction(0))) == 7


def test_parse_precedence_and_unary_minus():
    e = E.parse("-x1^2", 2)
    assert E.evaluate(e, pt(Fraction(3), Fraction(0))) == -9
    e = E.parse("2 - 3 - 4", 1)
    assert E.evaluate(e, pt(Fraction(0))) == -5
    e = E.parse("2 * x1 ^ -2", 1)
    assert E.evaluate(e, pt(Fraction(2))) == Fraction(1, 2)


def test_parse_rationals():
    e = E.parse("1/x3", 3)
    assert E.evaluate(e, pt(Fraction(0), Fraction(0), Fraction(4))) == Fraction(1, 4)


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as ei:
        E.parse("x1 + ", 2)
    assert ei.value.offset is not None
    with pytest.raises(ParseError):
        E.parse("x5", 3)  # out-of-range coordinate index
    # a constant that folds to an error is reported at its operator
    for text, offset in (("x1 + 1/(x1-x1)", 6), ("x1*0^-1", 4), ("0^(-2)", 1)):
        with pytest.raises(ParseError) as ei:
            E.parse(text, 1)
        assert ei.value.offset == offset
    # a digit outside ASCII is an error too: str.isdigit accepts a
    # superscript two, which int() rejects, and int() reads an Arabic-Indic
    # one or three or a fullwidth two as 1, 3 or 2
    for text, offset in (("1/x3\u00b2", 4), ("x\u0661", 0), ("\u0663*x1", 0), ("x1 + \uff12", 5)):
        with pytest.raises(ParseError) as ei:
            E.parse(text, 3)
        assert ei.value.offset == offset
    # MAX_NESTING - 1 parentheses and signs around an operand parse; more
    # are an error at the first token too deep, not a RecursionError
    top = E.MAX_NESTING
    assert E.parse("(" * (top - 2) + "-x1" + ")" * (top - 2), 1) == -Var("base", 1)
    for text, offset in (("(" * 170 + "x1" + ")" * 170, top), ("-(" * 60 + "x1" + ")" * 60, top),
                         ("x1^(" * 170 + "2" + ")" * 170, 4 * top)):
        with pytest.raises(ParseError, match="nested deeper") as ei:
            E.parse(text, 1)
        assert ei.value.offset == offset


def test_long_integers_and_large_powers_are_syntax_errors():
    """A digit string longer than the interpreter converts is an error at its
    offset.  An exponent past MAX_EXPONENT, written or as the product of the
    exponents of a power of a power, and a power of a constant past
    64 * MAX_EXPONENT bits are errors at the ^.  A constant power or product
    with more digits than the interpreter converts to a string is an error
    at its ^ or *: (2^999)^64 has 19,247 digits, and 2^999 has 301."""
    long = "1" * 5000
    for text, offset in ((long, 0), ("x1 + " + long, 5), ("x" + long, 0), ("x1^" + long, 3),
                         ("x1^(" + long + ")", 4), ("x1^99999999999", 2), ("0*2^99999999999", 3),
                         ("x1^-1001", 2), ("x1^(2*501)", 2), ("(x1^100)^100", 8),
                         ("x1^100^-100", 6), ("(x1^-2)^-501", 7), ("(2^999)^65", 7),
                         ("(2^999)^64", 7), ("x1*" + "2^999*" * 14 + "2^999", 86)):
        with pytest.raises(ParseError) as ei:
            E.parse(text, 1)
        assert ei.value.offset == offset, text[:12]
    x1, top = Var("base", 1), E.MAX_EXPONENT
    assert E.parse(f"x1^{top}", 1) == E.pow_(x1, top)
    assert E.parse("(x1^-10)^100", 1) == E.pow_(x1, -top)
    assert E.parse("(2^999)^14", 1) == E.const(2 ** (999 * 14))
    assert E.parse("2^999*" * 13 + "2^999", 1) == E.const(2 ** (999 * 14))


def test_exact_mode_rejects_transcendentals():
    # the language has no analytic functions, so exp(x1) never reaches
    # exact evaluation, and a Decimal coordinate is not an exact scalar
    with pytest.raises(ParseError, match="unknown identifier 'exp'") as ei:
        E.parse("exp(x1)", 1)
    assert ei.value.offset == 0
    with pytest.raises(TypeError, match="not an exact scalar"):
        E.evaluate(E.parse("x1", 1), pt(Decimal("2.718281828459045")))


# inf - inf in floats at (100.0, 100.0, 2.0), and 100^300 exactly at (100, 100, 2)
NAN_AT_100 = "x1^150*x2^150*x3 - x1^150*x2^150*(x3+1)/(x3+1)"


FLOAT_RANGE = "float evaluation failed: "
ZERO_BASE = "division by zero at point in "


@pytest.mark.parametrize("e, coords, message", [
    (E.parse("x1^400", 1), (1e3,), FLOAT_RANGE + "x1^400 is past the float range"),
    (E.Const(3 ** 729), (1.0,), FLOAT_RANGE),
    (E.parse("x1^-2", 1), (0.0,), ZERO_BASE + "x1^(-2)"),
    (E.parse("x1^150*x2^150", 2), (100.0, 100.0), FLOAT_RANGE + "the value is inf"),
    (E.parse(NAN_AT_100, 3), (100.0, 100.0, 2.0), FLOAT_RANGE + "the value is nan"),
    (E.parse("x2*(x1 + 1)^150 + 1", 2), (1e3, 1.0),
     FLOAT_RANGE + "(x1 + 1)^150 is past the float range"),
    (E.parse("x2 + (x1 - 1)^-2", 2), (1.0, 5.0), ZERO_BASE + "(x1 - 1)^(-2)"),
], ids=["pow-overflow", "const-overflow", "zero-to-negative-power", "inf", "nan",
        "inner-pow-overflow", "inner-zero-to-negative-power"])
def test_float_mode_failures_are_eval_errors(e, coords, message):
    """Every float failure is an EvalError, and so is a value past the
    float range that no operation raised for: inf, or nan, which no
    tolerance ranks.  A power that overflows is named in the message, and a
    zero base with a negative exponent is a division by zero that names the
    power, with the one text of both kernels."""
    with pytest.raises(EvalError, match="^" + re.escape(message)):
        E.evaluate(e, pt(*coords))
    if message.startswith(ZERO_BASE):
        with pytest.raises(EvalError, match=f"^{re.escape(message)}$"):
            E.evaluate(e, pt(*map(int, coords)))


# -- structural simplification ------------------------------------------

def test_like_terms_cancel_structurally():
    x = Var("base", 1)
    e = E.add(E.mul(x, x), E.mul(E.const(-1), E.mul(x, x)))
    assert e == E.ZERO


def test_add_keeps_terms_that_do_not_merge():
    """A term that meets no like term comes back as the same object; terms
    that meet still fold, and a constant times an inner sum still
    distributes over it and cancels termwise."""
    x1, x2, y1 = Var("base", 1), Var("base", 2), Var("fiber", 1)
    a, b, c = E.mul(E.const(3), x1, x2), E.pow_(y1, 2), E.mul(x1, y1)
    s = E.add(a, b, E.const(5), c)
    assert [t is u for t, u in zip(s.terms, (a, b, c))] == [True, True, True]
    assert E.add(a, s).terms[0] == E.mul(E.const(6), x1, x2)
    assert E.add(s, E.mul(E.const(-1), s)) is E.ZERO
    inner = E.add(x1, x2)
    assert E.add(E.mul(E.const(-2), inner), x1, x2, x1, x2) is E.ZERO
    assert E.add(E.mul(E.const(2), inner), E.mul(E.const(-2), x1)) == E.mul(E.const(2), x2)


def test_constant_folding():
    e = E.mul(E.const(2), E.const(3), Var("base", 1))
    assert E.evaluate(e, pt(Fraction(5))) == 30
    assert E.add(E.const(2), E.const(-2)) == E.ZERO


# -- hash-consing ----------------------------------------------------------

def test_equal_trees_are_one_object():
    """Parsing, the operators, the node constructors and diff all return the
    one node of a tree."""
    x1, x2, x3 = (Var("base", i) for i in (1, 2, 3))
    parsed = E.parse("x2*x3 + 2*x1/x3", 3)
    assert x2 * x3 + 2 * x1 / x3 is parsed
    assert E.Add([E.Mul([x2, x3]), E.Mul([E.Const(2), x1, E.Pow(x3, -1)])]) is parsed
    assert E.diff(E.parse("x1*x2*x3 + x1^2/x3", 3), x1) is parsed
    assert E.Pow(x1, 2) is E.parse("x1^2", 3) is x1 ** 2
    assert Var("fiber", 2) is Var("fiber", 2) is not Var("base", 2)


def test_constants_of_two_types_are_two_nodes():
    """An int and a Fraction constant are one Fraction node, and a multiple
    of sqrt(p^2 + 4q) is refused rather than made a second kind of constant
    node, so no expression carries sigma."""
    assert E.Const(Fraction(1)) is E.Const(1) is E.ONE
    assert type(E.Const(1).value) is Fraction
    for c in (half_root(1, 1), MetallicScalar(-3, 3, 5)):
        with pytest.raises(TypeError):
            E.Const(c)


def test_add_and_mul_keep_the_type_of_a_constant_argument():
    """1 and Fraction(1) are one argument of the memoised add and mul, and
    the constant they leave in the tree is a Fraction."""
    y = Var("fiber", 9)
    for c in (1, Fraction(1), 1):
        assert E.add(y, c) is E.Add([y, E.ONE])
        assert E.mul(y, c) is y
        assert type(E.add(y, c).terms[-1].value) is Fraction


def test_nodes_refuse_attribute_assignment():
    x1 = Var("base", 1)
    for node, name in ((x1, "index"), (E.ONE, "value"), (x1 + 1, "terms"),
                       (2 * x1 * x1, "factors"), (1 / x1, "num"), (x1 ** 3, "base")):
        with pytest.raises(AttributeError):
            setattr(node, name, E.ZERO)
    assert x1.index == 1 and E.ONE.value == 1


# -- differentiation -----------------------------------------------------

def test_diff_polynomial():
    x, y = Var("base", 1), Var("base", 2)
    e = E.add(E.mul(x, x, y), E.mul(E.const(3), x))
    d = E.diff(e, x)
    assert E.evaluate(d, pt(Fraction(2), Fraction(5))) == 23  # 2xy + 3


def test_diff_quotient():
    x = Var("base", 1)
    e = E.div(E.ONE, E.pow_(x, 2))
    d = E.diff(e, x)
    assert E.evaluate(d, pt(Fraction(2))) == Fraction(-2, 8)


def test_diff_higher_order():
    x = Var("base", 1)
    e = E.pow_(x, 4)
    d3 = E.diff(E.diff(E.diff(e, x), x), x)
    assert E.evaluate(d3, pt(Fraction(1))) == 24


def test_diff_fiber_independence():
    xb, yf = Var("base", 1), Var("fiber", 1)
    assert E.diff(xb, yf) == E.ZERO
    assert E.diff(yf, yf) == E.ONE


# -- hypothesis property tests --------------------------------------------

def _printable(v):
    """Whether the printer writes the rational ``v``: neither its numerator
    nor its denominator has more digits than the interpreter converts."""
    return max(abs(v.numerator), v.denominator) < 10 ** sys.get_int_max_str_digits()


def _past_bounds(e, k):
    """Whether ``pow_(e, k)`` passes the bounds of MAX_EXPONENT: by the
    exponent it folds to, or by the bits of a power of a constant; or
    whether the power of a constant has more digits than the printer writes."""
    if isinstance(e, E.Const):
        v = e.value
        bits = max(v.numerator.bit_length(), v.denominator.bit_length())
        return (abs(k) > E.MAX_EXPONENT or abs(k) * bits > 64 * E.MAX_EXPONENT
                or not _printable(v ** k))
    return abs(k * (e.exponent if isinstance(e, E.Pow) else 1)) > E.MAX_EXPONENT


# powers are drawn within the bounds, which pow_ enforces
exprs3 = st.deferred(lambda: st.one_of(
    st.integers(-4, 4).map(E.const),
    st.integers(1, 3).map(lambda i: Var("base", i)),
    st.tuples(exprs3, exprs3).map(lambda t: E.add(*t)),
    st.tuples(exprs3, exprs3).map(lambda t: E.mul(*t)),
    st.tuples(exprs3, st.integers(1, 3)).filter(lambda t: not _past_bounds(*t))
    .map(lambda t: E.pow_(*t)),
))

positive_pt = st.tuples(
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
)


def _constant_term(e):
    """The constant term of ``e`` that ``add`` folds a constant into; a
    coefficient of a sum is distributed over its terms."""
    if isinstance(e, E.Const):
        return e.value
    c, part = E._split_coeff(e)
    if len(part) == 1 and isinstance(part[0], E.Add):
        return c.value * sum(t.value for t in part[0].terms if isinstance(t, E.Const))
    return 0


# powers b^k of constants, within the bounds and past them
const_powers = st.lists(st.tuples(st.integers(-2 ** 999, 2 ** 999).filter(bool),
                                  st.integers(-64, 64)), max_size=4)
# denominators b of constants 1/b, whose sum may pass the digit limit
reciprocals = st.lists(st.integers(-2 ** 999, 2 ** 999).filter(bool), max_size=16)


@settings(max_examples=60, deadline=None)
@given(exprs3, st.lists(st.integers(1, 3), max_size=7), reciprocals, const_powers, positive_pt)
# x1^2 cubed six times folds to x1^1458, which the parser refuses to read
@example(e=Var("base", 1), powers=[2, 3, 3, 3, 3, 3, 3], addends=[], factors=[],
         coords=(Fraction(1),) * 3)
# (2^999)^64 has 19,247 digits, and fifteen factors 2^999 have 4,509
@example(e=E.ONE, powers=[], addends=[], factors=[(2 ** 999, 64)], coords=(Fraction(1),) * 3)
@example(e=Var("base", 1), powers=[], addends=[], factors=[(2 ** 999, 1)] * 15,
         coords=(Fraction(1),) * 3)
# x1 + 1/2 + 1/3 + 1/5 + ... over the first 1,500 primes passes 4,300 digits
@example(e=Var("base", 1), powers=[], addends=first_primes(1500), factors=[],
         coords=(Fraction(1),) * 3)
def test_print_parse_round_trip(e, powers, addends, factors, coords):
    """``e`` raised to each of ``powers`` in turn, plus 1/b for each b of
    ``addends``, then multiplied by each constant power of ``factors``,
    prints as text that parses back to the same value.  Or else pow_, add
    or mul refuses the first power past the bounds of MAX_EXPONENT, or the
    first constant with more digits than the printer writes, when it is
    built."""
    for k in powers:
        if _past_bounds(e, k):
            with pytest.raises(EvalError, match="over"):
                E.pow_(e, k)
            return
        e = E.pow_(e, k)
    for b in addends:
        if not _printable(_constant_term(e) + Fraction(1, b)):
            with pytest.raises(EvalError, match="over"):
                E.add(e, Fraction(1, b))
            return
        e = E.add(e, Fraction(1, b))
    for b, k in factors:
        c = E.const(b)
        if _past_bounds(c, k):
            with pytest.raises(EvalError, match="over"):
                E.pow_(c, k)
            return
        c = E.pow_(c, k)
        coeff = (e if isinstance(e, E.Const) else E._split_coeff(e)[0]).value
        if not _printable(coeff * c.value):
            with pytest.raises(EvalError, match="over"):
                E.mul(e, c)
            return
        e = E.mul(e, c)
    text = E.to_str(e)
    e2 = E.parse(text, 3)
    p = pt(*coords)
    assert E.evaluate(e, p) == E.evaluate(e2, p)


@pytest.mark.parametrize("text, printed", [
    ("1/(x1*x2 - x2*x1)", "(x1*x2 - x2*x1)^(-1)"),
    ("-x1*x2 + x1", "-x1*x2 + x1"),
    ("x1 - x2", "x1 - x2"),
    ("-x1", "-x1"),
    ("-(x1 + x2)*x3", "-(x1 + x2)*x3"),
    ("(-x1*x2)^2", "(-x1*x2)^2"),
    ("-x1/x2", "-x1*x2^(-1)"),
    ("x3 - 2*x1", "x3 - 2*x1"),
])
def test_minus_one_coefficient_prints_as_unary_minus(text, printed):
    """A product with coefficient -1 prints with a unary minus, after the
    minus of a sum too, and parses back to the same tree."""
    e = E.parse(text, 3)
    assert E.to_str(e) == printed
    assert E.parse(printed, 3) == e


# the bases of a product: x1..x3 and sums of two or three of them
product_bases = st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                 (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
product_exponents = st.one_of(st.sampled_from([1, -1]), st.integers(-3, 3),
                              st.sampled_from([600, -600, E.MAX_EXPONENT, -E.MAX_EXPONENT]))
nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=8).filter(bool)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.booleans(), product_bases, product_exponents), max_size=8),
       st.tuples(nonzero, nonzero, nonzero))
def test_products_keep_one_power_per_base(ops, coords):
    """Products and quotients of powers of x1..x3 and of sums of them have
    the value of their factors multiplied as plain Fractions, one power per
    base unless the exponents of a base sum past MAX_EXPONENT, no power past
    MAX_EXPONENT, and a printed form that parses back to the same node."""
    e, want = E.ONE, Fraction(1)
    for divide, used, k in ops:
        base = E.add(*(Var("base", i + 1) for i in range(3) if used[i]))
        value = sum(c for c, u in zip(coords, used) if u)
        assume(value != 0)
        f = E.pow_(base, k)
        e, want = (E.div(e, f), want / value ** k) if divide else (E.mul(e, f), want * value ** k)
    assert E.evaluate(e, pt(*coords)) == want
    for s in (s for s in _subtrees(e) if isinstance(s, E.Mul)):
        sums = {}
        for f in s.factors:
            base, k = (f.base, f.exponent) if isinstance(f, E.Pow) else (f, 1)
            sums[base] = sums.get(base, 0) + k
        assert len(sums) == len(s.factors) or max(map(abs, sums.values())) > E.MAX_EXPONENT
    assert all(abs(s.exponent) <= E.MAX_EXPONENT for s in _subtrees(e) if isinstance(s, E.Pow))
    assert E.parse(E.to_str(e), 3) is e


def _cubed(e, times):
    for _ in range(times):
        e = E.pow_(e, 3)
    return e


@settings(max_examples=40, deadline=None)
@given(exprs3, positive_pt)
# x1 + 2^27: a float64 central difference cancels to 1.0133 instead of 1.
@example(e=E.add(Var("base", 1), _cubed(E.const(2), 3)),
         coords=(Fraction(1, 4),) * 3)
# (x1 + 27)^243 and 3^729 overflow float64.
@example(e=_cubed(E.add(Var("base", 1), _cubed(E.const(3), 1)), 5),
         coords=(Fraction(1, 4),) * 3)
@example(e=_cubed(E.const(3), 6), coords=(Fraction(1, 4),) * 3)
# (-500 (x1^2 - 1))^3 at its triple root x1 = 1: the derivative is 0, and
# the h^2 term of one quotient, 10^9 h^2, is 10^-3.
@example(e=E.pow_(E.mul(E.const(-500), E.add(E.pow_(Var("base", 1), 2), E.const(-1))), 3),
         coords=(Fraction(1), Fraction(1, 4), Fraction(1, 4)))
def test_diff_matches_finite_difference(e, coords):
    """diff agrees with central difference quotients taken in exact
    rational arithmetic.  exprs3 builds polynomials, so a quotient differs
    from the derivative by even powers of its step alone; the extrapolation
    from the steps h and h/2 cancels the h^2 term and leaves O(h^4)."""
    x = Var("base", 1)
    d = E.diff(e, x)
    p = pt(*coords)

    def quotient(h):
        up, dn = dict(p), dict(p)
        up[x] += h
        dn[x] -= h
        return (E.evaluate(e, up) - E.evaluate(e, dn)) / (2 * h)

    h = Fraction(1, 10**6)
    fd = (4 * quotient(h / 2) - quotient(h)) / 3
    exact = E.evaluate(d, p)
    assert abs(exact - fd) <= Fraction(1, 10**4) * abs(exact) + Fraction(1, 10**3)


@settings(max_examples=40, deadline=None)
@given(exprs3, exprs3, positive_pt)
def test_diff_linearity(e1, e2, coords):
    x = Var("base", 1)
    p = pt(*coords)
    lhs = E.evaluate(E.diff(E.add(e1, e2), x), p)
    rhs = E.evaluate(E.add(E.diff(e1, x), E.diff(e2, x)), p)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(exprs3, exprs3, positive_pt)
def test_diff_product_rule(e1, e2, coords):
    x = Var("base", 1)
    p = pt(*coords)
    lhs = E.evaluate(E.diff(E.mul(e1, e2), x), p)
    rhs = E.evaluate(
        E.add(E.mul(E.diff(e1, x), e2), E.mul(e1, E.diff(e2, x))), p
    )
    assert lhs == rhs


def test_exact_evaluation_is_fraction():
    e = E.parse("x1/3 + x2^2", 2)
    v = E.evaluate(e, pt(Fraction(1), Fraction(1, 2)))
    assert v == Fraction(7, 12)
    assert isinstance(v, Fraction)


# -- evaluation through a value cache -------------------------------------

def _subtrees(e):
    """Every node of ``e``, parents before children."""
    if isinstance(e, E.Add):
        kids = e.terms
    elif isinstance(e, E.Mul):
        kids = e.factors
    elif isinstance(e, E.Pow):
        kids = (e.base,)
    else:
        kids = ()
    return [e] + [s for k in kids for s in _subtrees(k)]


def _outcome(e, values):
    """repr of the value of ``e`` through ``values`` (nan compares equal to
    nan), or the error raised."""
    try:
        return repr(next(values.each([e])))
    except EvalError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(exprs3, st.integers(0, 3), positive_pt, st.sampled_from((Fraction, float)))
def test_value_cache_matches_plain_evaluation(e, k, coords, kind):
    """Evaluating every subtree and then the tree through one ``Values``
    gives what ``evaluate`` gives with a cache of its own, at exact and at
    float coordinates.  With k > 0 the tree also holds e / (x1 - k), which
    shares e and divides by zero at x1 = k."""
    if k:
        e = E.add(e, E.div(e, E.add(Var("base", 1), E.const(-k))))
    coords = tuple(map(kind, coords))
    values = E.Values([pt(*coords)])
    nodes = _subtrees(e)
    for s in reversed(nodes):
        _outcome(s, values)
    for s in nodes:
        assert _outcome(s, values) == _outcome(s, E.Values([pt(*coords)]))
        try:
            want = repr(E.evaluate(s, pt(*coords)))
        except EvalError as exc:
            want = str(exc)
        assert _outcome(s, values) == want


def test_coordinates_decide_the_arithmetic():
    """A point with no float coordinate evaluates exactly; one float
    coordinate makes every value a float.  The cache holds the value: a
    reduced pair of ints at an exact point, else a float."""
    e = E.parse("x1/3 + x2^2", 2)
    for coords, kind in (((Fraction(1), Fraction(1, 2)), Fraction),
                         ((1.0, 0.5), float), ((Fraction(1), 0.5), float)):
        values = E.Values([pt(*coords)])
        value, = values.each([e])
        assert type(value) is kind and value == pytest.approx(Fraction(7, 12))
        assert values.exact is (kind is Fraction)
        assert cached_value(values, e) == value
        assert values.cache[e] == [(7, 12) if kind is Fraction else value]
        assert E.evaluate(e, pt(*coords)) == value


def test_values_refuse_exact_and_float_points_together():
    """The values at every point are computed in one arithmetic, so exact
    and float points are not mixed: x1/10^400, exact at an exact point and
    0.0 in floats, never loses its exact value to a float point beside it."""
    e = E.parse("x1/10^400", 2)
    for points in ([pt(Fraction(1), Fraction(0)), pt(1.0, 0.0)],
                   [pt(1.0, 0.0), pt(Fraction(1), Fraction(0))]):
        with pytest.raises(E.ExprError, match="the points mix exact and float coordinates"):
            E.Values(points)
    assert list(E.Values([pt(Fraction(1), Fraction(0))]).each([e])) == [Fraction(1, 10 ** 400)]
    assert list(E.Values([pt(1.0, 0.0)]).each([e])) == [0.0]
    assert E.Values([]).exact


def test_values_keep_copies_of_the_points():
    """A point changed after ``Values`` took it changes no value there."""
    x1 = Var("base", 1)
    point = {x1: Fraction(1)}
    values = E.Values([point])
    point[x1] = 2.0
    assert values.exact and list(values.each([x1])) == [Fraction(1)]


@pytest.mark.parametrize("kind", [Fraction, float], ids=["exact", "float"])
def test_division_by_zero_raises_on_every_call(kind):
    """A failure stores nothing: the quotient and the sum above it are not
    cached, so they fail again, while the operands that did not fail are."""
    x1, x2 = Var("base", 1), Var("base", 2)
    quotient = E.div(E.ONE, E.add(x1, E.const(-1)))
    e = E.add(x2, quotient)
    values = E.Values([pt(kind(1), kind(5))])
    for _ in range(2):
        with pytest.raises(EvalError, match="division by zero at point in"):
            list(values.each([e]))
        with pytest.raises(EvalError, match="division by zero at point in"):
            E.evaluate(e, pt(kind(1), kind(5)))
    assert e not in values.cache and quotient not in values.cache
    assert cached_value(values, quotient.base) == 0 and cached_value(values, x2) == 5
    assert list(values.each([x2])) == [5]


def test_components_share_one_value_cache(base_points, monkeypatch):
    """Sibling components evaluated through one ``Values`` share its cache,
    so a subtree they share is computed once: exact evaluation reduces each
    sum and product by one gcd, and x1*x2 and the sum take one each.  The
    cache outlives the call."""
    x1, x2, x3 = (Var("base", i) for i in range(1, 4))
    shared = E.mul(x1, x2)
    arr = mf.asarray([E.add(shared, x3), E.pow_(shared, 2)])
    values = E.Values(base_points[:1])
    reduced = []
    monkeypatch.setattr(E, "gcd", lambda n, d: reduced.append((n, d)) or math.gcd(n, d))
    assert list(values.each(arr.flat)) == [3, 1]
    assert len(reduced) == 2
    assert cached_value(values, shared) == 1
    assert list(values.each(arr.flat)) == [3, 1] and len(reduced) == 2
    float_values = E.Values([{v: float(c) for v, c in base_points[0].items()}])
    assert list(float_values.each(arr.flat)) == [3.0, 1.0]


@pytest.mark.parametrize("kind", [Fraction, float], ids=["exact", "float"])
def test_the_first_failure_with_points_outer_is_reported(kind):
    """Two points that fail at different nodes: the first point fails at
    (x2 - 2)^-1, a later node than (x1 - 1)^-1, where the second point fails.
    The failure reported is the first met with points outer and components
    in order, the one the first point gives on its own, whether the two
    quotients are terms of one sum or two components."""
    x1, x2 = Var("base", 1), Var("base", 2)
    first = E.div(E.ONE, E.add(x1, E.const(-1)))
    second = E.div(E.ONE, E.add(x2, E.const(-2)))
    points = [pt(kind(3), kind(2)), pt(kind(1), kind(5))]
    message = re.escape("division by zero at point in (x2 - 2)^(-1)")
    for exprs in ([E.add(first, second)], [first, second]):
        with pytest.raises(EvalError, match=message):
            E.evaluate(exprs[-1], points[0])
        with pytest.raises(EvalError, match=message):
            list(E.Values(points).each(exprs))
    # the second point alone fails at the first quotient
    with pytest.raises(EvalError, match=re.escape("(x1 - 1)^(-1)")):
        list(E.Values(points[1:]).each([first, second]))


def test_a_deep_chain_evaluates_without_recursion():
    """A chain of 5,000 nested quotients (x1 + (x1 + ...)^-1)^-1 evaluates at
    an exact and at a float point, one by one and through
    ``ResidualTracker.track``: the walker keeps a stack of its own, so no
    depth reaches the interpreter's recursion limit."""
    x1 = Var("base", 1)
    e, exact, approx = x1, Fraction(1), 1.0  # the values at x1 = 1
    for _ in range(5000):
        e = E.div(E.ONE, E.add(x1, e))
        exact, approx = 1 / (1 + exact), 1.0 / (0 + 1.0 + approx)
    assert E.evaluate(e, {x1: Fraction(1)}) == exact
    assert E.evaluate(e, {x1: 1.0}) == approx
    x2 = Var("base", 2)
    chart = mf.ChartedManifold([x1, x2])
    points = [{x1: Fraction(1), x2: Fraction(0)}, {x1: Fraction(2), x2: Fraction(0)}]
    values = ResidualTracker().track(chart, E.Values(points), [e])
    assert values[0].flat == [exact] and type(values[1].flat[0]) is Fraction
    tracker = ResidualTracker()
    assert [v.flat for v in tracker.track(chart, E.Values([{x1: 1.0, x2: 0.0}]), [e])] == [[approx]]
    assert tracker.max_value == approx


def test_a_division_by_zero_under_a_deep_chain_names_it():
    """(c - v)^-1, with c a chain of 3,000 nested quotients and v its value at
    x1 = 1, fails there with an EvalError whose text prints the whole chain:
    the printer keeps a stack of its own, as the walker does."""
    x1 = Var("base", 1)
    c, text = E.ONE, "1"
    for _ in range(3000):
        c, text = E.div(E.ONE, E.add(x1, c)), f"(x1 + {text})^(-1)"
    v = E.evaluate(c, {x1: Fraction(1)})
    with pytest.raises(EvalError) as ei:
        E.evaluate(E.div(E.ONE, E.add(c, -v)), {x1: Fraction(1)})
    assert str(ei.value) == f"division by zero at point in ({text} - {v})^(-1)"


# -- exact evaluation on integer pairs, against plain Fractions ------------

def _fraction_value(e, point):
    """The value of ``e`` at ``point`` by plain Fraction arithmetic, taking
    the nodes in the order ``evaluate`` does and raising its EvalErrors."""
    if isinstance(e, E.Const):
        return e.value
    if isinstance(e, Var):
        return Fraction(point[e])
    if isinstance(e, E.Add):
        return sum((_fraction_value(t, point) for t in e.terms), Fraction(0))
    if isinstance(e, E.Mul):
        value = Fraction(1)
        for f in e.factors:
            value *= _fraction_value(f, point)
        return value
    base = _fraction_value(e.base, point)
    if base == 0 and e.exponent < 0:
        raise EvalError(f"division by zero at point in {E.to_str(e)}")
    return base ** e.exponent


def _fraction_outcome(e, point):
    try:
        return _fraction_value(e, point)
    except EvalError as exc:
        return exc


def _cancelled(a):
    """a + (-1)*a as drawn, a sum that cancels to 0."""
    return E.Add((a, E.Mul((E.MINUS_ONE, a))))


X1, X2 = Var("base", 1), Var("base", 2)
coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=4)

def _quotient(pair):
    """``E.div`` of a drawn (numerator, denominator) pair, or None where a
    factor of the denominator is 0 or a power of 0, which ``div`` refuses
    when it is built."""
    try:
        return E.div(*pair)
    except EvalError:
        return None


def _quotients(pairs):
    return pairs.map(_quotient).filter(lambda e: e is not None)


# trees built from the node classes, so that no simplification removes what
# is drawn: negative bases to negative odd and even powers, sums that cancel
# to 0 and products with a zero factor.  Quotients are built by E.div, as
# products with negative powers, and some divide by negative values.  A
# power's base is a leaf or a quotient of two, so powers nest at most once.
# A zero subtree is added to another term, so that not every tree is zero.
leaves = st.one_of(st.sampled_from([X1, X2]), coordinate.map(E.Const))
powers = st.tuples(st.one_of(leaves, _quotients(st.tuples(leaves, leaves))),
                   st.integers(-4, 4)).map(lambda t: E.Pow(*t))
raw_trees = st.recursive(
    st.one_of(leaves, powers),
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(E.Add),
        st.lists(kids, min_size=2, max_size=3).map(E.Mul),
        _quotients(st.tuples(kids, kids)),
        _quotients(st.tuples(kids, kids).map(lambda t: (t[0], E.Mul((E.MINUS_ONE, t[1]))))),
        st.tuples(kids, kids).map(lambda t: E.Add((_cancelled(t[0]), t[1]))),
        st.tuples(kids, kids, kids).map(lambda t: E.Add((E.Mul((t[0], E.ZERO, t[1])), t[2])))),
    max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(raw_trees, st.tuples(coordinate, coordinate))
@example(E.Add((X2, E.div(E.ONE, E.Add((X1, E.Const(-1)))))), (Fraction(1), Fraction(2)))
@example(E.Mul((X2, E.Pow(X1, -3))), (Fraction(0), Fraction(2)))
@example(E.div(E.Pow(X1, -3), E.Mul((E.MINUS_ONE, X2))), (Fraction(-1, 2), Fraction(3)))
@example(E.Pow(E.div(X2, X1), -2), (Fraction(-2), Fraction(3, 4)))
def test_exact_evaluation_matches_plain_fractions(e, coords):
    """At an exact point ``evaluate`` gives the Fraction that plain Fraction
    arithmetic gives, or raises the same EvalError.  Every subtree it
    computed is cached as a reduced pair with a positive denominator
    (``cached_value``), and a subtree that fails is never cached."""
    point = pt(*coords)
    values = E.Values([point])
    want = _fraction_outcome(e, point)
    if isinstance(want, EvalError):
        with pytest.raises(EvalError) as info:
            list(values.each([e]))
        assert str(info.value) == str(want)
    else:
        value, = values.each([e])
        assert type(value) is Fraction and value == want
    for s in _subtrees(e):
        outcome = _fraction_outcome(s, point)
        if isinstance(outcome, EvalError):
            assert s not in values.cache
        elif s in values.cache:
            assert cached_value(values, s) == outcome


# -- constant folding on int pairs, against plain Fractions ----------------

# BIG and 1/(BIG + 1) print, but BIG^2 and 1/BIG + 1/(BIG + 1) pass the digit limit
BIG = 10 ** (sys.get_int_max_str_digits() // 2 + 1)


def _given_forms(q):
    """The forms a constant ``q`` may be given in: a Fraction, a Const node,
    and an int when it is an integer."""
    forms = [q, E.Const(q)]
    if q.denominator == 1:
        forms.append(int(q))
    return st.sampled_from(forms)


folding_args = st.lists(st.one_of(
    st.just(X1),
    st.one_of(st.fractions(min_value=-4, max_value=4, max_denominator=6),
              st.sampled_from([Fraction(BIG), Fraction(1, BIG), Fraction(1, BIG + 1)]))
    .flatmap(_given_forms)),
    max_size=6)


def _folded_sum(k, s):
    """k*x1 + s as add builds it: the term, then the constant unless it is 0."""
    if not k:
        return E.Const(s)
    term = X1 if k == 1 else E.Mul((E.Const(k), X1))
    return E.Add((term, E.Const(s))) if s else term


def _folded_product(k, p):
    """p*x1^k as mul builds it: 0 absorbs, 1 drops out."""
    if not p or not k:
        return E.Const(p)
    power = X1 if k == 1 else E.Pow(X1, k)
    return power if p == 1 else E.Mul((E.Const(p), power))


@settings(max_examples=200, deadline=None)
@given(folding_args, coordinate)
@example([X1, -1], Fraction(1))  # 0 at x1 = 1
@example([X1, Fraction(1, BIG), E.Const(Fraction(1, BIG + 1))], Fraction(2))
@example([BIG, X1, E.Const(Fraction(BIG))], Fraction(2))
def test_add_and_mul_fold_constants_as_plain_fractions(args, x):
    """``add`` and ``mul`` give the node that plain Fraction arithmetic on
    the constant arguments, then ``Const``, gives beside x1, so int,
    Fraction and Const arguments of one value give one node, and 0 and 1
    drop out.  A folded constant past the digit limit is refused on every
    call: the memo stores no exception.  At an exact point the value is a
    Fraction, zero or not."""
    consts = [Fraction(a.value if isinstance(a, E.Const) else a) for a in args if a is not X1]
    k = len(args) - len(consts)
    s, p = sum(consts, Fraction(0)), Fraction(1)
    for c in consts:
        p *= c
    point = pt(x)
    for build, c, fold, value in ((E.add, s, _folded_sum, k * x + s),
                                  (E.mul, p, _folded_product, p * x ** k)):
        if not _printable(c):
            for _ in range(2):
                with pytest.raises(EvalError, match="over"):
                    build(*args)
            continue
        e = build(*args)
        assert e is fold(k, c)
        got = E.evaluate(e, point)
        assert type(got) is Fraction and got == value


def test_array_operators_build_the_explicit_trees():
    """Elementwise a - b and mf.add(a, b) on Expr arrays build
    E.add(a, E.mul(E.const(-1), b)) and E.add(a, b), and arr * c builds
    E.mul(c, a) for a constant c.  A sum of three terms stays one E.add:
    nesting collects like terms in another order."""
    x1, x2 = E.Var("base", 1), E.Var("base", 2)
    a = mf.asarray([E.add(x1, x2), x1, E.ZERO])
    b = mf.asarray([x1, E.mul(E.const(3), x2), x2])
    assert list(a - b) == [E.add(u, E.mul(E.const(-1), v)) for u, v in zip(a, b)]
    assert list(mf.add(a, b)) == [E.add(u, v) for u, v in zip(a, b)]
    assert list(b * E.const(2)) == [E.mul(E.const(2), v) for v in b]
    s = E.add(x1, x2)
    assert (s - x1) + x1 == E.add(x2, x1)
    assert E.add(s, E.mul(E.const(-1), x1), x1) == E.add(x1, x2) != E.add(x2, x1)
