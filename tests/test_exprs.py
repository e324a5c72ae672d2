"""Expression DSL: parsing, printing, differentiation, evaluation."""

import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from metallic_tm import exprs as E
from metallic_tm import manifold as mf
from metallic_tm.exprs import EvalError, ParseError, Var
from metallic_tm.scalars import MetallicScalar


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


@pytest.mark.parametrize("e, value", [
    (E.parse("x1^400", 1), 1e3),
    (E.Const(3 ** 729), 1.0),
    (E.parse("x1^-2", 1), 0.0),
], ids=["pow-overflow", "const-overflow", "zero-to-negative-power"])
def test_float_mode_failures_are_eval_errors(e, value):
    with pytest.raises(EvalError):
        E.evaluate(e, pt(value))


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
    assert Var("fiber", 2) is E.parse("y2", 3)


def test_constants_of_two_types_are_two_nodes():
    """An int and a Fraction constant are one Fraction node, and an element
    of Q(sigma), even a rational one, is refused rather than made a second
    kind of constant node, so no expression carries sigma."""
    assert E.Const(Fraction(1)) is E.Const(1) is E.ONE
    assert type(E.Const(1).value) is Fraction
    for c in (MetallicScalar(1, 0, 1, 1), MetallicScalar(0, 1, 1, 1)):
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


# powers b^k of constants, within the bounds and past them
const_powers = st.lists(st.tuples(st.integers(-2 ** 999, 2 ** 999).filter(bool),
                                  st.integers(-64, 64)), max_size=4)


@settings(max_examples=60, deadline=None)
@given(exprs3, st.lists(st.integers(1, 3), max_size=7), const_powers, positive_pt)
# x1^2 cubed six times folds to x1^1458, which the parser refuses to read
@example(e=Var("base", 1), powers=[2, 3, 3, 3, 3, 3, 3], factors=[], coords=(Fraction(1),) * 3)
# (2^999)^64 has 19,247 digits, and fifteen factors 2^999 have 4,509
@example(e=E.ONE, powers=[], factors=[(2 ** 999, 64)], coords=(Fraction(1),) * 3)
@example(e=Var("base", 1), powers=[], factors=[(2 ** 999, 1)] * 15, coords=(Fraction(1),) * 3)
def test_print_parse_round_trip(e, powers, factors, coords):
    """``e`` raised to each of ``powers`` in turn, then multiplied by each
    constant power of ``factors``, prints as text that parses back to the
    same value.  Or else pow_ or mul refuses the first power past the
    bounds of MAX_EXPONENT, or the first constant with more digits than
    the printer writes, when it is built."""
    for k in powers:
        if _past_bounds(e, k):
            with pytest.raises(EvalError, match="over"):
                E.pow_(e, k)
            return
        e = E.pow_(e, k)
    for b, k in factors:
        c = E.const(b)
        if _past_bounds(c, k):
            with pytest.raises(EvalError, match="over"):
                E.pow_(c, k)
            return
        c = E.pow_(c, k)
        coeff = e.value if isinstance(e, E.Const) else E._split_coeff(e)[0]
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
    ("1/(x1*x2 - x2*x1)", "1/(x1*x2 - x2*x1)"),
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


# -- memoised evaluation at a Point ----------------------------------------

def _subtrees(e):
    """Every node of ``e``, parents before children."""
    if isinstance(e, E.Add):
        kids = e.terms
    elif isinstance(e, E.Mul):
        kids = e.factors
    elif isinstance(e, E.Div):
        kids = (e.num, e.den)
    elif isinstance(e, E.Pow):
        kids = (e.base,)
    else:
        kids = ()
    return [e] + [s for k in kids for s in _subtrees(k)]


def _outcome(e, point):
    """repr of the value (nan compares equal to nan), or the error raised."""
    try:
        return repr(E.evaluate(e, point))
    except EvalError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(exprs3, st.integers(0, 3), positive_pt, st.sampled_from((Fraction, float)))
def test_point_memo_matches_plain_evaluation(e, k, coords, kind):
    """Evaluating every subtree and then the tree at one Point gives what a
    plain dict gives, at exact and at float coordinates.  With k > 0 the
    tree also holds e / (x1 - k), which shares e and divides by zero at
    x1 = k."""
    if k:
        e = E.add(e, E.div(e, E.add(Var("base", 1), E.const(-k))))
    coords = tuple(map(kind, coords))
    point = E.Point(pt(*coords))
    nodes = _subtrees(e)
    for s in reversed(nodes):
        _outcome(s, point)
    for s in nodes:
        assert _outcome(s, point) == _outcome(s, pt(*coords))


def test_coordinates_decide_the_arithmetic():
    """A point with no float coordinate evaluates exactly; one float
    coordinate makes every value a float.  The one memo holds the value."""
    e = E.parse("x1/3 + x2^2", 2)
    for coords, kind in (((Fraction(1), Fraction(1, 2)), Fraction),
                         ((1.0, 0.5), float), ((Fraction(1), 0.5), float)):
        point = E.Point(pt(*coords))
        value = E.evaluate(e, point)
        assert type(value) is kind and value == pytest.approx(Fraction(7, 12))
        assert point.memo[e] is value
        assert E.evaluate(e, pt(*coords)) == value


@pytest.mark.parametrize("kind", [Fraction, float], ids=["exact", "float"])
def test_division_by_zero_raises_on_every_call(kind):
    e = E.add(Var("base", 2), E.div(E.ONE, E.add(Var("base", 1), E.const(-1))))
    point = E.Point(pt(kind(1), kind(5)))
    for _ in range(2):
        with pytest.raises(EvalError, match="division by zero at point"):
            E.evaluate(e, point)
    assert e not in point.memo
    assert E.evaluate(Var("base", 2), point) == 5


def test_point_is_read_only():
    x = Var("base", 1)
    point = E.Point({x: Fraction(1)})
    with pytest.raises(TypeError):
        point[x] = Fraction(2)
    with pytest.raises(TypeError):
        point |= {x: Fraction(2)}
    with pytest.raises(TypeError):
        del point[x]
    for name in ("update", "setdefault", "pop", "popitem", "clear"):
        with pytest.raises(TypeError, match="read-only"):
            getattr(point, name)(x)
    assert point == {x: Fraction(1)}


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
