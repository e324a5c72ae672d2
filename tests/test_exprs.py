"""Expression DSL: parsing, printing, differentiation, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metallic_tm import exprs as E
from metallic_tm.exprs import EvalError, ParseError, Var


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


def test_parse_calls():
    e = E.parse("sin(x1)", 1)
    v = E.evaluate(e, {Var("base", 1): 0.5}, mode="float")
    import math
    assert v == pytest.approx(math.sin(0.5))


def test_exact_mode_rejects_transcendentals():
    e = E.parse("exp(x1)", 1)
    with pytest.raises(EvalError):
        E.evaluate(e, pt(Fraction(1)), mode="exact")


@pytest.mark.parametrize("e, value", [
    (E.parse("x1^400", 1), 1e3),
    (E.Const(3 ** 729), 1.0),
    (E.parse("x1^-2", 1), 0.0),
    (E.parse("log(x1)", 1), 0.0),
], ids=["pow-overflow", "const-overflow", "zero-to-negative-power", "log-domain"])
def test_float_mode_failures_are_eval_errors(e, value):
    with pytest.raises(EvalError):
        E.evaluate(e, pt(value), mode="float")


# -- structural simplification ------------------------------------------

def test_like_terms_cancel_structurally():
    x = Var("base", 1)
    e = E.add(E.mul(x, x), E.mul(E.const(-1), E.mul(x, x)))
    assert e == E.ZERO


def test_constant_folding():
    e = E.mul(E.const(2), E.const(3), Var("base", 1))
    assert E.evaluate(e, pt(Fraction(5))) == 30
    assert E.add(E.const(2), E.const(-2)) == E.ZERO


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

exprs3 = st.deferred(lambda: st.one_of(
    st.integers(-4, 4).map(E.const),
    st.integers(1, 3).map(lambda i: Var("base", i)),
    st.tuples(exprs3, exprs3).map(lambda t: E.add(*t)),
    st.tuples(exprs3, exprs3).map(lambda t: E.mul(*t)),
    st.tuples(exprs3, st.integers(1, 3)).map(lambda t: E.pow_(*t)),
))

positive_pt = st.tuples(
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
)


@settings(max_examples=60, deadline=None)
@given(exprs3, positive_pt)
def test_print_parse_round_trip(e, coords):
    text = E.to_str(e)
    e2 = E.parse(text, 3)
    p = pt(*coords)
    assert E.evaluate(e, p) == E.evaluate(e2, p)


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
def test_diff_matches_finite_difference(e, coords):
    """diff agrees with a central difference quotient taken in exact
    rational arithmetic.  exprs3 builds polynomials, so the quotient differs
    from the derivative only by the O(h^2) truncation term."""
    x = Var("base", 1)
    d = E.diff(e, x)
    p = pt(*coords)
    h = Fraction(1, 10**6)
    up = dict(p)
    dn = dict(p)
    up[x] += h
    dn[x] -= h
    fd = (E.evaluate(e, up) - E.evaluate(e, dn)) / (2 * h)
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
