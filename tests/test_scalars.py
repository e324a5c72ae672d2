"""Report values: rationals and rational multiples y*sqrt(p^2 + 4q).

The oracle of every test here is computed with Fractions and floats in the
test itself: the a + b*sigma form (a = -y p, b = 2y) of y*sqrt(d) and the
square y^2 d that orders magnitudes."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metallic_tm.scalars import (
    MetallicScalar,
    ScalarError,
    abs_greater,
    half_root,
    is_zero,
    scalar_float,
    scalar_str,
    sign,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
nonzero = rationals.filter(bool)


def _is_square(d):
    return math.isqrt(d) ** 2 == d


# the report holds y*sqrt(p^2 + 4q) only when p^2 + 4q is not a square
pq = st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(
    lambda t: not _is_square(t[0] ** 2 + 4 * t[1]))


def elems(p, q):
    return st.builds(lambda y: MetallicScalar(y, p, q), nonzero)


any_elem = pq.flatmap(lambda t: elems(*t))


def sigma_form(x):
    """(a, b) with x = a + b*sigma: y*sqrt(d) = y(2 sigma - p)."""
    return -x.y * x.p, 2 * x.y


def square(x):
    """x^2 as a Fraction."""
    return x.y * x.y * (x.p ** 2 + 4 * x.q) if isinstance(x, MetallicScalar) else Fraction(x) ** 2


def test_sigma_satisfies_quadratic():
    """sigma = p/2 + a/2 is a root of x^2 - p x - q exactly when
    (a/2)^2 = (p^2 + 4q)/4."""
    for p, q in [(1, 1), (1, 2), (2, 1), (3, 5)]:
        h = half_root(p, q)
        assert h * h == Fraction(p * p + 4 * q, 4)


@pytest.mark.parametrize("p,q,root", [(1, 2, 2), (2, 3, 3), (1, 6, 3)])
def test_rational_sigma(p, q, root):
    """When p^2 + 4q is a perfect square, a/2 = sigma - p/2 is a Fraction,
    and no multiple of its root can be made."""
    h = half_root(p, q)
    assert type(h) is Fraction and h == root - Fraction(p, 2)
    assert scalar_str(3 * h) == str(3 * (root - Fraction(p, 2)))
    with pytest.raises(ScalarError):
        MetallicScalar(1, p, q)


def test_half_root_is_a_fraction_exactly_when_the_discriminant_is_a_square():
    for p in range(1, 13):
        for q in range(1, 13):
            h, d = half_root(p, q), p * p + 4 * q
            assert (type(h) is Fraction) == _is_square(d), (p, q)
            if type(h) is Fraction:
                assert 4 * h * h == d and h > 0
            else:
                assert (h.y, h.p, h.q) == (Fraction(1, 2), p, q)
                assert sign(h) == 1 and square(h) == Fraction(d, 4)
    for bad in ((0, 1), (1, 0), (1.0, 1), (1, -2)):
        with pytest.raises(ScalarError):
            half_root(*bad)


def test_sigma_float_value():
    # sigma_{1,1} = 1/2 + a/2, the golden ratio
    assert abs(float(half_root(1, 1)) + 0.5 - (1 + 5 ** 0.5) / 2) < 1e-12


def test_rational_embedding():
    """Rationals are Fractions, and a multiple of a root is never rational:
    a zero multiple is Fraction(0), and a MetallicScalar of 0 or of a
    square discriminant cannot be made."""
    x = MetallicScalar(Fraction(5, 3), 1, 1)
    for zero in (x * 0, 0 * x, x * Fraction(0), x + (-x), -x + x):
        assert type(zero) is Fraction and zero == 0 and is_zero(zero)
    assert not is_zero(x) and not is_zero(-x)
    for args in ((0, 1, 1), (Fraction(0), 2, 1), (1, 1, 2), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ScalarError):
            MetallicScalar(*args)


def test_str_forms():
    h = half_root(1, 1)  # -1/2 + sigma
    assert scalar_str(h) == "-1/2+sigma"
    assert scalar_str(-h) == "1/2-sigma"
    assert scalar_str(h * Fraction(2, 3)) == "-1/3+2/3*sigma"
    assert scalar_str(-h * Fraction(1, 3)) == "1/6-1/3*sigma"
    assert scalar_str(MetallicScalar(Fraction(250, 343), 1, 3)) == "-250/343+500/343*sigma"
    assert scalar_str(MetallicScalar(Fraction(250, 343), 3, 1)) == "-750/343+500/343*sigma"
    assert scalar_str(Fraction(-1, 2)) == "-1/2"


@settings(max_examples=80, deadline=None)
@given(any_elem)
def test_str_and_float_are_the_sigma_form(x):
    """str and float are those of a + b*sigma with a = -y p and b = 2y,
    sigma = (p + sqrt(p^2 + 4q))/2, byte for byte."""
    a, b = sigma_form(x)
    bpart = "sigma" if b == 1 else "-sigma" if b == -1 else f"{b}*sigma"
    assert str(x) == scalar_str(x) == (f"{a}+{bpart}" if b > 0 else f"{a}{bpart}")
    sigma = (x.p + math.sqrt(x.p * x.p + 4 * x.q)) / 2.0
    assert float(x) == scalar_float(x) == float(a) + float(b) * sigma


def test_mixed_parameter_arithmetic_rejected():
    """Multiples of two different roots neither add nor multiply; two
    parameter sets with one p^2 + 4q share their root."""
    with pytest.raises(ScalarError):
        half_root(1, 1) + half_root(2, 1)
    with pytest.raises(ScalarError):
        half_root(1, 1) * half_root(2, 1)
    y = MetallicScalar(1, 3, 1) + MetallicScalar(1, 1, 3)  # both sqrt(13)
    assert (y.y, y.p, y.q) == (2, 3, 1)
    assert MetallicScalar(1, 3, 1) * MetallicScalar(1, 1, 3) == 13


@settings(max_examples=60, deadline=None)
@given(pq.flatmap(lambda t: st.tuples(elems(*t), elems(*t), rationals)))
def test_multiples_of_one_root_add_and_multiply(xyr):
    """The sum of two multiples of one root is the multiple by the sum of
    their y, or Fraction(0); their product is the Fraction y1 y2 d; a
    rational scales y."""
    x, y, r = xyr
    d = x.p ** 2 + 4 * x.q
    s = x + y
    if x.y + y.y:
        assert (s.y, s.p, s.q) == (x.y + y.y, x.p, x.q)
    else:
        assert type(s) is Fraction and s == 0
    prod = x * y
    assert type(prod) is Fraction and prod == x.y * y.y * d == y * x
    for scaled in (x * r, r * x):
        if r:
            assert (scaled.y, scaled.p, scaled.q) == (x.y * r, x.p, x.q)
        else:
            assert type(scaled) is Fraction and scaled == 0
    assert (-x).y == -x.y


@settings(max_examples=40, deadline=None)
@given(pq.flatmap(lambda t: st.tuples(elems(*t), elems(*t))))
def test_float_homomorphism(xy):
    x, y = xy
    assert float(x + y) == pytest.approx(float(x) + float(y), rel=1e-9, abs=1e-9)
    assert float(x * y) == pytest.approx(float(x) * float(y), rel=1e-9, abs=1e-9)


def test_abs_greater_orders_by_magnitude():
    h = half_root(1, 1)  # sqrt(5)/2
    assert abs_greater(h, Fraction(1)) and not abs_greater(Fraction(1), h)
    assert abs_greater(Fraction(-3), 2) and not abs_greater(Fraction(-3), 3)
    # beyond the float range, and below it, the order is still exact
    huge = Fraction(10 ** 400)
    assert abs_greater(huge + 1, -huge) and not abs_greater(-huge, huge + 1)
    assert abs_greater(Fraction(2, 10 ** 400), Fraction(-1, 10 ** 400))
    assert abs_greater(Fraction(1, 10 ** 400), 0)
    assert abs_greater(-huge * h, huge) and not abs_greater(huge, -huge * h)
    assert abs_greater(h * Fraction(1, 10 ** 400), 0)
    # multiples of two roots compare exactly too
    assert abs_greater(half_root(2, 1), half_root(1, 1))  # sqrt(8)/2 > sqrt(5)/2
    assert not abs_greater(half_root(1, 1), half_root(2, 1))
    # a float compares through scalar_float
    assert abs_greater(1.2, h) and not abs_greater(1.1, h) and abs_greater(h, -1.1)


def test_equal_magnitudes_of_two_parameter_sets_tie():
    """(3, 1) and (1, 3) share p^2 + 4q = 13, so equal multiples of their
    roots are one number; their sigma forms round to different floats, yet
    neither is greater.  sqrt(20)/2 = sqrt(5) ties across two roots."""
    x, y = MetallicScalar(Fraction(250, 343), 3, 1), MetallicScalar(Fraction(250, 343), 1, 3)
    assert float(x) != float(y)
    assert not abs_greater(x, y) and not abs_greater(y, x)
    assert not abs_greater(-x, y) and not abs_greater(y, -x)
    u, v = MetallicScalar(Fraction(1, 2), 4, 1), MetallicScalar(1, 1, 1)
    assert not abs_greater(u, v) and not abs_greater(v, u)


def test_near_ties_are_decided_exactly():
    """Magnitudes whose squares differ in the 20th digit, which the floats
    of the sigma forms do not resolve: a Pell approximant x/y of sqrt(5)
    (x^2 - 5y^2 = 1) and sqrt(5) itself, and sqrt(5) against
    (+-1/2 + 10^-20) sqrt(20)."""
    x, y = 9, 4
    for _ in range(12):  # (9 + 4 sqrt(5))^13
        x, y = 9 * x + 20 * y, 4 * x + 9 * y
    assert x * x - 5 * y * y == 1
    root5, above = MetallicScalar(1, 1, 1), Fraction(x, y)
    eps = Fraction(1, 10 ** 20)
    cases = [(above, root5), (MetallicScalar(Fraction(1, 2) + eps, 4, 1), root5),
             (root5, MetallicScalar(-Fraction(1, 2) + eps, 4, 1))]
    for big, small in cases:
        assert not abs(scalar_float(big)) > abs(scalar_float(small))  # floats miss it
        assert square(big) > square(small)
        assert abs_greater(big, small) and not abs_greater(small, big)
        assert abs_greater(-big, small) and not abs_greater(-small, -big)


exact = st.one_of(rationals, any_elem)


@settings(max_examples=150, deadline=None)
@given(exact, exact)
def test_order_is_the_order_of_squares(x, y):
    """|x| > |y| exactly when x^2 > y^2, computed with Fractions, for
    rationals and multiples of any two roots."""
    assert abs_greater(x, y) == (square(x) > square(y))


@settings(max_examples=60, deadline=None)
@given(st.one_of(rationals, any_elem), st.one_of(rationals, any_elem))
def test_sign_and_order_agree_with_floats(x, y):
    if abs(float(x)) > 1e-9:
        assert sign(x) == (1 if float(x) > 0 else -1)
    if abs(abs(float(x)) - abs(float(y))) > 1e-9:
        assert abs_greater(x, y) == (abs(float(x)) > abs(float(y)))


def test_scalar_float_clamps_to_the_float_range():
    top = sys.float_info.max
    assert scalar_float(Fraction(10 ** 400)) == top
    assert scalar_float(MetallicScalar(-Fraction(10 ** 400), 1, 1)) == -top
    assert scalar_float(MetallicScalar(Fraction(10 ** 400), 3, 5)) == top
    assert scalar_float(-1e308 * 10) == -top
    assert scalar_float(Fraction(1, 4)) == 0.25
