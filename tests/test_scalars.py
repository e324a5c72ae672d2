"""Exact arithmetic in Q(sigma_{p,q})."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metallic_tm.scalars import (
    MetallicScalar,
    ScalarError,
    abs_greater,
    is_zero,
    scalar_float,
    scalar_str,
    sigma,
    sign,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
def _square_free_discriminant(t):
    p, q = t
    d = p * p + 4 * q
    r = int(d ** 0.5)
    return r * r != d and (r + 1) ** 2 != d


# when p^2 + 4q is a perfect square, sigma is rational and Q[x]/(x^2-px-q)
# has zero divisors; the verification engine only uses irrational sigma
pq = st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(
    _square_free_discriminant
)


def elems(p, q):
    return st.builds(lambda a, b: MetallicScalar(a, b, p, q), rationals, rationals)


def test_sigma_satisfies_quadratic():
    for p, q in [(1, 1), (1, 2), (2, 1), (3, 5)]:
        s = sigma(p, q)
        assert s * s == p * s + q


@pytest.mark.parametrize("p,q,root", [(1, 2, 2), (2, 3, 3), (1, 6, 3)])
def test_rational_sigma(p, q, root):
    """When p^2 + 4q is a perfect square, sigma is a Fraction, and a scalar
    built on it folds sigma into its rational part: every zero test agrees
    with ``sign``."""
    s = sigma(p, q)
    assert type(s) is Fraction and s == root and s * s == p * s + q
    zero = MetallicScalar(-root, 1, p, q)  # -root + sigma
    assert sign(zero) == 0 and float(zero) == 0.0
    assert is_zero(zero) and not zero and zero == 0 and (zero.a, zero.b) == (0, 0)
    x = MetallicScalar(Fraction(1, 2), 3, p, q)
    assert x == Fraction(1, 2) + 3 * root and hash(x) == hash(Fraction(1, 2) + 3 * root)
    assert scalar_str(x) == str(Fraction(1, 2) + 3 * root)
    assert sign(-x) == -1 and abs_greater(x, 3 * root)


def test_sigma_float_value():
    s = sigma(1, 1)  # the golden ratio
    assert abs(float(s) - (1 + 5 ** 0.5) / 2) < 1e-12


def test_rational_embedding():
    x = MetallicScalar(Fraction(5, 3), 0, 1, 1)
    assert x == Fraction(5, 3)
    assert hash(x) == hash(Fraction(5, 3))
    assert is_zero(MetallicScalar(0, 0, 2, 1))


def test_str_forms():
    assert scalar_str(sigma(1, 1)) == "sigma"
    assert scalar_str(-sigma(1, 1)) == "-sigma"
    assert "sigma" in scalar_str(MetallicScalar(1, 2, 1, 1))
    assert scalar_str(Fraction(-1, 2)) == "-1/2"


def test_mixed_parameter_arithmetic_rejected():
    with pytest.raises(ScalarError):
        sigma(1, 1) + sigma(2, 1)


@settings(max_examples=60, deadline=None)
@given(pq.flatmap(lambda t: st.tuples(elems(*t), elems(*t), elems(*t))))
def test_field_axioms(xyz):
    x, y, z = xyz
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x + (-x) == 0


@settings(max_examples=40, deadline=None)
@given(pq.flatmap(lambda t: st.tuples(elems(*t), elems(*t))))
def test_float_homomorphism(xy):
    x, y = xy
    assert float(x + y) == pytest.approx(float(x) + float(y), rel=1e-9, abs=1e-9)
    assert float(x * y) == pytest.approx(float(x) * float(y), rel=1e-9, abs=1e-9)


def test_abs_greater_orders_by_magnitude():
    assert abs_greater(sigma(1, 1), Fraction(1))
    assert not abs_greater(Fraction(1), sigma(1, 1))
    assert abs_greater(Fraction(-3), 2) and not abs_greater(Fraction(-3), 3)
    # beyond the float range, and below it, the order is still exact
    huge = Fraction(10 ** 400)
    assert abs_greater(huge + 1, -huge) and not abs_greater(-huge, huge + 1)
    assert abs_greater(Fraction(2, 10 ** 400), Fraction(-1, 10 ** 400))
    assert abs_greater(Fraction(1, 10 ** 400), 0)
    assert abs_greater(MetallicScalar(-huge, -1, 1, 1), huge)
    assert not abs_greater(MetallicScalar(huge, -1, 1, 1), huge - 1)
    # irrationals of two extensions compare through floats
    assert abs_greater(sigma(2, 1), sigma(1, 1))


@settings(max_examples=60, deadline=None)
@given(pq.flatmap(lambda t: st.tuples(elems(*t), elems(*t))))
def test_sign_and_order_agree_with_floats(xy):
    x, y = xy
    if abs(float(x)) > 1e-9:
        assert sign(x) == (1 if float(x) > 0 else -1)
    if abs(abs(float(x)) - abs(float(y))) > 1e-9:
        assert abs_greater(x, y) == (abs(float(x)) > abs(float(y)))


def test_scalar_float_clamps_to_the_float_range():
    top = sys.float_info.max
    assert scalar_float(Fraction(10 ** 400)) == top
    assert scalar_float(MetallicScalar(-Fraction(10 ** 400), 3, 1, 1)) == -top
    assert scalar_float(-1e308 * 10) == -top
    assert scalar_float(Fraction(1, 4)) == 0.25
