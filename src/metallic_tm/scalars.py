"""Exact arithmetic in the quadratic extension Q(sigma) with sigma^2 = p*sigma + q.

Rationals are plain ``fractions.Fraction``; ``MetallicScalar`` adjoins the
positive root sigma of x^2 - p x - q for positive integers p, q.  Every
product is reduced with the rewrite sigma^2 -> p*sigma + q, so values stay in
the two-dimensional representation a + b*sigma over Q.  When p^2 + 4q is a
perfect square, sigma is rational and b*sigma is folded into a.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "MetallicScalar"]


class ScalarError(ArithmeticError):
    """Raised on invalid or incompatible field parameters."""


def _as_fraction(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


def _rational_sigma(p: int, q: int):
    """sigma_{p,q} as a Fraction when p^2 + 4q is a perfect square, else None."""
    d = p * p + 4 * q
    r = math.isqrt(d)
    return Fraction(p + r, 2) if r * r == d else None


class MetallicScalar:
    """An element a + b*sigma of Q(sigma_{p,q}).

    Immutable.  Mixing two scalars with different (p, q) is an error unless
    one of them is rational (b == 0), in which case it is coerced.  A
    rational sigma is folded into a, so b == 0 exactly when the value is
    rational.
    """

    __slots__ = ("a", "b", "p", "q")

    def __init__(self, a: Rat, b: Rat, p: int, q: int) -> None:
        if p < 1 or q < 1:
            raise ScalarError(f"metallic parameters must be positive, got p={p} q={q}")
        a, b = _as_fraction(a), _as_fraction(b)
        s = _rational_sigma(p, q) if b else None
        if s is not None:
            a, b = a + b * s, Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "q", int(q))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MetallicScalar is immutable")

    # -- coercion -----------------------------------------------------

    def _align(self, other: ScalarLike):
        """Return (self', other') in a common extension, or None."""
        if isinstance(other, (int, Fraction)):
            other = MetallicScalar(_as_fraction(other), 0, self.p, self.q)
        elif not isinstance(other, MetallicScalar):
            return None
        if (self.p, self.q) == (other.p, other.q):
            return self, other
        if other.b == 0:
            return self, MetallicScalar(other.a, 0, self.p, self.q)
        if self.b == 0:
            return MetallicScalar(self.a, 0, other.p, other.q), other
        raise ScalarError(
            f"incompatible extensions Q(sigma_{{{self.p},{self.q}}}) "
            f"and Q(sigma_{{{other.p},{other.q}}})"
        )

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: ScalarLike):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        s, o = pair
        return MetallicScalar(s.a + o.a, s.b + o.b, s.p, s.q)

    __radd__ = __add__

    def __neg__(self) -> "MetallicScalar":
        return MetallicScalar(-self.a, -self.b, self.p, self.q)

    def __sub__(self, other: ScalarLike):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        s, o = pair
        return MetallicScalar(s.a - o.a, s.b - o.b, s.p, s.q)

    def __rsub__(self, other: ScalarLike):
        return (-self) + other

    def __mul__(self, other: ScalarLike):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        s, o = pair
        # (a1 + b1 t)(a2 + b2 t) with t^2 = p t + q
        a = s.a * o.a + s.b * o.b * s.q
        b = s.a * o.b + s.b * o.a + s.b * o.b * s.p
        return MetallicScalar(a, b, s.p, s.q)

    __rmul__ = __mul__

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, MetallicScalar):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return (self.a, self.b, self.p, self.q) == (other.a, other.b, other.p, other.q)
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.p, self.q))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- embedding ----------------------------------------------------

    def sigma_value(self) -> float:
        return (self.p + math.sqrt(self.p * self.p + 4 * self.q)) / 2.0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * self.sigma_value()

    # -- display ------------------------------------------------------

    def __repr__(self) -> str:
        return f"MetallicScalar({self.a!r}, {self.b!r}, p={self.p}, q={self.q})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            bpart = "sigma"
        elif self.b == -1:
            bpart = "-sigma"
        else:
            bpart = f"{self.b}*sigma"
        if self.a == 0:
            return bpart
        return f"{self.a}+{bpart}" if self.b > 0 else f"{self.a}{bpart}"


def sigma(p: int, q: int) -> ScalarLike:
    """The metallic mean sigma_{p,q}, positive root of x^2 - p x - q: a
    Fraction when p^2 + 4q is a perfect square, else a MetallicScalar."""
    if not (isinstance(p, int) and isinstance(q, int)) or p < 1 or q < 1:
        raise ScalarError(f"metallic parameters must be positive integers, got p={p!r} q={q!r}")
    s = _rational_sigma(p, q)
    return MetallicScalar(0, 1, p, q) if s is None else s


def sign(x) -> int:
    """Exact sign of a real scalar (sigma is the positive root); no float
    conversion, so it neither overflows nor underflows."""
    if isinstance(x, MetallicScalar):
        # a + b sigma = (u + b sqrt(d)) / 2 with u = 2a + bp and d = p^2 + 4q
        u, b = 2 * x.a + x.b * x.p, x.b
        if u * b >= 0:
            return sign(u) or sign(b)
        return sign(u) * sign(u * u - b * b * (x.p * x.p + 4 * x.q))
    return (x > 0) - (x < 0)


def abs_greater(x, y) -> bool:
    """|x| > |y|.  Exact for rationals and for two elements of one Q(sigma);
    floats, and irrationals of two different extensions, compare through
    ``scalar_float``."""
    if not isinstance(x, float) and not isinstance(y, float):
        try:
            return sign((-x if sign(x) < 0 else x) - (-y if sign(y) < 0 else y)) > 0
        except ScalarError:
            pass
    return abs(scalar_float(x)) > abs(scalar_float(y))


def scalar_float(x) -> float:
    """float(x), or +-sys.float_info.max when |x| is beyond the float range."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf * sign(x)
    return math.copysign(sys.float_info.max, f) if math.isinf(f) else f


def is_zero(x) -> bool:
    if isinstance(x, MetallicScalar):
        return not bool(x)
    return x == 0


def scalar_str(x) -> str:
    """Canonical decimal-free rendering used in reports."""
    if isinstance(x, float):
        return repr(x)
    try:
        return str(x)
    except ValueError:  # an integer beyond the interpreter's digit limit
        raise ScalarError(f"an exact value has more than {sys.get_int_max_str_digits()} "
                          "digits, the limit for integer string conversion") from None
