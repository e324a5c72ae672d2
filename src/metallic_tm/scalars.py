"""The values of a report: rationals and rational multiples of sqrt(p^2 + 4q).

Rationals are plain ``fractions.Fraction``.  J and F are
T = (p/2) I - (a/2) Psi with a = 2 sigma - p = sqrt(p^2 + 4q), where sigma is
the positive root of x^2 - p x - q, and every claim is decided on Psi over
Q.  So every value a report prints is a rational times a^2/4, -pa/4 or
-a/2: a rational, or ``MetallicScalar`` y*sqrt(d) with d = p^2 + 4q not a
square.  Such a value prints in the form a + b*sigma, with a = -y p and
b = 2y.  When d is a square, a/2 is rational and no ``MetallicScalar`` is
made.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction


class ScalarError(ArithmeticError):
    """Raised on invalid or incompatible field parameters."""


class MetallicScalar:
    """y*sqrt(d) with d = p^2 + 4q not a square and y a nonzero Fraction.

    A product of two multiples of one sqrt(d) is the Fraction y1 y2 d, and
    a sum is again such a multiple, or the rational 0.  Multiples of two
    different roots neither add nor multiply.
    """

    __slots__ = ("y", "p", "q", "d")

    def __init__(self, y, p: int, q: int) -> None:
        d = p * p + 4 * q
        if p < 1 or q < 1 or math.isqrt(d) ** 2 == d or not y:
            raise ScalarError(f"not a nonzero multiple of an irrational sqrt(p^2+4q): "
                              f"y={y!r} p={p!r} q={q!r}")
        self.y, self.p, self.q, self.d = Fraction(y), p, q, d

    def _same_root(self, other) -> None:
        if other.d != self.d:
            raise ScalarError(f"sqrt({self.d}) and sqrt({other.d}) are different roots")

    def __add__(self, other):
        if not isinstance(other, MetallicScalar):
            return NotImplemented
        self._same_root(other)
        y = self.y + other.y
        return MetallicScalar(y, self.p, self.q) if y else Fraction(0)

    __radd__ = __add__

    def __neg__(self) -> "MetallicScalar":
        return MetallicScalar(-self.y, self.p, self.q)

    def __mul__(self, other):
        if isinstance(other, MetallicScalar):
            self._same_root(other)
            return self.y * other.y * self.d
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return MetallicScalar(self.y * other, self.p, self.q) if other else Fraction(0)

    __rmul__ = __mul__

    def __float__(self) -> float:
        # a + b*sigma, as every report has printed it
        a, b = -self.y * self.p, 2 * self.y
        return float(a) + float(b) * ((self.p + math.sqrt(self.d)) / 2.0)

    def __repr__(self) -> str:
        return f"MetallicScalar({self.y!r}, p={self.p}, q={self.q})"

    def __str__(self) -> str:
        a, b = -self.y * self.p, 2 * self.y
        bpart = "sigma" if b == 1 else "-sigma" if b == -1 else f"{b}*sigma"
        return f"{a}+{bpart}" if b > 0 else f"{a}{bpart}"


def half_root(p: int, q: int):
    """a/2 = sqrt(p^2 + 4q)/2 = sigma - p/2: a Fraction when p^2 + 4q is a
    perfect square, else a MetallicScalar."""
    if not (isinstance(p, int) and isinstance(q, int)) or p < 1 or q < 1:
        raise ScalarError(f"metallic parameters must be positive integers, got p={p!r} q={q!r}")
    d = p * p + 4 * q
    r = math.isqrt(d)
    return Fraction(r, 2) if r * r == d else MetallicScalar(Fraction(1, 2), p, q)


def sign(x) -> int:
    """Exact sign of a real scalar; no float conversion, so it neither
    overflows nor underflows."""
    if isinstance(x, MetallicScalar):
        x = x.y
    return (x > 0) - (x < 0)


def abs_greater(x, y) -> bool:
    """|x| > |y|.  Exact for any two exact values, which compare by their
    squares (y^2 d for y*sqrt(d)), across roots too; a float compares
    through ``scalar_float``."""
    if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)):
        return abs(x) > abs(y)
    if isinstance(x, float) or isinstance(y, float):
        return abs(scalar_float(x)) > abs(scalar_float(y))
    return x * x > y * y


def scalar_float(x) -> float:
    """float(x), or +-sys.float_info.max when |x| is beyond the float range."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf * sign(x)
    return math.copysign(sys.float_info.max, f) if math.isinf(f) else f


def is_zero(x) -> bool:
    """Whether x is 0; a MetallicScalar never is."""
    return not isinstance(x, MetallicScalar) and x == 0


def scalar_str(x) -> str:
    """Canonical decimal-free rendering used in reports."""
    if isinstance(x, float):
        return repr(x)
    try:
        return str(x)
    except ValueError:  # an integer beyond the interpreter's digit limit
        raise ScalarError(f"an exact value has more than {sys.get_int_max_str_digits()} "
                          "digits, the limit for integer string conversion") from None
