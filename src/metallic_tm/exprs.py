"""Symbolic expression trees over chart coordinates.

Expressions are immutable trees built from rational constants (Fraction),
base/fiber variables ``x1..xn`` / ``y1..yn``, the field
operations and integer powers: rational functions only, with no analytic
functions.  Only local simplifications are applied: constant folding,
dropping zero terms and unit factors, and in a product one power per base
(x^a * x^b is x^(a+b), and x^a * x^-a drops out); division by a monomial
is a product with its negative powers, and any other quotient stays a
``Div``.  Correctness downstream rests on exact evaluation at sample
points, not on canonical forms.

Nodes are hash-consed: each distinct tree is one object, kept for the life
of the process, so ``==`` and ``hash`` are those of identity.  ``add``,
``mul`` and ``diff`` are memoised on their (node) arguments.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Union

ExprLike = Union["Expr", int, Fraction]


class ExprError(ValueError):
    """Malformed expression or unsupported operation."""


class ParseError(ExprError):
    """Syntax error; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ArithmeticError):
    """Evaluation failure: division by zero, a missing coordinate, float
    range, or a power past the bounds of MAX_EXPONENT."""


def _to_scalar(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


_NODES: dict = {}  # key -> the one node with that key


def _interned(key, *fields) -> "Expr":
    """The node of class ``key[0]`` stored under ``key``; on first use it is
    made with ``fields`` as the values of its class's slots, in order."""
    node = _NODES.get(key)
    if node is None:
        cls = key[0]
        node = _NODES[key] = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
    return node


class Expr:
    """Base node of a rational function.  Subclasses: Const, Var, Add, Mul, Div, Pow.

    Nodes are hash-consed: a constructor returns the node that already has
    its fields, so equal trees are one object and ``==`` is identity."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")

    # operator sugar; every constructor simplifies locally
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(MINUS_ONE, other))

    def __rsub__(self, other):
        return add(other, mul(MINUS_ONE, self))

    def __neg__(self):
        return mul(MINUS_ONE, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, n):
        return pow_(self, n)

    def __repr__(self):
        return f"<Expr {to_str(self)}>"

    def __str__(self):
        return to_str(self)


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        v = _to_scalar(value)
        return _interned((cls, v), v)


class Var(Expr):
    """A chart coordinate: kind 'base' (x) or 'fiber' (y), 1-based index."""

    __slots__ = ("kind", "index")

    def __new__(cls, kind: str, index: int):
        if kind not in ("base", "fiber"):
            raise ExprError(f"unknown variable kind {kind!r}")
        if index < 1:
            raise ExprError(f"variable index must be >= 1, got {index}")
        return _interned((cls, kind, index), kind, index)

    @property
    def name(self) -> str:
        return ("x" if self.kind == "base" else "y") + str(self.index)


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms):
        terms = tuple(terms)
        return _interned((cls, terms), terms)


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors):
        factors = tuple(factors)
        return _interned((cls, factors), factors)


class Div(Expr):
    __slots__ = ("num", "den")

    def __new__(cls, num: Expr, den: Expr):
        return _interned((cls, num, den), num, den)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: int):
        exponent = int(exponent)
        return _interned((cls, base, exponent), base, exponent)


ZERO = Const(0)
ONE = Const(1)
MINUS_ONE = Const(-1)


def const(x) -> Const:
    return x if isinstance(x, Const) else Const(x)


def _as_expr(x: ExprLike) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(x)


def _is_const(e: Expr, value=None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


def _split_coeff(e: Expr):
    """Write e as (coefficient, tuple of the other factors)."""
    if isinstance(e, Mul):
        fs = e.factors
        if isinstance(fs[0], Const):
            rest = fs[1:]
            return fs[0].value, rest
        return Fraction(1), fs
    return Fraction(1), (e,)


def add(*xs: ExprLike) -> Expr:
    """Sum of ``xs``, memoised on their nodes."""
    return _add(*map(_as_expr, xs))


@lru_cache(maxsize=200_000)
def _add(*xs: Expr) -> Expr:
    # collect like terms by structural part so that e + (-1)*e folds to 0
    coeffs: dict = {}  # part -> (coefficient, its term while no like term met it)
    acc = Fraction(0)
    def accumulate(c, part, term=None):
        if part not in coeffs:
            coeffs[part] = (c, term)
        else:
            coeffs[part] = (coeffs[part][0] + c, None)

    for e in xs:
        sub = e.terms if isinstance(e, Add) else (e,)
        for t in sub:
            if isinstance(t, Const):
                acc = t.value + acc
                continue
            c, part = _split_coeff(t)
            if len(part) == 1 and isinstance(part[0], Add):
                # distribute a constant coefficient over an inner sum so
                # that e + (-1)*(a + b) cancels against a + b termwise
                for t2 in part[0].terms:
                    if isinstance(t2, Const):
                        acc = acc + c * t2.value
                        continue
                    c2, part2 = _split_coeff(t2)
                    accumulate(c * c2, part2)
                continue
            accumulate(c, part, t)
    terms = []
    for part, (c, term) in coeffs.items():
        if term is None:  # a lone term is kept: mul would rebuild an equal tree
            if c == 0:
                continue
            term = mul(Const(c), *part)
        terms.append(term)
    if acc != 0:
        terms.append(Const(acc))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(terms)


def mul(*xs: ExprLike) -> Expr:
    """Product of ``xs``, memoised on their nodes."""
    return _mul(*map(_as_expr, xs))


@lru_cache(maxsize=200_000)
def _mul(*xs: Expr) -> Expr:
    factors = []
    powers: dict = {}  # base -> the sum of its exponents, in order of first appearance
    acc: Optional[Fraction] = None  # the product of the constant factors
    for e in xs:
        sub = e.factors if isinstance(e, Mul) else (e,)
        for f in sub:
            if isinstance(f, Const):
                acc = f.value if acc is None else f.value * acc
                if acc == 0:
                    return ZERO
                continue
            factors.append(f)
            base, k = (f.base, f.exponent) if isinstance(f, Pow) else (f, 1)
            powers[base] = powers.get(base, 0) + k
    # one power per base, while every exponent stays within MAX_EXPONENT; like
    # e - e in add, x * x^-1 folds to 1 without the zero-denominator error at x = 0
    if len(powers) < len(factors) and all(abs(k) <= MAX_EXPONENT for k in powers.values()):
        factors = [b if k == 1 else Pow(b, k) for b, k in powers.items() if k]
    if acc is not None and acc != 1:
        factors.insert(0, _printable(acc))
    if not factors:
        return ONE
    if len(factors) == 1:
        return factors[0]
    return Mul(factors)


def div(num: ExprLike, den: ExprLike) -> Expr:
    n, d = _as_expr(num), _as_expr(den)
    if isinstance(d, Const):
        if d.value == 0:
            raise EvalError("division by the zero constant")
        return mul(Const(1 / d.value), n)
    if _is_const(n, 0):
        return ZERO
    if n == d:
        return ONE
    fs = d.factors if isinstance(d, Mul) else (d,)
    if all(isinstance(f, (Const, Var, Pow)) for f in fs):  # a monomial
        return mul(n, *(pow_(f, -1) for f in fs))
    return Div(n, d)


def _printable(v: Fraction) -> Const:
    """The constant ``v``; refused when the printer could not write it, with
    more digits than the interpreter converts to a string."""
    limit = sys.get_int_max_str_digits()
    big = max(abs(v.numerator), v.denominator)
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise EvalError(f"constant over {limit} digits")
    return Const(v)


# the largest magnitude of an exponent, given or the product of the
# exponents of a power of a power; a power of a constant may have at most
# 64 * MAX_EXPONENT bits.  Larger powers would hang evaluation.
MAX_EXPONENT = 1000


def pow_(base: ExprLike, exponent: int) -> Expr:
    """``base^exponent``, folded for a constant base or a power of a power.
    A power past the bounds of MAX_EXPONENT, or a constant with more digits
    than the printer writes, is refused here, where every power is built,
    so the parser refuses the same powers (at the ``^``)."""
    if not isinstance(exponent, int):
        raise ExprError("only integer exponents are supported")
    if abs(exponent) > MAX_EXPONENT:
        raise EvalError(f"exponent of magnitude over {MAX_EXPONENT}")
    b = _as_expr(base)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return b
    if isinstance(b, Const):
        v = b.value
        if exponent < 0 and v == 0:
            raise EvalError("zero to a negative power")
        bits = max(v.numerator.bit_length(), v.denominator.bit_length())
        if abs(exponent) * bits > 64 * MAX_EXPONENT:
            raise EvalError(f"power of a constant over {64 * MAX_EXPONENT} bits")
        return _printable(v ** exponent)
    if isinstance(b, Pow):
        return pow_(b.base, b.exponent * exponent)
    return Pow(b, exponent)


# ----------------------------------------------------------------------
# differentiation
# ----------------------------------------------------------------------

@lru_cache(maxsize=200_000)
def diff(e: Expr, v: Var) -> Expr:
    """Partial derivative; repeated application supports any order."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e == v else ZERO
    if isinstance(e, Add):
        return add(*(diff(t, v) for t in e.terms))
    if isinstance(e, Mul):
        parts = []
        fs = e.factors
        for i in range(len(fs)):
            d = diff(fs[i], v)
            if _is_const(d, 0):
                continue
            parts.append(mul(*fs[:i], d, *fs[i + 1:]))
        return add(*parts) if parts else ZERO
    if isinstance(e, Div):
        dn, dd = diff(e.num, v), diff(e.den, v)
        if _is_const(dd, 0):
            return div(dn, e.den)
        return div(add(mul(dn, e.den), mul(MINUS_ONE, e.num, dd)), pow_(e.den, 2))
    if isinstance(e, Pow):
        d = diff(e.base, v)
        if _is_const(d, 0):
            return ZERO
        return mul(const(e.exponent), pow_(e.base, e.exponent - 1), d)
    raise ExprError(f"unknown node {e!r}")


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

class Point(dict):
    """A sample point: a read-only map from ``Var`` to coordinate.  It is
    ``exact`` when no coordinate is a float.

    Its ``memo`` holds the value at this point of every subtree ``evaluate``
    has computed, so a subtree shared by many residuals is computed once.
    Make a new ``Point`` for a fresh memo.
    """

    __slots__ = ("memo", "exact")

    def __init__(self, coords=()) -> None:
        super().__init__(coords)
        self.memo = {}
        self.exact = not any(isinstance(c, float) for c in self.values())

    def _read_only(self, *args, **kwargs):
        raise TypeError("a Point is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    update = setdefault = pop = popitem = clear = _read_only


def evaluate(e: Expr, point: Mapping[Var, object]):
    """Value of ``e`` at ``point``; the coordinates decide the arithmetic.

    At an exact point every coordinate must be an exact scalar, and the
    value is a Fraction.  At a point with a float coordinate it is a float.
    Subtree values are kept in the memo of a ``Point``; any other mapping
    gets a memo for this call only.
    """
    if not isinstance(point, Point):
        point = Point(point)
    try:
        return _eval(e, point, point.memo, point.exact)
    except (OverflowError, ZeroDivisionError) as exc:
        # float range, e.g. x^400 at 1e3 or x^-2 at 0
        raise EvalError(f"float evaluation failed: {exc}") from None


def _eval(e: Expr, pt, memo: dict, exact: bool):
    """Memoised value of ``e``; a failure raises before anything is stored."""
    try:
        return memo[e]
    except KeyError:
        pass
    if isinstance(e, Const):
        v = e.value if exact else float(e.value)
    elif isinstance(e, Var):
        try:
            v = _to_scalar(pt[e]) if exact else float(pt[e])
        except KeyError:
            raise EvalError(f"no value for variable {e.name}") from None
    elif isinstance(e, Add):
        v = 0  # float sums as sum() adds them: from int 0, left to right
        for t in e.terms:
            v = v + _eval(t, pt, memo, exact)
    elif isinstance(e, Mul):
        fs = e.factors
        v = _eval(fs[0], pt, memo, exact)
        for f in fs[1:]:
            v = v * _eval(f, pt, memo, exact)
    elif isinstance(e, Div):
        den = _eval(e.den, pt, memo, exact)
        if den == 0:
            raise EvalError(f"division by zero at point in {to_str(e)}")
        v = _eval(e.num, pt, memo, exact) / den
    elif isinstance(e, Pow):
        base = _eval(e.base, pt, memo, exact)
        if exact and e.exponent < 0 and base == 0:
            raise EvalError("zero base with negative exponent")
        v = base ** e.exponent
    else:
        raise ExprError(f"unknown node {e!r}")
    memo[e] = v
    return v


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        v = e.value
        if v.denominator == 1:
            return (str(v), _PREC_ATOM if v >= 0 else _PREC_UNARY)
        return f"{v.numerator}/{v.denominator}", _PREC_MUL
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            s, p = _render(t)
            if i == 0:
                parts.append(s if p >= _PREC_ADD else f"({s})")
            elif s.startswith("-"):
                parts.append(f" - {s[1:]}")
            else:
                parts.append(f" + {s}" if p >= _PREC_ADD else f" + ({s})")
        return "".join(parts), _PREC_ADD
    if isinstance(e, Mul):
        fs = e.factors
        # a coefficient -1 is a unary minus: "-x1*x2", and "a - x1*x2" in a sum
        minus = isinstance(fs[0], Const) and fs[0].value == -1
        parts = []
        for f in fs[1:] if minus else fs:
            s, p = _render(f)
            parts.append(s if p > _PREC_ADD else f"({s})")
        return ("-" if minus else "") + "*".join(parts), _PREC_MUL
    if isinstance(e, Div):
        ns, np_ = _render(e.num)
        ds, dp = _render(e.den)
        ns = ns if np_ > _PREC_ADD else f"({ns})"
        ds = ds if dp > _PREC_MUL else f"({ds})"
        return f"{ns}/{ds}", _PREC_MUL
    if isinstance(e, Pow):
        bs, bp = _render(e.base)
        bs = bs if bp >= _PREC_ATOM else f"({bs})"
        if e.exponent < 0:
            return f"{bs}^({e.exponent})", _PREC_POW
        return f"{bs}^{e.exponent}", _PREC_POW
    raise ExprError(f"unknown node {e!r}")


def to_str(e: Expr) -> str:
    """Canonical infix form; ``parse(to_str(e))`` reproduces the value."""
    return _render(e)[0]


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

# ASCII only: str.isdigit and str.isalnum also accept digits such as "²"
# and "٣", which int() then rejects or reads as "3"
_INT = re.compile(r"[0-9]+")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class _Tokenizer:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def peek(self):
        t = self.text
        i = self.pos
        while i < len(t) and t[i].isspace():
            i += 1
        self.pos = i
        if i >= len(t):
            return ("end", "", i)
        c = t[i]
        for kind, pattern in (("int", _INT), ("name", _NAME)):
            m = pattern.match(t, i)
            if m:
                return (kind, m.group(), i)
        if c in "+-*/^()":
            return (c, c, i)
        raise ParseError(f"unexpected character {c!r}", i)

    def next(self):
        tok = self.peek()
        self.pos += len(tok[1])
        return tok


# the levels an expression may nest, one for each enclosing parenthesis or
# unary sign and one for the operand itself; well within the interpreter's
# recursion limit
MAX_NESTING = 100


def _int(text: str, off: int) -> int:
    """``int(text)``; more digits than the interpreter converts is a syntax error."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer of {len(text)} digits is too long", off) from None


class Parser:
    """Recursive-descent parser for the coordinate expression grammar.

    Precedence, loosest to tightest: ``+ -``, ``* /``, unary ``-``, ``^``;
    binary operators associate to the left.  Variables are ``x<i>``/``y<i>``
    with 1 <= i <= n.
    """

    def __init__(self, text: str, n: int) -> None:
        self.toks = _Tokenizer(text)
        self.n = n
        self.depth = 0

    def parse(self) -> Expr:
        e = self._sum()
        kind, val, off = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return e

    def _sum(self) -> Expr:
        e = self._product()
        while True:
            kind, _, _ = self.toks.peek()
            if kind == "+":
                self.toks.next()
                e = add(e, self._product())
            elif kind == "-":
                self.toks.next()
                e = add(e, mul(MINUS_ONE, self._product()))
            else:
                return e

    @staticmethod
    def _fold(build, off: int, *args) -> Expr:
        """``build(*args)``; a constant that folds to an error, such as
        ``1/(x1-x1)`` or ``0^-1``, or a power or a constant that ``pow_``
        or ``mul`` refuses, is a syntax error at the operator."""
        try:
            return build(*args)
        except EvalError as exc:
            raise ParseError(str(exc), off) from None

    def _product(self) -> Expr:
        e = self._unary()
        while True:
            kind, _, off = self.toks.peek()
            if kind == "*":
                self.toks.next()
                e = self._fold(mul, off, e, self._unary())
            elif kind == "/":
                self.toks.next()
                e = self._fold(div, off, e, self._unary())
            else:
                return e

    def _unary(self) -> Expr:
        """Every parenthesis and sign passes here, one level deeper each."""
        kind, _, off = self.toks.peek()
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", off)
        self.depth += 1
        if kind == "-":
            self.toks.next()
            e = mul(MINUS_ONE, self._unary())
        else:
            e = self._power()
        self.depth -= 1
        return e

    def _power(self) -> Expr:
        e = self._atom()
        while True:
            kind, _, off = self.toks.peek()
            if kind != "^":
                return e
            self.toks.next()
            k2, v2, o2 = self.toks.peek()
            neg = False
            if k2 == "-":
                self.toks.next()
                neg = True
                k2, v2, o2 = self.toks.peek()
            if k2 == "int":
                self.toks.next()
                k = _int(v2, o2)
            elif k2 == "(":
                exp = self._atom_paren()
                if not isinstance(exp, Const) or exp.value.denominator != 1:
                    raise ParseError("exponent must be an integer", o2)
                k = int(exp.value)
            else:
                raise ParseError("exponent must be an integer", o2)
            # pow_ refuses a power past MAX_EXPONENT: a syntax error at the ^
            e = self._fold(pow_, off, e, -k if neg else k)

    def _atom_paren(self) -> Expr:
        kind, val, off = self.toks.next()
        if kind != "(":
            raise ParseError(f"expected '(' but found {val!r}", off)
        e = self._sum()
        kind, val, off = self.toks.next()
        if kind != ")":
            raise ParseError(f"expected ')' but found {val!r}", off)
        return e

    def _atom(self) -> Expr:
        kind, val, off = self.toks.peek()
        if kind == "int":
            self.toks.next()
            return const(_int(val, off))
        if kind == "(":
            return self._atom_paren()
        if kind == "name":
            self.toks.next()
            if val[0] in "xy" and val[1:].isdigit():
                idx = _int(val[1:], off)
                if not 1 <= idx <= self.n:
                    raise ParseError(f"unknown variable {val!r}: index out of range 1..{self.n}", off)
                return Var("base" if val[0] == "x" else "fiber", idx)
            raise ParseError(f"unknown identifier {val!r}", off)
        raise ParseError(f"unexpected token {val!r}", off)


def parse(text: str, n: int) -> Expr:
    """Parse a DSL expression over coordinates x1..xn, y1..yn."""
    return Parser(text, n).parse()
