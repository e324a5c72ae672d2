"""Symbolic expression trees over chart coordinates.

Expressions are immutable trees built from exact constants (Fraction or
MetallicScalar), base/fiber variables ``x1..xn`` / ``y1..yn``, the field
operations, integer powers, and the analytic functions sqrt/exp/log/sin/cos.
Only local simplifications are applied (constant folding, dropping zero
terms and unit factors); correctness downstream rests on exact evaluation
at sample points, not on canonical forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

from .scalars import MetallicScalar

Scalar = Union[Fraction, MetallicScalar]
ExprLike = Union["Expr", int, Fraction, MetallicScalar]

_FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos")


class ExprError(ValueError):
    """Malformed expression or unsupported operation."""


class ParseError(ExprError):
    """Syntax error; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ArithmeticError):
    """Evaluation failure: division by zero or exact mode on a non-rational tree."""


def _to_scalar(x) -> Scalar:
    if isinstance(x, (Fraction, MetallicScalar)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


class Expr:
    """Base node.  Subclasses: Const, Var, Add, Mul, Div, Pow, Call."""

    __slots__ = ("_hash",)

    def _key(self):
        raise NotImplementedError

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
            return h

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Expr nodes are immutable")

    # operator sugar; every constructor simplifies locally
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(const(-1), other))

    def __rsub__(self, other):
        return add(other, mul(const(-1), self))

    def __neg__(self):
        return mul(const(-1), self)

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

    def __init__(self, value) -> None:
        object.__setattr__(self, "value", _to_scalar(value))

    def _key(self):
        return ("const", self.value)


class Var(Expr):
    """A chart coordinate: kind 'base' (x) or 'fiber' (y), 1-based index."""

    __slots__ = ("kind", "index")

    def __init__(self, kind: str, index: int) -> None:
        if kind not in ("base", "fiber"):
            raise ExprError(f"unknown variable kind {kind!r}")
        if index < 1:
            raise ExprError(f"variable index must be >= 1, got {index}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)

    @property
    def name(self) -> str:
        return ("x" if self.kind == "base" else "y") + str(self.index)

    def _key(self):
        return ("var", self.kind, self.index)


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms) -> None:
        object.__setattr__(self, "terms", tuple(terms))

    def _key(self):
        return ("add", self.terms)


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors) -> None:
        object.__setattr__(self, "factors", tuple(factors))

    def _key(self):
        return ("mul", self.factors)


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr) -> None:
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def _key(self):
        return ("div", self.num, self.den)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", int(exponent))

    def _key(self):
        return ("pow", self.base, self.exponent)


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr) -> None:
        if fn not in _FUNCTIONS:
            raise ExprError(f"unknown function {fn!r}")
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)

    def _key(self):
        return ("call", self.fn, self.arg)


ZERO = Const(0)
ONE = Const(1)


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
    """Write e as (coefficient, structural-part key, part tuple)."""
    if isinstance(e, Mul):
        fs = e.factors
        if isinstance(fs[0], Const):
            rest = fs[1:]
            return fs[0].value, rest
        return Fraction(1), fs
    return Fraction(1), (e,)


def add(*xs: ExprLike) -> Expr:
    # collect like terms by structural part so that e + (-1)*e folds to 0
    order: list = []
    coeffs: dict = {}
    acc: Scalar = Fraction(0)
    def accumulate(c, part):
        if part not in coeffs:
            order.append(part)
            coeffs[part] = c
        else:
            coeffs[part] = coeffs[part] + c

    for x in xs:
        e = _as_expr(x)
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
            accumulate(c, part)
    terms = []
    for part in order:
        c = coeffs[part]
        if c == 0:
            continue
        terms.append(mul(Const(c), *part))
    if acc != 0:
        terms.append(Const(acc))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(terms)


def mul(*xs: ExprLike) -> Expr:
    factors = []
    acc: Scalar = Fraction(1)
    for x in xs:
        e = _as_expr(x)
        if isinstance(e, Mul):
            sub = e.factors
        else:
            sub = (e,)
        for f in sub:
            if isinstance(f, Const):
                acc = f.value * acc
            else:
                factors.append(f)
    if acc == 0:
        return ZERO
    if not (not isinstance(acc, MetallicScalar) and acc == 1):
        factors.insert(0, Const(acc))
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
        if isinstance(d.value, MetallicScalar):
            return mul(Const(d.value.inverse()), n)
        return mul(Const(1 / d.value), n)
    if _is_const(n, 0):
        return ZERO
    if n == d:
        return ONE
    return Div(n, d)


def pow_(base: ExprLike, exponent: int) -> Expr:
    if not isinstance(exponent, int):
        raise ExprError("only integer exponents are supported")
    b = _as_expr(base)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return b
    if isinstance(b, Const):
        v = b.value
        if exponent < 0:
            if v == 0:
                raise EvalError("zero to a negative power")
        return Const(v ** exponent)
    if isinstance(b, Pow):
        return pow_(b.base, b.exponent * exponent)
    return Pow(b, exponent)


def call(fn: str, arg: ExprLike) -> Expr:
    return Call(fn, _as_expr(arg))


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
        return div(add(mul(dn, e.den), mul(const(-1), e.num, dd)), pow_(e.den, 2))
    if isinstance(e, Pow):
        d = diff(e.base, v)
        if _is_const(d, 0):
            return ZERO
        return mul(const(e.exponent), pow_(e.base, e.exponent - 1), d)
    if isinstance(e, Call):
        d = diff(e.arg, v)
        if _is_const(d, 0):
            return ZERO
        fn, a = e.fn, e.arg
        if fn == "sqrt":
            inner = div(ONE, mul(const(2), Call("sqrt", a)))
        elif fn == "exp":
            inner = Call("exp", a)
        elif fn == "log":
            inner = div(ONE, a)
        elif fn == "sin":
            inner = Call("cos", a)
        else:  # cos
            inner = mul(const(-1), Call("sin", a))
        return mul(inner, d)
    raise ExprError(f"unknown node {e!r}")


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def evaluate(e: Expr, point: Mapping[Var, object], mode: str = "exact"):
    """Value of ``e`` at ``point``.

    Exact mode requires a rational tree and exact coordinates, and returns a
    Fraction or MetallicScalar.  Float mode returns a float (sigma embedded
    as (p + sqrt(p^2+4q))/2).
    """
    if mode == "exact":
        return _eval_exact(e, point)
    if mode == "float":
        try:
            return _eval_float(e, point)
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            # float range or math domain, e.g. x^400 at 1e3, x^-2 or log(x) at 0
            raise EvalError(f"float evaluation failed: {exc}") from None
    raise EvalError(f"unknown evaluation mode {mode!r}")


def _eval_exact(e: Expr, pt: Mapping[Var, object]):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            v = pt[e]
        except KeyError:
            raise EvalError(f"no value for variable {e.name}") from None
        return _to_scalar(v)
    if isinstance(e, Add):
        out = Fraction(0)
        for t in e.terms:
            out = out + _eval_exact(t, pt)
        return out
    if isinstance(e, Mul):
        out = Fraction(1)
        for f in e.factors:
            out = out * _eval_exact(f, pt)
        return out
    if isinstance(e, Div):
        den = _eval_exact(e.den, pt)
        if den == 0:
            raise EvalError(f"division by zero at point in {to_str(e)}")
        return _eval_exact(e.num, pt) / den
    if isinstance(e, Pow):
        base = _eval_exact(e.base, pt)
        if e.exponent < 0 and base == 0:
            raise EvalError("zero base with negative exponent")
        return base ** e.exponent
    if isinstance(e, Call):
        raise EvalError(f"exact mode cannot evaluate {e.fn}; tree is not rational")
    raise ExprError(f"unknown node {e!r}")


def _eval_float(e: Expr, pt: Mapping[Var, object]) -> float:
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        try:
            return float(pt[e])
        except KeyError:
            raise EvalError(f"no value for variable {e.name}") from None
    if isinstance(e, Add):
        return sum(_eval_float(t, pt) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= _eval_float(f, pt)
        return out
    if isinstance(e, Div):
        den = _eval_float(e.den, pt)
        if den == 0.0:
            raise EvalError(f"division by zero at point in {to_str(e)}")
        return _eval_float(e.num, pt) / den
    if isinstance(e, Pow):
        return _eval_float(e.base, pt) ** e.exponent
    if isinstance(e, Call):
        return getattr(math, e.fn)(_eval_float(e.arg, pt))
    raise ExprError(f"unknown node {e!r}")


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        v = e.value
        if isinstance(v, MetallicScalar):
            s = str(v)
            return s, _PREC_ATOM if ("+" not in s[1:] and "-" not in s[1:] and "*" not in s) else _PREC_ADD
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
        parts = []
        for f in e.factors:
            s, p = _render(f)
            parts.append(s if p > _PREC_ADD else f"({s})")
        return "*".join(parts), _PREC_MUL
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
    if isinstance(e, Call):
        s, _ = _render(e.arg)
        return f"{e.fn}({s})", _PREC_ATOM
    raise ExprError(f"unknown node {e!r}")


def to_str(e: Expr) -> str:
    """Canonical infix form; ``parse(to_str(e))`` reproduces the value."""
    return _render(e)[0]


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

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
        if c.isdigit():
            j = i
            while j < len(t) and t[j].isdigit():
                j += 1
            return ("int", t[i:j], i)
        if c.isalpha():
            j = i
            while j < len(t) and (t[j].isalnum() or t[j] == "_"):
                j += 1
            return ("name", t[i:j], i)
        if c in "+-*/^()":
            return (c, c, i)
        raise ParseError(f"unexpected character {c!r}", i)

    def next(self):
        tok = self.peek()
        self.pos += len(tok[1])
        return tok


class Parser:
    """Recursive-descent parser for the coordinate expression grammar.

    Precedence, loosest to tightest: ``+ -``, ``* /``, unary ``-``, ``^``;
    binary operators associate to the left.  Variables are ``x<i>``/``y<i>``
    with 1 <= i <= n.
    """

    def __init__(self, text: str, n: int) -> None:
        self.toks = _Tokenizer(text)
        self.n = n

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
                e = add(e, mul(const(-1), self._product()))
            else:
                return e

    def _product(self) -> Expr:
        e = self._unary()
        while True:
            kind, _, _ = self.toks.peek()
            if kind == "*":
                self.toks.next()
                e = mul(e, self._unary())
            elif kind == "/":
                self.toks.next()
                e = div(e, self._unary())
            else:
                return e

    def _unary(self) -> Expr:
        kind, _, _ = self.toks.peek()
        if kind == "-":
            self.toks.next()
            return mul(const(-1), self._unary())
        return self._power()

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
                e = pow_(e, -int(v2) if neg else int(v2))
            elif k2 == "(":
                exp = self._atom_paren()
                if not isinstance(exp, Const) or not isinstance(exp.value, Fraction) or exp.value.denominator != 1:
                    raise ParseError("exponent must be an integer", o2)
                k = int(exp.value)
                e = pow_(e, -k if neg else k)
            else:
                raise ParseError("exponent must be an integer", o2)

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
            return const(int(val))
        if kind == "(":
            return self._atom_paren()
        if kind == "name":
            self.toks.next()
            if val in _FUNCTIONS:
                return call(val, self._atom_paren())
            if val[0] in "xy" and val[1:].isdigit():
                idx = int(val[1:])
                if not 1 <= idx <= self.n:
                    raise ParseError(f"unknown variable {val!r}: index out of range 1..{self.n}", off)
                return Var("base" if val[0] == "x" else "fiber", idx)
            raise ParseError(f"unknown identifier {val!r}", off)
        raise ParseError(f"unexpected token {val!r}", off)


def parse(text: str, n: int) -> Expr:
    """Parse a DSL expression over coordinates x1..xn, y1..yn."""
    return Parser(text, n).parse()
