"""Symbolic expression trees over chart coordinates.

Expressions are immutable trees of rational constants (Fraction), the
variables ``x1..xn`` / ``y1..yn``, the field operations and integer powers:
rational functions, with no analytic functions.  Simplification is local:
constant folding, dropping zero terms and unit factors, one power per base
in a product (x^a * x^b is x^(a+b), x^a * x^-a drops out), and every
quotient as a product with the negative powers of the denominator's
factors.  Correctness rests on exact evaluation at sample points, not on
canonical forms.

Nodes are hash-consed: each distinct tree is one object, so ``==`` and
``hash`` are identity.  The table ``_NODES`` lives for the process: the
manifest's trees, ``ZERO``, ``ONE`` and the ``Var``s outlive any run, and a
tree built again must be the same node.  The memos of ``add`` and ``mul``
(on their arguments as given) and ``diff`` live as long, unbounded: each
entry maps to a node the table keeps anyway.  A constant carries its
reduced (numerator, denominator) int pair beside its Fraction and is
interned under it; ``add`` and ``mul`` fold constants on such pairs.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from functools import cache, reduce
from math import gcd, isfinite
from operator import attrgetter
from typing import Mapping, Union

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


def _pair(x) -> tuple:
    """An exact scalar as its reduced (numerator, denominator > 0) pair."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return int(x), 1
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
    """Base node of a rational function.  Subclasses: Const, Var, Add, Mul, Pow.

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
    """A rational constant: its Fraction ``value`` and the reduced pair
    ``num``/``den`` (den > 0) of the same number."""

    __slots__ = ("value", "num", "den")

    def __new__(cls, value):
        return _const(*_pair(value))


def _const(n: int, d: int) -> Const:
    """The constant of the reduced pair n/d; its Fraction is made once."""
    node = _NODES.get((Const, n, d))
    return node if node is not None else _interned((Const, n, d), Fraction(n, d), n, d)


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


def _split_coeff(e: Expr):
    """Write e as (coefficient, tuple of the other factors), the coefficient a Const."""
    if isinstance(e, Mul):
        fs = e.factors
        if isinstance(fs[0], Const):
            return fs[0], fs[1:]
        return ONE, fs
    return ONE, (e,)


def _qsum(n1: int, d1: int, n2: int, d2: int) -> tuple:
    """n1/d1 + n2/d2 as an unreduced pair."""
    return (n1 + n2, d1) if d1 == d2 else (n1 * d2 + n2 * d1, d1 * d2)


@cache
def add(*xs: ExprLike) -> Expr:
    """Sum of ``xs``, memoised on the arguments as given."""
    # collect like terms by structural part so that e + (-1)*e folds to 0;
    # coefficients and the constant term are unreduced (num, den > 0) pairs
    coeffs: dict = {}  # part -> (num, den, its term while no like term met it)
    an, ad = 0, 1  # the constant term
    def accumulate(n, d, part, term=None):
        old = coeffs.get(part)
        coeffs[part] = (n, d, term) if old is None else (*_qsum(old[0], old[1], n, d), None)

    for e in map(_as_expr, xs):
        sub = e.terms if isinstance(e, Add) else (e,)
        for t in sub:
            if isinstance(t, Const):
                an, ad = _qsum(an, ad, t.num, t.den)
                continue
            c, part = _split_coeff(t)
            if len(part) == 1 and isinstance(part[0], Add):
                # distribute a constant coefficient over an inner sum so
                # that e + (-1)*(a + b) cancels against a + b termwise
                for t2 in part[0].terms:
                    if isinstance(t2, Const):
                        an, ad = _qsum(an, ad, c.num * t2.num, c.den * t2.den)
                        continue
                    c2, part2 = _split_coeff(t2)
                    accumulate(c.num * c2.num, c.den * c2.den, part2)
                continue
            accumulate(c.num, c.den, part, t)
    terms = []
    for part, (n, d, term) in coeffs.items():
        if term is None:  # a lone term is kept: mul would rebuild an equal tree
            if n == 0:
                continue
            term = mul(_printable(n, d), *part)
        terms.append(term)
    if an:
        terms.append(_printable(an, ad))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(terms)


@cache
def mul(*xs: ExprLike) -> Expr:
    """Product of ``xs``, memoised on the arguments as given."""
    factors = []
    powers: dict = {}  # base -> the sum of its exponents, in order of first appearance
    n = d = 1  # the product of the constant factors, an unreduced pair
    for e in tuple(map(_as_expr, xs)):  # all first: a zero factor hides no bad argument
        sub = e.factors if isinstance(e, Mul) else (e,)
        for f in sub:
            if isinstance(f, Const):
                if not f.num:
                    return ZERO
                n, d = n * f.num, d * f.den
                continue
            factors.append(f)
            base, k = (f.base, f.exponent) if isinstance(f, Pow) else (f, 1)
            powers[base] = powers.get(base, 0) + k
    # one power per base, while every exponent stays within MAX_EXPONENT; like
    # e - e in add, x * x^-1 folds to 1 without the zero-denominator error at x = 0
    if len(powers) < len(factors) and all(abs(k) <= MAX_EXPONENT for k in powers.values()):
        factors = [b if k == 1 else Pow(b, k) for b, k in powers.items() if k]
    if n != d:
        factors.insert(0, _printable(n, d))
    if not factors:
        return ONE
    if len(factors) == 1:
        return factors[0]
    return Mul(factors)


def div(num: ExprLike, den: ExprLike) -> Expr:
    """``num`` times the negative powers of the factors of ``den``; a
    quotient by the zero constant is refused."""
    n, d = _as_expr(num), _as_expr(den)
    if isinstance(d, Const):
        if not d.num:
            raise EvalError("division by the zero constant")
        return mul(Const(1 / d.value), n)
    return mul(n, *(pow_(f, -1) for f in (d.factors if isinstance(d, Mul) else (d,))))


def _printable(n: int, d: int) -> Const:
    """The constant n/d (d > 0), reduced by one gcd; refused when the printer
    could not write it, with more digits than the interpreter converts to a
    string."""
    g = gcd(n, d)
    n, d = n // g, d // g
    limit = sys.get_int_max_str_digits()
    big = max(abs(n), d)
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise EvalError(f"constant over {limit} digits")
    return _const(n, d)


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
        if exponent < 0 and not b.num:
            raise EvalError("zero to a negative power")
        bits = max(b.num.bit_length(), b.den.bit_length())
        if abs(exponent) * bits > 64 * MAX_EXPONENT:
            raise EvalError(f"power of a constant over {64 * MAX_EXPONENT} bits")
        return _printable(*_pair(b.value ** exponent))
    if isinstance(b, Pow):
        return pow_(b.base, b.exponent * exponent)
    return Pow(b, exponent)


# ----------------------------------------------------------------------
# differentiation
# ----------------------------------------------------------------------

@cache
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
            if d is ZERO:
                continue
            parts.append(mul(*fs[:i], d, *fs[i + 1:]))
        return add(*parts) if parts else ZERO
    if isinstance(e, Pow):
        d = diff(e.base, v)
        if d is ZERO:
            return ZERO
        return mul(const(e.exponent), pow_(e.base, e.exponent - 1), d)
    raise ExprError(f"unknown node {e!r}")


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

class Values:
    """Values of expressions at sample points (copies of the maps from ``Var`` to
    coordinate given, each exact when no coordinate is a float), and a ``cache``:
    each node computed (but none that failed) with its values at the points, as
    reduced (numerator, denominator > 0) pairs of ints when all are exact, else
    floats (all float)."""

    __slots__ = ("points", "exact", "cache")

    def __init__(self, points) -> None:
        self.points = [dict(p) for p in points]
        exact = {not any(isinstance(c, float) for c in p.values()) for p in self.points}
        if len(exact) > 1:  # one arithmetic for all
            raise ExprError("the points mix exact and float coordinates")
        self.exact = False not in exact
        self.cache: dict = {}  # node -> its values at the points, in order

    def each(self, exprs):
        """The values of ``exprs`` at every point, points outer, as ``evaluate`` gives
        them (``E.ZERO`` not evaluated), in an iterator that raises the first failure."""
        exprs, cache = list(exprs), self.cache
        zero = ZERO.value if self.exact else float(ZERO.value)
        try:
            self._walk(exprs)
            cols, rows = [cache.get(e) for e in exprs], range(len(self.points))
            if self.exact:  # most residuals are 0
                return iter([zero if c is None or not c[i][0] else Fraction(*c[i])
                             for i in rows for c in cols])
            out = [zero if c is None else c[i] for i in rows for c in cols]
            for v in out:
                if not isfinite(v):  # a product past the float range, or inf - inf
                    raise EvalError(f"float evaluation failed: the value is {v}")
            return iter(out)
        except EvalError:  # find the first: one point at a time, each with a cache of its own
            if len(self.points) * len(exprs) == 1:
                raise
        return (v for p in self.points for one in [Values([p])] for e in exprs
                for v in one.each([e]))

    def _walk(self, roots) -> None:
        """Cache every node under ``roots``, in the order of a recursive walk
        but from a stack of its own, at every point in one step."""
        cache, points = self.cache, self.points
        kernel = _exact if self.exact else _float
        todo = [e for e in reversed(roots) if e is not ZERO]
        while todo:
            e = todo.pop()
            if e in cache:
                continue
            args = _OPERANDS[type(e)](e)
            try:
                cols = [cache[a] for a in args]
            except KeyError:  # operands first
                todo += [e, *reversed([a for a in args if a not in cache])]
                continue
            try:
                cache[e] = kernel(e, cols, points)
            except OverflowError as exc:  # float range
                raise EvalError(f"float evaluation failed: {exc}") from None
            except KeyError:
                raise EvalError(f"no value for variable {e.name}") from None


_OPERANDS = {Add: attrgetter("terms"), Mul: attrgetter("factors"), Pow: lambda e: (e.base,),
             Const: lambda e: (), Var: lambda e: ()}


def evaluate(e: Expr, point: Mapping[Var, object]):
    """Value of ``e`` at ``point``: a Fraction when no coordinate is a float,
    else a float; a float past the float range, inf or nan, raises EvalError."""
    return next(Values([point]).each([e]))


def _exact(e: Expr, args: list, points) -> list:
    """``e`` at ``points`` from its operands' values ``args`` there, a sum or
    product formed unreduced and then reduced by one gcd."""
    t = type(e)
    if t is Const or t is Var:
        return [(e.num, e.den)] * len(points) if t is Const else [_pair(p[e]) for p in points]
    if t is Pow:  # powers of coprime ints are coprime
        k = e.exponent
        if k < 0 and (0, 1) in args[0]:
            raise EvalError(f"division by zero at point in {to_str(e)}")
        return [(n ** k, d ** k) if k >= 0 else (d ** -k, n ** -k) if n > 0
                else ((-d) ** -k, (-n) ** -k) for n, d in args[0]]
    out = []
    for vs in zip(*args):
        if t is Mul:
            n = d = 1
            for fn, fd in vs:
                n, d = n * fn, d * fd
        else:
            n, d = 0, 1
            for tn, td in vs:
                n, d = (n + tn, d) if td == d else (n * td + tn * d, d * td)
        g = gcd(n, d)
        out.append((n // g, d // g))
    return out


def _float(e: Expr, args: list, points) -> list:
    """``e`` at ``points`` from its operands' values ``args`` there, a sum
    from int 0 and a product from its first factor, left to right."""
    t = type(e)
    if t is Const or t is Var:
        return [float(e.value)] * len(points) if t is Const else [float(p[e]) for p in points]
    if t is Add:
        return [reduce(operator.add, vs, 0) for vs in zip(*args)]
    if t is Mul:
        return [reduce(operator.mul, vs) for vs in zip(*args)]
    if e.exponent < 0 and 0 in args[0]:
        raise EvalError(f"division by zero at point in {to_str(e)}")
    try:
        return [v ** e.exponent for v in args[0]]
    except OverflowError:
        raise OverflowError(f"{to_str(e)} is past the float range") from None


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _render(e: Expr, done: dict) -> tuple[str, int]:
    """The text and precedence of ``e`` from those of its operands in ``done``."""
    if isinstance(e, Const):
        if e.den == 1:
            return str(e.num), _PREC_ATOM if e.num >= 0 else _PREC_UNARY
        return f"{e.num}/{e.den}", _PREC_MUL
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            s, p = done[t]
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
        minus = fs[0] is MINUS_ONE
        parts = []
        for f in fs[1:] if minus else fs:
            s, p = done[f]
            parts.append(s if p > _PREC_ADD else f"({s})")
        return ("-" if minus else "") + "*".join(parts), _PREC_MUL
    bs, bp = done[e.base]
    bs = bs if bp >= _PREC_ATOM else f"({bs})"
    if e.exponent < 0:
        return f"{bs}^({e.exponent})", _PREC_POW
    return f"{bs}^{e.exponent}", _PREC_POW


def to_str(e: Expr) -> str:
    """Canonical infix form; ``parse(to_str(e))`` reproduces the value.  Each
    node is rendered once, after its operands, from a stack of its own."""
    done, todo = {}, [e]
    while todo:
        node = todo.pop()
        missing = [a for a in _OPERANDS[type(node)](node) if a not in done]
        if missing:
            todo += [node, *missing]
        elif node not in done:
            done[node] = _render(node, done)
    return done[e][0]


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

# a token a match: an int or a name (ASCII only: str.isdigit and isalnum also
# accept "²" and "٣", which int() then rejects or reads as "3"), an operator,
# its own kind, or any other character, refused only when the parser meets it
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|[-+*/^()]|(?P<bad>\S)")

# the binary levels, loosest first; each operator folds through the Expr
# operators, so through add, mul and div as this module names them
_LEVELS = ({"+": operator.add, "-": operator.sub}, {"*": operator.mul, "/": operator.truediv})

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


class _Parser:
    """Recursive-descent parser for the coordinate expression grammar, over
    the text's ``(kind, text, offset)`` tokens, read once.

    Precedence, loosest to tightest: ``+ -``, ``* /``, unary ``-``, ``^``;
    binary operators associate to the left.  Variables are the base
    coordinates ``x<i>`` with 1 <= i <= n; a manifest names no fiber
    coordinate.
    """

    def __init__(self, text: str, n: int) -> None:
        self.toks = [(m.lastgroup or m.group(), m.group(), m.start())
                     for m in _TOKEN.finditer(text)] + [("end", "", len(text))]
        self.i = self.depth = 0
        self.n = n

    def take(self, kinds=()):
        """The next token, passed over when its kind is one of ``kinds``."""
        tok = self.toks[self.i]
        if tok[0] == "bad":
            raise ParseError(f"unexpected character {tok[1]!r}", tok[2])
        self.i += tok[0] in kinds
        return tok

    def parse(self) -> Expr:
        e = self._binary(0)
        kind, val, off = self.take()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return e

    def _binary(self, level: int) -> Expr:
        """The operands of the ``_LEVELS[level:]`` operators, folded to the left."""
        if level == len(_LEVELS):
            return self._unary()
        e = self._binary(level + 1)
        while True:
            kind, _, off = self.take(_LEVELS[level])
            if kind not in _LEVELS[level]:
                return e
            e = self._fold(_LEVELS[level][kind], off, e, self._binary(level + 1))

    @staticmethod
    def _fold(build, off: int, *args) -> Expr:
        """``build(*args)``; a constant that folds to an error, such as
        ``1/(x1-x1)`` or ``0^-1``, or a power or a constant that ``pow_``,
        ``mul`` or ``add`` refuses, is a syntax error at the operator."""
        try:
            return build(*args)
        except EvalError as exc:
            raise ParseError(str(exc), off) from None

    def _unary(self) -> Expr:
        """Every parenthesis and sign passes here, one level deeper each."""
        kind, _, off = self.take(("-",))
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", off)
        self.depth += 1
        e = mul(MINUS_ONE, self._unary()) if kind == "-" else self._power()
        self.depth -= 1
        return e

    def _power(self) -> Expr:
        """An atom to integer powers: an int, or a parenthesised integer
        constant, each after an optional ``-``; a written int makes no node."""
        e = self._atom()
        while True:
            kind, _, off = self.take(("^",))
            if kind != "^":
                return e
            neg = self.take(("-",))[0] == "-"
            kind, val, o2 = self.take(("int",))
            if kind == "int":
                k = _int(val, o2)
            elif kind == "(":
                exp = self._atom()
                if not isinstance(exp, Const) or exp.den != 1:
                    raise ParseError("exponent must be an integer", o2)
                k = exp.num
            else:
                raise ParseError("exponent must be an integer", o2)
            # pow_ refuses a power past MAX_EXPONENT: a syntax error at the ^
            e = self._fold(pow_, off, e, -k if neg else k)

    def _atom(self) -> Expr:
        kind, val, off = self.take(("int", "(", "name"))
        if kind == "int":
            return const(_int(val, off))
        if kind == "(":
            e = self._binary(0)
            kind, val, off = self.take((")",))
            if kind != ")":
                raise ParseError(f"expected ')' but found {val!r}", off)
            return e
        if kind == "name":
            if val[0] == "x" and val[1:].isdigit():
                idx = _int(val[1:], off)
                if not 1 <= idx <= self.n:
                    raise ParseError(f"unknown variable {val!r}: index out of range 1..{self.n}", off)
                return Var("base", idx)
            raise ParseError(f"unknown identifier {val!r}", off)
        raise ParseError(f"unexpected token {val!r}", off)


def parse(text: str, n: int) -> Expr:
    """Parse a DSL expression over the base coordinates x1..xn."""
    return _Parser(text, n).parse()
