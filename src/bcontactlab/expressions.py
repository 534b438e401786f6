"""A tiny expression language for scalar fields on coordinate charts.

Grammar (infix, left-associative, ``^`` binds tightest and takes an integer
literal exponent only)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' INT)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Functions: ``sin``, ``cos``, ``exp``, ``sqrt``, ``abs``.  Identifiers that are
not function names are variables; evaluation checks them against the chart's
variable tuple.  The AST is a frozen dataclass tree with structural equality,
and ``to_string`` prints with minimal parentheses so that
``parse(to_string(e)) == e`` for any parsed tree.

Evaluation takes python floats or numpy arrays of a common shape in ``env``,
so the same tree walk evaluates a single point or a whole grid.  Derivatives
are trees too: :func:`differentiate` builds the exact partial of a tree, which
then evaluates like any other.  :func:`compile` turns a tuple of trees into
one generated function with the same values, for trees evaluated many times.

Domain policy (shared by every consumer, and by derivative trees, whose
``abs``/``sqrt``/quotient nodes inherit the same checks):

* division by an exact zero, or a non-finite quotient, raises :class:`DomainError`;
* ``sqrt`` requires a strictly positive argument (the slope blows up at 0);
* ``abs`` is non-differentiable at 0 and refuses arguments with ``|x| < 1e-12``
  rather than silently picking a subgradient;
* integer powers with negative exponent require a non-zero base, and a
  power that overflows is a domain error;
* ``exp`` overflow is a domain error, not an ``inf``.

On an array argument every check is an *any*: one bad lane fails the batch.
"""
from __future__ import annotations

import builtins
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParseError", "EvalError", "DomainError", "Expr", "Const", "Var", "Unary",
    "Binary", "Power", "parse", "to_string", "evaluate", "free_vars",
    "differentiate", "gradient", "hessian", "substitute", "eval_value",
    "compile", "ABS_KINK_HALFWIDTH",
]

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")
ABS_KINK_HALFWIDTH = 1e-12


class ParseError(ValueError):
    """Syntax error, with the byte offset where parsing stopped."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    """Evaluation error independent of numeric domain issues."""


class DomainError(ValueError):
    """Evaluation left the domain of a primitive operation."""


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    func: str
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: int


# --------------------------------------------------------------------------
# lexer

_TOKEN_KINDS = ("NUMBER", "IDENT", "OP", "END")


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(src):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            # exponent suffix: 1e-3, 2.5E+10
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", i) from None
            tokens.append(_Token("NUMBER", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", src[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append(_Token("OP", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


# --------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, text):
        t = self.peek()
        if t.kind == "OP" and t.text == text:
            return self.next()
        raise ParseError(f"expected {text!r}", t.offset)

    def parse_expr(self):
        node = self.parse_term()
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text in "+-":
                self.next()
                node = Binary(t.text, node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text in "*/":
                self.next()
                node = Binary(t.text, node, self.parse_factor())
            else:
                return node

    def parse_factor(self):
        t = self.peek()
        if t.kind == "OP" and t.text == "-":
            self.next()
            return _Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        t = self.peek()
        if t.kind == "OP" and t.text == "^":
            self.next()
            return Power(base, self.parse_exponent())
        return base

    def parse_exponent(self):
        """Integer exponent; a literal tower like 2^3 folds right-associatively."""
        sign = 1
        t = self.peek()
        if t.kind == "OP" and t.text == "-":
            self.next()
            sign = -1
            t = self.peek()
        if t.kind != "NUMBER" or any(ch in t.text for ch in ".eE"):
            raise ParseError("expected an integer exponent after '^'", t.offset)
        self.next()
        base = int(t.text)
        nxt = self.peek()
        if nxt.kind == "OP" and nxt.text == "^":
            self.next()
            inner = self.parse_exponent()
            if inner < 0:
                raise ParseError("negative exponent inside an exponent tower", nxt.offset)
            base = base ** inner
        return sign * base

    def parse_atom(self):
        t = self.next()
        if t.kind == "NUMBER":
            return Const(float(t.text))
        if t.kind == "IDENT":
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                if t.text not in FUNCTIONS:
                    raise ParseError(
                        f"unknown function {t.text!r} (expected one of {', '.join(FUNCTIONS)})",
                        t.offset,
                    )
                self.next()
                arg = self.parse_expr()
                self.expect_op(")")
                return Unary(t.text, arg)
            return Var(t.text)
        if t.kind == "OP" and t.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, name or '('", t.offset)


def _Neg(inner):
    """Unary minus is stored as ``0 - x`` only when printing would be ambiguous;
    we keep it as a Binary '-' with a zero left so the tree stays a 5-node
    algebra.  Folding ``Const(0.0) - Const(c)`` keeps literal negatives tidy."""
    if isinstance(inner, Const):
        return Const(-inner.value)
    return Binary("-", Const(0.0), inner)


def parse(src, variables=None):
    """Parse ``src`` into an :class:`Expr`, raising :class:`ParseError` with offset.

    When ``variables`` is given, any identifier outside it is rejected up front
    (unknown-identifier error naming the culprit), so a parsed tree is always
    evaluable against its chart.
    """
    p = _Parser(_tokenize(src))
    node = p.parse_expr()
    t = p.peek()
    if t.kind != "END":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.offset)
    if variables is not None:
        stray = free_vars(node) - set(variables)
        if stray:
            raise ParseError(
                f"unknown variable {sorted(stray)[0]!r} "
                f"(chart declares {', '.join(variables)})",
                0,
            )
    return node


# --------------------------------------------------------------------------
# printer

def _prec(e):
    if isinstance(e, (Const, Var, Unary)):
        return 4
    if isinstance(e, Power):
        return 3
    if isinstance(e, Binary) and e.op in "*/":
        return 2
    return 1


def _fmt_const(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(e):
    """Print with minimal parentheses; round-trips through :func:`parse`."""
    if isinstance(e, Const):
        if e.value < 0:
            return "-" + _fmt_const(-e.value)
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        return f"{e.func}({to_string(e.arg)})"
    if isinstance(e, Power):
        base = to_string(e.base)
        needs_parens = _prec(e.base) <= 3 or (
            isinstance(e.base, Const) and e.base.value < 0)
        if needs_parens:
            base = f"({base})"
        if e.exponent < 0:
            return f"{base}^-{-e.exponent}"
        return f"{base}^{e.exponent}"
    if isinstance(e, Binary):
        # unary minus encoding: 0 - x prints as -x
        if e.op == "-" and e.left == Const(0.0):
            inner = to_string(e.right)
            if _prec(e.right) < 2:
                inner = f"({inner})"
            return "-" + inner
        lp, rp = _prec(e.left), _prec(e.right)
        myp = _prec(e)
        ls = to_string(e.left)
        rs = to_string(e.right)
        if lp < myp:
            ls = f"({ls})"
        # the right side keeps parens at equal precedence too: a + (b - c)
        # must not silently reassociate to (a + b) - c, which differs in floats
        if rp <= myp:
            rs = f"({rs})"
        if not rs.startswith("(") and rs.startswith("-"):
            rs = f"({rs})"
        return f"{ls} {e.op} {rs}"
    raise TypeError(f"not an Expr: {e!r}")


# --------------------------------------------------------------------------
# evaluation / analysis

def free_vars(e):
    """The set of variable names appearing in ``e``."""
    if isinstance(e, Const):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return free_vars(e.arg)
    if isinstance(e, Power):
        return free_vars(e.base)
    if isinstance(e, Binary):
        return free_vars(e.left) | free_vars(e.right)
    raise TypeError(f"not an Expr: {e!r}")


_PLAIN = (float, int)   # the types that go through ``math``; arrays use numpy


def _any(mask):
    """A comparison's outcome at a point, or whether it holds in any lane."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _all_finite(x):
    return bool(np.isfinite(x).all()) if isinstance(x, np.ndarray) else math.isfinite(x)


def evaluate(e, env):
    """Evaluate ``e`` with ``env`` mapping variable names to floats or arrays.

    Unknown variables raise :class:`EvalError` naming the missing identifier.
    Numeric domain violations surface as :class:`DomainError`.  A constant
    tree evaluates to a bare float whatever the shape of ``env``.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unknown variable {e.name!r}") from None
    if isinstance(e, Binary):
        l = evaluate(e.left, env)
        r = evaluate(e.right, env)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        return _div(l, r)
    if isinstance(e, Power):
        return _int_power(evaluate(e.base, env), e.exponent)
    if isinstance(e, Unary):
        a = evaluate(e.arg, env)
        return _unary(e.func)(a)
    raise TypeError(f"not an Expr: {e!r}")


# The checked primitives below are the domain policy; evaluated and compiled
# trees both call them.  A plain float goes through ``math``, anything else
# through numpy.

def _div(l, r):
    if _any(r == 0):
        raise DomainError("division by zero")
    q = l / r
    if not _all_finite(q):
        raise DomainError("non-finite quotient")
    return q


def _int_power(x, m):
    if m < 0 and _any(x == 0):
        raise DomainError("negative power of zero")
    try:
        out = x ** m
    except OverflowError:
        raise DomainError(f"power {m} overflow") from None
    if not _all_finite(out):
        raise DomainError(f"power {m} produced a non-finite value")
    return out


def _sin(a):
    return math.sin(a) if type(a) in _PLAIN else np.sin(a)


def _cos(a):
    return math.cos(a) if type(a) in _PLAIN else np.cos(a)


def _exp(a):
    if type(a) in _PLAIN:
        try:
            out = math.exp(a)
        except OverflowError:
            raise DomainError("exp overflow") from None
    else:
        with np.errstate(over="ignore"):  # reported as a DomainError below
            out = np.exp(a)
    if not _all_finite(out):
        raise DomainError("exp overflow")
    return out


def _sqrt(a):
    if _any(a <= 0):
        raise DomainError("sqrt of a non-positive argument")
    return math.sqrt(a) if type(a) in _PLAIN else np.sqrt(a)


def _abs(a):
    out = abs(a)
    if _any(out < ABS_KINK_HALFWIDTH):
        raise DomainError("abs evaluated at its kink")
    return out


_UNARY = {"sin": _sin, "cos": _cos, "exp": _exp, "sqrt": _sqrt, "abs": _abs}


def _unary(func):
    try:
        return _UNARY[func]
    except KeyError:
        raise EvalError(f"unknown function {func!r}") from None


# --------------------------------------------------------------------------
# compilation

# Everything generated code can name: the checked primitives, and the two
# non-finite float reprs.
_NAMESPACE = {"__builtins__": {}, "_div": _div, "_int_power": _int_power,
              "inf": math.inf, "nan": math.nan,
              **{f"_{name}": fn for name, fn in _UNARY.items()}}


def compile(trees, variables):
    """One generated function of positional values returning ``trees``' values.

    ``compile(trees, variables)(*values)`` equals ``tuple(evaluate(t, env)
    for t in trees)`` with ``env = dict(zip(variables, values))``, bit for
    bit, for floats and arrays alike, and raises :class:`DomainError` where
    that does.  The source is generated from the AST alone: values are the
    parameters ``x0, x1, ...`` by position and constants are float literals,
    so no name from a scenario reaches it.  Each structurally distinct
    subtree is one statement, computed once, and each temporary is deleted
    after its last use so that array temporaries do not pile up.  A variable
    outside ``variables`` raises :class:`EvalError` here, naming it.
    """
    position = {name: i for i, name in enumerate(variables)}
    lines = []      # (temp, expression, operand temps)
    temps = {}      # expression text -> temp: structural equality
    seen = {}       # id(node) -> operand text, so shared nodes are walked once

    def operand(e):
        text = seen.get(id(e))
        if text is not None:
            return text
        if isinstance(e, Const):
            text = repr(float(e.value))
        elif isinstance(e, Var):
            if e.name not in position:
                raise EvalError(f"unknown variable {e.name!r}")
            text = f"x{position[e.name]}"
        else:
            if isinstance(e, Binary):
                args = (operand(e.left), operand(e.right))
                expr = (f"{args[0]} {e.op} {args[1]}" if e.op in ("+", "-", "*")
                        else f"_div({args[0]}, {args[1]})")
            elif isinstance(e, Power):
                args = (operand(e.base),)
                expr = f"_int_power({args[0]}, {int(e.exponent)})"
            elif isinstance(e, Unary):
                _unary(e.func)
                args = (operand(e.arg),)
                expr = f"_{e.func}({args[0]})"
            else:
                raise TypeError(f"not an Expr: {e!r}")
            text = temps.get(expr)
            if text is None:
                text = temps[expr] = f"t{len(lines)}"
                lines.append((text, expr, args))
        seen[id(e)] = text
        return text

    results = [operand(t) for t in trees]
    defined = set(temps.values())
    last_use = {arg: k for k, (_, _, args) in enumerate(lines)
                for arg in args if arg in defined}
    dead = {}   # line -> temps it uses last; results live until the return
    for temp, k in last_use.items():
        if temp not in results:
            dead.setdefault(k, []).append(temp)
    source = [f"def _compiled({', '.join(f'x{i}' for i in range(len(variables)))}):"]
    for k, (temp, expr, _) in enumerate(lines):
        source.append(f"    {temp} = {expr}")
        if k in dead:
            source.append(f"    del {', '.join(dead[k])}")
    source.append(f"    return ({''.join(f'{r}, ' for r in results)})")
    namespace = dict(_NAMESPACE)
    exec(builtins.compile("\n".join(source), "<expressions.compile>", "exec"),
         namespace)
    return namespace["_compiled"]


# --------------------------------------------------------------------------
# symbolic differentiation and substitution
#
# These build derived fields (pole-chart counterparts, frame coefficients and
# their partials, Laplacians, Hessians) as first-class expressions.  The
# construction helpers add/sub/neg/mul/div fold the obvious 0/1 identities so
# derivative trees do not balloon, but user-supplied trees are never rewritten.

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is(e, value):
    return type(e) is Const and e.value == value


def add(a, b):
    if _is(a, 0.0):
        return b
    if _is(b, 0.0):
        return a
    if type(a) is Const and type(b) is Const:
        return Const(a.value + b.value)
    return Binary("+", a, b)


def sub(a, b):
    if _is(b, 0.0):
        return a
    if type(a) is Const and type(b) is Const:
        return Const(a.value - b.value)
    if _is(a, 0.0):
        return neg(b)
    return Binary("-", a, b)


def neg(a):
    if type(a) is Const:
        return Const(-a.value)
    return Binary("-", _ZERO, a)


def mul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    if _is(a, 1.0):
        return b
    if _is(b, 1.0):
        return a
    if type(a) is Const and type(b) is Const:
        return Const(a.value * b.value)
    return Binary("*", a, b)


def div(a, b):
    if _is(a, 0.0):
        return _ZERO
    if _is(b, 1.0):
        return a
    return Binary("/", a, b)


def differentiate(e, name):
    """The partial derivative of ``e`` with respect to variable ``name``.

    Purely mechanical; the result folds only the 0/1 identities created by
    the rules themselves (a quotient whose denominator does not depend on
    ``name`` differentiates as ``dl / r``).
    """
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == name else _ZERO
    if isinstance(e, Binary):
        dl = differentiate(e.left, name)
        dr = differentiate(e.right, name)
        if e.op == "+":
            return add(dl, dr)
        if e.op == "-":
            return sub(dl, dr)
        if e.op == "*":
            return add(mul(dl, e.right), mul(e.left, dr))
        if _is(dr, 0.0):
            return div(dl, e.right)
        num = sub(mul(dl, e.right), mul(e.left, dr))
        return div(num, Power(e.right, 2))
    if isinstance(e, Power):
        m = e.exponent
        if m == 0:
            return _ZERO
        if m == 1:
            return differentiate(e.base, name)
        lowered = e.base if m == 2 else Power(e.base, m - 1)
        return mul(mul(Const(float(m)), lowered), differentiate(e.base, name))
    if isinstance(e, Unary):
        da = differentiate(e.arg, name)
        if e.func == "sin":
            outer = Unary("cos", e.arg)
        elif e.func == "cos":
            outer = neg(Unary("sin", e.arg))
        elif e.func == "exp":
            outer = e
        elif e.func == "sqrt":
            outer = div(Const(0.5), e)
        elif e.func == "abs":
            outer = div(e, e.arg)
        else:
            raise EvalError(f"unknown function {e.func!r}")
        return mul(outer, da)
    raise TypeError(f"not an Expr: {e!r}")


def gradient(e, names):
    """The partials of ``e`` with respect to each of ``names``."""
    return tuple(differentiate(e, name) for name in names)


def hessian(e, names):
    """Second partials of ``e`` as a symmetric nest of trees.

    Each mixed partial is derived once and fills both of its slots, so the
    evaluated matrix is exactly symmetric.
    """
    rows = [[None] * len(names) for _ in names]
    for i, first in enumerate(gradient(e, names)):
        for j in range(i, len(names)):
            rows[i][j] = rows[j][i] = differentiate(first, names[j])
    return tuple(tuple(row) for row in rows)


def substitute(e, mapping):
    """Replace each variable named in ``mapping`` by its expression, in one pass."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Unary):
        return Unary(e.func, substitute(e.arg, mapping))
    if isinstance(e, Power):
        return Power(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Binary):
        return Binary(e.op, substitute(e.left, mapping), substitute(e.right, mapping))
    raise TypeError(f"not an Expr: {e!r}")


# --------------------------------------------------------------------------
# point evaluation helpers

def eval_value(e, variables, point):
    """Value of ``e`` at ``point`` (floats or arrays)."""
    return evaluate(e, dict(zip(variables, point)))
