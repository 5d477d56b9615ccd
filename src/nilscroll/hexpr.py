"""Parser and evaluator for the generator-expression language.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := number | 's' | 'pi' | 'e' | fn '(' expr ')' | '(' expr ')'

'^' is right-associative and its exponent must be constant (no 's').
Unary minus binds looser than '^', so "-s^2" parses as -(s^2).
The only variable is the curve parameter 's'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import DomainError, ExprSyntaxError, UnknownFunction
from .jets import Jet

CONSTANTS = {"pi": math.pi, "e": math.e}


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Var:
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Const:
    name: str
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg:
    child: object
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Fn:
    name: str
    arg: object
    offset: int = field(default=-1, compare=False)


ExprAst = object  # any of the node types above


# -- tokenizer -------------------------------------------------------------

_OPS = "+-*/^()"
# unicode minus normalized to '-'
_MINUS_ALIASES = {"−": "-"}


def _tokens(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = _MINUS_ALIASES.get(text[i], text[i])
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            toks.append((ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE" and not text[i:j].count(".") > 1:
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                raise ExprSyntaxError(f"bad number {lit!r}", i, {"number"}) from None
            toks.append(("num", i, val))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", i, text[i:j]))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i, set())
    toks.append(("end", n))
    return toks


# -- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.peek()
        if t[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, got {t[0]!r}", t[1], {kind})
        return self.next()

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ExprSyntaxError(f"unexpected token {t[0]!r}", t[1], {"end"})
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, off = self.next()[:2]
            node = Bin(op, node, self.term(), offset=off)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, off = self.next()[:2]
            node = Bin(op, node, self.factor(), offset=off)
        return node

    def factor(self):
        t = self.peek()
        if t[0] == "-":
            off = self.next()[1]
            return Neg(self.factor(), offset=off)
        node = self.atom()
        if self.peek()[0] == "^":
            off = self.next()[1]
            node = Bin("^", node, self.factor(), offset=off)
        return node

    def atom(self):
        t = self.peek()
        if t[0] == "num":
            self.next()
            return Num(t[2], offset=t[1])
        if t[0] == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if t[0] == "name":
            self.next()
            name = t[2]
            if name == "s":
                return Var(offset=t[1])
            if name in CONSTANTS:
                return Const(name, offset=t[1])
            if self.peek()[0] == "(":
                if name not in jets.FUNCTIONS:
                    raise UnknownFunction(name, t[1])
                self.next()
                arg = self.expr()
                self.expect(")")
                return Fn(name, arg, offset=t[1])
            raise UnknownFunction(name, t[1])
        raise ExprSyntaxError(
            f"unexpected token {t[0]!r}", t[1], {"number", "name", "(", "-"}
        )


def parse(text: str) -> ExprAst:
    """Parse generator-expression text into an AST."""
    return _Parser(text).parse()


# -- pretty printer --------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 2, "^": 4}


def to_str(node, parent_prec=0) -> str:
    if isinstance(node, Num):
        v = node.value
        s = repr(int(v)) if float(v).is_integer() and abs(v) < 1e16 else repr(v)
        return s
    if isinstance(node, Var):
        return "s"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Neg):
        inner = f"-{to_str(node.child, _PREC['neg'])}"
        return f"({inner})" if parent_prec > _PREC["neg"] else inner
    if isinstance(node, Fn):
        return f"{node.name}({to_str(node.arg)})"
    if isinstance(node, Bin):
        p = _PREC[node.op]
        # left-assoc except '^'; give the non-associating side a higher bar
        if node.op == "^":
            left = to_str(node.left, p + 1)
            right = to_str(node.right, p)
        else:
            left = to_str(node.left, p)
            right = to_str(node.right, p + 1)
        s = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
        return f"({s})" if parent_prec > p else s
    raise TypeError(f"not an AST node: {node!r}")


# -- evaluation ------------------------------------------------------------


def _contains_var(node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, (Num, Const)):
        return False
    if isinstance(node, Neg):
        return _contains_var(node.child)
    if isinstance(node, Fn):
        return _contains_var(node.arg)
    if isinstance(node, Bin):
        return _contains_var(node.left) or _contains_var(node.right)
    raise TypeError(f"not an AST node: {node!r}")


def _constant(fn, x, *args):
    """fn at the value of a constant sub-expression, an order-0 jet at no s."""
    return fn(Jet([x], base_point=None), *args).value


def _eval(node, seed):
    """Jet of the node at the seed's points, or a float for a constant node."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return seed
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Neg):
        return -_eval(node.child, seed)
    if isinstance(node, Fn):
        arg = _eval(node.arg, seed)
        fn = jets.FUNCTIONS[node.name]
        try:
            return fn(arg) if isinstance(arg, Jet) else _constant(fn, arg)
        except DomainError as err:  # jets name the s; add the byte offset
            err.offset = node.offset
            raise
    if isinstance(node, Bin):
        a = _eval(node.left, seed)
        if node.op == "^":
            if _contains_var(node.right):
                raise ExprSyntaxError(
                    "exponent must be constant", node.offset, {"constant"}
                )
            p = _eval(node.right, seed)
            try:
                if isinstance(a, Jet):
                    return jets.pow_const(a, p)
                return _constant(jets.pow_const, a, p)
            except DomainError as err:
                err.offset = node.offset
                raise
        b = _eval(node.right, seed)
        try:
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                if not isinstance(a, Jet) and not isinstance(b, Jet) and b == 0.0:
                    raise DomainError("div", None, "division by zero")
                return a / b
        except DomainError as err:
            err.offset = node.offset
            raise
    raise TypeError(f"not an AST node: {node!r}")


def eval_jet(ast, s, order: int = jets.DEFAULT_ORDER) -> Jet:
    """Jet of the denoted function at s (a float or a 1-D array), to the given order.

    Overflow gives inf or NaN coefficients rather than a warning, and so
    does a point of an array s outside a function's domain; a float s
    raises DomainError there.
    """
    seed = Jet.variable(s, order)
    with np.errstate(all="ignore"):
        out = _eval(ast, seed)
    if not isinstance(out, Jet):
        out = Jet.constant(out, order, base_point=seed.base_point)
    return out


def eval_real(ast, s):
    """Value of the denoted function at s: a float, or an array for an array of s."""
    return eval_jet(ast, s, 0).value


def mobius(ast, a, b, c, d) -> ExprAst:
    """AST for (a*h + b)/(c*h + d) applied to the given h AST."""
    if a * d - b * c == 0.0:
        raise ValueError("degenerate Mobius transform: ad - bc = 0")
    num = Bin("+", Bin("*", Num(float(a)), ast), Num(float(b)))
    den = Bin("+", Bin("*", Num(float(c)), ast), Num(float(d)))
    return Bin("/", num, den)
