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
import operator
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import DomainError, ExprSyntaxError, UnknownFunction
from .jets import Jet

CONSTANTS = {"pi": math.pi, "e": math.e}


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class _Node:
    """An AST node; offset, its byte offset in the text, takes no part in equality."""

    offset: int = field(default=-1, compare=False, kw_only=True)


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    pass


@dataclass(frozen=True)
class Const(_Node):
    name: str


@dataclass(frozen=True)
class Neg(_Node):
    child: object


@dataclass(frozen=True)
class Bin(_Node):
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Fn(_Node):
    name: str
    arg: object


ExprAst = object  # any of the node types above


# -- tokenizer -------------------------------------------------------------

_OPS = "+-*/^()"
# unicode minus normalized to '-'
_MINUS_ALIASES = {"−": "-"}


def _tokens(text: str):
    toks, i, n = [], 0, len(text)

    def run(j, ok):
        """The end of the run of characters from j that pass ok."""
        while j < n and ok(text[j]):
            j += 1
        return j

    while i < n:
        ch, j = _MINUS_ALIASES.get(text[i], text[i]), i + 1
        if ch in _OPS:
            toks.append((ch, i))
        elif ch.isdigit() or ch == ".":
            j = run(i, lambda c: c.isdigit() or c == ".")
            k = j + 1 + (text[j + 1:j + 2] in ("+", "-"))  # an exponent's digits, after its sign
            if text[j:j + 1] in ("e", "E") and text[i:j].count(".") <= 1 and text[k:k + 1].isdigit():
                j = run(k, str.isdigit)
            try:
                toks.append(("num", i, float(text[i:j])))
            except ValueError:
                raise ExprSyntaxError(f"bad number {text[i:j]!r}", i) from None
        elif ch.isalpha() or ch == "_":
            j = run(i, lambda c: c.isalnum() or c == "_")
            toks.append(("name", i, text[i:j]))
        elif not ch.isspace():
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
        i = j
    return toks + [("end", n)]


# -- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.toks = _tokens(text)
        self.pos = 0
        self.nodes = {}

    def node(self, cls, *fields, offset):
        """The parse's one node of type cls with these fields (a child by
        identity, a name or number by its repr, so -0.0 is not 0.0): the first built."""
        key = (cls, *[repr(f) if type(f) in (str, float) else id(f) for f in fields])
        if key not in self.nodes:
            self.nodes[key] = cls(*fields, offset=offset)
        return self.nodes[key]

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        self.pos += 1
        return self.toks[self.pos - 1]

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, got {t[0]!r}", t[1])

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ExprSyntaxError(f"unexpected token {t[0]!r}", t[1])
        return node

    def expr(self, ops="+-"):
        """An expr (terms joined by ops "+-") or a term (factors joined by "*/")."""
        operand = self.factor if ops == "*/" else lambda: self.expr("*/")
        node = operand()
        while self.peek()[0] in ops:  # a token kind is one character or a word
            op, off = self.next()[:2]
            node = self.node(Bin, op, node, operand(), offset=off)
        return node

    def factor(self):
        if self.peek()[0] == "-":
            off = self.next()[1]
            return self.node(Neg, self.factor(), offset=off)
        node = self.atom()
        if self.peek()[0] == "^":
            off = self.next()[1]
            node = self.node(Bin, "^", node, self.factor(), offset=off)
        return node

    def atom(self):
        t = self.next()
        if t[0] == "num":
            return self.node(Num, t[2], offset=t[1])
        if t[0] == "(":
            node = self.expr()
            self.expect(")")
            return node
        if t[0] == "name":
            name = t[2]
            if name == "s":
                return self.node(Var, offset=t[1])
            if name in CONSTANTS:
                return self.node(Const, name, offset=t[1])
            if name not in jets.FUNCTIONS or self.peek()[0] != "(":
                raise UnknownFunction(name, t[1])
            self.next()
            arg = self.expr()
            self.expect(")")
            return self.node(Fn, name, arg, offset=t[1])
        raise ExprSyntaxError(f"unexpected token {t[0]!r}", t[1])


def parse(text: str) -> ExprAst:
    """Parse generator-expression text into an AST; equal sub-expressions share a node."""
    return _Parser(text).parse()


# -- pretty printer --------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 2, "^": 4}


def to_str(node, parent_prec=0) -> str:
    if isinstance(node, Num):
        v = node.value
        return repr(int(v)) if float(v).is_integer() and abs(v) < 1e16 else repr(v)
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
        left_bar, right_bar = (p + 1, p) if node.op == "^" else (p, p + 1)
        left, right = to_str(node.left, left_bar), to_str(node.right, right_bar)
        s = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
        return f"({s})" if parent_prec > p else s
    raise TypeError(f"not an AST node: {node!r}")


# -- evaluation ------------------------------------------------------------


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _constant(fn, x, *args):
    """fn at the value of a constant sub-expression, an order-0 jet at no s."""
    return fn(Jet([x], base_point=None), *args).value


def _eval(node, seed, memo):
    """Jet of the node at the seed's points, or a float for a constant node,
    evaluated once per node object (memo maps id(node) to it).

    A DomainError of the node's own operation gets the node's byte offset
    (the jets name the s).
    """
    if id(node) not in memo:
        memo[id(node)] = _eval_node(node, seed, memo)
    return memo[id(node)]


def _eval_node(node, seed, memo):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return seed
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Neg):
        return -_eval(node.child, seed, memo)
    if isinstance(node, Fn):
        fn, args = jets.FUNCTIONS[node.name], [_eval(node.arg, seed, memo)]
    elif isinstance(node, Bin):
        fn = _ARITH.get(node.op, jets.pow_const)
        args = [_eval(node.left, seed, memo), _eval(node.right, seed, memo)]
        if node.op == "^" and isinstance(args[1], Jet):  # a constant sub-expression is a float
            raise ExprSyntaxError("exponent must be constant", node.offset)
    else:
        raise TypeError(f"not an AST node: {node!r}")
    try:
        if isinstance(node, Fn) or node.op == "^":
            return fn(*args) if isinstance(args[0], Jet) else _constant(fn, *args)
        a, b = args
        if node.op == "/" and not isinstance(a, Jet) and not isinstance(b, Jet) and b == 0.0:
            raise DomainError("div", None, "division by zero")
        return fn(a, b)
    except DomainError as err:
        err.offset = node.offset
        raise


def eval_jet(ast, s, order: int = jets.DEFAULT_ORDER) -> Jet:
    """Jet of the denoted function at s (a float or a 1-D array), to the given order.

    Overflow gives inf or NaN coefficients rather than a warning, and so
    does a point of an array s outside a function's domain; a float s
    raises DomainError there.
    """
    seed = Jet.variable(s, order)
    with np.errstate(all="ignore"):
        out = _eval(ast, seed, {})
    if not isinstance(out, Jet):
        out = Jet.constant(out, order, base_point=seed.base_point)
    return out


def mobius(ast, a, b, c, d) -> ExprAst:
    """AST for (a*h + b)/(c*h + d) applied to the given h AST."""
    if a * d - b * c == 0.0:
        raise ValueError("degenerate Mobius transform: ad - bc = 0")
    num = Bin("+", Bin("*", Num(float(a)), ast), Num(float(b)))
    den = Bin("+", Bin("*", Num(float(c)), ast), Num(float(d)))
    return Bin("/", num, den)
