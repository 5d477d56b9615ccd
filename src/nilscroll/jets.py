"""Truncated Taylor-jet arithmetic.

A :class:`Jet` carries the value and the first K derivatives of a scalar
function at a base point, propagated exactly (up to rounding) through
arithmetic and the supported elementary functions.  This is the
differentiation backend for the generator function h and everything built
from it, including the Schwarzian derivative.

Internally coefficients are stored in Taylor form (c_k = f^(k)(s0)/k!);
the public ``coeffs``/``derivative`` accessors use plain derivatives.
"""

from __future__ import annotations

import math

from .errors import DomainError

DEFAULT_ORDER = 5

_FACT = [math.factorial(k) for k in range(32)]


class Jet:
    """Value plus derivatives up to order K of a function at ``base_point``."""

    __slots__ = ("base_point", "_tc")

    def __init__(self, taylor_coeffs, base_point=0.0):
        self.base_point = float(base_point)
        self._tc = tuple(float(c) for c in taylor_coeffs)
        if not self._tc:
            raise ValueError("a jet needs at least its value coefficient")

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls, x, order=DEFAULT_ORDER):
        """Jet of the identity s |-> s at x."""
        c = [float(x)] + [0.0] * order
        if order >= 1:
            c[1] = 1.0
        return cls(c, base_point=x)

    @classmethod
    def constant(cls, value, order=DEFAULT_ORDER, base_point=0.0):
        return cls([float(value)] + [0.0] * order, base_point=base_point)

    # -- accessors ---------------------------------------------------------

    @property
    def order(self):
        return len(self._tc) - 1

    @property
    def value(self):
        return self._tc[0]

    def derivative(self, k):
        """k-th derivative at the base point (k=0 is the value)."""
        return self._tc[k] * _FACT[k]

    @property
    def coeffs(self):
        """(value, f', f'', ..., f^(K)) at the base point."""
        return tuple(c * _FACT[k] for k, c in enumerate(self._tc))

    def taylor(self):
        return self._tc

    def truncate(self, order):
        if order >= self.order:
            return self
        return Jet(self._tc[: order + 1], self.base_point)

    def deriv(self):
        """Jet of the derivative function, one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(
            [(k + 1) * c for k, c in enumerate(self._tc[1:])], self.base_point
        )

    def __repr__(self):
        return f"Jet({self.coeffs!r}, base_point={self.base_point!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Jet)
            and self.base_point == other.base_point
            and self._tc == other._tc
        )

    def __hash__(self):
        return hash((self.base_point, self._tc))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.base_point != self.base_point:
                raise ValueError("jet base points differ")
            n = min(self.order, other.order)
            return self.truncate(n), other.truncate(n)
        return self, Jet.constant(other, self.order, self.base_point)

    def __add__(self, other):
        a, b = self._coerce(other)
        return Jet([x + y for x, y in zip(a._tc, b._tc)], self.base_point)

    __radd__ = __add__

    def __neg__(self):
        return Jet([-c for c in self._tc], self.base_point)

    def __sub__(self, other):
        a, b = self._coerce(other)
        return Jet([x - y for x, y in zip(a._tc, b._tc)], self.base_point)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet([c * other for c in self._tc], self.base_point)
        a, b = self._coerce(other)
        n = a.order
        out = [0.0] * (n + 1)
        for k in range(n + 1):
            out[k] = math.fsum(a._tc[j] * b._tc[k - j] for j in range(k + 1))
        return Jet(out, self.base_point)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            if other == 0.0:
                raise DomainError("div", self.base_point, "division by zero")
            return self * (1.0 / other)
        a, b = self._coerce(other)
        if b._tc[0] == 0.0:
            raise DomainError("div", self.base_point, "division by a jet with zero value")
        n = a.order
        q = [0.0] * (n + 1)
        for k in range(n + 1):
            acc = a._tc[k] - math.fsum(q[j] * b._tc[k - j] for j in range(k))
            q[k] = acc / b._tc[0]
        return Jet(q, self.base_point)

    def __rtruediv__(self, other):
        return Jet.constant(other, self.order, self.base_point) / self

    def __pow__(self, p):
        return pow_const(self, p)


def _as_jet_fn(name, scalar_fn, jet_fn):
    def wrapper(x):
        if isinstance(x, Jet):
            return jet_fn(x)
        return scalar_fn(x)

    wrapper.__name__ = name
    return wrapper


# -- elementary functions (Taylor-series recurrences) ----------------------


def _jet_exp(a: Jet) -> Jet:
    n = a.order
    t = a.taylor()
    e = [math.exp(t[0])] + [0.0] * n
    for k in range(1, n + 1):
        e[k] = math.fsum(j * t[j] * e[k - j] for j in range(1, k + 1)) / k
    return Jet(e, a.base_point)


def _jet_log(a: Jet) -> Jet:
    if a.value <= 0.0:
        raise DomainError("log", a.base_point)
    n = a.order
    # log' = a'/a, then integrate term by term.
    if n == 0:
        return Jet([math.log(a.value)], a.base_point)
    q = a.deriv() / a.truncate(n - 1)
    out = [math.log(a.value)] + [q.taylor()[k - 1] / k for k in range(1, n + 1)]
    return Jet(out, a.base_point)


def _jet_sin_cos(a: Jet):
    n = a.order
    t = a.taylor()
    s = [math.sin(t[0])] + [0.0] * n
    c = [math.cos(t[0])] + [0.0] * n
    for k in range(1, n + 1):
        s[k] = math.fsum(j * t[j] * c[k - j] for j in range(1, k + 1)) / k
        c[k] = -math.fsum(j * t[j] * s[k - j] for j in range(1, k + 1)) / k
    return Jet(s, a.base_point), Jet(c, a.base_point)


def _jet_sinh_cosh(a: Jet):
    n = a.order
    t = a.taylor()
    s = [math.sinh(t[0])] + [0.0] * n
    c = [math.cosh(t[0])] + [0.0] * n
    for k in range(1, n + 1):
        s[k] = math.fsum(j * t[j] * c[k - j] for j in range(1, k + 1)) / k
        c[k] = math.fsum(j * t[j] * s[k - j] for j in range(1, k + 1)) / k
    return Jet(s, a.base_point), Jet(c, a.base_point)


def _jet_sqrt(a: Jet) -> Jet:
    if a.value <= 0.0:
        raise DomainError("sqrt", a.base_point)
    n = a.order
    t = a.taylor()
    r = [math.sqrt(t[0])] + [0.0] * n
    for k in range(1, n + 1):
        acc = t[k] - math.fsum(r[j] * r[k - j] for j in range(1, k))
        r[k] = acc / (2.0 * r[0])
    return Jet(r, a.base_point)


def _jet_tan(a: Jet) -> Jet:
    s, c = _jet_sin_cos(a)
    if c.value == 0.0:
        raise DomainError("tan", a.base_point)
    return s / c


def _jet_cot(a: Jet) -> Jet:
    s, c = _jet_sin_cos(a)
    if s.value == 0.0:
        raise DomainError("cot", a.base_point)
    return c / s


def _jet_tanh(a: Jet) -> Jet:
    s, c = _jet_sinh_cosh(a)
    return s / c


# a float argument carries no s: hexpr locates these domain errors
def _scalar_cot(x):
    s = math.sin(x)
    if s == 0.0:
        raise DomainError("cot", None)
    return math.cos(x) / s


def _scalar_log(x):
    if x <= 0.0:
        raise DomainError("log", None)
    return math.log(x)


def _scalar_sqrt(x):
    if x < 0.0:
        raise DomainError("sqrt", None)
    return math.sqrt(x)


exp = _as_jet_fn("exp", math.exp, _jet_exp)
log = _as_jet_fn("log", _scalar_log, _jet_log)
sin = _as_jet_fn("sin", math.sin, lambda a: _jet_sin_cos(a)[0])
cos = _as_jet_fn("cos", math.cos, lambda a: _jet_sin_cos(a)[1])
tan = _as_jet_fn("tan", math.tan, _jet_tan)
cot = _as_jet_fn("cot", _scalar_cot, _jet_cot)
sinh = _as_jet_fn("sinh", math.sinh, lambda a: _jet_sinh_cosh(a)[0])
cosh = _as_jet_fn("cosh", math.cosh, lambda a: _jet_sinh_cosh(a)[1])
tanh = _as_jet_fn("tanh", math.tanh, _jet_tanh)
sqrt = _as_jet_fn("sqrt", _scalar_sqrt, _jet_sqrt)

FUNCTIONS = {
    "exp": exp,
    "log": log,
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "cot": cot,
    "sinh": sinh,
    "cosh": cosh,
    "tanh": tanh,
    "sqrt": sqrt,
}


def pow_const(a, p):
    """a**p for a constant real exponent p.

    Integer exponents are computed by repeated multiplication (valid for any
    base); real exponents require a positive base value.
    """
    if not isinstance(a, Jet):
        if float(p).is_integer():
            return float(a) ** int(p)
        if a <= 0.0:
            raise DomainError("pow", None, "non-integer power of a non-positive base")
        return math.pow(a, p)
    if float(p).is_integer():
        p = int(p)
        if p == 0:
            return Jet.constant(1.0, a.order, a.base_point)
        inv = p < 0
        p = abs(p)
        out = a
        for _ in range(p - 1):
            out = out * a
        if inv:
            return 1.0 / out
        return out
    if a.value <= 0.0:
        raise DomainError("pow", a.base_point, "non-integer power of a non-positive base")
    n = a.order
    t = a.taylor()
    w = [math.pow(t[0], p)] + [0.0] * n
    for k in range(1, n + 1):
        acc = math.fsum((p * j - (k - j)) * t[j] * w[k - j] for j in range(1, k + 1))
        w[k] = acc / (k * t[0])
    return Jet(w, a.base_point)


def schwarzian(h: Jet) -> Jet:
    """Schwarzian derivative h'''/h' - (3/2)(h''/h')^2 as a jet of order K-3.

    Requires order >= 4 so that the result carries its own first derivative.
    """
    if h.order < 3:
        raise ValueError("schwarzian needs a jet of order >= 3")
    d1 = h.deriv()
    if d1.value == 0.0:
        raise DomainError("schwarzian", h.base_point, "h' vanishes")
    d2 = d1.deriv()
    d3 = d2.deriv()
    r1 = d3 / d1
    r2 = d2 / d1
    return r1 - 1.5 * r2 * r2
