"""Truncated Taylor jets over a batch of base points (Taylor-mode arithmetic).

A :class:`Jet` carries the value and the first K derivatives of a scalar
function at N base points, propagated exactly (up to rounding) through
arithmetic and the supported elementary functions (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13).  This is the differentiation
backend for the generator function h and everything built from it,
including the Schwarzian derivative.

Coefficients are stored in Taylor form (c_k = f^(k)(s)/k!) as one array of
shape (K+1, N).  A jet built at a float s is a batch of one whose accessors
return floats; built at an array of s they return arrays.  Every recurrence
adds its terms elementwise in a fixed order, so a point gets the same bits
alone or in any batch.  Overflow shows as inf or NaN in the coefficients,
and so does a batch point outside a function's domain, while a jet at a
float raises DomainError there; callers that evaluate jets wrap them in
``np.errstate``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

DEFAULT_ORDER = 5

_FACT = np.array([math.factorial(k) for k in range(32)], dtype=float)


def _cauchy(a, b):
    """Cauchy product of coefficient arrays of equal length."""
    n = len(a)
    out = a[0] * b
    for j in range(1, n):
        out[j:] += a[j] * b[: n - j]
    return out


def _quotient(a, b):
    """q with q * b = a, solved row by row."""
    q = a.copy()
    n = len(q)
    for k in range(n):
        q[k] /= b[0]
        if k + 1 < n:
            q[k + 1:] -= q[k] * b[1: n - k]
    return q


class Jet:
    """Value plus derivatives up to order K at each of the base points."""

    __slots__ = ("base_point", "_tc")

    def __init__(self, taylor_coeffs, base_point=0.0):
        """Coefficients of shape (K+1,) for one point or (K+1, N); an array is not copied."""
        tc = np.asarray(taylor_coeffs, dtype=float)
        if tc.ndim == 1:
            tc = tc[:, None]
        if tc.ndim != 2 or not len(tc):
            raise ValueError("a jet needs at least its value coefficient")
        self._tc = tc
        self.base_point = base_point

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls, x, order=DEFAULT_ORDER):
        """Jet of the identity s |-> s at x (a float or a 1-D array)."""
        base = np.array(x, dtype=float) if np.ndim(x) else float(x)
        tc = np.zeros((order + 1, np.size(base)))
        tc[0] = base
        if order >= 1:
            tc[1] = 1.0
        return cls(tc, base)

    @classmethod
    def constant(cls, value, order=DEFAULT_ORDER, base_point=0.0):
        tc = np.zeros((order + 1, np.size(base_point)))
        tc[0] = value
        return cls(tc, base_point)

    # -- accessors ---------------------------------------------------------

    @property
    def batched(self):
        """True when built at an array of points (accessors return arrays)."""
        return isinstance(self.base_point, np.ndarray)

    def _out(self, row):
        return row if self.batched else float(row[0])

    def point(self, i):
        """The i-th base point as a float (a single jet's own base point)."""
        return float(self.base_point[i]) if self.batched else self.base_point

    @property
    def order(self):
        return len(self._tc) - 1

    @property
    def value(self):
        return self._out(self._tc[0])

    def derivative(self, k):
        """k-th derivative at the base points (k=0 is the value)."""
        return self._out(self._tc[k] * _FACT[k])

    @property
    def coeffs(self):
        """(value, f', f'', ..., f^(K)) at the base points."""
        return tuple(self.derivative(k) for k in range(self.order + 1))

    def taylor(self):
        return self._tc

    def take(self, idx):
        """The jet at the base points idx: an int gives a single jet."""
        if np.ndim(idx) == 0:
            return Jet(self._tc[:, idx: idx + 1 or None], self.point(idx))
        return Jet(self._tc[:, idx], self.base_point[idx])

    def truncate(self, order):
        if order >= self.order:
            return self
        return Jet(self._tc[: order + 1], self.base_point)

    def deriv(self):
        """Jet of the derivative function, one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(_scaled_tail(self._tc), self.base_point)

    def __repr__(self):
        return f"Jet({self.coeffs!r}, base_point={self.base_point!r})"

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        """Coefficient arrays of self and a jet other, truncated to a common order."""
        if other.base_point is not self.base_point and not np.array_equal(
                other.base_point, self.base_point):
            raise ValueError("jet base points differ")
        n = min(len(self._tc), len(other._tc))
        return self._tc[:n], other._tc[:n]

    def _domain(self, bad, fn, message=None):
        """The jet with NaN coefficients at the batch points where bad holds
        (outside fn's domain); a jet at a float raises DomainError there."""
        if not np.any(bad):
            return self
        if not self.batched:
            raise DomainError(fn, self.base_point, message)
        return Jet(np.where(bad, np.nan, self._tc), self.base_point)

    def __add__(self, other):
        if not isinstance(other, Jet):
            tc = self._tc.copy()
            tc[0] += other
            return Jet(tc, self.base_point)
        a, b = self._coerce(other)
        return Jet(a + b, self.base_point)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self._tc, self.base_point)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return self + (-other)
        a, b = self._coerce(other)
        return Jet(a - b, self.base_point)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self._tc * other, self.base_point)
        a, b = self._coerce(other)
        return Jet(_cauchy(a, b), self.base_point)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            if np.any(np.equal(other, 0.0)):
                raise DomainError("div", self.point(0), "division by zero")
            return self * (1.0 / other)
        other = other._domain(other.taylor()[0] == 0.0, "div", "division by a jet with zero value")
        a, b = self._coerce(other)
        return Jet(_quotient(a, b), self.base_point)

    def __rtruediv__(self, other):
        return Jet.constant(other, self.order, self.base_point) / self

    def __pow__(self, p):
        return pow_const(self, p)


# -- elementary functions (Taylor-series recurrences) ----------------------
#
# For u = f(a) with u' = g(a) a', the coefficients follow from
# k u_k = sum_{j=1..k} j a_j g_{k-j}; each finished row adds its terms to
# every later row.


def _scaled_tail(t):
    """Rows j * a_j, j = 1..K."""
    return t[1:] * np.arange(1, len(t))[:, None]


def exp(a: Jet) -> Jet:
    t = a.taylor()
    e = np.zeros_like(t)
    e[0] = np.exp(t[0])
    jt = _scaled_tail(t)
    for m in range(len(t) - 1):
        e[m + 1:] += jt[: len(t) - 1 - m] * e[m]
        e[m + 1] /= m + 1
    return Jet(e, a.base_point)


def log(a: Jet) -> Jet:
    t = a._domain(a.taylor()[0] <= 0.0, "log").taylor()
    out = np.empty_like(t)
    out[0] = np.log(t[0])
    if len(t) > 1:
        q = _quotient(_scaled_tail(t), t[:-1])  # a'/a
        out[1:] = q / np.arange(1, len(t))[:, None]
    return Jet(out, a.base_point)


def _trig_pair(a: Jet, hyperbolic: bool):
    """(sin a, cos a), or (sinh a, cosh a) when hyperbolic."""
    t = a.taylor()
    s, c = np.zeros_like(t), np.zeros_like(t)
    s[0], c[0] = (np.sinh(t[0]), np.cosh(t[0])) if hyperbolic else (np.sin(t[0]), np.cos(t[0]))
    jt = _scaled_tail(t)
    for m in range(len(t) - 1):
        w = jt[: len(t) - 1 - m]
        s[m + 1:] += w * c[m]
        if hyperbolic:
            c[m + 1:] += w * s[m]
        else:
            c[m + 1:] -= w * s[m]
        s[m + 1] /= m + 1
        c[m + 1] /= m + 1
    return Jet(s, a.base_point), Jet(c, a.base_point)


def tan(a):
    s, c = _trig_pair(a, False)
    return s / c._domain(c.taylor()[0] == 0.0, "tan")


def cot(a):
    s, c = _trig_pair(a, False)
    return c / s._domain(s.taylor()[0] == 0.0, "cot")


def tanh(a):
    s, c = _trig_pair(a, True)
    return s / c


def sqrt(a: Jet) -> Jet:
    t = a.taylor()
    # sqrt(0) has no derivative, but its value is fine in an order-0 jet
    t = a._domain((t[0] < 0.0) | ((t[0] == 0.0) & (len(t) > 1)), "sqrt").taylor()
    r = t.copy()
    r[0] = np.sqrt(t[0])
    for k in range(1, len(t)):
        for j in range(1, k):
            r[k] -= r[j] * r[k - j]
        r[k] /= 2.0 * r[0]
    return Jet(r, a.base_point)


FUNCTIONS = {
    "exp": exp,
    "log": log,
    "sin": lambda a: _trig_pair(a, False)[0],
    "cos": lambda a: _trig_pair(a, False)[1],
    "tan": tan,
    "cot": cot,
    "sinh": lambda a: _trig_pair(a, True)[0],
    "cosh": lambda a: _trig_pair(a, True)[1],
    "tanh": tanh,
    "sqrt": sqrt,
}


def pow_const(a: Jet, p) -> Jet:
    """a**p for a constant real exponent p.

    Integer exponents are computed by repeated multiplication (valid for any
    base); real exponents require a positive base value.
    """
    if float(p).is_integer():
        p = int(p)
        if p == 0:  # 1, but NaN where the value of a is (outside a function's domain)
            return Jet.constant(1.0, a.order, a.base_point) + 0.0 * a.value
        out = a
        for _ in range(abs(p) - 1):
            out = out * a
        return 1.0 / out if p < 0 else out
    t = a._domain(a.taylor()[0] <= 0.0, "pow", "non-integer power of a non-positive base").taylor()
    w = np.zeros_like(t)
    w[0] = np.power(t[0], p)
    for k in range(1, len(t)):
        for j in range(1, k + 1):
            w[k] += (p * j - (k - j)) * t[j] * w[k - j]
        w[k] /= k * t[0]
    return Jet(w, a.base_point)


def schwarzian(h: Jet) -> Jet:
    """Schwarzian derivative h'''/h' - (3/2)(h''/h')^2 as a jet of order K-3.

    Requires order >= 4 so that the result carries its own first derivative.
    """
    if h.order < 3:
        raise ValueError("schwarzian needs a jet of order >= 3")
    d1 = h.deriv()
    d1 = d1._domain(d1.taylor()[0] == 0.0, "schwarzian", "h' vanishes")
    d2 = d1.deriv()
    d3 = d2.deriv()
    r1 = d3 / d1
    r2 = d2 / d1
    return r1 - 1.5 * r2 * r2
