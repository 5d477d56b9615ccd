"""Piecewise-Chebyshev quadrature for the base curve.

The base null curve gamma' = A(s) and its Heisenberg area integral
J' = gamma1*A2 - gamma2*A1 are quadratures.  A is sampled at a panel's 129
Chebyshev-Lobatto points in one frame batch, the degree (its points a stride
of them) is chosen by tail decay, a panel that does not converge is split
(chebfun: Battles & Trefethen, SISC 2004); the series are integrated exactly.
The series arithmetic (numpy.polynomial.chebyshev is its test oracle) is a
cosine matrix for the coefficients, Clenshaw's recurrence, a z-series
product (one np.convolve) and a cumulative-sum derivative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateGenerator, NumericFailure, OutOfRange
from .frames import raise_first
from .jets import _scaled_tail

# Piecewise-Chebyshev base curve.  A panel is accepted when the largest of
# its last n/8 + 1 coefficients is below _CHEB_TOL times the largest |A| on
# it; each degree's nodes are a stride of the top degree's nodes.
_CHEB_TOL = 1e-13
_CHEB_DEGREES = (16, 32, 64, 128)
# panels narrower than this fraction of the curve's range are not split
_MIN_PANEL = 1e-8


def _lobatto(n):
    """n + 1 Chebyshev-Lobatto points on [-1, 1], ascending.

    In the sine form the points of degree n are bitwise every (m/n)-th
    point of degree m when m/n is a power of two.
    """
    return np.sin(np.pi * np.arange(-n, n + 1, 2) / (2 * n))


@functools.cache
def _dct(n):
    """The DCT-I that takes values at _lobatto(n) to Chebyshev coefficients,
    made once per degree and read only: entry (k, j) is (2/n) T_k(x_j) =
    (2/n) cos(pi*k*(n - j)/n), k*(n - j) reduced mod 2n, halved in the end
    rows and columns."""
    k = np.arange(n + 1)
    w = (k % n > 0) + 1.0
    T = np.cos(np.pi * (np.outer(k, n - k) % (2 * n)) / n) * np.outer(w, w) / (2 * n)
    T.flags.writeable = False
    return T


def _clenshaw(c, x):
    """C.chebval(x, c) bit for bit at a float or a 1-D array x: the same
    steps, for a float on Python floats one column at a time (no numpy
    dispatch per step), for an array on all columns at once.  The steps are
    elementwise: a point gets the same bits alone or in a batch."""
    out, x2 = [], 2 * x
    for col in [c[..., None]] if np.ndim(x) else c.reshape(len(c), -1).T.tolist():
        c0, c1 = col[-2:] if len(col) > 1 else (col[0], 0)
        for ci in col[-3::-1]:
            c0, c1 = ci - c1, c0 + c1 * x2
        out.append(c0 + c1 * x)
    return np.reshape(out, c.shape[1:] + np.shape(x))


def _chebmul(a, b):
    """C.chebmul(a, b) bit for bit on series without trailing zeros: the
    product of their z-series, one np.convolve."""
    c = np.convolve(*(np.r_[z[:0:-1], z[:1] * 2, z[1:]] / 2 for z in (a, b)))[len(a) + len(b) - 2:]
    c[1:] *= 2
    return c


def _chebint(c, k, scl):
    """C.chebint(c, lbnd=-1, k=[k], scl=scl) bit for bit, with its loop over
    the coefficients as two array statements."""
    c = c * scl
    if len(c) == 1 and np.all(c[0] == 0):
        return c + k
    m2 = 2.0 * np.arange(len(c) + 1).reshape((-1,) + (1,) * (c.ndim - 1))
    out = np.concatenate([c[:1] * 0, c[:1], c[1:] / m2[2:]])
    out[1:-2] -= c[2:] / m2[1:-2]
    out[0] += k - _clenshaw(out, -1.0)
    return out


@dataclass
class CurvePath:
    """Base null curve gamma (with gamma' = A) and area integral J.

    Polynomials on each panel [breaks[p], breaks[p+1]].  gamma(s0) = 0 and
    J(s0) = 0 exactly; the ambient translation freedom and the Heisenberg
    left-translation freedom absorb any other choice of constants.
    """

    s0: float
    breaks: np.ndarray = field(repr=False)
    coef: list = field(repr=False)  # per panel, rows of (gamma, J) coefficients
    origin: np.ndarray = field(repr=False)  # the series' (gamma, J) at s0

    @property
    def s_min(self):
        return float(self.breaks[0])

    @property
    def s_max(self):
        return float(self.breaks[-1])

    def dense_eval(self, s):
        """(gamma, J) at a float or 1-D array s; gamma has shape (3,) + np.shape(s).

        Clenshaw's recurrence is elementwise: a point gets the same bits alone
        or in a batch.
        """
        s = np.asarray(s, dtype=float)
        flat = np.atleast_1d(s)
        bad = (flat < self.s_min - 1e-12) | (flat > self.s_max + 1e-12)
        if np.any(bad):
            raise OutOfRange(f"s={flat[bad][0]} outside [{self.s_min}, {self.s_max}]")
        panel = np.clip(np.searchsorted(self.breaks, flat, side="right") - 1, 0, len(self.coef) - 1)
        y = np.empty((len(flat), 4))
        for p in set(panel.tolist()):  # np.unique would import numpy.ma
            a, b = self.breaks[p], self.breaks[p + 1]
            x = np.clip((flat[panel == p] - 0.5 * (a + b)) / (0.5 * (b - a)), -1.0, 1.0)
            y[panel == p] = _clenshaw(self.coef[p], x).T - self.origin
        if s.ndim == 0:
            return y[0, :3], float(y[0, 3])
        return y[:, :3].T, y[:, 3]

    def jets(self, s, A):
        """(gamma, J) at s as jets one order above the vector jet A of the
        frames at s: gamma = [gamma(s), A_0, A_1/2, ...] and J the
        antiderivative of the jet gamma1*A2 - gamma2*A1."""
        gamma, J = self.dense_eval(s)
        gamma = A.antideriv(gamma)
        return gamma, (gamma[0] * A[1] - gamma[1] * A[0]).antideriv(J)

    def deriv(self):
        """The path of (gamma', J'): each panel's series differentiated, with
        c'_(k-1) = c'_(k+1) + 2k c_k as one reversed cumulative sum over each
        parity of k, and c'_0 halved."""
        coef = []
        for c, width in zip(self.coef, np.diff(self.breaks)):
            d = _scaled_tail(c) * (4.0 / width)
            for i in (0, 1):
                d[i::2] = d[i::2][::-1].cumsum(0)[::-1]
            d[:1] /= 2
            coef.append(d if len(d) else c[:1] * 0)
        return replace(self, coef=coef, origin=np.zeros(4))


def integrate_curve(frame_source, s0, s_range) -> CurvePath:
    """gamma' = A(s), J' = gamma1*A2 - gamma2*A1 over s_range by quadrature.

    A(s) comes from the frame source, in one batch per panel; gamma and J
    are zero at s0.  A sign flip of B1 = H(1+h^2)/(2h') between finite nodes
    of any panel fetched (a zero of h', so a pole of A, or an even-order pole
    of h) raises DegenerateGenerator naming the cell; the first node of a
    panel where A is not finite raises (see raise_first), and a panel
    narrower than _MIN_PANEL times the range that still does not resolve A
    NumericFailure.
    """
    lo, hi = map(float, s_range)
    if not lo <= s0 <= hi or not lo < hi:
        raise ValueError(f"need lo <= s0 <= hi and lo < hi: s0={s0}, range [{lo}, {hi}]")

    def fit(a, b):
        """Coefficients of A on [a, b], or None if no degree resolves it."""
        top = _CHEB_DEGREES[-1]
        s = 0.5 * (a + b) + 0.5 * (b - a) * _lobatto(top)
        s[[0, -1]] = a, b
        f = frame_source(s)
        A, B1 = f.A.value.T.copy(), f.B[0].value  # C order: axis-0 sums round by layout
        xs, B1 = s[np.isfinite(B1)], B1[np.isfinite(B1)]
        i = np.flatnonzero(np.sign(B1[:-1]) * np.sign(B1[1:]) < 0)
        if len(i):
            raise DegenerateGenerator(f"h' changes sign in [{xs[i][0]}, {xs[i + 1][0]}]")
        raise_first(frame_source, s, ~np.isfinite(A).all(axis=1), "A(s) is not finite at s={!r}")
        for n in _CHEB_DEGREES:
            v = A[:: top // n]
            c = _dct(n) @ v
            if np.max(np.abs(c[-(n // 8 + 1):])) <= _CHEB_TOL * np.max(np.abs(v)):
                return c
        return None

    # depth first, left half first, so panels come out in ascending order
    panels, todo = [], [(lo, hi)]
    while todo:
        a, b = todo.pop()
        c = fit(a, b)
        if c is not None:
            panels.append((a, b, c))
        elif b - a < _MIN_PANEL * (hi - lo):
            raise NumericFailure(f"A(s) unresolved near s={0.5 * (a + b)!r}, "
                                 f"panel width {b - a:.3e}")
        else:
            todo += [(0.5 * (a + b), b), (a, 0.5 * (a + b))]
    breaks = np.array([a for a, _, _ in panels] + [hi])

    # integrate panel by panel from lo; T_k(1) = 1, so a series' value at
    # the right end of its panel is the sum of its coefficients
    gammas, end = [], np.zeros(3)
    for a, b, c in panels:
        gammas.append(_chebint(c, end, 0.5 * (b - a)))
        end = gammas[-1].sum(axis=0)
    p0 = min(int(np.searchsorted(breaks, s0, side="right")) - 1, len(panels) - 1)
    a0, b0, _ = panels[p0]
    x0 = min(max((s0 - 0.5 * (a0 + b0)) / (0.5 * (b0 - a0)), -1.0), 1.0)
    g0 = _clenshaw(gammas[p0], x0)
    coef, end = [], 0.0
    for (a, b, c), g in zip(panels, gammas):
        # J' from gamma shifted to vanish at s0, as an exact series product
        g12 = g[:, :2].copy()
        g12[0] -= g0[:2]
        dJ = _chebmul(g12[:, 0], c[:, 1]) - _chebmul(g12[:, 1], c[:, 0])
        j = _chebint(dJ, end, 0.5 * (b - a))
        end = j.sum()
        both = np.zeros((len(j), 4))  # J's series is the longer: deg J' = 2 deg A + 1
        both[: len(g), :3], both[:, 3] = g, j
        # trailing rows below rounding in every column only cost Clenshaw steps;
        # the first row stays, so A = 0 gives the zero curve
        big = np.abs(both) > np.finfo(float).eps * np.max(np.abs(both), axis=0)
        big[0] = True
        coef.append(both[: np.nonzero(big.any(axis=1))[0][-1] + 1])
    origin = _clenshaw(coef[p0], x0)
    return CurvePath(s0=s0, breaks=breaks, coef=coef, origin=origin)
