"""Piecewise-Chebyshev quadrature for the base curve.

The base null curve gamma' = A(s) and its Heisenberg area integral
J' = gamma1*A2 - gamma2*A1 are quadratures.  A is interpolated on nested
Chebyshev-Lobatto points of each panel, the degree is chosen by tail decay
and a panel that does not converge is split (the chebfun construction:
Battles & Trefethen, SISC 2004), then the series are integrated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as C

from .errors import NumericFailure, OutOfRange
from .frames import raise_first
from .lorentz import Vec3L

# Piecewise-Chebyshev base curve.  A panel is accepted when the largest of
# its last n/8 + 1 coefficients is below _CHEB_TOL times the largest |A| on
# it; each degree's nodes contain the previous degree's nodes.
_CHEB_TOL = 1e-13
_CHEB_DEGREES = (16, 32, 64, 128)
# panels narrower than this fraction of the curve's range are not split
_MIN_PANEL = 1e-8


def _lobatto(n):
    """n + 1 Chebyshev-Lobatto points on [-1, 1], ascending.

    In the sine form the points of degree n are bitwise the even points of
    degree 2n, so a doubling reuses every frame already computed.
    """
    return np.sin(np.pi * np.arange(-n, n + 1, 2) / (2 * n))


def _cheb_coeffs(v):
    """Chebyshev coefficients of the interpolant of rows v at _lobatto(n).

    One FFT of the even extension (a DCT-I); odd signs flip for ascending x.
    """
    n = len(v) - 1
    c = np.fft.rfft(np.concatenate([v, v[-2:0:-1]]), axis=0).real / n
    c[[0, n]] /= 2
    c[1::2] *= -1
    return c


def _cheb_eval(breaks, coef, s):
    """Rows of the piecewise series at the points s (a 1-D array).

    Clenshaw's recurrence is elementwise: a point gets the same bits alone
    or in a batch.
    """
    panel = np.clip(np.searchsorted(breaks, s, side="right") - 1, 0, len(coef) - 1)
    out = np.empty((len(s), coef[0].shape[1]))
    for p in np.unique(panel):
        a, b = breaks[p], breaks[p + 1]
        x = np.clip((s[panel == p] - 0.5 * (a + b)) / (0.5 * (b - a)), -1.0, 1.0)
        out[panel == p] = C.chebval(x, coef[p]).T
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
    A_nodes: dict = field(repr=False)  # A at every node where it was evaluated

    @property
    def s_min(self):
        return float(self.breaks[0])

    @property
    def s_max(self):
        return float(self.breaks[-1])

    @property
    def samples(self):
        """Ordered (s, gamma, J, gamma') tuples at the Chebyshev nodes."""
        nodes = sorted(self.A_nodes)
        gamma, J = self.dense_eval(nodes)
        return [(s, Vec3L(*g), float(j), Vec3L(*self.A_nodes[s]))
                for s, g, j in zip(nodes, zip(*gamma), J)]

    def dense_eval(self, s):
        """(gamma, J) at s; for an array of s, componentwise arrays."""
        s = np.asarray(s, dtype=float)
        flat = np.atleast_1d(s)
        bad = (flat < self.s_min - 1e-12) | (flat > self.s_max + 1e-12)
        if np.any(bad):
            raise OutOfRange(f"s={flat[bad][0]} outside [{self.s_min}, {self.s_max}]")
        y = _cheb_eval(self.breaks, self.coef, flat) - self.origin
        if s.ndim == 0:
            return Vec3L(*y[0, :3]), float(y[0, 3])
        return Vec3L(*y[:, :3].T), y[:, 3]

    def gamma(self, s) -> Vec3L:
        return self.dense_eval(s)[0]


def integrate_curve(frame_source, s0, s_range) -> CurvePath:
    """gamma' = A(s), J' = gamma1*A2 - gamma2*A1 over s_range by quadrature.

    A(s) comes from the frame source, one batch per degree's new nodes;
    gamma and J are zero at s0.  The first node of a batch where A is not
    finite raises (see frames.raise_first), and a panel narrower than
    _MIN_PANEL times the range that still does not resolve A NumericFailure.
    """
    lo, hi = float(s_range[0]), float(s_range[1])
    if not lo <= s0 <= hi or not lo < hi:
        raise ValueError(f"need lo <= s0 <= hi and lo < hi: s0={s0}, range [{lo}, {hi}]")
    A_nodes = {}

    def fit(a, b):
        """Coefficients of A on [a, b], or None if no degree resolves it."""
        for n in _CHEB_DEGREES:
            s = 0.5 * (a + b) + 0.5 * (b - a) * _lobatto(n)
            s[0], s[-1] = a, b
            new = [x for x in s if x not in A_nodes]
            if new:
                A = frame_source(np.array(new)).A.value().as_array().T
                A_nodes.update(zip(new, A))
                raise_first(frame_source, new, ~np.isfinite(A).all(axis=1),
                            "A(s) is not finite at s={!r}")
            v = np.array([A_nodes[x] for x in s])
            c = _cheb_coeffs(v)
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
        gammas.append(C.chebint(c, lbnd=-1, k=[end], scl=0.5 * (b - a)))
        end = gammas[-1].sum(axis=0)
    g0 = _cheb_eval(breaks, gammas, np.array([s0]))[0]
    coef, end = [], 0.0
    for (a, b, c), g in zip(panels, gammas):
        # J' from gamma shifted to vanish at s0, as an exact series product
        g1, g2 = C.chebsub(g[:, 0], g0[:1]), C.chebsub(g[:, 1], g0[1:2])
        dJ = C.chebsub(C.chebmul(g1, c[:, 1]), C.chebmul(g2, c[:, 0]))
        j = C.chebint(dJ, lbnd=-1, k=[end], scl=0.5 * (b - a))
        end = j.sum()
        both = np.zeros((max(len(j), len(g)), 4))
        both[: len(g), :3], both[: len(j), 3] = g, j
        # trailing rows below rounding in every column only cost Clenshaw steps;
        # the first row stays, so A = 0 gives the zero curve
        big = np.abs(both) > np.finfo(float).eps * np.max(np.abs(both), axis=0)
        big[0] = True
        coef.append(both[: np.nonzero(big.any(axis=1))[0][-1] + 1])
    origin = _cheb_eval(breaks, coef, np.array([s0]))[0]
    return CurvePath(s0=s0, breaks=breaks, coef=coef, origin=origin, A_nodes=A_nodes)
