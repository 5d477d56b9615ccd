"""Exact frames of polynomial generators, in rational arithmetic (test-only).

For a polynomial h with float coefficients, the closed-form frame that
frames.frame_from_h evaluates in floats is rational in h's Taylor
coefficients at s:

    B = -(H/(2h')) (-1 - h^2, 1 - h^2, 2h),   C = B'/H,
    A = (S(h)/H^2) B + B''/H^2,               kappa2 = -S(h)/H,

with S(h) = h'''/h' - (3/2)(h''/h')^2.  So fractions.Fraction Taylor
arithmetic up to h''' gives A, B, C and kappa2 exactly at a float s, and a
float frame's error is measured against them, not against another float
route.
"""

from fractions import Fraction
from math import comb


def polynomial_text(coeffs):
    """hexpr text of sum(coeffs[k] * s^k), each coefficient written by repr
    so that the parsed float is the coefficient's own."""
    return " + ".join(f"({float(c)!r})*s^{k}" if k else f"({float(c)!r})"
                      for k, c in enumerate(coeffs))


def _taylor(coeffs, s, order):
    """h^(k)(s)/k! for k <= order: the coefficient of x^k in h(s + x)."""
    return [sum(c * comb(j, k) * s ** (j - k) for j, c in enumerate(coeffs) if j >= k)
            for k in range(order + 1)]


def _mul(a, b):
    """The product of two truncated Taylor series, to the shorter's order."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(min(len(a), len(b)))]


def _reciprocal(a):
    """1/a as a truncated Taylor series of a's order; a[0] != 0."""
    out = [1 / a[0]]
    for k in range(1, len(a)):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0])
    return out


def exact_frame(coeffs, H, s):
    """A, B, C (three Fractions each) and kappa2 of h = sum(coeffs[k] s^k) at
    the float s, exactly; also the size of S(h)'s two terms over |H|, the
    scale kappa2's rounding is relative to (S cancels where it crosses 0)."""
    coeffs, H, s = [Fraction(float(c)) for c in coeffs], Fraction(float(H)), Fraction(float(s))
    t = _taylor(coeffs, s, 3)
    if t[1] == 0:
        raise ZeroDivisionError(f"h'({float(s)!r}) = 0")
    q = _reciprocal([t[1], 2 * t[2], 3 * t[3]])  # 1/h' to order 2
    hh = _mul(t[:3], t[:3])
    v = ([-1 - hh[0], -hh[1], -hh[2]], [1 - hh[0], -hh[1], -hh[2]], [2 * x for x in t[:3]])
    B = [[-H / 2 * x for x in _mul(q, vi)] for vi in v]  # each [B_i, B_i', B_i''/2]
    r1, r2 = 6 * t[3] / t[1], 2 * t[2] / t[1]  # h'''/h' and h''/h'
    S = r1 - Fraction(3, 2) * r2 * r2
    return {
        "A": [S / H**2 * b[0] + 2 * b[2] / H**2 for b in B],
        "B": [b[0] for b in B],
        "C": [b[1] / H for b in B],
        "kappa2": -S / H,
        "kappa2_scale": (abs(r1) + Fraction(3, 2) * r2 * r2) / abs(H),
    }
