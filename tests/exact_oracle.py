"""Exact frames of polynomial generators, in rational arithmetic (test-only).

For a polynomial h with float coefficients, the closed-form frame that
frames.frame_from_h evaluates in floats is rational in h's Taylor
coefficients at s:

    B = -(H/(2h')) (-1 - h^2, 1 - h^2, 2h),   C = B'/H,
    A = (S(h)/H^2) B + B''/H^2,               kappa2 = -S(h)/H,

with S(h) = h'''/h' - (3/2)(h''/h')^2.  So fractions.Fraction Taylor
arithmetic up to h''' gives A, B, C and kappa2 exactly at a float s, and
with them the NotCE residual r1 = (kappa2/H) B3^2 - 1; a float frame's
error is measured against them, not against another float route.
factored_frame gives A and B again from forms that need neither S(h) nor
B''.
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
    p, q = 6 * t[3] / t[1], 2 * t[2] / t[1]  # h'''/h' and h''/h'
    S, scale = p - Fraction(3, 2) * q * q, (abs(p) + Fraction(3, 2) * q * q) / abs(H)
    B3 = B[2][0]
    return {
        "A": [S / H**2 * b[0] + 2 * b[2] / H**2 for b in B],
        "B": [b[0] for b in B],
        "C": [b[1] / H for b in B],
        "kappa2": -S / H,
        "kappa2_scale": scale,
        # r1 = (kappa2/H) B3^2 - 1, and the size of its terms: S's two over
        # H^2 times B3^2, and the 1
        "r1": -S / H**2 * B3 * B3 - 1,
        "r1_scale": scale / abs(H) * B3 * B3 + 1,
    }


def _n(a, b):
    """(-(a^2 + b^2), a^2 - b^2, 2ab)."""
    return [-(a * a + b * b), a * a - b * b, 2 * a * b]


def factored_frame(coeffs, H, s):
    """A and B of h = sum(coeffs[k] s^k) at the float s, exactly, from
    A = -n(h'', h h'' - 2h'^2)/(4H h'^3) and B = -(H/(2h')) n(1, h), with
    n(a, b) = (-(a^2 + b^2), a^2 - b^2, 2ab): no S(h) and no B''."""
    coeffs, H, s = [Fraction(float(c)) for c in coeffs], Fraction(float(H)), Fraction(float(s))
    h, h1, h2 = (k * x for k, x in zip((1, 1, 2), _taylor(coeffs, s, 2)))
    return {"A": [-x / (4 * H * h1**3) for x in _n(h2, h * h2 - 2 * h1 * h1)],
            "B": [-H / (2 * h1) * x for x in _n(1, h)]}
