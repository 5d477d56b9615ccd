"""frame_from_h against exact rational frames of polynomial generators.

The bound is fixed ahead of the draws: at 41 points of -1:1, each of A, B
and C within BOUND eps times its exact vector's largest component, and
kappa2 within BOUND eps times the size of S(h)'s two terms over |H|, and
notce_residuals' r1 within BOUND eps times the size of its terms (S's two
over H^2 times B3^2, and 1).  A draw above it is a defect to pin (a strict
xfail), never a reason to move BOUND.
"""

from fractions import Fraction

import numpy as np
import pytest

from exact_oracle import exact_frame, factored_frame, polynomial_text
from nilscroll import frames, hexpr, singular

EPS = np.finfo(float).eps
BOUND = 8.0
S = np.linspace(-1.0, 1.0, 41)


def _cubic(seed):
    """A seeded cubic and H.  c2 is at most half the geometric mean of c1
    and 3 c3 in size, so 2|c2 s| <= (c1 + 3 c3 s^2)/2: h' > 0 on -1:1 and
    no rounding of h' is amplified by more than 3.  c3 spans 1e-2 to 1e7,
    the stiff cubics' range."""
    rng = np.random.default_rng(seed)
    c1, c3 = 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-2.0, 7.0)
    c0, c2 = rng.uniform(-2.0, 2.0), rng.uniform(-0.5, 0.5) * np.sqrt(3.0 * c1 * c3)
    H = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0)
    return [c0, c1, c2, c3], float(H)


CASES = [("s + s^3", [0, 1, 0, 1], 1.0),
         ("s + 100000*s^3", [0, 1, 0, 100000], 1.0),
         ("s + 10000000*s^3", [0, 1, 0, 10000000], 1.0)]
CASES += [(polynomial_text(c), c, H) for c, H in map(_cubic, range(16))]


def _exact(coeffs, H):
    return [exact_frame(coeffs, H, x) for x in S]


def _worst(values, exact):
    """The largest error of each of A, B, C and kappa2 over the points, in
    eps times its scale."""
    worst = dict.fromkeys(("A", "B", "C", "kappa2"), 0.0)
    for j, e in enumerate(exact):
        for name in "ABC":
            err = max(abs(Fraction(float(g)) - x) for g, x in zip(values[name][:, j], e[name]))
            worst[name] = max(worst[name], float(err / max(map(abs, e[name]))) / EPS)
        err = abs(Fraction(float(values["kappa2"][j])) - e["kappa2"])
        worst["kappa2"] = max(worst["kappa2"], float(err / e["kappa2_scale"]) / EPS)
    return worst


def _values(text, H):
    f = frames.frame_from_h(hexpr.parse(text), H, S)
    return {"A": f.A.value, "B": f.B.value, "C": f.C.value, "kappa2": f.kappa2.value}


# A = (S/H^2) B + B''/H^2 cancels on these draws: the larger term is 10 to
# 205 times |A| at the worst point, and the error is eps times that term
CANCELLING_A = {0, 2, 3, 4, 6, 7}


@pytest.mark.parametrize("text, coeffs, H", CASES)
def test_B_C_and_kappa2_are_within_a_few_eps_of_exact(text, coeffs, H):
    worst = _worst(_values(text, H), _exact(coeffs, H))
    assert max(worst["B"], worst["C"], worst["kappa2"]) <= BOUND, worst


@pytest.mark.parametrize("text, coeffs, H", CASES[:3] + [
    pytest.param(*case, marks=pytest.mark.xfail(
        strict=True, reason="defect o: frame_from_h's A cancels between its two terms"))
    if seed in CANCELLING_A else case for seed, case in enumerate(CASES[3:])])
def test_A_is_within_a_few_eps_of_exact(text, coeffs, H):
    worst = _worst(_values(text, H), _exact(coeffs, H))
    assert worst["A"] <= BOUND, worst


def test_the_bound_fails_a_64_ulp_error_in_B():
    # negative control: the largest component of B moved by 64 ulps at one point
    text, coeffs, H = CASES[0]
    values, exact = _values(text, H), _exact(coeffs, H)
    assert max(_worst(values, exact).values()) <= BOUND
    B = values["B"].copy()
    i = np.argmax(np.abs(B[:, 30]))
    B[i, 30] += 64 * np.spacing(B[i, 30])
    assert _worst(dict(values, B=B), exact)["B"] > BOUND


def _r1_worst(r1, exact):
    """The largest error of r1 over the points, in eps times its scale."""
    return max(float(abs(Fraction(float(g)) - e["r1"]) / e["r1_scale"]) / EPS
               for g, e in zip(r1, exact))


@pytest.mark.parametrize("text, coeffs, H", CASES)
def test_notce_r1_is_within_a_few_eps_of_exact(text, coeffs, H):
    f = frames.frame_from_h(hexpr.parse(text), H, S)
    worst = _r1_worst(singular.notce_residuals(f)[0], _exact(coeffs, H))
    assert worst <= BOUND, worst


def test_the_r1_bound_fails_a_64_eps_error_in_kappa2():
    # negative control: kappa2 off by 64 eps of itself at the point where
    # r1's kappa2 term is largest
    text, coeffs, H = CASES[0]
    f, exact = frames.frame_from_h(hexpr.parse(text), H, S), _exact(coeffs, H)
    r1 = singular.notce_residuals(f)[0]
    assert _r1_worst(r1, exact) <= BOUND
    term = f.kappa2.value / H * f.B[2].value ** 2
    j = np.argmax(np.abs(term))
    r1[j] += 64 * EPS * term[j]
    assert _r1_worst(r1, exact) > BOUND


@pytest.mark.parametrize("text, coeffs, H", CASES)
def test_factored_A_and_B_equal_the_oracle(text, coeffs, H):
    # A = -n(h'', h h'' - 2h'^2)/(4H h'^3) and B = -(H/(2h')) n(1, h): a form
    # of A with no cancelling terms, for frame_from_h to take up (defect o)
    for x, e in zip(S, _exact(coeffs, H)):
        assert factored_frame(coeffs, H, x) == {"A": e["A"], "B": e["B"]}


def test_oracle_matches_closed_forms():
    # h = s + s^3 at s = 0: h' = 1, h'' = 0, h''' = 6, so S = 6, kappa2 = -6/H;
    # B = -(H/2)(-1, 1, 0) and C = B'/H = -(1/2)(0, 0, 2)
    e = exact_frame([0, 1, 0, 1], 2.0, 0.0)
    assert e["B"] == [1, -1, 0] and e["C"] == [0, 0, -1]
    assert e["kappa2"] == -3 and e["kappa2_scale"] == 3
