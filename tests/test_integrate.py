"""Piecewise-Chebyshev base curve against closed-form solutions."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from nilscroll import hexpr
from nilscroll.errors import NumericFailure, OutOfRange
from nilscroll.frames import make_frame_source
from nilscroll.integrate import integrate_curve
from nilscroll.lorentz import Vec3L

# Heisenberg area integral for tanh over [0, 1]:
# integral of sinh(2s)/2 - s*cosh(2s) ds = (cosh2 - 1)/2 - sinh2/2
J_TANH_01 = (math.cosh(2.0) - 1.0) / 2.0 - math.sinh(2.0) / 2.0


def source_of(A):
    """A frame source whose frames at an array of s carry only A = A(s)."""
    def source(s):
        values = np.array([A(x) for x in s]).T
        return SimpleNamespace(A=SimpleNamespace(value=lambda: Vec3L(*values)))

    return source


def test_exponential_growth():
    # A = (e^s, 1, 0): gamma = (e^s - 1, s, 0), J' = gamma1 - s e^s
    path = integrate_curve(source_of(lambda s: (math.exp(s), 1.0, 0.0)), 0.0, (0.0, 2.0))
    for s in np.linspace(0.0, 2.0, 21):
        g, J = path.dense_eval(s)
        assert g.x1 + 1.0 == pytest.approx(math.exp(s), rel=1e-9)
        assert g.x2 == pytest.approx(s, abs=1e-12)
        assert g.x3 == 0.0
        assert J == pytest.approx(2 * math.exp(s) - s - s * math.exp(s) - 2, abs=1e-9)


def test_harmonic_oscillator_both_directions():
    # A = (cos s, -sin s, 0) from the interior anchor s0 = 0 out to both ends:
    # gamma = (sin s, cos s - 1, 0), J' = cos s - 1
    path = integrate_curve(
        source_of(lambda s: (math.cos(s), -math.sin(s), 0.0)), 0.0, (-3.0, 3.0)
    )
    for s in np.linspace(-3.0, 3.0, 61):
        g, J = path.dense_eval(s)
        assert g.x1 == pytest.approx(math.sin(s), abs=1e-9)
        assert g.x2 == pytest.approx(math.cos(s) - 1.0, abs=1e-9)
        assert J == pytest.approx(math.sin(s) - s, abs=1e-9)


def test_zero_A_gives_the_zero_curve():
    # every coefficient is 0: the trim of negligible trailing rows keeps one
    path = integrate_curve(source_of(lambda s: (0.0, 0.0, 0.0)), 0.0, (-1.0, 1.0))
    g, J = path.dense_eval(np.linspace(-1.0, 1.0, 5))
    assert np.all(g.as_array() == 0.0) and np.all(J == 0.0)


def test_dense_output_off_grid():
    src = make_frame_source(hexpr.parse("tanh(s)"), 1.0)
    path = integrate_curve(src, 0.0, (0.0, 1.0))
    # off the Chebyshev nodes
    for s in (0.123456, 0.654321, 0.999):
        g = path.gamma(s)
        assert g.x1 == pytest.approx(math.sinh(2 * s) / 2, abs=1e-10)
        assert g.x2 == pytest.approx(s, abs=1e-10)
        assert g.x3 == pytest.approx((1 - math.cosh(2 * s)) / 2, abs=1e-10)


def test_curve_area_integral_golden():
    src = make_frame_source(hexpr.parse("tanh(s)"), 1.0)
    path = integrate_curve(src, 0.0, (0.0, 1.0))
    _, J = path.dense_eval(1.0)
    assert J == pytest.approx(J_TANH_01, abs=1e-9)
    _, J0 = path.dense_eval(0.0)
    assert J0 == 0.0


def test_curve_anchor_and_range():
    src = make_frame_source(hexpr.parse("s + s^3"), 1.0)
    path = integrate_curve(src, 0.25, (-1.0, 1.0))
    g = path.gamma(0.25)
    assert abs(g.x1) < 1e-14 and abs(g.x2) < 1e-14 and abs(g.x3) < 1e-14
    assert path.s_min <= -1.0 + 1e-12
    assert path.s_max >= 1.0 - 1e-12
    with pytest.raises(OutOfRange):
        path.gamma(1.5)
    with pytest.raises(ValueError):
        integrate_curve(src, 5.0, (-1.0, 1.0))


def test_gamma_prime_is_A():
    src = make_frame_source(hexpr.parse("cot(exp(s)/2)"), 1.0)
    path = integrate_curve(src, 0.0, (-1.0, 1.0))
    h = 1e-5
    for s in (-0.6, 0.1, 0.8):
        Av = src(s).A.value().as_array()
        fd = (path.gamma(s + h).as_array() - path.gamma(s - h).as_array()) / (2 * h)
        assert fd == pytest.approx(Av, abs=1e-8)


def test_samples_property():
    src = make_frame_source(hexpr.parse("tanh(s)"), 1.0)
    path = integrate_curve(src, 0.0, (0.0, 0.5))
    rows = path.samples
    assert rows[0][0] == pytest.approx(0.0)
    assert rows[-1][0] == pytest.approx(0.5)
    svals = [r[0] for r in rows]
    assert svals == sorted(svals)


def test_stiff_curve_splits_panels():
    src = make_frame_source(hexpr.parse("s + 100000*s^3"), 1.0)
    path = integrate_curve(src, 0.0, (-1.0, 1.0))
    assert len(path.breaks) > 2
    h = 1e-5
    for s in (-0.7, -0.1, 0.05, 0.4, 0.9):
        Av = src(s).A.value().as_array()
        fd = (path.gamma(s + h).as_array() - path.gamma(s - h).as_array()) / (2 * h)
        # |gamma| reaches 4e4, so rounding alone puts ~4e-6 into the quotient
        assert fd == pytest.approx(Av, abs=5e-5)


def test_curve_rejects_non_finite_A():
    src = make_frame_source(hexpr.parse("1e308*s"), 1.0)
    with pytest.raises(NumericFailure, match="not finite"):
        integrate_curve(src, 0.0, (-1.0, 1.0))


def test_curve_unresolved_panel_names_s():
    # h'(0) = 0: A has a pole at s = 0, which no grid node hits
    src = make_frame_source(hexpr.parse("s^2"), 1.0)
    with pytest.raises(NumericFailure, match=r"near s=-?\d"):
        integrate_curve(src, 0.5, (-1.0, 2.0))
