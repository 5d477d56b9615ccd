"""Jet arithmetic against finite-difference and closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilscroll.errors import DomainError
from nilscroll.jets import FUNCTIONS, Jet, pow_const, schwarzian


def fd_derivatives(f, x, k_max=3, h=5e-3):
    """Richardson-extrapolated central differences, orders 1..k_max."""
    out = []
    for k in range(1, k_max + 1):
        def dk(h):
            if k == 1:
                return (f(x + h) - f(x - h)) / (2 * h)
            if k == 2:
                return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
            return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)

        d1, d2 = dk(h), dk(h / 2)
        out.append(d2 + (d2 - d1) / 3.0)
    return out


def test_variable_and_constant():
    v = Jet.variable(2.0, 4)
    assert v.value == 2.0
    assert v.derivative(1) == 1.0
    assert v.derivative(2) == 0.0
    c = Jet.constant(7.0, 3, base_point=2.0)
    assert c.value == 7.0
    assert all(c.derivative(k) == 0.0 for k in (1, 2, 3))


def test_arithmetic_leibniz():
    s = Jet.variable(0.7, 5)
    p = (s * s + 1.0) * (2.0 * s - 3.0)
    # closed form: 2s^3 - 3s^2 + 2s - 3
    x = 0.7
    assert p.value == pytest.approx(2 * x**3 - 3 * x**2 + 2 * x - 3, abs=1e-14)
    assert p.derivative(1) == pytest.approx(6 * x**2 - 6 * x + 2, abs=1e-13)
    assert p.derivative(2) == pytest.approx(12 * x - 6, abs=1e-13)
    assert p.derivative(3) == pytest.approx(12.0, abs=1e-12)


def test_division_inverse():
    s = Jet.variable(1.3, 5)
    q = 1.0 / (s * s + 1.0)
    prod = q * (s * s + 1.0)
    assert prod.value == pytest.approx(1.0, abs=1e-15)
    for k in range(1, 6):
        assert prod.derivative(k) == pytest.approx(0.0, abs=1e-12)


def test_division_by_zero_value():
    z = Jet.variable(0.0, 3)
    with pytest.raises(DomainError):
        _ = 1.0 / z


@pytest.mark.parametrize(
    "name,fn",
    [
        ("exp", math.exp),
        ("sin", math.sin),
        ("cos", math.cos),
        ("tan", math.tan),
        ("sinh", math.sinh),
        ("cosh", math.cosh),
        ("tanh", math.tanh),
    ],
)
def test_elementary_vs_fd(name, fn):
    x = 0.6
    j = FUNCTIONS[name](Jet.variable(x, 4))
    assert j.value == pytest.approx(fn(x), abs=1e-15)
    for k, d in enumerate(fd_derivatives(fn, x), start=1):
        assert j.derivative(k) == pytest.approx(d, rel=1e-6, abs=1e-6)


def test_log_sqrt_cot_vs_fd():
    x = 0.8
    for name, fn in (
        ("log", math.log),
        ("sqrt", math.sqrt),
        ("cot", lambda t: math.cos(t) / math.sin(t)),
    ):
        j = FUNCTIONS[name](Jet.variable(x, 4))
        for k, d in enumerate(fd_derivatives(fn, x), start=1):
            assert j.derivative(k) == pytest.approx(d, rel=1e-5, abs=1e-5)


def test_domain_errors():
    with pytest.raises(DomainError):
        FUNCTIONS["log"](Jet.variable(-1.0, 3))
    with pytest.raises(DomainError):
        FUNCTIONS["sqrt"](Jet.variable(-0.5, 3))
    with pytest.raises(DomainError):
        pow_const(Jet.variable(-2.0, 3), 0.5)


def test_tanh_past_the_overflow_of_cosh():
    # cosh overflows past |x| ~ 710.48, where tanh is +-1 and every higher
    # coefficient underflows; below, tanh keeps the bits of sinh/cosh
    x = np.array([711.0, 800.0, 1e308, -711.0, -800.0, -1e308])
    with np.errstate(all="ignore"):
        jet = FUNCTIONS["tanh"](Jet.variable(x, 3))
        alone = [FUNCTIONS["tanh"](Jet.variable(float(v), 3)).coeffs for v in x]
        y = Jet.variable(np.array([-710.4, -3.0, 0.5, 700.0, 710.4]), 5)
        finite = FUNCTIONS["tanh"](y).taylor()
        ratio = (FUNCTIONS["sinh"](y) / FUNCTIONS["cosh"](y)).taylor()
    assert jet.taylor().tolist() == [np.sign(x).tolist()] + [[0.0] * 6] * 3
    assert alone == [(float(np.sign(v)), 0.0, 0.0, 0.0) for v in x]
    assert np.array_equal(finite, ratio)


def test_pow_const_integer_any_base():
    j = pow_const(Jet.variable(-2.0, 4), 3)
    assert j.value == -8.0
    assert j.derivative(1) == pytest.approx(12.0)
    inv = pow_const(Jet.variable(2.0, 4), -2)
    assert inv.value == pytest.approx(0.25)
    assert inv.derivative(1) == pytest.approx(-2.0 / 8.0)


def test_pow_const_real_recurrence():
    x, p = 1.7, 2.5
    j = pow_const(Jet.variable(x, 4), p)
    fn = lambda t: t**p
    for k, d in enumerate(fd_derivatives(fn, x), start=1):
        assert j.derivative(k) == pytest.approx(d, rel=1e-6)


def test_truncate_and_deriv_shift():
    s = Jet.variable(0.3, 5)
    e = FUNCTIONS["exp"](s)
    d = e.deriv()
    assert d.order == 4
    for k in range(5):
        assert d.derivative(k) == pytest.approx(e.derivative(k + 1), rel=1e-13)


def test_schwarzian_tanh_constant():
    # S(tanh) = -2 identically
    for x in (-1.5, -0.2, 0.0, 0.4, 1.8):
        S = schwarzian(FUNCTIONS["tanh"](Jet.variable(x, 5)))
        assert S.value == pytest.approx(-2.0, abs=1e-12)
        assert S.derivative(1) == pytest.approx(0.0, abs=1e-11)


def test_schwarzian_requires_order_and_h1():
    with pytest.raises(ValueError):
        schwarzian(Jet.variable(0.0, 2))
    with pytest.raises(DomainError):
        schwarzian(Jet.constant(3.0, 5))  # h' = 0


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-1.0, 1.0),
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
    c=st.floats(-0.2, 0.2),
)
def test_schwarzian_mobius_invariance(x, a, b, c):
    """S((a h + b)/(c h + d)) = S(h) whenever ad - bc != 0."""
    d = 1.0
    if abs(a * d - b * c) < 1e-2:
        a += 0.5
    h = FUNCTIONS["tanh"](Jet.variable(x, 5)) + 0.0
    num = a * h + b
    den = c * h + d
    if abs(den.value) < 0.3:
        return
    S0 = schwarzian(h)
    S1 = schwarzian(num / den)
    assert S1.value == pytest.approx(S0.value, abs=1e-9)
