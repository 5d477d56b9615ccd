"""Minkowski linear algebra, the stereographic chart, and O(2,1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jet_route_oracles import _nl_from_g, _stereo, stack
from nilscroll.jets import Jet
from nilscroll.lorentz import ETA, LorentzTransform, det3, mcross, mdot

finite = st.floats(-5.0, 5.0)
vec = st.tuples(finite, finite, finite).map(np.array)
E1, E2, E3 = np.eye(3)


def is_lorentz(m) -> float:
    """Max-entry residual of m^T eta m - eta."""
    m = np.asarray(m, dtype=float)
    return float(np.max(np.abs(m.T @ ETA @ m - ETA)))


def vjet(u):
    """The vector of values u as an order-0 vector jet at one point."""
    return Jet(u[None, :, None])


def test_signature():
    assert mdot(E1, E1) == -1.0
    assert mdot(E2, E2) == 1.0
    assert mdot(E3, E3) == 1.0
    assert mdot(E1, E2) == 0.0


def test_cross_basis():
    # fixed by <u x v, w> = det(u, v, w)
    assert mcross(E2, E3).tolist() == [-1.0, 0.0, 0.0]
    assert mcross(E1, E2).tolist() == [0.0, 0.0, 1.0]


@settings(max_examples=80, deadline=None)
@given(u=vec, v=vec, w=vec)
def test_cross_det_identity(u, v, w):
    lhs = mdot(mcross(u, v), w)
    assert lhs == pytest.approx(det3(u, v, w), rel=1e-9, abs=1e-9)


def test_vec_jet_components():
    s = Jet.variable(0.5, 3)
    v = stack([s * s, s, Jet.constant(1.0, 3, 0.5)])
    d = mdot(v, v)
    # -s^4 + s^2 + 1
    assert d.value == pytest.approx(-0.5**4 + 0.25 + 1.0)
    assert d.derivative(1) == pytest.approx(-4 * 0.5**3 + 1.0)


def test_stereo_round_trips():
    # points of S^2_1 (<p, p> = 1) through g and back through _nl_from_g
    x1 = np.array([0.3, -1.2, 0.0, 2.0, 0.3])
    x2 = np.array([0.4, 0.5, 0.9, -1.5, 0.4])
    x3 = np.sqrt(1 + x1**2 - x2**2) * np.array([-1, -1, -1, -1, 1])
    p = np.array([x1, x2, x3])
    assert np.allclose(mdot(p, p), 1.0)
    g, pole = _stereo(p)
    assert not pole.any()
    assert np.allclose(_nl_from_g(g), p, atol=1e-12)


def test_stereo_pole_and_off_sphere():
    # the pole N3 = 1 is masked, not raised; the other rows are untouched
    g, pole = _stereo(np.array([[0.0, 0.3], [0.0, 0.4], [1.0, -math.sqrt(1 + 0.09 - 0.16)]]))
    assert pole.tolist() == [True, False]
    assert math.isnan(g[0][0]) and math.isnan(g[1][0])
    assert np.allclose(_nl_from_g(g)[:, 1], [0.3, 0.4, -math.sqrt(0.93)], atol=1e-12)
    # the inverse always lands on S^2_1, so an off-sphere point does not come back
    off = np.array([5.0, 0.0, 0.5])
    g, pole = _stereo(off)
    assert not pole
    back = _nl_from_g(g)
    assert mdot(back, back) == pytest.approx(1.0)
    assert not np.allclose(back, off, atol=1e-6)


def test_lorentz_from_params_is_lorentz():
    O = LorentzTransform.from_params(phi=0.4, chi=1.1, psi=-2.0)
    assert is_lorentz(O.m) < 1e-12
    assert O.det == pytest.approx(1.0)
    R = LorentzTransform(m=LorentzTransform.from_params(phi=0.4).m @ np.diag([1.0, 1.0, -1.0]))
    assert R.det == pytest.approx(-1.0)
    T = LorentzTransform(m=LorentzTransform.from_params(chi=0.3).m @ np.diag([-1.0, 1.0, 1.0]))
    assert T.det == pytest.approx(-1.0)
    assert is_lorentz(T.m) < 1e-12


@settings(max_examples=40, deadline=None)
@given(u=vec, v=vec, phi=st.floats(0, 6.28), chi=st.floats(-1.5, 1.5))
def test_isometry_invariance(u, v, phi, chi):
    O = LorentzTransform.from_params(phi=phi, chi=chi)
    lhs = mdot(O.apply(vjet(u)), O.apply(vjet(v))).value
    assert lhs == pytest.approx(mdot(u, v), rel=1e-9, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(u=vec, v=vec, chi=st.floats(-1.5, 1.5))
def test_cross_equivariance(u, v, chi):
    """(Ou) x (Ov) = det(O) * O(u x v)."""
    for O in (
        LorentzTransform.from_params(chi=chi),
        LorentzTransform(m=LorentzTransform.from_params(chi=chi).m @ np.diag([1.0, 1.0, -1.0])),
    ):
        lhs = mcross(O.apply(vjet(u)).value, O.apply(vjet(v)).value)
        rhs = O.det * O.apply(vjet(mcross(u, v))).value
        assert np.allclose(lhs, rhs, atol=1e-8)


def test_apply_jet_components():
    s = Jet.variable(0.2, 3)
    v = stack([s, s * s, Jet.constant(1.0, 3, 0.2)])
    O = LorentzTransform.from_params(phi=0.3, chi=0.4)
    w = O.apply(v)
    assert isinstance(w, Jet) and w.order == 3
    for k in range(4):
        assert w.derivative(k) == pytest.approx(O.m @ v.derivative(k))


def test_compose():
    A = LorentzTransform.from_params(chi=0.5)
    B = LorentzTransform.from_params(phi=0.7)
    C = LorentzTransform(m=A.m @ B.m)
    assert is_lorentz(C.m) < 1e-12
    assert C.det == pytest.approx(1.0)
