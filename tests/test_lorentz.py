"""Minkowski linear algebra, paracomplex numbers, the stereographic chart, and O(2,1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilscroll.jets import Jet
from nilscroll.lorentz import (
    E1,
    E2,
    E3,
    LorentzTransform,
    ParaComplex,
    Vec3L,
    det3,
    is_lorentz,
    mcross,
    mdot,
)
from nilscroll.surface import _stereo
from nilscroll.verify import _nl_from_g

finite = st.floats(-5.0, 5.0)
vec = st.builds(Vec3L, finite, finite, finite)


def test_signature():
    assert mdot(E1, E1) == -1.0
    assert mdot(E2, E2) == 1.0
    assert mdot(E3, E3) == 1.0
    assert mdot(E1, E2) == 0.0


def test_cross_basis():
    # fixed by <u x v, w> = det(u, v, w)
    c = mcross(E2, E3)
    assert (c.x1, c.x2, c.x3) == (-1.0, 0.0, 0.0)
    c = mcross(E1, E2)
    assert (c.x1, c.x2, c.x3) == (0.0, 0.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(u=vec, v=vec, w=vec)
def test_cross_det_identity(u, v, w):
    lhs = mdot(mcross(u, v), w)
    assert lhs == pytest.approx(det3(u, v, w), rel=1e-9, abs=1e-9)


def test_vec_jet_components():
    s = Jet.variable(0.5, 3)
    v = Vec3L(s * s, s, Jet.constant(1.0, 3, 0.5))
    d = mdot(v, v)
    # -s^4 + s^2 + 1
    assert d.value == pytest.approx(-0.5**4 + 0.25 + 1.0)
    assert d.derivative(1) == pytest.approx(-4 * 0.5**3 + 1.0)


def test_paracomplex_algebra():
    j = ParaComplex(0.0, 1.0)
    assert (j * j).re == 1.0 and (j * j).im == 0.0
    z = ParaComplex(2.0, 3.0)
    assert z.sqmod() == pytest.approx(4.0 - 9.0)
    assert (z * z.conj()).re == pytest.approx(z.sqmod())
    assert (z * z.conj()).im == pytest.approx(0.0)
    assert z.times_j().re == 3.0 and z.times_j().im == 2.0


def test_stereo_round_trips():
    # points of S^2_1 (<p, p> = 1) through g and back through _nl_from_g
    x1 = np.array([0.3, -1.2, 0.0, 2.0, 0.3])
    x2 = np.array([0.4, 0.5, 0.9, -1.5, 0.4])
    x3 = np.sqrt(1 + x1**2 - x2**2) * np.array([-1, -1, -1, -1, 1])
    p = Vec3L(x1, x2, x3)
    assert np.allclose(mdot(p, p), 1.0)
    g, pole = _stereo(p)
    assert not pole.any()
    assert np.allclose(_nl_from_g(g), p.as_array(), atol=1e-12)


def test_stereo_pole_and_off_sphere():
    # the pole N3 = 1 is masked, not raised; the other rows are untouched
    g, pole = _stereo(Vec3L(np.array([0.0, 0.3]), np.array([0.0, 0.4]),
                            np.array([1.0, -math.sqrt(1 + 0.09 - 0.16)])))
    assert pole.tolist() == [True, False]
    assert math.isnan(g.re[0]) and math.isnan(g.im[0])
    assert np.allclose(_nl_from_g(g)[:, 1], [0.3, 0.4, -math.sqrt(0.93)], atol=1e-12)
    # the inverse always lands on S^2_1, so an off-sphere point does not come back
    off = Vec3L(5.0, 0.0, 0.5)
    g, pole = _stereo(off)
    assert not pole
    back = _nl_from_g(g)
    assert mdot(Vec3L(*back), Vec3L(*back)) == pytest.approx(1.0)
    assert not np.allclose(back, off.as_array(), atol=1e-6)


def test_lorentz_from_params_is_lorentz():
    O = LorentzTransform.from_params(phi=0.4, chi=1.1, psi=-2.0)
    assert is_lorentz(O.m) < 1e-12
    assert O.det == pytest.approx(1.0)
    R = LorentzTransform.from_params(phi=0.4, reflect=True)
    assert R.det == pytest.approx(-1.0)
    T = LorentzTransform.from_params(chi=0.3, time_reverse=True)
    assert T.det == pytest.approx(-1.0)
    assert is_lorentz(T.m) < 1e-12


@settings(max_examples=40, deadline=None)
@given(u=vec, v=vec, phi=st.floats(0, 6.28), chi=st.floats(-1.5, 1.5))
def test_isometry_invariance(u, v, phi, chi):
    O = LorentzTransform.from_params(phi=phi, chi=chi)
    lhs = mdot(O.apply(u), O.apply(v))
    assert lhs == pytest.approx(mdot(u, v), rel=1e-9, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(u=vec, v=vec, chi=st.floats(-1.5, 1.5))
def test_cross_equivariance(u, v, chi):
    """(Ou) x (Ov) = det(O) * O(u x v)."""
    for O in (
        LorentzTransform.from_params(chi=chi),
        LorentzTransform.from_params(chi=chi, reflect=True),
    ):
        lhs = mcross(O.apply(u), O.apply(v)).as_array()
        rhs = O.det * O.apply(mcross(u, v)).as_array()
        assert np.allclose(lhs, rhs, atol=1e-8)


def test_apply_jet_components():
    s = Jet.variable(0.2, 3)
    v = Vec3L(s, s * s, Jet.constant(1.0, 3, 0.2))
    O = LorentzTransform.from_params(phi=0.3, chi=0.4)
    w = O.apply(v)
    assert isinstance(w.x1, Jet)
    assert w.value().as_array() == pytest.approx(O.m @ v.value().as_array())


def test_compose():
    A = LorentzTransform.from_params(chi=0.5)
    B = LorentzTransform.from_params(phi=0.7)
    C = A @ B
    assert np.allclose(C.m, A.m @ B.m)
    assert is_lorentz(C.m) < 1e-12
