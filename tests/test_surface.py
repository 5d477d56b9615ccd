"""Surface pair: B-scroll in L^3, dual Nil_3 surface, Gauss maps, forms."""

import math

import numpy as np
import pytest

from nilscroll.lorentz import E3, mdot
from nilscroll.singular import singular_t
from nilscroll.surface import _nil3_partials


def vertex(surf, s, t):
    """(f_L, f) at one (s, t), from the batched mesh."""
    v = surf.mesh([s], [t])
    return v["l3"][0], v["nil3"][0]


def test_bscroll_closed_form(tanh_surface):
    svals, tvals = np.linspace(-1.0, 1.0, 21), [-2.0, -0.5, 0.0, 1.5]
    l3 = tanh_surface.mesh(svals, tvals)["l3"].reshape(len(svals), len(tvals), 3)
    for s, row in zip(svals, l3):
        for t, p in zip(tvals, row):
            assert p[0] == pytest.approx(
                0.5 * (math.sinh(2 * s) + t * math.cosh(2 * s)), abs=1e-10
            )
            assert p[1] == pytest.approx(0.5 * (2 * s - t), abs=1e-10)


def test_gauss_map_golden(tanh_surface, tanh_source):
    # t = 0: N_L = -C
    N = tanh_surface.gauss_map_L(0.3, 0.0)
    assert N.as_array() == pytest.approx(
        np.array([-math.sinh(0.6), 0.0, math.cosh(0.6)]), abs=1e-12
    )
    # <N_L, N_L> = 1 and <N_L, e3> = 0 on the singular curve
    for s in (0.2, 0.5, -0.8):
        f = tanh_source(s)
        t = singular_t(f)
        N = tanh_surface.gauss_map_L(s, t)
        assert mdot(N, N) == pytest.approx(1.0, abs=1e-12)
        assert mdot(N, E3) == pytest.approx(0.0, abs=1e-12)


def test_partials_match_fd(tanh_surface):
    h = 1e-6
    for (s, t) in [(0.4, 0.7), (-0.6, -1.2)]:
        fs, ft = tanh_surface.bscroll_partials(s, t)
        p = lambda ds, dt: vertex(tanh_surface, s + ds, t + dt)[0]
        fd_s = (p(h, 0) - p(-h, 0)) / (2 * h)
        fd_t = (p(0, h) - p(0, -h)) / (2 * h)
        assert fs.as_array() == pytest.approx(fd_s, abs=1e-6)
        assert ft.as_array() == pytest.approx(fd_t, abs=1e-6)


def test_first_form_entries(tanh_surface):
    for (s, t) in [(0.2, 0.9), (-0.7, -1.1), (0.0, 0.0)]:
        fs, ft = tanh_surface.bscroll_partials(s, t)
        ff = tanh_surface.fundamental_forms(s, t)
        assert mdot(fs, fs) == pytest.approx(ff.I[0, 0], abs=1e-9)
        assert mdot(fs, ft) == pytest.approx(-1.0, abs=1e-9)
        assert mdot(ft, ft) == pytest.approx(0.0, abs=1e-9)
    assert tanh_surface.fundamental_forms(0.3, 0.0).I == pytest.approx(
        np.array([[0.0, -1.0], [-1.0, 0.0]])
    )


def test_forms_match_fd_oracle(surfaces):
    rng = np.random.default_rng(7)
    for name, surf in surfaces.items():
        for _ in range(10):
            s = float(rng.uniform(-1.0, 1.0))
            t = float(rng.uniform(-2.0, 2.0))
            a = surf.fundamental_forms(s, t)
            b = surf.fundamental_forms_fd(s, t)
            assert np.max(np.abs(a.I - b.I)) < 1e-6, name
            assert np.max(np.abs(a.II - b.II)) < 1e-6, name


def test_mean_and_gauss_curvature(surfaces):
    rng = np.random.default_rng(11)
    for name, surf in surfaces.items():
        for _ in range(50):
            s = float(rng.uniform(-1.0, 1.0))
            t = float(rng.uniform(-2.0, 2.0))
            ff = surf.fundamental_forms(s, t)
            assert abs(ff.H_mean - 1.0) < 1e-10, name
            assert abs(ff.K_gauss - 1.0) < 1e-10, name


def test_box_identity_and_scaling(tanh_surface):
    r1, sign1 = tanh_surface.box_check(0.5, 0.2, 1e-3)
    assert r1 < 1e-4
    assert sign1 == -1
    r0, _ = tanh_surface.box_check(0.5, 0.0, 1e-3)
    assert r0 < 1e-4
    # second-order scheme: doubling the step roughly quadruples the residual
    r2, _ = tanh_surface.box_check(0.5, 0.2, 2e-3)
    assert 2.0 < r2 / r1 < 6.5


def test_normal_gauss_map_golden(tanh_surface):
    g, pole = tanh_surface.normal_gauss_map(0.3, 0.0)
    assert not pole
    # N_L = (-sinh 0.6, 0, cosh 0.6): g = -(N2 + j N1)/(1 - N3)
    want_im = -(-math.sinh(0.6)) / (1.0 - math.cosh(0.6))
    assert g.re == pytest.approx(0.0, abs=1e-12)
    assert g.im == pytest.approx(want_im, rel=1e-12)
    assert g.im == pytest.approx(-3.432738, abs=1e-5)


def test_gauss_map_modulus_on_singular_set(tanh_surface, tanh_source):
    for s in (0.15, 0.4, -0.9):
        t = singular_t(tanh_source(s))
        g, _ = tanh_surface.normal_gauss_map(s, t)
        assert g.sqmod() == pytest.approx(1.0, abs=1e-10)


def test_gauss_map_pole(tanh_surface, tanh_source):
    # N3 = 1 along cosh(2s) + t*sinh(2s)/2... solve at fixed s for t
    f = tanh_source(0.5)
    _, Bv, Cv = f.values()
    t_pole = (1.0 + Cv.x3) / (-Bv.x3)  # -C3 - t*B3 = 1
    g, pole = tanh_surface.normal_gauss_map(0.5, t_pole)
    assert pole and math.isnan(g.re) and math.isnan(g.im)


def test_nil3_shares_first_two_coordinates(tanh_surface):
    for (s, t) in [(0.3, 0.8), (-0.5, -1.0)]:
        fL, fN = vertex(tanh_surface, s, t)
        assert fN[0] == pytest.approx(fL[0], abs=1e-12)
        assert fN[1] == pytest.approx(fL[1], abs=1e-12)


def test_nil3_closed_form_modulo_constant(tanh_surface):
    offsets = []
    svals, tvals = np.linspace(-1.0, 1.0, 11), [-1.5, 0.0, 2.0]
    nil3 = tanh_surface.mesh(svals, tvals)["nil3"].reshape(len(svals), len(tvals), 3)
    for s, row in zip(svals, nil3):
        for t, p in zip(tvals, row):
            e3 = 0.5 * (
                -0.5 - s * t * math.cosh(2 * s) + (-s + t / 2) * math.sinh(2 * s)
            )
            offsets.append(p[2] - e3)
    offsets = np.array(offsets)
    assert np.ptp(offsets) < 1e-10  # constant left-translation freedom


def test_nil3_partials_match_fd(tanh_surface, tanh_source):
    h = 1e-6
    for (s, t) in [(0.35, 0.4), (-0.8, 1.3)]:
        gamma, _ = tanh_surface.path.dense_eval(s)
        fs, ft = (v.as_array() for v in _nil3_partials(tanh_source(s), gamma, t, 1.0))
        p = lambda ds, dt: vertex(tanh_surface, s + ds, t + dt)[1]
        assert fs == pytest.approx((p(h, 0) - p(-h, 0)) / (2 * h), abs=1e-6)
        assert ft == pytest.approx((p(0, h) - p(0, -h)) / (2 * h), abs=1e-6)


def test_jacobian_rank_drop_on_singular_curve(tanh_surface, tanh_source):
    s = 0.3
    t = singular_t(tanh_source(s))
    on = tanh_surface.nil3_jacobian_metrics(s, t)
    assert on["sigma_min"] < 1e-8
    assert abs(on["lambda"]) < 1e-8
    off = tanh_surface.nil3_jacobian_metrics(s, t + 0.1)
    assert off["sigma_min"] > 1e-3
    lm = tanh_surface.nil3_jacobian_metrics(s, t - 0.05)["lambda"]
    lp = tanh_surface.nil3_jacobian_metrics(s, t + 0.05)["lambda"]
    assert lm * lp < 0.0  # signed density flips across the singular curve


def test_direct_gauss_map_agrees(surfaces):
    rng = np.random.default_rng(3)
    for name, surf in surfaces.items():
        checked = 0
        for _ in range(30):
            s = float(rng.uniform(-1.0, 1.0))
            t = float(rng.uniform(-2.0, 2.0))
            g1, pole1 = surf.normal_gauss_map(s, t)
            g2, pole2 = surf.nil3_gauss_map_direct(s, t)
            if pole1 or pole2:
                continue
            assert abs(g1.re - g2.re) < 1e-8, name
            assert abs(g1.im - g2.im) < 1e-8, name
            checked += 1
        assert checked > 15


def test_forms_fd_clear_of_rounding_floor():
    # a verify-workload draw (cot, seed 1, call 20) where second differences
    # at step 1e-4 read 8.8e-7 against the 1e-6 tolerance
    from nilscroll.verify import run_verify

    report = run_verify("cot(exp(s)/2)", 0.886867965916, (-0.861542340613, 0.708717516208))
    assert report["checks"]["fundamental_forms_fd"]["residual"] < 1e-7
