"""Surface pair: B-scroll in L^3, dual Nil_3 surface, Gauss maps, forms."""

import itertools
import math

import numpy as np
import pytest

import jet_route_oracles as oracle
from fd_oracles import box_check, fundamental_forms_fd
from nilscroll import hexpr
from nilscroll.frames import make_frame_source
from nilscroll.integrate import integrate_curve
from nilscroll.lorentz import mdot
from nilscroll.singular import singular_t
from nilscroll.surface import ScrollSurface, _sigma_min


def vertex(surf, s, t):
    """(f_L, f) at one (s, t), from the batched mesh."""
    v = surf.mesh([s], [t])
    return v["l3"][0], v["nil3"][0]


def bscroll_partials(surf, s, t):
    """(f_s, f_t) of f_L = gamma + t*B, from the jets of the curve and the frame."""
    f = surf.frame_source(s)
    gamma, _ = surf.path.jets(s, f.A)
    return (gamma + f.B * t).deriv().value, f.B.value


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
    N = oracle.gauss_map_L(tanh_surface, 0.3, 0.0)
    assert N == pytest.approx(
        np.array([-math.sinh(0.6), 0.0, math.cosh(0.6)]), abs=1e-12
    )
    # <N_L, N_L> = 1 and <N_L, e3> = 0 on the singular curve
    for s in (0.2, 0.5, -0.8):
        f = tanh_source(s)
        t = singular_t(f)
        N = oracle.gauss_map_L(tanh_surface, s, t)
        assert mdot(N, N) == pytest.approx(1.0, abs=1e-12)
        assert mdot(N, [0.0, 0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_partials_match_fd(tanh_surface):
    h = 1e-6
    for (s, t) in [(0.4, 0.7), (-0.6, -1.2)]:
        fs, ft = bscroll_partials(tanh_surface, s, t)
        p = lambda ds, dt: vertex(tanh_surface, s + ds, t + dt)[0]
        fd_s = (p(h, 0) - p(-h, 0)) / (2 * h)
        fd_t = (p(0, h) - p(0, -h)) / (2 * h)
        assert fs == pytest.approx(fd_s, abs=1e-6)
        assert ft == pytest.approx(fd_t, abs=1e-6)


def test_first_form_entries(tanh_surface):
    for (s, t) in [(0.2, 0.9), (-0.7, -1.1), (0.0, 0.0)]:
        fs, ft = bscroll_partials(tanh_surface, s, t)
        closed, _ = tanh_surface.fundamental_forms(s, t)
        I, _ = tanh_surface.jet_forms(s, t)
        assert I == pytest.approx(closed, abs=1e-12)
        assert mdot(fs, fs) == pytest.approx(closed[0, 0], abs=1e-9)
        assert mdot(fs, ft) == pytest.approx(-1.0, abs=1e-9)
        assert mdot(ft, ft) == pytest.approx(0.0, abs=1e-9)
    assert tanh_surface.fundamental_forms(0.3, 0.0)[0] == pytest.approx(
        np.array([[0.0, -1.0], [-1.0, 0.0]])
    )


def test_forms_match_fd_oracle(surfaces):
    rng = np.random.default_rng(7)
    for name, surf in surfaces.items():
        for _ in range(10):
            s = float(rng.uniform(-1.0, 1.0))
            t = float(rng.uniform(-2.0, 2.0))
            a = surf.fundamental_forms(s, t)
            b = fundamental_forms_fd(surf, s, t)
            assert np.max(np.abs(a[0] - b[0])) < 1e-6, name
            assert np.max(np.abs(a[1] - b[1])) < 1e-6, name


def test_mean_and_gauss_curvature():
    # the closed-form (I, II) away from H = 1, where acceptance test 7 reads the jet forms
    rng = np.random.default_rng(11)
    for H, text in itertools.product((0.5, 2.5, -0.7), ("tanh(s)", "s + s^3", "cot(exp(s)/2)")):
        src = make_frame_source(hexpr.parse(text), H)
        surf = ScrollSurface(src, integrate_curve(src, 0.0, (-1.3, 1.3)))
        for _ in range(50):
            s = float(rng.uniform(-1.0, 1.0))
            t = float(rng.uniform(-2.0, 2.0))
            H_mean, K_gauss = oracle.curvatures(*surf.fundamental_forms(s, t))
            assert abs(H_mean - H) < 1e-10, text
            assert abs(K_gauss - H * H) < 1e-10, text


def test_box_identity_and_scaling(tanh_surface):
    assert tanh_surface.box_eigenvalue(0.5, 0.2) < 1e-12
    assert tanh_surface.box_eigenvalue(0.5, 0.0) < 1e-12
    # the finite-difference oracle, which tries both signs, agrees that -1
    # fits, and it is a second-order scheme:
    # doubling the step roughly quadruples its residual
    r1, sign1 = box_check(tanh_surface, 0.5, 0.2, 1e-3)
    assert r1 < 1e-4 and sign1 == -1
    r2, _ = box_check(tanh_surface, 0.5, 0.2, 2e-3)
    assert 2.0 < r2 / r1 < 6.5


def test_normal_gauss_map_golden(tanh_surface):
    (re, im), pole = oracle.normal_gauss_map(tanh_surface, 0.3, 0.0)
    assert not pole
    # N_L = (-sinh 0.6, 0, cosh 0.6): g = -(N2 + j N1)/(1 - N3)
    want_im = -(-math.sinh(0.6)) / (1.0 - math.cosh(0.6))
    assert re == pytest.approx(0.0, abs=1e-12)
    assert im == pytest.approx(want_im, rel=1e-12)
    assert im == pytest.approx(-3.432738, abs=1e-5)


def test_gauss_map_modulus_on_singular_set(tanh_surface, tanh_source):
    for s in (0.15, 0.4, -0.9):
        t = singular_t(tanh_source(s))
        (re, im), _ = oracle.normal_gauss_map(tanh_surface, s, t)
        assert re * re - im * im == pytest.approx(1.0, abs=1e-10)


def test_gauss_map_pole(tanh_surface, tanh_source):
    # N3 = 1 along cosh(2s) + t*sinh(2s)/2... solve at fixed s for t
    f = tanh_source(0.5)
    _, Bv, Cv = f.Y.value
    t_pole = (1.0 + Cv[2]) / (-Bv[2])  # -C3 - t*B3 = 1
    (re, im), pole = oracle.normal_gauss_map(tanh_surface, 0.5, t_pole)
    assert pole and math.isnan(re) and math.isnan(im)


def test_nil3_shares_first_two_coordinates():
    # bit for bit: f = (g1 + t*B1, g2 + t*B2, ...) and f_L = g + B*t, and
    # the OBJ writer formats these shared columns once
    for h, H in itertools.product(("tanh(s)", "s + s^3", "cot(exp(s)/2)"), (1.0, -0.37, 2.9)):
        source = make_frame_source(hexpr.parse(h), H)
        surf = ScrollSurface(source, integrate_curve(source, 0.0, (-1.3, 1.3)))
        mesh = surf.mesh(np.linspace(-1.3, 1.3, 40), np.linspace(-3.0, 3.0, 7))
        assert mesh["nil3"][:, :2].tobytes() == mesh["l3"][:, :2].tobytes()


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


def test_nil3_partials_match_fd(tanh_surface):
    h = 1e-6
    for (s, t) in [(0.35, 0.4), (-0.8, 1.3)]:
        _, fs, ft, f = tanh_surface._nil3_tangents(s, t)
        fs, ft = np.array(fs), np.array(ft)
        p = lambda ds, dt: vertex(tanh_surface, s + ds, t + dt)[1]
        assert np.array(f) == pytest.approx(p(0, 0), abs=1e-12)
        assert fs == pytest.approx((p(h, 0) - p(-h, 0)) / (2 * h), abs=1e-6)
        assert ft == pytest.approx((p(0, h) - p(0, -h)) / (2 * h), abs=1e-6)


def test_jacobian_rank_drop_on_singular_curve(tanh_surface, tanh_source):
    s = 0.3
    t = singular_t(tanh_source(s))
    assert tanh_surface.nil3_jacobian_metrics(s, t) < 1e-8
    assert abs(oracle.area_density(tanh_surface, s, t)) < 1e-8
    assert tanh_surface.nil3_jacobian_metrics(s, t + 0.1) > 1e-3
    lm = oracle.area_density(tanh_surface, s, t - 0.05)
    lp = oracle.area_density(tanh_surface, s, t + 0.05)
    assert lm * lp < 0.0  # signed density flips across the singular curve


def test_direct_gauss_map_agrees(surfaces):
    rng = np.random.default_rng(3)
    for name, surf in surfaces.items():
        checked = 0
        for _ in range(30):
            s = float(rng.uniform(-1.0, 1.0))
            t = float(rng.uniform(-2.0, 2.0))
            g1, pole1 = oracle.normal_gauss_map(surf, s, t)
            g2, pole2 = oracle.nil3_gauss_map_direct(surf, s, t)
            if pole1 or pole2:
                continue
            assert abs(g1[0] - g2[0]) < 1e-8, name
            assert abs(g1[1] - g2[1]) < 1e-8, name
            checked += 1
        assert checked > 15


def test_forms_fd_clear_of_rounding_floor():
    # a verify-workload draw (cot, seed 1, call 20) where second differences
    # at step 1e-4 read 8.8e-7 against the 1e-6 tolerance; the jets have no step
    from nilscroll.verify import run_verify

    report = run_verify("cot(exp(s)/2)", 0.886867965916, (-0.861542340613, 0.708717516208))
    assert report["checks"]["fundamental_forms"]["residual"] < 1e-12


EPS = np.finfo(float).eps


def sigma_stacks():
    """Seeded 2x3 matrices (N, 2, 3) over six decades of scale: rows at any
    angle, and rows parallel but for a kick of 1e-12 to 1e-1 of their size."""
    rng = np.random.default_rng(3601)
    u, w = rng.standard_normal((2, 400, 3)) * 10.0 ** rng.uniform(-3, 3, (2, 400, 1))
    size = np.abs(u).max(axis=1, keepdims=True)
    kick = 10.0 ** rng.uniform(-12, -1, (400, 1)) * size * w / np.abs(w).max(axis=1, keepdims=True)
    return np.stack([u, w], 1), np.stack([u, u * rng.uniform(-3, 3, (400, 1)) + kick], 1)


def closed_form(M):
    """_sigma_min of a stack (..., 2, 3), its rows as 3-tuples of arrays."""
    return _sigma_min(*(tuple(np.moveaxis(M[..., i, :], -1, 0)) for i in (0, 1)))


def off_lapack(got, M):
    """|got - LAPACK's sigma_min| in units of eps * sigma_max, per matrix."""
    ref = np.linalg.svd(M, compute_uv=False)
    return np.abs(got - ref[..., -1]) / (EPS * ref[..., 0])


def test_sigma_min_is_lapacks_within_a_few_eps_of_sigma_max():
    for M in sigma_stacks():
        assert np.max(off_lapack(closed_form(M), M)) <= 4
        # one matrix at a time, as a single point's query makes it: the same bits
        assert [closed_form(m).tobytes() for m in M[:20]] == [x.tobytes() for x in closed_form(M[:20])]
    # the nearly parallel rows reach sigma_min / sigma_max down to 1e-12
    ref = np.linalg.svd(sigma_stacks()[1], compute_uv=False)
    assert np.min(ref[:, -1] / ref[:, 0]) < 1e-11


def test_sigma_min_of_the_gram_eigenvalue_cancels():
    # negative control: sqrt of the Gram matrix's small eigenvalue keeps about
    # half the digits on nearly parallel rows, and fails the bound above
    M = sigma_stacks()[1]
    a, b, c = (np.einsum("ij,ij->i", M[:, i], M[:, j]) for i, j in ((0, 0), (0, 1), (1, 1)))
    gram = np.sqrt(np.maximum((a + c) / 2 - np.hypot((a - c) / 2, b), 0.0))
    assert np.max(off_lapack(gram, M)) > 1e4


def test_sigma_min_at_the_edges():
    u = np.array([1.5, -2.0, 0.25])
    M = np.array([[u, 2 * u], [u, -0.5 * u], [u, 3 * u], [u, 0 * u], [0 * u, u], [0 * u, 0 * u],
                  [u, [np.nan, 1.0, 0.0]], [[np.inf, 0.0, 0.0], u], [[np.inf, 0.0, 0.0]] * 2])
    got = closed_form(M)
    assert np.all(off_lapack(got[:5], M[:5]) <= 4)
    # exactly parallel rows (a power-of-two multiple), a zero row, M = 0: exactly 0
    assert got[[0, 1, 3, 4, 5]].tolist() == [0.0] * 5
    # a row that is not finite: NaN, where LAPACK's SVD raises
    assert np.isnan(got[6:]).all()
