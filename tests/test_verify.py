"""The invariant suite and the batched surface queries it runs on."""

import numpy as np
import pytest

from nilscroll import hexpr
from nilscroll.frames import make_frame_source
from nilscroll.integrate import integrate_curve
from nilscroll.lorentz import mdot
from nilscroll.singular import singular_t
from nilscroll.surface import ScrollSurface
from nilscroll.verify import run_verify

EPS = np.finfo(float).eps
H = 0.8


@pytest.fixture(scope="module", params=["tanh(s)", "cot(exp(s)/2)"])
def draws(request):
    """A surface, its frame source and 40 seeded (s, t) draws."""
    source = make_frame_source(hexpr.parse(request.param), H)
    surf = ScrollSurface(source, integrate_curve(source, 0.0, (-1.0, 1.0)))
    s, t = np.random.default_rng(17).uniform((-0.9, -2.0), (0.9, 2.0), size=(40, 2)).T
    return surf, source, s, t


def close(got, want, ulps=4):
    """Equal to within a few ulps of the larger magnitude, row by row."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.maximum(np.abs(got), np.abs(want))
    assert np.all(np.abs(got - want) <= ulps * EPS * scale), np.max(np.abs(got - want))


def test_batched_forms_match_closed_form_oracle(draws):
    surf, source, s, t = draws
    forms = surf.fundamental_forms(s, t)
    for i, (si, ti) in enumerate(zip(s.tolist(), t.tolist())):
        f = source(si)
        k1, k2 = f.kappa1.value, f.kappa2.value
        I = np.array([[2 * ti * k1 + ti * ti * H * H, -1.0], [-1.0, 0.0]])
        II = np.array([[-k2 + 2 * ti * k1 * H + ti * ti * H**3, -H], [-H, 0.0]])
        shape = np.linalg.inv(I) @ II
        close(forms.I[i], I)
        close(forms.II[i], II)
        close(forms.H_mean[i], 0.5 * np.trace(shape))
        close(forms.K_gauss[i], np.linalg.det(shape))


def test_batched_fd_forms_match_partials(draws):
    # the first form from the exact tangents (A + t B', B) of f_L
    surf, _, s, t = draws
    fd = surf.fundamental_forms_fd(s, t)
    fs, ft = surf.bscroll_partials(s, t)
    I = np.stack([mdot(fs, fs), mdot(fs, ft), mdot(ft, fs), mdot(ft, ft)], -1)
    assert np.max(np.abs(fd.I.reshape(-1, 4) - I)) < 1e-6


def box_oracle(source, s, t, h):
    """The d'Alembertian stencil at one point, one frame per s-row."""
    def N(i, j):
        _, B, C = source(s + i * h).values()
        return (-C - B * ((t + j * h) * H)).as_array()

    def u_t(i, j):
        return (N(i, j + 1) - N(i, j - 1)) / (2 * h)

    def u_s(j):
        return (N(1, j) - N(-1, j)) / (2 * h)

    def Q(j):
        return -u_s(j) - ((t + j * h) * H) ** 2 * u_t(0, j)

    box = -(u_t(1, 0) - u_t(-1, 0)) / (2 * h) + (Q(1) - Q(-1)) / (2 * h)
    r_plus = np.linalg.norm(box - 2 * H * H * N(0, 0))
    r_minus = np.linalg.norm(box + 2 * H * H * N(0, 0))
    return (r_minus, -1) if r_minus <= r_plus else (r_plus, 1)


def test_batched_box_matches_per_point_stencil(draws):
    surf, source, s, t = draws
    r, sign = surf.box_check(s, t, fd_step=1e-3)
    want = [box_oracle(source, si, ti, 1e-3) for si, ti in zip(s.tolist(), t.tolist())]
    close(r, [w[0] for w in want])
    assert sign.tolist() == [w[1] for w in want]


def test_batch_rows_equal_single_points(draws):
    # a batch of 40 and 40 batches of one give the same rows
    surf, _, s, t = draws
    batch = {
        "forms": surf.fundamental_forms(s, t),
        "fd": surf.fundamental_forms_fd(s, t),
        "box": surf.box_check(s, t),
        "N": surf.gauss_map_L(s, t),
        "g": surf.normal_gauss_map(s, t),
        "metrics": surf.nil3_jacobian_metrics(s, t),
        "direct": surf.nil3_gauss_map_direct(s, t),
    }
    for i, (si, ti) in enumerate(zip(s.tolist(), t.tolist())):
        forms, fd = surf.fundamental_forms(si, ti), surf.fundamental_forms_fd(si, ti)
        for got, want in ((batch["forms"], forms), (batch["fd"], fd)):
            for name in ("I", "II", "H_mean", "K_gauss"):
                close(getattr(got, name)[i], getattr(want, name))
        close(batch["box"][0][i], surf.box_check(si, ti)[0])
        close(batch["N"].as_array()[:, i], surf.gauss_map_L(si, ti).as_array())
        for key, query in (("g", surf.normal_gauss_map), ("direct", surf.nil3_gauss_map_direct)):
            g, pole = query(si, ti)
            assert batch[key][1][i] == pole
            close([batch[key][0].re[i], batch[key][0].im[i]], [g.re, g.im])
        m = surf.nil3_jacobian_metrics(si, ti)
        for name in ("sigma_min", "lambda"):
            close(batch["metrics"][name][i], m[name])


def test_gauss_pole_is_masked_in_a_batch(tanh_surface, tanh_source):
    # N3 = 1 at t_pole: -C3 - t*B3 = 1 with H = 1
    _, Bv, Cv = tanh_source(0.5).values()
    t_pole = (1.0 + Cv.x3) / (-Bv.x3)
    s = np.array([0.1, 0.5, -0.3])
    t = np.array([0.7, t_pole, -1.2])
    g, pole = tanh_surface.normal_gauss_map(s, t)
    assert pole.tolist() == [False, True, False]
    assert np.isnan([g.re[1], g.im[1]]).all()
    assert np.isfinite([g.re[[0, 2]], g.im[[0, 2]]]).all()


def test_duality_rows_on_the_singular_curve(tanh_surface, tanh_source):
    s = np.linspace(0.15, 1.0, 15)
    t = singular_t(tanh_source(s))
    m = tanh_surface.nil3_jacobian_metrics(s, t)
    g, pole = tanh_surface.normal_gauss_map(s, t)
    assert np.max(m["sigma_min"]) < 1e-8 and not pole.any()
    assert np.max(np.abs(g.sqmod() - 1.0)) < 1e-10


# run_verify on fixed draws (workload seed 1 calls 0-2, then wider ranges);
# the expected values are those of the per-draw implementation it replaces
RECORDED = [
    (("tanh(s)", 0.710211482069, (-0.776589178125, 0.654624007125), {}),
     True, -1, {"cuspidal_edge": 21}),
    (("s + s^3", 1.99456718568, (-1.03426290087, 0.976008113787), {}),
     True, -1, {"cuspidal_edge": 21}),
    (("cot(exp(s)/2)", 0.878160986269, (-0.726976128408, 0.74750990825), {}),
     True, -1, {"cuspidal_edge": 21}),
    (("tanh(s)", 1.0, (-1.0, 1.0), {}), True, -1, {"cuspidal_edge": 20, "unbounded": 1}),
    (("cot(exp(s)/2)", -0.8, (-0.9, 0.9), {}),
     True, -1, {"cuspidal_edge": 20, "cuspidal_cross_cap": 1}),
    (("tanh(s)", 0.7, (-0.75, 0.75), {"fd_tol": 1e-16}),
     False, -1, {"cuspidal_edge": 20, "unbounded": 1}),
    (("s", 1.0, (0.1, 1.0), {}), True, -1, {"non_front_degenerate": 21}),
]


@pytest.mark.parametrize("args, all_pass, box_sign, kinds", RECORDED)
def test_run_verify_matches_recorded(args, all_pass, box_sign, kinds):
    h, H_, s_range, kwargs = args
    report = run_verify(h, H_, s_range, **kwargs)
    assert report["all_pass"] is all_pass
    assert report["box_sign"] == box_sign
    assert report["singular_kinds"] == kinds
