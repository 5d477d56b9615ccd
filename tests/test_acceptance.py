"""Acceptance suite.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output) and asserts at the stated tolerance.
"""

import itertools
import math

import numpy as np
import pytest

from jet_route_oracles import area_density, curvatures, frame_from_B, normal_gauss_map
from nilscroll import hexpr
from nilscroll.frames import (
    frame_flow_from_curvatures,
    frame_from_h,
    make_frame_source,
    validate_frame,
)
from nilscroll.integrate import integrate_curve
from nilscroll.jets import schwarzian
from nilscroll.lorentz import LorentzTransform
from nilscroll.singular import (
    FRONT_KINDS,
    SingularKind,
    classify_point,
    find_notce_transform,
    notce_residuals,
    scan_singularities,
    singular_t,
    transform_frame,
)
from nilscroll.surface import ScrollSurface

GENERATORS = ["tanh(s)", "s + s^3", "cot(exp(s)/2)"]
S_PLUS = 0.25 * math.log(5.0 + 2.0 * math.sqrt(6.0))
S_MINUS = 0.25 * math.log(5.0 - 2.0 * math.sqrt(6.0))
CCR_S = 1.0 / math.sqrt(6.0)


def report(n, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {n}: {label}")
    assert ok, f"acceptance {n}: {label}"


def make_surface(text, s_range=(-1.3, 1.3), H=1.0):
    src = make_frame_source(hexpr.parse(text), H)
    path = integrate_curve(src, 0.5 * (s_range[0] + s_range[1]), s_range)
    return src, ScrollSurface(src, path)


def test_acceptance_01_schwarzian_golden():
    tanh_ast = hexpr.parse("tanh(s)")
    err1 = max(
        abs(schwarzian(hexpr.eval_jet(tanh_ast, float(s), 5)).value + 2.0)
        for s in np.linspace(-2.0, 2.0, 201)
    )
    cubic = hexpr.parse("s + s^3")
    err2 = max(
        abs(
            schwarzian(hexpr.eval_jet(cubic, float(s), 5)).value
            - (6 - 36 * s * s) / (1 + 3 * s * s) ** 2
        )
        for s in np.linspace(-1.0, 1.0, 201)
    )
    cot = hexpr.parse("cot(exp(s)/2)")
    err3 = max(
        abs(
            schwarzian(hexpr.eval_jet(cot, float(s), 5)).value
            - (math.exp(2 * s) - 1.0) / 2.0
        )
        for s in np.linspace(-1.0, 1.0, 201)
    )
    ok = err1 < 1e-12 and err2 < 1e-12 and err3 < 1e-10
    report(1, f"Schwarzian golden values (errs {err1:.1e}, {err2:.1e}, {err3:.1e})", ok)


def test_acceptance_02_cubic_cuspidal_cross_caps():
    ok = True
    detail = []
    for H in (1.0, -1.0, 0.5):
        src = make_frame_source(hexpr.parse("s + s^3"), H)
        rep = scan_singularities(src, (-1.0, 1.0))
        ccr = [p for p in rep.points if p.kind is SingularKind.CUSPIDAL_CROSS_CAP]
        ok &= len(ccr) == 2
        if len(ccr) == 2:
            ok &= abs(ccr[0].s + CCR_S) < 1e-10 and abs(ccr[1].s - CCR_S) < 1e-10
            want = 16.0 * math.sqrt(2.0 / 3.0)
            ok &= abs(ccr[0].diagnostics["S_h_prime"] - want) < 1e-8
            ok &= abs(ccr[1].diagnostics["S_h_prime"] + want) < 1e-8
            detail.append(f"H={H}: s={ccr[1].s:.12f}")
    report(2, f"cuspidal cross caps at +/-1/sqrt(6) ({'; '.join(detail)})", ok)


def test_acceptance_03_cot_cuspidal_cross_cap():
    src = make_frame_source(hexpr.parse("cot(exp(s)/2)"), 1.0)
    rep = scan_singularities(src, (-1.0, 1.0))
    ccr = [p for p in rep.points if p.kind is SingularKind.CUSPIDAL_CROSS_CAP]
    ok = (
        len(ccr) == 1
        and abs(ccr[0].s) < 1e-10
        and abs(ccr[0].diagnostics["S_h_prime"] - 1.0) < 1e-10
    )
    report(3, f"one cuspidal cross cap at s=0 with S(h)'(0)=1 ({len(ccr)} found)", ok)


def test_acceptance_04_tanh_swallowtails():
    src = make_frame_source(hexpr.parse("tanh(s)"), 1.0)
    rep = scan_singularities(src, (0.1, 1.0))
    sw = [p for p in rep.points if p.kind is SingularKind.SWALLOWTAIL]
    ok = len(sw) == 1 and abs(sw[0].s - S_PLUS) < 1e-8
    c2_want = np.array([-6 * math.sqrt(2.0), 2 * math.sqrt(6.0), 2 * math.sqrt(3.0)])
    for s, sign in ((S_PLUS, 1.0), (S_MINUS, -1.0)):
        diag = classify_point(src(s)).diagnostics
        ok &= np.max(np.abs(np.array(diag["cL1"]) - [0, 0, sign * math.sqrt(2)])) < 1e-8
        want = c2_want * np.array([sign, sign, 1.0])
        ok &= np.max(np.abs(np.array(diag["cL2"]) - want)) < 1e-6
    report(4, f"swallowtail at s+={S_PLUS:.10f} with c_L', c_L'' golden jets", ok)


def test_acceptance_05_closed_form_surface_match():
    _, surf = make_surface("tanh(s)")
    err12 = 0.0
    off_L, off_N = [], []
    svals, tvals = np.linspace(-1.0, 1.0, 101), np.linspace(-2.0, 2.0, 11)
    verts = surf.mesh(svals, tvals)  # rows s-major, t inner
    points = zip(itertools.product(svals.tolist(), tvals.tolist()), verts["l3"], verts["nil3"])
    for (s, t), fL, fN in points:
        e1 = 0.5 * (math.sinh(2 * s) + t * math.cosh(2 * s))
        e2 = 0.5 * (2 * s - t)
        err12 = max(
            err12, abs(fL[0] - e1), abs(fL[1] - e2),
            abs(fN[0] - e1), abs(fN[1] - e2),
        )
        off_L.append(fL[2] - (-0.5 * (math.cosh(2 * s) + t * math.sinh(2 * s))))
        off_N.append(
            fN[2]
            - 0.5 * (-0.5 - s * t * math.cosh(2 * s) + (-s + t / 2) * math.sinh(2 * s))
        )
    spread = max(np.ptp(off_L), np.ptp(off_N))
    ok = err12 < 1e-8 and spread < 1e-8
    report(5, f"closed-form f_L/f match (err {err12:.1e}, offset spread {spread:.1e})", ok)


def test_acceptance_06_frame_invariant_suite():
    rng = np.random.default_rng(42)
    worst_inv, worst_fs = 0.0, 0.0
    sources = [(t, make_frame_source(hexpr.parse(t), 1.0)) for t in GENERATORS]
    for _ in range(20):
        base = hexpr.parse(GENERATORS[int(rng.integers(0, 3))])
        c = float(rng.uniform(-0.15, 0.15))
        a = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        b = float(rng.uniform(-1.0, 1.0))
        sources.append(("mobius", make_frame_source(hexpr.mobius(base, a, b, c, 1.0), 1.0)))
    for name, src in sources:
        for s in np.linspace(-1.0, 1.0, 41):
            r = validate_frame(src(float(s)))
            worst_inv = max(
                worst_inv, max(v for k, v in r.items() if not k.startswith("fs_"))
            )
            worst_fs = max(worst_fs, r["fs_A"], r["fs_B"], r["fs_C"])
    ok = worst_inv < 1e-9 and worst_fs < 1e-8
    report(6, f"frame invariants {worst_inv:.1e} (<1e-9), FS {worst_fs:.1e} (<1e-8)", ok)


def form_law_worst(off_diagonal=1.0):
    """The largest |H_mean - H| or |K_gauss - H^2|, H = 1, at 3000 samples,
    from the I and II of jet_forms; off_diagonal scales II's f = <f_st, N>."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for text in GENERATORS:
        _, surf = make_surface(text)
        for _ in range(1000):
            s = float(rng.uniform(-1.0, 1.0))
            t = float(rng.uniform(-2.0, 2.0))
            I, II = surf.jet_forms(s, t)
            H_mean, K_gauss = curvatures(I, II * [[1.0, off_diagonal], [off_diagonal, 1.0]])
            worst = max(worst, abs(H_mean - 1.0), abs(K_gauss - 1.0))
    return worst


def test_acceptance_07_fundamental_form_law():
    worst = form_law_worst()
    report(7, f"H_mean=H and K_gauss=H^2 from the jet forms at 3000 samples (worst {worst:.1e})",
           worst < 1e-10)


def test_fundamental_form_law_negative_control():
    # f = -H off by a relative 1e-8 moves H_mean and K_gauss by about 1e-8
    assert form_law_worst(1.0 + 1e-8) > 1e-10


def test_acceptance_08_box_eigenvalue_identity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for text in GENERATORS:
        _, surf = make_surface(text)
        for _ in range(100):
            s = float(rng.uniform(-1.0, 1.0))
            t = float(rng.uniform(-2.0, 2.0))
            worst = max(worst, surf.box_eigenvalue(s, t))
    ok = worst < 1e-4
    report(8, f"box N_L = -2H^2 N_L, residual {worst:.1e} (<1e-4)", ok)


def test_acceptance_09_singular_set_duality():
    src, surf = make_surface("tanh(s)")
    worst_sigma, worst_g = 0.0, 0.0
    min_off, lam_ok = np.inf, True
    for s in np.linspace(0.15, 1.0, 15):
        s = float(s)
        t = singular_t(src(s))
        worst_sigma = max(worst_sigma, surf.nil3_jacobian_metrics(s, t))
        re, im = normal_gauss_map(surf, s, t)[0]
        worst_g = max(worst_g, abs(re * re - im * im - 1.0))
        min_off = min(min_off, surf.nil3_jacobian_metrics(s, t + 0.1))
        min_off = min(min_off, surf.nil3_jacobian_metrics(s, t - 0.1))
        lam = [area_density(surf, s, t + d) for d in (-0.05, 0.05)]
        lam_ok &= lam[0] * lam[1] < 0
    ok = worst_sigma < 1e-6 and worst_g < 1e-8 and min_off > 1e-3 and lam_ok
    report(
        9,
        f"singular duality: sigma {worst_sigma:.1e}, |g|^2-1 {worst_g:.1e}, "
        f"off-curve {min_off:.1e}, lambda sign flip {lam_ok}",
        ok,
    )


def test_acceptance_10_fundamental_theorem_round_trip():
    tanh_ast = hexpr.parse("tanh(s)")
    init = frame_from_h(tanh_ast, 1.0, 0.0)
    frames = frame_flow_from_curvatures(
        hexpr.parse("0"), hexpr.parse("2"), 1.0, init, (0.0, 1.0), n_samples=101
    )
    worst = 0.0
    for f in frames:
        ex = frame_from_h(tanh_ast, 1.0, f.s)
        for got, want in ((f.A, ex.A), (f.B, ex.B), (f.C, ex.C)):
            worst = max(
                worst,
                float(np.max(np.abs(got.value - want.value))),
            )
    frames2 = frame_flow_from_curvatures(
        hexpr.parse("0"), hexpr.parse("sin(s)"), 1.0, init, (0.0, 2 * math.pi),
        n_samples=101,
    )
    worst_k2 = max(
        abs(frame_from_B(f.B, 1.0, tol=1e-6).kappa2.value - math.sin(f.s))
        for f in frames2
    )
    ok = worst < 1e-7 and worst_k2 < 1e-6
    report(
        10,
        f"flow matches closed form ({worst:.1e} < 1e-7), "
        f"kappa2 recovery ({worst_k2:.1e} < 1e-6)",
        ok,
    )


def test_acceptance_11_mobius_invariance():
    rng = np.random.default_rng(13)
    cubic = hexpr.parse("s + s^3")
    grid = np.linspace(-1.0, 1.0, 81)
    S_ref = [
        schwarzian(hexpr.eval_jet(cubic, float(s), 5)).value for s in grid
    ]
    from scipy.optimize import brentq

    ok = True
    worst_S, worst_root = 0.0, 0.0
    for _ in range(200):
        c = float(rng.uniform(-0.15, 0.15))
        a = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        b = float(rng.uniform(-1.0, 1.0))
        d = 1.0
        if abs(a * d - b * c) < 1e-3:
            a += 1.0
        ast = hexpr.mobius(cubic, a, b, c, d)

        def S_of(s):
            return schwarzian(hexpr.eval_jet(ast, float(s), 5)).value

        worst_S = max(
            worst_S, max(abs(S_of(s) - ref) for s, ref in zip(grid, S_ref))
        )
        for target in (CCR_S, -CCR_S):
            root = brentq(S_of, target - 0.05, target + 0.05, xtol=1e-14)
            worst_root = max(worst_root, abs(root - target))
    ok = worst_S < 1e-8 and worst_root < 1e-8
    report(
        11,
        f"200 Mobius transforms: S drift {worst_S:.1e}, CCR drift {worst_root:.1e}",
        ok,
    )


def test_acceptance_12_o21_invariance():
    rng = np.random.default_rng(99)
    cubic_src = make_frame_source(hexpr.parse("s + s^3"), 1.0)
    tanh_src = make_frame_source(hexpr.parse("tanh(s)"), 1.0)
    ok = True
    for _ in range(20):
        O = LorentzTransform.from_params(
            phi=float(rng.uniform(0, 2 * math.pi)),
            chi=float(rng.uniform(-1.0, 1.0)),
            psi=float(rng.uniform(0, 2 * math.pi)),
        )
        for s in (CCR_S, -CCR_S):
            kind = classify_point(transform_frame(O, cubic_src(s))).kind
            ok &= kind is SingularKind.CUSPIDAL_CROSS_CAP
    # front/not-front at 50 sampled singular points of the tanh surface
    O = LorentzTransform.from_params(
        phi=0.7, chi=0.6, psi=2.1
    )
    for s in np.linspace(0.1, 1.0, 50):
        p = classify_point(tanh_src(float(s)))
        q = classify_point(transform_frame(O, tanh_src(float(s))))
        ok &= (p.kind in FRONT_KINDS) == (q.kind in FRONT_KINDS)
    f0 = tanh_src(0.0)
    On, _, _ = find_notce_transform(f0)
    r1, r2 = notce_residuals(transform_frame(On, f0))
    kind = classify_point(transform_frame(On, tanh_src(0.0))).kind
    ok &= abs(r1) < 1e-8 and abs(r2) < 1e-8
    ok &= kind in (SingularKind.SWALLOWTAIL, SingularKind.FRONT_OTHER)
    report(
        12,
        f"O(2,1) invariance + NotCE search (residuals {r1:.1e}, {r2:.1e}, {kind.value})",
        ok,
    )


def test_acceptance_13_criteria_equivalence():
    # (c_L'_1, c_L'_2) = -(r1/B3^2)(B1, B2) on a valid frame: c_L' is parallel
    # to e3 exactly where the NotCE residual r1 vanishes, so r1 alone decides
    ok, checked, worst = True, 0, 0.0
    for text in GENERATORS:
        f = make_frame_source(hexpr.parse(text), 1.0)(np.linspace(-1.0, 1.0, 201))
        table = classify_point(f)
        ok &= not table.errors  # c_L''s two routes agree
        front = np.isin(table.kind, [k.value for k in FRONT_KINDS])
        cL1, B = table.cL1[:, front], f.B.value[:, front]
        want = -(table.r1[front] / B[2] ** 2) * B[:2]
        worst = max(worst, np.max(np.abs(cL1[:2] - want) / np.abs(cL1).max(axis=0)))
        checked += int(front.sum())
    ok &= checked > 300 and worst < 2e-14
    report(13, f"parallel and residual criteria agree to {worst:.1e} at {checked} front points",
           ok)
