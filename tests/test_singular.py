"""Singularity location, classification, and the O(2,1) family."""

import dataclasses
import math

import numpy as np
import pytest

from nilscroll import hexpr
from nilscroll.errors import (
    ClassifierInconsistency,
    NoSolutionFound,
    OrientationBreak,
    PreconditionError,
)
from nilscroll.frames import make_frame_source
from nilscroll.lorentz import ETA, LorentzTransform
from nilscroll.singular import (
    SingularKind,
    _bracket_roots,
    _polish,
    classify_point,
    find_notce_transform,
    invariance_check,
    notce_residuals,
    scan_singularities,
    singular_t,
    transform_frame,
)
S_PLUS = 0.25 * math.log(5.0 + 2.0 * math.sqrt(6.0))
S_MINUS = 0.25 * math.log(5.0 - 2.0 * math.sqrt(6.0))

CUBIC = hexpr.parse("s + s^3")
COT = hexpr.parse("cot(exp(s)/2)")
CCR_S = 1.0 / math.sqrt(6.0)


def test_singular_t_values(tanh_source):
    assert singular_t(tanh_source(0.0)) is None  # B3(0) = 0: unbounded
    # t(s) = -2 coth(2s) for tanh
    t = singular_t(tanh_source(0.5))
    assert t == pytest.approx(-2.0 / math.tanh(1.0), rel=1e-12)


def cL_of(frame):
    """(c_L', c_L'') of a single-point frame, from its classification."""
    diag = classify_point(frame).diagnostics
    return np.array(diag["cL1"]), np.array(diag["cL2"])


def test_cL_jets_swallowtail_golden(tanh_source):
    c1, c2 = cL_of(tanh_source(S_PLUS))
    assert c1 == pytest.approx(
        np.array([0.0, 0.0, math.sqrt(2.0)]), abs=1e-8
    )
    assert c2 == pytest.approx(
        np.array([-6 * math.sqrt(2.0), 2 * math.sqrt(6.0), 2 * math.sqrt(3.0)]),
        abs=1e-6,
    )
    c1m, c2m = cL_of(tanh_source(S_MINUS))
    assert c1m == pytest.approx(
        np.array([0.0, 0.0, -math.sqrt(2.0)]), abs=1e-8
    )
    assert c2m == pytest.approx(
        np.array([6 * math.sqrt(2.0), -2 * math.sqrt(6.0), 2 * math.sqrt(3.0)]),
        abs=1e-6,
    )


def test_cL_e3_component_identity(any_source):
    name, source = any_source
    for s in (0.2, 0.45, 0.8):
        f = source(s)
        if singular_t(f) is None:
            continue
        c1, _ = cL_of(f)
        want = -f.kappa2.value * f.B.x3.value / f.H
        assert c1[2] == pytest.approx(want, abs=1e-10), name


def test_classify_cuspidal_edge(tanh_source):
    p = classify_point(tanh_source(0.2))
    assert p.kind is SingularKind.CUSPIDAL_EDGE
    assert p.is_front
    r1, r2 = p.diagnostics["notce"]
    assert max(abs(r1), abs(r2)) > 1e-6  # genuinely non-parallel


def test_classify_swallowtail(tanh_source):
    for s in (S_PLUS, S_MINUS):
        p = classify_point(tanh_source(s))
        assert p.kind is SingularKind.SWALLOWTAIL


def test_classify_cuspidal_cross_cap():
    src = make_frame_source(CUBIC, 1.0)
    for s in (CCR_S, -CCR_S):
        p = classify_point(src(s))
        assert p.kind is SingularKind.CUSPIDAL_CROSS_CAP
        assert abs(p.diagnostics["S_h"]) < 1e-10
        assert abs(p.diagnostics["S_h_prime"]) > 1.0


def test_classify_unbounded(tanh_source):
    p = classify_point(tanh_source(0.0))
    assert p.kind is SingularKind.UNBOUNDED
    assert p.t is None


def test_classifier_inconsistency_takes_its_points_place(tanh_source):
    # C off the unit sphere at s = 0.4 only: the two routes to c_L' disagree
    f = tanh_source(np.array([0.2, 0.4, 0.0]))
    bad = dataclasses.replace(f, C=f.C * np.array([1.0, 1.01, 1.01]))
    p, err, q = classify_point(bad, raise_errors=False)
    assert p.kind is SingularKind.CUSPIDAL_EDGE and q.kind is SingularKind.UNBOUNDED
    assert isinstance(err, ClassifierInconsistency)
    assert str(err).startswith("c_L' closed form vs jet route differ by") and "s=0.4" in str(err)
    with pytest.raises(ClassifierInconsistency, match="s=0.4"):
        classify_point(bad)


def test_classify_degenerate_line():
    src = make_frame_source(hexpr.parse("s"), 1.0)  # S(h) identically 0
    p = classify_point(src(0.5))
    assert p.kind is SingularKind.NON_FRONT_DEGENERATE


def test_scan_cubic_ccr_points():
    src = make_frame_source(CUBIC, 1.0)
    rep = scan_singularities(src, (-1.0, 1.0))
    ccr = [p for p in rep.points if p.kind is SingularKind.CUSPIDAL_CROSS_CAP]
    assert len(ccr) == 2
    assert ccr[0].s == pytest.approx(-CCR_S, abs=1e-10)
    assert ccr[1].s == pytest.approx(CCR_S, abs=1e-10)
    assert rep.points == sorted(rep.points, key=lambda p: p.s)


def test_scan_cot_ccr_at_zero():
    src = make_frame_source(COT, 1.0)
    rep = scan_singularities(src, (-1.0, 1.0))
    ccr = [p for p in rep.points if p.kind is SingularKind.CUSPIDAL_CROSS_CAP]
    assert len(ccr) == 1
    assert ccr[0].s == pytest.approx(0.0, abs=1e-10)
    assert ccr[0].diagnostics["S_h_prime"] == pytest.approx(1.0, abs=1e-10)


def test_scan_tanh_swallowtail(tanh_source):
    rep = scan_singularities(tanh_source, (0.1, 1.0))
    sw = [p for p in rep.points if p.kind is SingularKind.SWALLOWTAIL]
    assert len(sw) == 1
    assert sw[0].s == pytest.approx(S_PLUS, abs=1e-8)
    assert rep.warnings == []


def test_scan_curve_samples(tanh_source):
    rep = scan_singularities(tanh_source, (-0.5, 0.5), grid_n=64)
    assert len(rep.curve) == 64
    kinds = {k for _, _, k in rep.curve}
    assert SingularKind.CUSPIDAL_EDGE in kinds
    # t near s=0 blows up; the unbounded grid sample may or may not be hit
    for s, t, kind in rep.curve:
        if kind is SingularKind.UNBOUNDED:
            assert t is None


def test_scan_grid_validation(tanh_source):
    with pytest.raises(PreconditionError):
        scan_singularities(tanh_source, (0.0, 1.0), grid_n=4)


def one_channel(f):
    """f = (value, slope) of an array of s as one channel row each."""
    return lambda s: tuple(np.array([v + 0.0 * s]) for v in f(s))


def test_root_polish_falls_back_to_bisection():
    root = 2.0945514815423265  # of s^3 - 2 s - 5
    # exact slope (Newton), zero slope and wrong-signed slope (bisection)
    for slope in (lambda s: 3 * s * s - 2, lambda s: 0.0, lambda s: -1.0):
        got, errors = _polish(one_channel(lambda s: (s**3 - 2 * s - 5, slope(s))),
                              np.array([2.0]), np.array([3.0]), np.array([-1.0]),
                              np.zeros(1, int), 0.0)
        assert errors == {} and got[0] == pytest.approx(root, abs=4e-15)
    # a package error while polishing becomes a warning for that bracket
    (roots,), warnings = _bracket_roots(one_channel(lambda s: (math.nan, 1.0)),
                                        np.array([0.0, 1.0]), np.array([[-1.0, 1.0]]),
                                        ["nan"], np.zeros((1, 2)))
    assert roots == [] and len(warnings) == 1 and "WARN nan" in warnings[0]


def test_transform_frame_invariance(tanh_source):
    O = LorentzTransform.from_params(chi=0.3)
    f = tanh_source(0.4)
    g = transform_frame(O, f)
    assert g.kappa2.value == pytest.approx(f.kappa2.value, abs=1e-12)
    from nilscroll.frames import validate_frame

    assert validate_frame(g).worst < 1e-9


def test_transform_frame_orientation_break(tanh_source):
    O = LorentzTransform.from_params(reflect=True)
    with pytest.raises(OrientationBreak):
        transform_frame(O, tanh_source(0.4))


def test_invariance_check_identity(tanh_source):
    rep = invariance_check(
        tanh_source, LorentzTransform.identity(), (0.1, 1.0), n_samples=10
    )
    assert rep["front_preserved"]
    assert rep["ccr_preserved"]
    assert rep["kind_changes"] == 0


def test_invariance_check_boost_preserves_ccr():
    src = make_frame_source(CUBIC, 1.0)
    O = LorentzTransform.from_params(chi=0.4)
    rep = invariance_check(
        src, O, (-1.0, 1.0), n_samples=20, extra_s=(CCR_S, -CCR_S)
    )
    assert rep["front_preserved"]
    assert rep["ccr_preserved"]


def test_find_notce_transform(tanh_source):
    f0 = tanh_source(0.0)
    O = find_notce_transform(f0)
    g = transform_frame(O, f0)
    r1, r2 = notce_residuals(g)
    assert abs(r1) < 1e-8 and abs(r2) < 1e-8
    kind = classify_point(transform_frame(O, tanh_source(0.0))).kind
    assert kind in (SingularKind.SWALLOWTAIL, SingularKind.FRONT_OTHER)


def test_find_notce_identity_at_swallowtail(tanh_source):
    f = tanh_source(S_PLUS)
    r1, r2 = notce_residuals(f)
    assert abs(r1) < 1e-8 and abs(r2) < 1e-8
    O = find_notce_transform(f)
    g = transform_frame(O, f)
    r1, r2 = notce_residuals(g)
    assert abs(r1) < 1e-8 and abs(r2) < 1e-8


def test_find_notce_precondition():
    # kappa2/H = -S(h)/H^2, so S > 0 obstructs regardless of the sign of H
    src = make_frame_source(CUBIC, 1.0)
    f = src(0.2)
    assert f.kappa2.value / f.H < 0
    with pytest.raises(PreconditionError):
        find_notce_transform(f)


def test_find_notce_closed_form_draws():
    rng = np.random.default_rng(5)
    for i in range(40):
        text, lo, hi = ("tanh(s)", -1.5, 1.5) if i % 2 else ("cot(exp(s)/2)", -1.0, -0.05)
        src = make_frame_source(hexpr.parse(text), float(rng.uniform(0.5, 2.0)))
        s = float(rng.uniform(lo, hi))
        O = find_notce_transform(src(s))
        assert O.params is None
        assert O.det == pytest.approx(1.0, abs=1e-12) and O.m[0, 0] >= 1.0
        assert np.max(np.abs(O.m.T @ ETA @ O.m - ETA)) < 1e-12
        r1, r2 = notce_residuals(transform_frame(O, src(s)))
        assert abs(r1) < 1e-8 and abs(r2) < 1e-8
        kind = classify_point(transform_frame(O, src(s))).kind
        assert kind is not SingularKind.CUSPIDAL_EDGE


def test_find_notce_rejects_invalid_frame(tanh_source):
    # C off the unit sphere: r1 can still vanish, the validity residual r2 not
    f = tanh_source(0.3)
    with pytest.raises(NoSolutionFound):
        find_notce_transform(dataclasses.replace(f, C=f.C * 1.01))


def test_criteria_equivalence_dense(surfaces):
    """Parallel-to-e3 test and NotCE residual test never disagree.

    r2 = 1 - <e3, e3> is zero on every valid frame, transformed or not.
    """
    O = LorentzTransform.from_params(phi=0.7, chi=0.6, psi=2.1)
    for name, surf in surfaces.items():
        for s in np.linspace(-1.0, 1.0, 101):
            f = surf.frame_source(float(s))
            for frame in (f, transform_frame(O, f)):
                # raises ClassifierInconsistency on disagreement
                p = classify_point(frame)
                if "notce" in p.diagnostics:
                    assert abs(p.diagnostics["notce"][1]) < 1e-12, (name, s)


def test_brackets_step_together_like_one_at_a_time():
    f = one_channel(lambda s: (np.sin(3 * s) - 0.2, 3 * np.cos(3 * s)))
    lo, hi = np.array([0.0, 0.9, -1.2]), np.array([0.5, 1.2, -0.9])
    roots, errors = _polish(f, lo, hi, f(lo)[0][0], np.zeros(3, int), 0.0)
    assert errors == {}
    for r, a, b in zip(roots, lo, hi):
        alone, _ = _polish(f, np.array([a]), np.array([b]), f(np.array([a]))[0][0],
                           np.zeros(1, int), 0.0)
        assert r == alone[0]


def test_brackets_of_two_channels_in_one_pass():
    # channel a: an exact 0 at s = 1, a NaN cell, a sign change on [4, 5];
    # channel b: a bracket on [0, 1] whose f is NaN, a sign change on [3, 4]
    def f(s):
        return (np.array([s * s - 20.0, np.where(s < 1.0, np.nan, 3.2 - s)]),
                np.array([2.0 * s, -np.ones_like(s)]))

    grid = np.arange(6.0)
    vals = np.array([[1.0, 0.0, -1.0, np.nan, -4.0, 5.0],
                     [-1.0, 1.0, 2.0, 2.0, -2.0, -3.0]])
    (a, b), warnings = _bracket_roots(f, grid, vals, ["a", "b"], np.zeros((2, 6)))
    assert a == [1.0, pytest.approx(math.sqrt(20.0), abs=1e-14)]
    assert b == [pytest.approx(3.2, abs=1e-14)]
    assert warnings == ["WARN b: bracket [0.0, 1.0] failed: value nan at s=0.5"]
    # the warnings of channel a come first, whatever their cells
    (a, b), warnings = _bracket_roots(
        lambda s: (np.full((2, np.size(s)), np.nan),) * 2, grid[:4],
        np.array([[1.0, 1.0, -1.0, -1.0], [-1.0, 1.0, 1.0, 1.0]]), ["a", "b"], np.zeros((2, 4)))
    assert a == b == []
    assert warnings == ["WARN a: bracket [1.0, 2.0] failed: value nan at s=1.5",
                        "WARN b: bracket [0.0, 1.0] failed: value nan at s=0.5"]


def test_scan_isolates_a_bracket_whose_frame_fails():
    # frames fail only near +1/sqrt(6): that bracket warns, the others polish
    base = make_frame_source(CUBIC, 1.0)

    def source(s):
        hole = np.abs(np.atleast_1d(s) - CCR_S) < 1e-3
        f = base(s)
        for jet in (*f.A, *f.B, *f.C, f.kappa2):
            jet.taylor()[:, hole] = np.nan
        return f

    rep = scan_singularities(source, (-1.0, 1.0))
    ccr = [p.s for p in rep.points if p.kind is SingularKind.CUSPIDAL_CROSS_CAP]
    assert ccr == [pytest.approx(-CCR_S, abs=1e-10)]
    assert len(rep.warnings) == 1
    assert rep.warnings[0].startswith("WARN kappa2: bracket [0.403")


def test_scan_across_a_log_hole_evaluates_once_per_batch(monkeypatch):
    # the zero factor keeps h = s + s^3 outside a log hole of half-width 1e-3
    # around +1/sqrt(6): the polishing step that lands in it ends that
    # bracket, and the point's own error, met alone, is the warning's reason
    from nilscroll import frames

    calls, original = [], frames.frame_from_h

    def counted(h_ast, H, s, order=5):
        calls.append(np.size(s) if np.ndim(s) else float(s))
        return original(h_ast, H, s, order)

    monkeypatch.setattr(frames, "frame_from_h", counted)
    h = hexpr.parse("s + s^3 + 0*log((s - 0.4082482904638631)^2 - 1e-6)")
    rep = scan_singularities(make_frame_source(h, 1.0), (-1.0, 1.0))
    assert [(p.s, p.kind) for p in rep.points] == [
        (-0.408248290463863, SingularKind.CUSPIDAL_CROSS_CAP)]
    assert rep.warnings == [
        "WARN kappa2: bracket [0.4039215686274509, 0.4117647058823528] failed: "
        "log out of domain at s=0.40784313725490184"]
    # the grid, one batch per polishing step, the classification; the lone point
    assert [c for c in calls if isinstance(c, int)] == [256, 2, 1, 1, 1, 1]
    assert [c for c in calls if isinstance(c, float)] == [0.40784313725490184]


def test_polish_stops_at_the_rounding_floor():
    # a Mobius image of s + s^3 (scan workload, seed 715, call 34): a scan on
    # the components of c_L' reached |c_L'| ~ 1e-15, the rounding noise of
    # its terms, near 0.488 in 5 steps; Newton steps there are noise, and
    # stepping on bisected the whole bracket again, 29 steps in all
    h = ("((-0.998129871827)*(s + s^3) + (-1.00783083637))"
         "/((-0.0330395472522)*(s + s^3) + (-1.59131597866))")
    src = make_frame_source(hexpr.parse(h), 0.549436717934)
    calls = []

    def counted(s):
        calls.append(np.size(s))
        return src(s)

    report = scan_singularities(counted, (-1.0, 1.0))
    assert len(calls) <= 1 + 8 + 1  # grid, polishing steps, classification
    caps = [p.s for p in report.points if p.kind is SingularKind.CUSPIDAL_CROSS_CAP]
    assert caps == pytest.approx([-1 / math.sqrt(6), 1 / math.sqrt(6)], abs=1e-12)


def test_scan_finds_the_swallowtail_inside_a_double_sign_change_cell():
    # a Mobius image of tanh (scan workload, seed 10): one component of c_L'
    # crosses zero twice inside the grid cell [0.7098, 0.7176], so a scan on
    # sign changes of c_L' brackets only the swallowtail near -0.48
    h = ("((-1.2037144981)*(tanh(s)) + 0.249623785959)"
         "/(0.0952157528429*(tanh(s)) + 0.431928333643)")
    src = make_frame_source(hexpr.parse(h), 1.77376241597)
    rep = scan_singularities(src, (-1.0, 1.0))
    sw = [p.s for p in rep.points if p.kind is SingularKind.SWALLOWTAIL]
    assert sw == [pytest.approx(-0.4825228057, abs=1e-10), pytest.approx(0.7145718755, abs=1e-10)]
    assert rep.warnings == []


@pytest.mark.parametrize("H", [0.5, 1.7])
@pytest.mark.parametrize("text", ["tanh(s)", "s + s^3", "cot(exp(s)/2)"])
def test_notce_residual_is_the_schwarzian_ratio(text, H):
    # r1 = (kappa2/H) B3^2 - 1 = -N h^2/h'^4 - 1, N = h'h''' - (3/2)h''^2: no H
    ast = hexpr.parse(text)
    s = np.linspace(-1.0, 1.0, 2001)
    h = hexpr.eval_jet(ast, s, 3)
    h0, h1, h2, h3 = (h.derivative(k) for k in range(4))
    want = -(h1 * h3 - 1.5 * h2 * h2) * h0 * h0 / h1**4 - 1.0
    r1, _ = notce_residuals(make_frame_source(ast, H)(s))
    assert np.max(np.abs(r1 - want) / np.maximum(np.abs(want), 1.0)) < 1e-13


@pytest.mark.parametrize("H", [0.5, 2.0])
def test_scan_tanh_swallowtail_closed_form_at_any_H(H):
    rep = scan_singularities(make_frame_source(hexpr.parse("tanh(s)"), H), (0.1, 1.0))
    sw = [p.s for p in rep.points if p.kind is SingularKind.SWALLOWTAIL]
    assert sw == [pytest.approx(S_PLUS, abs=1e-12)]
