"""Singularity location, classification, and the O(2,1) family."""

import dataclasses
import math

import numpy as np
import pytest

from nilscroll import hexpr
from nilscroll.errors import (
    NoSolutionFound,
    OrientationBreak,
    PreconditionError,
    UnboundedCurve,
)
from nilscroll.frames import make_frame_source
from nilscroll.lorentz import ETA, LorentzTransform
from nilscroll.singular import (
    SingularKind,
    cL_jets,
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


def test_cL_jets_unbounded(tanh_source):
    with pytest.raises(UnboundedCurve):
        cL_jets(tanh_source(0.0))


def test_cL_jets_swallowtail_golden(tanh_source):
    c1, c2 = cL_jets(tanh_source(S_PLUS))
    assert c1.as_array() == pytest.approx(
        np.array([0.0, 0.0, math.sqrt(2.0)]), abs=1e-8
    )
    assert c2.as_array() == pytest.approx(
        np.array([-6 * math.sqrt(2.0), 2 * math.sqrt(6.0), 2 * math.sqrt(3.0)]),
        abs=1e-6,
    )
    c1m, c2m = cL_jets(tanh_source(S_MINUS))
    assert c1m.as_array() == pytest.approx(
        np.array([0.0, 0.0, -math.sqrt(2.0)]), abs=1e-8
    )
    assert c2m.as_array() == pytest.approx(
        np.array([6 * math.sqrt(2.0), -2 * math.sqrt(6.0), 2 * math.sqrt(3.0)]),
        abs=1e-6,
    )


def test_cL_e3_component_identity(any_source):
    name, source = any_source
    for s in (0.2, 0.45, 0.8):
        f = source(s)
        if singular_t(f) is None:
            continue
        c1, _ = cL_jets(f)
        want = -f.kappa2.value * f.B.x3.value / f.H
        assert c1.x3 == pytest.approx(want, abs=1e-10), name


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


def test_root_polish_falls_back_to_bisection():
    from nilscroll.singular import _bracket_roots, _polish

    root = 2.0945514815423265  # of s^3 - 2 s - 5
    # exact slope (Newton), zero slope and wrong-signed slope (bisection)
    for slope in (lambda s: 3 * s * s - 2, lambda s: 0.0, lambda s: -1.0):
        got = _polish(lambda s: (s**3 - 2 * s - 5, slope(s)), 2.0, 3.0, -1.0)
        assert got == pytest.approx(root, abs=4e-15)
    # a package error while polishing becomes a warning for that bracket
    warnings = []
    roots = _bracket_roots(lambda s: (math.nan, 1.0), [0.0, 1.0], [-1.0, 1.0],
                           warnings, "nan")
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
