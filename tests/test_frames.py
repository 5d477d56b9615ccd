"""Null frames: closed-form construction, validation, prescribed-B and
prescribed-curvature constructors."""

import math

import numpy as np
import pytest

from nilscroll import hexpr
from nilscroll.errors import (
    DegenerateGenerator,
    DomainError,
    InitError,
    NormalizationError,
    NumericFailure,
    OrientationError,
)
from nilscroll.frames import (
    finite_frames,
    frame_flow_from_curvatures,
    frame_from_B,
    frame_from_h,
    frame_jets_from_values,
    make_frame_source,
    validate_frame,
)
from nilscroll.jets import Jet
from nilscroll.lorentz import Vec3L

TANH = hexpr.parse("tanh(s)")


def tanh_exact(s):
    """Closed-form (A, B, C) for h = tanh s, H = 1."""
    A = np.array([math.cosh(2 * s), 1.0, -math.sinh(2 * s)])
    B = 0.5 * np.array([math.cosh(2 * s), -1.0, -math.sinh(2 * s)])
    C = np.array([math.sinh(2 * s), 0.0, -math.cosh(2 * s)])
    return A, B, C


@pytest.mark.parametrize("s", [-1.0, -0.3, 0.0, 0.5, 1.2])
def test_tanh_frame_golden(s):
    f = frame_from_h(TANH, 1.0, s)
    Av, Bv, Cv = f.values()
    Ae, Be, Ce = tanh_exact(s)
    assert Av.as_array() == pytest.approx(Ae, abs=1e-12)
    assert Bv.as_array() == pytest.approx(Be, abs=1e-12)
    assert Cv.as_array() == pytest.approx(Ce, abs=1e-12)
    assert f.kappa2.value == pytest.approx(2.0, abs=1e-12)
    assert f.kappa1.value == 0.0


def test_validate_frame_residuals(any_source):
    name, source = any_source
    for s in np.linspace(-1.0, 1.0, 41):
        r = validate_frame(source(float(s)))
        non_fs = max(v for k, v in r.items() if not k.startswith("fs_"))
        fs = max(r["fs_A"], r["fs_B"], r["fs_C"])
        assert non_fs < 1e-9, f"{name} at s={s}: {r}"
        assert fs < 1e-8, f"{name} at s={s}: {r}"


def test_kappa2_matches_minus_schwarzian_over_H():
    for H in (1.0, -1.0, 0.5):
        src = make_frame_source(hexpr.parse("s + s^3"), H)
        for s in (-0.7, 0.2, 0.9):
            f = src(s)
            S = (6 - 36 * s * s) / (1 + 3 * s * s) ** 2
            assert f.kappa2.value == pytest.approx(-S / H, rel=1e-12, abs=1e-12)


def test_degenerate_generator():
    # h = s^3 has h'(0) = 0
    with pytest.raises(DegenerateGenerator):
        frame_from_h(hexpr.parse("s^3"), 1.0, 0.0)


def test_h_zero_rejected():
    with pytest.raises(ValueError):
        frame_from_h(TANH, 0.0, 0.1)


def test_frame_from_B_round_trip():
    f = frame_from_h(TANH, 1.0, 0.4)
    g = frame_from_B(f.B, 1.0)
    assert g.kappa2.value == pytest.approx(f.kappa2.value, abs=1e-10)
    for got, want in ((g.A, f.A), (g.C, f.C)):
        assert got.value().as_array() == pytest.approx(
            want.value().as_array(), abs=1e-9
        )
    assert validate_frame(g).worst < 1e-8


def test_frame_from_B_rejects_flipped_sign():
    # -B keeps <B,B> = 0 and <B',B'> = H^2 but flips the orientation
    f = frame_from_h(TANH, 1.0, 0.4)
    with pytest.raises(OrientationError):
        frame_from_B(-f.B, 1.0)


def test_frame_from_B_normalization_errors():
    s = Jet.variable(0.0, 4)
    one = Jet.constant(1.0, 4, 0.0)
    # spacelike, not lightlike
    with pytest.raises(NormalizationError):
        frame_from_B(Vec3L(Jet.constant(0.0, 4, 0.0), one, s), 1.0)
    # lightlike but wrongly scaled derivative
    f = frame_from_h(TANH, 1.0, 0.4)
    with pytest.raises(NormalizationError):
        frame_from_B(Vec3L(*(c * 2.0 for c in f.B)), 1.0)


def test_frame_jets_from_values_matches_closed_form():
    f = frame_from_h(TANH, 1.0, 0.3)
    Av, Bv, Cv = f.values()
    g = frame_jets_from_values(
        Av, Bv, Cv, hexpr.parse("0"), hexpr.parse("2"), 1.0, 0.3
    )
    for got, want in ((g.A, f.A), (g.B, f.B), (g.C, f.C)):
        for gc, wc in zip(got, want):
            for k in range(3):
                assert gc.derivative(k) == pytest.approx(
                    wc.derivative(k), rel=1e-9, abs=1e-9
                )


def test_flow_matches_closed_form():
    init = frame_from_h(TANH, 1.0, 0.0)
    frames = frame_flow_from_curvatures(
        hexpr.parse("0"), hexpr.parse("2"), 1.0, init, (0.0, 1.0), n_samples=21
    )
    worst = 0.0
    for f in frames:
        ex = frame_from_h(TANH, 1.0, f.s)
        for got, want in ((f.A, ex.A), (f.B, ex.B), (f.C, ex.C)):
            worst = max(
                worst,
                float(
                    np.max(np.abs(got.value().as_array() - want.value().as_array()))
                ),
            )
    assert worst < 1e-7


def test_flow_rejects_invalid_init():
    f = frame_from_h(TANH, 1.0, 0.0)
    bad = type(f)(
        s=f.s, A=f.A * 1.01, B=f.B, C=f.C, kappa1=f.kappa1, kappa2=f.kappa2, H=f.H
    )
    with pytest.raises(InitError):
        frame_flow_from_curvatures(
            hexpr.parse("0"), hexpr.parse("2"), 1.0, bad, (0.0, 1.0)
        )


def test_flow_from_interior_s_both_directions():
    # the flow marches both ways from s0 = 0.37 onto the samples of -1:1
    init = frame_from_h(TANH, 1.0, 0.37)
    frames = frame_flow_from_curvatures(
        hexpr.parse("0"), hexpr.parse("2"), 1.0, init, (-1.0, 1.0), n_samples=41
    )
    assert frames[0].s == -1.0 and frames[-1].s == 1.0
    for f in frames:
        ex = frame_from_h(TANH, 1.0, f.s)
        for got, want in ((f.A, ex.A), (f.B, ex.B), (f.C, ex.C)):
            assert got.value().as_array() == pytest.approx(
                want.value().as_array(), abs=1e-9
            )


def test_flow_unresolvable_kappa2_names_s():
    # kappa2 has a pole at 0.123, so no step count resolves the flow past it;
    # the first sample beyond the pole is named
    init = frame_from_h(TANH, 1.0, 0.0)
    with pytest.raises(NumericFailure, match=r"unresolved at s=0\.2 "):
        frame_flow_from_curvatures(
            hexpr.parse("0"), hexpr.parse("1/(s-0.123)"), 1.0, init, (0.0, 1.0),
            n_samples=11,
        )


def test_flow_oscillatory_kappa2_stays_on_group():
    init = frame_from_h(TANH, 1.0, 0.0)
    frames = frame_flow_from_curvatures(
        hexpr.parse("0"), hexpr.parse("100*sin(100*s)"), 1.0, init, (0.0, 1.0)
    )
    assert max(validate_frame(f).worst for f in frames) < 1e-9


def test_flow_preserves_invariants_variable_kappa2():
    init = frame_from_h(TANH, 1.0, 0.0)
    frames = frame_flow_from_curvatures(
        hexpr.parse("0"), hexpr.parse("sin(s)"), 1.0, init, (0.0, 2 * math.pi),
        n_samples=31,
    )
    for f in frames:
        r = validate_frame(f)
        non_fs = max(v for k, v in r.items() if not k.startswith("fs_"))
        assert non_fs < 1e-8
        assert f.kappa2.value == pytest.approx(math.sin(f.s), abs=1e-9)


def _within_ulps(a, b, n):
    a, b = np.asarray(a), np.asarray(b)
    return np.all(np.abs(a - b) <= n * np.spacing(np.maximum(np.abs(a), np.abs(b))))


MOBIUS2 = hexpr.mobius(hexpr.mobius(TANH, 1.3, 0.4, 0.2, 0.9), -0.7, 1.1, 0.3, 1.2)


@pytest.mark.parametrize(
    "ast", [TANH, hexpr.parse("s + s^3"), hexpr.parse("cot(exp(s)/2)"), MOBIUS2],
    ids=["tanh", "cubic", "cot", "mobius2"],
)
def test_batch_frame_matches_single_points(ast):
    grid = np.linspace(-1.0, 1.0, 256)
    batch = frame_from_h(ast, 0.8, grid)
    assert isinstance(batch.s, np.ndarray) and batch.kappa2.value.shape == (256,)
    for i in range(0, 256, 5):
        one = frame_from_h(ast, 0.8, float(grid[i]))
        assert one.s == batch[i].s == grid[i]
        for got, want in zip([*batch.A, *batch.B, *batch.C, batch.kappa2],
                             [*one.A, *one.B, *one.C, one.kappa2]):
            assert _within_ulps(got.taylor()[:, i], want.taylor()[:, 0], 4)


def test_batch_domain_error_names_first_s():
    grid = np.linspace(-1.0, 1.0, 256)
    with pytest.raises(DomainError) as err:
        finite_frames(make_frame_source(hexpr.parse("log(s)"), 1.0), grid)
    assert err.value.base_point == -1.0
    # the first s that fails on its own, though log fails earlier in the walk
    with pytest.raises(DomainError) as err:
        finite_frames(make_frame_source(hexpr.parse("log(s) + 1/(s - 0.3)"), 1.0),
                      np.array([0.3, -1.0]))
    assert (err.value.fn, err.value.base_point) == ("div", 0.3)


@pytest.mark.parametrize("text", [
    "log(s)", "sqrt(s)", "s^0.5", "s + s^1.5", "cot(s) + s", "s + 1/s", "1/(s - 0.5)", "s^3",
    "s^2", "sqrt(s^2)", "log(s^2)", "s + 0*log((s - 0.3)^2 - 0.01)", "s + log(s)^0", "tanh(s)"])
def test_batch_frame_is_nan_exactly_where_a_lone_point_raises(text):
    # 0 and 0.5 are nodes; a batched log at a negative base has a NaN value
    # but finite derivatives, so the whole frame must go NaN, not numpy's
    # part, and a zero power must keep the NaN of its base
    grid = np.linspace(-1.0, 1.0, 257)
    h = hexpr.parse(text)
    f = frame_from_h(h, 1.0, grid)
    coeffs = np.concatenate([j.taylor() for j in (*f.A, *f.B, *f.C, f.kappa2)])
    raises = []
    for x in grid.tolist():
        try:
            frame_from_h(h, 1.0, x)
        except (DomainError, DegenerateGenerator):
            raises.append(x)
    nan = np.isnan(coeffs).all(axis=0)
    assert grid[nan].tolist() == raises
    assert np.isfinite(coeffs[:, ~nan]).all()
    assert bool(raises) == (text != "tanh(s)")


def test_flow_frames_validate_as_one_batch():
    init = frame_from_h(TANH, 1.0, 0.0)
    frames = frame_flow_from_curvatures(
        hexpr.parse("0"), hexpr.parse("2 + sin(s)"), 1.0, init, (0.0, 1.0), n_samples=21
    )
    worst = validate_frame(frames).worst
    assert worst.shape == (21,)
    assert worst.tolist() == [validate_frame(f).worst for f in frames]
