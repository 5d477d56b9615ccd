"""Null frames: closed-form construction, validation, prescribed-B and
prescribed-curvature constructors."""

import math

import numpy as np
import pytest

from jet_route_oracles import NormalizationError, OrientationError, frame_from_B, stack
from jet_route_oracles import frame_from_h as oracle_frame_from_h
from nilscroll import frames as frames_module
from nilscroll import hexpr
from nilscroll.errors import DegenerateGenerator, DomainError, InitError, NumericFailure
from nilscroll.frames import (
    finite_frames,
    frame_flow_from_curvatures,
    frame_from_h,
    frame_jets_from_values,
    make_frame_source,
    validate_frame,
)
from nilscroll.jets import Jet
from nilscroll.lorentz import mdot

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
    Av, Bv, Cv = f.Y.value
    Ae, Be, Ce = tanh_exact(s)
    assert Av == pytest.approx(Ae, abs=1e-12)
    assert Bv == pytest.approx(Be, abs=1e-12)
    assert Cv == pytest.approx(Ce, abs=1e-12)
    # d/ds and d^2/ds^2 of tanh_exact
    ch, sh = math.cosh(2 * s), math.sinh(2 * s)
    d1 = [[2 * sh, 0.0, -2 * ch], [sh, 0.0, -ch], [2 * ch, 0.0, -2 * sh]]
    d2 = [[4 * ch, 0.0, -4 * sh], [2 * ch, 0.0, -2 * sh], [4 * sh, 0.0, -4 * ch]]
    assert f.Y.derivative(1) == pytest.approx(np.array(d1), abs=1e-12)
    assert f.Y.derivative(2) == pytest.approx(np.array(d2), abs=1e-12)
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
    # B of order 4 gives a frame of order 2, enough for validate_frame's B''
    f = oracle_frame_from_h(TANH, 1.0, 0.4, 7)
    g = frame_from_B(f.B, 1.0)
    assert g.kappa2.value == pytest.approx(f.kappa2.value, abs=1e-10)
    for got, want in ((g.A, f.A), (g.C, f.C)):
        assert got.value == pytest.approx(want.value, abs=1e-9)
    assert validate_frame(g).worst < 1e-8


def test_frame_from_B_rejects_flipped_sign():
    # -B keeps <B,B> = 0 and <B',B'> = H^2 but flips the orientation
    f = oracle_frame_from_h(TANH, 1.0, 0.4, 7)
    with pytest.raises(OrientationError):
        frame_from_B(-f.B, 1.0)


def test_frame_from_B_normalization_errors():
    s = Jet.variable(0.0, 4)
    one = Jet.constant(1.0, 4, 0.0)
    # spacelike, not lightlike
    with pytest.raises(NormalizationError):
        frame_from_B(stack([Jet.constant(0.0, 4, 0.0), one, s]), 1.0)
    # lightlike but wrongly scaled derivative
    f = oracle_frame_from_h(TANH, 1.0, 0.4, 7)
    with pytest.raises(NormalizationError):
        frame_from_B(f.B * 2.0, 1.0)
    # B of order 3 would give a frame of order 1, without B''
    with pytest.raises(ValueError, match="order >= 4"):
        frame_from_B(oracle_frame_from_h(TANH, 1.0, 0.4, 6).B, 1.0)


def test_frame_jets_from_values_matches_closed_form():
    f = frame_from_h(TANH, 1.0, 0.3)
    Av, Bv, Cv = f.Y.value
    g = frame_jets_from_values(
        Av, Bv, Cv, hexpr.parse("0"), hexpr.parse("2"), 1.0, 0.3
    )
    for k in range(3):
        assert g.Y.derivative(k) == pytest.approx(f.Y.derivative(k), rel=1e-9, abs=1e-9)



def conv_loop_jets(Y0, t1, t2, H, with_HC=True):
    """The order-by-order loop frame_jets_from_values ran before its Frenet
    matrix contraction, kept as an oracle: Y[k, v, i, n] from Y0[v, i, n] and
    the curvature coefficients t1, t2 (order first, points last).  with_HC
    False drops B' = ... + H C's term (a negative control)."""
    Y = np.zeros((len(t1), *Y0.shape))
    Y[0] = Y0

    def conv(coeffs, v, k):
        return sum(coeffs[j] * Y[k - j, v] for j in range(k + 1))

    for k in range(len(t1) - 1):
        da = conv(t1, 0, k) + conv(t2, 2, k)
        db = -conv(t1, 1, k) + H * Y[k, 2] * with_HC
        dc = H * Y[k, 0] + conv(t2, 1, k)
        Y[k + 1] = np.array([da, db, dc]) / (k + 1)
    return Y


FLOW_KAPPA1 = "0.3 - 0.2*s"


def contraction_and_oracle(kappa2, H):
    """frame_jets_from_values' Y at 101 points, with the curvature jets it used,
    and the per-order rounding bound fixed before the first comparison."""
    s = np.linspace(-1.0, 1.5, 101)
    Y0 = np.sin(np.arange(9.0 * len(s)) * 0.7).reshape(3, 3, -1) * 2.0
    f = frame_jets_from_values(*Y0, hexpr.parse(FLOW_KAPPA1), hexpr.parse(kappa2), H, s)
    t1, t2 = f.kappa1.taylor(), f.kappa2.taylor()
    # the majorant recursion on |F| and |Y0|: order k sums 3k products of lower
    # orders and divides by k, adding at most (3k + 1) eps of it to the error
    # carried up, so two evaluations differ by at most k (3k + 5) eps times it
    F = np.abs(frames_module._frenet(t1, t2, H))
    M = [np.abs(Y0)]
    for k in range(len(t1) - 1):
        M.append(sum((F[k - j][:, :, None] * M[j]).sum(axis=1) for j in range(k + 1)) / (k + 1))
    bound = [k * (3 * k + 5) * np.finfo(float).eps * m for k, m in enumerate(M)]
    return f, Y0, t1, t2, bound


@pytest.mark.parametrize("H", [0.5, 2.5])
@pytest.mark.parametrize("kappa2", ["1.5", "0.5 - 0.8*s", "sin(s)"])
def test_frame_jets_contraction_matches_loop_oracle(kappa2, H):
    f, Y0, t1, t2, bound = contraction_and_oracle(kappa2, H)
    Y, want = f.Y.taylor(), conv_loop_jets(Y0, t1, t2, H)
    assert np.array_equal(Y[:2], want[:2])
    for k in range(len(Y)):
        assert (np.abs(Y[k] - want[k]) <= bound[k]).all(), k


def test_frame_jets_oracle_without_HC_fails_the_bound():
    f, Y0, t1, t2, bound = contraction_and_oracle("sin(s)", 2.5)
    off = conv_loop_jets(Y0, t1, t2, 2.5, with_HC=False)
    assert not all((np.abs(got - want) <= b).all()
                   for got, want, b in zip(f.Y.taylor(), off, bound))


def test_frame_jets_same_bits_at_a_float_and_in_batches():
    s = np.linspace(-0.7, 1.3, 101)
    Y0 = np.cos(np.arange(9.0 * len(s)) * 1.3).reshape(3, 3, -1)
    k1, k2 = hexpr.parse(FLOW_KAPPA1), hexpr.parse("sin(s)")

    def jets(idx, ss):
        return frame_jets_from_values(*Y0[..., idx], k1, k2, 0.9, ss).Y.taylor()

    whole = jets(slice(None), s)
    for i in (0, 37, 100):
        assert np.array_equal(jets(i, float(s[i]))[..., 0], whole[..., i])
        assert np.array_equal(jets([i], s[[i]]), whole[..., [i]])
    for i in range(0, 100, 2):
        assert np.array_equal(jets(slice(i, i + 2), s[i:i + 2]), whole[..., i:i + 2])


@pytest.mark.parametrize("s", [0.4, np.linspace(-1.0, 1.0, 41)])
def test_b_sqnorm_from_values_pins_the_jet_product(s):
    for f in (frame_from_h(TANH, 1.3, s),
              frame_jets_from_values(*frame_from_h(TANH, 1.3, s).Y.value, hexpr.parse("0.2"),
                                     hexpr.parse("1 + s"), 1.3, s)):
        Bp = f.B.deriv()
        want = np.abs(mdot(Bp, Bp).value - f.H * f.H)
        assert np.array_equal(validate_frame(f)["b_sqnorm"], want)


def test_flow_matches_closed_form():
    init = frame_from_h(TANH, 1.0, 0.0)
    frames = frame_flow_from_curvatures(
        hexpr.parse("0"), hexpr.parse("2"), 1.0, init, (0.0, 1.0), n_samples=21
    )
    worst = 0.0
    for f in frames:
        ex = frame_from_h(TANH, 1.0, f.s)
        for got, want in ((f.A, ex.A), (f.B, ex.B), (f.C, ex.C)):
            worst = max(worst, float(np.max(np.abs(got.value - want.value))))
    assert worst < 1e-7


def test_flow_rejects_invalid_init():
    f = frame_from_h(TANH, 1.0, 0.0)
    bad = type(f)(s=f.s, Y=stack([f.A * 1.01, f.B, f.C]), kappa1=f.kappa1,
                  kappa2=f.kappa2, H=f.H)
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
            assert got.value == pytest.approx(want.value, abs=1e-9)


def sequential_magnus_flow(K_at, s0, Y0, grid, m):
    """frames._magnus_flow with one matrix product per Magnus step, in order:
    the reference for the prefix-product march."""
    Y = np.empty((len(grid), 3, 3))
    Y[grid == s0] = Y0
    for side, way in ((grid > s0, 1), (grid < s0, -1)):
        stops = np.concatenate([[s0], grid[side][::way]])
        t = np.interp(np.arange((len(stops) - 1) * m + 1) / m, np.arange(len(stops)), stops)
        h = np.diff(t)[:, None, None]
        K = K_at(np.ravel(t[:-1, None] + np.outer(h[:, 0, 0], frames_module._GAUSS)))
        K1, K2 = K[0::2], K[1::2]
        E = frames_module._expm_so21(
            0.5 * h * (K1 + K2) + (math.sqrt(3.0) / 12.0) * h * h * (K1 @ K2 - K2 @ K1))
        ys, y = [], Y0
        for k, e in enumerate(E, start=1):
            y = y @ e
            if k % m == 0:  # a sample
                ys.append(y)
        Y[side] = np.reshape(ys, (-1, 3, 3))[::way]
    return Y


def K_linear(s):
    """K(s) for kappa1 = 0.3 sin s, kappa2 = 1 + 0.5 s, H = 0.8."""
    K = np.zeros((len(s), 3, 3))
    k1, k2 = 0.3 * np.sin(s), 1.0 + 0.5 * s
    K[:, 0, 0], K[:, 1, 1], K[:, 1, 2], K[:, 2, 0] = k1, -k1, k2, k2
    K[:, 0, 2] = K[:, 2, 1] = 0.8
    return K


@pytest.mark.parametrize("n", [1, 2, 3, 101])
@pytest.mark.parametrize("where", ["low", "high", "interior"])
@pytest.mark.parametrize("m", [1, 8])
def test_magnus_prefix_products_match_the_sequential_march(n, where, m):
    grid = np.linspace(0.0, 1.2, n)
    s0 = {"low": 0.0, "high": 1.2, "interior": 0.4137}[where]  # 0.4137 is on no grid
    Y0 = np.array([[1.0, 0.5, 0.0], [1.0, -0.5, 0.0], [0.0, 0.0, -1.0]])
    got = frames_module._magnus_flow(K_linear, s0, Y0, grid, m)
    want = sequential_magnus_flow(K_linear, s0, Y0, grid, m)
    assert np.isfinite(want[grid != s0]).all()
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * np.max(np.abs(want), initial=1.0)


@pytest.mark.parametrize("samples", [1, 2])
@pytest.mark.parametrize("s0", [0.0, 0.37, 1.0])
def test_flow_with_one_or_two_samples(samples, s0):
    init = frame_from_h(TANH, 1.0, s0)
    frames = frame_flow_from_curvatures(hexpr.parse("0"), hexpr.parse("2"), 1.0, init,
                                        (0.0, 1.0), n_samples=samples)
    assert frames.s.tolist() == np.linspace(0.0, 1.0, samples).tolist()
    exact = frame_from_h(TANH, 1.0, frames.s)
    assert np.max(np.abs(frames.Y.value - exact.Y.value)) < 1e-9


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


MOBIUS2 = hexpr.mobius(hexpr.mobius(TANH, 1.3, 0.4, 0.2, 0.9), -0.7, 1.1, 0.3, 1.2)


@pytest.mark.parametrize(
    "ast", [TANH, hexpr.parse("s + s^3"), hexpr.parse("cot(exp(s)/2)"), MOBIUS2],
    ids=["tanh", "cubic", "cot", "mobius2"],
)
def test_batch_frame_matches_single_points(ast):
    grid = np.linspace(-1.0, 1.0, 256)
    batch = frame_from_h(ast, 0.8, grid)
    assert isinstance(batch.s, np.ndarray) and batch.kappa2.value.shape == (256,)
    Y = batch.Y.taylor()
    assert Y.shape == (3, 3, 3, 256)
    for v, vec in enumerate((batch.A, batch.B, batch.C)):  # views of Y
        assert np.shares_memory(vec.taylor(), Y) and np.array_equal(vec.taylor(), Y[:, v])
    for i in range(0, 256, 5):
        one, got = frame_from_h(ast, 0.8, float(grid[i])), batch.take(i)
        assert one.s == batch[i].s == got.s == grid[i]
        for a, b in ((got.Y, one.Y), (got.kappa2, one.kappa2)):
            assert np.array_equal(a.taylor(), b.taylor())


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
