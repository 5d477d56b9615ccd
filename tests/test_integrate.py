"""Piecewise-Chebyshev base curve against closed-form solutions."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from nilscroll import hexpr
from nilscroll.errors import NumericFailure, OutOfRange
from nilscroll.frames import make_frame_source
from nilscroll.integrate import (_CHEB_DEGREES, CurvePath, _chebint, _chebmul, _clenshaw, _dct,
                                 _lobatto, integrate_curve)

# Heisenberg area integral for tanh over [0, 1]:
# integral of sinh(2s)/2 - s*cosh(2s) ds = (cosh2 - 1)/2 - sinh2/2
J_TANH_01 = (math.cosh(2.0) - 1.0) / 2.0 - math.sinh(2.0) / 2.0


def gamma(path, s):
    return path.dense_eval(s)[0]


def samples(src, s0, s_range):
    """Ordered (s, gamma, J, gamma') tuples at the Chebyshev nodes where
    integrate_curve evaluated the frame source src."""
    A_nodes = {}

    def recording(s):
        f = src(s)
        A_nodes.update(zip(np.ravel(s).tolist(), f.A.value.T))
        return f

    path = integrate_curve(recording, s0, s_range)
    nodes = sorted(A_nodes)
    g, J = path.dense_eval(nodes)
    return [(s, gs, float(j), A_nodes[s]) for s, gs, j in zip(nodes, g.T, J)]


def source_of(A):
    """A frame source whose frames at an array of s carry only A = A(s) and
    B1 = 1 (integrate_curve reads B1's sign: h' keeps its sign here)."""
    def source(s):
        values = np.array([A(x) for x in s]).T
        return SimpleNamespace(A=SimpleNamespace(value=values),
                               B=[SimpleNamespace(value=np.ones(len(s)))])

    return source


def test_exponential_growth():
    # A = (e^s, 1, 0): gamma = (e^s - 1, s, 0), J' = gamma1 - s e^s
    path = integrate_curve(source_of(lambda s: (math.exp(s), 1.0, 0.0)), 0.0, (0.0, 2.0))
    for s in np.linspace(0.0, 2.0, 21):
        g, J = path.dense_eval(s)
        assert g[0] + 1.0 == pytest.approx(math.exp(s), rel=1e-9)
        assert g[1] == pytest.approx(s, abs=1e-12)
        assert g[2] == 0.0
        assert J == pytest.approx(2 * math.exp(s) - s - s * math.exp(s) - 2, abs=1e-9)


def test_harmonic_oscillator_both_directions():
    # A = (cos s, -sin s, 0) from the interior anchor s0 = 0 out to both ends:
    # gamma = (sin s, cos s - 1, 0), J' = cos s - 1
    path = integrate_curve(
        source_of(lambda s: (math.cos(s), -math.sin(s), 0.0)), 0.0, (-3.0, 3.0)
    )
    for s in np.linspace(-3.0, 3.0, 61):
        g, J = path.dense_eval(s)
        assert g[0] == pytest.approx(math.sin(s), abs=1e-9)
        assert g[1] == pytest.approx(math.cos(s) - 1.0, abs=1e-9)
        assert J == pytest.approx(math.sin(s) - s, abs=1e-9)


def test_zero_A_gives_the_zero_curve():
    # every coefficient is 0: the trim of negligible trailing rows keeps one
    path = integrate_curve(source_of(lambda s: (0.0, 0.0, 0.0)), 0.0, (-1.0, 1.0))
    g, J = path.dense_eval(np.linspace(-1.0, 1.0, 5))
    assert np.all(g == 0.0) and np.all(J == 0.0)


def test_dense_output_off_grid():
    src = make_frame_source(hexpr.parse("tanh(s)"), 1.0)
    path = integrate_curve(src, 0.0, (0.0, 1.0))
    # off the Chebyshev nodes
    for s in (0.123456, 0.654321, 0.999):
        g = gamma(path, s)
        assert g[0] == pytest.approx(math.sinh(2 * s) / 2, abs=1e-10)
        assert g[1] == pytest.approx(s, abs=1e-10)
        assert g[2] == pytest.approx((1 - math.cosh(2 * s)) / 2, abs=1e-10)


def test_curve_area_integral_golden():
    src = make_frame_source(hexpr.parse("tanh(s)"), 1.0)
    path = integrate_curve(src, 0.0, (0.0, 1.0))
    _, J = path.dense_eval(1.0)
    assert J == pytest.approx(J_TANH_01, abs=1e-9)
    _, J0 = path.dense_eval(0.0)
    assert J0 == 0.0


def test_curve_anchor_and_range():
    src = make_frame_source(hexpr.parse("s + s^3"), 1.0)
    path = integrate_curve(src, 0.25, (-1.0, 1.0))
    g = gamma(path, 0.25)
    assert abs(g[0]) < 1e-14 and abs(g[1]) < 1e-14 and abs(g[2]) < 1e-14
    assert path.s_min <= -1.0 + 1e-12
    assert path.s_max >= 1.0 - 1e-12
    with pytest.raises(OutOfRange):
        gamma(path, 1.5)
    with pytest.raises(ValueError):
        integrate_curve(src, 5.0, (-1.0, 1.0))


def test_gamma_prime_is_A():
    src = make_frame_source(hexpr.parse("cot(exp(s)/2)"), 1.0)
    path = integrate_curve(src, 0.0, (-1.0, 1.0))
    h = 1e-5
    for s in (-0.6, 0.1, 0.8):
        Av = src(s).A.value
        fd = (gamma(path, s + h) - gamma(path, s - h)) / (2 * h)
        assert fd == pytest.approx(Av, abs=1e-8)


def test_samples_property():
    src = make_frame_source(hexpr.parse("tanh(s)"), 1.0)
    rows = samples(src, 0.0, (0.0, 0.5))
    assert rows[0][0] == pytest.approx(0.0)
    assert rows[-1][0] == pytest.approx(0.5)
    svals = [r[0] for r in rows]
    assert svals == sorted(svals)


def test_stiff_curve_splits_panels():
    src = make_frame_source(hexpr.parse("s + 100000*s^3"), 1.0)
    path = integrate_curve(src, 0.0, (-1.0, 1.0))
    assert len(path.breaks) > 2
    h = 1e-5
    for s in (-0.7, -0.1, 0.05, 0.4, 0.9):
        Av = src(s).A.value
        fd = (gamma(path, s + h) - gamma(path, s - h)) / (2 * h)
        # |gamma| reaches 4e4, so rounding alone puts ~4e-6 into the quotient
        assert fd == pytest.approx(Av, abs=5e-5)


def test_curve_rejects_non_finite_A():
    src = make_frame_source(hexpr.parse("1e308*s"), 1.0)
    with pytest.raises(NumericFailure, match="not finite"):
        integrate_curve(src, 0.0, (-1.0, 1.0))


def test_curve_unresolved_panel_names_s():
    # h' = 2|s| vanishes at s = 0 without changing sign (a change of sign is
    # an input error, see test_h_prime_sign_change_is_one_input_error): A
    # has a pole at s = 0, which no grid node hits
    src = make_frame_source(hexpr.parse("s*sqrt(s^2)"), 1.0)
    with pytest.raises(NumericFailure, match=r"near s=-?\d"):
        integrate_curve(src, 0.5, (-1.0, 2.0))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def seeded_series(n, shape):
    """n coefficients (rows of the given shape) of both signs over 24 decades."""
    rng = np.random.default_rng(1000 * n + len(shape))
    return rng.standard_normal((n,) + shape) * 10.0 ** rng.uniform(-12, 12, (n,) + shape)


@pytest.mark.parametrize("shape", [(), (3,)])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 130])
def test_loop_free_chebint_is_numpys_bit_for_bit(n, shape):
    c = seeded_series(n, shape)
    k = np.linspace(-2.5, 7.0, 3) if shape else -2.5
    for const, scl in ((0.0, 1.0), (k, 0.3), (k, 1.7e-3)):
        got, ref = _chebint(c, const, scl), C.chebint(c, lbnd=-1, k=[const], scl=scl)
        assert np.array_equal(got, ref) and same_bits(got, ref)
    # a one-term zero series is numpy's special case: the constant alone
    zero = np.zeros((1,) + shape)
    assert same_bits(_chebint(zero, k, 0.3), C.chebint(zero, lbnd=-1, k=[k], scl=0.3))


@pytest.mark.parametrize("shape", [(), (3,), (4,)])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 130])
def test_scalar_clenshaw_is_chebval_bit_for_bit(n, shape):
    c = seeded_series(n, shape)
    for x in (-1.0, -0.37, 0.0, 1.0):
        assert same_bits(_clenshaw(c, x), C.chebval(x, c))
        # an array of one point, as for a series evaluated over an array of s
        assert same_bits(_clenshaw(c, x), C.chebval(np.array([x]), c)[..., 0])
    # an array x: numpy's bits, and each point's bits alone are its bits in the batch
    x = np.random.default_rng(n).uniform(-1.0, 1.0, 25)
    x[:2] = -1.0, 1.0
    batch = _clenshaw(c, x)
    assert same_bits(batch, C.chebval(x, c))
    for i, xi in enumerate(x.tolist()):
        assert same_bits(_clenshaw(c, np.array([xi]))[..., 0], batch[..., i])
        assert same_bits(_clenshaw(c, xi), batch[..., i])


@pytest.mark.parametrize("n", _CHEB_DEGREES)
def test_dct_is_the_fft_coefficients(n):
    # values at the Lobatto nodes of any size and sign: the DCT-I matrix gives
    # numpy's FFT coefficients to (n + 1) eps max|v|, column by column
    rng = np.random.default_rng(n)
    v = rng.standard_normal((n + 1, 3)) * 10.0 ** rng.uniform(-8, 8, 3)
    v[:, 2] = np.cos(3.0 * np.arccos(_lobatto(n)))  # T_3 exactly: one coefficient
    c = np.fft.rfft(np.concatenate([v, v[-2:0:-1]]), axis=0).real / n
    c[[0, n]] /= 2
    c[1::2] *= -1  # ascending nodes: x_j = -cos(pi j / n)
    got = _dct(n) @ v
    assert np.all(np.abs(got - c) <= (n + 1) * np.finfo(float).eps * np.abs(v).max(axis=0))
    assert abs(got[3, 2] - 1.0) < 1e-14 and np.abs(np.delete(got[:, 2], 3)).max() < 1e-14
    # made once per process and degree, and read only
    assert _dct(n) is _dct(n) and not _dct(n).flags.writeable
    with pytest.raises(ValueError):
        _dct(n)[0, 0] = 1.0


@pytest.mark.parametrize("m", [1, 2, 3, 17, 130])
@pytest.mark.parametrize("n", [1, 2, 5, 129])
def test_zseries_product_is_chebmul_bit_for_bit(n, m):
    a, b = seeded_series(n, ()), seeded_series(m, ())[::-1]
    assert same_bits(_chebmul(a, b), C.chebmul(a, b))
    assert same_bits(_chebmul(b, a), C.chebmul(b, a))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 130, 259])
def test_cumulative_sum_derivative_is_chebder(n):
    # c'_(k-1) = c'_(k+1) + 2k c_k summed in another order than numpy's loop:
    # within n^2 eps of the largest |k c_k| times the scale
    c = seeded_series(n, (4,))
    path = CurvePath(s0=0.0, breaks=np.array([-0.3, 1.2, 1.25]), coef=[c, c[::-1]],
                     origin=np.zeros(4))
    d = path.deriv()
    assert d.origin.tolist() == [0.0] * 4 and len(d.coef) == 2
    for got, c, scl in zip(d.coef, path.coef, 2.0 / np.diff(path.breaks)):
        ref = C.chebder(c, scl=scl)
        bound = n * n * np.finfo(float).eps * scl * np.max(np.arange(n)[:, None] * np.abs(c), axis=0)
        assert got.shape == ref.shape and np.all(np.abs(got - ref) <= bound)


def test_lobatto_degrees_are_strides_of_the_top_degree():
    top = _CHEB_DEGREES[-1]
    for a, b in ((-1.0, 1.0), (-0.7, 0.3)):
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * _lobatto(top)
        for n in _CHEB_DEGREES:
            assert same_bits(_lobatto(top)[:: top // n], _lobatto(n))
            assert same_bits(nodes[:: top // n], 0.5 * (a + b) + 0.5 * (b - a) * _lobatto(n))
