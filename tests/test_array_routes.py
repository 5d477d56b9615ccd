"""The frame, the Schwarzian and c_L' on coefficient arrays keep the bits
of the Jet-operator routes in jet_route_oracles."""

import numpy as np
import pytest

import jet_route_oracles as oracle
from nilscroll import frames, hexpr, jets, singular
from nilscroll.lorentz import LorentzTransform
from nilscroll.singular import transform_frame

GENERATORS = ["tanh(s)", "s + s^3", "cot(exp(s)/2)", "s + 100000*s^3", "tan(s)",
              "log(s)",  # NaN on the negative half of -1:1
              "s^2+s",  # h' = 0 at s = -0.5, a point of every s below
              "1e200*s"]  # overflow
ORDERS = range(3, 8)
# 257 points of -1:1 hold -0.5 and 0; the floats hit both too
POINTS = [np.linspace(-1.0, 1.0, 257), -1.0, -0.5, 0.0, 0.3, 1.0]
POINT_IDS = ["array", "-1", "-0.5", "0", "0.3", "1"]


class Raised(tuple):
    """The type and message of an error."""


def outcome(fn, *args):
    """fn(*args), or the Raised type and message of the error it raises."""
    try:
        return fn(*args)
    except Exception as err:  # the error itself is compared
        return Raised((type(err), str(err)))


def same(a, b):
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def assert_same_frames(old, new):
    if isinstance(old, Raised):  # both raise the same error
        assert new == old
        return
    for name in ("Y", "kappa1", "kappa2"):
        assert same(getattr(old, name).taylor(), getattr(new, name).taylor()), name
    assert np.array_equal(old.s, new.s)


def assert_same_cL(old_frame, new_frame):
    old_frame, new_frame = (f if f.kappa2.batched else f.take([0])
                            for f in (old_frame, new_frame))
    new = outcome(singular._cL_points, new_frame)
    if new_frame.Y.order < 2:  # no c_L'' (the Jet route raised at a bounded point)
        assert isinstance(new, Raised)
        return
    old = outcome(oracle.cL_points, old_frame)
    for a, b, name in zip(old, new, ("cL1", "cL2", "unbounded", "gap")):
        assert same(np.asarray(a), np.asarray(b)), name


@pytest.mark.parametrize("s", POINTS, ids=POINT_IDS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("h", GENERATORS)
def test_frame_and_cL_keep_their_bits(monkeypatch, h, order, s):
    ast = hexpr.parse(h)
    # frames.frame_from_h evaluates h's jets to the module's DEFAULT_ORDER
    monkeypatch.setattr(frames, "DEFAULT_ORDER", order)
    for H in (1.0, -0.7):
        old = outcome(oracle.frame_from_h, ast, H, s, order)
        new = outcome(frames.frame_from_h, ast, H, s)
        assert_same_frames(old, new)
        if not isinstance(old, Raised):
            assert_same_cL(old, new)


@pytest.mark.parametrize("s", POINTS, ids=POINT_IDS)
@pytest.mark.parametrize("order", range(0, 8))
@pytest.mark.parametrize("h", GENERATORS)
def test_schwarzian_keeps_its_bits(h, order, s):
    jet = outcome(hexpr.eval_jet, hexpr.parse(h), s, order)
    if isinstance(jet, Raised):
        return
    old, new = outcome(oracle.schwarzian, jet), outcome(jets.schwarzian, jet)
    if isinstance(old, Raised):
        assert new == old
    else:
        assert same(old.taylor(), new.taylor()) and old.base_point is new.base_point


@pytest.mark.parametrize("s", [np.linspace(-1.0, 1.0, 257), 0.3], ids=["array", "float"])
def test_a_square_of_H_that_underflows_raises_as_before(s):
    ast = hexpr.parse("tanh(s)")
    old = outcome(oracle.frame_from_h, ast, 1e-170, s)
    assert old[0].__name__ == "DomainError"
    assert outcome(frames.frame_from_h, ast, 1e-170, s) == old


@pytest.mark.parametrize("h", ["tanh(s)", "s + s^3", "cot(exp(s)/2)"])
def test_cL_of_transformed_frames_keeps_its_bits(h):
    f = frames.frame_from_h(hexpr.parse(h), 0.8, np.linspace(-1.0, 1.0, 50))
    g = transform_frame(LorentzTransform.from_params(phi=0.3, chi=-0.6, psi=1.1), f)
    assert_same_cL(g, g)
