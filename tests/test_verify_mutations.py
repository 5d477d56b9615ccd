"""A mutation matrix for the invariant suite: which checks fail when one
piece of the computation is off by a relative 1e-5.

Each mutation replaces a module or class attribute, as
tests/test_frame_budget.py does, so the code under test runs unchanged
around it.  The matrix records, for each mutation, the checks that fail on
each input; a check that fails only where others fail too restates them.
"""

import dataclasses

import pytest

from nilscroll import frames, surface, verify
from nilscroll.integrate import CurvePath
from nilscroll.jets import Jet
from nilscroll.surface import ScrollSurface
from nilscroll.verify import run_verify

DELTA = 1e-5
INPUTS = {
    "tanh": ("tanh(s)", 1.0, (-1.2, 1.2)),
    "cubic": ("s + s^3", 0.7, (-1.0, 1.0)),
    "cot": ("cot(exp(s)/2)", 0.7, (-0.8, 0.8)),
}


def _frame(dst=None, src=None, kappa2=1.0):
    """A patch of frames.frame_from_h that adds DELTA times the Taylor rows
    Y[src] to Y[dst] and scales kappa2; Y[k, v] is coefficient k of A, B, C
    for v = 0, 1, 2, so Y[1, v] is the derivative of vector v."""
    def patch(monkeypatch):
        original = frames.frame_from_h

        def mutated(*args, **kwargs):
            f = original(*args, **kwargs)
            Y = f.Y.taylor().copy()
            if dst is not None:
                Y[dst] += DELTA * Y[src]
            return dataclasses.replace(f, Y=Jet(Y, f.s), kappa2=f.kappa2 * kappa2)

        monkeypatch.setattr(frames, "frame_from_h", mutated)
    return patch


def _nil3_term(term):
    """A patch of surface._nil3 that adds DELTA times term to the third coordinate."""
    def patch(monkeypatch):
        original = surface._nil3

        def mutated(gamma, J, B, t, H):
            x, y, z = original(gamma, J, B, t, H)
            return x, y, z + term(gamma, J, B, t, H) * DELTA

        monkeypatch.setattr(surface, "_nil3", mutated)
    return patch


def _singular_t(monkeypatch):
    original = verify.classify_point

    def mutated(frame):
        table = original(frame)
        return dataclasses.replace(table, t=table.t * (1.0 + DELTA))

    monkeypatch.setattr(verify, "classify_point", mutated)


def _closed_form_II(monkeypatch):
    original = ScrollSurface.fundamental_forms

    def mutated(self, s, t):
        I, II = original(self, s, t)
        II = II.copy()
        II[..., 0, 0] *= 1.0 + DELTA
        return I, II

    monkeypatch.setattr(ScrollSurface, "fundamental_forms", mutated)


def _gauss_map_tHB(monkeypatch):
    # N_L = -C - t*H*B: scaling t scales its tHB term alone
    original = surface._gauss_map
    monkeypatch.setattr(surface, "_gauss_map", lambda f, t: original(f, t * (1.0 + DELTA)))


def _gauss_map_sign(monkeypatch):
    # -N_L: II flips, and Box N_L = -2 H^2 N_L becomes the identity with +
    original = surface._gauss_map
    monkeypatch.setattr(surface, "_gauss_map", lambda f, t: -original(f, t))


def _dense_gamma(monkeypatch):
    original = CurvePath.dense_eval

    def mutated(self, s):
        gamma, J = original(self, s)
        return gamma * (1.0 + DELTA), J

    monkeypatch.setattr(CurvePath, "dense_eval", mutated)


ALL = slice(None)
MUTATIONS = {
    "A += dC": _frame((ALL, 0), (ALL, 2)),
    "A' += dB": _frame((1, 0), (0, 1)),
    "C (1+d)": _frame((ALL, 2), (ALL, 2)),
    "B (1+d)": _frame((ALL, 1), (ALL, 1)),
    "kappa2 (1+d)": _frame(kappa2=1.0 + DELTA),
    "C' += dA": _frame((1, 2), (0, 0)),
    "t(s) (1+d)": _singular_t,
    "Nil3 HJ": _nil3_term(lambda gamma, J, B, t, H: J * H),
    "Nil3 bracket": _nil3_term(
        lambda gamma, J, B, t, H: (gamma[0] * B[1] - gamma[1] * B[0]) * (t * H)),
    "II_ss (1+d)": _closed_form_II,
    "N_L tHB (1+d)": _gauss_map_tHB,
    "N_L sign": _gauss_map_sign,
    "gamma (1+d)": _dense_gamma,
}


FI, FS, WC, FF, BC, BOX, RANK = (
    "frame_invariants", "frenet_serret", "weierstrass_curvature", "fundamental_forms",
    "base_curve", "box_eigenvalue", "singular_duality_rank")

# the checks each mutation fails on tanh, cubic and cot, in that order; a
# single set is the same on all three.  frenet_serret, fundamental_forms,
# base_curve and singular_duality_rank each fail a mutation that no other
# check fails; frame_invariants, weierstrass_curvature and box_eigenvalue
# fail none of their own
MATRIX = {
    "A += dC": {FI, FS, FF, RANK},
    "A' += dB": {FS},
    "C (1+d)": ({BOX, FI, FS, FF, RANK}, {FI, FS, FF, RANK}, {FI, FS, FF, RANK}),
    "B (1+d)": ({BOX, FI, FS, FF, WC}, {FI, FS, FF, WC}, {FI, FS, FF, WC}),
    "kappa2 (1+d)": {FS, FF, WC},
    "C' += dA": {FS},
    "t(s) (1+d)": {RANK},
    # on cot, DELTA*H*J moves sigma_min by less than its 1e-6 tolerance
    "Nil3 HJ": ({RANK}, {RANK}, set()),
    "Nil3 bracket": {RANK},
    "II_ss (1+d)": {FF},
    "N_L tHB (1+d)": ({BOX, FF}, {FF}, {FF}),
    "N_L sign": {BOX, FF},
    "gamma (1+d)": {BC},
}


def failed(name, key):
    """The checks that fail on input key under mutation name (None: unmutated)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if name is not None:
            MUTATIONS[name](monkeypatch)
        report = run_verify(*INPUTS[key])
    assert set(report["checks"]) == {FI, FS, WC, FF, BC, BOX, RANK}
    return {k for k, c in report["checks"].items() if not c["pass"]}


def expected(name, key):
    row = MATRIX[name]
    return row if isinstance(row, set) else row[list(INPUTS).index(key)]


@pytest.mark.parametrize("key", INPUTS)
def test_unmutated_inputs_pass_every_check(key):
    assert failed(None, key) == set()


@pytest.mark.parametrize("key", INPUTS)
@pytest.mark.parametrize("name", MUTATIONS)
def test_a_mutation_fails_the_checks_of_its_row(name, key):
    assert failed(name, key) == expected(name, key)


def test_every_mutation_fails_a_check():
    assert MATRIX.keys() == MUTATIONS.keys()
    for name in MATRIX:
        assert any(expected(name, key) for key in INPUTS), name
