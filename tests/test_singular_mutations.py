"""A mutation matrix for the singular scan: what scan_singularities reports
when one piece of the frame or of the classifier is off by a relative 1e-5.

Each mutation replaces a module attribute, as tests/test_verify_mutations.py
does, so the code under test runs unchanged around it.  A cell records the
scan's answer on one input: RAISES (the ClassifierInconsistency of a
reported point), the number of "WARN classify" lines, MOVED (a reported
point's kind, or its s by more than SAME_S, or a grid kind changed) or None
(the same points, kinds and warnings).  The classifier's one check of the
frame is the comparison of c_L''s closed form with its jet route; every
frame mutation that the scan's points or kinds read raises or warns there.
"""

import dataclasses
import math

import pytest

from nilscroll import frames, hexpr, singular
from nilscroll.errors import ClassifierInconsistency
from nilscroll.frames import make_frame_source
from nilscroll.jets import Jet
from nilscroll.singular import scan_singularities

DELTA = 1e-5
INPUTS = {
    "tanh + 0.5": ("tanh(s) + 0.5", 1.0, (-1.5, 1.5)),
    "tanh": ("tanh(s)", 1.0, (-1.3, 1.3)),
    "cubic": ("s + s^3", 0.7, (-1.0, 1.0)),
    "cot": ("cot(exp(s)/2)", 0.7, (-0.8, 0.8)),
}
# tanh's swallowtails, s = (1/4) log(5 -+ 2 sqrt 6)
TANH_SWALLOWTAILS = [0.25 * math.log(5.0 - 2.0 * math.sqrt(6.0)),
                     0.25 * math.log(5.0 + 2.0 * math.sqrt(6.0))]
# a point that moves less than this has only taken another rounding path
SAME_S = 1e-12
RAISES, MOVED = "raises", "moved"


def _frame(mutate):
    """A patch of frames.frame_from_h that applies mutate(Y, k2) to copies of
    the Taylor coefficients of Y and kappa2; Y[k, v, i] is coefficient k of
    component i of vector v = A, B, C."""
    def patch(monkeypatch):
        original = frames.frame_from_h

        def mutated(*args, **kwargs):
            f = original(*args, **kwargs)
            Y, k2 = f.Y.taylor().copy(), f.kappa2.taylor().copy()
            mutate(Y, k2)
            return dataclasses.replace(f, Y=Jet(Y, f.s), kappa2=Jet(k2, f.s))

        monkeypatch.setattr(frames, "frame_from_h", mutated)
    return patch


def _add(dst, src):
    """Y[dst] += DELTA * Y[src]."""
    def mutate(Y, k2):
        Y[dst] += DELTA * Y[src]
    return _frame(mutate)


def _scale(index, of_kappa2=False):
    """Y[index], or kappa2's coefficients [index], times 1 + DELTA."""
    def mutate(Y, k2):
        (k2 if of_kappa2 else Y)[index] *= 1.0 + DELTA
    return _frame(mutate)


def _cL2(monkeypatch):
    original = singular._cL_points

    def mutated(frame):
        cL1, cL2, unbounded, gap = original(frame)
        return cL1, cL2 * (1.0 + DELTA), unbounded, gap

    monkeypatch.setattr(singular, "_cL_points", mutated)


def _jet_route_t(monkeypatch):
    # t(s) = -C3/(H B3) as a jet, which the jet route to c_L' differentiates
    original = singular._quotient
    monkeypatch.setattr(singular, "_quotient", lambda *args: original(*args) * (1.0 + DELTA))


def _r1(monkeypatch):
    # r1 = (kappa2/H) B3^2 - 1 with its first term off: the roots move
    original = singular.notce_residuals

    def mutated(frame):
        r1, r2 = original(frame)
        return (r1 + 1.0) * (1.0 + DELTA) - 1.0, r2

    monkeypatch.setattr(singular, "notce_residuals", mutated)


ALL = slice(None)
MUTATIONS = {
    "A += dC": _add((ALL, 0), (ALL, 2)),
    "A' += dB": _add((1, 0), (0, 1)),
    "C (1+d)": _scale((ALL, 2)),
    "B (1+d)": _scale((ALL, 1)),
    "C' += dA": _add((1, 2), (0, 0)),
    "B3 (1+d)": _scale((ALL, 1, 2)),
    "A3 (1+d)": _scale((ALL, 0, 2)),
    "C3 (1+d)": _scale((ALL, 2, 2)),
    "B' (1+d)": _scale((1, 1)),
    "kappa2 (1+d)": _scale(ALL, of_kappa2=True),
    "kappa2' (1+d)": _scale(1, of_kappa2=True),
    "jet route t (1+d)": _jet_route_t,
    "c_L'' (1+d)": _cL2,
    "r1's kappa2 B3^2/H (1+d)": _r1,
}

# the scan's answer under each mutation on tanh + 0.5, tanh, cubic and cot,
# in that order; a single value is the same on all four
MATRIX = {
    "A += dC": RAISES,
    "C (1+d)": RAISES,
    "B (1+d)": RAISES,
    "C' += dA": RAISES,
    "B3 (1+d)": RAISES,
    "A3 (1+d)": RAISES,
    "C3 (1+d)": RAISES,
    "B' (1+d)": RAISES,
    "jet route t (1+d)": RAISES,
    # kappa2 enters the closed form alone; at the cubic's and cot's reported
    # points, cross caps, it is 0
    "kappa2 (1+d)": (RAISES, RAISES, 254, 256),
    # these reach no point, kind or warning: A' and c_L'' only c_L'' in the
    # points' diagnostics, kappa2' only those diagnostics and Halley's steps
    "A' += dB": None,
    "kappa2' (1+d)": None,
    "c_L'' (1+d)": None,
    # the swallowtails move by about 2e-6; test_scan_tanh_swallowtail sees it
    "r1's kappa2 B3^2/H (1+d)": (MOVED, MOVED, None, None),
}


def scan(name, key):
    """(points as (kind, s), grid kinds, warnings) of the scan of input key
    under mutation name (None: unmutated), or RAISES."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if name is not None:
            MUTATIONS[name](monkeypatch)
        h, H, s_range = INPUTS[key]
        try:
            report = scan_singularities(make_frame_source(hexpr.parse(h), H), s_range)
        except ClassifierInconsistency:
            return RAISES
    return [(p.kind.value, p.s) for p in report.points], report.curve.kind.tolist(), report.warnings


def outcome(name, key):
    got, (points, kinds, warnings) = scan(name, key), scan(None, key)
    if got == RAISES:
        return RAISES
    got_points, got_kinds, got_warnings = got
    if got_kinds != kinds or len(got_points) != len(points) or any(
            k != kw or abs(s - sw) > SAME_S for (k, s), (kw, sw) in zip(got_points, points)):
        return MOVED
    classify = [w for w in got_warnings if w.startswith("WARN classify")]
    assert [w for w in got_warnings if w not in classify] == warnings
    return len(classify) or None


def expected(name, key):
    row = MATRIX[name]
    return row[list(INPUTS).index(key)] if isinstance(row, tuple) else row


@pytest.mark.parametrize("key", INPUTS)
def test_unmutated_inputs_scan_cleanly(key):
    points, _, warnings = scan(None, key)
    assert points and warnings == []


@pytest.mark.parametrize("key", INPUTS)
@pytest.mark.parametrize("name", MUTATIONS)
def test_a_mutation_gives_the_answer_of_its_row(name, key):
    assert outcome(name, key) == expected(name, key)


def test_the_matrix_covers_every_mutation():
    assert MATRIX.keys() == MUTATIONS.keys()


def test_moved_swallowtails_miss_the_exact_ones():
    # the one mutation that moves points moves them past the scan test's 1e-8
    points, _, _ = scan("r1's kappa2 B3^2/H (1+d)", "tanh")
    assert [k for k, _ in points] == ["swallowtail"] * 2
    assert all(1e-8 < abs(s - exact) < 1e-5 for (_, s), exact in zip(points, TANH_SWALLOWTAILS))
