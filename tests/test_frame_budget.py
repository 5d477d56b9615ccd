"""Frame evaluations per call: each command evaluates each s about once."""

from collections import Counter

import numpy as np
import pytest

from nilscroll import frames, hexpr
from nilscroll.verify import run_verify
from nilscroll.lorentz import LorentzTransform
from nilscroll.singular import invariance_check, scan_singularities


@pytest.fixture
def evals(monkeypatch):
    """Frame evaluations by s, counted by replacing frames.frame_from_h; an
    array of s counts each of its points, as bench/tracer.py does."""
    counts = Counter()
    original = frames.frame_from_h

    def counted(h_ast, H, s, *args, **kwargs):
        counts.update(np.ravel(s).tolist())
        return original(h_ast, H, s, *args, **kwargs)

    monkeypatch.setattr(frames, "frame_from_h", counted)
    return counts


def test_scan_evaluates_each_grid_s_once(evals):
    src = frames.make_frame_source(hexpr.parse("s + s^3"), 1.0)
    scan_singularities(src, (-1.0, 1.0), grid_n=256)
    assert {evals[float(s)] for s in np.linspace(-1.0, 1.0, 256)} == {1}
    assert sum(evals.values()) <= 280


def test_invariance_check_one_frame_per_sample(evals):
    src = frames.make_frame_source(hexpr.parse("tanh(s)"), 1.0)
    O = LorentzTransform.from_params(phi=0.3, chi=0.4)
    invariance_check(src, O, (-1.0, 1.0), n_samples=50)
    assert sum(evals.values()) == 50


def test_verify_frame_budget(evals):
    run_verify("tanh(s)", 0.7, (-0.75, 0.75))
    assert sum(evals.values()) <= 450
