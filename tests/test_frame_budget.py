"""Frame evaluations per call: each command evaluates each s about once."""

from collections import Counter

import numpy as np
import pytest

from nilscroll import frames, hexpr, singular
from nilscroll.errors import NumericFailure
from nilscroll.integrate import integrate_curve
from nilscroll.verify import run_verify
from nilscroll.lorentz import LorentzTransform
from nilscroll.singular import (
    classify_point,
    invariance_check,
    scan_singularities,
    transform_frame,
)
from nilscroll.surface import ScrollSurface


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


@pytest.fixture
def batches(monkeypatch):
    """The number of points of each frames.frame_from_h call, in order."""
    sizes = []
    original = frames.frame_from_h

    def counted(h_ast, H, s, *args, **kwargs):
        sizes.append(np.size(s))
        return original(h_ast, H, s, *args, **kwargs)

    monkeypatch.setattr(frames, "frame_from_h", counted)
    return sizes


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


@pytest.fixture
def classified(monkeypatch):
    """The table of each singular.classify_point call, in order."""
    tables = []

    def counted(*args, **kwargs):
        tables.append(classify_point(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(singular, "classify_point", counted)
    return tables


@pytest.mark.parametrize("h", ["tanh(s)", "s + s^3", "cot(exp(s)/2)"])
def test_invariance_check_classifies_f_and_its_image_in_one_batch(classified, h):
    rng = np.random.default_rng(sum(map(ord, h)))
    O = LorentzTransform.from_params(*rng.uniform(-1.0, 1.0, 3))
    src = frames.make_frame_source(hexpr.parse(h), 0.8)
    invariance_check(src, O, (-1.0, 1.0), n_samples=50)
    (table,) = classified
    # f and f^O at each point in turn, with the bits of two separate calls
    f = src(np.linspace(-1.0, 1.0, 50))
    for got, want in ((slice(0, None, 2), classify_point(f)),
                      (slice(1, None, 2), classify_point(transform_frame(O, f)))):
        assert np.array_equal(table.kind[got], want.kind)
        for column in ("t", "r1", "r2", "kappa2"):
            assert np.array_equal(getattr(table, column)[got], getattr(want, column), equal_nan=True)
        assert np.array_equal(table.cL1[:, got], want.cL1, equal_nan=True)


def test_verify_frame_budget(evals, batches):
    # the checks' grid of 41 s comes with the curve's 129 nodes, three of
    # which (the ends and the middle) it shares
    run_verify("tanh(s)", 0.7, (-0.75, 0.75))
    assert batches == [167]
    assert set(evals.values()) == {1}


@pytest.mark.parametrize("h, s_range, sizes", [
    ("cot(exp(s)/2)", (-0.75, 0.75), [167]),
    # resolved at degree 128, with the same one batch
    ("s + s^3", (-1.0, 1.0), [167]),
])
def test_verify_frame_budget_by_generator(evals, batches, h, s_range, sizes):
    run_verify(h, 0.7, s_range)
    assert batches == sizes
    assert set(evals.values()) == {1}


@pytest.mark.parametrize("h, H, s_range", [
    ("tanh(s)", 0.7, (-0.75, 0.75)),  # resolved at degree 32
    ("s + s^3", 1.0, (-1.0, 1.0)),  # resolved at degree 128
])
def test_curve_fits_a_panel_in_one_batch(batches, h, H, s_range):
    # all 129 nodes of degree 128, whichever degree resolves the panel
    integrate_curve(frames.make_frame_source(hexpr.parse(h), H), 0.0, s_range)
    assert batches == [129]


def test_curve_split_panels_evaluate_each_s_once(evals, batches):
    src = frames.make_frame_source(hexpr.parse("s + 100000*s^3"), 1.0)
    path = integrate_curve(src, 0.0, (-1.0, 1.0))
    assert len(path.breaks) > 2
    assert set(evals.values()) == {1}
    # one batch for each panel tried: P kept ones and P - 1 split
    assert len(batches) == 2 * (len(path.breaks) - 1) - 1


def test_curve_fit_fails_fast_where_it_resolves_a_nowhere(evals, batches):
    # a draw of test_random_inputs: no panel near -3 resolves A for h = 1e50/s,
    # and the fit gives up within a bounded number of frame batches (one that
    # splits every unresolved panel at each level does not)
    src = frames.make_frame_source(hexpr.parse("((s)^-1 * (1e100)^0.5)"), 1.0)
    with pytest.raises(NumericFailure, match=r"^A\(s\) unresolved near s=-2\.99"):
        integrate_curve(src, -1.25, (-3.0, 0.5))
    assert len(batches) <= 64
    assert sum(evals.values()) <= 4096


def test_surface_frame_budget(evals, batches):
    # the mesh's 120 rows, wanted first, come with the curve's 129 nodes; only
    # the range ends are both
    src = frames.make_frame_source(hexpr.parse("tanh(s)"), 1.0)
    src.want(np.linspace(-1.0, 1.0, 120))
    surf = ScrollSurface(src, integrate_curve(src, 0.0, (-1.0, 1.0)))
    surf.mesh(np.linspace(-1.0, 1.0, 120), np.linspace(-2.0, 2.0, 30))
    assert batches == [247]
    assert set(evals.values()) == {1}


def test_mesh_without_want_evaluates_only_the_rows_the_curve_lacks(evals, batches):
    src = frames.make_frame_source(hexpr.parse("tanh(s)"), 1.0)
    surf = ScrollSurface(src, integrate_curve(src, 0.0, (-1.0, 1.0)))
    surf.mesh(np.linspace(-1.0, 1.0, 120), np.linspace(-2.0, 2.0, 30))
    assert batches == [129, 118]
    assert set(evals.values()) == {1}


def test_cli_surface_evaluates_each_s_once(evals, batches, tmp_path):
    from nilscroll import cli

    out = str(tmp_path / "m")
    assert cli.main(["surface", "--h", "tanh(s)", "--grid", "120x30", "--out", out]) == 0
    assert batches == [247]
    assert set(evals.values()) == {1}


def test_a_repeated_request_evaluates_nothing(batches):
    src = frames.make_frame_source(hexpr.parse("tanh(s)"), 1.0)
    s = np.linspace(-1.0, 1.0, 41)
    first = src(s)
    again, part = src(s), src(s[::-1][:7])
    assert batches == [41]
    assert np.array_equal(again.Y.taylor(), first.Y.taylor())
    assert np.array_equal(part.Y.taylor(), first.Y.taylor()[..., ::-1][..., :7])
    assert np.array_equal(part.s, s[::-1][:7])


def test_a_repeated_s_within_a_request_is_evaluated_once(batches):
    h = hexpr.parse("tanh(s)")
    src = frames.make_frame_source(h, 1.0)
    first, second = src([0.1, 0.2, 0.1]), src([0.3, 0.3])
    assert batches == [2, 1]
    for got, s in ((first, [0.1, 0.2, 0.1]), (second, [0.3, 0.3])):
        want = frames.frame_from_h(h, 1.0, np.array(s))
        assert got.Y.taylor().tobytes() == want.Y.taylor().tobytes()
        assert got.kappa2.taylor().tobytes() == want.kappa2.taylor().tobytes()


def test_want_joins_the_next_batch_and_a_float_is_evaluated_alone(batches):
    src = frames.make_frame_source(hexpr.parse("tanh(s)"), 1.0)
    src.want(np.array([0.1, 0.2]))
    src.want(np.array([0.2, 0.3]))
    src(np.array([0.3, 0.4, 0.4]))
    src(np.array([0.1, 0.2, 0.3, 0.4]))
    src(0.1)
    assert batches == [4, 1]


def test_an_empty_request_is_an_empty_frame(batches):
    # before the first batch and after it, with no batch of its own
    h = hexpr.parse("tanh(s)")
    src = frames.make_frame_source(h, 1.0)
    s = np.array([0.1, 0.2])
    empty, f, again = src(np.array([])), src(s), src([])
    assert batches == [2]
    assert f.Y.taylor().tobytes() == frames.frame_from_h(h, 1.0, s).Y.taylor().tobytes()
    for e in (empty, again):
        assert e.s.shape == (0,)
        for got, want in ((e.Y, f.Y), (e.kappa1, f.kappa1), (e.kappa2, f.kappa2)):
            assert got.taylor().shape == want.taylor().shape[:-1] + (0,)


def test_rows_are_keyed_by_their_bits():
    # at h = s, B3 is -0.0 at s = 0.0 and +0.0 at s = -0.0: a key by value
    # would give both requests the first one's row
    src = frames.make_frame_source(hexpr.parse("s"), 1.0)
    for s in ([0.0, -0.0], [-0.0, 0.0]):
        B3 = src(np.array(s)).B[2].value
        want = frames.frame_from_h(hexpr.parse("s"), 1.0, np.array(s)).B[2].value
        assert np.array_equal(np.signbit(B3), np.signbit(want))
        assert np.signbit(B3).tolist() == [not np.signbit(x) for x in s]


def test_interleaved_small_batches_serve_the_rows_of_one_batch():
    # hundreds of small requests and wants, with repeated s and both zeros,
    # each merging its new keys into the table: every row served is the row
    # a table filled by one batch of all the s serves
    rng = np.random.default_rng(5)
    pool = np.concatenate([rng.uniform(-1.0, 1.0, 150), [0.0, -0.0]])
    h = hexpr.parse("tanh(s)")
    src, fresh = frames.make_frame_source(h, 1.0), frames.make_frame_source(h, 1.0)
    fresh(pool)
    for i in range(400):
        if i % 3 == 0:
            src.want(rng.choice(pool, rng.integers(1, 4)))
        s = rng.choice(pool, rng.integers(1, 6))
        got, want = src(s), fresh(s)
        for a, b in ((got.Y, want.Y), (got.kappa2, want.kappa2)):
            assert a.taylor().tobytes() == b.taylor().tobytes()
    got, want = src(pool), fresh(pool)
    assert got.Y.taylor().tobytes() == want.Y.taylor().tobytes()


def test_scan_root_classification_adds_no_batch(batches, classified):
    src = frames.make_frame_source(hexpr.parse("s + s^3"), 1.0)
    report = scan_singularities(src, (-1.0, 1.0), grid_n=256)
    # the grid, then two polishing rounds of both brackets
    assert batches == [256, 2, 2]
    assert len(report.points) == 2 and len(classified) == 2
