"""CLI behaviour: exit codes, file formats, determinism, schemas."""

import functools
import json
import math
import re
import time
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

from nilscroll import cli, frames, hexpr
from nilscroll.cli import main
from nilscroll.frames import make_frame_source
from nilscroll.integrate import integrate_curve
from nilscroll.surface import ScrollSurface
from nilscroll.verify import run_verify


def load_schema(name: str) -> dict:
    """Load one of the shipped report schemas by stem name."""
    ref = resources.files("nilscroll.schemas") / f"{name}.schema.json"
    return json.loads(ref.read_text())


def run(tmp_path, *argv):
    import contextlib
    import io
    import os

    cwd = os.getcwd()
    out = io.StringIO()
    err = io.StringIO()
    os.chdir(tmp_path)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def test_surface_small_grid(tmp_path):
    code, _, _ = run(
        tmp_path,
        "surface", "--h", "tanh(s)", "--H", "1", "--s-range", "0:1",
        "--t-range", "0:1", "--grid", "2x2", "--target", "l3", "--out", "m",
    )
    assert code == 0
    lines = (tmp_path / "m_l3.obj").read_text().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == 4 and len(fs) == 1
    assert fs[0] == "f 1 2 4 3"
    assert all(l.startswith(("v ", "f ")) for l in lines)


def test_surface_both_targets(tmp_path):
    code, out, _ = run(
        tmp_path,
        "surface", "--h", "tanh(s)", "--s-range", "-1.2:1.2",
        "--t-range", "-3:3", "--grid", "24x6", "--target", "both", "--out", "mesh",
    )
    assert code == 0
    assert (tmp_path / "mesh_l3.obj").exists()
    assert (tmp_path / "mesh_nil3.obj").exists()
    # 23*5 quads each
    body = (tmp_path / "mesh_nil3.obj").read_text()
    assert body.count("\nf ") + body.startswith("f ") == 23 * 5


def test_surface_both_targets_equal_separate_runs(tmp_path):
    # both targets format their vertex lines in one pass per chunk (1,200
    # rows: three of 400); each file keeps its bytes
    args = ("surface", "--h", "cot(exp(s)/2)", "--H", "-0.37", "--grid", "40x30", "--out")
    assert run(tmp_path, *args, "both", "--target", "both")[0] == 0
    for target in ("l3", "nil3"):
        assert run(tmp_path, *args, target, "--target", target)[0] == 0
        assert (tmp_path / f"both_{target}.obj").read_bytes() == (
            tmp_path / f"{target}_{target}.obj").read_bytes()


def test_surface_determinism(tmp_path):
    args = (
        "surface", "--h", "s + s^3", "--s-range", "-1:1", "--t-range", "-2:2",
        "--grid", "16x8", "--target", "nil3", "--out", "d",
    )
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert run(tmp_path / "a", *args)[0] == 0
    assert run(tmp_path / "b", *args)[0] == 0
    assert (tmp_path / "a" / "d_nil3.obj").read_bytes() == (
        tmp_path / "b" / "d_nil3.obj"
    ).read_bytes()


def test_domain_error_exit_2(tmp_path):
    code, _, err = run(tmp_path, "surface", "--h", "log(s)", "--s-range", "-1:1")
    assert code == 2
    assert "log" in err
    for h in ("s/0", "s/(1-1)"):
        code, _, err = run(tmp_path, "surface", "--h", h, "--out", "m")
        assert code == 2, h
        assert err.startswith("error: division by zero at s="), h
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "h,message",
    [("1/0 + s", "division by zero at offset 1"),
     ("log(0)+s", "log out of domain at offset 0"),
     ("log(s)", "log out of domain at s=-1.0")],
)
def test_domain_error_names_offset_or_s(tmp_path, h, message):
    # a constant sub-expression has no s: its byte offset locates it
    code, _, err = run(tmp_path, "singular", "--h", h, "--out", "r")
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [("singular",),
     ("singular", "--h", "tanh(s)", "--grid-n", "8"),
     ("family", "--h", "tanh(s)", "--samples", "-1"),
     ("frame", "--kappa2", "s", "--init-frame", "1 0 0 0 1 0 0 0 1", "--samples", "-1"),
     ("frame", "--kappa2", "s", "--init-frame", "a b c"),
     ("frame", "--kappa2", "s", "--init-frame", "1 0 0"),
     ("frame", "--kappa2", "2", "--init-frame", "1 1 0  0.5 -0.5 0  0 0 -1", "--samples", "0"),
     ("family", "--h", "tanh(s)", "--boost", "0.4", "--samples", "0"),
     ("frame", "--kappa2", "2", "--init-frame", "1 1 0  0.5 -0.5 0  0 0 nan"),
     ("family", "--h", "tanh(s)", "--find-notce", "--s", "nan"),
     ("verify",),
     ("verify", "--h", "tanh(s)", "--H", "0"),
     ("singular", "--h", "s + s^3", "--tol-root", "nan"),
     ("singular", "--h", "s + s^3", "--tol-root", "-1"),
     ("verify", "--h", "tanh(s)", "--H", "nan"),
     ("surface", "--h", "tanh(s)", "--H", "-inf"),
     ("frame", "--kappa2", "2", "--init-frame", "1 1 0  0.5 -0.5 0  0 0 -1", "--s", "inf"),
     ("singular", "--h", "tanh(s)", "--H", "1e-200"),
     ("verify", "--h", "tanh(s)", "--H", "1e160"),
     ("family", "--h", "tanh(s)", "--find-notce", "--H", "1e200")],
)
def test_precondition_exit_2(tmp_path, argv):
    code, _, err = run(tmp_path, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Number of samples" not in err
    assert not list(tmp_path.iterdir())


def test_stray_value_error_exit_3(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken")

    monkeypatch.setattr(cli, "scan_singularities", broken)
    code, _, err = run(tmp_path, "singular", "--h", "tanh(s)")
    assert code == 3
    assert err.startswith("internal error: ValueError")


def test_singular_first_form_is_a_numeric_failure(tmp_path):
    # t^2 H^2 overflows in the closed-form first fundamental form: named
    # before its inverse meets a zero pivot
    code, _, err = run(tmp_path, "verify", "--h", "tanh(s)", "--H", "1.3e154")
    assert code == 3
    assert err == "numeric failure: overflow in the first fundamental form at H=1.3e+154\n"
    # at |s| ~ 1e6 the frames miss their invariants: a verification failure
    code, out, err = run(tmp_path, "verify", "--h", "s+s^3", "--s-range", "-1e6:1e6")
    assert (code, err) == (1, "")
    assert not json.loads(out)["checks"]["frame_invariants"]["pass"]


def test_parse_error_exit_2(tmp_path):
    code, _, err = run(tmp_path, "singular", "--h", "tanh(s", "--s-range", "0:1")
    assert code == 2


def test_bad_range_exit_2(tmp_path):
    code, _, _ = run(tmp_path, "singular", "--h", "tanh(s)", "--s-range", "1:0")
    assert code == 2
    # the message keeps the rule that was broken
    code, _, err = run(tmp_path, "verify", "--h", "tanh(s)", "--s-range", "1:0")
    assert code == 2
    assert err.endswith("error: argument --s-range: range needs lo < hi, got '1:0'\n")


@pytest.mark.parametrize("command", ["surface", "singular", "verify", "frame", "family"])
def test_range_of_overflowing_width_exit_2(tmp_path, command):
    # both ends are finite, but hi - lo is not
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, err = run(tmp_path, command, "--h", "tanh(s)", "--s-range", "-1e308:1e308")
    assert (code, out, seen) == (2, "", [])
    assert "argument --s-range" in err
    assert not list(tmp_path.iterdir())


def test_surface_overflowing_t_range_is_one_numeric_failure(tmp_path):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, err = run(tmp_path, "surface", "--h", "tanh(s)", "--t-range", "0:1e308",
                             "--grid", "3x3", "--out", "m")
    assert (code, out, seen) == (3, "", [])
    assert err.splitlines() == ["numeric failure: non-finite mesh vertex"]
    assert not list(tmp_path.iterdir())


def test_singular_report_and_schema(tmp_path):
    code, _, _ = run(
        tmp_path,
        "singular", "--h", "s + s^3", "--H", "1", "--s-range", "-1:1",
        "--out", "sing",
    )
    assert code == 0
    payload = json.loads((tmp_path / "sing.json").read_text())
    jsonschema.validate(payload, load_schema("singular_report"))
    pts = payload["points"]
    assert len(pts) == 2
    assert all(p["kind"] == "cuspidal_cross_cap" for p in pts)
    assert pts[0]["s"] == pytest.approx(-1 / math.sqrt(6), abs=1e-10)
    assert pts[1]["s"] == pytest.approx(1 / math.sqrt(6), abs=1e-10)
    # CSV: header + 256 samples, 17-significant-digit numbers, CRLF rows
    raw = (tmp_path / "sing_curve.csv").read_bytes()
    lines = raw.decode().split("\r\n")
    assert lines[0] == "s,t"
    assert len([l for l in lines if l]) == 257


def test_singular_unbounded_rows_blank(tmp_path):
    code, _, _ = run(
        tmp_path,
        "singular", "--h", "tanh(s)", "--s-range", "-1:1", "--grid-n", "33",
        "--out", "u",
    )
    assert code == 0
    lines = (tmp_path / "u_curve.csv").read_bytes().decode().split("\r\n")
    # s = 0 is a grid point of the 33-point grid; B3(0) = 0 -> blank t
    blank = [l for l in lines[1:] if l.endswith(",")]
    assert len(blank) == 1
    assert float(blank[0][:-1]) == pytest.approx(0.0, abs=1e-15)


def test_singular_swallowtail(tmp_path):
    code, _, _ = run(
        tmp_path, "singular", "--h", "tanh(s)", "--s-range", "0.1:1", "--out", "sw"
    )
    assert code == 0
    payload = json.loads((tmp_path / "sw.json").read_text())
    assert [p["kind"] for p in payload["points"]] == ["swallowtail"]


def test_verify_pass_and_schema(tmp_path):
    code, _, _ = run(
        tmp_path,
        "verify", "--h", "tanh(s)", "--s-range", "-1:1", "--report", "v.json",
    )
    assert code == 0
    payload = json.loads((tmp_path / "v.json").read_text())
    jsonschema.validate(payload, load_schema("verify_report"))
    assert payload["all_pass"]
    assert set(payload) == {"generator", "H", "s_range", "checks", "singular_kinds", "all_pass"}


def test_verify_corrupted_tolerance_fails(tmp_path, monkeypatch):
    # negative control: II from the jets off by 1e-6, the forms tolerance
    jet_forms = ScrollSurface.jet_forms

    def corrupted(self, s, t):
        I, II = jet_forms(self, s, t)
        return I, II + 1e-6

    monkeypatch.setattr(ScrollSurface, "jet_forms", corrupted)
    code, _, _ = run(
        tmp_path,
        "verify", "--h", "tanh(s)", "--s-range", "-1:1", "--report", "v.json",
    )
    assert code == 1
    payload = json.loads((tmp_path / "v.json").read_text())
    assert not payload["checks"]["fundamental_forms"]["pass"]
    # only the corrupted check fails
    others = [c for k, c in payload["checks"].items() if k != "fundamental_forms"]
    assert all(c["pass"] for c in others)


def test_verify_degenerate_generator(tmp_path):
    code, _, _ = run(
        tmp_path, "verify", "--h", "s", "--s-range", "0.1:1", "--report", "v.json"
    )
    payload = json.loads((tmp_path / "v.json").read_text())
    assert payload["checks"]["frame_invariants"]["pass"]
    assert set(payload["singular_kinds"]) == {"non_front_degenerate"}


def test_verify_nan_residual_fails(monkeypatch, c_off_sphere):
    # C is NaN at one of the 41 invariant samples (not a duality sample), so
    # the frame-invariant residual is NaN, which must not pass
    from nilscroll import verify

    monkeypatch.setattr(verify, "make_frame_source",
                        c_off_sphere([np.linspace(-1.0, 1.0, 41)[1]], np.nan))
    payload = run_verify("tanh(s)", 1.0, (-1.0, 1.0))
    check = payload["checks"]["frame_invariants"]
    assert math.isnan(check["residual"]) and not check["pass"]
    assert not payload["all_pass"]


@pytest.mark.parametrize("report", [False, True], ids=["stdout", "report"])
@pytest.mark.parametrize("H", ["1e100", "1e150"])
def test_verify_non_finite_residual_is_a_numeric_failure(tmp_path, H, report):
    # at 1e100 t H^3 B overflows to inf in the box residual, which JSON
    # cannot hold; at 1e150 H^3 itself overflows
    code, out, err = run(tmp_path, "verify", "--h", "s^3+s", "--H", H,
                         *(["--report", "r.json"] if report else []))
    assert code == 3 and out == ""
    assert err.startswith("numeric failure: non-finite report value /checks/")
    assert err.count("\n") == 1 and "internal error" not in err
    assert not list(tmp_path.iterdir())


def test_verify_determinism(tmp_path):
    args = ("verify", "--h", "tanh(s)", "--s-range", "-1:1", "--report", "v.json")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    run(tmp_path / "a", *args)
    run(tmp_path / "b", *args)
    assert (tmp_path / "a" / "v.json").read_bytes() == (
        tmp_path / "b" / "v.json"
    ).read_bytes()


def test_frame_flow_matches_closed_form(tmp_path):
    # tanh frame at s = 0 for H = 1
    init = "1 1 0  0.5 -0.5 0  0 0 -1"
    code, _, _ = run(
        tmp_path,
        "frame", "--kappa2", "2", "--H", "1", "--init-frame", init,
        "--s-range", "0:1", "--report", "f.json",
    )
    assert code == 0
    payload = json.loads((tmp_path / "f.json").read_text())
    jsonschema.validate(payload, load_schema("frame_report"))
    worst = 0.0
    for row in payload["frames"]:
        s = row["s"]
        A = [math.cosh(2 * s), 1.0, -math.sinh(2 * s)]
        worst = max(worst, max(abs(a - b) for a, b in zip(row["A"], A)))
        assert row["worst_residual"] < 1e-8
    assert worst < 1e-7


def test_frame_stdout_is_the_report(tmp_path):
    argv = ["frame", "--kappa2", "1 + 0.5*s", "--kappa1", "0.2", "--H", "0.9", "--init-frame",
            "1 1 0  0.5 -0.5 0  0 0 -1", "--s-range", "0:1.1", "--samples", "17"]
    code, out, _ = run(tmp_path, *argv)
    assert code == 0
    assert run(tmp_path, *argv, "--report", "f.json")[0] == 0
    assert (tmp_path / "f.json").read_text() == out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_frame_curvature_overflow_exit_3(tmp_path):
    code, _, err = run(
        tmp_path,
        "frame", "--kappa2", "exp(800*s)", "--init-frame", "1 1 0  0.5 -0.5 0  0 0 -1",
        "--s-range", "0:1", "--report", "f.json",
    )
    assert code == 3
    assert err.startswith("numeric failure: ") and "s=0.8" in err
    assert not list(tmp_path.iterdir())


def test_frame_invalid_init_exit_2(tmp_path):
    code, _, _ = run(
        tmp_path,
        "frame", "--kappa2", "2", "--init-frame", "1 0 0 0 1 0 0 0 1",
        "--s-range", "0:1",
    )
    assert code == 2


def test_family_find_notce(tmp_path):
    code, _, _ = run(
        tmp_path,
        "family", "--h", "tanh(s)", "--find-notce", "--s", "0",
        "--report", "fam.json",
    )
    assert code == 0
    payload = json.loads((tmp_path / "fam.json").read_text())
    jsonschema.validate(payload, load_schema("frame_report"))
    r1, r2 = payload["transform"]["residuals"]
    assert abs(r1) < 1e-8 and abs(r2) < 1e-8
    assert payload["transform"]["kind_at_s"] in ("swallowtail", "front_other")


def test_family_boost_invariance(tmp_path):
    code, _, _ = run(
        tmp_path,
        "family", "--h", "s + s^3", "--boost", "0.4", "--s-range", "-1:1",
        "--report", "fam.json",
    )
    assert code == 0
    payload = json.loads((tmp_path / "fam.json").read_text())
    jsonschema.validate(payload, load_schema("frame_report"))
    assert payload["invariance"]["ccr_preserved"]
    assert payload["invariance"]["front_preserved"]


def test_zero_H_exit_2(tmp_path):
    code, _, _ = run(tmp_path, "singular", "--h", "tanh(s)", "--H", "0")
    assert code == 2


@pytest.mark.parametrize("H", ["1e-200", "-1e160"])
def test_H_whose_square_is_not_a_normal_float_exit_2(tmp_path, H):
    # the frames divide by H^2: blame H, not the generator
    code, _, err = run(tmp_path, "singular", "--h", "tanh(s)", "--H", H)
    assert code == 2
    assert err.startswith("error: H must be finite and non-zero")


@pytest.mark.parametrize(
    "flag,value",
    [("--H", "nan"), ("--H", "inf"), ("--H", "-inf"), ("--s-range", "-inf:1"),
     ("--s-range", "0:nan"), ("--t-range", "0:inf"), ("--H", "1e-200"), ("--H", "1e200")],
)
def test_non_finite_input_exit_2(tmp_path, flag, value):
    code, _, _ = run(
        tmp_path, "surface", "--h", "tanh(s)", "--grid", "4x4", flag, value, "--out", "m"
    )
    assert code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("boost", ["800", "nan"])
def test_family_unrepresentable_boost_exit_2(tmp_path, boost):
    code, _, err = run(tmp_path, "family", "--h", "tanh(s)", "--boost", boost)
    assert code == 2
    assert err.startswith("error:")


def test_stray_exception_exit_3(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(cli, "scan_singularities", broken)
    code, _, err = run(tmp_path, "singular", "--h", "tanh(s)")
    assert code == 3
    assert err.startswith("internal error: RuntimeError")


def test_surface_pole_of_A_fails_fast(tmp_path):
    # h'(0) = 0 makes A blow up at s = 0, which is not a grid row
    start = time.perf_counter()
    code, _, _ = run(tmp_path, "surface", "--h", "s^2", "--s-range", "-1:2", "--out", "m")
    assert code in (2, 3)
    assert time.perf_counter() - start < 10.0
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("s_range", ["-1:1", "-1:0.9"])
@pytest.mark.parametrize("command", ["surface", "verify"])
def test_h_prime_sign_change_is_one_input_error(tmp_path, monkeypatch, command, s_range):
    # h' = 2s + 1 changes sign at -0.5, between two Chebyshev nodes of -1:1
    # and of -1:0.9; on both the curve's first frame batch shows B1 ~ H h'
    # change sign, and that batch is the only one: the curve's 129 nodes
    # with the 120 mesh rows or the 41 check s the command wants, less
    # those shared
    sizes, original = [], frames.frame_from_h
    monkeypatch.setattr(frames, "frame_from_h",
                        lambda *args: sizes.append(np.size(args[2])) or original(*args))
    code, out, err = run(tmp_path, command, "--h", "s^2+s", "--s-range", s_range)
    cell = re.fullmatch(r"error: h' changes sign in \[(\S+), (\S+)\]\n", err)
    first = {"surface": 247, "verify": 167 if s_range == "-1:1" else 168}[command]
    assert (code, out, sizes) == (2, "", [first]) and cell
    assert float(cell[1]) < -0.5 < float(cell[2])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["surface", "verify"])
def test_h_prime_sign_change_inside_a_split_panel_is_one_input_error(tmp_path, command):
    # h' = (s - 0.31)^2 - 1e-8 has two zeros, at 0.31 +- 1e-4, and both fall
    # between the same two nodes of the first panel, so B1 shows no sign
    # change there; the panels the fit splits off around 0.31 do show it
    code, out, err = run(tmp_path, command, "--h", "(s-0.31)^3/3 - 0.00000001*s",
                         "--s-range", "-1:1")
    cell = re.fullmatch(r"error: h' changes sign in \[(\S+), (\S+)\]\n", err)
    assert (code, out) == (2, "") and cell
    assert float(cell[1]) < 0.31 - 1e-4 < float(cell[2]) < 0.31 + 1e-4
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["singular", "--h", "tanh(s)", "--grid-n", "100000000000", "--out", "r"],
    ["surface", "--h", "tanh(s)", "--grid", "100000000000x5", "--out", "m"],
])
def test_a_count_too_large_to_allocate_is_an_input_error(tmp_path, monkeypatch, argv):
    # numpy raises MemoryError for an array it cannot allocate; the fake
    # raises it in place of the real allocation, which is never attempted
    linspace = np.linspace

    def no_memory(start, stop, num=50, **kwargs):
        if num > 10**6:
            raise MemoryError(f"Unable to allocate 745. GiB for an array with shape ({num},) "
                              "and data type float64")
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", no_memory)
    code, out, err = run(tmp_path, *argv)
    assert (code, out) == (2, "")
    assert err == ("error: Unable to allocate 745. GiB for an array with shape "
                   "(100000000000,) and data type float64\n")
    assert not list(tmp_path.iterdir())


def test_surface_overflow_writes_nothing(tmp_path):
    code, _, _ = run(tmp_path, "surface", "--h", "1e308*s", "--out", "m")
    assert code == 3
    assert not list(tmp_path.iterdir())


def test_singular_overflow_writes_nothing(tmp_path):
    code, _, err = run(tmp_path, "singular", "--h", "1e308*s", "--out", "r")
    assert code == 3
    assert "non-finite frame at s=" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (("family", "--h", "tanh(s)", "--find-notce", "--s", "750"), "|h'(750.0)| = 0.000e+00"),
    (("surface", "--h", "tanh(1000*s)", "--out", "m"), "|h'(-1.0)| = 0.000e+00"),
])
def test_tanh_past_the_overflow_of_cosh_is_flat(tmp_path, argv, message):
    # tanh is +-1 there, so h' is flat: an input error, not a NaN frame
    code, out, err = run(tmp_path, *argv)
    assert (code, out, err) == (2, "", f"error: {message} < 1e-12\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("h", ["exp(exp(s))", "s^400"])
def test_find_notce_non_finite_frame_exit_3(tmp_path, h):
    # the frame overflows at s = 10: no transform is sought
    code, out, err = run(tmp_path, "family", "--h", h, "--find-notce", "--s", "10")
    assert (code, out, err) == (3, "", "numeric failure: non-finite frame at s=10.0\n")


@pytest.mark.parametrize("argv, squat, named", [
    (["surface", "--grid", "4x4", "--out", "d/x"], "d/x_nil3.obj", "d/x_nil3.obj"),
    (["surface", "--grid", "4x4", "--out", "missing/x"], None, "missing/x_l3.obj"),
    (["singular", "--out", "d/y"], "d/y.json", "d/y.json"),
    (["singular", "--out", "missing/y"], None, "missing/y_curve.csv"),
    (["verify", "--report", "d/r.json"], "d/r.json", "d/r.json"),
    (["verify", "--report", "missing/r.json"], None, "missing/r.json"),
], ids=["surface-squat", "surface-missing", "singular-squat", "singular-missing",
        "verify-squat", "verify-missing"])
def test_write_failure_exit_2_writes_nothing(tmp_path, argv, squat, named):
    # a directory squatting on one file of the set, or a missing parent directory
    (tmp_path / "d").mkdir()
    if squat:
        (tmp_path / squat).mkdir()
    code, _, err = run(tmp_path, argv[0], "--h", "tanh(s)", *argv[1:])
    assert code == 2 and "internal error" not in err
    assert err.startswith(f"error: cannot write {named}: ")
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []


@pytest.mark.parametrize("full", ["m_l3.obj", "m_nil3.obj"])
def test_a_write_error_names_the_file_being_written(tmp_path, monkeypatch, full):
    # both files are staged before the first write, so the error must carry
    # the name of the file that ran out of room, not the last one staged
    import errno
    import io
    import os

    from nilscroll import io_formats

    class Full(io.BufferedWriter):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def full_open(path, mode="r", *args, **kwargs):
        if os.path.basename(path).startswith(full + "."):  # the staged temporary
            return Full(io.FileIO(path, "w"))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(io_formats, "open", full_open, raising=False)
    code, out, err = run(tmp_path, "surface", "--h", "tanh(s)", "--grid", "4x4", "--out", "m")
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {full}: {os.strerror(errno.ENOSPC)}\n"
    assert list(tmp_path.iterdir()) == []


def test_report_through_a_symlink_and_into_a_pipe(tmp_path):
    # the report replaces the file a symlink names, keeping the link; a pipe
    # (like /dev/stdout) cannot be replaced, so it is written in place
    import os
    import stat
    import threading

    (tmp_path / "link.json").symlink_to("real.json")
    code, _, _ = run(tmp_path, "verify", "--h", "tanh(s)", "--report", "link.json")
    assert code == 0 and (tmp_path / "link.json").is_symlink()
    assert json.loads((tmp_path / "real.json").read_text())["all_pass"] is True
    os.mkfifo(tmp_path / "pipe.json")
    got = []
    reader = threading.Thread(target=lambda: got.append((tmp_path / "pipe.json").read_text()),
                              daemon=True)
    reader.start()
    code, _, _ = run(tmp_path, "family", "--h", "tanh(s)", "--find-notce", "--report",
                     "pipe.json")
    reader.join(timeout=30)
    assert code == 0 and not reader.is_alive()
    assert json.loads(got[0])["generator"] == "tanh(s)"
    assert stat.S_ISFIFO(os.lstat(tmp_path / "pipe.json").st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "pipe.json", "real.json"]


def test_surface_jet_overflow_exit_3(tmp_path):
    code, _, err = run(
        tmp_path, "surface", "--h", "exp(s)", "--s-range", "700:720", "--out", "m"
    )
    assert code == 3
    assert "at s=" in err
    assert not list(tmp_path.iterdir())


def test_cli_import_does_not_load_scipy():
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, nilscroll.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["surface", "--h", "tanh(s)", "--grid", "12x5", "--out", "m"],
    ["singular", "--h", "s + s^3", "--out", "sing"],
    ["verify", "--h", "cot(exp(s)/2)", "--s-range", "-0.7:0.7"],
    ["frame", "--kappa2", "2", "--init-frame", "1 1 0  0.5 -0.5 0  0 0 -1", "--s-range", "0:1"],
    ["family", "--h", "tanh(s)", "--find-notce", "--s", "0"],
    ["family", "--h", "s + s^3", "--boost", "0.4"],
], ids=["surface", "singular", "verify", "frame", "family-notce", "family-boost"])
def test_command_loads_no_single_call_numpy_module(tmp_path, argv):
    # numpy.random (a seeded draw), numpy.ma (np.unique of ints under numpy 2),
    # numpy.polynomial (the base curve's series arithmetic) and numpy.fft (one
    # DCT per fitted panel) each cost a command about a megabyte for a few calls
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys; from nilscroll import cli; code = cli.main(sys.argv[1:]); "
            "print(code, sorted(m for m in ('numpy.random', 'numpy.ma', 'numpy.polynomial',"
            " 'numpy.fft') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []", out.stderr


def test_surface_vertices_match_scroll_surface(tmp_path):
    code, _, _ = run(
        tmp_path,
        "surface", "--h", "tanh(s)", "--H", "0.7", "--s-range", "-1.2:1.2",
        "--t-range", "-3:3", "--out", "m",
    )
    assert code == 0
    # per-point oracle: one frame and one curve point at a time, 120 distinct s
    H = 0.7
    source = make_frame_source(hexpr.parse("tanh(s)"), H)
    path = integrate_curve(source, 0.0, (-1.2, 1.2))
    source = functools.lru_cache(maxsize=None)(source)

    def l3(s, t):
        g, B = path.dense_eval(s)[0], source(s).B.value
        return g[0] + B[0] * t, g[1] + B[1] * t, g[2] + B[2] * t

    def nil3(s, t):
        (g, J), B = path.dense_eval(s), source(s).B.value
        return (g[0] + t * B[0], g[1] + t * B[1],
                g[2] - t * B[2] + H * J + t * H * (g[0] * B[1] - g[1] * B[0]))

    for target, point in (("l3", l3), ("nil3", nil3)):
        lines = (tmp_path / f"m_{target}.obj").read_text().splitlines()
        got = [line for line in lines if line.startswith("v ")]
        want = [
            "v " + " ".join(format(x, ".17g") for x in point(float(s), float(t)))
            for s in np.linspace(-1.2, 1.2, 120)
            for t in np.linspace(-3.0, 3.0, 30)
        ]
        assert got == want


def test_singular_flags_a_sign_change_of_h_prime(tmp_path):
    # h' = 2s changes sign at 0, between grid nodes 127 and 128; r1 = -5/8
    code, _, _ = run(tmp_path, "singular", "--h", "s^2", "--out", "sq")
    assert code == 0
    payload = json.loads((tmp_path / "sq.json").read_text())
    assert payload["points"] == []
    a, b = np.linspace(-1.0, 1.0, 256)[127:129]
    assert payload["warnings"] == [f"WARN h' changes sign in [{a}, {b}]"]


def test_verify_non_finite_jacobian_is_a_numeric_failure(tmp_path):
    # at |s| ~ 1e150 the Nil_3 Jacobian overflows: its smallest singular
    # value is NaN, not a LAPACK error
    code, out, err = run(tmp_path, "verify", "--h", "s", "--s-range", "-1e150:1e150")
    assert (code, out) == (3, "")
    assert err.startswith("numeric failure: non-finite report value /checks/")


@pytest.mark.parametrize("h", ["(2*s+1)/(s-3)", "1/s"])
def test_degenerate_generator_reports_only_its_grid(tmp_path, h):
    # S(h) = 0: kappa2 is rounding noise (it reads -0.0 at some s), and its
    # sign changes are not roots; every grid sample is reported, nothing else
    code, _, _ = run(tmp_path, "singular", "--h", h, "--H", "0.8", "--s-range", "-1:1",
                     "--out", "deg")
    assert code == 0
    points = json.loads((tmp_path / "deg.json").read_text())["points"]
    assert [p["s"] for p in points] == np.linspace(-1.0, 1.0, 256).tolist()
    assert {p["kind"] for p in points} == {"non_front_degenerate"}


def test_verify_short_range(tmp_path):
    # no derivative needs a step, so no range is too short
    for s_range in ("0.2:0.25", "0.2:0.203"):
        code, _, _ = run(tmp_path, "verify", "--h", "tanh(s)", "--s-range", s_range,
                         "--report", "v.json")
        assert code == 0
        assert json.loads((tmp_path / "v.json").read_text())["all_pass"]


@pytest.mark.parametrize("argv", [("surface",), ("singular",), ("verify",),
                                  ("family", "--boost", "0.3")])
def test_first_bad_s_in_array_order_wins(tmp_path, argv):
    # the walk meets log's failure first, at s >= 0.5; s = -1.0 comes first
    code, _, err = run(tmp_path, argv[0], "--h", "log(0.5 - s) + 1/(s + 1)", *argv[1:])
    assert code == 2
    assert err == "error: division by a jet with zero value at s=-1.0\n"
    assert not list(tmp_path.iterdir())


def test_frame_curvature_domain_error_names_its_s(tmp_path):
    # the march from 0.6 meets the log hole at its first Gauss node below 0.5;
    # the curvature there is NaN, and that point alone raises its DomainError
    code, _, err = run(tmp_path, "frame", "--kappa2", "2 + 0*log(s - 0.5)",
                       "--init-frame", "1 1 0 0.5 -0.5 0 0 0 -1",
                       "--s-range", "0:1", "--s", "0.6")
    assert code == 2
    assert err == "error: log out of domain at s=0.4978867513459481\n"


def test_singular_keeps_an_inconsistent_grid_row(tmp_path, monkeypatch, c_off_sphere):
    # C off the unit sphere at one grid point: that sample warns, its CSV row stays
    grid = np.linspace(-1.0, 1.0, 256)
    monkeypatch.setattr(cli, "make_frame_source", c_off_sphere([grid[179]]))
    code, _, _ = run(tmp_path, "singular", "--h", "tanh(s)", "--out", "c")
    assert code == 0
    warnings = json.loads((tmp_path / "c.json").read_text())["warnings"]
    assert len(warnings) == 1 and warnings[0].startswith(
        f"WARN classify at s={grid[179]}: c_L' closed form vs jet route differ by")
    rows = (tmp_path / "c_curve.csv").read_text().splitlines()
    assert len(rows) == 257
    s, t = rows[180].split(",")
    assert float(s) == grid[179] and math.isfinite(float(t))


class ClosedStdout:
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    ("frame", "--kappa2=-s", "--init-frame", "1 1 0 0.5 -0.5 0 0 0 -1", "--s", "0",
     "--s-range", "0:1", "--samples", "2000"),
    ("verify", "--h", "tanh(s)"),
    ("singular", "--h", "tanh(s)", "--out", "p"),
])
def test_closed_stdout_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdout", ClosedStdout())
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot write <stdout>: Broken pipe\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("singular", "--h", "-s+s^3", "--out", "x"),
    ("surface", "--h", "tanh(s)", "--grid", "6x3", "--out", "x"),
])
def test_closed_stdout_pipe_leaves_no_file(tmp_path, argv):
    # the paths are printed before the files are committed, so a stdout pipe
    # whose reader has gone fails the whole set
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "nilscroll.cli", *argv], cwd=tmp_path,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err == b"error: cannot write <stdout>: Broken pipe\n"
    assert not list(tmp_path.iterdir())


# a value starting with '-' for every option that takes one
DASH_VALUES = {
    "--h": "-s+s^3", "--H": "-0.5", "--s-range": "-1:0.5", "--t-range": "-1:1",
    "--grid": "-3x4", "--target": "-l3", "--out": "-o", "--grid-n": "-16",
    "--tol-root": "-1e-10", "--report": "-r",
    "--kappa1": "-s", "--kappa2": "-s", "--init-frame": "-1 -1 0 -0.5 0.5 0 0 0 1",
    "--s": "-0.25", "--samples": "-1", "--boost": "-0.4", "--rot": "-0.3",
}
BASE_ARGV = {
    "surface": ["--h", "tanh(s)", "--grid", "6x3"],
    "singular": ["--h", "tanh(s)", "--grid-n", "32"],
    "verify": ["--h", "tanh(s)"],
    "frame": ["--kappa2", "2", "--init-frame", "1 1 0 0.5 -0.5 0 0 0 -1", "--samples", "5"],
    "family": ["--h", "tanh(s)", "--samples", "5"],
}


def _value_options():
    """(subcommand, option) for every option of the parser that takes one value."""
    import argparse

    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, o) for name, p in sub.choices.items() for a in p._actions
            if a.nargs is None for o in a.option_strings]


@pytest.mark.parametrize("command, flag", _value_options())
def test_dash_leading_value_as_a_separate_argument(tmp_path, command, flag):
    # "--flag -x" and "--flag=-x" are one input: same exit code and output
    argv = [command, *BASE_ARGV[command]]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    spaced = run(tmp_path / "a", *argv, flag, DASH_VALUES[flag])
    joined = run(tmp_path / "b", *argv, f"{flag}={DASH_VALUES[flag]}")
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize("argv", [
    ("verify", "--h", "tanh(s)", "--s-r", "-1:1"),
    ("surface", "--h", "tanh(s)", "--grid", "6x3", "--t-r", "-1:1"),
])
def test_abbreviated_option_forms_agree(tmp_path, argv):
    # "--abbrev -x" and "--abbrev=-x" give the same exit code
    *head, flag, value = argv
    assert run(tmp_path, *head, flag, value)[0] == run(tmp_path, *head, f"{flag}={value}")[0]


def test_singular_with_a_dash_leading_generator(tmp_path):
    code, out, err = run(tmp_path, "singular", "--h", "-s+s^3", "--out", "m")
    assert (code, out, err) == (0, "m.json\nm_curve.csv\n", "")
    assert json.loads((tmp_path / "m.json").read_text())["generator"] == "-s + s^3"
