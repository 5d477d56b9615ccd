"""CLI behaviour: exit codes, file formats, determinism, schemas."""

import functools
import json
import math
import time

import jsonschema
import numpy as np
import pytest

from nilscroll import cli, hexpr
from nilscroll.cli import main
from nilscroll.frames import make_frame_source
from nilscroll.integrate import integrate_curve
from nilscroll.io_formats import fmt17, load_schema
from nilscroll.surface import ScrollSurface


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
     ("frame", "--kappa2", "s", "--init-frame", "1 0 0")],
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


def test_parse_error_exit_2(tmp_path):
    code, _, err = run(tmp_path, "singular", "--h", "tanh(s", "--s-range", "0:1")
    assert code == 2


def test_bad_range_exit_2(tmp_path):
    code, _, _ = run(tmp_path, "singular", "--h", "tanh(s)", "--s-range", "1:0")
    assert code == 2


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
    assert payload["box_sign"] in (-1, 1)


def test_verify_corrupted_tolerance_fails(tmp_path):
    code, _, _ = run(
        tmp_path,
        "verify", "--h", "tanh(s)", "--s-range", "-1:1",
        "--fd-tol", "1e-16", "--report", "v.json",
    )
    assert code == 1
    payload = json.loads((tmp_path / "v.json").read_text())
    assert not payload["checks"]["fundamental_forms_fd"]["pass"]
    # only the corrupted check fails
    others = [c for k, c in payload["checks"].items() if k != "fundamental_forms_fd"]
    assert all(c["pass"] for c in others)


def test_verify_degenerate_generator(tmp_path):
    code, _, _ = run(
        tmp_path, "verify", "--h", "s", "--s-range", "0.1:1", "--report", "v.json"
    )
    payload = json.loads((tmp_path / "v.json").read_text())
    assert payload["checks"]["frame_invariants"]["pass"]
    assert set(payload["singular_kinds"]) == {"non_front_degenerate"}


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
    assert payload["invariance"]["ccr_preserved"]
    assert payload["invariance"]["front_preserved"]


def test_zero_H_exit_2(tmp_path):
    code, _, _ = run(tmp_path, "singular", "--h", "tanh(s)", "--H", "0")
    assert code == 2


@pytest.mark.parametrize(
    "flag,value",
    [("--H", "nan"), ("--H", "inf"), ("--H", "-inf"), ("--s-range", "-inf:1"),
     ("--s-range", "0:nan"), ("--t-range", "0:inf")],
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


def test_surface_overflow_writes_nothing(tmp_path):
    code, _, _ = run(tmp_path, "surface", "--h", "1e308*s", "--out", "m")
    assert code == 3
    assert not list(tmp_path.iterdir())


def test_singular_overflow_writes_nothing(tmp_path):
    code, _, err = run(tmp_path, "singular", "--h", "1e308*s", "--out", "r")
    assert code == 3
    assert "non-finite frame at s=" in err
    assert not list(tmp_path.iterdir())


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


def test_surface_vertices_match_scroll_surface(tmp_path):
    code, _, _ = run(
        tmp_path,
        "surface", "--h", "tanh(s)", "--H", "0.7", "--s-range", "-1.2:1.2",
        "--t-range", "-3:3", "--out", "m",
    )
    assert code == 0
    source = functools.lru_cache(maxsize=None)(
        make_frame_source(hexpr.parse("tanh(s)"), 0.7)
    )
    surf = ScrollSurface(source, integrate_curve(source, 0.0, (-1.2, 1.2)))
    for target, point in (("l3", surf.bscroll_point), ("nil3", surf.nil3_point)):
        lines = (tmp_path / f"m_{target}.obj").read_text().splitlines()
        got = [line for line in lines if line.startswith("v ")]
        want = [
            "v " + " ".join(fmt17(x) for x in point(float(s), float(t)))
            for s in np.linspace(-1.2, 1.2, 120)
            for t in np.linspace(-3.0, 3.0, 30)
        ]
        assert got == want
