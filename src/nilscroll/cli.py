"""Command-line interface.

Subcommands: surface (OBJ meshes), singular (JSON report + CSV curve),
verify (invariant suite, exit code reflects pass/fail), frame (flow from
prescribed curvatures), family (O(2,1) transforms, invariance reports,
and the closed-form non-cuspidal-edge transform).

Exit codes: 0 ok, 1 verification failure, 2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import hexpr
from .errors import (
    ClassifierInconsistency,
    InputError,
    NilscrollError,
    NumericFailure,
    PoleError,
    PreconditionError,
)
from .frames import (
    frame_flow_from_curvatures,
    frame_jets_from_values,
    make_frame_source,
    validate_frame,
)
from .integrate import integrate_curve
from .io_formats import write_curve_csv, write_json, write_obj
from .lorentz import LorentzTransform, Vec3L, mdot
from .singular import (
    DEFAULT_TOL_ROOT,
    classify_point,
    find_notce_transform,
    invariance_check,
    notce_residuals,
    scan_singularities,
    singular_t,
    transform_frame,
)
from .surface import ScrollSurface

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"range must be lo:hi, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"range needs finite ends, got {text!r}")
    if not lo < hi:
        raise ValueError(f"range needs lo < hi, got {text!r}")
    return lo, hi


def _parse_grid(text: str):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"grid must be NSxNT, got {text!r}")
    ns, nt = int(parts[0]), int(parts[1])
    if ns < 2 or nt < 2:
        raise ValueError("grid needs at least 2x2")
    return ns, nt


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise PreconditionError(f"--{name} is required for this subcommand")


def _build_surface(args):
    source = make_frame_source(hexpr.parse(args.h), args.H)
    s0 = 0.5 * (args.s_range[0] + args.s_range[1])
    path = integrate_curve(source, s0, args.s_range)
    return source, ScrollSurface(source, path)


def _emit(args, payload):
    if getattr(args, "report", None):
        write_json(args.report, payload)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


# -- surface ---------------------------------------------------------------


def cmd_surface(args) -> int:
    _require(args, "h")
    _, surf = _build_surface(args)
    ns, nt = args.grid
    verts = surf.mesh(np.linspace(*args.s_range, ns), np.linspace(*args.t_range, nt))
    targets = ["l3", "nil3"] if args.target == "both" else [args.target]
    if not all(np.all(np.isfinite(verts[k])) for k in targets):
        raise NumericFailure("non-finite mesh vertex")
    for target in targets:
        write_obj(f"{args.out}_{target}.obj", verts[target], ns, nt)
    print("\n".join(f"{args.out}_{target}.obj" for target in targets))
    return EXIT_OK


# -- singular --------------------------------------------------------------


def _point_payload(p) -> dict:
    diag = {}
    for k, v in p.diagnostics.items():
        diag[k] = list(v) if isinstance(v, tuple) else v
    return {"s": p.s, "t": p.t, "kind": p.kind.value, "diagnostics": diag}


def cmd_singular(args) -> int:
    _require(args, "h")
    h_ast = hexpr.parse(args.h)
    source = make_frame_source(h_ast, args.H)
    report = scan_singularities(
        source,
        args.s_range,
        grid_n=args.grid_n,
        tol_root=args.tol_root,
        generator=hexpr.to_str(h_ast),
    )
    csv_path = f"{args.out}_curve.csv"
    write_curve_csv(csv_path, [(s, t) for s, t, _ in report.curve])
    payload = {
        "generator": report.generator,
        "H": report.H,
        "s_range": list(report.s_range),
        "points": [_point_payload(p) for p in report.points],
        "curve_csv_path": csv_path,
        "warnings": report.warnings,
    }
    json_path = f"{args.out}.json"
    write_json(json_path, payload)
    print(json_path)
    print(csv_path)
    return EXIT_OK


# -- verify ----------------------------------------------------------------


def _nl_from_g(g):
    """Fact-sheet normal from the stereographic coordinate, for round trips."""
    m = g.sqmod()
    d = 1.0 + m
    jg = (g - g.conj()).times_j()  # = 2*im(g) as a real number part
    return np.array([-jg.re / d, -(g + g.conj()).re / d, -(1.0 - m) / d])


def run_verify(h_text, H, s_range, fd_step=1e-3, fd_tol=1e-6):
    """Named invariant checks for one generator; pure, used by tests too."""
    h_ast = hexpr.parse(h_text)
    args = argparse.Namespace(h=h_text, H=H, s_range=s_range)
    source, surf = _build_surface(args)
    rng = np.random.default_rng(20240817)
    lo, hi = s_range
    svals = np.linspace(lo, hi, 41)
    # FD probes step past the sample point; keep them inside the path range
    pad = 0.02 * (hi - lo)
    flo, fhi = lo + pad, hi - pad

    checks = {}

    def add(name, residual, tol, detail=None):
        entry = {"residual": float(residual), "tolerance": float(tol),
                 "pass": bool(residual < tol)}
        if detail is not None:
            entry["detail"] = detail
        checks[name] = entry

    # frame invariants and Frenet-Serret residuals
    frame_res = 0.0
    fs_res = 0.0
    weier = 0.0
    for s in svals:
        f = source(float(s))
        r = validate_frame(f)
        fs_res = max(fs_res, r["fs_A"], r["fs_B"], r["fs_C"])
        frame_res = max(frame_res, max(v for k, v in r.items() if not k.startswith("fs_")))
        Bp = f.B.deriv()
        Bpp = Bp.deriv()
        weier = max(weier, abs(mdot(Bp, Bp).value - H * H))
        weier = max(
            weier,
            abs(mdot(Bpp, Bpp).value + 2.0 * H**3 * f.kappa2.value),
        )
    add("frame_invariants", frame_res, 1e-9)
    add("frenet_serret", fs_res, 1e-8)
    add("weierstrass_curvature", weier, 1e-8)

    # fundamental forms: closed form vs finite differences, plus H/K law
    ff_res = 0.0
    hk_res = 0.0
    for _ in range(40):
        s = float(rng.uniform(flo, fhi))
        t = float(rng.uniform(-2.0, 2.0))
        forms = surf.fundamental_forms(s, t)
        fd = surf.fundamental_forms_fd(s, t, fd_step=1e-4)
        ff_res = max(
            ff_res,
            float(np.max(np.abs(forms.I - fd.I))),
            float(np.max(np.abs(forms.II - fd.II))),
        )
        hk_res = max(hk_res, abs(forms.H_mean - H), abs(forms.K_gauss - H * H))
    add("fundamental_forms_fd", ff_res, fd_tol)
    add("mean_gauss_curvature", hk_res, 1e-10)

    # d'Alembertian eigenvalue identity, both sign conventions tried
    box_res = 0.0
    signs = set()
    for _ in range(20):
        s = float(rng.uniform(flo, fhi))
        t = float(rng.uniform(-2.0, 2.0))
        r, sign = surf.box_check(s, t, fd_step=fd_step)
        box_res = max(box_res, r)
        signs.add(sign)
    box_sign = signs.pop() if len(signs) == 1 else None
    add("box_eigenvalue", box_res, 1e-4, detail={"sign": box_sign})

    # normal Gauss map round trip through the unit-normal formula
    g_res = 0.0
    for _ in range(40):
        s = float(rng.uniform(flo, fhi))
        t = float(rng.uniform(-2.0, 2.0))
        N = surf.gauss_map_L(s, t)
        try:
            g = surf.normal_gauss_map(s, t)
        except PoleError:
            continue
        back = _nl_from_g(g)
        g_res = max(g_res, float(np.max(np.abs(back - N.as_array()))))
    add("gauss_map_roundtrip", g_res, 1e-10)

    # singular-set duality: rank drop and |g|^2 = 1 on t(s) = -C3/(H B3)
    dual_sigma = 0.0
    dual_gmod = 0.0
    kinds = {}
    for s in np.linspace(lo, hi, 21):
        f = source(float(s))
        t = singular_t(f)
        try:
            kind = classify_point(f).kind.value
        except ClassifierInconsistency:
            kind = "inconsistent"
        kinds[kind] = kinds.get(kind, 0) + 1
        if t is None or abs(t) > 50.0:
            continue
        met = surf.nil3_jacobian_metrics(float(s), t)
        dual_sigma = max(dual_sigma, met["sigma_min"])
        g = surf.normal_gauss_map(float(s), t)
        dual_gmod = max(dual_gmod, abs(g.sqmod() - 1.0))
    add("singular_duality_rank", dual_sigma, 1e-6)
    add("singular_duality_gmod", dual_gmod, 1e-8)

    all_pass = all(c["pass"] for c in checks.values())
    return {
        "generator": hexpr.to_str(h_ast),
        "H": H,
        "s_range": list(s_range),
        "checks": checks,
        "box_sign": box_sign,
        "singular_kinds": kinds,
        "all_pass": all_pass,
    }


def cmd_verify(args) -> int:
    _require(args, "h")
    payload = run_verify(args.h, args.H, args.s_range, fd_step=args.fd_step,
                         fd_tol=args.fd_tol)
    _emit(args, payload)
    return EXIT_OK if payload["all_pass"] else EXIT_VERIFY


# -- frame -----------------------------------------------------------------


def _parse_init_frame(text: str, k1_ast, k2_ast, H, s):
    try:
        vals = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        vals = []
    if len(vals) != 9:
        raise PreconditionError(f"--init-frame needs 9 numbers (A B C), got {text!r}")
    return frame_jets_from_values(
        Vec3L(*vals[0:3]), Vec3L(*vals[3:6]), Vec3L(*vals[6:9]),
        k1_ast, k2_ast, H, s,
    )


def cmd_frame(args) -> int:
    _require(args, "kappa2", "init-frame")
    k1_ast = hexpr.parse(args.kappa1)
    k2_ast = hexpr.parse(args.kappa2)
    s0 = args.s if args.s is not None else args.s_range[0]
    init = _parse_init_frame(args.init_frame, k1_ast, k2_ast, args.H, s0)
    frames = frame_flow_from_curvatures(
        k1_ast, k2_ast, args.H, init, args.s_range, n_samples=args.samples
    )
    rows = []
    for f in frames:
        Av, Bv, Cv = f.values()
        rows.append(
            {
                "s": f.s,
                "A": list(Av.as_array()),
                "B": list(Bv.as_array()),
                "C": list(Cv.as_array()),
                "worst_residual": validate_frame(f).worst,
            }
        )
    payload = {
        "H": args.H,
        "s_range": list(args.s_range),
        "kappa1": hexpr.to_str(k1_ast),
        "kappa2": hexpr.to_str(k2_ast),
        "frames": rows,
    }
    _emit(args, payload)
    return EXIT_OK


# -- family ----------------------------------------------------------------


def cmd_family(args) -> int:
    _require(args, "h")
    h_ast = hexpr.parse(args.h)
    source = make_frame_source(h_ast, args.H)
    payload = {
        "H": args.H,
        "s_range": list(args.s_range),
        "generator": hexpr.to_str(h_ast),
    }
    if args.find_notce:
        s = args.s if args.s is not None else 0.0
        frame = source(s)
        O = find_notce_transform(frame)
        g = transform_frame(O, frame)
        r1, r2 = notce_residuals(g)
        kind = classify_point(g).kind
        payload["transform"] = {
            "matrix": [[float(x) for x in row] for row in O.m],
            "params": list(O.params[:3]) if O.params else None,
            "residuals": [r1, r2],
            "kind_at_s": kind.value,
            "s": s,
        }
    else:
        O = LorentzTransform.from_params(phi=args.rot, chi=args.boost)
        report = invariance_check(source, O, args.s_range, n_samples=args.samples)
        payload["transform"] = {"matrix": [[float(x) for x in row] for row in O.m],
                               "boost": args.boost, "rot": args.rot}
        payload["invariance"] = {
            "front_preserved": report["front_preserved"],
            "ccr_preserved": report["ccr_preserved"],
            "kind_changes": report["kind_changes"],
        }
    _emit(args, payload)
    return EXIT_OK


# -- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nilscroll",
        description="B-scrolls in L^3, their dual minimal surfaces in Nil_3, "
        "and singularity classification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, t_range=False, grid=False):
        p.add_argument("--h", help="generator expression h(s)")
        p.add_argument("--H", type=float, default=1.0, help="mean curvature (nonzero)")
        p.add_argument("--s-range", type=_parse_range, default=(-1.0, 1.0),
                       metavar="LO:HI")
        if t_range:
            p.add_argument("--t-range", type=_parse_range, default=(-2.0, 2.0),
                           metavar="LO:HI")
        if grid:
            p.add_argument("--grid", type=_parse_grid, default=(120, 30),
                           metavar="NSxNT")

    p = sub.add_parser("surface", help="write OBJ meshes")
    common(p, t_range=True, grid=True)
    p.add_argument("--target", choices=["l3", "nil3", "both"], default="both")
    p.add_argument("--out", default="surface")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("singular", help="singular-curve report")
    common(p)
    p.add_argument("--out", default="singular")
    p.add_argument("--grid-n", type=int, default=256)
    p.add_argument("--tol-root", type=float, default=DEFAULT_TOL_ROOT)
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("verify", help="run the invariant suite")
    common(p)
    p.add_argument("--fd-step", type=float, default=1e-3)
    p.add_argument("--fd-tol", type=float, default=1e-6)
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("frame", help="Frenet-Serret flow from curvatures")
    common(p)
    p.add_argument("--kappa1", default="0")
    p.add_argument("--kappa2")
    p.add_argument("--init-frame", help="9 numbers: A1 A2 A3 B1 B2 B3 C1 C2 C3")
    p.add_argument("--s", type=float, help="parameter of the initial frame")
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--report")
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("family", help="O(2,1) transforms and invariance")
    common(p)
    p.add_argument("--boost", type=float, default=0.0)
    p.add_argument("--rot", type=float, default=0.0)
    p.add_argument("--find-notce", action="store_true")
    p.add_argument("--s", type=float)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--report")
    p.set_defaults(func=cmd_family)

    return ap


_VALUE_FLAGS = {"--s-range", "--t-range", "--boost", "--rot", "--s", "--H"}


def _merge_negative_values(argv):
    """Join flag/value pairs whose value starts with '-' (e.g. --s-range -1:1)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT if err.code not in (0, None) else 0
    try:
        H = getattr(args, "H", 1.0)
        if H == 0.0 or not math.isfinite(H):
            raise PreconditionError(f"H must be finite and non-zero, got {H!r}")
        if getattr(args, "samples", 0) < 0:
            raise PreconditionError(f"--samples must be >= 0, got {args.samples}")
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except NilscrollError as err:  # every other package error is numeric
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as err:  # a bug must not exit 1, the verification code
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
