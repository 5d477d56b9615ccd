"""Command-line interface.

Subcommands: surface (OBJ meshes), singular (JSON report + CSV curve),
verify (invariant suite, exit code reflects pass/fail), frame (flow from
prescribed curvatures), family (O(2,1) transforms, invariance reports,
and the closed-form non-cuspidal-edge transform).

Exit codes: 0 ok, 1 verification failure, 2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import hexpr
from .errors import InputError, NilscrollError, NumericFailure, PreconditionError
from .frames import (
    frame_flow_from_curvatures,
    frame_jets_from_values,
    make_frame_source,
    validate_frame,
)
from .integrate import integrate_curve
from .io_formats import write_curve_csv, write_json, write_obj
from .lorentz import LorentzTransform, Vec3L
from .singular import (
    DEFAULT_TOL_ROOT,
    classify_point,
    find_notce_transform,
    invariance_check,
    notce_residuals,
    scan_singularities,
    transform_frame,
)
from .surface import ScrollSurface
from .verify import run_verify

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


def _emit(args, payload):
    if getattr(args, "report", None):
        write_json(args.report, payload)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


# -- surface ---------------------------------------------------------------


def cmd_surface(args) -> int:
    _require(args, "h")
    source = make_frame_source(hexpr.parse(args.h), args.H)
    s0 = 0.5 * (args.s_range[0] + args.s_range[1])
    surf = ScrollSurface(source, integrate_curve(source, s0, args.s_range))
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
    Av, Bv, Cv = (v.as_array().T.tolist() for v in frames.values())
    rows = [{"s": s, "A": a, "B": b, "C": c, "worst_residual": w}
            for s, a, b, c, w in zip(frames.s.tolist(), Av, Bv, Cv,
                                     validate_frame(frames).worst.tolist())]
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


@functools.cache  # parse_args leaves the parser unchanged
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
        if not sys.float_info.min <= H * H <= sys.float_info.max:  # the frames divide by H^2
            raise PreconditionError(f"H must be finite and non-zero, with H^2 a normal float, "
                                    f"got {H!r}")
        if getattr(args, "samples", 1) < 1:
            raise PreconditionError(f"--samples must be >= 1, got {args.samples}")
        s = getattr(args, "s", None)
        if s is not None and not math.isfinite(s):
            raise PreconditionError(f"--s must be finite, got {args.s!r}")
        for flag in ("fd_step", "fd_tol", "tol_root"):
            if not 0.0 < getattr(args, flag, 1.0) < math.inf:
                raise PreconditionError(f"--{flag.replace('_', '-')} must be finite and > 0, "
                                        f"got {getattr(args, flag)!r}")
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
