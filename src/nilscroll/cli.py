"""Command-line interface.

Subcommands: surface (OBJ meshes), singular (JSON report + CSV curve),
verify (invariant suite, exit code reflects pass/fail), frame (flow from
prescribed curvatures), family (O(2,1) transforms, invariance reports,
and the closed-form non-cuspidal-edge transform).

Exit codes: 0 ok, 1 verification failure, 2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

import numpy as np

from . import hexpr
from .errors import InputError, NilscrollError, NumericFailure, PreconditionError
from .frames import (
    finite_frames,
    frame_flow_from_curvatures,
    frame_jets_from_values,
    make_frame_source,
    validate_frame,
)
from .integrate import integrate_curve
from .io_formats import json_text, output_set, write_curve_csv, write_json, write_objs
from .lorentz import LorentzTransform
from .singular import (
    DEFAULT_TOL_ROOT,
    classify_point,
    find_notce_transform,
    invariance_check,
    scan_singularities,
)
from .surface import ScrollSurface
from .verify import run_verify

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


# argparse prints an ArgumentTypeError's message; for any other error of a
# type= function it names the function instead
def _parse_range(text: str):
    try:
        lo, hi = map(float, text.split(":"))
    except ValueError:  # not two parts, or a part that is not a number
        raise argparse.ArgumentTypeError(f"range must be lo:hi, got {text!r}") from None
    if not math.isfinite(hi - lo):  # an end, or the width, is not finite
        raise argparse.ArgumentTypeError(f"range needs finite ends and width, got {text!r}")
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"range needs lo < hi, got {text!r}")
    return lo, hi


def _parse_grid(text: str):
    try:
        ns, nt = map(int, text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be NSxNT, got {text!r}") from None
    if ns < 2 or nt < 2:
        raise argparse.ArgumentTypeError(f"grid needs at least 2x2, got {text!r}")
    return ns, nt


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise PreconditionError(f"--{name} is required for this subcommand")


def _emit(args, payload):
    if args.report:
        with output_set() as stage:
            write_json(stage(args.report), payload)
    else:
        sys.stdout.write(json_text(payload))


# -- surface ---------------------------------------------------------------


def cmd_surface(args) -> int:
    _require(args, "h")
    source = make_frame_source(hexpr.parse(args.h), args.H)
    (lo, hi), (ns, nt) = args.s_range, args.grid
    svals = np.linspace(lo, hi, ns)
    source.want(svals)  # the mesh rows come with the curve's first batch
    surf = ScrollSurface(source, integrate_curve(source, 0.5 * (lo + hi), args.s_range))
    verts = surf.mesh(svals, np.linspace(*args.t_range, nt))
    targets = ["l3", "nil3"] if args.target == "both" else [args.target]
    if not all(np.all(np.isfinite(verts[k])) for k in targets):
        raise NumericFailure("non-finite mesh vertex")
    paths = [f"{args.out}_{target}.obj" for target in targets]
    with output_set() as stage:  # every file is staged, then all are written in one pass
        write_objs([stage(path) for path in paths], [verts[k] for k in targets], ns, nt)
        print("\n".join(paths), flush=True)
    return EXIT_OK


# -- singular --------------------------------------------------------------


def cmd_singular(args) -> int:
    _require(args, "h")
    h_ast = hexpr.parse(args.h)
    source = make_frame_source(h_ast, args.H)
    report = scan_singularities(source, args.s_range, args.grid_n, args.tol_root,
                                hexpr.to_str(h_ast))
    csv_path, json_path = f"{args.out}_curve.csv", f"{args.out}.json"
    payload = {
        "generator": report.generator,
        "H": report.H,
        "s_range": list(report.s_range),
        "points": [{"s": p.s, "t": p.t, "kind": p.kind.value, "diagnostics": p.diagnostics}
                   for p in report.points],
        "curve_csv_path": csv_path,
        "warnings": report.warnings,
    }
    with output_set() as stage:
        write_curve_csv(stage(csv_path), report.curve.s, report.curve.t)
        write_json(stage(json_path), payload)
        print(json_path, csv_path, sep="\n", flush=True)
    return EXIT_OK


# -- verify ----------------------------------------------------------------


def cmd_verify(args) -> int:
    _require(args, "h")
    payload = run_verify(args.h, args.H, args.s_range)
    _emit(args, payload)
    return EXIT_OK if payload["all_pass"] else EXIT_VERIFY


# -- frame -----------------------------------------------------------------


def cmd_frame(args) -> int:
    _require(args, "kappa2", "init-frame")
    k1_ast = hexpr.parse(args.kappa1)
    k2_ast = hexpr.parse(args.kappa2)
    s0 = args.s if args.s is not None else args.s_range[0]
    try:
        vals = [float(tok) for tok in args.init_frame.replace(",", " ").split()]
    except ValueError:
        vals = []
    if len(vals) != 9:
        raise PreconditionError(f"--init-frame needs 9 numbers (A B C), got {args.init_frame!r}")
    init = frame_jets_from_values(vals[0:3], vals[3:6], vals[6:9], k1_ast, k2_ast, args.H, s0)
    frames = frame_flow_from_curvatures(k1_ast, k2_ast, args.H, init, args.s_range, args.samples)
    Av, Bv, Cv = (v.T.tolist() for v in frames.Y.value)
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
        O, g, residuals = find_notce_transform(finite_frames(source, np.array([args.s]))[0])
        payload["transform"] = {
            "matrix": O.m.tolist(),
            "params": None,
            "residuals": list(residuals),
            "kind_at_s": classify_point(g).kind.value,
            "s": args.s,
        }
    else:
        O = LorentzTransform.from_params(phi=args.rot, chi=args.boost)
        payload["invariance"] = invariance_check(source, O, args.s_range, n_samples=args.samples)
        payload["transform"] = {"matrix": O.m.tolist(), "boost": args.boost, "rot": args.rot}
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

    def command(name, summary, func, t_range=False, grid=False):
        """The subcommand's parser, with the options that every command takes."""
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
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
        return p

    p = command("surface", "write OBJ meshes", cmd_surface, t_range=True, grid=True)
    p.add_argument("--target", choices=["l3", "nil3", "both"], default="both")
    p.add_argument("--out", default="surface")

    p = command("singular", "singular-curve report", cmd_singular)
    p.add_argument("--out", default="singular")
    p.add_argument("--grid-n", type=int, default=256)
    p.add_argument("--tol-root", type=float, default=DEFAULT_TOL_ROOT)

    p = command("verify", "run the invariant suite", cmd_verify)
    p.add_argument("--report", help="write the JSON report here instead of stdout")

    p = command("frame", "Frenet-Serret flow from curvatures", cmd_frame)
    p.add_argument("--kappa1", default="0")
    p.add_argument("--kappa2")
    p.add_argument("--init-frame", help="9 numbers: A1 A2 A3 B1 B2 B3 C1 C2 C3")
    p.add_argument("--s", type=float, help="parameter of the initial frame")
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--report")

    p = command("family", "O(2,1) transforms and invariance", cmd_family)
    p.add_argument("--boost", type=float, default=0.0)
    p.add_argument("--rot", type=float, default=0.0)
    p.add_argument("--find-notce", action="store_true")
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--report")

    return ap


def _merge_negative_values(argv):
    """Join flag/value pairs whose value starts with '-' (e.g. --s-range -1:1),
    for every option of build_parser's subcommands that takes one value."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {o for p in sub.choices.values() for a in p._actions if a.nargs is None
             for o in a.option_strings}
    out = []
    for tok in argv:
        if out and out[-1] in flags and tok.startswith("-"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    argv = _merge_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT if err.code not in (0, None) else 0
    try:
        H = args.H
        if not sys.float_info.min <= H * H <= sys.float_info.max:  # the frames divide by H^2
            raise PreconditionError(f"H must be finite and non-zero, with H^2 a normal float, "
                                    f"got {H!r}")
        if getattr(args, "samples", 1) < 1:
            raise PreconditionError(f"--samples must be >= 1, got {args.samples}")
        if not math.isfinite(getattr(args, "s", None) or 0.0):  # frame's --s may be None
            raise PreconditionError(f"--s must be finite, got {args.s!r}")
        if not 0.0 < getattr(args, "tol_root", 1.0) < math.inf:
            raise PreconditionError(f"--tol-root must be finite and > 0, got {args.tol_root!r}")
        with np.errstate(all="ignore"):  # overflow shows as a non-finite value; commands report it
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not when the interpreter exits
        return code
    except BrokenPipeError:  # stdout's reader is gone; send the exit flush to devnull
        with contextlib.suppress(AttributeError, OSError, ValueError):  # not a file
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        print("error: cannot write <stdout>: Broken pipe", file=sys.stderr)
        return EXIT_INPUT
    except (InputError, MemoryError) as err:  # MemoryError: a count too large to allocate
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
