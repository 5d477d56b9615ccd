"""Workload definitions: seeded CLI argument vectors and output checks.

Each workload cycles a fixed list of cases.  Call ``i`` of a run uses case
``i % len(cases)`` and draws its parameters from a generator seeded by
(workload, seed, i), so a run is replayable from its seed alone and no two
calls of a run share an input.  Call index -1 is the untimed warm-up.

Every case has a check that reads the call's outputs and returns None when
they are correct, or a one-line reason.  A case may carry ``known_defect``:
a documented defect of the program.  A call failing with exactly that
defect's reason still counts as failed, but does not mark the benchmark run
itself as broken.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Paper generators as plain float functions, used only to place Mobius
# poles outside the range; expected cross caps are the zeros of S(h).
GENERATORS = {
    "tanh": ("tanh(s)", math.tanh, []),
    "cubic": ("s + s^3", lambda s: s + s**3, [-1 / math.sqrt(6), 1 / math.sqrt(6)]),
    "cot": ("cot(exp(s)/2)", lambda s: 1 / math.tan(math.exp(s) / 2), [0.0]),
}
STIFF = ("s + 100000*s^3", [-1 / math.sqrt(6e5), 1 / math.sqrt(6e5)])
CROSS_CAP_TOL = 1e-8


@dataclass(frozen=True)
class Case:
    name: str
    make: Callable  # (rng, out) -> (argv, expect)
    check: Callable  # (argv, expect, rc, stdout, out) -> reason or None
    known_defect: str | None = None
    # the exact failure reason the known defect produces; any other counts
    known_failure: str | None = None


def num(x: float) -> str:
    """Number for the CLI; twelve digits keep seeded draws distinct."""
    return format(x, ".12g")


def term(x: float) -> str:
    """Number inside an expression, parenthesised if negative.

    The parentheses also keep an expression that would start with a minus
    sign from reading as a command-line flag.
    """
    return f"({num(x)})" if x < 0 else num(x)


def rng_for(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


# -- mesh ------------------------------------------------------------------

MESH_GRID = (120, 30)


def _mesh_case(key, s_range, t_range):
    expr = GENERATORS[key][0]

    def make(rng, out):
        H = rng.uniform(0.5, 2.0)
        argv = ["surface", "--h", expr, "--H", num(H),
                "--s-range", f"{s_range[0]}:{s_range[1]}",
                "--t-range", f"{t_range[0]}:{t_range[1]}",
                "--grid", f"{MESH_GRID[0]}x{MESH_GRID[1]}",
                "--target", "both", "--out", out]
        return argv, None

    return Case(f"surface-{key}", make, check_mesh)


def _read_obj(path):
    verts, faces = [], 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append(line.split()[1:4])
            elif line.startswith("f "):
                faces += 1
    return np.array(verts, dtype=float), faces


def check_mesh(argv, expect, rc, stdout, out):
    if rc != 0:
        return f"exit code {rc}"
    ns, nt = MESH_GRID
    paths = [f"{out}_l3.obj", f"{out}_nil3.obj"]
    if stdout.split() != paths:
        return f"printed {stdout.split()!r}, expected {paths!r}"
    meshes = []
    for path in paths:
        verts, faces = _read_obj(path)
        if verts.shape != (ns * nt, 3) or faces != (ns - 1) * (nt - 1):
            return f"{path}: {len(verts)} vertices, {faces} faces"
        if not np.all(np.isfinite(verts)):
            return f"{path}: non-finite vertex"
        meshes.append(verts.reshape(ns, nt, 3))
    l3, nil3 = meshes
    # rulings run along the null direction B: consecutive-t differences are null
    d = np.diff(l3, axis=1)
    q = -d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2
    worst = float(np.max(np.abs(q) / (np.sum(d * d, axis=-1) + 1e-300)))
    if worst > 1e-9:
        return f"L3 t-differences not null: relative <d,d> = {worst:.3e}"
    gap = float(np.max(np.abs(nil3[..., :2] - l3[..., :2]) / (1.0 + np.abs(l3[..., :2]))))
    if gap > 1e-12:
        return f"Nil3 x1,x2 differ from L3 by {gap:.3e}"
    return None


# -- scan ------------------------------------------------------------------


def _mobius(rng, expr, f, lo, hi):
    """Seeded (a*h+b)/(c*h+d), ad-bc != 0, with no pole on [lo, hi]."""
    hs = [f(lo + (hi - lo) * k / 400) for k in range(401)]
    while True:
        a, b, c, d = (float(num(rng.uniform(-2.0, 2.0))) for _ in range(4))
        if abs(a * d - b * c) < 0.5:
            continue
        den = [c * v + d for v in hs]
        margin = 0.2 * max(abs(x) for x in den)
        if min(den) > margin or max(den) < -margin:
            break
    text = f"({term(a)}*({expr}) + {term(b)})/({term(c)}*({expr}) + {term(d)})"
    return text, lambda s: (a * f(s) + b) / (c * f(s) + d)


def _scan_case(key, depth):
    expr0, f0, caps = GENERATORS[key]

    def make(rng, out):
        expr, f = expr0, f0
        for _ in range(depth):
            expr, f = _mobius(rng, expr, f, -1.0, 1.0)
        H = rng.uniform(0.5, 2.0)
        argv = ["singular", "--h", expr, "--H", num(H), "--s-range", "-1:1",
                "--out", out]
        return argv, caps

    label = f"singular-{key}" + (f"-mobius{depth}" if depth else "")
    return Case(label, make, check_scan)


def _stiff_make(rng, out):
    H = rng.uniform(0.5, 2.0)
    argv = ["singular", "--h", STIFF[0], "--H", num(H), "--s-range", "-1:1",
            "--out", out]
    return argv, STIFF[1]


def check_scan(argv, expect, rc, stdout, out):
    if rc != 0:
        return f"exit code {rc}"
    with open(f"{out}.json") as fh:
        report = json.load(fh)
    with open(f"{out}_curve.csv") as fh:
        rows = fh.read().splitlines()
    if len(rows) != 1 + 256:
        return f"curve CSV has {len(rows) - 1} rows, expected 256"
    got = sorted(p["s"] for p in report["points"] if p["kind"] == "cuspidal_cross_cap")
    if len(got) != len(expect) or any(
        abs(g - e) > CROSS_CAP_TOL for g, e in zip(got, sorted(expect))
    ):
        return f"cross caps at {got}, expected {sorted(expect)}"
    return None


# -- verify ----------------------------------------------------------------

# (H, lo, hi) boxes inside which the verify suite passes on every generator;
# the finite-difference form check is the binding constraint.
VERIFY_BOX = {
    "tanh": ((0.5, 0.9), (-0.85, -0.65), (0.65, 0.85)),
    "cubic": ((0.5, 2.0), (-1.2, -0.6), (0.6, 1.2)),
    "cot": ((0.5, 0.9), (-0.9, -0.6), (0.6, 0.9)),
}


def _verify_case(key):
    expr = GENERATORS[key][0]
    (h_lo, h_hi), (a_lo, a_hi), (b_lo, b_hi) = VERIFY_BOX[key]

    def make(rng, out):
        H = rng.uniform(h_lo, h_hi)
        lo, hi = rng.uniform(a_lo, a_hi), rng.uniform(b_lo, b_hi)
        argv = ["verify", "--h", expr, "--H", num(H),
                "--s-range", f"{num(lo)}:{num(hi)}",
                "--report", f"{out}.json"]
        return argv, None

    return Case(f"verify-{key}", make, check_verify)


def check_verify(argv, expect, rc, stdout, out):
    with open(f"{out}.json") as fh:
        report = json.load(fh)
    if rc != 0 or not report["all_pass"]:
        failed = [k for k, c in report["checks"].items() if not c["pass"]]
        return f"exit code {rc}, failed checks {failed}"
    return None


# -- family ----------------------------------------------------------------


def _notce_case(key, s_lo, s_hi):
    expr = GENERATORS[key][0]

    def make(rng, out):
        H = rng.uniform(0.5, 2.0)
        s = rng.uniform(s_lo, s_hi)
        argv = ["family", "--h", expr, "--H", num(H), "--find-notce", "--s", num(s),
                "--report", f"{out}.json"]
        return argv, None

    return Case(f"notce-{key}", make, check_notce)


def check_notce(argv, expect, rc, stdout, out):
    if rc != 0:
        return f"exit code {rc}"
    with open(f"{out}.json") as fh:
        tr = json.load(fh)["transform"]
    worst = max(abs(r) for r in tr["residuals"])
    if worst >= 1e-8 or tr["kind_at_s"] == "cuspidal_edge":
        return f"residual {worst:.3e}, kind {tr['kind_at_s']}"
    return None


def _invariance_case(key):
    expr = GENERATORS[key][0]

    def make(rng, out):
        H = rng.uniform(0.5, 2.0)
        boost, rot = rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi)
        argv = ["family", "--h", expr, "--H", num(H), "--boost", num(boost),
                "--rot", num(rot), "--s-range", "-1:1", "--report", f"{out}.json"]
        return argv, None

    return Case(f"invariance-{key}", make, check_invariance)


def check_invariance(argv, expect, rc, stdout, out):
    if rc != 0:
        return f"exit code {rc}"
    with open(f"{out}.json") as fh:
        inv = json.load(fh)["invariance"]
    if not (inv["front_preserved"] and inv["ccr_preserved"]):
        return f"invariance broken: {inv}"
    return None


def _so21(phi, chi, psi):
    """Rotation-boost-rotation element of SO+(2,1), signature (-,+,+)."""

    def rot(a):
        return np.array([[1, 0, 0], [0, math.cos(a), -math.sin(a)],
                         [0, math.sin(a), math.cos(a)]])

    boost = np.array([[math.cosh(chi), math.sinh(chi), 0],
                      [math.sinh(chi), math.cosh(chi), 0], [0, 0, 1]])
    return rot(phi) @ boost @ rot(psi)


# A valid null frame (A, B, C) for any H: <A,B> = -1, <C,C> = 1, C = A x B.
_BASE_FRAME = np.array([[1.0, 1.0, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, -1.0]])


def _flow_case(linear):
    # the integrator's drift grows with H and kappa2; inside these ranges
    # the worst frame residual stays near 1e-9, well below the 1e-8 check
    def make(rng, out):
        H = rng.uniform(0.5, 1.2)
        O = _so21(rng.uniform(-math.pi, math.pi), rng.uniform(-0.5, 0.5),
                  rng.uniform(-math.pi, math.pi))
        frame = (_BASE_FRAME @ O.T).ravel()
        k0 = rng.uniform(0.5, 2.0)
        kappa2 = f"{num(k0)} + {term(rng.uniform(-1.0, 1.0))}*s" if linear else num(k0)
        length = rng.uniform(0.5, 1.2)
        argv = ["frame", "--kappa2", kappa2, "--H", num(H),
                # one token: a leading minus sign would read as a flag
                "--init-frame=" + " ".join(repr(float(x)) for x in frame),
                "--s-range", f"0:{num(length)}", "--report", f"{out}.json"]
        return argv, None

    return Case("frame-flow-" + ("linear" if linear else "const"), make, check_flow)


def check_flow(argv, expect, rc, stdout, out):
    if rc != 0:
        return f"exit code {rc}"
    with open(f"{out}.json") as fh:
        rows = json.load(fh)["frames"]
    worst = max(r["worst_residual"] for r in rows)
    if len(rows) != 101 or not worst < 1e-8:
        return f"{len(rows)} frames, worst residual {worst:.3e}"
    return None


WORKLOADS = {
    "mesh": [
        _mesh_case("tanh", (-1.2, 1.2), (-3, 3)),
        _mesh_case("cubic", (-1, 1), (-2, 2)),
        _mesh_case("cot", (-1, 1), (-2, 2)),
    ],
    "scan": [_scan_case(k, depth) for depth in (0, 1, 2) for k in GENERATORS]
    + [Case("singular-stiff", _stiff_make, check_scan,
            known_defect="grid sign-change scan misses the cross caps of "
                         "s + 100000*s^3 inside the cell around 0",
            known_failure=f"cross caps at [], expected {sorted(STIFF[1])}")],
    "verify": [_verify_case(k) for k in GENERATORS],
    "family": [
        _notce_case("tanh", -1.5, 1.5),
        _notce_case("cot", -1.0, -0.05),
        _invariance_case("tanh"),
        _invariance_case("cubic"),
        _invariance_case("cot"),
        _flow_case(linear=False),
        _flow_case(linear=True),
    ],
}


# Raw calls per second of each workload on a 2-vCPU Intel Xeon VM.  A run
# makes a fixed number of calls, whole cycles of cases, planned from these
# rates so that it lasts about --seconds there.  The count does not depend on
# the machine's speed, so every run of a workload attempts the same calls and
# the known-defect failures (one per scan cycle) come out the same in every
# run; a time-limited loop would let them vary with the host's load.  A run
# makes at least MIN_CYCLES cycles: with fewer, the median of mesh's few long
# calls falls between two cases and its spread exceeds a third of its bound.
PLANNED_RATE = {"mesh": 0.38, "scan": 3.2, "verify": 1.4, "family": 9.0}
MIN_CYCLES = 3


def calls_per_run(workload: str, seconds: float) -> int:
    """Number of timed calls of one run: whole cycles, at least MIN_CYCLES."""
    n = len(WORKLOADS[workload])
    return n * max(MIN_CYCLES, round(seconds * PLANNED_RATE[workload] / n))


def call_input(workload: str, seed: int, i: int, out: str):
    """(case, argv, expect) of call i; out is the call's output prefix."""
    cases = WORKLOADS[workload]
    case = cases[i % len(cases)]
    argv, expect = case.make(rng_for(workload, seed, i), out)
    return case, argv, expect


def check_call(case: Case, argv, expect, rc, stdout, out):
    """Reason the call's outputs are wrong, or None; I/O problems count too."""
    try:
        return case.check(argv, expect, rc, stdout, out)
    except (OSError, ValueError, KeyError, TypeError) as err:
        return f"unreadable output: {type(err).__name__}: {err}"
