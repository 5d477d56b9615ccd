"""Singular-curve location and classification on the Nil_3 surface.

The singular set of the dual surface is t(s) = -C3/(H*B3).  A point there
is a front iff kappa2 != 0; fronts split into cuspidal edges, swallowtails
and other front singularities by the direction of c_L' = d/ds f_L(s, t(s)),
while non-front points with kappa2' != 0 are cuspidal cross caps.  Fronts
cross-check the e3-parallel test on c_L' against the NotCE residual
r1 = (kappa2/H) B3^2 - 1.  r2 = 2 A3 B3 + 1 - C3^2 = 1 - <e3, e3> (with
e3 = -B3 A - A3 B + C3 C) is zero on every valid null frame: it is a
frame-validity residual, not a criterion.

classify_point is the one classifier: it decides every point of a frame
batch in one array pass and reports c_L' and c_L'' in its diagnostics.
On a valid frame c_L' is parallel to e3 exactly where r1 = 0, so the scan
looks for swallowtails as roots of r1, which is finite wherever the frame
is (c_L' has poles at B3 = 0), and for cuspidal cross caps as roots of
kappa2: two scalar channels, each root a candidate of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    ClassifierInconsistency,
    NilscrollError,
    NoSolutionFound,
    NumericFailure,
    OrientationBreak,
    PreconditionError,
)
from .frames import B3_UNBOUNDED_TOL, NullFrame, finite_frames
from .lorentz import E1, ETA, LorentzTransform, Vec3L, mcross

DEFAULT_TOL_ROOT = 1e-10
# scan points closer than this are reported once
TOL_CLUSTER = 1e-6
# the two routes to c_L' must agree to this, relative to 1 + |c_L'|
CROSS_TOL = 1e-9
# one criterion clearly zero while the other is clearly nonzero
INCONSISTENCY_GAP = 1e-6


class SingularKind(str, Enum):
    CUSPIDAL_EDGE = "cuspidal_edge"
    SWALLOWTAIL = "swallowtail"
    CUSPIDAL_CROSS_CAP = "cuspidal_cross_cap"
    FRONT_OTHER = "front_other"
    NON_FRONT_DEGENERATE = "non_front_degenerate"
    UNBOUNDED = "unbounded"


FRONT_KINDS = {
    SingularKind.CUSPIDAL_EDGE,
    SingularKind.SWALLOWTAIL,
    SingularKind.FRONT_OTHER,
}


@dataclass(frozen=True)
class SingularPoint:
    s: float
    t: float | None  # None encodes the unbounded case (B3 ~ 0)
    kind: SingularKind
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_front(self):
        return self.kind in FRONT_KINDS


@dataclass
class SingularReport:
    generator: str
    H: float
    s_range: tuple
    curve: list  # (s, t or None, kind) samples along the singular curve
    points: list  # refined special SingularPoints, sorted by s
    warnings: list


def singular_t(frame: NullFrame):
    """t(s) = -C3/(H*B3), or None when |B3| < 1e-10 (curve unbounded); for a
    batch, an array with NaN at the unbounded points."""
    B3 = frame.B.x3.value
    with np.errstate(all="ignore"):
        t = np.divide(-frame.C.x3.value, frame.H * B3)
    unbounded = np.abs(B3) < B3_UNBOUNDED_TOL
    if np.ndim(t):
        return np.where(unbounded, np.nan, t)
    return None if unbounded else float(t)


def _cL_points(frame: NullFrame):
    """(c_L', c_L'', unbounded, gap) at each point of the frame, as arrays.

    c_L' = d/ds f_L(s, t(s)) along the singular curve c(s) = (s, t(s)) is
    computed twice: by jet differentiation of gamma + t(s) B(s) and from the
    closed form A + (-A3/B3 - kappa2/H + C3^2/B3^2) B - (C3/B3) C.  unbounded
    marks |B3| < B3_UNBOUNDED_TOL, where c_L' and c_L'' are NaN; gap is the
    difference of the two routes where it exceeds CROSS_TOL * (1 + |c_L'|),
    else 0.
    """
    B3 = np.atleast_1d(frame.B.x3.value)
    unbounded = np.abs(B3) < B3_UNBOUNDED_TOL
    cL1, cL2 = (Vec3L(*np.full((3, len(B3)), np.nan)) for _ in range(2))
    gap = np.zeros(len(B3))
    keep = np.flatnonzero(~unbounded)
    if not len(keep):
        return cL1, cL2, unbounded, gap
    f = frame.take(keep) if len(keep) < len(B3) else frame
    H = f.H
    with np.errstate(all="ignore"):
        t = -f.C.x3 / (f.B.x3 * H)
        n = t.order - 1
        tp = t.deriv()
        # c_L' = A + t' B + t B'
        jet = Vec3L(*(
            a.truncate(n) + tp.truncate(n) * b.truncate(n) + t.truncate(n) * bp.truncate(n)
            for a, b, bp in zip(f.A, f.B, f.B.deriv())
        ))
        d1, d2 = jet.value(), jet.deriv().value()
        Av, Bv, Cv = f.values()
        coef = -Av.x3 / Bv.x3 - f.kappa2.value / H + (Cv.x3 / Bv.x3) ** 2
        closed = Av + Bv * coef - Cv * (Cv.x3 / Bv.x3)
        diff = np.atleast_1d((closed - d1).max_abs())
        scale = 1.0 + np.atleast_1d(d1.max_abs())
        gap[keep] = np.where(diff > CROSS_TOL * scale, diff, 0.0)
    for full, part in ((cL1, d1), (cL2, d2)):
        for comp, val in zip(full, part):
            comp[keep] = val
    return cL1, cL2, unbounded, gap


def notce_residuals(frame: NullFrame):
    """(r1, r2) = ((kappa2/H) B3^2 - 1, 2 A3 B3 + 1 - C3^2): NotCE, frame validity."""
    Av, Bv, Cv = frame.values()
    r1 = (frame.kappa2.value / frame.H) * Bv.x3**2 - 1.0
    r2 = 2.0 * Av.x3 * Bv.x3 + 1.0 - Cv.x3**2
    return r1, r2


def classify_point(frame: NullFrame, tol_root=DEFAULT_TOL_ROOT, raise_errors=True):
    """Kind of the singular-curve point at each of the frame's s.

    A single-point frame gives one SingularPoint, a batch a list in order;
    every point's diagnostics hold S(h), kappa2 and their slopes and, where
    t(s) is bounded, c_L' ("cL1"), c_L'' ("cL2") and the NotCE residuals.
    Where the two c_L' routes, or the parallel test and the NotCE residual
    r1, disagree, ClassifierInconsistency is raised for the first such
    point; with raise_errors=False it takes that point's place in the list.
    """
    s = np.atleast_1d(frame.s).tolist()
    H = frame.H
    k2 = np.atleast_1d(frame.kappa2.value)
    k2p = np.atleast_1d(frame.kappa2.derivative(1))
    with np.errstate(all="ignore"):
        t = np.atleast_1d(np.divide(-frame.C.x3.value, H * frame.B.x3.value))
    cL1, cL2, unbounded, gap = _cL_points(frame)
    r1, r2 = (np.atleast_1d(r) for r in notce_residuals(frame))
    pa = np.maximum(np.abs(cL1.x1), np.abs(cL1.x2))
    front = np.abs(k2) > tol_root
    parallel = pa < tol_root
    clash = front & (parallel != (np.abs(r1) < tol_root)) & (
        np.maximum(pa, np.abs(r1)) > INCONSISTENCY_GAP)
    kind = np.select(
        [~front & (np.abs(k2p) > tol_root), ~front, ~parallel,
         np.maximum(np.abs(cL2.x1), np.abs(cL2.x2)) > tol_root],
        ["cuspidal_cross_cap", "non_front_degenerate", "cuspidal_edge", "swallowtail"],
        "front_other")
    cols = [(-k2 * H).tolist(), (-k2p * H).tolist(), k2.tolist(), k2p.tolist()]
    c1, c2 = zip(*(c.tolist() for c in cL1)), zip(*(c.tolist() for c in cL2))
    out = []
    for i, (x, c1i, c2i) in enumerate(zip(s, c1, c2)):
        diag = dict(zip(("S_h", "S_h_prime", "kappa2", "kappa2_prime"), (c[i] for c in cols)))
        if unbounded[i]:
            out.append(SingularPoint(s=x, t=None, kind=SingularKind.UNBOUNDED, diagnostics=diag))
            continue
        diag.update({"cL1": c1i, "cL2": c2i, "notce": (float(r1[i]), float(r2[i]))})
        if gap[i] or clash[i]:
            err = ClassifierInconsistency(
                f"c_L' closed form vs jet route differ by {gap[i]:.3e} at s={x}" if gap[i] else
                f"parallel test ({pa[i]:.3e}) vs NotCE residual r1 ({r1[i]:.3e}) at s={x}")
            if raise_errors:
                raise err
            out.append(err)
            continue
        out.append(SingularPoint(s=x, t=float(t[i]), kind=SingularKind(kind[i]), diagnostics=diag))
    return out if frame.kappa2.batched else out[0]


# -- scanning --------------------------------------------------------------


def _polish(f, lo, hi, f_lo, chan, floor):
    """Roots of f in the brackets [lo, hi], f(lo) and f(hi) of opposite signs.

    All brackets step together.  f gets the current points of the brackets
    still stepping and returns (values, slopes) there, one row per channel;
    chan names each bracket's channel.  Each bracket runs rtsafe (Numerical
    Recipes): Newton from the midpoint, bisecting when a step leaves the
    bracket or fails to halve the one before the previous, ending when |f|
    is at or below the bracket's floor (the rounding level of f there),
    when a step does not move x or, as brentq(xtol=1e-15, rtol=8.9e-16), is
    small.  A value that is not finite stops its bracket with the package
    error that f raises at that point alone, else a NumericFailure naming
    the value.  Returns the roots, NaN where errors[i] stopped bracket i,
    and errors.
    """
    n = len(lo)
    x = 0.5 * (lo + hi)
    dx = dx_old = hi - lo
    roots = np.full(n, np.nan)
    errors = {}
    live = np.ones(n, bool)
    with np.errstate(all="ignore"):
        for _ in range(200):
            idx = np.flatnonzero(live)
            if not len(idx):
                break
            # each stepping bracket's own channel of f's rows, full length
            fx, slope = np.full((2, n), np.nan)
            fx[idx], slope[idx] = (v[chan[idx], np.arange(len(idx))] for v in f(x[idx]))
            hit = live & (np.abs(fx) <= floor)
            roots[hit] = x[hit]
            live &= ~hit
            for i in np.flatnonzero(live & ~np.isfinite(fx)):
                errors[i], live[i] = NumericFailure(f"value {fx[i]} at s={x[i]}"), False
                try:
                    f(float(x[i]))
                except NilscrollError as err:
                    errors[i] = err
            below = (fx < 0.0) == (f_lo < 0.0)
            lo = np.where(live & below, x, lo)
            hi = np.where(live & ~below, x, hi)
            step = np.where(slope != 0.0, fx / slope, np.inf)
            newton = ((lo < x - step) & (x - step < hi) | (x - step == x)) & (
                np.abs(step) <= 0.5 * np.abs(dx_old))
            dx_old, dx = dx, np.where(live, np.where(newton, -step, 0.5 * (lo + hi) - x), dx)
            x = np.where(live, x + dx, x)
            done = live & (np.abs(dx) < 0.5 * (1e-15 + 8.9e-16 * np.abs(x)))
            roots[done] = x[done]
            live &= ~done
    for i in np.flatnonzero(live):
        errors[i] = NumericFailure(f"no convergence in [{lo[i]}, {hi[i]}] after 200 steps")
    return roots, errors


def _bracket_roots(f, grid, vals, labels, floors):
    """Roots of each channel of f = (values, slopes) between finite grid values.

    vals and floors hold one row per channel over the grid, labels one name;
    f returns one row per channel (see _polish).  A grid value of exactly 0
    is a root, and every sign change is polished, each bracket ending where
    |f| is at or below the larger of its ends' floors (the rounding level of
    f at the grid points).  Returns (roots, warnings): the roots of each
    channel in grid order, and a warning giving the error of each bracket
    that fails, channel by channel.
    """
    a, b = vals[:, :-1], vals[:, 1:]
    with np.errstate(all="ignore"):
        finite = np.isfinite(a) & np.isfinite(b)
        cross = finite & (a * b < 0.0)
    c, i = np.nonzero(finite & (a == 0.0) | cross)
    k = np.flatnonzero(cross[c, i])
    lo, hi = grid[i[k]], grid[i[k] + 1]
    roots, errors = _polish(f, lo, hi, a[c[k], i[k]], c[k],
                            np.maximum(floors[c[k], i[k]], floors[c[k], i[k] + 1]))
    found = grid[i]
    found[k] = roots  # NaN where the bracket failed
    warnings = [f"WARN {labels[c[k[m]]]}: bracket [{lo[m]}, {hi[m]}] failed: {errors[m]}"
                for m in sorted(errors)]
    return [found[(c == n) & ~np.isnan(found)].tolist() for n in range(len(vals))], warnings


def _r1_channel(frame: NullFrame):
    """(r1, r1', floor) at each point: the NotCE residual r1 = (kappa2/H) B3^2 - 1,
    its slope (kappa2' B3^2 + 2 kappa2 B3 B3')/H from the frame jets, and its
    rounding floor 8 eps |kappa2 B3^2/H|, below which its sign is noise."""
    H, k2, dk2 = frame.H, frame.kappa2.value, frame.kappa2.derivative(1)
    B3, dB3 = frame.B.x3.value, frame.B.x3.derivative(1)
    r1 = notce_residuals(frame)[0]
    slope = (dk2 * B3 * B3 + 2.0 * k2 * B3 * dB3) / H
    return r1, slope, 8.0 * np.finfo(float).eps * np.abs(r1 + 1.0)


def scan_singularities(
    frame_source,
    s_range,
    grid_n: int = 256,
    tol_root: float = DEFAULT_TOL_ROOT,
    generator: str = "",
) -> SingularReport:
    """Locate and classify the isolated special points of the singular curve.

    One batch of grid frames gives the curve samples, classified by one
    classify_point call.  Two channels, both finite wherever the frame is,
    are bracketed at grid sign changes: kappa2 (cuspidal-cross-cap
    candidates) and the NotCE residual r1 (swallowtail candidates: on a
    valid frame c_L' is parallel to e3 exactly where r1 = 0).  Their
    brackets are polished together by Newton steps with jet slopes, one
    frame batch per step, and the roots are classified in one batch; points
    closer than TOL_CLUSTER are reported once.  A NaN frame ends its bracket
    with a warning that gives the point's own error.  A sign flip of
    B1 = H(1+h^2)/(2h') between grid nodes is flagged as a cell where h'
    changes sign.  A degenerate generator (|kappa2| <= tol_root on the whole
    grid) reports every grid sample as non_front_degenerate (or unbounded),
    and its kappa2 is not bracketed.  Zeros of B3 only show as unbounded
    curve samples; the first grid or root frame that is not finite raises
    (see frames.raise_first).
    """
    if grid_n < 16:
        raise PreconditionError("grid_n must be >= 16")
    lo, hi = float(s_range[0]), float(s_range[1])
    grid = np.linspace(lo, hi, grid_n)

    frames = finite_frames(frame_source, grid)
    k2_vals = frames.kappa2.value

    # singular-curve samples with per-sample classification
    warnings: list[str] = []
    curve = []
    for s, t, p in zip(grid.tolist(), singular_t(frames).tolist(),
                       classify_point(frames, tol_root, raise_errors=False)):
        failed = isinstance(p, ClassifierInconsistency)
        if failed:
            warnings.append(f"WARN classify at s={s}: {p}")
        curve.append((s, None if math.isnan(t) else t, None if failed else p.kind))

    # the sign of B1 is that of h' (times H): a zero of h' or an even-order
    # pole of h lies in each cell where it flips
    B1 = frames.B.x1.value
    warnings += [f"WARN h' changes sign in [{grid[i]}, {grid[i + 1]}]"
                 for i in np.flatnonzero(np.sign(B1[:-1]) * np.sign(B1[1:]) < 0)]

    def channels(x):
        """kappa2 and r1 with their slopes at the points x (a float x whose
        frame fails raises), NaN where the frame is."""
        f = frame_source(x)
        r1, dr1, _ = _r1_channel(f)
        return np.array([f.kappa2.value, r1]), np.array([f.kappa2.derivative(1), dr1])

    # a degenerate generator (S(h) identically ~ 0) has kappa2 only in its
    # rounding noise: its sign changes are not roots, so its channel is left out
    degenerate = np.max(np.abs(k2_vals)) <= tol_root
    r1_vals, _, r1_floor = _r1_channel(frames)
    (k2_roots, r1_roots), bracket_warnings = _bracket_roots(
        channels, grid, np.vstack([np.where(degenerate, np.nan, k2_vals), r1_vals]),
        ["kappa2", "r1"], np.vstack([np.zeros(grid_n), r1_floor]))
    warnings += bracket_warnings

    # cuspidal cross caps at the roots of kappa2, swallowtails at those of r1
    targets = np.array(k2_roots + r1_roots)
    found = classify_point(finite_frames(frame_source, targets), tol_root) if len(targets) else []
    points = found[: len(k2_roots)]
    if degenerate:
        # the whole curve is non-front
        for s, t, _ in curve:
            kind = (SingularKind.UNBOUNDED if t is None
                    else SingularKind.NON_FRONT_DEGENERATE)
            points.append(SingularPoint(s=s, t=t, kind=kind))
    points += [p for p in found[len(k2_roots):]
               if p.kind in (SingularKind.SWALLOWTAIL, SingularKind.FRONT_OTHER)]

    # de-duplicate and sort
    uniq = {}
    for p in points:
        key = round(p.s / TOL_CLUSTER)
        if key not in uniq or p.kind != SingularKind.CUSPIDAL_EDGE:
            uniq[key] = p
    points = sorted(uniq.values(), key=lambda p: p.s)

    return SingularReport(
        generator=generator,
        H=frames.H,
        s_range=(lo, hi),
        curve=curve,
        points=points,
        warnings=warnings,
    )


# -- O(2,1) family ---------------------------------------------------------


def transform_frame(O: LorentzTransform, frame: NullFrame) -> NullFrame:
    """(A,B,C) -> (OA, OB, OC); kappa2 is an isometry invariant."""
    if O.det < 0:
        raise OrientationBreak(f"det O = {O.det:.3f}: OA x OB = -OC")
    return NullFrame(
        s=frame.s,
        A=O.apply(frame.A),
        B=O.apply(frame.B),
        C=O.apply(frame.C),
        kappa1=frame.kappa1,
        kappa2=frame.kappa2,
        H=frame.H,
    )


def invariance_check(frame_source, O: LorentzTransform, s_range, n_samples=50,
                     tol_root=DEFAULT_TOL_ROOT, extra_s=()):
    """Compare front/cross-cap status of f and f^O along the singular curve.

    One batch of frames at the samples classifies both f and its transform
    f^O; the first point whose criteria disagree raises.  Front
    and cuspidal-cross-cap status must be preserved; cuspidal edge vs
    swallowtail kinds may legitimately differ and are only reported.
    """
    lo, hi = float(s_range[0]), float(s_range[1])
    svals = np.concatenate([np.linspace(lo, hi, n_samples), np.asarray(extra_s, dtype=float)])
    f = finite_frames(frame_source, svals)
    ps = classify_point(f, tol_root, raise_errors=False)
    qs = classify_point(transform_frame(O, f), tol_root, raise_errors=False)
    rows = []
    all_front_match = True
    all_ccr_match = True
    kind_changes = 0
    for s, p, q in zip(svals.tolist(), ps, qs):
        for r in (p, q):
            if isinstance(r, ClassifierInconsistency):
                raise r
        if p.kind is SingularKind.UNBOUNDED or q.kind is SingularKind.UNBOUNDED:
            rows.append({"s": s, "kind": p.kind.value, "kind_O": q.kind.value,
                         "front_match": None, "ccr_match": None})
            continue
        front_match = p.is_front == q.is_front
        ccr_match = (p.kind is SingularKind.CUSPIDAL_CROSS_CAP) == (
            q.kind is SingularKind.CUSPIDAL_CROSS_CAP
        )
        all_front_match &= front_match
        all_ccr_match &= ccr_match
        if p.kind != q.kind:
            kind_changes += 1
        rows.append(
            {
                "s": s,
                "t": p.t,
                "t_O": q.t,
                "kind": p.kind.value,
                "kind_O": q.kind.value,
                "front_match": front_match,
                "ccr_match": ccr_match,
            }
        )
    return {
        "front_preserved": all_front_match,
        "ccr_preserved": all_ccr_match,
        "kind_changes": kind_changes,
        "samples": rows,
    }


def find_notce_transform(frame: NullFrame, residual_tol: float = 1e-8) -> LorentzTransform:
    """The SO+(2,1) transform O that makes the frame's point non-cuspidal.

    NotCE needs (OB)_3 = <O^-1 e3, B> = +-sqrt(H/kappa2), so kappa2/H > 0.
    w = -sqrt(H/kappa2) A + C is unit spacelike with <w, B> = sqrt(H/kappa2);
    O^-1 = [u0 | w x u0 | w] with the future unit timelike u0 = (e1 + w1 w) /
    sqrt(1 + w1^2) has det <w x u0, w x u0> = +1, and O = eta (O^-1)^T eta.
    """
    k2 = frame.kappa2.value
    H = frame.H
    if k2 / H <= 0:
        raise PreconditionError(f"kappa2/H = {k2 / H:.3e} <= 0: no solution exists")
    A, _, C = frame.values()
    w = C - A * math.sqrt(H / k2)
    u0 = (E1 + w * w.x1) / math.sqrt(1.0 + w.x1 * w.x1)
    rows = [u.as_array() for u in (u0, mcross(w, u0), w)]  # (O^-1)^T
    O = LorentzTransform(m=ETA @ np.array(rows) @ ETA)
    residuals = notce_residuals(transform_frame(O, frame))
    if not max(abs(r) for r in residuals) < residual_tol:
        raise NoSolutionFound(residuals, "closed-form transform misses the NotCE residuals")
    return O
