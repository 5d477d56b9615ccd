"""Singular-curve location and classification on the Nil_3 surface.

The singular set of the dual surface is t(s) = -C3/(H*B3).  A point there
is a front iff kappa2 != 0; fronts split into cuspidal edges, swallowtails
and other front singularities by the direction of c_L' = d/ds f_L(s, t(s)),
while non-front points with kappa2' != 0 are cuspidal cross caps.  Fronts
cross-check the e3-parallel test on c_L' against the NotCE residual
r1 = (kappa2/H) B3^2 - 1.  r2 = 2 A3 B3 + 1 - C3^2 = 1 - <e3, e3> (with
e3 = -B3 A - A3 B + C3 C) is zero on every valid null frame: it is a
frame-validity residual, not a criterion.
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
    UnboundedCurve,
)
from .frames import B3_UNBOUNDED_TOL, NullFrame
from .lorentz import E1, ETA, LorentzTransform, Vec3L, mcross

DEFAULT_TOL_ROOT = 1e-10
DEFAULT_TOL_CLUSTER = 1e-6
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


def singular_t(frame: NullFrame, s=None):
    """t(s) = -C3/(H*B3), or None when |B3| < 1e-10 (curve unbounded)."""
    B3 = frame.B.x3.value
    if abs(B3) < B3_UNBOUNDED_TOL:
        return None
    return -frame.C.x3.value / (frame.H * B3)


def cL_jets(frame: NullFrame, cross_tol=1e-9):
    """(c_L', c_L'') along the singular curve c(s) = (s, t(s)).

    Computed twice: by jet differentiation of gamma + t(s) B(s) and from
    the closed form A + (-A3/B3 - kappa2/H + C3^2/B3^2) B - (C3/B3) C; the
    two routes must agree or classification is aborted.
    """
    B3 = frame.B.x3
    if abs(B3.value) < B3_UNBOUNDED_TOL:
        raise UnboundedCurve(f"B3({frame.s}) ~ 0")
    H = frame.H
    t = -frame.C.x3 / (B3 * H)
    n = t.order - 1
    tp = t.deriv()
    Bp = frame.B.deriv()
    # c_L' = A + t' B + t B'
    cL1_jet = Vec3L(
        *(
            a.truncate(n) + tp.truncate(n) * b.truncate(n) + t.truncate(n) * bp.truncate(n)
            for a, b, bp in zip(frame.A, frame.B, Bp)
        )
    )
    cL1 = cL1_jet.value()
    cL2 = cL1_jet.deriv().value()

    Av, Bv, Cv = frame.values()
    k2 = frame.kappa2.value
    coef = -Av.x3 / Bv.x3 - k2 / H + (Cv.x3 / Bv.x3) ** 2
    closed = Av + Bv * coef - Cv * (Cv.x3 / Bv.x3)
    diff = max(
        abs(closed.x1 - cL1.x1), abs(closed.x2 - cL1.x2), abs(closed.x3 - cL1.x3)
    )
    scale = 1.0 + max(abs(v) for v in (cL1.x1, cL1.x2, cL1.x3))
    if diff > cross_tol * scale:
        raise ClassifierInconsistency(
            f"c_L' closed form vs jet route differ by {diff:.3e} at s={frame.s}"
        )
    return cL1, cL2


def notce_residuals(frame: NullFrame):
    """(r1, r2) = ((kappa2/H) B3^2 - 1, 2 A3 B3 + 1 - C3^2): NotCE, frame validity."""
    Av, Bv, Cv = frame.values()
    r1 = (frame.kappa2.value / frame.H) * Bv.x3**2 - 1.0
    r2 = 2.0 * Av.x3 * Bv.x3 + 1.0 - Cv.x3**2
    return r1, r2


def classify_point(frame_source, s, tol_root=DEFAULT_TOL_ROOT) -> SingularPoint:
    frame = frame_source(s)
    H = frame.H
    k2 = frame.kappa2.value
    k2p = frame.kappa2.derivative(1)
    diag = {
        "S_h": -k2 * H,
        "S_h_prime": -k2p * H,
        "kappa2": k2,
        "kappa2_prime": k2p,
    }
    t = singular_t(frame)
    if t is None:
        return SingularPoint(s=s, t=None, kind=SingularKind.UNBOUNDED, diagnostics=diag)
    cL1, cL2 = cL_jets(frame)
    r1, r2 = notce_residuals(frame)
    diag.update(
        {
            "cL1": (cL1.x1, cL1.x2, cL1.x3),
            "cL2": (cL2.x1, cL2.x2, cL2.x3),
            "notce": (r1, r2),
        }
    )
    if abs(k2) > tol_root:
        pa = max(abs(cL1.x1), abs(cL1.x2))
        parallel = pa < tol_root
        notce = abs(r1) < tol_root
        if parallel != notce and max(pa, abs(r1)) > INCONSISTENCY_GAP:
            raise ClassifierInconsistency(
                f"parallel test ({pa:.3e}) vs NotCE residual r1 ({r1:.3e}) at s={s}"
            )
        if not parallel:
            kind = SingularKind.CUSPIDAL_EDGE
        elif max(abs(cL2.x1), abs(cL2.x2)) > tol_root:
            kind = SingularKind.SWALLOWTAIL
        else:
            kind = SingularKind.FRONT_OTHER
    else:
        if abs(k2p) > tol_root:
            kind = SingularKind.CUSPIDAL_CROSS_CAP
        else:
            kind = SingularKind.NON_FRONT_DEGENERATE
    return SingularPoint(s=s, t=t, kind=kind, diagnostics=diag)


# -- scanning --------------------------------------------------------------


def _polish(f, lo, hi, f_lo):
    """Root of f = (value, slope) in [lo, hi], f(lo) and f(hi) of opposite sign.

    Newton from the midpoint, bisecting when a step leaves the bracket or
    fails to halve the previous one; stops as brentq(xtol=1e-15, rtol=8.9e-16).
    """
    x = 0.5 * (lo + hi)
    dx = hi - lo
    for _ in range(200):
        fx, slope = f(x)
        if fx == 0.0:
            return x
        if not math.isfinite(fx):
            raise NumericFailure(f"value {fx} at s={x}")
        if (fx < 0.0) == (f_lo < 0.0):
            lo = x
        else:
            hi = x
        step = fx / slope if slope else math.inf
        if lo < x - step < hi and abs(step) <= 0.5 * abs(dx):
            dx = -step
        else:
            dx = 0.5 * (lo + hi) - x
        x += dx
        if abs(dx) < 0.5 * (1e-15 + 8.9e-16 * abs(x)):
            return x
    raise NumericFailure(f"no convergence in [{lo}, {hi}] after 200 steps")


def _bracket_roots(f, grid, vals, warnings, label, guard=None):
    """Polish every sign change of f = (value, slope) over consecutive grid cells."""
    roots = []
    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if not (math.isfinite(fa) and math.isfinite(fb)):
            continue
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            if guard is not None and not (guard(a) and guard(b)):
                continue
            try:
                roots.append(_polish(f, float(a), float(b), fa))
            except NilscrollError as err:
                warnings.append(f"WARN {label}: bracket [{a}, {b}] failed: {err}")
    return roots


def scan_singularities(
    frame_source,
    s_range,
    grid_n: int = 256,
    tol_root: float = DEFAULT_TOL_ROOT,
    tol_cluster: float = DEFAULT_TOL_CLUSTER,
    generator: str = "",
) -> SingularReport:
    """Locate and classify the isolated special points of the singular curve.

    Sign changes of kappa2 (cuspidal-cross-cap candidates) and of the first
    two components of c_L' (swallowtail candidates: both must vanish within
    tol_cluster, in cells clear of B3 poles) are bracketed on the grid,
    polished by Newton steps with jet slopes, then classified.  Zeros of B3
    only show as unbounded curve samples; a non-finite grid frame raises
    NumericFailure.
    """
    if grid_n < 16:
        raise ValueError("grid_n must be >= 16")
    lo, hi = float(s_range[0]), float(s_range[1])
    grid = np.linspace(lo, hi, grid_n)
    warnings: list[str] = []

    frames = []
    for s in grid:
        f = frame_source(s)
        if not all(map(math.isfinite, [*f.A.value(), *f.B.value(), *f.C.value()])):
            raise NumericFailure(f"non-finite frame at s={s}")
        frames.append(f)
    H = frames[0].H
    k2_vals = [f.kappa2.value for f in frames]

    def k2_of(s):
        k2 = frame_source(s).kappa2
        return k2.value, k2.derivative(1)

    # singular-curve samples with per-sample classification
    curve = []
    for s, f in zip(grid, frames):
        t = singular_t(f)
        try:
            kind = classify_point(frame_source, float(s), tol_root).kind
        except ClassifierInconsistency as err:
            warnings.append(f"WARN classify at s={s}: {err}")
            kind = None
        curve.append((float(s), t, kind))

    points = []

    # cuspidal cross cap candidates: roots of kappa2
    for r in _bracket_roots(k2_of, grid, k2_vals, warnings, "kappa2"):
        points.append(classify_point(frame_source, r, tol_root))
    if max(abs(v) for v in k2_vals) <= tol_root:
        # degenerate generator (S(h) identically ~ 0): whole curve non-front
        for s, t, _ in curve:
            kind = (SingularKind.UNBOUNDED if t is None
                    else SingularKind.NON_FRONT_DEGENERATE)
            points.append(SingularPoint(s=s, t=t, kind=kind))

    # swallowtail candidates: simultaneous roots of cL1 components 1 and 2,
    # restricted to cells clear of B3 poles
    b3_margin = 1e-6

    def guard(s):
        return abs(frame_source(s).B.x3.value) > b3_margin

    def comp(i):
        def f(s):
            cL1, cL2 = cL_jets(frame_source(s))
            return (cL1.x1, cL1.x2)[i], (cL2.x1, cL2.x2)[i]

        return f

    comp_vals = [[], []]
    for s, f in zip(grid, frames):
        if abs(f.B.x3.value) > b3_margin:
            try:
                cL1, _ = cL_jets(f)
                comp_vals[0].append(cL1.x1)
                comp_vals[1].append(cL1.x2)
                continue
            except ClassifierInconsistency as err:
                warnings.append(f"WARN cL1 at s={s}: {err}")
        comp_vals[0].append(math.nan)
        comp_vals[1].append(math.nan)

    roots1 = _bracket_roots(comp(0), grid, comp_vals[0], warnings, "cL1.x1", guard)
    roots2 = _bracket_roots(comp(1), grid, comp_vals[1], warnings, "cL1.x2", guard)
    for r1 in roots1:
        for r2 in roots2:
            if abs(r1 - r2) < tol_cluster:
                sc = 0.5 * (r1 + r2)
                pt = classify_point(frame_source, sc, tol_root)
                if pt.kind in (SingularKind.SWALLOWTAIL, SingularKind.FRONT_OTHER):
                    points.append(pt)

    # de-duplicate and sort
    uniq = {}
    for p in points:
        key = round(p.s / max(tol_cluster, 1e-12))
        if key not in uniq or p.kind != SingularKind.CUSPIDAL_EDGE:
            uniq[key] = p
    points = sorted(uniq.values(), key=lambda p: p.s)

    return SingularReport(
        generator=generator,
        H=H,
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


def transformed_source(O: LorentzTransform, frame_source):
    def source(s):
        return transform_frame(O, frame_source(s))

    return source


def invariance_check(frame_source, O: LorentzTransform, s_range, n_samples=50,
                     tol_root=DEFAULT_TOL_ROOT, extra_s=()):
    """Compare front/cross-cap status of f and f^O along the singular curve.

    Front and cuspidal-cross-cap status must be preserved; cuspidal edge vs
    swallowtail kinds may legitimately differ and are only reported.
    """
    src_o = transformed_source(O, frame_source)
    lo, hi = float(s_range[0]), float(s_range[1])
    svals = list(np.linspace(lo, hi, n_samples)) + [float(s) for s in extra_s]
    rows = []
    all_front_match = True
    all_ccr_match = True
    kind_changes = 0
    for s in svals:
        p = classify_point(frame_source, s, tol_root)
        q = classify_point(src_o, s, tol_root)
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
