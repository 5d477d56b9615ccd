"""Singular-curve location and classification on the Nil_3 surface.

The singular set of the dual surface is t(s) = -C3/(H*B3), unbounded where
B3/H ~ 0.  Every criterion reads a number that H does not scale.  A point
is a front iff kappa2*H = -S(h) != 0; a non-front point with kappa2'*H !=
0 is a cuspidal cross cap.  A front is a cuspidal edge where the NotCE
residual r1 = (kappa2/H) B3^2 - 1 is nonzero: on a valid frame c_L' =
d/ds f_L(s, t(s)) has (c_L'_1, c_L'_2) = -(r1/B3^2)(B1, B2), so r1 = 0 is
where c_L' is parallel to e3.  There the front is a swallowtail if r1' !=
0, else another front singularity.  r2 = 2 A3 B3 + 1 - C3^2 = 1 - <e3, e3>
(with e3 = -B3 A - A3 B + C3 C) is zero on every valid null frame: it is a
frame-validity residual, not a criterion.

classify_point is the one classifier: it decides every point of a frame
batch in one array pass and returns the columns as one Classification
table (kinds, t, kappa2, c_L', c_L'', the NotCE residuals and the points
where c_L''s closed form and jet route disagree, its one check of the
frame).  Only a single point or a point that a scan reports becomes a
SingularPoint object.  The scan looks for swallowtails as roots of r1,
finite wherever the frame is (c_L' has poles at B3 = 0), and for cuspidal
cross caps as roots of kappa2: two channels, each root a candidate of its
own, polished by Halley steps from Taylor seeds that the grid jets give.
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
from .jets import _cauchy, _quotient, _scaled_tail
from .lorentz import ETA, LorentzTransform, mcross

DEFAULT_TOL_ROOT = 1e-10
# scan points closer than this are reported once
TOL_CLUSTER = 1e-6
# the two routes to c_L' must agree to this, relative to 1 + |c_L'|
CROSS_TOL = 1e-9


class SingularKind(str, Enum):
    CUSPIDAL_EDGE = "cuspidal_edge"
    SWALLOWTAIL = "swallowtail"
    CUSPIDAL_CROSS_CAP = "cuspidal_cross_cap"
    FRONT_OTHER = "front_other"
    NON_FRONT_DEGENERATE = "non_front_degenerate"
    UNBOUNDED = "unbounded"


FRONT_KINDS = {SingularKind.CUSPIDAL_EDGE, SingularKind.SWALLOWTAIL, SingularKind.FRONT_OTHER}


@dataclass(frozen=True)
class SingularPoint:
    s: float
    t: float | None  # None encodes the unbounded case (B3 ~ 0)
    kind: SingularKind
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Classification:
    """classify_point's verdict on a frame batch, one column per quantity.

    s, t (NaN where the curve is unbounded), kind (SingularKind values),
    kappa2, kappa2_prime, r1 and r2 hold one entry per point, cL1 and cL2
    (c_L' and c_L'', NaN where t is unbounded) one column each of shape
    (3, N).  errors maps the index of each point where c_L''s two routes
    disagree to its ClassifierInconsistency; such a point keeps its other
    columns.
    """

    s: np.ndarray
    t: np.ndarray
    kind: np.ndarray
    kappa2: np.ndarray
    kappa2_prime: np.ndarray
    cL1: np.ndarray
    cL2: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    H: float
    errors: dict

    def raise_first(self):
        """Raise the inconsistency of the first point, in order, that has one."""
        if self.errors:
            raise self.errors[min(self.errors)]

    def point(self, i) -> SingularPoint:
        """Point i as a SingularPoint (raising its inconsistency, if any): its
        diagnostics hold S(h), kappa2 and their slopes and, where t(s) is
        bounded, c_L' ("cL1"), c_L'' ("cL2") and the NotCE residuals."""
        if i in self.errors:
            raise self.errors[i]
        k2, k2p, t = float(self.kappa2[i]), float(self.kappa2_prime[i]), float(self.t[i])
        diag = {"S_h": -k2 * self.H, "S_h_prime": -k2p * self.H, "kappa2": k2, "kappa2_prime": k2p}
        if not math.isnan(t):
            diag.update(cL1=self.cL1[:, i].tolist(), cL2=self.cL2[:, i].tolist(),
                        notce=[float(self.r1[i]), float(self.r2[i])])
        return SingularPoint(s=float(self.s[i]), t=None if math.isnan(t) else t,
                             kind=SingularKind(self.kind[i]), diagnostics=diag)


@dataclass
class SingularReport:
    generator: str
    H: float
    s_range: tuple
    curve: Classification  # the grid samples along the singular curve
    points: list  # refined special SingularPoints, sorted by s
    warnings: list


def singular_t(frame: NullFrame):
    """t(s) = -C3/(H*B3), or None when |B3/H| < 1e-10 (curve unbounded); for
    a batch, an array with NaN at the unbounded points."""
    B3 = frame.B[2].value
    with np.errstate(all="ignore"):
        t = np.divide(-frame.C[2].value, frame.H * B3)
    unbounded = np.abs(B3 / frame.H) < B3_UNBOUNDED_TOL
    if np.ndim(t):
        return np.where(unbounded, np.nan, t)
    return None if unbounded else float(t)


def _cL_points(frame: NullFrame):
    """(c_L', c_L'', unbounded, gap) at each point of a frame batch, as
    arrays (c_L' and c_L'' of shape (3, N)).

    c_L' = d/ds f_L(s, t(s)) along the singular curve c(s) = (s, t(s)) is
    computed twice: by jet differentiation of gamma + t(s) B(s) and from the
    closed form A + (-A3/B3 - kappa2/H + C3^2/B3^2) B - (C3/B3) C.  unbounded
    marks |B3/H| < B3_UNBOUNDED_TOL, where c_L' and c_L'' are NaN; gap is the
    difference of the two routes where it exceeds CROSS_TOL * (1 + |c_L'|),
    else 0.
    """
    Y, H = frame.Y.taylor(), frame.H
    with np.errstate(all="ignore"):
        # c_L' = A + t' B + t B', t = -C3/(H B3), to first order, in the Jet operators' steps
        A, B = Y[:, 0], Y[:, 1]
        b = B[:, 2] * H
        t = _quotient(-Y[:, 2, 2], np.where(b[0] == 0.0, np.nan, b))
        jet = (A[:-1] + _cauchy(_scaled_tail(t)[:, None], B[:-1])
               + _cauchy(t[:-1, None], _scaled_tail(B)))
        Av, Bv, Cv = Y[0]
        coef = -Av[2] / Bv[2] - frame.kappa2.value / H + (Cv[2] / Bv[2]) ** 2
        diff = np.abs(Av + Bv * coef - Cv * (Cv[2] / Bv[2]) - jet[0]).max(axis=0)
        gap = np.where(diff > CROSS_TOL * (1.0 + np.abs(jet[0]).max(axis=0)), diff, 0.0)
    unbounded = np.abs(Bv[2] / H) < B3_UNBOUNDED_TOL
    cL1, cL2 = np.where(unbounded, np.nan, jet[:2])
    return cL1, cL2, unbounded, np.where(unbounded, 0.0, gap)


def notce_residuals(frame: NullFrame):
    """(r1, r2) = ((kappa2/H) B3^2 - 1, 2 A3 B3 + 1 - C3^2): NotCE, frame validity."""
    A3, B3, C3 = (v[2].value for v in frame.Y)  # floats at one point, for NoSolutionFound
    return (frame.kappa2.value / frame.H) * B3**2 - 1.0, 2.0 * A3 * B3 + 1.0 - C3**2


def classify_point(frame: NullFrame, tol_root=DEFAULT_TOL_ROOT):
    """Kind of the singular-curve point at each of the frame's s.

    A batch gives its Classification, decided in one array pass; a
    single-point frame gives its SingularPoint (Classification.point).
    Each zero test compares kappa2*H, kappa2'*H, r1 or r1' (see _channels)
    with tol_root, or B3/H with B3_UNBOUNDED_TOL.  Where the two c_L'
    routes disagree, the point's ClassifierInconsistency goes to the
    table's errors; a single point raises it.
    """
    f = frame if frame.kappa2.batched else frame.take([0])
    H = f.H
    cL1, cL2, unbounded, gap = _cL_points(f)
    (k2, r1), (k2p, r1p) = _channels(f)[:2]
    front = np.abs(k2 * H) > tol_root
    kind = np.select(
        [unbounded, ~front & (np.abs(k2p * H) > tol_root), ~front, np.abs(r1) >= tol_root,
         np.abs(r1p) > tol_root],
        ["unbounded", "cuspidal_cross_cap", "non_front_degenerate", "cuspidal_edge",
         "swallowtail"], "front_other")
    errors = {i: ClassifierInconsistency(
        f"c_L' closed form vs jet route differ by {gap[i]:.3e} at s={float(f.s[i])}")
        for i in np.flatnonzero(gap).tolist()}
    table = Classification(s=f.s, t=singular_t(f), kind=kind, kappa2=k2, kappa2_prime=k2p,
                           cL1=cL1, cL2=cL2, r1=r1, r2=notce_residuals(f)[1], H=H, errors=errors)
    return table if frame.kappa2.batched else table.point(0)


# -- scanning --------------------------------------------------------------


def _polish(f, lo, hi, x, f_lo, chan, floor):
    """Roots of f in the brackets [lo, hi] (f(lo), f(hi) of opposite signs,
    or lo = hi), stepping from the points x in them.

    Each round f gets every bracket's x and returns (values, slopes,
    curvatures), one row per channel; chan names each bracket's channel.
    Each bracket runs rtsafe (Numerical Recipes) with Halley steps
    2ff'/(2f'^2 - ff''), bisecting when a step leaves the bracket or fails
    to halve the one before the previous.  It stops at its evaluated x, the
    root, once |f| is at or below its floor (f's rounding level there) or
    its next step does not move x or, as brentq(xtol=1e-15, rtol=8.9e-16),
    is small; it keeps that x, so the last round evaluates every root.  A
    non-finite value stops its bracket with the package error f raises at
    that point alone, else a NumericFailure naming it.  Returns the roots,
    NaN where errors[i] stopped bracket i, and errors.
    """
    n = len(lo)
    dx = dx_old = hi - lo
    errors, live = {}, np.ones(n, bool)
    with np.errstate(all="ignore"):
        for _ in range(200):
            if not live.any():
                break
            fx, slope, curv = (v[chan, np.arange(n)] for v in f(x))  # each bracket's channel
            hit = np.abs(fx) <= floor
            for i in np.flatnonzero(live & ~np.isfinite(fx)):
                errors[i], live[i] = NumericFailure(f"value {fx[i]} at s={x[i]}"), False
                try:
                    f(float(x[i]))
                except NilscrollError as err:
                    errors[i] = err
            below = (fx < 0.0) == (f_lo < 0.0)
            lo, hi = np.where(live & below, x, lo), np.where(live & ~below, x, hi)
            den = 2.0 * slope * slope - fx * curv
            step = np.where(den != 0.0, 2.0 * fx * slope / den, np.inf)
            halley = ((lo < x - step) & (x - step < hi) | (x - step == x)) & (
                np.abs(step) <= 0.5 * np.abs(dx_old))
            dx_old, dx = dx, np.where(live, np.where(halley, -step, 0.5 * (lo + hi) - x), dx)
            live &= ~(hit | (np.abs(dx) < 0.5 * (1e-15 + 8.9e-16 * np.abs(x))))
            x = np.where(live, x + dx, x)  # a bracket that has stopped keeps its x
    for i in np.flatnonzero(live):
        errors[i] = NumericFailure(f"no convergence in [{lo[i]}, {hi[i]}] after 200 steps")
    x[list(errors)] = np.nan  # x is a new array once a round has run
    return x, errors


def _bracket_roots(f, grid, jets, labels, floors):
    """Roots of each channel of f between finite grid values.

    jets holds the channels' values, slopes and curvatures over the grid,
    shape (3, channels, grid), and f the same rows at its points (see
    _polish); floors and labels give each channel's rounding level on the
    grid and its name.  A grid zero is a bracket of width 0; a sign change
    steps from the small root of the order-2 Taylor model at the end with
    the smaller |f| (the midpoint if that is not inside) down to its ends'
    larger floor.  Returns each channel's roots in grid order and a warning
    for each bracket that fails, channel by channel.
    """
    a, b = jets[0, :, :-1], jets[0, :, 1:]
    with np.errstate(all="ignore"):
        cross = np.isfinite(a) & np.isfinite(b) & (a * b < 0.0)
        c, i = np.nonzero(np.isfinite(b) & (a == 0.0) | cross)
        lo, hi = grid[i], np.where(cross[c, i], grid[i + 1], grid[i])
        end = np.where(np.abs(b[c, i]) < np.abs(a[c, i]), i + 1, i)
        f0, f1, f2 = jets[:, c, end]
        x = grid[end] + 2.0 * f0 / -(f1 + np.sign(f1) * np.sqrt(f1 * f1 - 2.0 * f0 * f2))
    roots, errors = _polish(f, lo, hi, np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi)),
                            a[c, i], c, np.maximum(floors[c, i], floors[c, i + 1]))
    warnings = [f"WARN {labels[c[m]]}: bracket [{lo[m]}, {hi[m]}] failed: {errors[m]}"
                for m in sorted(errors)]
    return [roots[(c == k) & ~np.isnan(roots)].tolist() for k in range(len(labels))], warnings


def _channels(frame: NullFrame):
    """jets[k, c]: the k-th derivative (k <= 2, from the frame jets) of channel c,
    kappa2 and the NotCE residual r1 = (kappa2/H) B3^2 - 1, over a frame batch:
    what classify_point tests and the scan brackets."""
    (k2, dk2, ddk2), (B3, dB3, ddB3) = (j.coeffs[:3] for j in (frame.kappa2, frame.B[2]))
    slope = (dk2 * B3 * B3 + 2.0 * k2 * B3 * dB3) / frame.H
    curv = (ddk2 * B3 * B3 + 4.0 * dk2 * B3 * dB3 + 2.0 * k2 * (dB3 * dB3 + B3 * ddB3)) / frame.H
    return np.array([[k2, notce_residuals(frame)[0]], [dk2, slope], [ddk2, curv]])


def scan_singularities(frame_source, s_range, grid_n: int = 256,
                       tol_root: float = DEFAULT_TOL_ROOT, generator: str = "") -> SingularReport:
    """Locate and classify the isolated special points of the singular curve.

    One batch of grid frames gives the curve samples, classified by one
    classify_point call whose table is the report's curve; each grid point
    where c_L''s two routes disagree gives a "WARN classify" line.  Two
    channels, both finite wherever the frame is, are bracketed at grid sign
    changes: kappa2 (cuspidal-cross-cap candidates) and the NotCE residual
    r1 (swallowtail candidates).  Their brackets step together from Taylor
    seeds of the grid jets by Halley steps, one frame request per round, and
    the frames at the roots, which the last round evaluated, are read back
    and classified; points closer than TOL_CLUSTER are reported once.  A NaN
    frame ends its bracket with a warning that gives the point's own error.
    A sign flip of B1 = H(1+h^2)/(2h') between grid nodes is flagged as a
    cell where h' changes sign.  A degenerate generator (|kappa2*H| = |S(h)|
    <= tol_root on the whole grid) reports every grid sample as
    non_front_degenerate (or unbounded), and its kappa2 is not bracketed.
    Zeros of B3 only show as unbounded curve samples; the first grid frame
    that is not finite raises (see frames.raise_first).
    """
    if grid_n < 16:
        raise PreconditionError("grid_n must be >= 16")
    lo, hi = map(float, s_range)
    grid = np.linspace(lo, hi, grid_n)

    frames = finite_frames(frame_source, grid)

    # the singular curve at the grid, classified in one pass
    curve = classify_point(frames, tol_root)
    warnings = [f"WARN classify at s={float(curve.s[i])}: {err}"
                for i, err in sorted(curve.errors.items())]

    # the sign of B1 is that of h' (times H): a zero of h' or an even-order
    # pole of h lies in each cell where it flips
    B1 = frames.B[0].value
    warnings += [f"WARN h' changes sign in [{grid[i]}, {grid[i + 1]}]"
                 for i in np.flatnonzero(np.sign(B1[:-1]) * np.sign(B1[1:]) < 0)]

    # a degenerate generator (S(h) identically ~ 0) has kappa2 only in its
    # rounding noise: its sign changes are not roots, so its channel is left out
    degenerate = np.max(np.abs(curve.kappa2 * frames.H)) <= tol_root
    jets = _channels(frames)
    # r1 = kappa2 B3^2/H - 1 has its sign in the noise below 8 eps |kappa2 B3^2/H|
    floors = np.array([np.zeros(grid_n), 8.0 * np.finfo(float).eps * np.abs(jets[0, 1] + 1.0)])
    jets[0, 0] = np.where(degenerate, np.nan, jets[0, 0])
    (k2_roots, r1_roots), more = _bracket_roots(
        lambda x: _channels(frame_source(x)), grid, jets, ["kappa2", "r1"], floors)
    warnings += more

    points = []
    if degenerate:
        # the whole curve is non-front, and kappa2 has no roots
        points = [SingularPoint(s=s, t=None, kind=SingularKind.UNBOUNDED) if math.isnan(t)
                  else SingularPoint(s=s, t=t, kind=SingularKind.NON_FRONT_DEGENERATE)
                  for s, t in zip(curve.s.tolist(), curve.t.tolist())]
    # cuspidal cross caps at the roots of kappa2, swallowtails at those of r1
    if k2_roots or r1_roots:
        found = classify_point(frame_source(np.array(k2_roots + r1_roots)), tol_root)
        found.raise_first()
        report = np.isin(found.kind, ["swallowtail", "front_other"])
        report[: len(k2_roots)] = True
        points += [found.point(i) for i in np.flatnonzero(report).tolist()]

    # de-duplicate and sort
    uniq = {}
    for p in points:
        key = round(p.s / TOL_CLUSTER)
        if key not in uniq or p.kind != SingularKind.CUSPIDAL_EDGE:
            uniq[key] = p
    points = sorted(uniq.values(), key=lambda p: p.s)

    return SingularReport(generator=generator, H=frames.H, s_range=(lo, hi), curve=curve,
                          points=points, warnings=warnings)


# -- O(2,1) family ---------------------------------------------------------


def transform_frame(O: LorentzTransform, frame: NullFrame) -> NullFrame:
    """(A,B,C) -> (OA, OB, OC); kappa2 is an isometry invariant."""
    if O.det < 0:
        raise OrientationBreak(f"det O = {O.det:.3f}: OA x OB = -OC")
    return NullFrame(s=frame.s, Y=O.apply(frame.Y), kappa1=frame.kappa1,
                     kappa2=frame.kappa2, H=frame.H)


def invariance_check(frame_source, O: LorentzTransform, s_range, n_samples=50):
    """Compare front/cross-cap status of f and f^O along the singular curve.

    One frame batch at the samples gives f and f^O, and one classification
    batch both, each point's f then f^O; the first point whose criteria
    disagree, f before f^O, raises.  Front and cuspidal-cross-cap status must
    be preserved at the points where both curves are bounded; cuspidal edge
    vs swallowtail kinds may legitimately differ and are only counted.
    """
    lo, hi = map(float, s_range)
    f = finite_frames(frame_source, np.linspace(lo, hi, n_samples))
    both = f.take(np.repeat(np.arange(n_samples), 2))  # f, f^O at each point in turn
    both.Y.taylor()[..., 1::2] = transform_frame(O, f).Y.taylor()
    c = classify_point(both)
    c.raise_first()
    p, q = c.kind[0::2], c.kind[1::2]
    on = (p != "unbounded") & (q != "unbounded")
    front = [np.isin(kind[on], [k.value for k in FRONT_KINDS]) for kind in (p, q)]
    ccr = [kind[on] == "cuspidal_cross_cap" for kind in (p, q)]
    return {
        "front_preserved": bool(np.all(front[0] == front[1])),
        "ccr_preserved": bool(np.all(ccr[0] == ccr[1])),
        "kind_changes": int(np.count_nonzero(p[on] != q[on])),
    }


def find_notce_transform(frame: NullFrame):
    """(O, O frame, its NotCE residuals): the SO+(2,1) O making the point non-cuspidal.

    NotCE needs (OB)_3 = <O^-1 e3, B> = +-sqrt(H/kappa2), so kappa2/H > 0.
    w = -sqrt(H/kappa2) A + C is unit spacelike with <w, B> = sqrt(H/kappa2);
    O^-1 = [u0 | w x u0 | w] with the future unit timelike u0 = (e1 + w1 w) /
    sqrt(1 + w1^2) has det <w x u0, w x u0> = +1, and O = eta (O^-1)^T eta.
    Residuals of O frame not both below 1e-8 raise NoSolutionFound.
    """
    k2 = frame.kappa2.value
    H = frame.H
    if k2 / H <= 0:
        raise PreconditionError(f"kappa2/H = {k2 / H:.3e} <= 0: no solution exists")
    A, _, C = frame.Y.value
    w = C - A * math.sqrt(H / k2)
    u0 = (np.array([1.0, 0.0, 0.0]) + w * w[0]) / math.sqrt(1.0 + w[0] * w[0])
    rows = [u0, mcross(w, u0), w]  # (O^-1)^T
    O = LorentzTransform(m=ETA @ np.array(rows) @ ETA)
    g = transform_frame(O, frame)
    residuals = notce_residuals(g)
    if not max(abs(r) for r in residuals) < 1e-8:
        raise NoSolutionFound(residuals, "closed-form transform misses the NotCE residuals")
    return O, g, residuals
