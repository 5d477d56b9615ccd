"""Adapted null frames (A, B, C) along null curves.

Constructors: closed form from a generator h, from a prescribed lightlike
direction B, or from prescribed curvature functions via the Frenet-Serret
flow.  Frames carry jet-valued components so every s-derivative needed
downstream is exact; finite differences survive only as test oracles.

Frenet-Serret system (column convention, kappa3 = H constant):

    A' = kappa1*A + kappa2*C
    B' = -kappa1*B + H*C
    C' = H*A + kappa2*B

that is Y' = Y K(s) for Y = [A | B | C] and K = [[kappa1, 0, H],
[0, -kappa1, kappa2], [kappa2, H, 0]] in so(2,1).  The flow is an order-4
Magnus method whose steps stay in the Lorentz group (Iserles, Munthe-Kaas,
Norsett & Zanna, Acta Numerica 2000; Blanes, Casas, Oteo & Ros, Phys. Rep.
2009), each step one closed-form exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hexpr
from .errors import (
    DegenerateGenerator,
    InitError,
    NormalizationError,
    NumericFailure,
    OrientationError,
)
from .jets import DEFAULT_ORDER, Jet, schwarzian
from .lorentz import Vec3L, det3, mcross, mdot

B3_UNBOUNDED_TOL = 1e-10


@dataclass(frozen=True)
class NullFrame:
    """Null frame at parameter s with jet-valued components.

    kappa2 equals -S(h)/H for frames built from a generator h; kappa1 is
    identically zero for B-scrolls and may be nonzero for general null
    scrolls produced by the curvature flow.
    """

    s: float
    A: Vec3L
    B: Vec3L
    C: Vec3L
    kappa1: Jet
    kappa2: Jet
    H: float

    def values(self):
        """(A, B, C) as vectors of values (floats, or arrays for a batch)."""
        return self.A.value(), self.B.value(), self.C.value()

    def take(self, idx):
        """The frame at the points idx of a batch; an int gives a single-point frame."""
        def vec(v):
            return Vec3L(*(c.take(idx) for c in v))

        s = float(self.s[idx]) if np.ndim(idx) == 0 else self.s[idx]
        return NullFrame(s=s, A=vec(self.A), B=vec(self.B), C=vec(self.C),
                         kappa1=self.kappa1.take(idx), kappa2=self.kappa2.take(idx), H=self.H)

    __getitem__ = take

    def __iter__(self):
        """The single-point frames of a batch, in order."""
        return (self.take(i) for i in range(len(self.s)))


class FrameResiduals(dict):
    """Named non-negative residuals of the frame invariants (arrays for a batch)."""

    @property
    def worst(self):
        """The largest residual (per point); NaN if any residual is NaN."""
        w = np.max(list(self.values()), axis=0)
        return w if np.ndim(w) else float(w)


def frame_from_h(h_ast, H: float, s, order: int = DEFAULT_ORDER) -> NullFrame:
    """Closed-form B-scroll frame from a generator expression.

    B = -(H/(2h')) (-1-h^2, 1-h^2, 2h), C = B'/H,
    A = (S(h)/H^2) B + B''/H^2, kappa1 = 0, kappa2 = -S(h)/H.  s is a float
    or a 1-D array (one AST walk for the batch).  A float s outside h's
    domain, or with |h'(s)| < 1e-12, raises DomainError or
    DegenerateGenerator; in a batch such a point, like one that overflows,
    gets a frame that is NaN in every coefficient (see raise_first).
    """
    if H == 0.0:
        raise ValueError("H must be non-zero")
    with np.errstate(all="ignore"):
        h = hexpr.eval_jet(h_ast, s, order)
        hp = h.deriv()
        flat = np.abs(hp.taylor()[0]) < 1e-12
        if flat.any() and not h.batched:
            raise DegenerateGenerator(f"|h'({h.base_point})| = {abs(hp.value):.3e} < 1e-12")
        S = schwarzian(h)
        h2 = h * h
        scale = (-H / 2.0) / hp
        B = Vec3L(scale * (-1.0 - h2), scale * (1.0 - h2), scale * (2.0 * h))
        C = B.deriv() / H
        Bpp = C.deriv() * H
        n = min(S.order, Bpp.x1.order)
        A = B.truncate(n) * (S.truncate(n) / (H * H)) + Bpp.truncate(n) / (H * H)
        kappa2 = -S / H
    # one pass over every coefficient: a point's frame is finite throughout or NaN throughout
    jets = (*A, *B, *C, kappa2)
    bad = flat | ~np.isfinite(np.concatenate([j.taylor() for j in jets])).all(axis=0)
    if bad.any():
        for j in jets:
            j.taylor()[:, bad] = np.nan
    kappa1 = Jet.constant(0.0, kappa2.order, base_point=h.base_point)
    return NullFrame(s=h.base_point, A=A, B=B, C=C, kappa1=kappa1, kappa2=kappa2, H=H)


def raise_first(evaluate, s, bad, message="non-finite frame at s={}"):
    """Raise for the first s, in array order, where bad holds: the error of
    evaluate (a frame source) at that s alone, else NumericFailure naming s."""
    if np.any(bad):
        x = float(np.ravel(s)[np.argmax(np.ravel(bad))])
        evaluate(x)
        raise NumericFailure(message.format(x))


def finite_frames(frame_source, s):
    """The frames at s for a consumer that needs every one (see raise_first)."""
    f = frame_source(s)
    raise_first(frame_source, s, ~np.isfinite(f.kappa2.value))
    return f


def make_frame_source(h_ast, H: float, order: int = DEFAULT_ORDER):
    """Callable s -> NullFrame for the generator h."""

    def source(s):
        return frame_from_h(h_ast, H, s, order)

    return source


def frame_from_B(B: Vec3L, H: float, tol: float = 1e-9) -> NullFrame:
    """Complete a prescribed lightlike B (jet order >= 3) to a null frame.

    Requires <B,B> = 0, <B',B'> = H^2 and H*det(B,B',B'') > 0; the sign of
    B is rigid (flipping it breaks the orientation condition).
    """
    if H == 0.0:
        raise ValueError("H must be non-zero")
    if B.x1.order < 3:
        raise ValueError("B needs jet components of order >= 3")
    s = B.x1.base_point
    if abs(mdot(B, B).value) > tol:
        raise NormalizationError(f"<B,B> = {mdot(B, B).value:.3e} != 0")
    Bp = B.deriv()
    Bpp = Bp.deriv()
    if abs(mdot(Bp, Bp).value - H * H) > tol:
        raise NormalizationError(
            f"<B',B'> = {mdot(Bp, Bp).value!r} != H^2 = {H * H!r}"
        )
    orient = H * det3(B.value(), Bp.value(), Bpp.value())
    if orient <= 0.0:
        raise OrientationError(f"H*det(B,B',B'') = {orient:.3e} <= 0")
    kappa2 = mdot(Bpp, Bpp) * (-1.0 / (2.0 * H**3))
    C = Bp / H
    n = kappa2.order
    A = B.truncate(n) * (-kappa2 / H) + Bpp.truncate(n) / (H * H)
    kappa1 = Jet.constant(0.0, n, base_point=s)
    return NullFrame(s=s, A=A, B=B, C=C, kappa1=kappa1, kappa2=kappa2, H=H)


def validate_frame(f: NullFrame) -> FrameResiduals:
    """Residuals of all frame invariants (arrays for a batch); the caller
    picks thresholds."""
    A, B, C = f.A, f.B, f.C
    Av, Bv, Cv = f.values()
    r = FrameResiduals()
    with np.errstate(all="ignore"):
        r["norm_A"] = np.abs(mdot(Av, Av))
        r["norm_B"] = np.abs(mdot(Bv, Bv))
        r["pair_AB"] = np.abs(mdot(Av, Bv) + 1.0)
        r["norm_C"] = np.abs(mdot(Cv, Cv) - 1.0)
        r["orth_AC"] = np.abs(mdot(Av, Cv))
        r["orth_BC"] = np.abs(mdot(Bv, Cv))
        r["cross_AB_C"] = (mcross(Av, Bv) - Cv).max_abs()
        r["det_ABC"] = np.abs(det3(Av, Bv, Cv) - 1.0)

        k1, k2, H = f.kappa1.value, f.kappa2.value, f.H
        r["fs_A"] = (A.deriv().value() - (Av * k1 + Cv * k2)).max_abs()
        r["fs_B"] = (B.deriv().value() - (Bv * (-k1) + Cv * H)).max_abs()
        r["fs_C"] = (C.deriv().value() - (Av * H + Bv * k2)).max_abs()

        Bp = B.deriv()
        r["b_sqnorm"] = np.abs(mdot(Bp, Bp).value - H * H)
        orient = H * det3(Bv, Bp.value(), Bp.deriv().value())
        r["b_orientation"] = np.maximum(0.0, -orient)
    return r


# -- Frenet-Serret flow from prescribed curvatures -------------------------

# Substeps per sample interval double until two successive runs agree to
# _FLOW_TOL relative to the frame's size, which keeps the frame residuals
# far below the 1e-9 validation gate; _FLOW_MAX_SUBSTEPS caps the doubling
# and so the time a flow that does not resolve takes to fail.
_FLOW_TOL = 1e-10
_FLOW_MAX_SUBSTEPS = 1024
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


def _curvature(ast, s, order):
    """Curvature jet over s; the first s with a non-finite coefficient
    raises (see raise_first)."""
    k = hexpr.eval_jet(ast, s, order)
    raise_first(lambda x: hexpr.eval_jet(ast, x, order), s,
                ~np.isfinite(k.taylor()).all(axis=0), "overflow in the curvature at s={}")
    return k


def frame_jets_from_values(Av, Bv, Cv, kappa1_ast, kappa2_ast, H, s, order=DEFAULT_ORDER):
    """Rebuild jet-valued frame components from sampled values.

    Taylor coefficients beyond order zero follow recursively from the
    Frenet-Serret relations with the prescribed curvature jets.  s is a
    float, or a 1-D array with array-valued Av, Bv, Cv.
    """
    k1 = _curvature(kappa1_ast, s, order)
    k2 = _curvature(kappa2_ast, s, order)
    t1, t2 = k1.taylor(), k2.taylor()
    # Y[k, v, i]: Taylor coefficient k of component i of A, B, C (v = 0, 1, 2)
    Y = np.zeros((order + 1, 3, 3, t1.shape[1]))
    Y[0] = np.reshape([Av.as_array(), Bv.as_array(), Cv.as_array()], (3, 3, -1))

    def conv(coeffs, v, k):
        return sum(coeffs[j] * Y[k - j, v] for j in range(k + 1))

    with np.errstate(all="ignore"):
        for k in range(order):
            da = conv(t1, 0, k) + conv(t2, 2, k)
            db = -conv(t1, 1, k) + H * Y[k, 2]
            dc = H * Y[k, 0] + conv(t2, 1, k)
            Y[k + 1] = np.array([da, db, dc]) / (k + 1)

    def jv(v):
        return Vec3L(*(Jet(np.ascontiguousarray(Y[:, v, i]), k1.base_point)
                       for i in range(3)))

    return NullFrame(s=k1.base_point, A=jv(0), B=jv(1), C=jv(2), kappa1=k1, kappa2=k2, H=H)


def _expm_so21(W):
    """exp of a stack of so(2,1) matrices in closed form.

    W^3 = pW with p = tr(W^2)/2, so exp W = I + a W + b W^2 with
    a = sinh(r)/r and b = (cosh(r) - 1)/r^2 = (sinh(r/2)/(r/2))^2 / 2,
    r = sqrt(p); sin replaces sinh when p < 0.  The half-angle form of b
    has no cancellation as r -> 0, so only r = 0 itself needs its limit.
    """
    W2 = W @ W
    p = 0.5 * np.trace(W2, axis1=1, axis2=2)
    r = np.sqrt(np.abs(p))

    def sinc(x):
        safe = np.where(x == 0.0, 1.0, x)
        return np.where(x == 0.0, 1.0, np.where(p > 0, np.sinh(safe), np.sin(safe)) / safe)

    a, b = sinc(r), 0.5 * sinc(0.5 * r) ** 2
    return np.eye(3) + a[:, None, None] * W + b[:, None, None] * W2


def _magnus_flow(K_at, s0, Y0, grid, m):
    """Y = [A | B | C] at the grid points, marching out from s0 both ways.

    Y' = Y K(s) by the order-4 Magnus method on two Gauss points, m steps
    per interval between consecutive points of each march:
    Omega = h/2 (K1 + K2) + (sqrt(3) h^2 / 12) [K1, K2], Y <- Y exp(Omega).
    """
    Y = np.empty((len(grid), 3, 3))
    Y[grid == s0] = Y0
    for side, way in ((grid > s0, 1), (grid < s0, -1)):
        stops = np.concatenate([[s0], grid[side][::way]])
        t = np.interp(np.arange((len(stops) - 1) * m + 1) / m, np.arange(len(stops)), stops)
        h = np.diff(t)[:, None, None]
        # both Gauss nodes of every step, in the order the march meets them
        K = K_at(np.ravel(t[:-1, None] + np.outer(h[:, 0, 0], _GAUSS)))
        K1, K2 = K[0::2], K[1::2]
        E = _expm_so21(0.5 * h * (K1 + K2) + (math.sqrt(3.0) / 12.0) * h * h * (K1 @ K2 - K2 @ K1))
        # each interval's m step exponentials (m a power of two), multiplied
        # pairwise in log2(m) batched products; then one product per interval
        E = E.reshape(-1, m, 3, 3)
        while E.shape[1] > 1:
            E = E[:, 0::2] @ E[:, 1::2]
        ys = [Y0]
        for e in E[:, 0]:
            ys.append(ys[-1] @ e)
        Y[side] = np.array(ys)[1:][::way]
    return Y


def frame_flow_from_curvatures(
    kappa1_ast,
    kappa2_ast,
    H: float,
    init: NullFrame,
    s_range,
    n_samples: int = 101,
    order: int = DEFAULT_ORDER,
):
    """Integrate the Frenet-Serret system Y' = Y K(s) over s_range.

    Returns the batch NullFrame at n_samples evenly spaced parameters
    (iterating it gives the single-point frames); the initial frame may sit
    anywhere in the range and must pass validation at 1e-9.  Magnus steps
    land on the samples (curvatures in one array walk per run); the steps
    per sample interval double until two runs agree to _FLOW_TOL.  Raises
    NumericFailure naming s for a curvature overflow, a non-finite frame or
    a flow that no step count up to _FLOW_MAX_SUBSTEPS resolves.
    """
    if H == 0.0:
        raise ValueError("H must be non-zero")
    res = validate_frame(init)
    if not res.worst <= 1e-9:
        raise InitError(f"initial frame invalid: worst residual {res.worst:.3e}")
    lo, hi = float(s_range[0]), float(s_range[1])
    if not (lo <= init.s <= hi):
        raise InitError(f"initial frame at s={init.s} outside range [{lo}, {hi}]")

    def K_at(svals):
        """K = [[k1, 0, H], [0, -k1, k2], [k2, H, 0]] at each s."""
        k1, k2 = (_curvature(ast, svals, 0).value for ast in (kappa1_ast, kappa2_ast))
        K = np.zeros((len(svals), 3, 3))
        K[:, 0, 0], K[:, 1, 1], K[:, 1, 2], K[:, 2, 0] = k1, -k1, k2, k2
        K[:, 0, 2] = K[:, 2, 1] = H
        return K

    def nearest(bad):
        """The flagged grid point the march reaches first."""
        return float(grid[bad][np.argmin(np.abs(grid[bad] - init.s))])

    Av, Bv, Cv = init.values()
    Y0 = np.column_stack([Av.as_array(), Bv.as_array(), Cv.as_array()])
    grid = np.linspace(lo, hi, n_samples)
    m, prev = 1, None
    with np.errstate(all="ignore"):  # overflow shows as a non-finite Y
        while True:
            Y = _magnus_flow(K_at, init.s, Y0, grid, m)
            finite = np.isfinite(Y).all(axis=(1, 2))
            if not finite.all():
                raise NumericFailure(f"the frame flow is not finite at s={nearest(~finite)}")
            if prev is not None:
                size = 1.0 + np.abs(Y).max(axis=(1, 2))
                off = np.abs(Y - prev).max(axis=(1, 2)) > _FLOW_TOL * size
                if not off.any():
                    break
                if m >= _FLOW_MAX_SUBSTEPS:
                    raise NumericFailure(
                        f"the frame flow is unresolved at s={nearest(off)} "
                        f"with {m} steps per sample interval")
            m, prev = 2 * m, Y

    return frame_jets_from_values(Vec3L(*Y[:, :, 0].T), Vec3L(*Y[:, :, 1].T),
                                  Vec3L(*Y[:, :, 2].T), kappa1_ast, kappa2_ast, H, grid,
                                  order=order)
