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
        """(A, B, C) as plain float vectors."""
        return self.A.value(), self.B.value(), self.C.value()


class FrameResiduals(dict):
    """Named non-negative residuals of the frame invariants."""

    @property
    def worst(self):
        """The largest residual; NaN if any residual is NaN."""
        return float(np.max(list(self.values())))


def _jet_vec(comps, order=None):
    if order is not None:
        comps = [c.truncate(order) for c in comps]
    return Vec3L(*comps)


def frame_from_h(h_ast, H: float, s: float, order: int = DEFAULT_ORDER) -> NullFrame:
    """Closed-form B-scroll frame from a generator expression.

    B = -(H/(2h')) (-1-h^2, 1-h^2, 2h), C = B'/H,
    A = (S(h)/H^2) B + B''/H^2, kappa1 = 0, kappa2 = -S(h)/H.  A float
    overflow in the jet arithmetic raises NumericFailure naming s.
    """
    if H == 0.0:
        raise ValueError("H must be non-zero")
    try:
        h = hexpr.eval_jet(h_ast, s, order)
        hp = h.deriv()
        if abs(hp.value) < 1e-12:
            raise DegenerateGenerator(f"|h'({s})| = {abs(hp.value):.3e} < 1e-12")
        S = schwarzian(h)
        h2 = h * h
        scale = (-H / 2.0) / hp
        B = Vec3L(scale * (-1.0 - h2), scale * (1.0 - h2), scale * (2.0 * h))
        C = B.deriv() / H
        Bpp = C.deriv() * H
        n = min(S.order, Bpp.x1.order)
        Bn = _jet_vec(list(B), n)
        A = Bn * (S.truncate(n) / (H * H)) + _jet_vec(list(Bpp), n) / (H * H)
    except (ValueError, OverflowError) as err:
        raise NumericFailure(f"overflow in the frame at s={s}: {err}") from err
    kappa2 = -S / H
    kappa1 = Jet.constant(0.0, kappa2.order, base_point=s)
    return NullFrame(s=s, A=A, B=B, C=C, kappa1=kappa1, kappa2=kappa2, H=H)


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
    A = _jet_vec(list(B), n) * (-kappa2 / H) + _jet_vec(list(Bpp), n) / (H * H)
    kappa1 = Jet.constant(0.0, n, base_point=s)
    return NullFrame(s=s, A=A, B=B, C=C, kappa1=kappa1, kappa2=kappa2, H=H)


def validate_frame(f: NullFrame) -> FrameResiduals:
    """Residuals of all frame invariants; the caller picks thresholds."""
    A, B, C = f.A, f.B, f.C
    Av, Bv, Cv = f.values()
    r = FrameResiduals()
    r["norm_A"] = abs(mdot(Av, Av))
    r["norm_B"] = abs(mdot(Bv, Bv))
    r["pair_AB"] = abs(mdot(Av, Bv) + 1.0)
    r["norm_C"] = abs(mdot(Cv, Cv) - 1.0)
    r["orth_AC"] = abs(mdot(Av, Cv))
    r["orth_BC"] = abs(mdot(Bv, Cv))
    cross = mcross(Av, Bv) - Cv
    r["cross_AB_C"] = max(abs(cross.x1), abs(cross.x2), abs(cross.x3))
    r["det_ABC"] = abs(det3(Av, Bv, Cv) - 1.0)

    k1, k2, H = f.kappa1.value, f.kappa2.value, f.H
    fs_a = A.deriv().value() - (Av * k1 + Cv * k2)
    fs_b = B.deriv().value() - (Bv * (-k1) + Cv * H)
    fs_c = C.deriv().value() - (Av * H + Bv * k2)
    for name, v in (("fs_A", fs_a), ("fs_B", fs_b), ("fs_C", fs_c)):
        r[name] = max(abs(v.x1), abs(v.x2), abs(v.x3))

    Bp = B.deriv()
    r["b_sqnorm"] = abs(mdot(Bp, Bp).value - H * H)
    orient = H * det3(Bv, Bp.value(), Bp.deriv().value())
    r["b_orientation"] = max(0.0, -orient)
    return r


# -- Frenet-Serret flow from prescribed curvatures -------------------------

# Substeps per sample interval double until two successive runs agree to
# _FLOW_TOL relative to the frame's size, which keeps the frame residuals
# far below the 1e-9 validation gate; _FLOW_MAX_SUBSTEPS caps the doubling
# and so the time a flow that does not resolve takes to fail.
_FLOW_TOL = 1e-10
_FLOW_MAX_SUBSTEPS = 1024
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


def _kappa(evaluate, ast, s, *args):
    """A curvature from hexpr; a float overflow raises NumericFailure naming s."""
    try:
        return evaluate(ast, s, *args)
    except (ValueError, OverflowError) as err:
        raise NumericFailure(f"overflow in the curvature at s={s}: {err}") from err


def frame_jets_from_values(Av, Bv, Cv, kappa1_ast, kappa2_ast, H, s, order=DEFAULT_ORDER):
    """Rebuild jet-valued frame components from sampled values.

    Taylor coefficients beyond order zero follow recursively from the
    Frenet-Serret relations with the prescribed curvature jets.
    """
    k1 = _kappa(hexpr.eval_jet, kappa1_ast, s, order).taylor()
    k2 = _kappa(hexpr.eval_jet, kappa2_ast, s, order).taylor()
    comps = {
        name: [float(v)] + [0.0] * order
        for name, v in zip(
            ("a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3"),
            list(Av.as_array()) + list(Bv.as_array()) + list(Cv.as_array()),
        )
    }

    def conv(coeffs, vec, k):
        return sum(coeffs[j] * vec[k - j] for j in range(k + 1))

    for k in range(order):
        for i in (1, 2, 3):
            a, b, c = comps[f"a{i}"], comps[f"b{i}"], comps[f"c{i}"]
            da = conv(k1, a, k) + conv(k2, c, k)
            db = -conv(k1, b, k) + H * c[k]
            dc = H * a[k] + conv(k2, b, k)
            a[k + 1] = da / (k + 1)
            b[k + 1] = db / (k + 1)
            c[k + 1] = dc / (k + 1)

    def jv(prefix):
        return Vec3L(*(Jet(comps[f"{prefix}{i}"], base_point=s) for i in (1, 2, 3)))

    return NullFrame(
        s=s,
        A=jv("a"),
        B=jv("b"),
        C=jv("c"),
        kappa1=Jet(k1, base_point=s),
        kappa2=Jet(k2, base_point=s),
        H=H,
    )


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
        K1, K2 = (K_at(t[:-1] + c * h[:, 0, 0]) for c in _GAUSS)
        E = _expm_so21(0.5 * h * (K1 + K2) + (math.sqrt(3.0) / 12.0) * h * h * (K1 @ K2 - K2 @ K1))
        ys = [Y0]
        for e in E:
            ys.append(ys[-1] @ e)
        Y[side] = np.array(ys)[m::m][::way]
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

    Returns a list of NullFrame at n_samples evenly spaced parameters; the
    initial frame may sit anywhere in the range and must pass validation
    at 1e-9.  Magnus steps land on the samples; the number of steps per
    sample interval doubles until two runs agree to _FLOW_TOL.  Raises
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
        k1, k2 = (np.array([_kappa(hexpr.eval_real, ast, s) for s in svals.tolist()])
                  for ast in (kappa1_ast, kappa2_ast))
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

    return [
        frame_jets_from_values(Vec3L(*y[:, 0]), Vec3L(*y[:, 1]), Vec3L(*y[:, 2]),
                               kappa1_ast, kappa2_ast, H, float(s), order=order)
        for s, y in zip(grid, Y)
    ]
