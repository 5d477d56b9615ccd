"""Adapted null frames (A, B, C) along null curves.

Constructors: closed form from a generator h, from a prescribed lightlike
direction B, or from prescribed curvature functions via the Frenet-Serret
flow.  Frames carry jet-valued components so every s-derivative needed
downstream is exact; finite differences survive only as test oracles.

Frenet-Serret system (column convention, kappa3 = H constant):

    A' = kappa1*A + kappa2*C
    B' = -kappa1*B + H*C
    C' = H*A + kappa2*B
"""

from __future__ import annotations

from dataclasses import dataclass

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
        return max(self.values())


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


def frame_jets_from_values(Av, Bv, Cv, kappa1_ast, kappa2_ast, H, s, order=DEFAULT_ORDER):
    """Rebuild jet-valued frame components from sampled values.

    Taylor coefficients beyond order zero follow recursively from the
    Frenet-Serret relations with the prescribed curvature jets.
    """
    k1 = hexpr.eval_jet(kappa1_ast, s, order).taylor()
    k2 = hexpr.eval_jet(kappa2_ast, s, order).taylor()
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


def frame_flow_from_curvatures(
    kappa1_ast,
    kappa2_ast,
    H: float,
    init: NullFrame,
    s_range,
    config=None,
    n_samples: int = 101,
    order: int = DEFAULT_ORDER,
):
    """Integrate the 9-component Frenet-Serret system over s_range.

    Returns a list of NullFrame at n_samples evenly spaced parameters; the
    initial frame must sit at one end of the range (or inside it) and pass
    validation at 1e-9.
    """
    import numpy as np

    from .integrate import IntegratorConfig, solve_dense

    if H == 0.0:
        raise ValueError("H must be non-zero")
    res = validate_frame(init)
    if res.worst > 1e-9:
        raise InitError(f"initial frame invalid: worst residual {res.worst:.3e}")
    lo, hi = float(s_range[0]), float(s_range[1])
    if not (lo <= init.s <= hi):
        raise InitError(f"initial frame at s={init.s} outside range [{lo}, {hi}]")
    config = config or IntegratorConfig()

    def rhs(s, y):
        A, B, C = y[0:3], y[3:6], y[6:9]
        k1 = hexpr.eval_real(kappa1_ast, s)
        k2 = hexpr.eval_real(kappa2_ast, s)
        return np.concatenate([k1 * A + k2 * C, -k1 * B + H * C, H * A + k2 * B])

    Av, Bv, Cv = init.values()
    y0 = np.concatenate([Av.as_array(), Bv.as_array(), Cv.as_array()])
    grid = np.linspace(lo, hi, n_samples)
    ys = solve_dense(rhs, init.s, y0, grid, config)

    frames = []
    for s, y in zip(grid, ys):
        frames.append(
            frame_jets_from_values(
                Vec3L(*y[0:3]),
                Vec3L(*y[3:6]),
                Vec3L(*y[6:9]),
                kappa1_ast,
                kappa2_ast,
                H,
                float(s),
                order=order,
            )
        )
    return frames
