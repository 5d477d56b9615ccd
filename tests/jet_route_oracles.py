"""The frame, the Schwarzian and c_L' built with Jet operators, and the
normal Gauss map and area density of the surface pair.

The first three are the package's earlier routes, kept as oracles: the
package now replays the same operation sequences on coefficient arrays,
and the tests assert that every output keeps its bits.  frame_from_B, a
third frame constructor that completes a prescribed lightlike B at one
point, checks the frames of the other two.

The normal Gauss map g of the B-scroll, the stereographic coordinate of
N_L, and nil3_gauss_map_direct, the same map from the Nil_3 surface's own
normal, are the two routes to the map the paired surfaces share; the signed
area density flips sign across the singular curve.  Each takes a
ScrollSurface and works like its array queries.  _nl_from_g inverts the
stereographic chart, and curvatures gives H and K of a pair of forms.
"""

import numpy as np

from nilscroll import hexpr
from nilscroll.errors import DegenerateGenerator, InputError
from nilscroll.frames import B3_UNBOUNDED_TOL, NullFrame, finite_frames
from nilscroll.jets import DEFAULT_ORDER, Jet
from nilscroll.lorentz import det3, mcross, mdot
from nilscroll.singular import CROSS_TOL
from nilscroll.surface import _gauss_map

POLE_TOL = 1e-10


class OrientationError(InputError):
    """H * det(B, B', B'') <= 0; B cannot be completed to a valid frame."""


class NormalizationError(InputError):
    """<B', B'> != H^2 (or B not lightlike); prescribed B is not normalized."""


def stack(jets):
    """The jet with the given jets as its components, at their lowest order."""
    n = min(j.order for j in jets) + 1
    return Jet(np.stack([j.taylor()[:n] for j in jets], axis=1), jets[0].base_point)


def _stereo(N):
    """((re, im), pole): g = -(N2 + j*N1)/(1 - N3), NaN where |1 - N3| <= POLE_TOL."""
    d = 1.0 - N[2]
    pole = np.abs(d) <= POLE_TOL
    d = np.where(pole, np.nan, d)
    return (-N[1] / d, -N[0] / d), pole


def _nl_from_g(g):
    """Fact-sheet normal from the stereographic coordinate g = (re, im), for
    round trips: N = -(2 im, 2 re, 1 - |g|^2)/(1 + |g|^2), |g|^2 = re^2 - im^2."""
    re, im = g
    m = re * re - im * im
    d = 1.0 + m
    return np.array([-2.0 * im / d, -2.0 * re / d, -(1.0 - m) / d])


def frame_from_B(B: Jet, H: float, tol: float = 1e-9) -> NullFrame:
    """Complete a prescribed lightlike B (a vector jet of order >= 4 at one
    point) to a null frame of order B.order - 2, which carries B''.

    Requires <B,B> = 0, <B',B'> = H^2 and H*det(B,B',B'') > 0; the sign of
    B is rigid (flipping it breaks the orientation condition).
    """
    if H == 0.0:
        raise ValueError("H must be non-zero")
    if B.order < 4:
        raise ValueError("B needs order >= 4")
    s = B.base_point
    if abs(mdot(B, B).value) > tol:
        raise NormalizationError(f"<B,B> = {mdot(B, B).value:.3e} != 0")
    Bp = B.deriv()
    Bpp = Bp.deriv()
    if abs(mdot(Bp, Bp).value - H * H) > tol:
        raise NormalizationError(
            f"<B',B'> = {mdot(Bp, Bp).value!r} != H^2 = {H * H!r}"
        )
    orient = H * det3(B.value, Bp.value, Bpp.value)
    if orient <= 0.0:
        raise OrientationError(f"H*det(B,B',B'') = {orient:.3e} <= 0")
    kappa2 = mdot(Bpp, Bpp) * (-1.0 / (2.0 * H * H * H))
    A = B * (-kappa2 / H) + Bpp / (H * H)
    kappa1 = Jet.constant(0.0, kappa2.order, base_point=s)
    return NullFrame(s=s, Y=stack([A, B, Bp / H]), kappa1=kappa1, kappa2=kappa2, H=H)


def schwarzian(h: Jet) -> Jet:
    """h'''/h' - (3/2)(h''/h')^2 by the Jet operators."""
    if h.order < 3:
        raise ValueError("schwarzian needs a jet of order >= 3")
    d1 = h.deriv()
    d1 = d1._domain(d1.taylor()[0] == 0.0, "schwarzian", "h' vanishes")
    d2 = d1.deriv()
    d3 = d2.deriv()
    r1 = d3 / d1
    r2 = d2 / d1
    return r1 - 1.5 * r2 * r2


def frame_from_h(h_ast, H: float, s, order: int = DEFAULT_ORDER) -> NullFrame:
    """The closed-form B-scroll frame by the Jet operators."""
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
        B = ((-H / 2.0) / hp) * stack([-1.0 - h2, 1.0 - h2, 2.0 * h])
        C = B.deriv() / H
        A = B * (S / (H * H)) + (C.deriv() * H) / (H * H)
        kappa2 = -S / H
    Y = stack([A, B, C])
    n = Y.taylor().shape[-1]
    bad = flat | ~np.isfinite(np.concatenate(
        [j.taylor().reshape(-1, n) for j in (A, B, C, kappa2)])).all(axis=0)
    for j in (Y, kappa2):
        j.taylor()[..., bad] = np.nan
    kappa1 = Jet.constant(0.0, kappa2.order, base_point=h.base_point)
    return NullFrame(s=h.base_point, Y=Y, kappa1=kappa1, kappa2=kappa2, H=H)


def cL_points(frame: NullFrame):
    """(c_L', c_L'', unbounded, gap) at each point of a frame batch, c_L' by
    jet differentiation of gamma + t(s) B(s) with the Jet operators."""
    B3 = frame.B[2].value
    unbounded = np.abs(B3 / frame.H) < B3_UNBOUNDED_TOL
    cL1, cL2 = np.full((2, 3, len(B3)), np.nan)
    gap = np.zeros(len(B3))
    keep = np.flatnonzero(~unbounded)
    if not len(keep):
        return cL1, cL2, unbounded, gap
    f = frame.take(keep)
    H = f.H
    with np.errstate(all="ignore"):
        t = -f.C[2] / (f.B[2] * H)
        jet = f.A + t.deriv() * f.B + t * f.B.deriv()
        d1, d2 = jet.value, jet.deriv().value
        Av, Bv, Cv = f.Y.value
        coef = -Av[2] / Bv[2] - f.kappa2.value / H + (Cv[2] / Bv[2]) ** 2
        closed = Av + Bv * coef - Cv * (Cv[2] / Bv[2])
        diff = np.abs(closed - d1).max(axis=0)
        scale = 1.0 + np.abs(d1).max(axis=0)
        gap[keep] = np.where(diff > CROSS_TOL * scale, diff, 0.0)
    cL1[:, keep], cL2[:, keep] = d1, d2
    return cL1, cL2, unbounded, gap


def curvatures(I, II):
    """(H_mean, K_gauss) from I = [[E, F], [F, G]] and II = [[e, f], [f, g]]
    (..., 2, 2): H = (eG - 2fF + gE)/(2 det I), K = (eg - f^2)/det I."""
    (E, F), (_, G) = np.moveaxis(I, (-2, -1), (0, 1))
    (e, f), (_, g) = np.moveaxis(II, (-2, -1), (0, 1))
    det = E * G - F * F
    return (e * G - 2 * f * F + g * E) / (2 * det), (e * g - f * f) / det


def gauss_map_L(surf, s, t):
    """N_L = -C - t*H*B, (3, ...) over the broadcast points."""
    return _gauss_map(finite_frames(surf.frame_source, s), t)


def normal_gauss_map(surf, s, t):
    """(g, pole): g = -(N2 + j*N1)/(1 - N3) for N = N_L(s,t) as the pair
    (re, im), NaN where the pole mask marks N3 ~ 1."""
    return _stereo(gauss_map_L(surf, s, t))


def tangents_E(surf, s, t):
    """(frame, fs_E, ft_E): the components of the Nil_3 surface's Jacobian
    rows in the left-invariant frame E_i (3-tuples)."""
    frame, fs, ft, p = surf._nil3_tangents(s, t)

    def E(v):
        return (v[0], v[1], v[2] + frame.H * (p[1] * v[0] - p[0] * v[1]))

    return frame, E(fs), E(ft)


def area_density(surf, s, t):
    """The Nil_3 surface's signed area density lambda.

    It uses the g_R-orthonormal left-invariant frame and the frontal normal
    extended through the singular set via the shared normal Gauss map
    (projectively (N2, -N1, 1) from N = N_L), so its sign flips across a
    non-degenerate singular curve.
    """
    frame, fs_E, ft_E = tangents_E(surf, s, t)
    N = _gauss_map(frame, t)
    norm = np.sqrt(N[1] * N[1] + N[0] * N[0] + 1.0)
    return det3(fs_E, ft_E, (N[1] / norm, -N[0] / norm, 1.0 / norm))


def nil3_gauss_map_direct(surf, s, t):
    """(g, pole): the Nil_3 surface's normal Gauss map from its own normal.

    Independent of N_L: frame components of the tangents, Lorentzian
    normal direction eta*(ft x fs), g_+-normalization, stereographic
    coordinate.  Shares g with the dual B-scroll away from poles; the
    mask marks a normal that is not spacelike or has n3 ~ -1.
    """
    _, u, v = tangents_E(surf, s, t)
    nd = mcross(u, v)
    norm2 = mdot(nd, nd)
    pole = norm2 <= 0
    n = nd / np.sqrt(np.where(pole, np.nan, norm2))
    pole |= np.abs(1.0 + n[2]) <= POLE_TOL
    d = np.where(pole, np.nan, 1.0 + n[2])
    return (n[0] / d, n[1] / d), pole
