"""The CMC B-scroll f_L in L^3 and its dual minimal surface f in Nil_3(H).

Every query is array code: it takes arrays s, t that broadcast together
(scalars are a batch of one) and works from one frame request and at most
one CurvePath.dense_eval call.  The queries are the mesh vertices, the
fundamental forms in closed form and from the frame's jets, the smallest
singular value of the Nil_3 surface's Jacobian and the d'Alembertian
eigenvalue residual of the Gauss map N_L = -C - t*H*B.  Every s-derivative
is read off the jets of the frame and of the base curve; there are no
finite differences.  A query reads its frames from the frame source (a
command's frame table, see frames.make_frame_source) in one request.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericFailure
from .frames import NullFrame, finite_frames
from .integrate import CurvePath
from .lorentz import mcross, mdot


def _gauss_map(frame: NullFrame, t) -> np.ndarray:
    """N_L = -C - t*H*B, componentwise so that t broadcasts with the frame's s."""
    _, Bv, Cv = frame.Y.value
    return np.array([-c - b * (t * frame.H) for b, c in zip(Bv, Cv)])


def _sym(a, b, c):
    """Symmetric matrices [[a, b], [b, c]], stacked over the broadcast shape."""
    a, b, c = np.broadcast_arrays(a, b, c)
    return np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)


def _sigma_min(u, v):
    """Smallest singular value of the 2x3 matrices with rows u and v (3-tuples of
    arrays that broadcast), without LAPACK: |u x v| / sigma_max, sigma_max^2 =
    (a + c)/2 + hypot((a - c)/2, b) for the Gram matrix [[a, b], [b, c]] of the
    rows scaled by their largest entry (the root of its small eigenvalue would
    cancel to sqrt(eps)*sigma_max).  NaN where a row is not finite, 0 for M = 0."""
    M = np.array(np.broadcast_arrays(*u, *v))
    m = abs(M).max(0)
    with np.errstate(all="ignore"):  # m = 0 gives NaN, set to 0 below
        u, v = np.split(M / m, 2)
        a, b, c, w = ((p * q).sum(0) for p, q in ((u, u), (u, v), (v, v), [mcross(u, v)] * 2))
        sigma = m * np.sqrt(w / ((a + c) / 2 + np.hypot((a - c) / 2, b)))
    return np.where(m == 0, 0.0, sigma)


def _nil3(gamma, J, B, t, H):
    """Nil_3 point (a 3-tuple) from the curve (gamma, J), the ruling B and t; arrays broadcast."""
    return (
        gamma[0] + t * B[0],
        gamma[1] + t * B[1],
        gamma[2] - t * B[2] + H * J + t * H * (gamma[0] * B[1] - gamma[1] * B[0]),
    )


class ScrollSurface:
    """B-scroll surface pair generated by a frame source and its base curve."""

    def __init__(self, frame_source, path: CurvePath):
        self.frame_source = frame_source
        self.path = path

    # -- L^3 side ----------------------------------------------------------

    def fundamental_forms(self, s, t):
        """(I, II) in the (ds, dt) basis, each (..., 2, 2), in closed form."""
        frame = finite_frames(self.frame_source, s)
        H, k1, k2 = frame.H, frame.kappa1.value, frame.kappa2.value
        # I = [[E, F], [F, G]] and II = [[e, f], [f, g]], II_ss = <f_ss, N>
        # expanded through the Frenet-Serret relations
        E, F, G = 2 * t * k1 + t * t * H * H, -1.0, 0.0
        e, f, g = -k2 + 2 * t * k1 * H + t * t * (H * H * H), -H, 0.0
        I = _sym(E, F, G)
        if not np.isfinite(I).all():  # the frames are finite: t^2 H^2 or 2 t kappa1 overflowed
            raise NumericFailure(f"overflow in the first fundamental form at H={H:g}")
        return I, _sym(e, f, g)

    # -- Nil_3 side ---------------------------------------------------------

    def mesh(self, svals, tvals):
        """{"l3": f_L, "nil3": f} on the grid, one row of vertices per s.

        f_L = gamma + t*B and f = (g1+t*B1, g2+t*B2, g3 - t*B3 + H*J +
        t*H*(g1*B2 - g2*B1)): one frame request and one curve evaluation
        for all s, broadcast over t.
        """
        f = finite_frames(self.frame_source, np.asarray(svals, dtype=float))
        Bv = f.B.value[:, :, None]
        gamma, J = self.path.dense_eval(svals)
        gamma = gamma[:, :, None]
        t = np.asarray(tvals, dtype=float)[None, :]
        points = {"l3": gamma + Bv * t, "nil3": _nil3(gamma, J[:, None], Bv, t, f.H)}
        return {k: np.stack(list(p), axis=-1).reshape(-1, 3) for k, p in points.items()}

    def _nil3_tangents(self, s, t):
        """(frame, fs, ft, p): the Nil_3 surface's Jacobian rows and points."""
        frame = finite_frames(self.frame_source, s)
        H = frame.H
        gamma, J = self.path.jets(s, frame.A)
        f = _nil3(gamma, J, frame.B, t, H)  # jets in s
        # f is affine in t: f_t is the coefficient of t in _nil3
        g, B = gamma.value, frame.B.value
        ft = (B[0], B[1], -B[2] + H * (g[0] * B[1] - g[1] * B[0]))
        return frame, tuple(c.deriv().value for c in f), ft, tuple(c.value for c in f)

    def nil3_jacobian_metrics(self, s, t):
        """The smallest singular value of the Nil_3 surface's Jacobian
        (_sigma_min), which drops to 0 on the singular curve."""
        _, fs, ft, _ = self._nil3_tangents(s, t)
        return _sigma_min(fs, ft)

    # -- verification quantities -------------------------------------------

    def jet_forms(self, s, t):
        """(I, II) of f_L = gamma + t*B, each (..., 2, 2), from the frame's
        jets: f_s = A + t*B', f_t = B, f_ss = A' + t*B'', f_st = B', f_tt = 0."""
        f = finite_frames(self.frame_source, s)
        A, B, _ = f.Y
        Bp = B.deriv()
        fs = A + Bp * t  # a jet, whose derivative is f_ss
        fss, fs, ft, fst = fs.deriv().value, fs.value, B.value, Bp.value
        N = _gauss_map(f, t)
        return (_sym(mdot(fs, fs), mdot(fs, ft), mdot(ft, ft)),
                _sym(mdot(fss, N), mdot(fst, N), 0.0))

    def box_eigenvalue(self, s, t):
        """|Box N_L + 2 H^2 N_L| per point, the residual of Box N_L = -2 H^2 N_L.

        Box u = d_s(g^st u_t) + d_t(g^ts u_s + g^tt u_t) in the coordinates
        (s, t), where g^ss = 0, g^st = -1, g^tt = -(2 t kappa1 + t^2 H^2)
        and sqrt|det I| = 1.  The partials of N_L = -C - t*H*B come from the
        jets: u_t = -H B, u_st = -H B' and u_tt = 0, so Box N_L =
        -2 u_st - (2 kappa1 + 2 t H^2) u_t, and the residual reduces to
        |2H (B' + kappa1 B - H C)|, which the Frenet-Serret equation for B
        makes zero up to rounding.
        """
        f = finite_frames(self.frame_source, s)
        H = f.H
        u_t, u_st = f.B * -H, f.B.deriv() * -H
        box = (u_st * -2.0 - u_t * (2.0 * f.kappa1.value + 2.0 * t * H * H)).value
        return np.linalg.norm(box + 2 * H * H * _gauss_map(f, t), axis=0)[()]
