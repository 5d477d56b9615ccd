"""The CMC B-scroll f_L in L^3 and its dual minimal surface f in Nil_3(H).

Every query is array code: it takes arrays s, t that broadcast together
(scalars are a batch of one) and works from one frame batch and at most one
CurvePath.dense_eval call.  The queries are the mesh vertices, the Gauss
map N_L = -C - t*H*B and the normal Gauss map g, the fundamental forms in
closed form and by finite differences, the Jacobian metrics of the Nil_3
surface and the d'Alembertian eigenvalue residual.  A caller that holds
the frames at the query's s, or at its stencil rows (see stencil), passes
them as frames=; otherwise the query evaluates them in one batch.  A
Gauss-map pole is a mask: g is NaN there and the mask is returned with it.
The paracomplex g = re + j*im (j^2 = +1) is the pair of arrays (re, im).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .frames import NullFrame, finite_frames
from .integrate import CurvePath
from .lorentz import mcross, mdot

POLE_TOL = 1e-10
# finite-difference checks evaluate frames at s + k*h for these k, and the
# form check steps by FORMS_FD_STEP
FORMS_OFFSETS = (-2, -1, 0, 1, 2)
BOX_OFFSETS = (-1, 0, 1)
FORMS_FD_STEP = 1e-3


@dataclass(frozen=True)
class FundamentalForms:
    """First/second fundamental forms in the (ds, dt) basis, plus H and K.

    I and II are (..., 2, 2) and H_mean, K_gauss (...) over the query's points.
    """

    I: np.ndarray
    II: np.ndarray
    H_mean: np.ndarray
    K_gauss: np.ndarray


def stencil(s, offsets, h):
    """The rows s + k*h of a finite-difference stencil, shape (len(offsets),) + s.shape."""
    k = np.multiply(offsets, float(h))
    return k.reshape(k.shape + (1,) * np.ndim(s)) + s


def _gauss_map(frame: NullFrame, t, H) -> np.ndarray:
    """N_L = -C - t*H*B, componentwise so that t broadcasts with the frame's s."""
    _, Bv, Cv = frame.Y.value
    return np.array([-c - b * (t * H) for b, c in zip(Bv, Cv)])


def _stereo(N):
    """((re, im), pole): g = -(N2 + j*N1)/(1 - N3), NaN where |1 - N3| <= POLE_TOL."""
    d = 1.0 - N[2]
    pole = np.abs(d) <= POLE_TOL
    d = np.where(pole, np.nan, d)
    return (-N[1] / d, -N[0] / d), pole


def _sym(a, b, c):
    """Symmetric matrices [[a, b], [b, c]], stacked over the broadcast shape."""
    a, b, c = np.broadcast_arrays(a, b, c)
    return np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)


def _mat(*rows):
    """Matrices with the given vector rows, stacked over the broadcast shape."""
    comps = np.broadcast_arrays(*(c for v in rows for c in v))
    return np.stack(comps, -1).reshape(comps[0].shape + (len(rows), 3))


def _forms(I, II) -> FundamentalForms:
    try:
        shape = np.linalg.inv(I) @ II
    except np.linalg.LinAlgError:
        raise NumericFailure("singular first fundamental form") from None
    return FundamentalForms(I=I, II=II, H_mean=0.5 * np.trace(shape, axis1=-2, axis2=-1),
                            K_gauss=np.linalg.det(shape))


def _nil3_partials(frame: NullFrame, gamma, t, H):
    """Coordinate Jacobian rows (d/ds f, d/dt f) of the Nil_3 surface, as 3-tuples."""
    Av, Bv, _ = frame.Y.value
    Bp = frame.B.deriv().value
    dJ = gamma[0] * Av[1] - gamma[1] * Av[0]
    dw = Av[0] * Bv[1] + gamma[0] * Bp[1] - Av[1] * Bv[0] - gamma[1] * Bp[0]
    fs = (Av[0] + t * Bp[0], Av[1] + t * Bp[1],
          Av[2] - t * Bp[2] + H * dJ + t * H * dw)
    ft = (Bv[0], Bv[1], -Bv[2] + H * (gamma[0] * Bv[1] - gamma[1] * Bv[0]))
    return fs, ft


def _nil3(gamma, J, B, t, H):
    """Nil_3 point (a 3-tuple) from the curve (gamma, J), the ruling B and t; arrays broadcast."""
    return (
        gamma[0] + t * B[0],
        gamma[1] + t * B[1],
        gamma[2] - t * B[2] + H * J + t * H * (gamma[0] * B[1] - gamma[1] * B[0]),
    )


class ScrollSurface:
    """B-scroll surface pair generated by a frame source and its base curve.

    A query evaluates one frame batch for all the s it touches, unless the
    caller passes the frames it holds.
    """

    def __init__(self, frame_source, path: CurvePath):
        self.frame_source = frame_source
        self.path = path

    def _frames(self, s, frames):
        return finite_frames(self.frame_source, s) if frames is None else frames

    def _stencil_rows(self, s, t, offsets, h, frames):
        """(t broadcast with s, the stencil rows S, the frames at S.ravel() and a
        reshape of a frame vector to (3,) + S.shape)."""
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        S = stencil(s, offsets, h)
        frames = self._frames(S.ravel(), frames)
        return t, S, frames, lambda v: v.reshape((3,) + S.shape)

    # -- L^3 side ----------------------------------------------------------

    def gauss_map_L(self, s, t, frames=None) -> np.ndarray:
        f = self._frames(s, frames)
        return _gauss_map(f, t, f.H)

    def bscroll_partials(self, s, t):
        """(d/ds f_L, d/dt f_L) = (A + t*B', B)."""
        frame = self._frames(s, None)
        Av, Bv, _ = frame.Y.value
        return np.array([a + bp * t for a, bp in zip(Av, frame.B.deriv().value)]), Bv

    def fundamental_forms(self, s, t, frames=None) -> FundamentalForms:
        f = self._frames(s, frames)
        H = f.H
        k1 = f.kappa1.value
        k2 = f.kappa2.value
        I = _sym(2 * t * k1 + t * t * H * H, -1.0, 0.0)
        # II_ss = <f_ss, N> expanded through the Frenet-Serret relations
        II = _sym(-k2 + 2 * t * k1 * H + t * t * (H * H * H), -H, 0.0)
        return _forms(I, II)

    # -- normal Gauss map ---------------------------------------------------

    def normal_gauss_map(self, s, t, frames=None):
        """(g, pole): g = -(N2 + j*N1)/(1 - N3) for N = N_L(s,t) as the pair
        (re, im), NaN where the pole mask marks N3 ~ 1."""
        return _stereo(self.gauss_map_L(s, t, frames))

    # -- Nil_3 side ---------------------------------------------------------

    def mesh(self, svals, tvals):
        """{"l3": f_L, "nil3": f} on the grid, one row of vertices per s.

        f_L = gamma + t*B and f = (g1+t*B1, g2+t*B2, g3 - t*B3 + H*J +
        t*H*(g1*B2 - g2*B1)): one batch of frames and one curve evaluation
        for all s, broadcast over t.
        """
        f = self._frames(np.asarray(svals, dtype=float), None)
        Bv = f.B.value[:, :, None]
        gamma, J = self.path.dense_eval(svals)
        gamma = gamma[:, :, None]
        t = np.asarray(tvals, dtype=float)[None, :]
        points = {"l3": gamma + Bv * t, "nil3": _nil3(gamma, J[:, None], Bv, t, f.H)}
        return {k: np.stack(list(p), axis=-1).reshape(-1, 3) for k, p in points.items()}

    def _tangents_E(self, s, t, frames):
        """(frame, fs, ft, fs_E, ft_E): the Jacobian rows and their components
        in the left-invariant frame E_i (3-tuples), from one frame batch at s."""
        frame = self._frames(s, frames)
        H = frame.H
        gamma, J = self.path.dense_eval(s)
        fs, ft = _nil3_partials(frame, gamma, t, H)
        p = _nil3(gamma, J, frame.B.value, t, H)

        def E(v):
            return (v[0], v[1], v[2] + H * (p[1] * v[0] - p[0] * v[1]))

        return frame, fs, ft, E(fs), E(ft)

    def nil3_jacobian_metrics(self, s, t, frames=None):
        """Smallest singular value of the Jacobian and the signed area density.

        The density uses the g_R-orthonormal left-invariant frame and the
        frontal normal extended through the singular set via the shared
        normal Gauss map (projectively (N2, -N1, 1) from N = N_L), so its
        sign flips across a non-degenerate singular curve.
        """
        frame, fs, ft, fs_E, ft_E = self._tangents_E(s, t, frames)
        sigma_min = np.linalg.svd(_mat(fs, ft), compute_uv=False)[..., -1]
        N = _gauss_map(frame, t, frame.H)
        norm = np.sqrt(N[1] * N[1] + N[0] * N[0] + 1.0)
        n_E = (N[1] / norm, -N[0] / norm, 1.0 / norm)
        lam = np.linalg.det(_mat(fs_E, ft_E, n_E))
        return {"sigma_min": sigma_min, "lambda": lam}

    def nil3_gauss_map_direct(self, s, t, frames=None):
        """(g, pole): the Nil_3 surface's normal Gauss map from its own normal.

        Independent of N_L: frame components of the tangents, Lorentzian
        normal direction eta*(ft x fs), g_+-normalization, stereographic
        coordinate.  Shares g with the dual B-scroll away from poles; the
        mask marks a normal that is not spacelike or has n3 ~ -1.
        """
        _, _, _, u, v = self._tangents_E(s, t, frames)
        nd = mcross(u, v)
        norm2 = mdot(nd, nd)
        pole = norm2 <= 0
        n = nd / np.sqrt(np.where(pole, np.nan, norm2))
        pole |= np.abs(1.0 + n[2]) <= POLE_TOL
        d = np.where(pole, np.nan, 1.0 + n[2])
        return (n[0] / d, n[1] / d), pole

    # -- verification quantities -------------------------------------------

    def box_check(self, s, t, fd_step=1e-3, frames=None):
        """(residual, matched_sign) per point from the frames at the rows
        stencil(s, BOX_OFFSETS, fd_step); sign -1 means Box N_L = -2 H^2 N_L fits."""
        h = float(fd_step)
        t, _, frames, rows = self._stencil_rows(s, t, BOX_OFFSETS, h, frames)
        H = frames.H
        _, B, C = (rows(v) for v in frames.Y.value)
        tt = stencil(t, (-2, -1, 0, 1, 2), h)
        grid = -C[:, :, None] - B[:, :, None] * (tt * H)  # N_L at (s + i h, t + j h)

        def arr(i, j):
            return grid[:, i + 1, j + 2]

        def u_t(i, j):
            return (arr(i, j + 1) - arr(i, j - 1)) / (2 * h)

        def u_s(j):
            return (arr(1, j) - arr(-1, j)) / (2 * h)

        # P = g^{ss} u_s + g^{st} u_t = -u_t ;  Q = g^{ts} u_s + g^{tt} u_t
        dP_ds = -(u_t(1, 0) - u_t(-1, 0)) / (2 * h)

        def Q(j):
            return -u_s(j) - (tt[j + 2] * H) ** 2 * u_t(0, j)

        dQ_dt = (Q(1) - Q(-1)) / (2 * h)
        box = dP_ds + dQ_dt
        N = arr(0, 0)
        r_plus = np.linalg.norm(box - 2 * H * H * N, axis=0)
        r_minus = np.linalg.norm(box + 2 * H * H * N, axis=0)
        minus = r_minus <= r_plus
        return np.where(minus, r_minus, r_plus)[()], np.where(minus, -1, 1)[()]

    def fundamental_forms_fd(self, s, t, fd_step=FORMS_FD_STEP, frames=None):
        """FD cross-check of the forms from f_L and N_L directly.

        Fourth-order central stencils in s on the rows stencil(s,
        FORMS_OFFSETS, fd_step) (one frame per row), three-point stencils
        in t, where f_L is linear.
        """
        h = float(fd_step)
        t, S, frames, rows = self._stencil_rows(s, t, FORMS_OFFSETS, h, frames)
        H = frames.H
        gamma = rows(self.path.dense_eval(S.ravel())[0])
        _, B, C = (rows(v) for v in frames.Y.value)
        c = FORMS_OFFSETS.index(0)

        def p(dt):
            """f_L(s + k h, t + dt) at every s-offset k."""
            return gamma + B * (t + dt)

        def d_s(weights, dt):
            """sum_k w_k f(s + k h, t + dt) over the s-offsets."""
            rows_dt = p(dt)
            return sum(w * rows_dt[:, k] for k, w in enumerate(weights) if w)

        first, second = (1, -8, 0, 8, -1), (-1, 16, -30, 16, -1)
        fs = d_s(first, 0.0) / (12 * h)
        fss = d_s(second, 0.0) / (12 * h**2)
        fst = (d_s(first, h) - d_s(first, -h)) / (24 * h**2)
        ft = (p(h)[:, c] - p(-h)[:, c]) / (2 * h)
        ftt = (p(h)[:, c] - 2 * p(0.0)[:, c] + p(-h)[:, c]) / h**2
        N = -C[:, c] - B[:, c] * (t * H)

        I = _sym(mdot(fs, fs), mdot(fs, ft), mdot(ft, ft))
        II = _sym(mdot(fss, N), mdot(fst, N), mdot(ftt, N))
        return _forms(I, II)
