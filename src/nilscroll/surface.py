"""The CMC B-scroll f_L in L^3 and its dual minimal surface f in Nil_3(H).

Evaluates surface points, the Gauss map N_L = -C - t*H*B, fundamental
forms, the normal Gauss map g, the signed area density of the Nil_3
surface, and the d'Alembertian eigenvalue residual used for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoleError
from .frames import NullFrame
from .integrate import CurvePath
from .lorentz import ParaComplex, Vec3L, mdot

POLE_TOL = 1e-10


@dataclass(frozen=True)
class FundamentalForms:
    """First/second fundamental forms in the (ds, dt) basis, plus H and K."""

    I: np.ndarray
    II: np.ndarray
    H_mean: float
    K_gauss: float


@dataclass(frozen=True)
class SurfaceSample:
    s: float
    t: float
    f_L: Vec3L
    N_L: Vec3L
    f_nil: Vec3L
    df: np.ndarray  # 2x3 Jacobian of f_nil, rows (d/ds, d/dt)
    g_map: ParaComplex | None  # None marks a projection pole


def _gauss_map(frame: NullFrame, t, H) -> Vec3L:
    """N_L = -C - t*H*B."""
    _, Bv, Cv = frame.values()
    return -Cv - Bv * (t * H)


def _stereo(N: Vec3L) -> ParaComplex:
    """g = -(N2 + j*N1)/(1 - N3); pole at N3 = 1."""
    d = 1.0 - N.x3
    if abs(d) <= POLE_TOL:
        raise PoleError("normal Gauss map pole: N3 ~ 1")
    return ParaComplex(-N.x2 / d, -N.x1 / d)


def _forms(I, II) -> FundamentalForms:
    shape = np.linalg.inv(I) @ II
    return FundamentalForms(I=I, II=II, H_mean=0.5 * float(np.trace(shape)),
                            K_gauss=float(np.linalg.det(shape)))


def _nil3_partials(frame: NullFrame, gamma: Vec3L, t, H):
    """Coordinate Jacobian rows (d/ds f, d/dt f) of the Nil_3 surface."""
    Av, Bv, _ = frame.values()
    Bp = frame.B.deriv().value()
    dJ = gamma.x1 * Av.x2 - gamma.x2 * Av.x1
    dw = Av.x1 * Bv.x2 + gamma.x1 * Bp.x2 - Av.x2 * Bv.x1 - gamma.x2 * Bp.x1
    fs = np.array([Av.x1 + t * Bp.x1, Av.x2 + t * Bp.x2,
                   Av.x3 - t * Bp.x3 + H * dJ + t * H * dw])
    ft = np.array([Bv.x1, Bv.x2, -Bv.x3 + H * (gamma.x1 * Bv.x2 - gamma.x2 * Bv.x1)])
    return fs, ft


def _nil3(gamma, J, B, t, H) -> Vec3L:
    """Nil_3 point from the curve (gamma, J), the ruling B and t; arrays broadcast."""
    return Vec3L(
        gamma.x1 + t * B.x1,
        gamma.x2 + t * B.x2,
        gamma.x3 - t * B.x3 + H * J + t * H * (gamma.x1 * B.x2 - gamma.x2 * B.x1),
    )


class ScrollSurface:
    """B-scroll surface pair generated by a frame source and its base curve.

    A query evaluates the frame once per s it touches.
    """

    def __init__(self, frame_source, path: CurvePath):
        self.frame_source = frame_source
        self.path = path
        self.H = frame_source(path.s0).H

    # -- L^3 side ----------------------------------------------------------

    def bscroll_point(self, s, t) -> Vec3L:
        """f_L(s,t) = gamma(s) + t*B(s)."""
        frame = self.frame_source(s)
        gamma = self.path.gamma(s)
        return gamma + frame.B.value() * t

    def gauss_map_L(self, s, t) -> Vec3L:
        return _gauss_map(self.frame_source(s), t, self.H)

    def bscroll_partials(self, s, t):
        """(d/ds f_L, d/dt f_L) = (A + t*B', B)."""
        frame = self.frame_source(s)
        Av, Bv, _ = frame.values()
        Bp = frame.B.deriv().value()
        return Av + Bp * t, Bv

    def fundamental_forms(self, s, t) -> FundamentalForms:
        frame = self.frame_source(s)
        H = self.H
        k1 = frame.kappa1.value
        k2 = frame.kappa2.value
        I = np.array([[2 * t * k1 + t * t * H * H, -1.0], [-1.0, 0.0]])
        # II_ss = <f_ss, N> expanded through the Frenet-Serret relations
        II = np.array([[-k2 + 2 * t * k1 * H + t * t * H**3, -H], [-H, 0.0]])
        return _forms(I, II)

    # -- normal Gauss map ---------------------------------------------------

    def normal_gauss_map(self, s, t) -> ParaComplex:
        """g = -(N2 + j*N1)/(1 - N3) for N = N_L(s,t); pole at N3 = 1."""
        return _stereo(self.gauss_map_L(s, t))

    # -- Nil_3 side ---------------------------------------------------------

    def nil3_point(self, s, t) -> Vec3L:
        """f = (g1+t*B1, g2+t*B2, g3 - t*B3 + H*J + t*H*(g1*B2 - g2*B1))."""
        gamma, J = self.path.dense_eval(s)
        return _nil3(gamma, J, self.frame_source(s).B.value(), t, self.H)

    def mesh(self, svals, tvals):
        """{"l3": f_L, "nil3": f} on the grid, one row of vertices per s.

        One frame and one curve evaluation per s, broadcast over t with the
        arithmetic of bscroll_point and nil3_point.
        """
        B = np.array([self.frame_source(float(s)).B.value().as_array() for s in svals])
        Bv = Vec3L(*B.T[..., None])
        gamma, J = self.path.dense_eval(svals)
        gamma = Vec3L(*(g[:, None] for g in gamma))
        t = np.asarray(tvals, dtype=float)[None, :]
        points = {"l3": gamma + Bv * t, "nil3": _nil3(gamma, J[:, None], Bv, t, self.H)}
        return {k: np.stack(list(p), axis=-1).reshape(-1, 3) for k, p in points.items()}

    def nil3_partials(self, s, t):
        """Coordinate Jacobian rows (d/ds f, d/dt f) of the Nil_3 surface."""
        gamma, _ = self.path.dense_eval(s)
        return _nil3_partials(self.frame_source(s), gamma, t, self.H)

    def _tangents_E(self, s, t):
        """(frame, fs, ft, fs_E, ft_E): the Jacobian rows and their components
        in the left-invariant frame E_i, from one frame at s."""
        gamma, J = self.path.dense_eval(s)
        frame = self.frame_source(s)
        fs, ft = _nil3_partials(frame, gamma, t, self.H)
        p = _nil3(gamma, J, frame.B.value(), t, self.H)

        def E(v):
            return np.array([v[0], v[1], v[2] + self.H * (p.x2 * v[0] - p.x1 * v[1])])

        return frame, fs, ft, E(fs), E(ft)

    def nil3_jacobian_metrics(self, s, t):
        """Smallest singular value of the Jacobian and the signed area density.

        The density uses the g_R-orthonormal left-invariant frame and the
        frontal normal extended through the singular set via the shared
        normal Gauss map (projectively (N2, -N1, 1) from N = N_L), so its
        sign flips across a non-degenerate singular curve.
        """
        frame, fs, ft, fs_E, ft_E = self._tangents_E(s, t)
        sigma_min = float(np.linalg.svd(np.vstack([fs, ft]), compute_uv=False)[-1])
        N = _gauss_map(frame, t, self.H)
        n_dir = np.array([N.x2, -N.x1, 1.0])
        n_E = n_dir / np.linalg.norm(n_dir)
        lam = float(np.linalg.det(np.vstack([fs_E, ft_E, n_E])))
        return {"sigma_min": sigma_min, "lambda": lam}

    def nil3_gauss_map_direct(self, s, t) -> ParaComplex:
        """Normal Gauss map of the Nil_3 surface from its own unit normal.

        Independent of N_L: frame components of the tangents, Lorentzian
        normal direction eta*(ft x fs), g_+-normalization, stereographic
        coordinate.  Shares g with the dual B-scroll away from poles.
        """
        _, _, _, u, v = self._tangents_E(s, t)
        cr = np.cross(u, v)
        nd = np.array([-cr[0], cr[1], cr[2]])  # eta applied
        norm2 = -nd[0] ** 2 + nd[1] ** 2 + nd[2] ** 2
        if norm2 <= 0:
            raise PoleError("normal not spacelike (singular or degenerate point)")
        n = nd / np.sqrt(norm2)
        if abs(1.0 + n[2]) <= POLE_TOL:
            raise PoleError("direct Gauss map pole: n3 ~ -1")
        return ParaComplex(n[0] / (1.0 + n[2]), n[1] / (1.0 + n[2]))

    def sample(self, s, t) -> SurfaceSample:
        gamma, J = self.path.dense_eval(s)
        frame = self.frame_source(s)
        Bv = frame.B.value()
        fs, ft = _nil3_partials(frame, gamma, t, self.H)
        N = _gauss_map(frame, t, self.H)
        try:
            g = _stereo(N)
        except PoleError:
            g = None
        return SurfaceSample(
            s=float(s),
            t=float(t),
            f_L=gamma + Bv * t,
            N_L=N,
            f_nil=_nil3(gamma, J, Bv, t, self.H),
            df=np.vstack([fs, ft]),
            g_map=g,
        )

    # -- verification quantities -------------------------------------------

    def box_check(self, s, t, fd_step=1e-3):
        """(residual, matched_sign); sign -1 means Box N_L = -2 H^2 N_L fits."""
        h = float(fd_step)
        H = self.H
        grid = {}
        for i in (-1, 0, 1):
            frame = self.frame_source(s + i * h)
            for j in (-2, -1, 0, 1, 2):
                grid[(i, j)] = _gauss_map(frame, t + j * h, H)

        def arr(i, j):
            return grid[(i, j)].as_array()

        def u_t(i, j):
            return (arr(i, j + 1) - arr(i, j - 1)) / (2 * h)

        def u_s(j):
            return (arr(1, j) - arr(-1, j)) / (2 * h)

        # P = g^{ss} u_s + g^{st} u_t = -u_t ;  Q = g^{ts} u_s + g^{tt} u_t
        dP_ds = -(u_t(1, 0) - u_t(-1, 0)) / (2 * h)

        def Q(j):
            tt = t + j * h
            return -u_s(j) - (tt * H) ** 2 * u_t(0, j)

        dQ_dt = (Q(1) - Q(-1)) / (2 * h)
        box = dP_ds + dQ_dt
        N = arr(0, 0)
        r_plus = float(np.linalg.norm(box - 2 * H * H * N))
        r_minus = float(np.linalg.norm(box + 2 * H * H * N))
        if r_minus <= r_plus:
            return r_minus, -1
        return r_plus, +1

    def fundamental_forms_fd(self, s, t, fd_step=1e-4):
        """FD cross-check of the forms from f_L and N_L directly (one frame per s)."""
        h = float(fd_step)
        rows = {
            ds: (self.path.gamma(s + ds), self.frame_source(s + ds)) for ds in (-h, 0.0, h)
        }

        def p(ds, dt):
            gamma, frame = rows[ds]
            return (gamma + frame.B.value() * (t + dt)).as_array()

        fs = (p(h, 0) - p(-h, 0)) / (2 * h)
        ft = (p(0, h) - p(0, -h)) / (2 * h)
        fss = (p(h, 0) - 2 * p(0, 0) + p(-h, 0)) / h**2
        ftt = (p(0, h) - 2 * p(0, 0) + p(0, -h)) / h**2
        fst = (p(h, h) - p(h, -h) - p(-h, h) + p(-h, -h)) / (4 * h**2)
        N = _gauss_map(rows[0.0][1], t, self.H).as_array()
        eta = np.diag([-1.0, 1.0, 1.0])

        def dot(a, b):
            return float(a @ eta @ b)

        I = np.array([[dot(fs, fs), dot(fs, ft)], [dot(fs, ft), dot(ft, ft)]])
        II = np.array([[dot(fss, N), dot(fst, N)], [dot(fst, N), dot(ftt, N)]])
        return _forms(I, II)
