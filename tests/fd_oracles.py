"""Finite-difference oracles for the surface's jet derivatives.

The package differentiates only through jets; these stencils are the
second, approximate route the tests compare it with.  Each takes a
ScrollSurface and works like its array queries: s, t broadcast together,
and the frames at the stencil rows (see stencil) come from the surface's
frame source in one request.
"""

import numpy as np

from nilscroll.frames import finite_frames
from nilscroll.lorentz import mdot
from nilscroll.surface import _sym

# the checks evaluate frames at s + k*h for these k, and the form check
# steps by FORMS_FD_STEP
FORMS_OFFSETS = (-2, -1, 0, 1, 2)
BOX_OFFSETS = (-1, 0, 1)
FORMS_FD_STEP = 1e-3


def stencil(s, offsets, h):
    """The rows s + k*h of a finite-difference stencil, shape (len(offsets),) + s.shape."""
    k = np.multiply(offsets, float(h))
    return k.reshape(k.shape + (1,) * np.ndim(s)) + s


def _stencil_rows(surf, s, t, offsets, h):
    """(t broadcast with s, the stencil rows S, the frames at S.ravel() and a
    reshape of a frame vector to (3,) + S.shape)."""
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    S = stencil(s, offsets, h)
    frames = finite_frames(surf.frame_source, S.ravel())
    return t, S, frames, lambda v: v.reshape((3,) + S.shape)


def box_check(surf, s, t, fd_step=1e-3):
    """(residual, matched_sign) per point from the frames at the rows
    stencil(s, BOX_OFFSETS, fd_step); sign -1 means Box N_L = -2 H^2 N_L fits."""
    h = float(fd_step)
    t, _, frames, rows = _stencil_rows(surf, s, t, BOX_OFFSETS, h)
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


def fundamental_forms_fd(surf, s, t, fd_step=FORMS_FD_STEP):
    """(I, II), a FD cross-check of the forms from f_L and N_L directly.

    Fourth-order central stencils in s on the rows stencil(s,
    FORMS_OFFSETS, fd_step) (one frame per row), three-point stencils
    in t, where f_L is linear.
    """
    h = float(fd_step)
    t, S, frames, rows = _stencil_rows(surf, s, t, FORMS_OFFSETS, h)
    H = frames.H
    gamma = rows(surf.path.dense_eval(S.ravel())[0])
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

    return (_sym(mdot(fs, fs), mdot(fs, ft), mdot(ft, ft)),
            _sym(mdot(fss, N), mdot(fst, N), mdot(ftt, N)))
