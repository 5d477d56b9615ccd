"""Adapted null frames (A, B, C) along null curves.

Constructors: closed form from a generator h, or from prescribed curvature
functions via the Frenet-Serret flow.  A frame is one Taylor array
Y[k, v, i] (coefficient k of component i of A, B, C for v = 0, 1, 2) over
its batch of points, so every s-derivative needed downstream is exact;
finite differences survive only as test oracles.  Y.value, of shape (3, 3)
or (3, 3, N) for a batch, holds the vectors A, B, C (see lorentz), and
Y.deriv().value holds A', B', C'.

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
from .errors import DegenerateGenerator, DomainError, InitError, NumericFailure
from .jets import DEFAULT_ORDER, Jet, _cauchy, _quotient, _scaled_tail, schwarzian
from .lorentz import det3, mcross, mdot

B3_UNBOUNDED_TOL = 1e-10


@dataclass(frozen=True)
class NullFrame:
    """Null frame at parameter s: the jet Y of shape (3, 3) holds A, B, C.

    kappa2 equals -S(h)/H for frames built from a generator h; kappa1 is
    identically zero for B-scrolls and may be nonzero for general null
    scrolls produced by the curvature flow.
    """

    s: float
    Y: Jet
    kappa1: Jet
    kappa2: Jet
    H: float

    A = property(lambda self: self.Y[0], doc="A as a vector jet (a view of Y)")
    B = property(lambda self: self.Y[1], doc="B as a vector jet (a view of Y)")
    C = property(lambda self: self.Y[2], doc="C as a vector jet (a view of Y)")

    def take(self, idx):
        """The frame at the points idx of a batch; an int gives a single-point frame."""
        Y = self.Y.take(idx)
        return NullFrame(s=Y.base_point, Y=Y, kappa1=self.kappa1.take(idx),
                         kappa2=self.kappa2.take(idx), H=self.H)

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


def frame_from_h(h_ast, H: float, s) -> NullFrame:
    """Closed-form B-scroll frame from a generator expression.

    B = -(H/(2h')) (-1-h^2, 1-h^2, 2h), C = B'/H,
    A = (S(h)/H^2) B + B''/H^2, kappa1 = 0, kappa2 = -S(h)/H.  s is a float
    or a 1-D array (one AST walk for the batch).  Y and kappa2 have order
    DEFAULT_ORDER - 3, A's order (2, which carries B'').  A float s outside h's domain, or with
    |h'(s)| < 1e-12, raises DomainError or DegenerateGenerator; in a batch
    such a point, like one with a non-finite coefficient of A, B, C or
    kappa2 at any order computed, gets a frame that is NaN in every
    coefficient (see raise_first).
    """
    if H == 0.0:
        raise ValueError("H must be non-zero")
    with np.errstate(all="ignore"):
        h = hexpr.eval_jet(h_ast, s, DEFAULT_ORDER)
        hp = h.deriv()
        flat = np.abs(hp.taylor()[0]) < 1e-12
        if flat.any() and not h.batched:
            raise DegenerateGenerator(f"|h'({h.base_point})| = {abs(hp.value):.3e} < 1e-12")
        S = schwarzian(h).taylor()
        if H * H == 0.0:
            raise DomainError("div", h.point(0), "division by zero")
        # the Jet operators' steps on the coefficient arrays (a flat point gets NaN below)
        t, q = h.taylor(), hp.taylor()
        v = np.stack([-_cauchy(t, t)] * 2 + [t * 2.0], axis=1)
        v[0, :2] += [[-1.0], [1.0]]  # (-1 - h^2, 1 - h^2, 2h)
        c = Jet.constant(-H / 2.0, hp.order, h.base_point).taylor()
        B = _cauchy(_quotient(c, q)[:, None], v[:-1])
        C = _scaled_tail(B) * (1.0 / H)
        A = _cauchy(B[:-2], S[:, None] * (1.0 / (H * H))) + _scaled_tail(C) * H * (1.0 / (H * H))
        kappa2 = -S * (1.0 / H)
    Y = np.stack([A, B[:-2], C[:-1]], axis=1)
    # one pass over every coefficient: a point's frame is finite throughout or NaN throughout
    n = Y.shape[-1]
    bad = flat | ~np.isfinite(np.concatenate(
        [j.reshape(-1, n) for j in (A, B, C, kappa2)])).all(axis=0)
    Y[..., bad] = kappa2[..., bad] = np.nan
    kappa1 = Jet.constant(0.0, len(kappa2) - 1, base_point=h.base_point)
    return NullFrame(s=h.base_point, Y=Jet(Y, h.base_point), kappa1=kappa1,
                     kappa2=Jet(kappa2, h.base_point), H=H)


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


def make_frame_source(h_ast, H: float):
    """One command's frame table: s -> NullFrame for the generator h.  A float s
    is evaluated alone and raises as frame_from_h does (looked up at each call).
    An array s is served by row, keyed by the bits of s (at h = s, B3 is -0.0 at
    0.0), after one batch of the s not held yet and those passed to want(s),
    each once, in request order."""
    rows, wanted = {}, []  # bits of s -> row
    # Y, kappa1 and kappa2 by row, with the DEFAULT_ORDER - 2 coefficients frame_from_h gives
    cols = [np.empty((DEFAULT_ORDER - 2, *shape, 0)) for shape in ((3, 3), (), ())]

    def source(s):
        nonlocal cols
        if np.ndim(s) == 0:
            return frame_from_h(h_ast, H, s)
        s = np.array(s, dtype=float)
        k = [x for x in dict.fromkeys(np.concatenate([s, *wanted]).view(np.int64).tolist())
             if x not in rows]
        wanted.clear()
        if k:
            f, n = frame_from_h(h_ast, H, np.array(k).view(float)), len(rows)
            new = [j.taylor() for j in (f.Y, f.kappa1, f.kappa2)]
            if n + len(k) > cols[0].shape[-1]:  # double the room
                cols = [np.concatenate([c[..., :n], x] * 2, -1) for c, x in zip(cols, new)]
            for c, x in zip(cols, new):
                c[..., n:n + len(k)] = x
            rows.update(zip(k, range(n, n + len(k))))
        r = [rows[x] for x in s.view(np.int64).tolist()]
        return NullFrame(s, *(Jet(c.take(r, axis=-1), s) for c in cols), H)

    source.want = wanted.append
    return source


def validate_frame(f: NullFrame) -> FrameResiduals:
    """Residuals of all frame invariants (arrays for a batch); the caller
    picks thresholds."""
    dA, dB, dC = f.Y.deriv().value
    Av, Bv, Cv = f.Y.value
    k1, k2, H = f.kappa1.value, f.kappa2.value, f.H
    with np.errstate(all="ignore"):
        Bp = f.B.deriv()
        return FrameResiduals(
            norm_A=np.abs(mdot(Av, Av)),
            norm_B=np.abs(mdot(Bv, Bv)),
            pair_AB=np.abs(mdot(Av, Bv) + 1.0),
            norm_C=np.abs(mdot(Cv, Cv) - 1.0),
            orth_AC=np.abs(mdot(Av, Cv)),
            orth_BC=np.abs(mdot(Bv, Cv)),
            cross_AB_C=np.abs(mcross(Av, Bv) - Cv).max(axis=0),
            det_ABC=np.abs(det3(Av, Bv, Cv) - 1.0),
            fs_A=np.abs(dA - (Av * k1 + Cv * k2)).max(axis=0),
            fs_B=np.abs(dB - (Bv * (-k1) + Cv * H)).max(axis=0),
            fs_C=np.abs(dC - (Av * H + Bv * k2)).max(axis=0),
            b_sqnorm=np.abs(mdot(dB, dB) - H * H),
            b_orientation=np.maximum(0.0, -H * det3(Bv, dB, Bp.deriv().value)))


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


def _frenet(t1, t2, H):
    """Taylor array F[j, v, u, n] of the Frenet-Serret matrix from the
    curvature coefficients t1[j, n], t2[j, n]: v' = sum_u F[v, u] u."""
    F = np.zeros((len(t1), 3, 3, t1.shape[1]))
    F[:, 0, 0], F[:, 0, 2], F[:, 1, 1], F[:, 2, 1] = t1, t2, -t1, t2
    F[0, 1, 2] = F[0, 2, 0] = H
    return F


def frame_jets_from_values(Av, Bv, Cv, kappa1_ast, kappa2_ast, H, s):
    """Rebuild the frame's Taylor array, of order DEFAULT_ORDER, from sampled values.

    For the linear system Y' = F Y, with F the Frenet-Serret matrix's Taylor
    array from the curvature jets (_frenet), each order is one contraction:
    (k+1) Y[k+1] = sum_j F[k-j] Y[j].  Av, Bv, Cv are vectors of 3 values
    (a list or array) at a float s, or of 3 arrays at a 1-D array s.
    """
    k1 = _curvature(kappa1_ast, s, DEFAULT_ORDER)
    k2 = _curvature(kappa2_ast, s, DEFAULT_ORDER)
    F = _frenet(k1.taylor(), k2.taylor(), H)
    # Y[k, v, i]: Taylor coefficient k of component i of A, B, C (v = 0, 1, 2)
    Y = np.zeros((DEFAULT_ORDER + 1, *F.shape[1:]))
    Y[0] = np.reshape([[*Av], [*Bv], [*Cv]], (3, 3, -1))
    with np.errstate(all="ignore"):
        for k in range(DEFAULT_ORDER):
            Y[k + 1] = np.einsum("jvun,juin->vin", F[k::-1], Y[:k + 1]) / (k + 1)
    return NullFrame(s=k1.base_point, Y=Jet(Y, k1.base_point), kappa1=k1, kappa2=k2, H=H)


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
        if not side.any():
            continue
        stops = np.concatenate([[s0], grid[side][::way]])
        t = np.interp(np.arange((len(stops) - 1) * m + 1) / m, np.arange(len(stops)), stops)
        h = np.diff(t)[:, None, None]
        # both Gauss nodes of every step, in the order the march meets them
        K = K_at(np.ravel(t[:-1, None] + np.outer(h[:, 0, 0], _GAUSS)))
        K1, K2 = K[0::2], K[1::2]
        E = _expm_so21(0.5 * h * (K1 + K2) + (math.sqrt(3.0) / 12.0) * h * h * (K1 @ K2 - K2 @ K1))
        # each interval's m step exponentials (m a power of two), multiplied
        # pairwise in log2(m) batched products; then the prefix products
        # P[k] = E[0] ... E[k] in ceil(log2 n) batched steps (Hillis & Steele)
        E = E.reshape(-1, m, 3, 3)
        while E.shape[1] > 1:
            E = E[:, 0::2] @ E[:, 1::2]
        P, d = E[:, 0], 1
        while d < len(P):  # after the step at d, P[k] = E[max(0, k - 2d + 1)] ... E[k]
            P, d = np.concatenate([P[:d], P[:-d] @ P[d:]]), 2 * d
        Y[side] = (Y0 @ P)[::way]
    return Y


def frame_flow_from_curvatures(
    kappa1_ast,
    kappa2_ast,
    H: float,
    init: NullFrame,
    s_range,
    n_samples: int = 101,
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
    lo, hi = map(float, s_range)
    if not (lo <= init.s <= hi):
        raise InitError(f"initial frame at s={init.s} outside range [{lo}, {hi}]")

    def K_at(svals):
        """K = [[k1, 0, H], [0, -k1, k2], [k2, H, 0]] at each s: F[0] transposed."""
        k1, k2 = (_curvature(ast, svals, 0).taylor() for ast in (kappa1_ast, kappa2_ast))
        return np.ascontiguousarray(_frenet(k1, k2, H)[0].T)

    def nearest(bad):
        """The flagged grid point the march reaches first."""
        return float(grid[bad][np.argmin(np.abs(grid[bad] - init.s))])

    Y0 = init.Y.value.T
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

    return frame_jets_from_values(*np.transpose(Y, (2, 1, 0)), kappa1_ast, kappa2_ast, H, grid)
