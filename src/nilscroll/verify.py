"""The invariant suite: seven named checks of the paper's claims for one generator.

Every check samples one grid of 41 evenly spaced s, whose frames come with
the base curve's first frame batch, and each check is one array expression
over it, through the array queries of ScrollSurface.  No sample is random.
tests/test_verify_mutations.py records which checks fail when one piece of
the computation is perturbed.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import hexpr
from .frames import finite_frames, make_frame_source, validate_frame
from .integrate import integrate_curve
from .lorentz import mdot
from .singular import classify_point
from .surface import ScrollSurface


def _worst(*residuals):
    """The largest residual, 0 for none; NaN if any is NaN, so that its check fails."""
    return float(np.max(np.concatenate([[0.0], *(np.ravel(r) for r in residuals)])))


def run_verify(h_text, H, s_range):
    """Named invariant checks for one generator; pure, used by tests too.

    Every check reads the one grid of 41 evenly spaced s, whose frames share
    the curve's batch: the forms and the box at t in {-2, 0, 2} on every
    other s, the duality on t(s) there too.  Every derivative comes from the
    jets of the frames and the base curve.
    """
    h_ast = hexpr.parse(h_text)
    lo, hi = s_range
    source = make_frame_source(h_ast, H)
    if not np.isfinite(hi - lo):  # a library caller's infinite or NaN width, before any frame work
        raise OverflowError("Range exceeds valid bounds")
    s = np.linspace(lo, hi, 41)
    source.want(s)
    surf = ScrollSurface(source, integrate_curve(source, 0.5 * (lo + hi), s_range))
    f = finite_frames(source, s)
    # I, II and N_L are polynomials of degree <= 2 in t: three t fix them on [-2, 2]
    s3, t3 = np.repeat(s[::2], 3), np.tile([-2.0, 0.0, 2.0], 21)

    checks = {}

    def add(name, residual, tol):
        checks[name] = {"residual": float(residual), "tolerance": float(tol),
                        "pass": bool(residual < tol)}

    # frame invariants and Frenet-Serret residuals
    r = validate_frame(f)
    Bpp = f.B.deriv().deriv()
    add("frame_invariants", _worst(*(v for k, v in r.items() if not k.startswith("fs_"))), 1e-9)
    add("frenet_serret", _worst(r["fs_A"], r["fs_B"], r["fs_C"]), 1e-8)
    add("weierstrass_curvature", _worst(
        r["b_sqnorm"], np.abs(mdot(Bpp, Bpp).value + 2.0 * (H * H * H) * f.kappa2.value)), 1e-8)

    # fundamental forms: closed form vs the frame's jets
    I, II = surf.fundamental_forms(s3, t3)
    jet_I, jet_II = surf.jet_forms(s3, t3)
    add("fundamental_forms", _worst(np.abs(I - jet_I), np.abs(II - jet_II)), 1e-6)

    # base curve: the series' derivatives against A and gamma1*A2 - gamma2*A1,
    # relative to the sizes of A and gamma*A
    gamma, A = surf.path.dense_eval(s)[0], f.A.value
    dgamma, dJ = surf.path.deriv().dense_eval(s)
    size = np.max(np.abs(A))
    add("base_curve", _worst(np.abs(dgamma - A) / size,
                             np.abs(dJ - (gamma[0] * A[1] - gamma[1] * A[0]))
                             / (np.max(np.abs(gamma)) * size)), 1e-10)

    # d'Alembertian eigenvalue identity Box N_L = -2 H^2 N_L
    add("box_eigenvalue", _worst(surf.box_eigenvalue(s3, t3)), 1e-4)

    # singular-set duality: the Nil_3 surface drops rank on t(s) = -C3/(H B3)
    table = classify_point(source(s[::2]))
    kind = table.kind.copy()
    kind[list(table.errors)] = "inconsistent"
    kinds = dict(Counter(kind.tolist()))
    # bounded, not NaN; t H^2 is the t of H = 1, so the window does not scale with H
    on = np.flatnonzero(np.abs(table.t * (H * H)) <= 50.0)
    add("singular_duality_rank", _worst(surf.nil3_jacobian_metrics(s[::2][on], table.t[on])), 1e-6)

    return {
        "generator": hexpr.to_str(h_ast),
        "H": H,
        "s_range": list(s_range),
        "checks": checks,
        "singular_kinds": kinds,
        "all_pass": all(c["pass"] for c in checks.values()),
    }
