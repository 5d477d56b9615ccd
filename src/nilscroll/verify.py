"""The invariant suite: named checks of the paper's claims for one generator.

Every (s, t) sample is drawn first and the frames at every distinct s the
checks touch come from one batch; each check is then one array expression
over its samples, through the array queries of ScrollSurface.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import hexpr
from .errors import ClassifierInconsistency, PreconditionError
from .frames import finite_frames, make_frame_source, validate_frame
from .integrate import integrate_curve
from .lorentz import mdot
from .singular import classify_point, singular_t
from .surface import BOX_OFFSETS, FORMS_FD_STEP, FORMS_OFFSETS, ScrollSurface, stencil


def _nl_from_g(g):
    """Fact-sheet normal from the stereographic coordinate, for round trips."""
    m = g.sqmod()
    d = 1.0 + m
    jg = (g - g.conj()).times_j()  # = 2*im(g) as a real number part
    return np.array([-jg.re / d, -(g + g.conj()).re / d, -(1.0 - m) / d])


def _worst(*residuals):
    """The largest residual, 0 for none; NaN if any is NaN, so that its check fails."""
    return float(np.max(np.concatenate([[0.0], *(np.ravel(r) for r in residuals)])))


def run_verify(h_text, H, s_range, fd_step=1e-3, fd_tol=1e-6):
    """Named invariant checks for one generator; pure, used by tests too.

    The samples are seeded (the same draws on every run), the surface
    queries take them as arrays, and one frame batch serves every check.
    """
    h_ast = hexpr.parse(h_text)
    lo, hi = s_range
    # FD probes reach 2 FORMS_FD_STEP (forms) and fd_step (box) past a draw;
    # keep every probe inside the path range
    pad = max(0.02 * (hi - lo), 2.0 * FORMS_FD_STEP, fd_step)
    if not hi - lo > 2.0 * pad:
        raise PreconditionError(
            f"s-range {lo}:{hi} is too short for the finite-difference probes (pad {pad})")
    source = make_frame_source(h_ast, H)
    surf = ScrollSurface(source, integrate_curve(source, 0.5 * (lo + hi), s_range))
    rng = np.random.default_rng(20240817)

    def draw(n):
        """n samples (s, t), s drawn before t for each, as two arrays."""
        return rng.uniform((lo + pad, -2.0), (hi - pad, 2.0), size=(n, 2)).T

    (form_s, form_t), (box_s, box_t), (gauss_s, gauss_t) = draw(40), draw(20), draw(40)
    dual_s = np.linspace(lo, hi, 21)
    groups = [np.linspace(lo, hi, 41), dual_s, form_s,
              stencil(form_s, FORMS_OFFSETS, FORMS_FD_STEP).ravel(),
              stencil(box_s, BOX_OFFSETS, fd_step).ravel(), gauss_s]
    distinct, rows = np.unique(np.concatenate(groups), return_inverse=True)
    batch = finite_frames(source, distinct)
    f, f_dual, f_form, f_stencil, f_box, f_gauss = (
        batch.take(r) for r in np.split(rows, np.cumsum([len(g) for g in groups])[:-1]))

    checks = {}

    def add(name, residual, tol, detail=None):
        entry = {"residual": float(residual), "tolerance": float(tol),
                 "pass": bool(residual < tol)}
        if detail is not None:
            entry["detail"] = detail
        checks[name] = entry

    # frame invariants and Frenet-Serret residuals
    r = validate_frame(f)
    Bp = f.B.deriv()
    Bpp = Bp.deriv()
    add("frame_invariants", _worst(*(v for k, v in r.items() if not k.startswith("fs_"))), 1e-9)
    add("frenet_serret", _worst(r["fs_A"], r["fs_B"], r["fs_C"]), 1e-8)
    add("weierstrass_curvature",
        _worst(np.abs(mdot(Bp, Bp).value - H * H),
               np.abs(mdot(Bpp, Bpp).value + 2.0 * H**3 * f.kappa2.value)), 1e-8)

    # fundamental forms: closed form vs finite differences, plus H/K law
    forms = surf.fundamental_forms(form_s, form_t, frames=f_form)
    fd = surf.fundamental_forms_fd(form_s, form_t, frames=f_stencil)
    add("fundamental_forms_fd", _worst(np.abs(forms.I - fd.I), np.abs(forms.II - fd.II)), fd_tol)
    add("mean_gauss_curvature",
        _worst(np.abs(forms.H_mean - H), np.abs(forms.K_gauss - H * H)), 1e-10)

    # d'Alembertian eigenvalue identity, both sign conventions tried
    box_res, signs = surf.box_check(box_s, box_t, fd_step=fd_step, frames=f_box)
    signs = set(signs.tolist())
    box_sign = signs.pop() if len(signs) == 1 else None
    add("box_eigenvalue", _worst(box_res), 1e-4, detail={"sign": box_sign})

    # normal Gauss map round trip through the unit-normal formula, off its poles
    N = surf.gauss_map_L(gauss_s, gauss_t, frames=f_gauss)
    g, pole = surf.normal_gauss_map(gauss_s, gauss_t, frames=f_gauss)
    add("gauss_map_roundtrip", _worst(np.abs(_nl_from_g(g) - N.as_array())[:, ~pole]), 1e-10)

    # singular-set duality: rank drop and |g|^2 = 1 on t(s) = -C3/(H B3)
    kinds = Counter("inconsistent" if isinstance(p, ClassifierInconsistency) else p.kind.value
                    for p in classify_point(f_dual, raise_errors=False))
    t = singular_t(f_dual)
    on = np.flatnonzero(np.abs(t) <= 50.0)  # bounded, not NaN
    f_on = f_dual.take(on)
    metrics = surf.nil3_jacobian_metrics(dual_s[on], t[on], frames=f_on)
    g, _ = surf.normal_gauss_map(dual_s[on], t[on], frames=f_on)
    add("singular_duality_rank", _worst(metrics["sigma_min"]), 1e-6)
    add("singular_duality_gmod", _worst(np.abs(g.sqmod() - 1.0)), 1e-8)

    return {
        "generator": hexpr.to_str(h_ast),
        "H": H,
        "s_range": list(s_range),
        "checks": checks,
        "box_sign": box_sign,
        "singular_kinds": dict(kinds),
        "all_pass": all(c["pass"] for c in checks.values()),
    }
