"""The invariant suite: seven named checks of the paper's claims for one generator.

Every (s, t) sample is drawn first (60 seeded rows: 40 for the forms, 20
for the box), and its frame comes with the base curve's first frame batch;
each check is then one array expression over its samples, through the array
queries of ScrollSurface.  tests/test_verify_mutations.py records which
checks fail when one piece of the computation is perturbed.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _draws():
    """numpy's default_rng(20240817).random((60, 2)), bit for bit, made once, read only:
    PCG64 steps its 128-bit LCG from the state and increment SeedSequence(20240817)
    gives, and a draw is the XSL-RR output (O'Neill 2014) >> 11, times 2^-53."""
    state, inc, out = 0x1D69F3DE084E6A5F28AD013E3DAABAA4, 0x10957D136FB1D369CC7447F2C58CFBE9, []
    for _ in range(120):
        state = (state * 0x2360ED051FC65DA44385DF649FCCF645 + inc) % 2**128
        x, r = (state >> 64 ^ state) % 2**64, state >> 122
        out.append((x >> r | x << 64 - r) % 2**64 >> 11)
    u = np.array(out).reshape(60, 2) * 2.0**-53
    u.flags.writeable = False
    return u


def run_verify(h_text, H, s_range):
    """Named invariant checks for one generator; pure, used by tests too.

    The samples are seeded (the same draws on every run), the surface
    queries take them as arrays, and their frames share the curve's batch.
    Every derivative comes from the jets of the frames and the base curve.
    """
    h_ast = hexpr.parse(h_text)
    lo, hi = s_range
    source = make_frame_source(h_ast, H)
    if not np.isfinite(hi - lo):  # the error numpy's uniform raised, before any frame work
        raise OverflowError("Range exceeds valid bounds")
    rows = (lo, -2.0) + np.array([hi - lo, 4.0]) * _draws()
    (form_s, form_t), (box_s, box_t) = rows[:40].T, rows[40:].T
    grid_s, dual_s = np.linspace(lo, hi, 41), np.linspace(lo, hi, 21)
    source.want(np.concatenate([grid_s, dual_s, form_s, box_s]))
    surf = ScrollSurface(source, integrate_curve(source, 0.5 * (lo + hi), s_range))
    f, f_dual = finite_frames(source, grid_s), finite_frames(source, dual_s)

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
    I, II = surf.fundamental_forms(form_s, form_t)
    jet_I, jet_II = surf.jet_forms(form_s, form_t)
    add("fundamental_forms", _worst(np.abs(I - jet_I), np.abs(II - jet_II)), 1e-6)

    # base curve: the series' derivatives against A and gamma1*A2 - gamma2*A1,
    # relative to the sizes of A and gamma*A
    gamma, A = surf.path.dense_eval(form_s)[0], source(form_s).A.value
    dgamma, dJ = surf.path.deriv().dense_eval(form_s)
    size = np.max(np.abs(A))
    add("base_curve", _worst(np.abs(dgamma - A) / size,
                             np.abs(dJ - (gamma[0] * A[1] - gamma[1] * A[0]))
                             / (np.max(np.abs(gamma)) * size)), 1e-10)

    # d'Alembertian eigenvalue identity, both sign conventions tried
    box_res, signs = surf.box_eigenvalue(box_s, box_t)
    signs = set(signs.tolist())
    box_sign = signs.pop() if len(signs) == 1 else None
    add("box_eigenvalue", _worst(box_res), 1e-4)
    checks["box_eigenvalue"]["detail"] = {"sign": box_sign}

    # singular-set duality: the Nil_3 surface drops rank on t(s) = -C3/(H B3)
    table = classify_point(f_dual)
    kind = table.kind.copy()
    kind[list(table.errors)] = "inconsistent"
    kinds = dict(Counter(kind.tolist()))
    on = np.flatnonzero(np.abs(table.t) <= 50.0)  # bounded, not NaN
    add("singular_duality_rank", _worst(surf.nil3_jacobian_metrics(dual_s[on], table.t[on])), 1e-6)

    return {
        "generator": hexpr.to_str(h_ast),
        "H": H,
        "s_range": list(s_range),
        "checks": checks,
        "box_sign": box_sign,
        "singular_kinds": kinds,
        "all_pass": all(c["pass"] for c in checks.values()),
    }
