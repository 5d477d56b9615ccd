import dataclasses
import math

import numpy as np
import pytest

from jet_route_oracles import stack
from nilscroll import hexpr
from nilscroll.frames import make_frame_source
from nilscroll.integrate import integrate_curve
from nilscroll.surface import ScrollSurface

GENERATORS = ["tanh(s)", "s + s^3", "cot(exp(s)/2)"]

# tanh swallowtail parameters s± = (1/4) log(5 ± 2 sqrt 6)
S_PLUS = 0.25 * math.log(5.0 + 2.0 * math.sqrt(6.0))
S_MINUS = 0.25 * math.log(5.0 - 2.0 * math.sqrt(6.0))


@pytest.fixture(scope="session")
def tanh_source():
    return make_frame_source(hexpr.parse("tanh(s)"), 1.0)


@pytest.fixture(scope="session")
def tanh_surface(tanh_source):
    path = integrate_curve(tanh_source, 0.0, (-1.3, 1.3))
    return ScrollSurface(tanh_source, path)


@pytest.fixture(scope="session", params=GENERATORS)
def any_source(request):
    return request.param, make_frame_source(hexpr.parse(request.param), 1.0)


@pytest.fixture(scope="session")
def surfaces():
    out = {}
    for text in GENERATORS:
        src = make_frame_source(hexpr.parse(text), 1.0)
        path = integrate_curve(src, 0.0, (-1.3, 1.3))
        out[text] = ScrollSurface(src, path)
    return out


@pytest.fixture(scope="session")
def c_off_sphere():
    """off(at, scale=1.01): a stand-in for make_frame_source whose frames have
    C scaled by scale at the s values in at; it reads them from a real frame
    table, whose want it shares.  C leaves the unit sphere there, so the two
    routes to c_L' disagree: a ClassifierInconsistency at each bounded one."""

    def off(at, scale=1.01):
        def make(h_ast, H):
            table = make_frame_source(h_ast, H)

            def source(s):
                f = table(s)
                scale_at = np.where(np.isin(s, at), scale, 1.0)
                return dataclasses.replace(f, Y=stack([f.A, f.B, f.C * scale_at]))
            source.want = table.want
            return source
        return make
    return off
