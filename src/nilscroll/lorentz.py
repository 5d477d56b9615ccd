"""Lorentzian linear algebra in signature (-,+,+).

The Minkowski inner product and cross product, and a
rotation-boost-rotation chart of SO+(2,1).

A vector of values is an array of shape (3, ...): the first axis holds the
components, any further axes a batch of points.  mdot, mcross and det3
unpack their arguments along that axis; mdot and det3 also take a vector
:class:`~nilscroll.jets.Jet`, whose products are jet products, and mcross
returns an array.
LorentzTransform.apply maps the vectors of a vector or frame jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .jets import Jet

ETA = np.diag([-1.0, 1.0, 1.0])


def mdot(u, v):
    """Minkowski inner product -u1*v1 + u2*v2 + u3*v3."""
    (u1, u2, u3), (v1, v2, v3) = u, v
    return -u1 * v1 + u2 * v2 + u3 * v3


def mcross(u, v) -> np.ndarray:
    """Minkowski cross product, fixed by <u x v, w> = det(u, v, w).

    Equals eta applied to the Euclidean cross product.
    """
    (u1, u2, u3), (v1, v2, v3) = u, v
    return np.array([-(u2 * v3 - u3 * v2), u3 * v1 - u1 * v3, u1 * v2 - u2 * v1])


def det3(u, v, w):
    """Determinant of the matrix with columns u, v, w."""
    (u1, u2, u3), (v1, v2, v3), (w1, w2, w3) = u, v, w
    return u1 * (v2 * w3 - v3 * w2) - v1 * (u2 * w3 - u3 * w2) + w1 * (u2 * v3 - u3 * v2)


# -- O(2,1) ----------------------------------------------------------------


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _boost(chi):
    c, s = math.cosh(chi), math.sinh(chi)
    return np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class LorentzTransform:
    """Element of O(2,1), the matrix m."""

    m: np.ndarray

    @classmethod
    def from_params(cls, phi=0.0, chi=0.0, psi=0.0):
        """The SO+(2,1) element rot(phi) boost(chi) rot(psi)."""
        try:
            m = _rot(phi) @ _boost(chi) @ _rot(psi)
        except (OverflowError, ValueError):  # cosh(chi) overflows, cos(inf)
            m = np.full((3, 3), np.nan)
        if not np.all(np.isfinite(m)):
            raise PreconditionError(f"no finite transform: phi={phi}, chi={chi}, psi={psi}")
        return cls(m=m)

    @property
    def det(self):
        return det3(*self.m.T)

    def apply(self, v: Jet) -> Jet:
        """O applied to every vector of a vector or frame jet, along the
        component axis just before the batch axis: the terms m[i, j] v_j are
        added in the order of j (einsum's order depends on the shapes)."""
        terms = v.taylor()[..., None, :, :] * self.m[:, :, None]
        return Jet(terms[..., 0, :] + terms[..., 1, :] + terms[..., 2, :], v.base_point)
