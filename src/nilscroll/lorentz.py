"""Lorentzian linear algebra in signature (-,+,+).

Vectors, the Minkowski inner product and cross product, paracomplex
arithmetic, and a rotation-boost-rotation chart of O(2,1).  The one
stereographic chart of the de-Sitter 2-space is the normal Gauss map in
surface.py.

Vector components may be floats, arrays over a batch of points or
:class:`~nilscroll.jets.Jet` values; every operation here is written
generically over all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .jets import Jet

ETA = np.diag([-1.0, 1.0, 1.0])


def _val(x):
    return x.value if isinstance(x, Jet) else x


@dataclass(frozen=True)
class Vec3L:
    """Vector in Lorentz-Minkowski 3-space; components float-, array- or jet-valued."""

    x1: object
    x2: object
    x3: object

    def __iter__(self):
        return iter((self.x1, self.x2, self.x3))

    def __add__(self, other):
        return Vec3L(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other):
        return Vec3L(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def __mul__(self, a):
        return Vec3L(self.x1 * a, self.x2 * a, self.x3 * a)

    __rmul__ = __mul__

    def __truediv__(self, a):
        return Vec3L(self.x1 / a, self.x2 / a, self.x3 / a)

    def __neg__(self):
        return Vec3L(-self.x1, -self.x2, -self.x3)

    def value(self):
        """Vector of values (jet components collapsed to their values)."""
        return Vec3L(_val(self.x1), _val(self.x2), _val(self.x3))

    def deriv(self):
        """Componentwise jet derivative."""
        return Vec3L(self.x1.deriv(), self.x2.deriv(), self.x3.deriv())

    def truncate(self, order):
        """Componentwise jet truncation."""
        return Vec3L(*(c.truncate(order) for c in self))

    def max_abs(self):
        """Largest |component|, per point for array components; NaN if any is NaN."""
        return np.maximum(np.maximum(np.abs(self.x1), np.abs(self.x2)), np.abs(self.x3))

    def as_array(self):
        return np.array([_val(self.x1), _val(self.x2), _val(self.x3)])


E1 = Vec3L(1.0, 0.0, 0.0)
E2 = Vec3L(0.0, 1.0, 0.0)
E3 = Vec3L(0.0, 0.0, 1.0)


def mdot(u: Vec3L, v: Vec3L):
    """Minkowski inner product -u1*v1 + u2*v2 + u3*v3."""
    return -u.x1 * v.x1 + u.x2 * v.x2 + u.x3 * v.x3


def mcross(u: Vec3L, v: Vec3L) -> Vec3L:
    """Minkowski cross product, fixed by <u x v, w> = det(u, v, w).

    Equals eta applied to the Euclidean cross product.
    """
    return Vec3L(
        -(u.x2 * v.x3 - u.x3 * v.x2),
        u.x3 * v.x1 - u.x1 * v.x3,
        u.x1 * v.x2 - u.x2 * v.x1,
    )


def det3(u: Vec3L, v: Vec3L, w: Vec3L):
    """Determinant of the matrix with columns u, v, w."""
    return (
        u.x1 * (v.x2 * w.x3 - v.x3 * w.x2)
        - v.x1 * (u.x2 * w.x3 - u.x3 * w.x2)
        + w.x1 * (u.x2 * v.x3 - u.x3 * v.x2)
    )


# -- paracomplex numbers ---------------------------------------------------


@dataclass(frozen=True)
class ParaComplex:
    """z = re + j*im with j^2 = +1; squared modulus re^2 - im^2 may be < 0."""

    re: float
    im: float

    def __add__(self, w):
        w = _pc(w)
        return ParaComplex(self.re + w.re, self.im + w.im)

    __radd__ = __add__

    def __sub__(self, w):
        w = _pc(w)
        return ParaComplex(self.re - w.re, self.im - w.im)

    def __rsub__(self, w):
        return _pc(w) - self

    def __mul__(self, w):
        w = _pc(w)
        return ParaComplex(
            self.re * w.re + self.im * w.im, self.re * w.im + self.im * w.re
        )

    __rmul__ = __mul__

    def __neg__(self):
        return ParaComplex(-self.re, -self.im)

    def conj(self):
        return ParaComplex(self.re, -self.im)

    def sqmod(self):
        return self.re * self.re - self.im * self.im

    def times_j(self):
        return ParaComplex(self.im, self.re)


def _pc(x):
    if isinstance(x, ParaComplex):
        return x
    return ParaComplex(float(x), 0.0)


# -- O(2,1) ----------------------------------------------------------------


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _boost(chi):
    c, s = math.cosh(chi), math.sinh(chi)
    return np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def is_lorentz(m) -> float:
    """Max-entry residual of m^T eta m - eta."""
    m = np.asarray(m, dtype=float)
    return float(np.max(np.abs(m.T @ ETA @ m - ETA)))


@dataclass(frozen=True)
class LorentzTransform:
    """Element of O(2,1), with its rotation-boost-rotation parameters when known."""

    m: np.ndarray
    params: tuple | None = None

    @classmethod
    def from_params(cls, phi=0.0, chi=0.0, psi=0.0, reflect=False, time_reverse=False):
        try:
            m = _rot(phi) @ _boost(chi) @ _rot(psi)
        except (OverflowError, ValueError):  # cosh(chi) overflows, cos(inf)
            m = np.full((3, 3), np.nan)
        if not np.all(np.isfinite(m)):
            raise PreconditionError(f"no finite transform: phi={phi}, chi={chi}, psi={psi}")
        if reflect:
            m = m @ np.diag([1.0, 1.0, -1.0])
        if time_reverse:
            m = m @ np.diag([-1.0, 1.0, 1.0])
        return cls(m=m, params=(phi, chi, psi, reflect, time_reverse))

    @classmethod
    def identity(cls):
        return cls.from_params()

    @property
    def det(self):
        return float(np.linalg.det(self.m))

    def apply(self, v: Vec3L) -> Vec3L:
        """Apply to a vector; works for jet-valued components (linear combos)."""
        m = self.m
        return Vec3L(
            v.x1 * m[0, 0] + v.x2 * m[0, 1] + v.x3 * m[0, 2],
            v.x1 * m[1, 0] + v.x2 * m[1, 1] + v.x3 * m[1, 2],
            v.x1 * m[2, 0] + v.x2 * m[2, 1] + v.x3 * m[2, 2],
        )

    def __matmul__(self, other):
        return LorentzTransform(m=self.m @ other.m, params=None)
