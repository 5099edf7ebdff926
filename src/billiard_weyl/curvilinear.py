"""Corner-flattening coordinate map.

A wedge of opening alpha is flattened onto a half-plane by a measure
preserving map built from gamma = pi/alpha: the wedge sector in (x, y)
corresponds to the upper half of the (u, v) plane, with unit Jacobian so
the area and perimeter terms of the density expansion are untouched.  The
corner constant itself factorizes through (gamma^2 - 1), the same factor
that scales the perturbation to the flat Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BilliardError, DomainError

__all__ = [
    "FlattenMap",
    "SingularPointError",
    "flatten",
    "unflatten",
    "corner_coeff_identity",
]


class SingularPointError(BilliardError):
    """The flattening map is singular at the corner itself."""


@dataclass(frozen=True)
class FlattenMap:
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0 * math.pi:
            raise DomainError(f"alpha must be in (0, 2*pi), got {self.alpha!r}")

    @property
    def gamma(self) -> float:
        return math.pi / self.alpha

    @property
    def gamma_bar(self) -> float:
        return self.alpha / math.pi


def flatten(m: FlattenMap, u: float, v: float) -> tuple[float, float]:
    """Map (u, v), u > 0 principal branch, to the wedge point (x, y).

    r^2 = u^2 + gamma^2 v^2, tan(phi) = gamma v / u,
    x = r cos(gamma_bar phi), y = r sin(gamma_bar phi).
    The Jacobian is one everywhere away from the origin.
    """
    if u == 0.0 and v == 0.0:
        raise SingularPointError("flatten is singular at the origin")
    if u <= 0.0:
        raise DomainError("principal branch requires u > 0")
    g = m.gamma
    r = math.hypot(u, g * v)
    phi = math.atan2(g * v, u)
    ang = m.gamma_bar * phi
    return (r * math.cos(ang), r * math.sin(ang))


def unflatten(m: FlattenMap, x: float, y: float) -> tuple[float, float]:
    """Inverse of :func:`flatten` on the principal branch."""
    if x == 0.0 and y == 0.0:
        raise SingularPointError("unflatten is singular at the origin")
    r = math.hypot(x, y)
    phi = m.gamma * math.atan2(y, x)
    if not -math.pi / 2.0 < phi < math.pi / 2.0:
        raise DomainError("point leaves the principal branch (u > 0)")
    return (r * math.cos(phi), r * math.sin(phi) / m.gamma)


def corner_coeff_identity(alpha: float) -> tuple[float, float, float]:
    """Three equal forms of the corner constant.

    (pi^2 - alpha^2)/(24 pi alpha) = (gamma - 1/gamma)/24
                                   = (gamma^2 - 1)/(24 gamma).
    """
    if not 0.0 < alpha < math.pi:
        raise DomainError(f"alpha must be in (0, pi), got {alpha!r}")
    g = math.pi / alpha
    lhs = (math.pi**2 - alpha**2) / (24.0 * math.pi * alpha)
    rhs1 = (g - 1.0 / g) / 24.0
    rhs2 = (g * g - 1.0) / (24.0 * g)
    return lhs, rhs1, rhs2
