"""Smooth mode-density expansion and corner coefficients.

The mode density of a planar billiard has the asymptotic smooth part

    rho(E) ~ A/(4 pi)  -  L/(8 pi sqrt(E))  +  [curvature + corner] * delta(E)

for Dirichlet conditions.  The delta(E) coefficient is never evaluated
pointwise; it is carried as the additive constant of the integrated
counting function N(E).

``corner_coeffs`` also exposes the alternative semiclassical corner
coefficients built from the double-reflection closed-orbit family of an
acute corner together with the edge-restriction correction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .geometry import GeometricMeasures

__all__ = [
    "BoundaryCondition",
    "SpectralExpansion",
    "CornerCoefficients",
    "weyl_expansion",
    "smooth_counting",
    "corner_coeffs",
    "weyl_corner_coefficient",
    "NEUMANN_UNVERIFIED",
    "OBTUSE_NO_CLOSED_ORBIT",
]

NEUMANN_UNVERIFIED = "NEUMANN-UNVERIFIED"
OBTUSE_NO_CLOSED_ORBIT = "ObtuseNoClosedOrbit"


class _Condition(NamedTuple):
    kind: str  # "dirichlet" | "neumann"


class BoundaryCondition(_Condition):
    __slots__ = ()

    def __new__(cls, kind: str) -> "BoundaryCondition":
        if kind not in ("dirichlet", "neumann"):
            raise DomainError(f"unknown boundary condition {kind!r}")
        return tuple.__new__(cls, (kind,))

    @classmethod
    def _make(cls, iterable) -> "BoundaryCondition":
        return cls(*iterable)       # so that _replace checks too


DIRICHLET = BoundaryCondition("dirichlet")
NEUMANN = BoundaryCondition("neumann")


class SpectralExpansion(NamedTuple):
    """Coefficients of (E^0, E^(-1/2), delta(E)) in the smooth mode density."""

    const_coef: float
    inv_sqrt_coef: float
    delta_coef: float
    curvature_part: float
    corner_part: float
    per_corner: tuple[float, ...] = ()
    flags: tuple[str, ...] = ()


class CornerCoefficients(NamedTuple):
    """Corner delta(E) coefficients for interior angle alpha.

    ``weyl`` is the counting-function constant per corner.  The orbit-family
    coefficients exist only for alpha <= pi/2; for obtuse corners they are
    ``None`` with ``absent_reason`` set (the double-reflection closed orbit
    family does not exist there).
    """

    alpha: float
    weyl: float
    orbit: float | None
    edge_correction: float | None
    total_semiclassical: float | None
    absent_reason: str | None = None


def weyl_corner_coefficient(alpha: float) -> float:
    """Counting-function corner constant (pi/alpha - alpha/pi)/24."""
    if not 0.0 < alpha < 2.0 * math.pi:
        raise DomainError(f"corner angle must be in (0, 2*pi), got {alpha!r}")
    return (math.pi / alpha - alpha / math.pi) / 24.0


def weyl_expansion(m: GeometricMeasures, bc: BoundaryCondition = DIRICHLET) -> SpectralExpansion:
    """Smooth mode-density expansion from the geometric measures.

    Dirichlet: (A/4pi, -L/8pi, curvature/12pi + sum of corner constants).
    Neumann flips the sign of the length coefficient; the curvature part is
    unchanged, and the corner part is reported with the Dirichlet formula
    under a NEUMANN-UNVERIFIED flag (no established closed form).
    """
    per_corner = tuple(weyl_corner_coefficient(c.alpha) for c in m.corners)
    curvature_part = m.curvature_integral / (12.0 * math.pi)
    corner_part = math.fsum(per_corner)
    sign = -1.0 if bc.kind == "dirichlet" else 1.0
    flags = () if bc.kind == "dirichlet" else (NEUMANN_UNVERIFIED,)
    return SpectralExpansion(
        const_coef=m.area / (4.0 * math.pi),
        inv_sqrt_coef=sign * m.perimeter / (8.0 * math.pi),
        delta_coef=curvature_part + corner_part,
        curvature_part=curvature_part,
        corner_part=corner_part,
        per_corner=per_corner,
        flags=flags,
    )


def smooth_counting(e: SpectralExpansion, energy: float) -> float:
    """Integrated smooth density N(E) = c0*E + 2*c_half*sqrt(E) + c_delta."""
    if not 0.0 < energy < math.inf:
        raise DomainError(f"smooth_counting requires finite E > 0, got {energy!r}")
    return (e.const_coef * energy
            + 2.0 * e.inv_sqrt_coef * math.sqrt(energy)
            + e.delta_coef)


def corner_coeffs(alpha: float) -> CornerCoefficients:
    """Corner coefficients for alpha in (0, pi).

    The closed-orbit family coefficients are defined through alpha = pi/2
    (the right angle is the degenerate end of the acute family); beyond it
    they are absent.  With Dirichlet sides the visible images' rotation sum is

        C_1(alpha) = (1/(8 pi)) [sum over k >= 1, 2 k alpha < pi, of 2 alpha/sin(k alpha)**2
                                 + alpha once, if 2 m alpha = pi exactly],

    and ``orbit`` = alpha/(8 pi sin(alpha)**2) is one orientation of its k = 1
    rotation term; at alpha = pi/2 it is C_1's "alpha once" term, 1/16.
    ``edge_correction`` is the side-reflection part, which the other
    reflections cancel in C_1.
    """
    # the domain's sharp-corner edge: below about 1.6e-162 sin(alpha)**2 underflows to 0
    if not (0.0 < alpha < math.pi and math.sin(alpha) ** 2 > 0.0):
        raise DomainError(f"corner_coeffs requires alpha in (0, pi) with sin(alpha)**2 > 0, "
                          f"got {alpha!r}")
    w = weyl_corner_coefficient(alpha)
    if alpha > math.pi / 2.0:
        return CornerCoefficients(alpha, w, None, None, None,
                                  absent_reason=OBTUSE_NO_CLOSED_ORBIT)
    # divided by sin(alpha) twice, never by sin(alpha)**2, which is subnormal below ~1.5e-154
    s = math.sin(alpha)
    orbit = alpha / (8.0 * math.pi * s) / s
    edge = 1.0 / (4.0 * math.pi * math.tan(alpha))
    return CornerCoefficients(alpha, w, orbit, edge, orbit + edge)
