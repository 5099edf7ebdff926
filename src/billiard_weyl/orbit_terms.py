"""Closed nonperiodic orbit families and their propagator/Green amplitudes.

Two families drive the smooth mode-density terms:

* the single-reflection family (a point, its perpendicular foot on the
  wall, and back), whose Hankel-kernel Green function integrates to the
  perimeter term of the expansion, and
* the double-reflection family of an acute corner (built from the corner's
  mirror images), whose wedge integral produces the corner delta(E)
  coefficient of the closed-orbit route.

Units: 2m = hbar = 1, E = k^2, travel speed 2k.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import BilliardError, DomainError, NonConvergence
from . import specfun
from .specfun import QuadratureResult, hankel1_0

__all__ = [
    "ClosedOrbitAmplitude",
    "CornerOrbit",
    "CausticError",
    "ObtuseNoClosedOrbitError",
    "single_reflection_factors",
    "single_reflection_propagator",
    "single_reflection_green",
    "green_fourier",
    "green_stationary",
    "length_term_density",
    "length_term_density_quadrature",
    "acute_corner_orbit",
    "corner_orbit_propagator",
    "corner_delta_by_quadrature",
]


class CausticError(BilliardError):
    """Focusing singularity: c*y >= 1 puts the return point past the caustic."""


class ObtuseNoClosedOrbitError(BilliardError):
    """Double-reflection closed orbits exist only for alpha <= pi/2."""


def _require_acute(alpha: float) -> None:
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"corner angle must be positive and finite, got {alpha!r}")
    if alpha > math.pi / 2.0:
        raise ObtuseNoClosedOrbitError(
            f"double-reflection closed orbits require alpha <= pi/2, got {alpha!r}")


class ClosedOrbitAmplitude(NamedTuple):
    """Amplitude bookkeeping for one closed orbit of the family.

    ``d_factor`` is the energy-domain density factor, ``det_c`` the
    magnitude of the time-domain second-variation determinant.  The
    stationary-phase index ``maslov`` is fixed by matching the
    stationary-phase Green function's phase to the Hankel asymptotics
    (which carry exp(-i pi/4)); it is stored, not derived from conjugate
    point counting.
    """

    d_factor: float
    det_c: float
    principal_function: float
    action: float
    time: float
    length: float
    bounce_count: int
    maslov: int = 2


class CornerOrbit(NamedTuple):
    """Double-reflection closed orbit of an acute corner.

    The wedge has one side along angle 0 and the other along angle alpha;
    the source sits at polar (r, theta1).  Mirror images are listed
    counterclockwise (q1, q2) and clockwise (q_m1, q_m2); the orbit is the
    chord source -> q2 folded back into the wedge.
    """

    alpha: float
    r: float
    theta1: float
    q1: tuple[float, float]
    q2: tuple[float, float]
    q_m1: tuple[float, float]
    q_m2: tuple[float, float]
    bounce_on_ob: tuple[float, float]
    bounce_on_oa: tuple[float, float]
    length: float


def single_reflection_factors(y: float, k: float, c: float = 0.0) -> ClosedOrbitAmplitude:
    """Amplitude factors for the perpendicular single-reflection orbit.

    ``y`` is the distance to the wall, ``c`` the wall curvature at the foot
    (positive for a wall curving around the interior).  Flat wall:
    d_factor = 1/(8 k y), det_c = 1/(4 t^2); a curved wall divides both by
    (1 - c y).
    """
    if not (0 < y < math.inf and 0 < k < math.inf and -math.inf < c < math.inf):
        raise DomainError("single_reflection_factors requires finite y > 0, k > 0 and c")
    focus = 1.0 - c * y
    if focus <= 0.0:
        raise CausticError(f"c*y = {c * y!r} >= 1: orbit crosses the caustic")
    t = y / k
    if not (0.0 < t < math.inf and 0.0 < t * t < math.inf and 0.0 < y * y / t < math.inf):
        raise DomainError(f"single_reflection_factors needs t = y/k, t*t and y*y/t positive "
                          f"and finite; got y={y!r}, k={k!r}")
    return ClosedOrbitAmplitude(
        d_factor=1.0 / (8.0 * k * y * focus),
        det_c=1.0 / (4.0 * t * t * focus),
        principal_function=y * y / t,
        action=2.0 * k * y,
        time=t,
        length=2.0 * y,
        bounce_count=1,
    )


def single_reflection_propagator(y: float, t: float) -> complex:
    """Time-domain kernel of the single-reflection family at coincidence.

    Equals -(1/(4 i pi t)) exp(i y^2 / t); the leading minus sign is the
    Dirichlet reflection parity (-1)^1.
    """
    if not (y > 0 and 0 < t < math.inf and y * y / t < math.inf):
        raise DomainError("single_reflection_propagator requires y > 0, finite t > 0 and a "
                          "finite phase y^2/t")
    return (-1.0 / (4j * math.pi * t)) * complex(math.cos(y * y / t), math.sin(y * y / t))


def single_reflection_green(y: float, k: float) -> complex:
    """Energy-domain amplitude -(1/4i) H0^(1)(2 k y) of the family."""
    if not (y > 0 and k > 0):
        raise DomainError("single_reflection_green requires y > 0 and k > 0")
    return (-1.0 / 4j) * hankel1_0(2.0 * k * y)


def green_fourier(y: float, k: float) -> QuadratureResult:
    """Single-reflection Green amplitude recomputed from the time integral.

    Integrates the propagator against exp(i E t) over t in (0, inf) on the
    rotated contour of :func:`specfun.hankel_time_integral`: an independent
    numerical route to :func:`single_reflection_green`.  Where the contour's
    arc runs out of panels (past 2ky = 131056), raises
    :class:`NonConvergence` carrying the amplitude.
    """
    if not (y > 0 and k > 0):
        raise DomainError("green_fourier requires y > 0 and k > 0")

    def amplitude(res: QuadratureResult) -> QuadratureResult:
        return QuadratureResult((-1.0 / 4j) * res.value, res.error_estimate / 4.0,
                                res.evaluations)

    try:
        return amplitude(specfun.hankel_time_integral(2.0 * k * y))
    except NonConvergence as exc:
        exc.result = amplitude(exc.result)
        raise


def green_stationary(y: float, k: float) -> complex:
    """Stationary-phase estimate -(1/(4 i sqrt(pi k y))) exp(2 i k y).

    Asymptotically consistent with :func:`single_reflection_green` in
    magnitude, but its closed-form density contribution is sqrt(2) times
    too large: the y-integral is dominated by small y, where the uniform
    Hankel kernel is required.
    """
    if not (y > 0 and k > 0):
        raise DomainError("green_stationary requires y > 0 and k > 0")
    phase = 2.0 * k * y
    if not 0.0 < phase < math.inf:
        raise DomainError(f"green_stationary requires a positive finite 2*k*y, got {phase!r}")
    root = math.sqrt(math.pi * k * y)
    if root == math.inf:        # pi k y overflows; (pi/4) k y does not, but underflows sooner
        root = 2.0 * math.sqrt(0.25 * math.pi * k * y)
    amp = -1.0 / (4j * root)
    return amp * complex(math.cos(phase), math.sin(phase))


def length_term_density(length: float, energy: float) -> float:
    """Perimeter term of the smooth density: -L / (8 pi sqrt(E))."""
    if not (0 < length < math.inf and energy > 0):
        raise DomainError("length_term_density requires finite L > 0 and E > 0")
    return -length / (8.0 * math.pi * math.sqrt(energy))


def length_term_density_quadrature(length: float, energy: float) -> QuadratureResult:
    """Perimeter density term recomputed from the Green-function strip integral.

    Integrates the single-reflection amplitude over the distance to the
    wall (half-line Hankel moment of order zero, on the imaginary axis) and takes
    -(L/pi) Im of it.  Verifies the closed form of
    :func:`length_term_density` without using it.
    """
    if not (0 < length < math.inf and energy > 0):
        raise DomainError("quadrature verify requires finite L > 0 and E > 0")
    k = math.sqrt(energy)
    moment = specfun.hankel0_halfline_moment(0.0, 2.0 * k)
    # G(y) = -(1/4i) H0(2ky);  -(L/pi) Im[ (i/4) * moment ] = -(L/(4 pi)) Re moment
    value = -(length / (4.0 * math.pi)) * moment.value.real
    return QuadratureResult(value, length / (4.0 * math.pi) * moment.error_estimate,
                            moment.evaluations)


# ---------------------------------------------------------------------------
# acute-corner double-reflection family

def _polar(r: float, theta: float) -> tuple[float, float]:
    return (r * math.cos(theta), r * math.sin(theta))


def _ray_chord_intersection(p: tuple[float, float], q: tuple[float, float],
                            beta: float) -> tuple[float, float]:
    """Intersection of segment p->q with the ray at polar angle beta."""
    nx, ny = -math.sin(beta), math.cos(beta)
    dp = p[0] * nx + p[1] * ny
    dq = q[0] * nx + q[1] * ny
    t = dp / (dp - dq)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def acute_corner_orbit(alpha: float, r: float, theta1: float) -> CornerOrbit:
    """Double-reflection closed orbit of a corner with angle alpha <= pi/2.

    Constructed by unfolding: the source (r, theta1) maps to its second
    counterclockwise image at angle 2*alpha + theta1; the straight chord to
    that image folds back into the closed orbit of length 2 r sin(alpha).
    """
    _require_acute(alpha)
    if not (0.0 < 2.0 * r < math.inf and 0.0 < theta1 < alpha):   # 2r bounds every chord
        raise DomainError("need r > 0 with 2r finite, and 0 < theta1 < alpha")
    src = _polar(r, theta1)
    q1 = _polar(r, 2.0 * alpha - theta1)
    q2 = _polar(r, 2.0 * alpha + theta1)
    q_m1 = _polar(r, -theta1)
    q_m2 = _polar(r, -2.0 * alpha + theta1)
    hit_ob_unfolded = _ray_chord_intersection(src, q2, alpha)
    hit_oa_unfolded = _ray_chord_intersection(src, q2, 2.0 * alpha)
    # fold the second hit back across the first side: angle 2*alpha -> 0
    r_oa = math.hypot(*hit_oa_unfolded)
    bounce_oa = (r_oa, 0.0)
    return CornerOrbit(
        alpha=alpha, r=r, theta1=theta1,
        q1=q1, q2=q2, q_m1=q_m1, q_m2=q_m2,
        bounce_on_ob=hit_ob_unfolded,
        bounce_on_oa=bounce_oa,
        length=2.0 * r * math.sin(alpha),
    )


def corner_orbit_propagator(r: float, alpha: float, t: float) -> complex:
    """Time-domain kernel of the corner family: +(1/(4 i pi t)) exp(i (r sin a)^2 / t).

    Positive overall sign: two Dirichlet reflections, parity (-1)^2.
    """
    if not (r > 0 and 0 < t < math.inf):
        raise DomainError("corner_orbit_propagator requires r > 0 and finite t > 0")
    _require_acute(alpha)
    d = r * math.sin(alpha)     # d * d is inf where d ** 2 raises OverflowError
    phase = d * d / t
    if not phase < math.inf:
        raise DomainError(f"corner_orbit_propagator needs a finite (r sin alpha)^2/t, "
                          f"got {phase!r}")
    return (1.0 / (4j * math.pi * t)) * complex(math.cos(phase), math.sin(phase))


def corner_delta_by_quadrature(alpha: float) -> QuadratureResult:
    """Corner delta(E) coefficient of the double-reflection family by quadrature.

    The wedge integral of the family's Green amplitude reduces to the
    first Hankel moment M1(a) = integral of r*H0^(1)(a r) dr, with
    a = 2 sqrt(E + i*eps) sin(alpha).  Writing E as E + i*eps resolves
    1/(E + i*eps) into a principal value plus -i*pi*delta(E), and the delta
    coefficient is pi*eps times the density at E = 0.  M1 is analytic in a
    and scales as a^-2, so pi*eps*density does not depend on eps: it is
    taken at eps = 1, where a = |a| exp(i*pi/4) and M1(a) = M1(|a|) exp(-i*pi/2),
    with M1(|a|) from :func:`specfun.hankel0_halfline_moment`.  Closed form:
    alpha / (8 pi sin(alpha)^2).
    """
    _require_acute(alpha)
    moment = specfun.hankel0_halfline_moment(1.0, 2.0 * math.sin(alpha))
    # density at E = 0: -(alpha/(4 pi)) Im[(1/i) M1(a)] = (alpha/(4 pi)) Im M1(|a|)
    density = (alpha / (4.0 * math.pi)) * moment.value.imag
    return QuadratureResult(math.pi * density, alpha / 4.0 * moment.error_estimate,
                            moment.evaluations)
