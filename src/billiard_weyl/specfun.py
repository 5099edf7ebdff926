"""Special functions and Gauss-Legendre quadrature.

J0, J1 and Y0 are evaluated in numpy: below x = 25 by the trapezoid rule,
256 nodes per period, on Bessel's integral (DLMF 10.9.2; error about
|J_{256-n}(x)| < 1e-30 for n <= 64), with Neumann's series for Y0 (A&S
9.1.88, cut at k = 32); from 25 on by Hankel's expansion (DLMF 10.17.3),
11 terms each of P and Q.  Nodes are summed by ``np.sum`` along the last
axis, so a value does not depend on the array it arrives in.

All operations are pure functions.  There is one quadrature rule: Gauss-Legendre
on panels the caller lays out, one cached rule per node count.  ``integrate``
takes it at two node counts in one integrand call, so repeated calls are
bit-identical and the estimate is the two sums' difference plus rounding.

Oscillatory half-line integrals (Hankel kernels) are never integrated raw:
Cauchy's theorem moves each off the real axis, to imaginary time or to the
imaginary axis (where H0 is K0, whose moments are Gamma times a sech integral),
where its tail decays without oscillating, and it is integrated there once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergence

__all__ = [
    "QuadratureResult",
    "bessel_j0_j1",
    "hankel1_0",
    "integrate",
    "gauss_legendre",
    "hankel_time_integral",
    "hankel0_halfline_moment",
]

# Decaying tails are truncated where the envelope drops below exp(-_TAIL_LOG).
_TAIL_LOG = 45.0

# Panels the arc of ``hankel_time_integral`` may take: 557,056 evaluations at most.
_PANEL_BUDGET = 16384

# The leg panels' widths in ``hankel_time_integral``, in units of min(1, 1/w), on each
# side of its knee.
_LEG_STEPS = 2.0 ** np.arange(10)


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int


# ---------------------------------------------------------------------------
# special functions


_HANKEL_FROM = 25.0
_THETA = np.linspace(0.0, 0.5 * math.pi, 65)
_SIN = np.sin(_THETA)
_TRAPEZOID = np.r_[0.5, np.ones(63), 0.5] / 64.0        # on [0, pi/2], times 2/pi
_NEUMANN = _TRAPEZOID * np.sum(np.cos(np.arange(2, 65, 2)[:, None] * _THETA)  # sum (-1)^k J_2k/k
                               * ((-1.0) ** np.arange(1, 33) / np.arange(1, 33))[:, None], axis=0)


# Rows P0, Q0, P1, Q1 of Hankel's series in 1/x^2, lowest power first (Q lacks a 1/x):
# a_k(nu) of DLMF 10.17.1 at mu = 4 nu^2, signed (-1)^(k//2), correctly rounded.
_HANKEL_PQ = np.array([[(-1) ** (k // 2) * math.prod(mu - (2 * j - 1) ** 2 for j in range(1, k + 1))
                        / (math.factorial(k) * 8**k) for k in range(odd, 22, 2)]
                       for mu in (0, 4) for odd in (0, 1)])


def _hankel_pq(x: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Hankel's P and Q of order 0 or 1 at x >= 25, each over sqrt(pi x)."""
    t = (1.0 / x) ** 2          # not 1/x^2, which overflows for huge x
    p = q = 0.0
    for cp, cq in _HANKEL_PQ[2 * order:2 * order + 2, ::-1].T:     # Horner
        p, q = p * t + cp, q * t + cq
    root = 2.0 * np.sqrt((0.25 * math.pi) * x)     # sqrt(pi x), finite up to the float maximum
    return p / root, q / x / root


def bessel_j0_j1(x) -> tuple[np.ndarray, np.ndarray]:
    """J0(x) and J1(x) for finite x >= 0, to a few 1e-16 absolute, each from its own x alone."""
    x = np.asarray(x, dtype=float)
    j0, j1 = np.empty_like(x), np.empty_like(x)
    small = x < _HANKEL_FROM
    xs = x[small][:, None] * _SIN
    j0[small] = np.sum(_TRAPEZOID * np.cos(xs), axis=-1)
    j1[small] = np.sum(_TRAPEZOID * _SIN * np.sin(xs), axis=-1)
    xh = x[~small]
    c, s = np.cos(xh), np.sin(xh)       # sqrt(2) cos and sin of x - pi/4 are c + s and s - c
    p, q = _hankel_pq(xh, 0)
    j0[~small] = p * (c + s) - q * (s - c)
    # x - 3pi/4 turns cos into sin, sin into -cos
    p, q = _hankel_pq(xh, 1)
    j1[~small] = p * (s - c) + q * (c + s)
    return j0, j1


def hankel1_0(x: float) -> complex:
    """Outgoing Hankel function H0^(1)(x) = J0(x) + i*Y0(x); x must be finite and > 0."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"hankel1_0 requires finite x > 0, got {x!r}")
    if x >= _HANKEL_FROM:
        xh = np.array([x])
        c, s = np.cos(xh), np.sin(xh)
        p, q = _hankel_pq(xh, 0)
        return complex((p * (c + s) - q * (s - c))[0], (p * (s - c) + q * (c + s))[0])
    nodes = np.cos(x * _SIN)
    j0 = float(np.sum(_TRAPEZOID * nodes))
    # ln x - ln 2, not ln(x/2), which is -inf at the least subnormal
    y0 = ((2.0 / math.pi) * (math.log(x) - math.log(2.0) + np.euler_gamma) * j0
          - (4.0 / math.pi) * float(np.sum(_NEUMANN * nodes)))
    return complex(j0, y0)


# ---------------------------------------------------------------------------
# quadrature: Gauss-Legendre panels

# Node counts of the two Gauss-Legendre rules ``integrate`` takes on every panel.
_NODES_HI, _NODES_LO = 20, 14


def integrate(f: Callable, edges: np.ndarray) -> QuadratureResult:
    """Gauss-Legendre sum of ``f`` over the panels between ``edges``, at 20 and 14 nodes.

    ``f`` gets both rules' nodes on every panel as one flat array and returns values
    elementwise.  The value is the 20-node sum; the estimate is its distance from the
    14-node sum plus n*u*sum(|terms|) (n evaluations, u = 2^-53): far above the rounding
    of numpy's pairwise sum, it also covers a relative error near n*u in each value.
    """
    # both rules on every panel in one broadcast, each element as gauss_legendre takes it,
    # then flat: the 20-node rule panel by panel, then the 14-node rule
    (x_hi, w_hi), (x_lo, w_lo) = _legendre_rule(_NODES_HI), _legendre_rule(_NODES_LO)
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)[:, None]
    mid = 0.5 * (a + b)[:, None]
    x = mid + half * np.concatenate((x_hi, x_lo))
    w = half * np.concatenate((w_hi, w_lo))
    y = np.asarray(f(np.concatenate((x[:, :_NODES_HI], x[:, _NODES_HI:]), axis=None)))
    n_hi = _NODES_HI * a.size
    terms = np.concatenate((w[:, :_NODES_HI], w[:, _NODES_HI:]), axis=None) * y
    value = complex(terms[:n_hi].sum())
    err = abs(value - complex(terms[n_hi:].sum()))
    return QuadratureResult(value, err + y.size * 2.0**-53 * float(np.abs(terms[:n_hi]).sum()),
                            y.size)


@lru_cache(maxsize=None)
def _legendre_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], built once and shared read-only."""
    xs, ws = np.polynomial.legendre.leggauss(n_nodes)
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


@lru_cache(maxsize=None)
def _k0_moment(mu: float) -> QuadratureResult:
    """int_0^inf u^mu H0^(1)(i u) du = (2/(i pi)) Gamma(mu+1) int_0^inf sech^(mu+1) t dt, the
    last on 40 panels of [0, 20] and, to a factor 1 - O((mu+1) e^-40), past 20 as 2^(mu+1)
    e^(-(mu+1) t).  The estimate adds 1e-14 of the value for rounding (dominant as mu -> -1)."""
    q = integrate(lambda t: np.cosh(t) ** (-mu - 1.0), np.linspace(0.0, 20.0, 41))
    pref = (2.0 / (1j * math.pi)) * math.gamma(mu + 1.0)
    value = pref * (q.value + 2.0 ** (mu + 1.0) * math.exp(-20.0 * (mu + 1.0)) / (mu + 1.0))
    return QuadratureResult(value, abs(pref) * q.error_estimate + 1e-14 * abs(value), q.evaluations)


def gauss_legendre(edges: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on each panel between ``edges``.

    Panels run along the last axis; a row's nodes come flat, panel by panel.
    """
    xs, ws = _legendre_rule(n_nodes)
    a, b = edges[..., :-1], edges[..., 1:]
    half = 0.5 * (b - a)[..., None]
    mid = 0.5 * (a + b)[..., None]
    shape = (*edges.shape[:-1], (edges.shape[-1] - 1) * n_nodes)
    return (mid + half * xs).reshape(shape), (half * ws).reshape(shape)


# ---------------------------------------------------------------------------
# Hankel integrals on rotated contours


def hankel_time_integral(w: float) -> QuadratureResult:
    """H0^(1)(w) recomputed from its oscillatory time integral.

    The kernel exp(i*x*(t + z^2/t)/2)/t over t in (0, inf) depends on x and
    z only through w = x*z: with t = z*exp(s) it is (2/(i*pi)) times the
    integral of exp(i*w*cosh(s)) over s in (0, inf).  Turning s by a quarter
    turn (the circle |t| = z, then the imaginary-time axis) gives, by Cauchy,

        H0^(1)(w) = (2/pi) [ int_0^{pi/2} exp(i*w*cos(phi)) dphi
                             - i int_0^inf exp(-w*sinh(t)) dt ]

    (DLMF 10.9.7 at nu = 0): a bounded arc and a decaying leg, cut where w*sinh(t),
    taken as exp(t + ln w)*(1 - exp(-2t))/2 (no overflow or cancellation at any w),
    passes ``_TAIL_LOG``; from w ~ 1e16 on the cut rounds to 0, and the leg is taken
    as 1/w, within 1/w^3 of its value.  The leg's panels halve, down to min(1, 1/w),
    towards both sides of its knee max(0, ln(1/w)), where w*sinh(t) ~ 1/2 and the
    integrand starts to fall.  The arc's ceil(w/8) + 2 equal panels span two periods
    or fewer each; its rounding term, n*u*pi/2 with n > 4.25 w, is of the order of the
    phase w*cos(phi)'s worst-case rounding, about 5 w*u.  The error estimate, 2/pi times
    the sum of theirs, bounds the absolute error of H0.  Past ``_PANEL_BUDGET`` arc
    panels (w > 131056) raises :class:`NonConvergence` carrying the partial H0 of the
    leg, whose estimate counts the arc, not integrated, at its bound pi/2.
    """
    if not 0.0 < w < math.inf:
        raise DomainError(f"hankel_time_integral requires finite w > 0, got {w!r}")
    log_w = math.log(w)
    cut = math.log(2.0 * _TAIL_LOG + w) - log_w
    if cut:
        knee, steps = max(0.0, -log_w), min(1.0, 1.0 / w) * _LEG_STEPS
        edges = np.concatenate([knee - steps, knee + steps, [0.0, knee, cut]]).clip(0.0, cut)
        leg = integrate(lambda t: np.exp(-0.5 * np.exp(t + log_w) * -np.expm1(-2.0 * t)),
                        np.unique(edges))
    else:
        leg = QuadratureResult(1.0 / w, (1.0 / w) ** 3, 0)
    panels = math.ceil(w / 8.0) + 2
    if panels <= _PANEL_BUDGET:
        arc = integrate(lambda phi: np.exp(1j * w * np.cos(phi)),
                        np.linspace(0.0, 0.5 * math.pi, panels + 1))
    else:
        arc = QuadratureResult(0j, 0.5 * math.pi, 0)
    h0 = QuadratureResult((2.0 / math.pi) * (arc.value - 1j * leg.value),
                          (2.0 / math.pi) * (arc.error_estimate + leg.error_estimate),
                          arc.evaluations + leg.evaluations)
    if panels > _PANEL_BUDGET:
        raise NonConvergence(f"the arc at w = {w:.6g} needs more than the budget of "
                             f"{_PANEL_BUDGET} panels", result=h0)
    return h0


def hankel0_halfline_moment(mu: float, a: float) -> QuadratureResult:
    """Half-line moment  integral of z^mu * H0^(1)(a z) dz over (0, inf).

    The limit of the damped integral (a -> a*(1 + i*eps), eps -> 0); on the
    rotated contour z = i*y, with u = a*y, it is

        i^(mu+1) a^(-mu-1) int_0^inf u^mu H0^(1)(i*u) du,

    whose kernel (2/(i*pi)) u^mu K0(u) neither oscillates nor depends on a:
    one integral per order per process (``_k0_moment``), whose estimate times a^(-mu-1)
    bounds the moment's error, at the same relative size for every a.  ``evaluations`` is
    that integral's count, also when a later call reuses it.  The scale multiplies it as
    two factors a^(-(mu+1)/2), which underflow only where the moment does.  The moment
    diverges unless mu > -1; mu >= 170.62 (Gamma(mu+1) overflows at 170.624), a scale past
    e^709 and a moment outside the normal float range are each a :class:`DomainError`.
    """
    if not -1.0 < mu < 170.62:
        raise DomainError(f"hankel0_halfline_moment needs -1 < mu < 170.62; got mu={mu!r}")
    if not (a > 0 and -(mu + 1.0) * math.log(a) <= 709.0):
        raise DomainError(f"hankel0_halfline_moment needs a > 0, a^(-mu-1) <= e^709; got {a!r}")
    res = _k0_moment(mu)
    half = a ** (-0.5 * (mu + 1.0))
    value = 1j ** (mu + 1.0) * res.value * half * half
    if not np.finfo(float).tiny <= abs(value) < math.inf:
        raise DomainError(f"hankel0_halfline_moment leaves the float range at mu={mu!r}, a={a!r}")
    return QuadratureResult(value, res.error_estimate * half * half, res.evaluations)
