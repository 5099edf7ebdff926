"""Special functions and deterministic adaptive quadrature.

All operations are pure functions.  The adaptive integrator evaluates one
bisection level of panels per integrand call and sums the accepted panels
with ``math.fsum``, correctly rounded in any order, so the sum does not
depend on panel order and repeated calls are bit-identical.

Oscillatory half-line integrals (Hankel kernels) are never integrated raw:
Cauchy's theorem moves each off the real axis (to imaginary time, or to the
imaginary axis), where its tail decays without oscillating, and it is
integrated there once, so its error estimate is the quadrature's own.
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
    "hankel1_0",
    "integrate",
    "gauss_legendre",
    "hankel_time_integral",
    "hankel0_halfline_moment",
]

# Decaying tails are truncated where the envelope drops below exp(-_TAIL_LOG).
_TAIL_LOG = 45.0

# Panels one adaptive integration may evaluate before it gives up.
_PANEL_BUDGET = 65536


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int


# ---------------------------------------------------------------------------
# special functions


def hankel1_0(x: float) -> complex:
    """Outgoing Hankel function H0^(1)(x) = J0(x) + i*Y0(x) for real x > 0."""
    if not x > 0.0:
        raise DomainError(f"hankel1_0 requires x > 0, got {x!r}")
    from scipy.special import j0, y0  # deferred: scipy dominates import time
    return complex(float(j0(x)), float(y0(x)))


# ---------------------------------------------------------------------------
# quadrature: adaptive Gauss-Kronrod, fixed-order Gauss-Legendre panels

# 15-point Kronrod abscissae on [-1, 1] (nonnegative half) with weights,
# embedding the 7-point Gauss rule.
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])          # 15 ascending nodes
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS_G = np.concatenate([_WG[:-1], _WG[::-1]])     # on the odd Kronrod nodes


def integrate(f: Callable, lo: float, hi: float, tol: float = 1e-9) -> QuadratureResult:
    """Deterministic adaptive G7-K15 quadrature of ``f`` over [lo, hi].

    Works one bisection level at a time: ``f`` receives the abscissae of
    every pending panel as one ``(panels, 15)`` array and must return values
    elementwise (real or complex).  A panel that meets its share of ``tol``
    is kept; the others are halved for the next level.  Raises
    :class:`NonConvergence` (carrying the best value) when halving them
    would take the panels evaluated past ``_PANEL_BUDGET``.
    """
    total_len = hi - lo
    a, b = np.array([lo]), np.array([hi])
    values, errors = [], []     # accepted panels' K15 sums and error estimates, per level
    evaluations = 0
    overflow = False
    while a.size:
        width = b - a
        half, mid = 0.5 * width, 0.5 * (b + a)
        y = np.asarray(f(mid[:, None] + half[:, None] * _NODES))
        vk = half * np.sum(_WEIGHTS_K * y, axis=-1)
        # a strided view of the odd (Gauss) nodes keeps numpy's 1-D summation order
        err = np.abs(vk - half * np.sum(_WEIGHTS_G * y[:, 1::2], axis=-1))
        evaluations += 15 * a.size
        done = (err <= tol * np.maximum(width / total_len, 1e-3)) | (width <= 1e-14 * total_len)
        if evaluations // 15 + 2 * np.count_nonzero(~done) > _PANEL_BUDGET:
            overflow = True
            done[:] = True
        values.append(vk[done])
        errors.append(err[done])
        a, b, mid = a[~done], b[~done], mid[~done]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    accepted = np.concatenate(values)
    value = complex(math.fsum(accepted.real), math.fsum(accepted.imag))
    err_total = math.fsum(np.concatenate(errors))
    result = QuadratureResult(value, err_total, evaluations)
    if overflow:
        raise NonConvergence(
            f"quadrature budget of {_PANEL_BUDGET} panels exhausted (err={err_total:.3e})",
            result=result)
    return result


@lru_cache(maxsize=None)
def _legendre_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], built once and shared read-only."""
    xs, ws = np.polynomial.legendre.leggauss(n_nodes)
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


def gauss_legendre(edges: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on each panel between ``edges``.

    Panels run along the last axis; a row's nodes come flat, panel by panel.
    """
    xs, ws = _legendre_rule(n_nodes)
    half = 0.5 * np.diff(edges)[..., None]
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])[..., None]
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

    (DLMF 10.9.7 at nu = 0): a bounded arc and a decaying leg, cut where
    w*sinh(t) passes ``_TAIL_LOG``, each integrated once at the default
    tolerance.  The error estimate, 2/pi times the sum of theirs, bounds the
    absolute error of H0.  The arc's panels grow with w; if they run out,
    raises :class:`NonConvergence` carrying the partial H0.
    """
    if not w > 0:
        raise DomainError("hankel_time_integral requires w > 0")
    log_w = math.log(w)
    # w*sinh(t) = (exp(t + ln w) - w*exp(-t))/2 overflows for no w > 0
    leg = integrate(lambda t: np.exp(-0.5 * (np.exp(t + log_w) - w * np.exp(-t))),
                    0.0, math.log(2.0 * _TAIL_LOG + w) - log_w)

    def h0(arc: QuadratureResult) -> QuadratureResult:
        return QuadratureResult((2.0 / math.pi) * (arc.value - 1j * leg.value),
                                (2.0 / math.pi) * (arc.error_estimate + leg.error_estimate),
                                arc.evaluations + leg.evaluations)

    try:
        arc = integrate(lambda phi: np.exp(1j * w * np.cos(phi)), 0.0, 0.5 * math.pi)
    except NonConvergence as exc:
        exc.result = h0(exc.result)
        raise
    return h0(arc)


def hankel0_halfline_moment(mu: float, a: float) -> QuadratureResult:
    """Half-line moment  integral of z^mu * H0^(1)(a z) dz over (0, inf).

    The limit of the damped integral (a -> a*(1 + i*eps), eps -> 0); on the
    rotated contour z = i*y, with u = a*y, it is

        i^(mu+1) a^(-mu-1) int_0^inf u^mu H0^(1)(i*u) du,

    whose kernel (2/(i*pi)) u^mu K0(u) neither oscillates nor depends on a:
    one integral up to u = ``_TAIL_LOG`` at absolute tolerance 1e-8, whose
    estimate times a^(-mu-1) bounds the moment's error, at the same relative
    size and cost for every a.  A scale past e^709 is a :class:`DomainError`.
    """
    if not (a > 0 and -(mu + 1.0) * math.log(a) <= 709.0):
        raise DomainError(f"hankel0_halfline_moment needs a > 0, a^(-mu-1) <= e^709; got {a!r}")
    from scipy.special import hankel1  # deferred: scipy dominates import time

    res = integrate(lambda u: u**mu * hankel1(0, 1j * u), 0.0, _TAIL_LOG, 1e-8)
    scale = a ** (-mu - 1.0)
    return QuadratureResult(1j ** (mu + 1.0) * scale * res.value,
                            scale * res.error_estimate, res.evaluations)
