"""Special functions and deterministic adaptive quadrature.

All operations are pure functions.  The adaptive integrator walks panels in
a fixed depth-first order and accumulates partial sums with ``math.fsum``,
so repeated calls with identical inputs are bit-identical.

Oscillatory half-line integrals (Hankel kernels) are never integrated raw:
the caller declares a damping substitution ``a -> a*(1 + i*eps)``, truncates
the damped tail, and :func:`damped_ladder` extrapolates the results for a
geometric ladder of ``eps`` values to ``eps -> 0`` by Neville's scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import special as _sp

from .errors import DomainError, NonConvergence

__all__ = [
    "QuadratureResult",
    "bessel_j0y0",
    "hankel1_0",
    "integrate",
    "gauss_legendre",
    "extrapolate_to_zero",
    "damped_ladder",
    "hankel_time_integral",
    "hankel0_halfline_moment",
    "DEFAULT_EPS_LADDER",
]

# Geometric damping ladder, relative units.  Small enough that the Neville
# limit is accurate, large enough that the damped tails stay cheap.
DEFAULT_EPS_LADDER: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625)

# Damped Gaussian/oscillatory tails are truncated where the envelope drops
# below exp(-_TAIL_LOG).
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


def bessel_j0y0(x: float) -> tuple[float, float]:
    """Bessel functions J0(x) and Y0(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"bessel_j0y0 requires x > 0, got {x!r}")
    return float(_sp.j0(x)), float(_sp.y0(x))


def hankel1_0(x: float) -> complex:
    """Outgoing Hankel function H0^(1)(x) = J0(x) + i*Y0(x) for real x > 0."""
    return complex(*bessel_j0y0(x))


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
_GAUSS_IDX = np.arange(1, 15, 2)                          # Gauss nodes inside Kronrod
_WEIGHTS_G = np.concatenate([_WG[:-1], _WG[::-1]])


def _panel(f, lo: float, hi: float):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid + half * _NODES
    y = np.asarray(f(x))
    vk = half * np.sum(_WEIGHTS_K * y)
    vg = half * np.sum(_WEIGHTS_G * y[_GAUSS_IDX])
    return vk, abs(vk - vg)


def integrate(f: Callable, lo: float, hi: float, tol: float = 1e-9) -> QuadratureResult:
    """Deterministic adaptive G7-K15 quadrature of ``f`` over [lo, hi].

    ``f`` must accept a numpy array of abscissae and return values
    elementwise (real or complex).  Panels are bisected depth first.
    Raises :class:`NonConvergence` (carrying the best value) when
    ``_PANEL_BUDGET`` panels did not meet ``tol``.
    """
    total_len = hi - lo
    values: list[complex] = []
    errors: list[float] = []
    evaluations = 0
    panels = 0
    stack = [(lo, hi)]
    overflow = False
    while stack:
        a, b = stack.pop()
        vk, err = _panel(f, a, b)
        evaluations += 15
        panels += 1
        width = b - a
        if err <= tol * max(width / total_len, 1e-3) or width <= 1e-14 * total_len:
            values.append(complex(vk))
            errors.append(err)
        elif panels >= _PANEL_BUDGET:
            overflow = True
            values.append(complex(vk))
            errors.append(err)
        else:
            m = 0.5 * (a + b)
            stack.append((m, b))
            stack.append((a, m))
    value = complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    err_total = math.fsum(errors)
    result = QuadratureResult(value, err_total, evaluations)
    if overflow:
        raise NonConvergence(
            f"quadrature budget of {_PANEL_BUDGET} panels exhausted (err={err_total:.3e})",
            result=result,
        )
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
# damping ladders


def extrapolate_to_zero(eps: Sequence[float], values: Sequence[complex]) -> tuple[complex, float]:
    """Neville polynomial extrapolation of values(eps) to eps = 0.

    Returns the limit and a spread-based error estimate (the change in the
    final extrapolant when the last ladder rung is dropped).
    """
    eps = [float(e) for e in eps]
    vals = [complex(v) for v in values]
    n = len(eps)
    if n == 0:
        raise ValueError("empty ladder")
    if n == 1:
        return vals[0], abs(vals[0])

    def neville(es, vs):
        tab = list(vs)
        m = len(es)
        for level in range(1, m):
            for i in range(m - level):
                tab[i] = tab[i + 1] + (tab[i + 1] - tab[i]) * es[i + level] / (es[i] - es[i + level])
        return tab[0]

    full = neville(eps, vals)
    reduced = neville(eps[:-1], vals[:-1])
    return full, abs(full - reduced)


def damped_ladder(rung: Callable, ladder: Sequence[float], tol: float) -> QuadratureResult:
    """Neville limit eps -> 0 of ``rung(eps, integral)`` over the damping ``ladder``.

    ``integral(f, upper)`` integrates ``f`` over (0, upper) to ``tol`` and
    returns the value; ``rung`` builds the damped integrand, picks the tail
    cut ``upper`` and scales the integral into the rung's value.  The error
    estimate is the Neville spread plus the largest quadrature error of any
    rung; the evaluations are summed over the ladder.
    """
    evals = 0
    err_quad = 0.0

    def integral(f: Callable, upper: float) -> complex:
        nonlocal evals, err_quad
        res = integrate(f, 0.0, upper, tol)
        evals += res.evaluations
        err_quad = max(err_quad, res.error_estimate)
        return res.value

    vals = [rung(eps, integral) for eps in ladder]
    limit, spread = extrapolate_to_zero(ladder, vals)
    return QuadratureResult(limit, spread + err_quad, evals)


def hankel_time_integral(x: float, z: float, tol: float = 1e-9) -> QuadratureResult:
    """H0^(1)(x*z) recomputed from its oscillatory time integral.

    The kernel exp(i*x*(t + z^2/t)/2)/t is integrated over t in (0, inf)
    after the damping substitution x -> x*(1+i*eps); the substitution
    t = z*exp(s) turns the exponent into i*x*z*(1+i*eps)*cosh(s), absolutely
    convergent for eps > 0.  The ladder is extrapolated to eps -> 0.
    """
    if x <= 0 or z <= 0:
        raise DomainError("hankel_time_integral requires x > 0 and z > 0")

    def rung(eps: float, integral: Callable) -> complex:
        w = x * z * complex(1.0, eps)
        s_max = math.acosh(max(_TAIL_LOG / (x * z * eps), 2.0))
        return integral(lambda s: np.exp(1j * w * np.cosh(s)), s_max) * (2.0 / (1j * math.pi))

    return damped_ladder(rung, DEFAULT_EPS_LADDER, tol)


def hankel0_halfline_moment(mu: float, a: float, tol: float = 1e-9) -> QuadratureResult:
    """Damped half-line moment  integral of z^mu * H0^(1)(a z) dz over (0, inf).

    Evaluated with the substitution a -> a*(1+i*eps) on a ladder of eps
    values, extrapolated to eps -> 0.
    """
    if a <= 0:
        raise DomainError("hankel0_halfline_moment requires a > 0")

    def rung(eps: float, integral: Callable) -> complex:
        aa = a * complex(1.0, eps)
        return integral(lambda z: z**mu * _sp.hankel1(0, aa * z), _TAIL_LOG / (a * eps))

    return damped_ladder(rung, DEFAULT_EPS_LADDER, tol)
