"""Exact Dirichlet spectra of solvable billiards and staircase residuals.

Rectangles have the separable eigenvalues pi^2 (m^2/a^2 + n^2/b^2); the
unit disk has squared Bessel zeros with double angular degeneracy for
nonzero order.  The staircase residual compares the exact counting
function against the E-dependent part of the smooth expansion; its window
average, integrated in closed form, estimates the delta(E) coefficient.

Every disk zero below a cutoff comes from one pass over all orders.  The
signs of J_m at the nodes upper - k h, h = ``_STEP`` = 1, bracket the
zeros, and a bisection-safeguarded Newton polishes them, each block of
``_POLISH_BLOCK`` brackets in one set of arrays.  Both take J_m from the
forward recurrence J_{n+1} = (2n/x) J_n - J_{n-1}, started at J_0 and J_1
from ``specfun.bessel_j0_j1`` and run only where x > n, where it is stable
(Gautschi, SIAM Rev. 9 (1967) 24); each step writes J_{n+1} over J_{n-1}
and swaps the two rows.  The step sits below two bounds:

* zeros are simple and more than 3.11 apart, so a cell of width h < 3.11
  holds at most one and a sign change marks exactly one: for m >= 1 the gap
  exceeds pi (Sturm comparison on sqrt(x) J_m(x), whose equation has
  coefficient 1 - (m^2 - 1/4)/x^2 < 1), and for J_0 the gaps grow from
  j_{0,2} - j_{0,1} = 3.115 towards pi;
* j_{m,1} > m + 1.855 m^(1/3) (Qu & Wong, Trans. AMS 351 (1999) 2833), so for
  h < 1.855 the cell holding j_{m,1} starts above m.  Row m of the sweep may
  drop every node x <= m, where J_m > 0, and each Newton iterate of order m
  stays where the recurrence is stable.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import bessel_j0_j1
from .weyl import SpectralExpansion

__all__ = [
    "Spectrum",
    "EmptySpectrumError",
    "InsufficientDataError",
    "rectangle_spectrum",
    "disk_spectrum",
    "bessel_zeros_bracketed",
    "staircase_residual",
]


class EmptySpectrumError(DomainError):
    """Energy cutoff below the first eigenvalue."""


class InsufficientDataError(DomainError):
    """Residual window holds too few eigenvalues for a stable mean."""


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray    # sorted ascending, multiplicity by repetition
    shape: str
    emax: float

    def __post_init__(self):
        ev = self.eigenvalues
        if len(ev) == 0:
            raise EmptySpectrumError(f"no eigenvalues below emax={self.emax!r}")
        if np.any(ev <= 0) or np.any(np.diff(ev) < 0) or np.any(ev > self.emax * (1 + 1e-12)):
            raise DomainError("eigenvalues must be sorted, positive, and <= emax")

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _check_emax(emax: float) -> None:
    if not 0.0 < emax < math.inf:
        raise DomainError(f"emax must be positive and finite, got {emax!r}")


def rectangle_spectrum(a: float, b: float, emax: float) -> Spectrum:
    """Dirichlet eigenvalues pi^2 (m^2/a^2 + n^2/b^2) <= emax, m, n >= 1."""
    if not all(0.0 < side and side * side < math.inf for side in (a, b)):
        raise DomainError("rectangle sides must be positive, with finite squares")
    _check_emax(emax)
    counts = [math.floor(side * math.sqrt(emax) / math.pi) for side in (a, b)]
    ev = np.empty(0)
    if min(counts) > 0:     # else no mode, and the other side's count need not fit in memory
        m, n = (np.arange(1, c + 1) for c in counts)
        ev = math.pi**2 * (m[:, None]**2 / a**2 + n**2 / b**2)
    return Spectrum(eigenvalues=np.sort(ev[ev <= emax]), shape=f"rectangle {a}x{b}", emax=emax)


_STEP = 1.0      # node spacing of the bracket sweep: see the module docstring


def _advance(n: int, r: np.ndarray, prev: np.ndarray, cur: np.ndarray, s: int):
    """Write J_{n+1} over J_{n-1} on ``[s:]``, r = 1/x, x[s:] > n; return the rows swapped."""
    np.subtract((2.0 * n) * r[s:] * cur[s:], prev[s:], out=prev[s:])
    return cur, prev


def _start_rows(x: np.ndarray):
    """1/x, J_{-1} = -J_1 and J_0 at x: the recurrence's factor and first rows."""
    j0, j1 = bessel_j0_j1(x)
    return 1.0 / x, -j1, j0


_POLISH_BLOCK = 65_536   # brackets polished together: bounds the Newton sweep's arrays


def _polish(lo: np.ndarray, hi: np.ndarray, flo: np.ndarray, fhi: np.ndarray,
            orders: np.ndarray) -> np.ndarray:
    """The zero of J_order in each bracket (lo, hi], ``_POLISH_BLOCK`` brackets at a time.

    ``flo`` and ``fhi`` are J_order at the bracket ends, of opposite sign.
    ``orders`` ascends, so each recurrence step advances one trailing slice
    of a block, and a block's steps stop at its own highest order.
    From the secant root of the ends, each sweep evaluates J_m and
    J_m' = J_{m-1} - (m/x) J_m at every iterate, shrinks its bracket to the
    side of the sign change and takes the Newton step, or bisects when that
    step leaves the bracket.  An iterate is final once its step is at most
    1e-13 + 8.9e-16 x.
    """
    x = lo - flo * (hi - lo) / (fhi - flo)
    pos = flo > 0
    for start in range(0, len(x), _POLISH_BLOCK):
        live = np.arange(start, min(start + _POLISH_BLOCK, len(x)))
        while len(live):
            xl = x[live]
            lo[live], hi[live], x[live] = _newton_sweep(xl, orders[live], lo[live], hi[live],
                                                        pos[live])
            live = live[np.abs(x[live] - xl) > 1e-13 + 8.9e-16 * x[live]]
    return x


def _newton_sweep(x: np.ndarray, m: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  pos: np.ndarray):
    """One sweep of ``_polish`` at iterates x of ascending orders m: new lo, hi and x.

    Its arrays are freed on return, so the next sweep's start rows do not
    share the peak with them.
    """
    r, prev, cur = _start_rows(x)
    for n, s in enumerate(np.searchsorted(m, np.arange(1, m[-1] + 1))):
        prev, cur = _advance(n, r, prev, cur, s)
    odd = (m[-1] - m) % 2 == 1      # rows that stopped an odd number of steps early
    prev[odd], cur[odd] = cur[odd], prev[odd]
    above = (cur > 0) == pos            # the zero lies above x
    lo, hi = np.where(above, x, lo), np.where(above, hi, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        xn = x - cur / (prev - m / x * cur)
    return lo, hi, np.where((lo <= xn) & (xn <= hi), xn, 0.5 * (lo + hi))


def _all_zeros(upper: float) -> tuple[np.ndarray, np.ndarray]:
    """Every zero of every J_m below ``upper`` and its order m, by ascending m.

    One pair of recurrence rows on the nodes upper - k h walks up the orders, row m kept only
    above m; each sign change brackets one zero (module docstring).  The walk stops at the
    first order with none below ``upper`` (j_{m+1,1} > j_{m,1}); ``_polish`` takes them all.
    """
    x = upper - _STEP * np.arange(math.ceil(upper / _STEP) - 1, -1, -1)
    r, prev, cur = _start_rows(x)
    s, cells = 0, []
    for m in itertools.count():
        pos = cur[s:] > 0
        i = s + np.flatnonzero(pos[:-1] != pos[1:])
        if not len(i):
            break
        cells.append((x[i], x[i + 1], cur[i], cur[i + 1], np.full(len(i), m)))
        s = int(np.searchsorted(x, m + 1, side="right"))
        prev, cur = _advance(m, r, prev, cur, s)
    # rebinding frees the per-order pieces before the polish
    cells = [np.concatenate(c) for c in zip(*cells)] or [np.empty(0)] * 5
    return _polish(*cells), cells[-1]


def bessel_zeros_bracketed(order: int, upper: float) -> np.ndarray:
    """All positive zeros of J_order below ``upper``: that order's share of ``_all_zeros``."""
    if not (isinstance(order, numbers.Integral) and order >= 0):
        raise DomainError(f"order must be a non-negative integer, got {order!r}")
    zeros, orders = _all_zeros(upper)
    return zeros[orders == order]


def disk_spectrum(radius: float, emax: float) -> Spectrum:
    """Dirichlet disk eigenvalues (j_{m,n}/R)^2 <= emax.

    Angular orders m >= 1 are doubled (degeneracy); m = 0 is single.
    """
    if not 0 < radius < math.inf:
        raise DomainError("radius must be positive and finite")
    _check_emax(emax)
    zeros, orders = _all_zeros(math.sqrt(emax) * radius)
    vals = (zeros / radius) ** 2
    ev = np.sort(np.concatenate([vals, vals[orders > 0]]))
    return Spectrum(eigenvalues=ev[ev <= emax], shape=f"disk R={radius}", emax=emax)


def staircase_residual(sp: Spectrum, e: SpectralExpansion,
                       window: tuple[float, float]) -> dict:
    """Window average of N(E) minus the E-dependent smooth part, in closed form.

    Over [e1, e2] the step count N(E) = #{eigenvalues <= E} integrates to
    N(e1) (e2 - e1) plus e2 - lambda per eigenvalue in (e1, e2], and
    c0 E + 2 c_half sqrt(E) to a polynomial in sqrt(E).  The mean estimates
    the delta(E) coefficient.  ``stderr`` is the population deviation of the
    residual at each eigenvalue in [e1, e2], N counting it, over sqrt(count):
    the staircase's scatter.  Requires at least 100 eigenvalues in the window.
    """
    e1, e2 = window
    if not (0.0 < e1 < e2 <= sp.emax * (1 + 1e-12)):
        raise DomainError(f"window {window!r} must sit inside (0, emax]")
    ev = sp.eigenvalues
    first = int(np.searchsorted(ev, e1))
    lo, hi = (int(i) for i in np.searchsorted(ev, (e1, e2), side="right"))
    inside = hi - first
    if inside < 100:
        raise InsufficientDataError(
            f"window holds {inside} eigenvalues; need at least 100")
    c0, c_half = e.const_coef, e.inv_sqrt_coef
    integral = (lo * (e2 - e1) + float(np.sum(e2 - ev[lo:hi])) - 0.5 * c0 * (e2 * e2 - e1 * e1)
                - (4.0 / 3.0) * c_half * (e2 * math.sqrt(e2) - e1 * math.sqrt(e1)))
    at = ev[first:hi]
    resid = np.arange(first + 1, hi + 1) - c0 * at - 2.0 * c_half * np.sqrt(at)
    return {"mean": integral / (e2 - e1), "stderr": float(np.std(resid) / math.sqrt(inside)), "count": inside}
