"""Exact Dirichlet spectra of solvable billiards and staircase residuals.

Rectangles have the separable eigenvalues pi^2 (m^2/a^2 + n^2/b^2); the
unit disk has squared Bessel zeros with double angular degeneracy for
nonzero order.  The staircase residual compares the exact counting
function against the E-dependent part of the smooth expansion; its window
average, integrated in closed form, estimates the delta(E) coefficient.

Every disk zero below a cutoff comes from one pass over all orders.  The
signs of J_m at the nodes upper - k h, h = ``_STEP`` = 1, bracket the zeros.
J_m comes from the forward recurrence J_{n+1} = (2n/x) J_n - J_{n-1}, started
at J_0 and J_1 from ``specfun.bessel_j0_j1`` and run only where x > n, where
it is stable (Gautschi, SIAM Rev. 9 (1967) 24); ``_SWEEP_ORDERS`` orders at a
time fill one table, whose sign changes one ``np.nonzero`` finds.  A
bisection-safeguarded Newton polishes each bracket on the Taylor series of J_m
about its nearer node x0, K = ``_TAYLOR_TERMS`` terms, so J is evaluated only
at the nodes: the sweep holds c_0 = J_m(x0) and c_1 = J_{m-1}(x0) - (m/x0) c_0,
and Bessel's equation x^2 y'' + x y' + (x^2 - m^2) y = 0 gives the rest,
x0^2 (k+1)(k+2) c_{k+2} = -[x0 (k+1)(2k+1) c_{k+1} + (k^2 + x0^2 - m^2) c_k
+ 2 x0 c_{k-1} + c_{k-2}].  Step and series sit below three bounds:

* zeros are simple and more than 3.11 apart, so a cell of width h < 3.11
  holds at most one and a sign change marks exactly one: for m >= 1 the gap
  exceeds pi (Sturm comparison on sqrt(x) J_m(x), whose equation has
  coefficient 1 - (m^2 - 1/4)/x^2 < 1), and for J_0 the gaps grow from
  j_{0,2} - j_{0,1} = 3.115 towards pi;
* j_{m,1} > m + 1.855 m^(1/3) (Qu & Wong, Trans. AMS 351 (1999) 2833), so for
  h < 1.855 the cell holding j_{m,1} starts above m, and row m of the sweep
  may drop every node x <= m, where J_m > 0;
* |J_m^(k)| <= 1 (differentiate Bessel's integral k times), and every iterate
  stays in its bracket, one step wide, so |x - x0| <= h = 1 and the tail after
  K terms is below 2/K!: 8e-19 at K = 20.
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
        # each test is False on NaN
        if not (ev[0] > 0 and ev[-1] <= self.emax * (1 + 1e-12) and np.all(np.diff(ev) >= 0)):
            raise DomainError("eigenvalues must be sorted, positive, and <= emax")

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _check_emax(emax: float) -> None:
    if not 0.0 < emax < math.inf:
        raise DomainError(f"emax must be positive and finite, got {emax!r}")


_MAX_ENTRIES = 10**8    # grid points or zeros of one spectrum: 0.8 GB per float array


def _check_entries(count: float, what: str) -> None:
    if not count <= _MAX_ENTRIES:
        raise DomainError(f"{what}: about {count:.3g} entries; the bound is {_MAX_ENTRIES:.0e}")


def rectangle_spectrum(a: float, b: float, emax: float) -> Spectrum:
    """Dirichlet eigenvalues pi^2 (m^2/a^2 + n^2/b^2) <= emax, m, n >= 1."""
    if not all(0.0 < side and side * side < math.inf for side in (a, b)):
        raise DomainError("rectangle sides must be positive, with finite squares")
    _check_emax(emax)
    counts = [side * math.sqrt(emax) / math.pi for side in (a, b)]
    ev = np.empty(0)
    if min(counts) >= 1:    # else no mode, and the other side's count need not fit in memory
        _check_entries(counts[0] * counts[1], f"the {a}x{b} grid below emax={emax!r}")
        m, n = (np.arange(1, math.floor(c) + 1) for c in counts)
        ev = math.pi**2 * (m[:, None]**2 / a**2 + n**2 / b**2)
    return Spectrum(eigenvalues=np.sort(ev[ev <= emax]), shape=f"rectangle {a}x{b}", emax=emax)


_STEP = 1.0             # node spacing of the bracket sweep: see the module docstring
_SWEEP_ORDERS = 64      # orders per recurrence table: bounds the sweep's memory
_TAYLOR_TERMS = 20      # terms of each bracket's series: see the module docstring
_POLISH_BLOCK = 2_048   # brackets polished together: bounds their coefficient tables


def _brackets(upper: float):
    """The nodes x and the bracket of each zero of every J_m below ``upper``, by m, then x.

    A bracket is i, with the zero in (x[i], x[i+1]]; m; J_m at both ends; and J_{m-1} at the
    nearer end, the one with the smaller |J_m|.  Row k of the table t holds J_{m0+k-1}.  The
    sweep stops at the first order with no zero (j_{m+1,1} > j_{m,1}).  About upper^2 / 4
    zeros lie below upper, so ``upper`` beyond 2e4 is refused.
    """
    _check_entries(upper * upper / 4.0, f"the Bessel zeros below {upper!r}")
    x = upper - _STEP * np.arange(math.ceil(upper / _STEP) - 1, -1, -1)
    j0, j1 = bessel_j0_j1(x)
    r, t = 1.0 / np.maximum(x, 1.0), np.empty((_SWEEP_ORDERS + 2, len(x)))   # read where x > 1
    t[0], t[1] = -j1, j0
    cells = []
    for m0 in itertools.count(0, _SWEEP_ORDERS):
        s = np.searchsorted(x, np.arange(m0 + 1, m0 + _SWEEP_ORDERS + 1), side="right")
        for k, sk in enumerate(s.tolist(), 1):     # J_{m0+k} into row k + 1; 1 where x <= m0 + k
            n = m0 + k - 1
            np.subtract((2.0 * n) * r[sk:] * t[k, sk:], t[k - 1, sk:], out=t[k + 1, sk:])
            t[k + 1, :sk] = 1.0
        pos = t[1:-1] > 0
        k, i = np.nonzero(pos[:, :-1] != pos[:, 1:])
        count = np.bincount(k, minlength=_SWEEP_ORDERS)
        count = count[:None if count.all() else count.argmin()]   # to the first order with none
        k, i = k[:count.sum()], i[:count.sum()]
        flo, fhi = t[k + 1, i], t[k + 1, i + 1]
        cells.append((i, flo, fhi, t[k, i + (np.abs(fhi) < np.abs(flo))], count))
        if len(count) < _SWEEP_ORDERS:
            break
        t[:2] = t[-2:]
    # rebinding frees the per-chunk pieces before the orders are spelled out
    i, flo, fhi, jb, count = cells = [np.concatenate(c) for c in zip(*cells)]
    return x, i, np.repeat(np.arange(len(count)), count), flo, fhi, jb


def _taylor(x0: np.ndarray, m: np.ndarray, j: np.ndarray, jb: np.ndarray) -> np.ndarray:
    """Rows c_0 .. c_{K-1} of J_m's Taylor series about x0, from J_m = j and J_{m-1} = jb there."""
    c = np.zeros((_TAYLOR_TERMS + 2, len(x0)))     # c_k in row k + 2: c_{-2} = c_{-1} = 0
    c[2], c[3] = j, jb - m / x0 * j
    q, x2, y, t = (x0 - m) * (x0 + m), 2.0 * x0, -1.0 / (x0 * x0), np.empty(len(x0))
    for k in range(_TAYLOR_TERMS - 2):     # in place, in the order of the recurrence's terms
        ck = c[k + 4]
        np.multiply(x0, (k + 1) * (2 * k + 1), out=ck)
        ck *= c[k + 3]
        np.add(q, k * k, out=t)
        t *= c[k + 2]
        ck += t
        np.multiply(x2, c[k + 1], out=t)
        ck += t
        ck += c[k]
        ck *= y
        ck /= (k + 1) * (k + 2)
    return c[2:]


def _horner(c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The series with coefficient rows c, and its derivative, at d."""
    f, df = c[-1] * d + c[-2], c[-1].copy()
    for ck in c[-3::-1]:
        df *= d
        df += f
        f *= d
        f += ck
    return f, df


def _polish(x: np.ndarray, i: np.ndarray, m: np.ndarray, flo: np.ndarray, fhi: np.ndarray,
            jb: np.ndarray) -> np.ndarray:
    """The zero in each bracket of ``_brackets``, ``_POLISH_BLOCK`` brackets at a time.

    From the secant root of the ends, each sweep evaluates the series about x0 and its
    derivative at every iterate, shrinks its bracket to the side of the sign change and takes
    the Newton step, or bisects when it leaves the bracket; a step <= 1e-13 + 8.9e-16 x is final.
    """
    zeros = np.empty(len(i))
    for start in range(0, len(i), _POLISH_BLOCK):
        b = slice(start, start + _POLISH_BLOCK)
        lo, hi, f0, f1 = x[i[b]], x[i[b] + 1], flo[b], fhi[b]
        near = np.abs(f1) < np.abs(f0)
        x0 = np.where(near, hi, lo)
        c = _taylor(x0, m[b], np.where(near, f1, f0), jb[b])
        z = lo - f0 * (hi - lo) / (f1 - f0)
        pos, at = f0 > 0, np.arange(start, start + len(z))
        while len(at):
            f, df = _horner(c, z - x0)
            above = (f > 0) == pos                 # the zero lies above the iterate
            lo, hi = np.where(above, z, lo), np.where(above, hi, z)
            with np.errstate(divide="ignore", invalid="ignore"):
                zn = z - f / df
            zeros[at] = zn = np.where((lo <= zn) & (zn <= hi), zn, 0.5 * (lo + hi))
            live, z = np.abs(zn - z) > 1e-13 + 8.9e-16 * zn, zn
            if not live.all():          # keep only the iterates still moving
                z, lo, hi, x0, pos, at, c = (a[..., live] for a in (z, lo, hi, x0, pos, at, c))
    return zeros


def _all_zeros(upper: float) -> tuple[np.ndarray, np.ndarray]:
    """Every zero of every J_m below ``upper`` and its order m, by ascending m."""
    brackets = _brackets(upper)
    return _polish(*brackets), brackets[2]


def bessel_zeros_bracketed(order: int, upper: float) -> np.ndarray:
    """All positive zeros of J_order below ``upper``: that order's share of ``_all_zeros``."""
    if not (isinstance(order, numbers.Integral) and order >= 0):
        raise DomainError(f"order must be a non-negative integer, got {order!r}")
    x, i, m, *values = _brackets(upper)
    own = m == order                    # polish only this order's brackets
    return _polish(x, i[own], m[own], *(v[own] for v in values))


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
