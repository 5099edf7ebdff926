"""Exact Dirichlet spectra of solvable billiards and staircase residuals.

Rectangles have the separable eigenvalues pi^2 (m^2/a^2 + n^2/b^2); the
unit disk has squared Bessel zeros with double angular degeneracy for
nonzero order.  The staircase residual compares the exact counting
function against the E-dependent part of the smooth expansion; its window
average estimates the delta(E) coefficient.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .weyl import SpectralExpansion

__all__ = [
    "Spectrum",
    "EmptySpectrumError",
    "InsufficientDataError",
    "rectangle_spectrum",
    "disk_spectrum",
    "bessel_zeros_bracketed",
    "staircase_residual",
    "counting_function",
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


def counting_function(sp: Spectrum, energies: np.ndarray) -> np.ndarray:
    """Right-continuous step count N(E) = #{eigenvalues <= E}."""
    return np.searchsorted(sp.eigenvalues, energies, side="right").astype(float)


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


def _zero_ladder(upper: float):
    """Zeros below ``upper`` of J_0, J_1, J_2, ..., one ascending array per order.

    Nothing is probed: zeros of consecutive orders interlace, j_{m-1,k} <
    j_{m,k} < j_{m-1,k+1}, and j_{0,k} lies between the zeros (k - 1/2) pi of
    J_{-1/2} and k pi of J_{1/2} (DLMF 10.21).  So each bracket holds exactly
    one zero, except the last, which is cut at ``upper`` and kept only if J_m
    changes sign on it.  The ladder stops at the first order with no zero
    below ``upper``; higher orders have none either, as j_{m+1,1} > j_{m,1}.
    """
    # deferred: scipy dominates import time
    from scipy.optimize import brentq
    from scipy.special import jv
    k = np.arange(1, math.ceil(upper / math.pi + 0.5))     # (k - 1/2) pi < upper
    lo, hi = (k - 0.5) * math.pi, np.minimum(k * math.pi, upper)
    for m in itertools.count():
        if len(lo) and jv(m, lo[-1]) * jv(m, hi[-1]) > 0:
            lo, hi = lo[:-1], hi[:-1]
        if not len(lo):
            return
        zeros = np.array([brentq(lambda x: jv(m, x), x0, x1, xtol=1e-13, rtol=8.9e-16)
                          for x0, x1 in zip(lo, hi)])
        yield zeros
        lo, hi = zeros, np.append(zeros[1:], upper)


def bessel_zeros_bracketed(order: int, upper: float) -> np.ndarray:
    """All positive zeros of J_order below ``upper``, polished in interlacing brackets."""
    return next(itertools.islice(_zero_ladder(upper), order, None), np.array([]))


def disk_spectrum(radius: float, emax: float) -> Spectrum:
    """Dirichlet disk eigenvalues (j_{m,n}/R)^2 <= emax.

    Angular orders m >= 1 are doubled (degeneracy); m = 0 is single.
    """
    if not 0 < radius < math.inf:
        raise DomainError("radius must be positive and finite")
    _check_emax(emax)
    vals = [(zs / radius) ** 2 for zs in _zero_ladder(math.sqrt(emax) * radius)]
    ev = np.sort(np.concatenate([np.empty(0), *vals, *vals[1:]]))
    return Spectrum(eigenvalues=ev[ev <= emax], shape=f"disk R={radius}", emax=emax)


def staircase_residual(sp: Spectrum, e: SpectralExpansion,
                       window: tuple[float, float],
                       grid_points: int = 20001) -> dict:
    """Mean and naive standard error of N(E) minus the E-dependent smooth part.

    The residual is averaged over a dense uniform grid on the window; its
    mean estimates the delta(E) coefficient of the expansion.  Requires at
    least 100 eigenvalues inside the window and at least 2 grid points.
    """
    if grid_points < 2:
        raise DomainError(f"grid_points must be >= 2, got {grid_points!r}")
    e1, e2 = window
    if not (0.0 < e1 < e2 <= sp.emax * (1 + 1e-12)):
        raise DomainError(f"window {window!r} must sit inside (0, emax]")
    ev = sp.eigenvalues
    inside = np.count_nonzero((ev >= e1) & (ev <= e2))
    if inside < 100:
        raise InsufficientDataError(
            f"window holds {inside} eigenvalues; need at least 100")
    grid = np.linspace(e1, e2, grid_points)
    n_exact = counting_function(sp, grid)
    smooth = e.const_coef * grid + 2.0 * e.inv_sqrt_coef * np.sqrt(grid)
    resid = n_exact - smooth
    mean = float(np.mean(resid))
    stderr = float(np.std(resid) / math.sqrt(len(resid)))
    return {"mean": mean, "stderr": stderr, "count": int(inside)}
