"""Exact Dirichlet spectra of solvable billiards and staircase residuals.

Rectangles have the separable eigenvalues pi^2 (m^2/a^2 + n^2/b^2); the
unit disk has squared Bessel zeros with double angular degeneracy for
nonzero order.  The staircase residual compares the exact counting
function against the E-dependent part of the smooth expansion; its window
average estimates the delta(E) coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BilliardError, DomainError
from .weyl import SpectralExpansion

__all__ = [
    "Spectrum",
    "EmptySpectrumError",
    "InsufficientDataError",
    "NumericalError",
    "rectangle_spectrum",
    "disk_spectrum",
    "bessel_zeros_bracketed",
    "staircase_residual",
    "counting_function",
]


class EmptySpectrumError(BilliardError):
    """Energy cutoff below the first eigenvalue."""


class InsufficientDataError(BilliardError):
    """Residual window holds too few eigenvalues for a stable mean."""


class NumericalError(BilliardError):
    """Certified bracket for a root could not be established."""


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


def rectangle_spectrum(a: float, b: float, emax: float) -> Spectrum:
    """Dirichlet eigenvalues pi^2 (m^2/a^2 + n^2/b^2) <= emax, m, n >= 1."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise DomainError("rectangle sides must be positive and finite")
    if not math.isfinite(emax):
        raise DomainError(f"emax must be finite, got {emax!r}")
    first = math.pi**2 * (1.0 / a**2 + 1.0 / b**2)
    if emax < first:
        raise EmptySpectrumError(f"emax={emax} below first eigenvalue {first}")
    m_max = int(math.floor(a * math.sqrt(emax) / math.pi))
    vals = []
    for m in range(1, m_max + 1):
        rem = emax - math.pi**2 * m**2 / a**2
        if rem < math.pi**2 / b**2:
            continue
        n_max = int(math.floor(b * math.sqrt(rem) / math.pi))
        n = np.arange(1, n_max + 1)
        vals.append(math.pi**2 * (m**2 / a**2 + n**2 / b**2))
    ev = np.sort(np.concatenate(vals))
    return Spectrum(eigenvalues=ev, shape=f"rectangle {a}x{b}", emax=emax)


def bessel_zeros_bracketed(order: int, upper: float) -> np.ndarray:
    """All positive zeros of J_order below ``upper``, by certified brackets.

    A sign-change scan (step well below the asymptotic zero spacing pi)
    brackets each root; ``brentq`` then polishes it.  Zeros of J_m are
    simple and exceed m, so the scan starts at max(order, tiny).
    """
    # deferred: scipy dominates import time
    from scipy.optimize import brentq
    from scipy.special import jv
    lo = max(float(order), 1e-6)
    if upper <= lo:
        return np.array([])
    xs = np.arange(lo, upper + 0.25, 0.25)
    ys = jv(order, xs)
    zeros = []
    sign_change = np.nonzero(np.sign(ys[:-1]) * np.sign(ys[1:]) < 0)[0]
    for i in sign_change:
        try:
            root = brentq(lambda x: jv(order, x), xs[i], xs[i + 1],
                          xtol=1e-13, rtol=8.9e-16)
        except ValueError as exc:
            raise NumericalError(f"bracket failed for J_{order}: {exc}") from None
        if root <= upper:
            zeros.append(root)
    return np.asarray(zeros)


def disk_spectrum(radius: float, emax: float) -> Spectrum:
    """Dirichlet disk eigenvalues (j_{m,n}/R)^2 <= emax.

    Angular orders m >= 1 are doubled (degeneracy); m = 0 is single.  The
    order range is finite because j_{m,1} > m.
    """
    if not 0 < radius < math.inf:
        raise DomainError("radius must be positive and finite")
    if not math.isfinite(emax):
        raise DomainError(f"emax must be finite, got {emax!r}")
    k_max = math.sqrt(emax) * radius
    vals = []
    m = 0
    while m < k_max:
        zs = bessel_zeros_bracketed(m, k_max)
        if len(zs) == 0:
            break
        ev = (zs / radius) ** 2
        vals.append(ev)
        if m >= 1:
            vals.append(ev)
        m += 1
    if not vals:
        raise EmptySpectrumError(f"no disk eigenvalues below emax={emax}")
    ev = np.sort(np.concatenate(vals))
    ev = ev[ev <= emax]
    if len(ev) == 0:
        raise EmptySpectrumError(f"no disk eigenvalues below emax={emax}")
    return Spectrum(eigenvalues=ev, shape=f"disk R={radius}", emax=emax)


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
