"""Seeded inputs of the four workloads.

``build(workload, seed)`` is the whole set-up a workload needs after
``import billiard_weyl``: the same seed always gives the same inputs.
Draws are stratified (one uniform draw per equal-width cell) where a
workload sums many calls, so that the amount of work, and with it the
wall time, varies little from seed to seed.
"""

from __future__ import annotations

import math
import os

import numpy as np

from billiard_weyl import birkhoff, geometry

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GEOMETRIES = ("square", "circle", "quarter_disk")


def _stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw in each of n equal cells of [lo, hi], in cell order."""
    return lo + (hi - lo) * (np.arange(n) + rng.uniform(0.05, 0.95, n)) / n


def fold_sweep(rng) -> dict:
    # Narrow ranges: the cost of one angle varies up to 2x across (pi/2, pi).
    # Both stay well inside the angles where the grid-1 error estimate is
    # below 1% of the value (0.86% at 0.6, 1.5% at 2.9).
    return {
        "angles": (float(rng.uniform(0.97, 1.03)), math.pi / 2,
                   float(rng.uniform(2.48, 2.52))),
        "half_identity": [(float(r), float(th1), float(tau)) for r, th1, tau in zip(
            rng.uniform(0.3, 1.0, 16), rng.uniform(0.05, math.pi / 2 - 0.05, 16),
            rng.uniform(0.02, 0.08, 16))],
    }


def disk_staircase(rng) -> dict:
    # every window ends at the cutoff and spans a factor 8 to 100 in E: the
    # window mean of the staircase residual settles on the delta(E)
    # coefficient only over many oscillation periods (windows of ratio 8
    # from E = 500 stray by up to 0.035)
    def windows(emax, n):
        lows = np.exp(_stratified(rng, math.log(emax / 100.0), math.log(emax / 8.0), n))
        return [(float(e1), emax) for e1 in lows]

    return {
        "disk": {"radius": 1.0, "emax": 1e5, "windows": windows(1e5, 3)},
        "rectangles": [{"a": 1.0, "b": float(b), "emax": 1e5, "windows": windows(1e5, 2)}
                       for b in _stratified(rng, 1.1, 1.9, 3)],
    }


def _orbit_starts(rng, boundary, n: int, bounces: int) -> list:
    """Orbit starts whose traces miss every corner; a start that sits on a
    corner or whose trace hits one is redrawn."""
    starts = []
    while len(starts) < n:
        start = (float(rng.uniform(0.0, boundary.perimeter)), float(rng.uniform(-0.9, 0.9)))
        try:
            birkhoff.trace_orbit(boundary, birkhoff.BirkhoffCoord(*start), bounces)
        except (geometry.CornerPointError, birkhoff.CornerHitError):
            continue
        starts.append(start)
    return starts


def quadrature_oracles(rng) -> dict:
    ky = _stratified(rng, 0.0, 6.0, 12)
    y = rng.uniform(0.2, 2.0, 12)
    orbits = {}
    for name in GEOMETRIES:
        with open(os.path.join(ROOT, "geometries", name + ".bil"), encoding="utf-8") as fh:
            boundary = geometry.parse_geometry(fh.read())
        orbits[name] = {"boundary": boundary, "bounces": 60,
                        "starts": _orbit_starts(rng, boundary, 4, 60)}
    return {
        "green": [(float(yy), float(kk / yy)) for yy, kk in zip(y, ky)],
        "length": [(float(L), float(e)) for L, e in zip(
            rng.uniform(0.5, 4.0, 8), np.exp(_stratified(rng, 0.0, math.log(1e4), 8)))],
        "corner": [float(a) for a in _stratified(rng, 0.05, math.pi / 2, 16)],
        "oracle_tau": float(rng.uniform(0.1, 0.4)),
        "orbits": orbits,
    }


# The README commands except ``fold --grid 2`` (its computation is the
# fold-sweep workload), and two argv that must be refused as usage errors.
CLI_COMMANDS = (
    ("weyl", "--geometry", "geometries/square.bil", "--bc", "dirichlet", "--format", "json"),
    ("staircase", "--shape", "rectangle", "--emax", "5000", "--window", "500,5000"),
    ("staircase", "--shape", "disk", "--emax", "4000", "--window", "500,4000"),
    ("corner", "--alpha-grid", "0.1:1.5:15", "--format", "csv"),
    ("ledger", "--bc", "dirichlet", "--format", "csv"),
    ("monodromy", "--geometry", "geometries/square.bil", "--start", "0.5,0.0", "--bounces", "4"),
    ("green", "--y", "1", "--k", "1", "--verify"),
)
CLI_USAGE_ERRORS = (
    ("corner", "--alpha-grid", "1:2:0", "--format", "csv"),
    ("fold", "--alpha", "2.0", "--tau-list", "0"),
)


def cli_reports(rng) -> dict:
    # the argv are fixed; the seed only sets the order they run in
    argv = list(CLI_COMMANDS + CLI_USAGE_ERRORS)
    order = rng.permutation(len(argv))
    return {"argv": [list(argv[i]) for i in order]}


BUILDERS = {
    "fold-sweep": fold_sweep,
    "disk-staircase": disk_staircase,
    "quadrature-oracles": quadrature_oracles,
    "cli-reports": cli_reports,
}


def build(workload: str, seed: int) -> dict:
    return BUILDERS[workload](np.random.default_rng(seed))
