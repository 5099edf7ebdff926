"""One round of each workload, and the checks on its outputs.

A round is a list of operations run in order.  An operation that raises,
or a CLI process that does not end as it must, counts as failed.  The
output of every other operation is checked, after the round's timer has
stopped, against a computation made here apart from the program (scipy's
Bessel zeros and Hankel function, a brute-force lattice enumeration,
closed forms) or against a property the method must have.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from billiard_weyl import birkhoff, cli, folding, geometry, orbit_terms, spectra, weyl

from inputs import CLI_USAGE_ERRORS, ROOT

PI = math.pi


class OperationFailed(Exception):
    """The operation ended without a result (a CLI process exited wrongly)."""


class Op(NamedTuple):
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]      # -> descriptions of wrong outputs


def problem(ok: bool, text: str) -> list:
    return [] if ok else [text]


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


# ---------------------------------------------------------------------------
# references computed apart from the program


def weyl_corner(alpha: float) -> float:
    return (PI / alpha - alpha / PI) / 24.0


def green_hankel(y: float, k: float) -> complex:
    """-(1/4i) H0^(1)(2ky), from scipy."""
    return (-1.0 / 4j) * complex(special.hankel1(0, 2.0 * k * y))


def disk_eigenvalues(radius: float, emax: float) -> np.ndarray:
    """Squared zeros of J_m from scipy's jn_zeros, orders m >= 1 doubled."""
    k_max = math.sqrt(emax) * radius
    vals = []
    m = 0
    while True:
        count = max(1, int((k_max - m) / PI) + 3)
        zeros = special.jn_zeros(m, count)
        while zeros[-1] <= k_max:
            count *= 2
            zeros = special.jn_zeros(m, count)
        zeros = zeros[zeros <= k_max]
        if len(zeros) == 0:
            break
        ev = (zeros / radius) ** 2
        vals += [ev, ev] if m else [ev]
        m += 1
    return np.sort(np.concatenate(vals))


def rectangle_eigenvalues(a: float, b: float, emax: float) -> np.ndarray:
    """pi^2 (m^2/a^2 + n^2/b^2) over a lattice box that holds every one <= emax."""
    m = np.arange(1, int(a * math.sqrt(emax) / PI) + 2)
    n = np.arange(1, int(b * math.sqrt(emax) / PI) + 2)
    ev = (PI**2 * ((m[:, None] / a) ** 2 + (n[None, :] / b) ** 2)).ravel()
    return np.sort(ev[ev <= emax])


class References:
    """Reference spectra, computed once per run and shared by its rounds."""

    def __init__(self):
        self._cache: dict = {}

    def get(self, fn, *args):
        key = (fn.__name__,) + args
        if key not in self._cache:
            self._cache[key] = fn(*args)
        return self._cache[key]


def compare_spectrum(ev, ref, what: str) -> list:
    if len(ev) != len(ref):
        return [f"{what}: {len(ev)} eigenvalues, the reference has {len(ref)}"]
    worst = float(np.max(np.abs(ev - ref) / ref))
    return problem(worst <= 1e-12, f"{what}: eigenvalue rel error {worst:.2e} > 1e-12")


# ---------------------------------------------------------------------------
# fold-sweep


def fold_sweep(inp: dict, refs: References) -> list[Op]:
    ops = []
    target = 1.0 / 16.0 - 1.0 / (16.0 * PI**2)   # the 16 signatures less '----'
    for alpha in inp["angles"]:
        def check(res, alpha=alpha):
            out = problem(res.error_estimate < 0.01 * abs(res.value),
                          f"alpha={alpha}: error estimate {res.error_estimate:.3e} "
                          f"is not below 1% of {res.value:.6e}")
            out += problem(rel_err(res.weyl_value, weyl_corner(alpha)) <= 1e-12,
                           f"alpha={alpha}: weyl_value {res.weyl_value!r}")
            if alpha == PI / 2:
                out += problem(rel_err(res.value, target) <= 0.01,
                               f"right angle: value {res.value!r}, target {target!r}")
            return out

        ops.append(Op(f"obtuse_corner_constant({alpha:.6f})",
                      lambda alpha=alpha: folding.obtuse_corner_constant(alpha, grid=1),
                      check))
    for r, th1, tau in inp["half_identity"]:
        # half the corner family's imaginary-time kernel at total time 2 tau,
        # (1/(4 pi t)) exp(-(r sin alpha)^2 / t) with alpha = pi/2
        half = 0.5 * math.exp(-r * r / (2.0 * tau)) / (8.0 * PI * tau)
        ops.append(Op(
            f"broken_path_propagator({r:.4f},{th1:.4f},pi/2,{tau:.4f})",
            lambda r=r, th1=th1, tau=tau: folding.broken_path_propagator(r, th1, PI / 2, tau),
            lambda k, half=half: problem(abs(k.real - half) < 0.01 * half,
                                         f"half identity: {k.real!r} vs {half!r}")))
    return ops


# ---------------------------------------------------------------------------
# disk-staircase


def _staircase_ops(state: dict, key: str, boundary, windows, expected: float) -> list[Op]:
    def residual(window):
        expansion = weyl.weyl_expansion(geometry.measures(boundary))
        return spectra.staircase_residual(state[key], expansion, window)

    return [Op(f"staircase_residual({key},{w[0]:.1f},{w[1]:g})",
               lambda w=w: residual(w),
               lambda res: problem(abs(res["mean"] - expected) <= 0.03,
                                   f"{key} staircase mean {res['mean']:.4f}, "
                                   f"expected {expected:.4f} +- 0.03"))
            for w in windows]


def disk_staircase(inp: dict, refs: References) -> list[Op]:
    state: dict = {}                      # spectra shared by the round's residuals

    def spectrum(key, fn, *args):
        state[key] = fn(*args)
        return state[key]

    d = inp["disk"]
    ops = [Op(f"disk_spectrum({d['radius']},{d['emax']:g})",
              lambda: spectrum("disk", spectra.disk_spectrum, d["radius"], d["emax"]),
              lambda sp: compare_spectrum(
                  sp.eigenvalues, refs.get(disk_eigenvalues, d["radius"], d["emax"]), "disk"))]
    # curvature term 2 pi / (12 pi) of the disk
    ops += _staircase_ops(state, "disk", geometry.disk(d["radius"]), d["windows"], 1.0 / 6.0)
    for i, rect in enumerate(inp["rectangles"]):
        a, b, emax = rect["a"], rect["b"], rect["emax"]
        key = f"rectangle{i}"
        ops.append(Op(
            f"rectangle_spectrum({a},{b:.6f},{emax:g})",
            lambda key=key, a=a, b=b, emax=emax: spectrum(
                key, spectra.rectangle_spectrum, a, b, emax),
            lambda sp, a=a, b=b, emax=emax: compare_spectrum(
                sp.eigenvalues, refs.get(rectangle_eigenvalues, a, b, emax),
                f"rectangle 1x{b}")))
        # four right-angle corners at 1/16 each
        ops += _staircase_ops(state, key, geometry.rectangle(a, b), rect["windows"], 0.25)
    return ops


# ---------------------------------------------------------------------------
# quadrature-oracles


def _check_orbit(name: str, boundary, out) -> list:
    pts, chain = out
    # a product of unit-determinant maps, up to rounding in its entries
    size = 1.0 + chain.m11**2 + chain.m12**2 + chain.m21**2 + chain.m22**2
    found = problem(abs(chain.det() - 1.0) <= 1e-12 * size,
                    f"{name}: chain product det {chain.det()!r}")
    for c1, c2 in zip(pts[:-1], pts[1:]):
        det = birkhoff.chain_product(boundary, [c1, c2]).det()
        if abs(det - 1.0) > 1e-12:
            found.append(f"{name}: bounce map det {det!r}")
            break
    if name == "circle":
        drift = max(abs(abs(p.v) - abs(pts[0].v)) for p in pts)
        found += problem(drift <= 1e-12, f"circle: |v| drifts by {drift:.2e}")
    return found


def quadrature_oracles(inp: dict, refs: References) -> list[Op]:
    ops = []
    for y, k in inp["green"]:
        def check(q, y=y, k=k):
            gap = abs(q.value - green_hankel(y, k))
            return problem(gap <= max(3.0 * q.error_estimate, 1e-7),
                           f"green_fourier(y={y}, k={k}) off the Hankel value by {gap:.2e}")
        ops.append(Op(f"green_fourier({y:.4f},{k:.4f})",
                      lambda y=y, k=k: orbit_terms.green_fourier(y, k), check))
    for length, energy in inp["length"]:
        ref = -length / (8.0 * PI * math.sqrt(energy))
        ops.append(Op(
            f"length_term_density_quadrature({length:.4f},{energy:.4f})",
            lambda length=length, energy=energy:
                orbit_terms.length_term_density_quadrature(length, energy),
            lambda q, ref=ref: problem(rel_err(q.value, ref) <= 5e-3,
                                       f"length term {q.value!r} vs {ref!r}")))
    for alpha in inp["corner"]:
        ref = alpha / (8.0 * PI * math.sin(alpha) ** 2)
        ops.append(Op(
            f"corner_delta_by_quadrature({alpha:.6f})",
            lambda alpha=alpha: orbit_terms.corner_delta_by_quadrature(alpha),
            lambda q, ref=ref: problem(rel_err(q.value, ref) <= 1e-6,
                                       f"corner delta {q.value!r} vs {ref!r}")))

    tau = inp["oracle_tau"]

    def oracle_sums(rows):
        # the exact quadrant trace: area 1, length -2, delta 1/16
        sums = [sum(r[key] for r in rows) for key in ("area_units", "length_units",
                                                        "delta_units")]
        return problem(all(abs(s - t) <= 1e-6 for s, t in zip(sums, (1.0, -2.0, 1 / 16))),
                       f"oracle rows sum to {sums}")

    ops.append(Op(f"signature_oracle(16 rows, tau={tau:.4f})",
                  lambda: [folding.signature_oracle(s, tau) for s in folding.ALL_SIGNATURES],
                  oracle_sums))
    for name, orbit in inp["orbits"].items():
        boundary, bounces = orbit["boundary"], orbit["bounces"]
        for s0, v0 in orbit["starts"]:
            def trace(boundary=boundary, bounces=bounces, s0=s0, v0=v0):
                pts = birkhoff.trace_orbit(boundary, birkhoff.BirkhoffCoord(s0, v0), bounces)
                return pts, birkhoff.chain_product(boundary, pts)
            ops.append(Op(f"trace_orbit({name},{s0:.4f},{v0:.4f})", trace,
                          lambda out, name=name, boundary=boundary:
                              _check_orbit(name, boundary, out)))
    return ops


# ---------------------------------------------------------------------------
# cli-reports


def run_cli_process(argv: list) -> tuple[int, str, str]:
    """One ``billiard-weyl`` process, run from the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "billiard_weyl.cli", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_in_process(argv: list) -> tuple[int, str, str]:
    """The same argv through ``cli.run``, with ``cli.main``'s stream choice."""
    code, text = cli.run(list(argv))
    return (code, text, "") if code == 0 else (code, "", text)


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(value, ref, rel=1e-12) -> bool:
    return abs(float(value) - ref) <= rel * max(abs(ref), 1e-300)


def check_cli_report(argv: list, stdout: str, refs: References) -> list:
    """Values of a README command's report against formulas computed here."""
    cmd = argv[0]
    if cmd == "corner":
        rows = _csv_rows(stdout)
        lo, hi, steps = argv[argv.index("--alpha-grid") + 1].split(":")
        alphas = np.linspace(float(lo), float(hi), int(steps))
        found = problem(len(rows) == len(alphas), f"corner: {len(rows)} rows")
        for row, alpha in zip(rows, alphas):
            orbit = alpha / (8 * PI * math.sin(alpha) ** 2)
            edge = 1.0 / (4 * PI * math.tan(alpha))
            ok = (_close(row["alpha"], alpha) and _close(row["weyl_coeff"], weyl_corner(alpha))
                  and _close(row["orbit_coeff"], orbit) and _close(row["edge_correction"], edge)
                  and _close(row["total_semiclassical"], orbit + edge))
            found += problem(ok, f"corner: row {row}")
        return found
    if cmd == "ledger":
        rows = _csv_rows(stdout)
        total = rows[-1]
        entries = rows[:-1]
        return problem(
            len(entries) == 16 and total["signature"] == "TOTAL"
            and _close(total["delta_value"], 1 / 16)
            and _close(sum(float(r["delta_value"]) for r in entries), 1 / 16)
            and sum(Fraction(r["area_units"]) for r in entries) == 1,
            f"ledger: total row {total}")
    res = json.loads(stdout)["results"]
    if cmd == "weyl":
        # unit square: area 1, perimeter 4, four corners at (pi/(pi/2) - 1/2)/24
        ok = (_close(res["area"], 1.0) and _close(res["perimeter"], 4.0)
              and res["n_corners"] == 4 and _close(res["delta_coef"], 0.25)
              and _close(res["const_coef"], 1 / (4 * PI))
              and _close(res["inv_sqrt_coef"], -4 / (8 * PI)))
        return problem(ok, f"weyl: {res}")
    if cmd == "staircase":
        emax = float(argv[argv.index("--emax") + 1])
        if res["shape"] == "disk":
            ref, expected = refs.get(disk_eigenvalues, 1.0, emax), 1 / 6
        else:
            ref, expected = refs.get(rectangle_eigenvalues, 1.0, 2 ** (1 / 3), emax), 0.25
        ok = (res["eigenvalues"] == len(ref) and _close(res["expected_delta_coef"], expected)
              and abs(res["mean_residual"] - expected) <= 0.03)
        return problem(ok, f"staircase {res['shape']}: {res}")
    if cmd == "monodromy":
        # four perpendicular bounces across the unit square: each linearized
        # map is -[[1, 1], [0, 1]], so the chain is [[1, 4], [0, 1]]
        ok = (_close(res["det"], 1.0) and _close(res["m11"], 1.0) and _close(res["m12"], 4.0)
              and res["m21"] == 0.0 and _close(res["m22"], 1.0))
        return problem(ok, f"monodromy: {res}")
    if cmd == "green":
        y, k = float(argv[argv.index("--y") + 1]), float(argv[argv.index("--k") + 1])
        ref = green_hankel(y, k)
        fourier = complex(res["fourier_re"], res["fourier_im"])
        ok = (_close(res["hankel_re"], ref.real) and _close(res["hankel_im"], ref.imag)
              and abs(fourier - ref) <= max(3 * res["fourier_error_estimate"], 1e-7))
        return problem(ok, f"green: {res}")
    return [f"no check for {cmd}"]


def cli_reports(inp: dict, refs: References, runner=run_cli_process) -> list[Op]:
    ops = []
    for argv in inp["argv"]:
        usage_error = tuple(argv) in CLI_USAGE_ERRORS

        def call(argv=argv, usage_error=usage_error):
            code, stdout, stderr = runner(argv)
            if usage_error:
                # refused at the boundary: exit 2, one usage line, no report
                if not (code == 2 and stdout == "" and stderr.startswith("usage error")
                        and stderr.count("\n") == 1):
                    raise OperationFailed(f"exit {code}: {_last_line(stderr)}")
            elif code != 0:
                raise OperationFailed(f"exit {code}: {_last_line(stderr)}")
            return stdout

        ops.append(Op("billiard-weyl " + " ".join(argv), call,
                      (lambda out: []) if usage_error else
                      (lambda out, argv=argv: check_cli_report(argv, out, refs))))
    return ops


ROUNDS = {
    "fold-sweep": fold_sweep,
    "disk-staircase": disk_staircase,
    "quadrature-oracles": quadrature_oracles,
    "cli-reports": cli_reports,
}
