"""Command-line reports for the billiard mode-density toolkit.

Every subcommand prints a single deterministic report (JSON object or CSV
table) on stdout; repeated runs with identical arguments are byte
identical.  Exit codes: 0 success, 2 usage or input parse error, 3
numerical non-convergence or a non-finite result, 4 geometry error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from . import birkhoff, folding, geometry, orbit_terms, spectra, weyl
from .errors import BilliardError, DomainError, NonConvergence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_GEOMETRY = 4


def _emit(report: dict, fmt: str) -> str:
    # NaN and infinity are not JSON, and no report may carry them in either format
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise BilliardError("the report holds a non-finite number") from None
    if fmt == "json":
        return text
    rows = report["results"]
    if isinstance(rows, dict):
        rows = [rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([row.get(k, "") for k in header])
    return buf.getvalue()


def _report(command: str, inputs: dict, results, provenance: dict,
            fmt: str) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "provenance": provenance,
        "format": fmt,
        "version": __version__,
    }


def _numbers(flag: str, text: str, sep: str = ",", count: int | None = None) -> list[float]:
    """The finite numbers of a ``sep``-separated flag value.

    Raises :class:`DomainError` naming ``flag`` when a field is not a
    number or not finite, or when there are not exactly ``count`` fields.
    """
    try:
        values = [float(x) for x in text.split(sep)]
    except ValueError:
        raise DomainError(f"{flag} {text!r} is not a {sep!r}-separated list of numbers") from None
    if count is not None and len(values) != count:
        raise DomainError(f"{flag} {text!r} needs exactly {count} {sep!r}-separated numbers")
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"{flag} {text!r} holds a non-finite number")
    return values


def _load_boundary(path: str) -> geometry.Boundary:
    with open(path, "r", encoding="utf-8") as fh:
        return geometry.parse_geometry(fh.read())


# ---------------------------------------------------------------------------
# subcommands


def _cmd_weyl(args) -> tuple[int, str]:
    b = _load_boundary(args.geometry)
    m = geometry.measures(b)
    bc = weyl.BoundaryCondition(args.bc)
    e = weyl.weyl_expansion(m, bc)
    results = {
        "area": m.area,
        "perimeter": m.perimeter,
        "curvature_integral": m.curvature_integral,
        "n_corners": len(m.corners),
        "const_coef": e.const_coef,
        "inv_sqrt_coef": e.inv_sqrt_coef,
        "delta_coef": e.delta_coef,
        "curvature_part": e.curvature_part,
        "corner_part": e.corner_part,
        "flags": ";".join(e.flags),
    }
    prov = {
        "const_coef": "area/(4 pi) [units: states per unit energy]",
        "inv_sqrt_coef": "sign*perimeter/(8 pi) [coefficient of E^-1/2]",
        "delta_coef": "curvature/(12 pi) + sum (pi/alpha - alpha/pi)/24 [delta(E) weight]",
        "route": "geometric-measures -> smooth-expansion",
    }
    return EXIT_OK, _emit(_report("weyl", {"geometry": args.geometry, "bc": args.bc},
                                  results, prov, args.format), args.format)


def _cmd_staircase(args) -> tuple[int, str]:
    e1, e2 = _numbers("--window", args.window, count=2)
    if args.shape == "rectangle":
        a, b_side = args.a, args.b
        sp = spectra.rectangle_spectrum(a, b_side, args.emax)
        m = geometry.measures(geometry.rectangle(a, b_side))
        shape_inputs = {"a": a, "b": b_side}
    else:
        sp = spectra.disk_spectrum(args.radius, args.emax)
        m = geometry.measures(geometry.disk(args.radius))
        shape_inputs = {"radius": args.radius}
    e = weyl.weyl_expansion(m, weyl.DIRICHLET)
    res = spectra.staircase_residual(sp, e, (e1, e2), grid_points=args.grid)
    results = {
        "shape": args.shape,
        "eigenvalues": len(sp),
        "window_lo": e1,
        "window_hi": e2,
        "mean_residual": res["mean"],
        "stderr": res["stderr"],
        "expected_delta_coef": e.delta_coef,
        "deviation": res["mean"] - e.delta_coef,
    }
    prov = {
        "mean_residual": "window average of N(E) - [c0 E + 2 c_half sqrt(E)] "
                         "[dimensionless count]",
        "expected_delta_coef": "delta(E) weight of the smooth expansion",
        "route": "exact-spectrum staircase vs smooth counting",
    }
    inputs = {"shape": args.shape, "emax": args.emax, "window": args.window,
              "grid": args.grid, **shape_inputs}
    return EXIT_OK, _emit(_report("staircase", inputs, results, prov, args.format), args.format)


def _cmd_corner(args) -> tuple[int, str]:
    lo, hi, steps = _numbers("--alpha-grid", args.alpha_grid, ":", count=3)
    if not (steps >= 1 and steps.is_integer()):
        raise DomainError(f"--alpha-grid MIN:MAX:STEPS needs an integer STEPS >= 1: "
                          f"{args.alpha_grid!r}")
    grid = np.linspace(lo, hi, int(steps))
    rows = []
    for alpha in grid:
        c = weyl.corner_coeffs(float(alpha))
        factor = 2.0 if args.count_both_orders else 1.0
        if c.orbit is None:
            orbit = edge = total = ratio = ""
        else:
            orbit = factor * c.orbit
            edge = c.edge_correction
            total = factor * c.orbit + c.edge_correction
            ratio = total / c.weyl
        rows.append({
            "alpha": float(alpha),
            "weyl_coeff": c.weyl,
            "orbit_coeff": orbit,
            "edge_correction": edge,
            "total_semiclassical": total,
            "ratio_total_to_weyl": ratio,
            "note": c.absent_reason or "",
        })
    prov = {
        "weyl_coeff": "(pi/alpha - alpha/pi)/24 [delta(E) weight]",
        "orbit_coeff": "alpha/(8 pi sin^2 alpha), closed-orbit family"
                       + (" x2 (both bounce orders counted)" if args.count_both_orders else ""),
        "edge_correction": "1/(4 pi tan alpha), edge-domain restriction",
        "total_semiclassical": "orbit_coeff + edge_correction",
    }
    inputs = {"alpha_grid": args.alpha_grid, "count_both_orders": args.count_both_orders}
    return EXIT_OK, _emit(_report("corner", inputs, rows, prov, args.format), args.format)


def _exact(v: folding.DeltaValue) -> str:
    """Exact a+b/pi+c/pi^2 text with one sign per term, e.g. 0-2/pi+1/16/pi^2."""

    def signed(x) -> str:
        return f"+{x}" if x >= 0 else f"{x}"

    return f"{v.const}{signed(v.over_pi)}/pi{signed(v.over_pi2)}/pi^2"


def _cmd_ledger(args) -> tuple[int, str]:
    led = folding.signature_ledger(weyl.BoundaryCondition(args.bc))
    rows = [{
        "signature": str(e.signature),
        "bounces": e.signature.bounce_count,
        "area_units": str(e.area_units),
        "length_units": _exact(e.length_units),
        "delta_exact": _exact(e.delta_units),
        "delta_value": e.delta_units.value(),
    } for e in led.entries]
    rows.append({
        "signature": "TOTAL",
        "bounces": "",
        "area_units": str(led.total_area),
        "length_units": _exact(led.total_length),
        "delta_exact": _exact(led.total_delta),
        "delta_value": led.total_delta.value(),
    })
    prov = {
        "area_units": "multiples of the area density A/(4 pi)",
        "length_units": "multiples of 1/(8 pi sqrt(E)) per unit length of a side, "
                        "summed over both sides; exact a+b/pi+c/pi^2",
        "delta_exact": "coefficient of delta(E); exact a+b/pi+c/pi^2",
        "delta_value": "coefficient of delta(E)",
        "flags": ";".join(led.flags),
        "route": "exact folded-Gaussian content per image-path signature",
    }
    return EXIT_OK, _emit(_report("ledger", {"bc": args.bc}, rows, prov, args.format), args.format)


def _cmd_fold(args) -> tuple[int, str]:
    alpha = args.alpha
    tau_list = tuple(_numbers("--tau-list", args.tau_list)) if args.tau_list else None
    results: dict = {"alpha": alpha}
    if alpha <= math.pi / 2.0 + 1e-12:
        r, theta1, tau = args.r, min(0.5 * alpha, alpha - 1e-6), args.tau
        try:
            half = 0.5 * folding.corner_orbit_kernel_imag(r, alpha, 2.0 * tau)
        except OverflowError:
            half = math.inf
        if not 0.0 < half < math.inf:
            raise DomainError(f"--r {r!r} and --tau {tau!r} put the half closed-orbit "
                              "kernel outside the floating-point range")
        broken = folding.broken_path_propagator(r, theta1, alpha, tau)
        results.update({
            "broken_path_kernel": broken.real,
            "half_closed_orbit_kernel": half,
            "half_identity_rel_residual": abs(broken.real - half) / half,
        })
    cres = folding.obtuse_corner_constant(alpha, grid=args.grid, tau_ladder=tau_list)
    results.update({
        "corner_constant": cres.value,
        "error_estimate": cres.error_estimate,
        "main_paths_constant": cres.main_value,
        "weyl_coefficient": cres.weyl_value,
        "grid": cres.grid,
        "tau_ladder": ",".join(repr(t) for t in cres.tau_ladder),
    })
    prov = {
        "corner_constant": "delta(E) weight from two-piece folded paths, "
                           "area/edge parts removed, extrapolated to tau=0",
        "main_paths_constant": "subtotal of the one-bounce-per-side classes "
                               "(both bounce orders enter through path validity)",
        "weyl_coefficient": "(pi/alpha - alpha/pi)/24 for side-by-side comparison",
        "route": "imaginary-time folded kernels over the wedge",
    }
    inputs = {"alpha": alpha, "tau_list": args.tau_list, "grid": args.grid,
              "r": args.r, "tau": args.tau}
    return EXIT_OK, _emit(_report("fold", inputs, results, prov, args.format), args.format)


def _cmd_monodromy(args) -> tuple[int, str]:
    b = _load_boundary(args.geometry)
    s0, v0 = _numbers("--start", args.start, count=2)
    pts = birkhoff.trace_orbit(b, birkhoff.BirkhoffCoord(s0, v0), args.bounces)
    m = birkhoff.chain_product(b, pts)
    results = {
        "m11": m.m11, "m12": m.m12, "m21": m.m21, "m22": m.m22,
        "det": m.det(),
        "trace": m.m11 + m.m22,
        "jacobian_r_p": birkhoff.jacobian_r_p(m, args.k),
        "bounce_s": ";".join(repr(p.s) for p in pts),
        "bounce_v": ";".join(repr(p.v) for p in pts),
    }
    prov = {
        "matrix": "chain product of linearized bounce maps along the traced orbit",
        "jacobian_r_p": "transverse position/momentum Jacobian: m12/k",
        "route": "ray trace -> per-bounce linearization -> chain product",
    }
    inputs = {"geometry": args.geometry, "start": args.start,
              "bounces": args.bounces, "k": args.k}
    return EXIT_OK, _emit(_report("monodromy", inputs, results, prov, args.format), args.format)


def _cmd_green(args) -> tuple[int, str]:
    y, k = args.y, args.k
    g_hankel = orbit_terms.single_reflection_green(y, k)
    g_stat = orbit_terms.green_stationary(y, k)
    results = {
        "y": y, "k": k, "ky": k * y,
        "hankel_re": g_hankel.real, "hankel_im": g_hankel.imag,
        "stationary_re": g_stat.real, "stationary_im": g_stat.imag,
        "abs_hankel": abs(g_hankel), "abs_stationary": abs(g_stat),
        "magnitude_ratio": abs(g_stat) / abs(g_hankel),
    }
    if args.verify:
        q = orbit_terms.green_fourier(y, k, tol=args.tol)
        results["fourier_re"] = q.value.real
        results["fourier_im"] = q.value.imag
        results["fourier_error_estimate"] = q.error_estimate
        results["fourier_vs_hankel"] = abs(q.value - g_hankel)
    prov = {
        "hankel": "-(1/4i) H0^(1)(2ky), uniform closed-orbit amplitude",
        "stationary": "-(1/(4i sqrt(pi k y))) exp(2iky), stationary phase",
        "fourier": "damped time integral of the reflected kernel (verification)",
    }
    inputs = {"y": y, "k": k, "verify": args.verify, "tol": args.tol}
    return EXIT_OK, _emit(_report("green", inputs, results, prov, args.format), args.format)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    p = _Parser(prog="billiard-weyl",
                description="Mode-density asymptotics for planar billiards.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    fmt = {"choices": ["json", "csv"], "default": "json"}

    q = sub.add_parser("weyl", help="smooth-expansion coefficients of a geometry")
    q.add_argument("--geometry", required=True)
    q.add_argument("--bc", choices=["dirichlet", "neumann"], default="dirichlet")
    q.add_argument("--format", **fmt)
    q.set_defaults(func=_cmd_weyl)

    q = sub.add_parser("staircase", help="exact-spectrum residual vs smooth counting")
    q.add_argument("--shape", choices=["rectangle", "disk"], required=True)
    q.add_argument("--a", type=float, default=1.0)
    q.add_argument("--b", type=float, default=2.0 ** (1.0 / 3.0))
    q.add_argument("--radius", type=float, default=1.0)
    q.add_argument("--emax", type=float, required=True)
    q.add_argument("--window", required=True, help="E1,E2")
    q.add_argument("--grid", type=int, default=20001)
    q.add_argument("--format", **fmt)
    q.set_defaults(func=_cmd_staircase)

    q = sub.add_parser("corner", help="corner coefficient comparison table")
    q.add_argument("--alpha-grid", required=True, help="MIN:MAX:STEPS")
    q.add_argument("--count-both-orders", action="store_true",
                   help="double the closed-orbit coefficient to count both bounce orders")
    q.add_argument("--format", **fmt)
    q.set_defaults(func=_cmd_corner)

    q = sub.add_parser("ledger", help="sixteen-signature corner table")
    q.add_argument("--bc", choices=["dirichlet", "neumann"], default="dirichlet")
    q.add_argument("--format", **fmt)
    q.set_defaults(func=_cmd_ledger)

    q = sub.add_parser("fold", help="two-piece folded-path corner analysis")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--tau-list", default=None, help="comma-separated ladder")
    q.add_argument("--grid", type=int, default=1)
    q.add_argument("--r", type=float, default=0.5)
    q.add_argument("--tau", type=float, default=0.05)
    q.add_argument("--format", **fmt)
    q.set_defaults(func=_cmd_fold)

    q = sub.add_parser("monodromy", help="linearized chain product along a traced orbit")
    q.add_argument("--geometry", required=True)
    q.add_argument("--start", required=True, help="S,V boundary coordinate")
    q.add_argument("--bounces", type=int, required=True)
    q.add_argument("--k", type=float, default=1.0)
    q.add_argument("--format", **fmt)
    q.set_defaults(func=_cmd_monodromy)

    q = sub.add_parser("green", help="closed-orbit Green amplitudes at (y, k)")
    q.add_argument("--y", type=float, required=True)
    q.add_argument("--k", type=float, required=True)
    q.add_argument("--verify", action="store_true",
                   help="also run the damped time-integral quadrature")
    q.add_argument("--tol", type=float, default=1e-9)
    q.add_argument("--format", **fmt)
    q.set_defaults(func=_cmd_green)
    return p


def run(argv: list[str]) -> tuple[int, str]:
    """Run one subcommand; returns (exit code, report text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return EXIT_USAGE, f"usage error: {exc}\n"
    try:
        return args.func(args)
    except NonConvergence as exc:
        return EXIT_NUMERICAL, f"numerical non-convergence: {exc}\n"
    except (geometry.GeometryError, FileNotFoundError) as exc:
        return EXIT_GEOMETRY, f"geometry error: {exc}\n"
    except DomainError as exc:
        return EXIT_USAGE, f"usage error: {exc}\n"
    except BilliardError as exc:
        return EXIT_NUMERICAL, f"error: {exc}\n"


def main() -> None:
    code, text = run(sys.argv[1:])
    stream = sys.stdout if code == EXIT_OK else sys.stderr
    stream.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
