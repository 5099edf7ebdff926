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

from . import __version__
from . import geometry, weyl
from .errors import BilliardError, DomainError, NonConvergence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_GEOMETRY = 4

# Largest size flags; the fold error estimate meets its rounding floor (about 1e-14) at grid 3.
_MAX_STAIRCASE_MODES = 1_000_000   # Weyl count A*emax/(4 pi); 40x the 25k-mode disk at emax 1e5
_MAX_CORNER_STEPS = 100_000
_MAX_MONODROMY_BOUNCES = 100_000
_MAX_FOLD_GRID = 6


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


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``numpy.linspace(lo, hi, n)`` as floats, with numpy's arithmetic."""
    delta = hi - lo
    if n == 1:
        return [lo + 0.0 * delta]
    step = delta / (n - 1)
    # numpy scales i/(n - 1) by delta instead where the step underflows to zero
    return [lo + (i * step if step else i / (n - 1) * delta) for i in range(n - 1)] + [hi]


def _load_boundary(path: str) -> geometry.Boundary:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:     # "?" stands in for the bad byte
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise geometry.GeometrySyntaxError("not UTF-8 text", len(lines), len(lines[-1])) from None
    return geometry.parse_geometry(text)


# ---------------------------------------------------------------------------
# subcommands: each returns (inputs, results, provenance), and ``run`` builds the report


def _cmd_weyl(args) -> tuple[dict, dict | list, dict]:
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
    return {"geometry": args.geometry, "bc": args.bc}, results, prov


def _cmd_staircase(args) -> tuple[dict, dict | list, dict]:
    e1, e2 = _numbers("--window", args.window, count=2)
    area = args.a * args.b if args.shape == "rectangle" else math.pi * args.radius * args.radius
    modes = area * args.emax / (4.0 * math.pi)
    # an overflow reads inf; a NaN count comes only from inputs the spectrum refuses itself
    if modes > _MAX_STAIRCASE_MODES:
        raise DomainError(f"--emax {args.emax!r} and the {args.shape}'s size give about "
                          f"{modes:.3g} modes; the bound is {_MAX_STAIRCASE_MODES}")
    from . import spectra  # deferred: numpy dominates import time
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
    res = spectra.staircase_residual(sp, e, (e1, e2))
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
        "stderr": "population standard deviation of the residual at each eigenvalue in "
                  "the window, over sqrt(count): the staircase's scatter about the smooth "
                  "part, not a quadrature error",
        "expected_delta_coef": "delta(E) weight of the smooth expansion",
        "route": "exact-spectrum staircase vs smooth counting",
    }
    inputs = {"shape": args.shape, "emax": args.emax, "window": args.window, **shape_inputs}
    return inputs, results, prov


def _cmd_corner(args) -> tuple[dict, dict | list, dict]:
    lo, hi, steps = _numbers("--alpha-grid", args.alpha_grid, ":", count=3)
    if not (1 <= steps <= _MAX_CORNER_STEPS and steps.is_integer()):
        raise DomainError(f"--alpha-grid MIN:MAX:STEPS needs an integer STEPS in "
                          f"[1, {_MAX_CORNER_STEPS}]: {args.alpha_grid!r}")
    if not math.isfinite(hi - lo):
        raise DomainError(f"--alpha-grid {args.alpha_grid!r}: MAX - MIN overflows")
    rows = []
    for alpha in _linspace(lo, hi, int(steps)):
        try:
            c = weyl.corner_coeffs(alpha)
        except DomainError as exc:
            raise DomainError(f"--alpha-grid {args.alpha_grid!r}: {exc}") from None
        if c.orbit is None:
            orbit = edge = total = ratio = ""
        else:
            orbit, edge, total = c.orbit, c.edge_correction, c.total_semiclassical
            ratio = total / c.weyl
        rows.append({
            "alpha": alpha,
            "weyl_coeff": c.weyl,
            "orbit_coeff": orbit,
            "edge_correction": edge,
            "total_semiclassical": total,
            "ratio_total_to_weyl": ratio,
            "note": c.absent_reason or "",
        })
    prov = {
        "weyl_coeff": "(pi/alpha - alpha/pi)/24 [delta(E) weight]",
        "orbit_coeff": "alpha/(8 pi sin^2 alpha), closed-orbit family",
        "edge_correction": "1/(4 pi tan alpha), edge-domain restriction",
        "total_semiclassical": "orbit_coeff + edge_correction",
    }
    inputs = {"alpha_grid": args.alpha_grid}
    return inputs, rows, prov


def _exact(v) -> str:
    """A ledger ``DeltaValue`` as exact a+b/pi+c/pi^2 text with one sign per term,
    e.g. 0-2/pi+1/16/pi^2."""

    def signed(x) -> str:
        return f"+{x}" if x >= 0 else f"{x}"

    return f"{v.const}{signed(v.over_pi)}/pi{signed(v.over_pi2)}/pi^2"


def _cmd_ledger(args) -> tuple[dict, dict | list, dict]:
    from . import ledger  # deferred: only this command reads it
    led = ledger.signature_ledger(weyl.BoundaryCondition(args.bc))
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
    return {"bc": args.bc}, rows, prov


def _cmd_fold(args) -> tuple[dict, dict | list, dict]:
    if not (0.0 < args.alpha < math.pi and math.cos(args.alpha) < 1.0):
        raise DomainError(f"--alpha {args.alpha!r} must lie in (0, pi) with cos(alpha) < 1")
    from . import folding  # deferred: numpy dominates import time
    alpha = args.alpha
    cres = folding.obtuse_corner_constant(alpha, grid=args.grid)
    results = {
        "alpha": alpha,
        "corner_constant": cres.value,
        "dd_constant": cres.dd_constant,
        "full_corner_constant": cres.full_value,
        "error_estimate": cres.error_estimate,
        "main_paths_constant": cres.main_value,
        "weyl_coefficient": cres.weyl_value,
        "grid": cres.grid,
    }
    prov = {
        "corner_constant": "delta(E) weight from two-piece folded paths, (d,d) class "
                           "left out; each class pair's tau -> 0 constant with its "
                           "area/edge parts removed, taken at tau=0 with no extrapolation",
        "dd_constant": "(d,d) class in closed form, (1 + (pi - alpha) cot alpha)/(16 pi^2)",
        "full_corner_constant": "corner_constant + dd_constant: every class pair",
        "error_estimate": "absolute; quadrature convergence only (grid vs grid - 1); "
                          "NonConvergence (exit 3) above 0.01",
        "main_paths_constant": "subtotal of the one-bounce-per-side classes "
                               "(both bounce orders enter through path validity)",
        "weyl_coefficient": "(pi/alpha - alpha/pi)/24 for side-by-side comparison",
        "route": "imaginary-time folded kernels over the wedge",
    }
    inputs = {"alpha": alpha, "grid": args.grid}
    return inputs, results, prov


def _cmd_monodromy(args) -> tuple[dict, dict | list, dict]:
    b = _load_boundary(args.geometry)
    s0, v0 = _numbers("--start", args.start, count=2)
    if not abs(v0) < 1.0:
        raise DomainError(f"--start {args.start!r} needs |V| < 1")
    if not 0.0 < args.k < math.inf:
        raise DomainError(f"--k {args.k!r} must be positive and finite")
    if not 1 <= args.bounces <= _MAX_MONODROMY_BOUNCES:
        raise DomainError(f"--bounces {args.bounces} must lie in [1, {_MAX_MONODROMY_BOUNCES}]")
    from . import birkhoff  # deferred: only this command reads it
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
        "det": "m11*m22 - m12*m21 of the rounded entries: the map's determinant is 1, but "
               "this one is off by up to about 2^-53 |m11*m22|, so once |m11*m22| nears "
               "2^53 it measures rounding, not the map",
        "jacobian_r_p": "transverse position/momentum Jacobian: m12/k",
        "route": "ray trace -> per-bounce linearization -> chain product",
    }
    inputs = {"geometry": args.geometry, "start": args.start,
              "bounces": args.bounces, "k": args.k}
    return inputs, results, prov


def _cmd_green(args) -> tuple[dict, dict | list, dict]:
    y, k = args.y, args.k
    if not (0.0 < y < math.inf and 0.0 < k < math.inf and 0.0 < 2.0 * k * y < math.inf):
        raise DomainError(f"--y {y!r} and --k {k!r} need positive finite y, k and 2*k*y")
    from . import orbit_terms  # deferred: numpy dominates import time
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
        q = orbit_terms.green_fourier(y, k)
        results["fourier_re"] = q.value.real
        results["fourier_im"] = q.value.imag
        results["fourier_error_estimate"] = q.error_estimate
        results["fourier_vs_hankel"] = abs(q.value - g_hankel)
    prov = {
        "hankel": "-(1/4i) H0^(1)(2ky), uniform closed-orbit amplitude",
        "stationary": "-(1/(4i sqrt(pi k y))) exp(2iky), stationary phase",
        "fourier": ("time integral of the reflected kernel on the rotated contour "
                    "(verification): the arc |t| = y, then the imaginary-time axis; "
                    "fourier_error_estimate is the sum of the two quadrature "
                    "estimates and bounds fourier_vs_hankel"),
    }
    inputs = {"y": y, "k": k, "verify": args.verify}
    return inputs, results, prov


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

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["json", "csv"], default="json")

    q = sub.add_parser("weyl", parents=[fmt], help="smooth-expansion coefficients of a geometry")
    q.add_argument("--geometry", required=True)
    q.add_argument("--bc", choices=["dirichlet", "neumann"], default="dirichlet")
    q.set_defaults(func=_cmd_weyl)

    q = sub.add_parser("staircase", parents=[fmt],
                       help="exact-spectrum residual vs smooth counting")
    q.add_argument("--shape", choices=["rectangle", "disk"], required=True)
    q.add_argument("--a", type=float, default=1.0)
    q.add_argument("--b", type=float, default=2.0 ** (1.0 / 3.0))
    q.add_argument("--radius", type=float, default=1.0)
    q.add_argument("--emax", type=float, required=True)
    q.add_argument("--window", required=True, help="E1,E2")
    q.set_defaults(func=_cmd_staircase)

    q = sub.add_parser("corner", parents=[fmt], help="corner coefficient comparison table")
    q.add_argument("--alpha-grid", required=True, help="MIN:MAX:STEPS")
    q.set_defaults(func=_cmd_corner)

    q = sub.add_parser("ledger", parents=[fmt], help="sixteen-signature corner table")
    q.add_argument("--bc", choices=["dirichlet", "neumann"], default="dirichlet")
    q.set_defaults(func=_cmd_ledger)

    q = sub.add_parser("fold", parents=[fmt], help="two-piece folded-path corner analysis")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--grid", type=int, default=1, choices=range(1, _MAX_FOLD_GRID + 1))
    q.set_defaults(func=_cmd_fold)

    q = sub.add_parser("monodromy", parents=[fmt],
                       help="linearized chain product along a traced orbit")
    q.add_argument("--geometry", required=True)
    q.add_argument("--start", required=True, help="S,V boundary coordinate")
    q.add_argument("--bounces", type=int, required=True)
    q.add_argument("--k", type=float, default=1.0)
    q.set_defaults(func=_cmd_monodromy)

    q = sub.add_parser("green", parents=[fmt], help="closed-orbit Green amplitudes at (y, k)")
    q.add_argument("--y", type=float, required=True)
    q.add_argument("--k", type=float, required=True)
    q.add_argument("--verify", action="store_true",
                   help="also run the rotated-contour time-integral quadrature")
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
        inputs, results, provenance = args.func(args)
        report = {"command": args.subcommand, "inputs": inputs, "results": results,
                  "provenance": provenance, "format": args.format, "version": __version__}
        return EXIT_OK, _emit(report, args.format)
    except NonConvergence as exc:
        part = exc.result
        shown = "" if part is None else (f"; partial value {part.value:.6g}, "
                                         f"error estimate {part.error_estimate:.3g}")
        return EXIT_NUMERICAL, f"numerical non-convergence: {exc}{shown}\n"
    except (geometry.GeometryError, OSError) as exc:
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
