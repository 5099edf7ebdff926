"""Each benchmark check accepts a right output and rejects a perturbed one.

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import json
import math
import os
import sys

import pytest

sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")]

import workloads as wl  # noqa: E402
from inputs import CLI_COMMANDS, CLI_USAGE_ERRORS  # noqa: E402
from billiard_weyl import birkhoff, cli, folding, geometry, spectra  # noqa: E402
from billiard_weyl.specfun import QuadratureResult  # noqa: E402

PI = math.pi


def _op(ops, prefix):
    return next(op for op in ops if op.label.startswith(prefix))


@pytest.fixture
def refs():
    return wl.References()


def test_fold_corner_check(refs):
    alpha = PI / 2
    op = _op(wl.fold_sweep({"angles": (alpha,), "half_identity": []}, refs), "obtuse")
    target = 1 / 16 - 1 / (16 * PI**2)
    good = folding.ObtuseCornerResult(
        alpha=alpha, value=target, error_estimate=1e-5, weyl_value=(PI / alpha - alpha / PI) / 24,
        main_value=0.0, per_class={}, tau_ladder=(), grid=1)
    assert op.check(good) == []
    for bad in (dataclasses.replace(good, value=1.02 * target),
                dataclasses.replace(good, error_estimate=0.02 * target),
                dataclasses.replace(good, weyl_value=good.weyl_value * (1 + 1e-9))):
        assert op.check(bad)


def test_fold_half_identity_check(refs):
    r, th1, tau = 0.6, 0.4, 0.05
    op = _op(wl.fold_sweep({"angles": (), "half_identity": [(r, th1, tau)]}, refs), "broken")
    out = op.call()
    assert op.check(out) == []
    assert op.check(complex(out.real * 1.02))


def test_spectrum_checks(refs):
    ev = spectra.disk_spectrum(1.0, 2000.0).eigenvalues
    ref = wl.disk_eigenvalues(1.0, 2000.0)
    assert wl.compare_spectrum(ev, ref, "disk") == []
    assert wl.compare_spectrum(ev * (1 + 1e-11), ref, "disk")
    assert wl.compare_spectrum(ev[:-1], ref, "disk")
    rect = spectra.rectangle_spectrum(1.0, 1.3, 2000.0).eigenvalues
    assert wl.compare_spectrum(rect, wl.rectangle_eigenvalues(1.0, 1.3, 2000.0), "rect") == []
    assert wl.compare_spectrum(rect[1:], wl.rectangle_eigenvalues(1.0, 1.3, 2000.0), "rect")


def test_staircase_check(refs):
    inp = {"disk": {"radius": 1.0, "emax": 1e5, "windows": [(2e4, 1e5)]}, "rectangles": []}
    op = _op(wl.disk_staircase(inp, refs), "staircase")
    assert op.check({"mean": 1 / 6 + 0.02}) == []
    assert op.check({"mean": 1 / 6 + 0.04})


def test_quadrature_checks(refs):
    inp = {"green": [(1.0, 2.0)], "length": [(2.0, 50.0)], "corner": [0.7],
           "oracle_tau": 0.25, "orbits": {}}
    ops = wl.quadrature_oracles(inp, refs)
    g = wl.green_hankel(1.0, 2.0)
    green = _op(ops, "green")
    assert green.check(QuadratureResult(g + 1e-8, 1e-9, 1)) == []
    assert green.check(QuadratureResult(g + 1e-5, 1e-9, 1))
    length = _op(ops, "length")
    ref = -2.0 / (8 * PI * math.sqrt(50.0))
    assert length.check(QuadratureResult(ref * 1.004, 0.0, 1)) == []
    assert length.check(QuadratureResult(ref * 1.006, 0.0, 1))
    corner = _op(ops, "corner")
    ref = 0.7 / (8 * PI * math.sin(0.7) ** 2)
    assert corner.check(QuadratureResult(ref, 0.0, 1)) == []
    assert corner.check(QuadratureResult(ref * (1 + 2e-6), 0.0, 1))
    oracle = _op(ops, "signature_oracle")
    rows = [{"area_units": 0.0, "length_units": 0.0, "delta_units": 0.0} for _ in range(16)]
    rows[0] = {"area_units": 1.0, "length_units": -2.0, "delta_units": 1 / 16}
    assert oracle.check(rows) == []
    rows[5] = {"area_units": 0.0, "length_units": 0.0, "delta_units": 1e-5}
    assert oracle.check(rows)


def test_orbit_checks(refs, monkeypatch):
    circle = geometry.disk(1.0)
    inp = {"green": [], "length": [], "corner": [], "oracle_tau": 0.25,
           "orbits": {"circle": {"boundary": circle, "bounces": 12, "starts": [(0.3, 0.4)]}}}
    op = _op(wl.quadrature_oracles(inp, refs), "trace_orbit")
    pts, chain = op.call()
    assert op.check((pts, chain)) == []
    moved = pts[:5] + [birkhoff.BirkhoffCoord(pts[5].s, pts[5].v + 1e-6)] + pts[6:]
    assert op.check((moved, chain))
    scaled = birkhoff.Mat2(chain.m11 * 1.001, chain.m12, chain.m21, chain.m22)
    assert op.check((pts, scaled))
    original = birkhoff.linearized_bounce_map
    monkeypatch.setattr(birkhoff, "linearized_bounce_map",
                        lambda *a: birkhoff.Mat2.diag(1.001, 1.0) @ original(*a))
    assert op.check((pts, chain))


COMMANDS = {argv[0] + (argv[2] if argv[0] == "staircase" else ""): list(argv)
            for argv in CLI_COMMANDS}


def _perturb_json(text, key, factor):
    report = json.loads(text)
    report["results"][key] = report["results"][key] * factor
    return json.dumps(report)


@pytest.mark.parametrize("name,key", [
    ("weyl", "delta_coef"), ("staircaserectangle", "mean_residual"),
    ("staircasedisk", "eigenvalues"), ("monodromy", "m12"), ("green", "fourier_re")])
def test_cli_json_checks(refs, name, key):
    argv = COMMANDS[name]
    code, text = cli.run(argv)
    assert code == 0
    assert wl.check_cli_report(argv, text, refs) == []
    factor = 1.2 if key != "eigenvalues" else 2
    assert wl.check_cli_report(argv, _perturb_json(text, key, factor), refs)


@pytest.mark.parametrize("name,old,new", [
    ("corner", "0.1,", "0.1000001,"), ("ledger", "0.0625", "0.0626")])
def test_cli_csv_checks(refs, name, old, new):
    argv = COMMANDS[name]
    code, text = cli.run(argv)
    assert code == 0
    assert wl.check_cli_report(argv, text, refs) == []
    assert old in text
    assert wl.check_cli_report(argv, text.replace(old, new, 1), refs)


def test_cli_usage_error_outcome(refs):
    argv = list(CLI_USAGE_ERRORS[0])
    outcomes = {(2, "", "usage error: bad grid\n"): True,
                (1, "", "Traceback ...\nIndexError: list index out of range\n"): False,
                (0, "report\n", ""): False,
                (2, "", "usage error: a\nusage error: b\n"): False}
    for outcome, ok in outcomes.items():
        op = wl.cli_reports({"argv": [argv]}, refs, runner=lambda _argv, o=outcome: o)[0]
        if ok:
            assert op.call() == ""
        else:
            with pytest.raises(wl.OperationFailed):
                op.call()


def test_cli_command_exit_code(refs):
    argv = COMMANDS["weyl"]
    op = wl.cli_reports({"argv": [argv]}, refs, runner=lambda _argv: (4, "", "geometry error\n"))[0]
    with pytest.raises(wl.OperationFailed):
        op.call()
