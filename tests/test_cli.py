import csv
import importlib
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import billiard_weyl
from billiard_weyl import birkhoff, cli, folding, orbit_terms
from billiard_weyl.errors import NonConvergence

SQUARE_DOC = """billiard v1
line 0 0 1 0
line 1 0 1 1
line 1 1 0 1
line 0 1 0 0
"""

CIRCLE_DOC = """billiard v1
arc 0 0 1 0 6.283185307179586 ccw
"""


@pytest.fixture()
def square_file(tmp_path):
    p = tmp_path / "square.bil"
    p.write_text(SQUARE_DOC, encoding="utf-8")
    return str(p)


@pytest.fixture()
def circle_file(tmp_path):
    p = tmp_path / "circle.bil"
    p.write_text(CIRCLE_DOC, encoding="utf-8")
    return str(p)


def test_weyl_square_json(square_file):
    code, out = cli.run(["weyl", "--geometry", square_file,
                         "--bc", "dirichlet", "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    res = rep["results"]
    assert res["const_coef"] == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)
    assert res["inv_sqrt_coef"] == pytest.approx(-1.0 / (2 * math.pi), rel=1e-14)
    assert res["delta_coef"] == pytest.approx(0.25, abs=1e-14)
    assert rep["command"] == "weyl"
    assert "provenance" in rep


def test_weyl_disk_csv(circle_file):
    code, out = cli.run(["weyl", "--geometry", circle_file, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    values = lines[1].split(",")
    table = dict(zip(header, values))
    assert float(table["delta_coef"]) == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_output_is_byte_identical_across_runs(square_file):
    args = ["weyl", "--geometry", square_file, "--format", "json"]
    assert cli.run(args) == cli.run(args)
    args = ["corner", "--alpha-grid", "0.3:1.5:7", "--format", "csv"]
    assert cli.run(args) == cli.run(args)
    for fmt in ("json", "csv"):
        args = ["ledger", "--format", fmt]
        assert cli.run(args) == cli.run(args)


def test_corner_table_csv():
    code, out = cli.run(["corner", "--alpha-grid", "0.1:1.5:15", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16  # header + 15 rows
    assert lines[0].startswith("alpha,")
    first = lines[1].split(",")
    alpha = float(first[0])
    assert alpha == pytest.approx(0.1)


def test_ledger_totals_json():
    code, out = cli.run(["ledger", "--bc", "dirichlet", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 17  # 16 entries + totals
    total = rows[-1]
    assert total["signature"] == "TOTAL"
    assert total["area_units"] == "1"
    assert total["length_units"] == "-2+0/pi+0/pi^2"
    assert total["delta_exact"] == "1/16+0/pi+0/pi^2"
    assert float(total["delta_value"]) == pytest.approx(1.0 / 16, rel=1e-14)


def test_ledger_exact_columns_are_well_formed():
    # one sign per term in every exact column, the TOTAL row included
    rows = json.loads(cli.run(["ledger", "--format", "json"])[1])["results"]
    for row in rows:
        for key in ("length_units", "delta_exact"):
            assert "+-" not in row[key] and row[key].endswith("/pi^2"), row


def test_ledger_neumann_flagged():
    code, out = cli.run(["ledger", "--bc", "neumann", "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert "DERIVED-ONLY" in rep["provenance"]["flags"]


def test_staircase_rectangle():
    code, out = cli.run(["staircase", "--shape", "rectangle", "--emax", "2000",
                         "--window", "400,2000", "--format", "json"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["mean_residual"] == pytest.approx(0.25, abs=0.05)


def test_green_verify():
    code, out = cli.run(["green", "--y", "1.0", "--k", "1.0", "--verify",
                         "--format", "json"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["fourier_vs_hankel"] < 1e-6
    assert res["fourier_vs_hankel"] <= res["fourier_error_estimate"]
    assert res["magnitude_ratio"] == pytest.approx(1.0, abs=0.05)
    fourier = json.loads(out)["provenance"]["fourier"]
    assert "on the rotated contour" in fourier
    assert "sum of the two quadrature estimates and bounds fourier_vs_hankel" in fourier


def test_green_verify_at_a_subnormal_2ky():
    # 2ky = 2e-310: H0 is finite (Y0 near -454), and so is its rotated-contour quadrature
    code, out = cli.run(["green", "--y", "1e-300", "--k", "1e-10", "--verify"])
    assert code == 0, out
    res = json.loads(out)["results"]
    assert res["hankel_re"] == pytest.approx(-0.25 * -454.05, rel=1e-4)
    assert res["fourier_vs_hankel"] <= res["fourier_error_estimate"]


def test_green_up_to_the_float_maximum():
    # 2ky = 1e308 and 1.7e308: pi k y overflows, yet H0 and the stationary estimate
    # stay finite and agree in magnitude
    for y in ("1e308", "1.7e308"):
        code, out = cli.run(["green", "--y", y, "--k", "0.5"])
        assert code == 0, out
        assert json.loads(out)["results"]["magnitude_ratio"] == pytest.approx(1.0, abs=1e-12)


def test_monodromy_square(square_file):
    code, out = cli.run(["monodromy", "--geometry", square_file,
                         "--start", "0.5,0.0", "--bounces", "2",
                         "--k", "1.0", "--format", "json"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["det"] == pytest.approx(1.0, abs=1e-12)
    # two perpendicular bounces across the unit square: chord maps compose to
    # [[1, 2], [0, 1]]
    assert res["m12"] == pytest.approx(2.0, rel=1e-12)
    assert res["jacobian_r_p"] == pytest.approx(2.0, rel=1e-12)


# a 2 x 1 rectangle with a half disk bitten out of its top edge (a dispersing arc)
CONCAVE_BITE = """billiard v1
line 0 0 2 0
line 2 0 2 1
line 2 1 1.5 1
arc 1 1 0.5 0 3.141592653589793 cw
line 0.5 1 0 1
line 0 1 0 0
"""


def test_monodromy_det_says_it_measures_rounding_past_large_entries(tmp_path):
    # a dispersing orbit: entries near 5e36, so m11*m22 - m12*m21 of the rounded entries
    # is rounding of order 2^-53 |m11*m22|, far from the map's determinant 1
    path = tmp_path / "bite.bil"
    path.write_text(CONCAVE_BITE, encoding="utf-8")
    code, out = cli.run(["monodromy", "--geometry", str(path), "--start", "0.7,0.3",
                         "--bounces", "200"])
    assert code == 0
    report = json.loads(out)
    res = report["results"]
    assert abs(res["m11"] * res["m22"]) > 2.0**53
    assert 1e50 < abs(res["det"]) <= 4.0 * 2.0**-53 * abs(res["m11"] * res["m22"])
    assert "rounding" in report["provenance"]["det"]


def test_fold_right_angle():
    code, out = cli.run(["fold", "--alpha", str(math.pi / 2), "--grid", "1",
                         "--format", "json"])
    assert code == 0
    report = json.loads(out)
    res = report["results"]
    # the report is the corner constant from --alpha and --grid alone
    assert set(report["inputs"]) == {"alpha", "grid"}
    assert not [key for key in res if key.startswith(("half_", "broken_"))]
    target = 1.0 / 16 - 1.0 / (16 * math.pi**2)
    assert res["corner_constant"] == pytest.approx(target, rel=0.01)
    # the report says what its error estimate measures and what the constant leaves out
    prov = report["provenance"]
    assert "absolute" in prov["error_estimate"] and "0.01" in prov["error_estimate"]
    assert "(d,d)" in prov["corner_constant"]
    # the (d,d) class in closed form, and the total over every class pair
    assert res["dd_constant"] == pytest.approx(1.0 / (16 * math.pi**2), rel=1e-12)
    assert res["full_corner_constant"] == res["corner_constant"] + res["dd_constant"]
    assert "cot" in prov["dd_constant"] and "every class pair" in prov["full_corner_constant"]


def test_exit_code_usage_error(monkeypatch, capsys, square_file):
    staircase = ["staircase", "--shape", "rectangle", "--emax", "5000"]
    for argv in (
        ["nonsense"],
        [],
        ["corner", "--alpha-grid", "1:2:0", "--format", "csv"],
        ["corner", "--alpha-grid", "x:2:3"],
        ["corner", "--alpha-grid", "1:inf:3"],
        [*staircase, "--window", "400"],
        [*staircase, "--window", "a,b"],
        ["monodromy", "--geometry", square_file, "--start", "0.5", "--bounces", "4"],
        ["staircase", "--shape", "rectangle", "--emax", "nan", "--window", "500,5000"],
        ["staircase", "--shape", "rectangle", "--a", "inf", "--emax", "5000",
         "--window", "500,5000"],
        ["staircase", "--shape", "disk", "--emax", "inf", "--window", "500,5000"],
        ["staircase", "--shape", "disk", "--emax", "5000", "--radius", "inf",
         "--window", "500,5000"],
        ["staircase", "--shape", "disk", "--emax", "nan", "--window", "500,5000"],
        ["corner", "--alpha-grid", "0.1:1.5:1e13"],
        ["fold", "--alpha", "2.0", "--grid", "10000000000000"],
        ["staircase", "--shape", "disk", "--emax", "-1", "--window", "500,5000"],
        ["staircase", "--shape", "rectangle", "--emax", "-1", "--window", "500,5000"],
        ["staircase", "--shape", "rectangle", "--a", "1e-300", "--emax", "5000",
         "--window", "500,5000"],
        ["staircase", "--shape", "rectangle", "--emax", "10", "--window", "1,10"],
        [*staircase, "--window", "4990,5000"],
        ["staircase", "--shape", "disk", "--emax", "5000", "--radius", "1e300",
         "--window", "500,5000"],
        ["staircase", "--shape", "rectangle", "--emax", "1e8", "--window", "500,5000"],
        ["green", "--y", "inf", "--k", "1"],
        ["green", "--y", "1e200", "--k", "1e200"],
        ["monodromy", "--geometry", square_file, "--start", "0.5,0.1", "--bounces", "100001"],
        # a disk below its first zero, refused with no numpy warning
        ["staircase", "--shape", "disk", "--radius", "1e-320", "--emax", "100",
         "--window", "1,100"],
    ):
        _usage_error(monkeypatch, capsys, argv)
    # a refused boundary value is reported under the flag that carried it
    for argv, flag in (
        (["corner", "--alpha-grid=-1e308:1e308:3"], "--alpha-grid"),
        (["corner", "--alpha-grid=-1e308:1e308:1"], "--alpha-grid"),
        (["corner", "--alpha-grid", "0:1:3"], "--alpha-grid"),
        (["corner", "--alpha-grid", "1e-300:1e-300:1"], "--alpha-grid"),
        # fold reads --alpha and --grid only, corner --alpha-grid only, and green has no --tol
        (["corner", "--alpha-grid", "0.5:0.5:1", "--count-both-orders"],
         "--count-both-orders"),
        (["fold", "--alpha", "2.0", "--tau-list", "0.02,0.01"], "--tau-list"),
        (["fold", "--alpha", "1.0", "--r", "0.5"], "--r"),
        (["fold", "--alpha", "1.0", "--tau", "0.05"], "--tau"),
        (["green", "--y", "1", "--k", "1", "--verify", "--tol", "1e-9"], "--tol"),
        (["monodromy", "--geometry", square_file, "--start", "0.5,0.1", "--bounces", "0"],
         "--bounces"),
        ([*staircase, "--window", "500,5000", "--grid", "20001"], "--grid"),
        (["monodromy", "--geometry", square_file, "--start", "0.5,1", "--bounces", "4"],
         "--start"),
        (["monodromy", "--geometry", square_file, "--start", "0.5,-1.5", "--bounces", "4"],
         "--start"),
        (["green", "--y", "-1", "--k", "1"], "--y"),
        (["green", "--y", "1", "--k", "0"], "--k"),
        (["green", "--y", "1e-200", "--k", "1e-200"], "--y"),
        (["green", "--y", "1e-200", "--k", "1e-200"], "--k"),
        (["fold", "--alpha", "0"], "--alpha"),
        (["fold", "--alpha", "3.2"], "--alpha"),
        (["fold", "--alpha", "nan"], "--alpha"),
        (["fold", "--alpha", "1e-300"], "--alpha"),
    ):
        assert flag in _usage_error(monkeypatch, capsys, argv), argv
    # --k is checked before the orbit is traced
    monkeypatch.setattr(birkhoff, "trace_orbit",
                        lambda *args: pytest.fail("the orbit was traced before --k was checked"))
    for k in ("0", "-1", "inf", "nan"):
        argv = ["monodromy", "--geometry", square_file, "--start", "0.5,0.1",
                "--bounces", "100000", "--k", k]
        assert "--k" in _usage_error(monkeypatch, capsys, argv), argv

def _usage_error(monkeypatch, capsys, argv: list[str]) -> str:
    """The one stderr line of ``argv``, which must exit 2 with nothing on stdout."""
    monkeypatch.setattr("sys.argv", ["billiard-weyl", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    out, err = capsys.readouterr()
    assert exc.value.code == 2, argv
    assert out == "", argv
    assert err.startswith("usage error") and err.count("\n") == 1, argv
    return err


def _readme_commands() -> list[list[str]]:
    """The argv of each command in README's "Command line" block, on the repo's square."""
    root = Path(__file__).parents[1]
    block = (root / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```", 2)[1]
    square = str(root / "geometries" / "square.bil")
    return [[square if arg == "square.bil" else arg for arg in shlex.split(line)[1:]]
            for line in block.splitlines() if line.startswith("billiard-weyl ")]


def test_readme_commands_load_no_scipy():
    # scipy.special alone costs about 0.3 s of a process's import time: every README
    # command, each subcommand at least once, succeeds without loading any of scipy
    argvs = _readme_commands()
    assert {argv[0] for argv in argvs} >= {"weyl", "staircase", "corner", "ledger", "fold",
                                         "monodromy", "green"}
    code = ("import sys, billiard_weyl.cli\n"
            f"print([billiard_weyl.cli.run(argv)[0] for argv in {argvs!r}])\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(billiard_weyl.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split("\n") == [str([0] * len(argvs)), "[]", ""]


def test_exact_commands_never_load_numpy(square_file):
    # weyl, corner, ledger and monodromy are exact formulas, Fractions and 2x2
    # products: neither they nor a refused argv pay numpy's import; staircase does
    argvs = [["weyl", "--geometry", square_file],
             ["corner", "--alpha-grid", "0.1:1.5:15", "--format", "csv"],
             ["ledger", "--format", "csv"],
             ["monodromy", "--geometry", square_file, "--start", "0.5,0.0", "--bounces", "4"],
             ["corner", "--alpha-grid", "1:2:0", "--format", "csv"],
             ["staircase", "--shape", "rectangle", "--emax", "5000", "--window", "500,5000"]]
    code = ("import sys, billiard_weyl, billiard_weyl.cli\n"
            "print('numpy' in sys.modules)\n"
            f"for argv in {argvs!r}:\n"
            "    print(billiard_weyl.cli.run(argv)[0], 'numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(billiard_weyl.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split("\n") == ["False", "0 False", "0 False", "0 False", "0 False",
                                "2 False", "0 True", ""]


def test_fold_never_loads_scipy_special():
    # fold evaluates no Bessel or error function at any angle, and a flag it does not
    # take is refused by argparse, before numpy is imported
    argvs = [["fold", "--alpha", "2.0", "--tau-list", "0"],
             ["fold", "--alpha", "1.0", "--grid", "1"]]
    code = ("import sys, billiard_weyl, billiard_weyl.cli\n"
            "loaded = lambda: [m in sys.modules for m in ('numpy', 'scipy.special')]\n"
            f"for argv in {argvs!r}:\n"
            "    print(billiard_weyl.cli.run(argv)[0], loaded())\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(billiard_weyl.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split("\n") == ["2 [False, False]", "0 [True, False]", ""]


def test_library_runs_without_scipy():
    # scipy is a test oracle only: no module under src/ imports it, and importing every
    # module and calling each computing layer once on a small input loads none of it
    src = Path(billiard_weyl.__file__).parent
    assert not [p.name for p in src.glob("*.py") if re.search(r"^\s*(from|import) scipy\b",
                                                           p.read_text(encoding="utf-8"), re.M)]
    modules = sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
    code = (f"import importlib, sys\n"
            f"for m in {modules!r}:\n"
            f"    importlib.import_module('billiard_weyl.' + m)\n"
            "from billiard_weyl import birkhoff as b, folding as f, geometry as g, "
            "orbit_terms as o, spectra as s, weyl as w\n"
            "f.obtuse_corner_constant(2.0, 1)\n"
            "f.broken_path_propagator(1.0, 0.3, 1.0, 0.05)\n"
            "f.signature_oracle(f.ALL_SIGNATURES[0])\n"
            "o.green_fourier(1.0, 1.0)\n"
            "o.length_term_density_quadrature(1.0, 100.0)\n"
            "o.corner_delta_by_quadrature(1.0)\n"
            "s.disk_spectrum(1.0, 500.0)\n"
            "sq = g.square()\n"
            "s.staircase_residual(s.rectangle_spectrum(1.0, 1.0, 3000.0),\n"
            "                     w.weyl_expansion(g.measures(sq)), (500.0, 3000.0))\n"
            "b.chain_product(sq, b.trace_orbit(sq, b.BirkhoffCoord(0.3, 0.2), 4))\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    env = {**os.environ, "PYTHONPATH": str(src.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


_HOME_MODULES = ("geometry", "weyl", "birkhoff", "orbit_terms", "ledger", "folding", "spectra",
                 "specfun")


def test_every_public_name_has_one_home():
    homes: dict = {}
    for module_name in _HOME_MODULES:
        module = importlib.import_module(f"billiard_weyl.{module_name}")
        for name in module.__all__:
            assert hasattr(module, name), (module_name, name)
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, (module_name, name)
            homes.setdefault(name, []).append(module_name)
    assert {name: m for name, m in homes.items() if len(m) > 1} == {}


def test_package_import_holds_only_the_version():
    code = ("import sys, billiard_weyl\n"
            "print([n for n in dir(billiard_weyl) if not n.startswith('_')], "
            "billiard_weyl.__version__, sorted(m for m in sys.modules if '.' in m "
            "and m.startswith('billiard_weyl')))\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(billiard_weyl.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == f"[] {billiard_weyl.__version__} []\n"


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(lo=st.floats(allow_nan=False, allow_infinity=False),
       hi=st.floats(allow_nan=False, allow_infinity=False),
       steps=st.integers(1, 300))
@example(lo=0.1, hi=1.5, steps=15)
@example(lo=0.3, hi=0.3, steps=1)
@example(lo=0.3, hi=0.3, steps=7)
@example(lo=3.0, hi=0.1, steps=9)
@example(lo=0.0, hi=5e-324, steps=4)            # the step underflows to zero
@example(lo=-1e308, hi=1e308, steps=3)          # hi - lo overflows
@example(lo=-1e308, hi=1e308, steps=1)
def test_corner_grid_is_numpy_linspace(lo, hi, steps):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.linspace(lo, hi, steps).tolist()
    grid = cli._linspace(lo, hi, steps)
    # repr compares the report's text: signed zeros differ and NaN (from an overflowing
    # hi - lo) equals itself
    assert [repr(a) for a in grid] == [repr(a) for a in expected]
    assert grid == expected or any(math.isnan(a) for a in expected)


def test_exit_code_geometry_error(tmp_path, square_file):
    bad = tmp_path / "bad.bil"
    bad.write_text("billiard v1\nline 0 0 1 0\n", encoding="utf-8")
    code, out = cli.run(["weyl", "--geometry", str(bad)])
    assert code == 4
    code, out = cli.run(["weyl", "--geometry", str(tmp_path / "missing.bil")])
    assert code == 4
    # a directory (any unreadable path) and a file that is not UTF-8 text are geometry errors
    # too; PermissionError is the same OSError branch, but a test run as root can read anything
    latin1 = tmp_path / "latin1.bil"
    latin1.write_bytes(b"billiard v1\nline 0 0 1 0\n# caf\xe9\nline 1 0 0 0\n")
    for path, where in ((tmp_path, "Is a directory"), (latin1, "line 3, column 6")):
        for argv in (["weyl", "--geometry", str(path)],
                     ["monodromy", "--geometry", str(path), "--start", "0.5,0.0",
                      "--bounces", "4"]):
            code, out = cli.run(argv)
            assert code == 4, (path, argv[0])
            assert out.startswith("geometry error: ") and where in out, out
            assert out.count("\n") == 1
    # a non-finite number in a record is a syntax error on its line
    for record in ("line 0 0 nan 0", "line 0 0 1 inf", "arc 0 0 nan 0 1 ccw"):
        bad.write_text(f"billiard v1\n{record}\nline 1 0 0 0\n", encoding="utf-8")
        for argv in (["weyl", "--geometry", str(bad)],
                     ["monodromy", "--geometry", str(bad), "--start", "0.5,0.0",
                      "--bounces", "4"]):
            code, out = cli.run(argv)
            assert code == 4, (record, argv[0])
            assert out.startswith("geometry error") and "line 2" in out, (record, out)
    # a start on a corner is a geometry error too
    code, out = cli.run(["monodromy", "--geometry", square_file, "--start", "0,0.1",
                         "--bounces", "4"])
    assert code == 4
    assert out.startswith("geometry error") and out.count("\n") == 1


def test_exit_code_numerical_error(monkeypatch, capsys, square_file):
    # a corner too sharp for the grid-1 quadrature forces the non-convergence path
    code, out = cli.run(["fold", "--alpha", "1e-7"])
    assert code == 3
    assert "non-convergence" in out
    # a non-finite result (m12/k overflows) is refused in both formats
    for fmt in ("json", "csv"):
        argv = ["monodromy", "--geometry", square_file, "--start", "0.5,0.0",
                "--bounces", "4", "--k", "1e-320", "--format", fmt]
        monkeypatch.setattr("sys.argv", ["billiard-weyl", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        out, err = capsys.readouterr()
        assert exc.value.code == 3, fmt
        assert out == "", fmt
        assert err.startswith("error:") and err.count("\n") == 1, fmt


def test_non_convergence_reports_the_partial_result(monkeypatch, capsys):
    # green just past the panel budget of the rotated contour's arc, 2ky = 131056 (also
    # where the cut of its imaginary-time leg rounds to zero, from 2ky ~ 1e16 on), and fold
    # on a corner too sharp for grid 1
    cases = ((["green", "--y", "1", "--k", "65529", "--verify"],
              lambda: orbit_terms.green_fourier(1.0, 65529.0)),
             (["green", "--y", "1e10", "--k", "1e10", "--verify"],
              lambda: orbit_terms.green_fourier(1e10, 1e10)),
             (["green", "--y", "1e300", "--k", "0.5", "--verify"],
              lambda: orbit_terms.green_fourier(1e300, 0.5)),
             (["fold", "--alpha", "1e-7"],
              lambda: folding.obtuse_corner_constant(1e-7, grid=1)))
    for argv, call in cases:
        with pytest.raises(NonConvergence) as raised:
            call()
        partial = raised.value.result
        monkeypatch.setattr("sys.argv", ["billiard-weyl", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        out, err = capsys.readouterr()
        assert exc.value.code == 3, argv
        assert out == "", argv
        assert err.count("\n") == 1, err
        shown = re.fullmatch(r"numerical non-convergence: (.+); partial value (\S+), "
                             r"error estimate (\S+)\n", err)
        assert shown and shown[1] == str(raised.value), err
        assert complex(shown[2]) == pytest.approx(partial.value, rel=1e-5), err
        assert float(shown[3]) == pytest.approx(partial.error_estimate, rel=1e-2), err


# Every flag value comes from one vocabulary: the values at and beyond the edges of
# the floating-point range, a few ordinary numbers, and the geometry files.
_NUMBERS = ("-1", "0", "nan", "inf", "1e-300", "1e300", "x", "1", "2", "2000")
_GEOMETRY_DIR = Path(__file__).parents[1] / "geometries"
_FILES = (*sorted(str(p) for p in _GEOMETRY_DIR.glob("*.bil")), str(_GEOMETRY_DIR / "missing.bil"))


def _joined(sep, count):
    return st.lists(st.sampled_from(_NUMBERS), min_size=count, max_size=count).map(sep.join)


_NUMBER = st.sampled_from(_NUMBERS)
_BC = st.sampled_from(("dirichlet", "neumann", "x"))
# subcommand: (required flags, optional flags); None marks a switch
_FLAGS = {
    "weyl": ({"--geometry": st.sampled_from(_FILES)}, {"--bc": _BC}),
    "staircase": ({"--shape": st.sampled_from(("rectangle", "disk")), "--emax": _NUMBER,
                   "--window": _joined(",", 2)},
                  {"--a": _NUMBER, "--b": _NUMBER, "--radius": _NUMBER}),
    "corner": ({"--alpha-grid": _joined(":", 3)}, {}),
    "ledger": ({}, {"--bc": _BC}),
    "monodromy": ({"--geometry": st.sampled_from(_FILES), "--start": _joined(",", 2),
                   "--bounces": _NUMBER}, {"--k": _NUMBER}),
    "green": ({"--y": _NUMBER, "--k": _NUMBER}, {"--verify": None}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    required, optional = _FLAGS[command]
    optional = {**optional, "--format": st.sampled_from(("json", "csv"))}
    argv = [command]
    for flag, values in {**required, **optional}.items():
        if flag in required or draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


def _refuse_constant(name):
    raise ValueError(f"{name} in a JSON report")


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(argv=_argv())
def test_any_argv_exits_with_a_documented_code_and_a_parseable_report(argv):
    code, out = cli.run(argv)
    assert code in (0, 2, 3, 4), argv
    if code != 0:
        assert out.endswith("\n") and out.count("\n") == 1, argv
    elif "csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows), argv
    else:
        json.loads(out, parse_constant=_refuse_constant)
