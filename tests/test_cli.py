import json
import math
import os
import subprocess
import sys

import pytest

import billiard_weyl
from billiard_weyl import cli

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


def test_corner_table_both_orders_flag():
    code1, out1 = cli.run(["corner", "--alpha-grid", "0.5:0.5:1", "--format", "json"])
    code2, out2 = cli.run(["corner", "--alpha-grid", "0.5:0.5:1",
                           "--count-both-orders", "--format", "json"])
    assert code1 == code2 == 0
    row1 = json.loads(out1)["results"][0]
    row2 = json.loads(out2)["results"][0]
    assert row2["orbit_coeff"] == pytest.approx(2.0 * row1["orbit_coeff"], rel=1e-14)
    assert row2["edge_correction"] == row1["edge_correction"]


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
    assert res["magnitude_ratio"] == pytest.approx(1.0, abs=0.05)


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


def test_fold_right_angle():
    code, out = cli.run(["fold", "--alpha", str(math.pi / 2), "--grid", "1",
                         "--format", "json"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["half_identity_rel_residual"] < 1e-9
    target = 1.0 / 16 - 1.0 / (16 * math.pi**2)
    assert res["corner_constant"] == pytest.approx(target, rel=0.01)


def test_exit_code_usage_error(monkeypatch, capsys, square_file):
    staircase = ["staircase", "--shape", "rectangle", "--emax", "5000"]
    for argv in (
        ["nonsense"],
        [],
        ["corner", "--alpha-grid", "1:2:0", "--format", "csv"],
        ["corner", "--alpha-grid", "x:2:3"],
        ["corner", "--alpha-grid", "1:inf:3"],
        ["fold", "--alpha", "2.0", "--tau-list", "0"],
        ["fold", "--alpha", "2.0", "--tau-list", "nan"],
        ["fold", "--alpha", "2.0", "--tau-list", "x"],
        [*staircase, "--window", "400"],
        [*staircase, "--window", "a,b"],
        [*staircase, "--window", "500,5000", "--grid", "-1"],
        [*staircase, "--window", "500,5000", "--grid", "0"],
        ["monodromy", "--geometry", square_file, "--start", "0.5", "--bounces", "4"],
        ["staircase", "--shape", "rectangle", "--emax", "nan", "--window", "500,5000"],
        ["staircase", "--shape", "rectangle", "--a", "inf", "--emax", "5000",
         "--window", "500,5000"],
        ["staircase", "--shape", "disk", "--emax", "inf", "--window", "500,5000"],
        ["staircase", "--shape", "disk", "--emax", "5000", "--radius", "inf",
         "--window", "500,5000"],
        ["staircase", "--shape", "disk", "--emax", "nan", "--window", "500,5000"],
        ["fold", "--alpha", "1.0", "--tau", "1e-5"],
        ["fold", "--alpha", "1.0", "--r", "1e300"],
    ):
        monkeypatch.setattr("sys.argv", ["billiard-weyl", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        out, err = capsys.readouterr()
        assert exc.value.code == 2, argv
        assert out == "", argv
        assert err.startswith("usage error") and err.count("\n") == 1, argv


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize is imported on first use only: it dominates import time
    code = ("import sys, billiard_weyl, billiard_weyl.cli; "
            "print('scipy.optimize' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(billiard_weyl.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_exit_code_geometry_error(tmp_path, square_file):
    bad = tmp_path / "bad.bil"
    bad.write_text("billiard v1\nline 0 0 1 0\n", encoding="utf-8")
    code, out = cli.run(["weyl", "--geometry", str(bad)])
    assert code == 4
    code, out = cli.run(["weyl", "--geometry", str(tmp_path / "missing.bil")])
    assert code == 4
    # a start on a corner is a geometry error too
    code, out = cli.run(["monodromy", "--geometry", square_file, "--start", "0,0.1",
                         "--bounces", "4"])
    assert code == 4
    assert out.startswith("geometry error") and out.count("\n") == 1


def test_exit_code_numerical_error(monkeypatch, capsys, square_file):
    # a single-rung ladder leaves no extrapolation control, forcing the
    # non-convergence path
    code, out = cli.run(["fold", "--alpha", "2.0", "--grid", "1",
                         "--tau-list", "0.02"])
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
