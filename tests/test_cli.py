import json
import math
import os
import subprocess
import sys

import pytest

import ballmax
from ballmax.cli import CliError, emit, main, parse_grid
from ballmax.profiles import StepProfile, random_profile, serialize_profile

UNIT_BALL_DOC = serialize_profile(StepProfile(((1.0, 1.0),)))


@pytest.fixture
def unitball(tmp_path):
    path = tmp_path / "unitball.json"
    path.write_text(UNIT_BALL_DOC)
    return str(path)


# ---------------------------------------------------------------------------
# grid syntax
# ---------------------------------------------------------------------------

def test_parse_grid_linear():
    assert parse_grid("0.1:1.0:10") == pytest.approx(
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    )


def test_parse_grid_geometric():
    grid = parse_grid("geom:1e-3:0.9:20")
    assert len(grid) == 20
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(0.9)
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)


def test_parse_grid_comma_list():
    assert parse_grid("0.5,0.2,0.1") == [0.5, 0.2, 0.1]


def test_parse_grid_rejects_junk():
    with pytest.raises(CliError):
        parse_grid("a:b:c")
    with pytest.raises(CliError):
        parse_grid("geom:1:2")


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------

def test_emit_csv_formatting(tmp_path):
    out = tmp_path / "t.csv"
    emit([{"x": math.pi, "n": 3, "s": "a,b"}], "csv", str(out))
    lines = out.read_bytes().decode().split("\r\n")
    assert lines[0] == "x,n,s"
    assert lines[1] == '3.14159265359,3,"a,b"'


def test_emit_empty_table(tmp_path):
    csv_path = tmp_path / "e.csv"
    emit([], "csv", str(csv_path))
    assert csv_path.read_text() == ""
    json_path = tmp_path / "e.json"
    emit([], "json", str(json_path))
    assert json.loads(json_path.read_text()) == []


def test_emit_json_roundtrip(tmp_path):
    out = tmp_path / "t.json"
    emit([{"x": 0.1, "label": "row", "k": 2}], "json", str(out))
    doc = json.loads(out.read_text())
    assert doc == [{"x": 0.1, "label": "row", "k": 2}]


def test_emit_byte_stable(tmp_path):
    rows = [{"a": 1 / 3, "b": "q"}]
    p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
    emit(rows, "csv", str(p1))
    emit(rows, "csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def test_eval_prints_value(capsys, unitball):
    code = main(["eval", "--d", "1", "--lambda", "1", "--profile", unitball, "--R", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "m = 0.666667" in out


def test_eval_tiny_radius_at_d30(tmp_path, capsys):
    # the search floors the ball radius, so no average reads 0 / 0
    path = tmp_path / "g.json"
    path.write_text(serialize_profile(random_profile(7004, 6, 30)))
    code = main(["eval", "--d", "30", "--lambda", "0", "--profile", str(path), "--R", "1e-6"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.startswith("m = ")


def test_eval_writes_table(tmp_path, unitball):
    out = tmp_path / "row.json"
    code = main(
        ["eval", "--d", "1", "--lambda", "1", "--profile", unitball, "--R", "2",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc[0]["m"] == pytest.approx(2 / 3, abs=1e-6)


def test_scan_command(tmp_path, unitball):
    out = tmp_path / "scan.csv"
    code = main(
        ["scan", "--d", "1", "--lambda", "1", "--profile", unitball,
         "--R-grid", "1.5,2,3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_bytes().decode().strip().split("\r\n")
    assert lines[0] == "R,m"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([0.8, 2 / 3, 0.5], rel=1e-6)


def test_constant_command_within_bound(tmp_path, unitball):
    out = tmp_path / "c.json"
    code = main(
        ["constant", "--d", "1", "--lambda", "0", "--profile", unitball,
         "--t-grid", "geom:1e-3:0.9:20", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert all(row["ratio"] <= 1.0 + 1e-9 for row in rows)


def test_verify_homothety_exit_zero(tmp_path):
    out = tmp_path / "v.json"
    code = main(
        ["verify", "homothety", "--d", "2", "--r-grid", "0.1:1.0:10",
         "--t-grid", "0.2:2.0:10", "--out", str(out)]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert all(rep["passed"] for rep in reports)


def test_verify_shrink_overlap_full_range_exits_one(tmp_path):
    out = tmp_path / "v.json"
    code = main(
        ["verify", "shrink-overlap", "--d", "1", "--r-grid", "0.1:1.0:10",
         "--t-grid", "0.9,1.0,1.111", "--assert-full-range", "--out", str(out)]
    )
    assert code == 1
    reports = json.loads(out.read_text())
    assert not reports[0]["passed"]
    assert reports[0]["witness"][:2] == [0.1, 1.111]


def test_sharpness_command(tmp_path):
    out = tmp_path / "s.csv"
    code = main(
        ["sharpness", "--d", "1", "--lambda", "1", "--r", "1",
         "--t-grid", "0.1,0.05", "--out", str(out)]
    )
    assert code == 0


def test_sweep_command(tmp_path, unitball):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--d-set", "1", "--lambda-set", "0,1", "--profiles", unitball,
         "--t-points", "4", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_bytes().decode().strip().split("\r\n")
    assert lines[0] == "d,lambda,profile_digest,t,mu,ratio,bound,margin"
    assert len(lines) == 1 + 2 * 4


def test_sweep_random_suite(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--d-set", "1,2", "--lambda-set", "0.5", "--profiles", "random",
         "--count", "2", "--t-points", "4", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 2 * 2 * 4


def test_sweep_failed_cell_exits_one(tmp_path, unitball, capsys, monkeypatch):
    from ballmax import analysis

    real = analysis.weak_constant_estimate

    def failing(g, cfg, t_grid, opt=None):
        if cfg.lam == 1.0:
            raise ArithmeticError("boom")
        return real(g, cfg, t_grid, opt)

    monkeypatch.setattr(analysis, "weak_constant_estimate", failing)
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--d-set", "1", "--lambda-set", "0,1", "--profiles", unitball,
         "--t-points", "4", "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "CELL FAILED: d=1 lambda=1 " in err and "ArithmeticError: boom" in err
    lines = out.read_bytes().decode().strip().split("\r\n")
    assert len(lines) == 1 + 2 * 4
    assert all(",nan," in line for line in lines[5:])


@pytest.mark.parametrize("R", ["0", "-1"])
def test_verify_nonpositive_R_is_usage_error(capsys, R):
    code = main(["verify", "domination", "--d", "1", "--R", R, "--n-samples", "100"])
    assert code == 2
    assert "--R must be positive" in capsys.readouterr().err


def test_missing_profile_is_usage_error(tmp_path):
    code = main(
        ["eval", "--d", "1", "--lambda", "1", "--profile",
         str(tmp_path / "nope.json"), "--R", "2"]
    )
    assert code == 2


def test_invalid_profile_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"levels":[{"r":2.0,"v":1.0},{"r":1.0,"v":2.0}]}')
    code = main(["eval", "--d", "1", "--lambda", "1", "--profile", str(bad), "--R", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "levels[1].r" in err


def test_bad_flag_usage_exit_two(capsys):
    assert main(["eval", "--d", "1"]) == 2
    assert main(["nonsense"]) == 2


def test_bad_grid_exit_two(unitball, capsys):
    code = main(
        ["scan", "--d", "1", "--lambda", "1", "--profile", unitball, "--R-grid", "oops"]
    )
    assert code == 2


def test_cli_byte_identical_given_seed(tmp_path, unitball):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["constant", "--d", "1", "--lambda", "1", "--profile", unitball,
            "--t-grid", "0.1,0.2,0.5", "--format", "json", "--seed", "7"]
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# import cost: scipy only where d > geometry._QUIET_DIM needs it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d, loads_scipy", [(2, False), (10, True)])
def test_eval_imports_scipy_only_above_the_closed_form_dimensions(tmp_path, d, loads_scipy):
    path = tmp_path / "g.json"
    path.write_text(serialize_profile(random_profile(3, 4, d)))
    script = (
        "import sys, ballmax.cli\n"
        "before = 'scipy' in sys.modules\n"
        f"code = ballmax.cli.main(['eval', '--d', '{d}', '--lambda', '0.5', '--profile', {str(path)!r}, '--R', '1.3'])\n"
        "print(code, before, 'scipy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(ballmax.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 False {loads_scipy}"
