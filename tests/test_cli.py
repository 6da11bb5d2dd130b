import json
import math
import os
import subprocess
import sys

import pytest

import ballmax
from ballmax import analysis
from ballmax.cli import CliError, emit, main, parse_grid
from ballmax.maximal import OptimizerSettings, maximal_value_detailed
from ballmax.profiles import (
    OperatorConfig,
    StepProfile,
    parse_profile,
    profile_digest,
    random_profile,
    serialize_profile,
)

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


def test_eval_search_settings_reach_the_search(tmp_path, capsys):
    g = random_profile(64, 6, 3)
    path = tmp_path / "g.json"
    path.write_text(serialize_profile(g))
    R = 2.0 * g.support_radius
    out = tmp_path / "row.csv"
    args = ["eval", "--d", "3", "--lambda", "0.5", "--profile", str(path), "--R", repr(R)]
    assert main(args + ["--beta-grid", "12", "--rel-tol", "1e-5", "--out", str(out)]) == 0
    res = maximal_value_detailed(
        g, OperatorConfig(3, 0.5), R, opt=OptimizerSettings(beta_grid=12, rel_tol=1e-5)
    )
    row = ",".join(f"{x:.12g}" for x in (R, res.value, res.alpha, res.beta))
    assert out.read_bytes().decode() == f"R,m,alpha,beta\r\n{row}\r\n"
    capsys.readouterr()
    assert main(args + ["--beta-grid", "7"]) == 2
    assert capsys.readouterr().err == "error: grid counts must be at least 8\n"


@pytest.mark.parametrize("command", ["eval", "scan"])
def test_unconverged_search_prints_a_warning_and_exits_zero(tmp_path, capsys, command):
    # rel_tol far below rounding: no window goes flat before it collapses
    g = random_profile(64, 6, 3)
    path = tmp_path / "g.json"
    path.write_text(serialize_profile(g))
    R = repr(2.0 * g.support_radius)
    where = ["--R", R] if command == "eval" else ["--R-grid", R]
    args = [command, "--d", "3", "--lambda", "0.5", "--profile", str(path), *where]
    assert main(args + ["--rel-tol", "1e-300"]) == 0
    err = capsys.readouterr().err
    assert err == "warning: refinement did not reach rel_tol before its window collapsed\n"


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


def test_verify_out_file_matches_stdout(tmp_path, capsys):
    out = tmp_path / "v.json"
    args = ["verify", "homothety", "--d", "3", "--r-grid", "0.2:1.0:5", "--t-grid", "0.5:2.0:5"]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()


def test_verify_dimension_zero_is_usage_error(capsys):
    assert main(["verify", "homothety", "--d", "0"]) == 2
    assert "dimension" in capsys.readouterr().err


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


def _estimate_above_bound(excess):
    """A weak_constant_estimate stand-in whose largest ratio is
    (1 + lambda)^d + excess, at the first threshold."""

    def estimate(g, cfg, t_grid, opt=None):
        top = (1.0 + cfg.lam) ** cfg.d + excess
        per_t = tuple((t, 1.0, top - i) for i, t in enumerate(t_grid))
        return analysis.ConstantEstimate(top, per_t[0][0], per_t, profile_digest(g))

    return estimate


@pytest.mark.parametrize("excess, code", [(2e-9, 1), (0.5e-9, 0)])
@pytest.mark.parametrize("command", ["constant", "sharpness", "sweep"])
def test_bound_verdict_allows_only_the_slack(unitball, capsys, monkeypatch, command, excess, code):
    # a ratio above the bound by more than 1e-9 is a violation (exit 1)
    monkeypatch.setattr(analysis, "weak_constant_estimate", _estimate_above_bound(excess))
    args = {
        "constant": ["constant", "--profile", unitball, "--t-grid", "0.1,0.2"],
        "sharpness": ["sharpness", "--r", "1", "--t-grid", "0.1,0.2"],
        "sweep": ["sweep", "--profiles", unitball, "--t-points", "2"],
    }[command]
    shape = ["--d-set", "2", "--lambda-set", "0.5"] if command == "sweep" else ["--d", "2", "--lambda", "0.5"]
    assert main(args + shape) == code
    err = capsys.readouterr().err
    if command == "sweep":
        assert ("BOUND VIOLATED: d=2 lambda=0.5 " in err) == (code == 1)


def test_constant_and_sweep_write_the_same_threshold_table(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(serialize_profile(random_profile(11, 4, 2)))
    ts = analysis.default_t_grid(parse_profile(path.read_text()), 4)
    a, b = tmp_path / "constant.csv", tmp_path / "sweep.csv"
    shape = ["--d", "2", "--lambda", "0.5"]
    t_grid = ",".join(map(repr, ts))
    assert main(["constant", *shape, "--profile", str(path), "--t-grid", t_grid, "--out", str(a)]) == 0
    sweep = ["sweep", "--d-set", "2", "--lambda-set", "0.5", "--profiles", str(path), "--t-points", "4"]
    assert main(sweep + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "levels, args",
    [
        # the profile's mass overflows a double
        ('[{"r":1e11,"v":1}]', ["eval", "--d", "30", "--lambda", "0", "--R", "1"]),
        ('[{"r":1e11,"v":1}]', ["constant", "--d", "30", "--lambda", "0", "--t-grid", "0.5"]),
        ('[{"r":1e200,"v":1}]', ["eval", "--d", "2", "--lambda", "0", "--R", "1"]),
        # below the least radius of a restricted region
        ('[{"r":1,"v":1}]', ["eval", "--d", "30", "--lambda", "0", "--R", "1e-12",
                             "--region", "centered-shell"]),
        # a loaded sweep profile whose mass overflows in one of its dimensions
        ('[{"r":1e11,"v":1}]', ["sweep", "--d-set", "2,30", "--lambda-set", "0"]),
    ],
)
def test_profile_mass_and_region_radius_are_usage_errors(tmp_path, capsys, levels, args):
    path = tmp_path / "g.json"
    path.write_text(f'{{"levels":{levels}}}')
    flag = "--profiles" if args[0] == "sweep" else "--profile"
    assert main(args + [flag, str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert ("least radius" in err[0]) == ("--region" in args)


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


@pytest.mark.parametrize("flag, value", [("--refine-rounds", "6"), ("--beta-floor", "1e-6")])
def test_removed_search_flags_are_usage_errors(unitball, capsys, flag, value):
    args = ["eval", "--d", "2", "--lambda", "1", "--profile", unitball, "--R", "2"]
    assert main(args + [flag, value]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "mc-geometry", "--seed", "-1"],
        ["verify", "domination", "--seed", "-1"],
        ["verify", "lens-enclosure", "--seed", "-5"],
        ["sweep", "--d-set", "1", "--lambda-set", "0", "--count", "1", "--seed", "-3"],
        ["verify", "mc-geometry", "--tuples", "-1"],
        ["verify", "mc-geometry", "--d-max", "0"],
        ["verify", "mc-geometry", "--d-max", "31"],
    ],
)
def test_negative_seed_and_bad_mc_counts_are_usage_errors(capsys, args):
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["--d", "0"],
        ["--d", "31"],
        ["--t-grid", "inf"],
        ["--r-grid", "nan"],
        ["--r-grid", "0.5", "--t-grid", "nan"],
        ["--r-grid", "0.3", "--t-grid", "0.5"],  # no pair with t + r > 1
        ["--d-set", ","],  # no dimension
    ],
)
def test_verify_lens_enclosure_domain_errors(capsys, args):
    assert main(["verify", "lens-enclosure", "--n-samples", "1000", *args]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        # a dimension that is not an integer, not finite or not a number
        ["sweep", "--d-set", "2.7", "--lambda-set", "0", "--count", "1"],
        ["sweep", "--d-set", "inf", "--lambda-set", "0", "--count", "1"],
        ["sweep", "--d-set", "nan", "--lambda-set", "0", "--count", "1"],
        ["verify", "homothety", "--d-set", "1.5"],
        ["verify", "homothety", "--d-set", "inf"],
        ["verify", "homothety", "--d-set", "nan"],
        # a sweep with no cell to check
        ["sweep", "--d-set", "1", "--lambda-set", "0", "--count", "0"],
        ["sweep", "--d-set", "1", "--lambda-set", "0", "--count", "-2"],
        ["sweep", "--d-set", ",", "--lambda-set", "0"],
        ["sweep", "--d-set", "1", "--lambda-set", ","],
    ],
)
def test_bad_dimension_lists_and_empty_sweeps_are_usage_errors(capsys, args):
    assert main(args) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["homothety", "--d-set", ","],
        ["domination", "--R-set", ","],
        ["centered-shell", "--R-set", ","],
        ["bands", "--R-set", ","],
    ],
)
def test_verify_with_no_check_to_run_is_usage_error(capsys, args):
    assert main(["verify", *args]) == 2
    assert capsys.readouterr().err.startswith("error: verify")


@pytest.mark.parametrize(
    "check, name, keys, witness_len",
    [
        ("centered-shell", "centered-shell-gap", ["R", "full", "centered_shell"], 3),
        ("bands", "band-regions", ["R", "full", "upper_band", "lower_band"], 4),
    ],
)
def test_verify_region_audits_report_rows_and_witness(tmp_path, capsys, check, name, keys, witness_len):
    # the unit ball's known region gaps fail these audits, so both exit 1
    out = tmp_path / "v.json"
    args = ["verify", check, "--d-set", "1,2", "--R-set", "0.9,2", "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err.count(f"FAILED {name}: ") == 2
    reports = json.loads(out.read_text())
    assert [rep["name"] for rep in reports] == [name, name]
    for rep in reports:
        assert not rep["passed"] and len(rep["witness"]) == witness_len
        assert rep["witness"][0] in (0.9, 2.0)
        assert [list(row) for row in rep["extra"]["rows"]] == [keys, keys]
        assert [row["R"] for row in rep["extra"]["rows"]] == [0.9, 2.0]
    if check == "bands":
        assert all(rep["witness"][1] in ("upper-band", "lower-band") for rep in reports)


def test_verify_lens_enclosure_runs_each_grid_pair_once(tmp_path):
    # the default t grid, min(1, 1.1 - r) and 1, repeats t = 1 at r <= 0.1;
    # a repeated value in a given grid is also run once
    out = tmp_path / "v.json"
    for extra, want in (
        ([], [(0.05, 1.0)]),
        (["--t-grid", "0.98,1.0,0.98"], [(0.05, 0.98), (0.05, 1.0)]),
    ):
        args = ["verify", "lens-enclosure", "--d", "2", "--r-grid", "0.05,0.05", "--n-samples", "1000"]
        assert main(args + extra + ["--out", str(out)]) == 0
        got = [rep["samples_or_grid"].split(", ")[1:3] for rep in json.loads(out.read_text())]
        assert got == [[f"r={r}", f"t={t}"] for r, t in want]


@pytest.mark.parametrize(
    "args",
    [
        ["constant", "--t-grid", "0.1,inf"],
        ["constant", "--t-grid", "nan"],
        ["sharpness", "--r", "1", "--t-grid", "0.1,inf"],
        ["sharpness", "--r", "1", "--t-grid", "nan"],
    ],
)
def test_non_finite_thresholds_are_usage_errors(unitball, capsys, args):
    if args[0] == "constant":
        args = args + ["--profile", unitball]
    assert main(args + ["--d", "1", "--lambda", "1"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error: ")


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

def _fresh_interpreter(argv: list) -> list:
    """Run ballmax.cli.main(argv) in a new interpreter; return its exit code
    and whether scipy was loaded before and after."""
    script = (
        "import sys, ballmax.cli\n"
        "before = 'scipy' in sys.modules\n"
        f"code = ballmax.cli.main({argv!r})\n"
        "print(code, before, 'scipy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(ballmax.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("d, loads_scipy", [(2, False), (10, True)])
def test_eval_imports_scipy_only_above_the_closed_form_dimensions(tmp_path, d, loads_scipy):
    path = tmp_path / "g.json"
    path.write_text(serialize_profile(random_profile(3, 4, d)))
    argv = ["eval", "--d", str(d), "--lambda", "0.5", "--profile", str(path), "--R", "1.3"]
    assert _fresh_interpreter(argv) == ["0", "False", str(loads_scipy)]


def test_verify_mc_geometry_defaults_load_no_scipy_and_report_intervals(tmp_path):
    # the Wilson z comes from statistics.NormalDist, not scipy.stats
    out = tmp_path / "mc.json"
    assert _fresh_interpreter(["verify", "mc-geometry", "--out", str(out)]) == ["0", "False", "False"]
    (rep,) = json.loads(out.read_text())
    assert rep["name"] == "mc-geometry" and rep["passed"]
    rows = rep["extra"]["rows"]
    assert len(rows) == 20
    for row in rows:
        slack = 1e-11 * max(1.0, row["exact"])  # rounding, and 12 digits in the JSON
        assert row["mc_lo"] - slack <= row["exact"] <= row["mc_hi"] + slack
