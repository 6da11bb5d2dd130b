"""The four seeded workloads and the checks on their outputs.

A workload is a list of operations.  Each operation has a ``run`` callable,
which is what the timed loop measures, and a ``check`` callable, which gets
the output and returns ``None`` when it is correct or a one-line reason when
it is not.  Inputs are made here, before the timed loop, from the seed alone.

Why each workload exists is written in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ballmax import analysis, cli, geometry, maximal, profiles, verify
from ballmax.profiles import OperatorConfig, StepProfile

# Criterion-01 settings: what `ballmax sweep` is validated at.
SUITE_OPT = maximal.OptimizerSettings(alpha_grid=8, beta_grid=12, refine_rounds=6, rel_tol=1e-5)
DEFAULT_OPT = maximal.OptimizerSettings()
T_POINTS = 8
K_MAX = 6
BOUND_SLACK = 1e-9
UNIT_BALL = StepProfile(((1.0, 1.0),))

SWEEP_D = (1, 2, 3)
POINT_D = (1, 2, 3, 10, 30)
LAMBDAS = (0.0, 0.5, 1.0)
# audit rounds cycle through these, so every run has the same mix of costs
AUDIT_PAIRS = [(d, lam) for lam in LAMBDAS for d in (1, 2, 3, 5)]
RADII_PER_PROFILE = 8
UNIT_BALL_RADII = (1.0, 1.5, 2.0, 4.0)

# Pools are fixed in size so that set-up does not depend on --seconds; the
# timed loop cycles through a pool when it runs out.
SWEEP_ROUNDS = 40
POINT_ROUNDS = 40
AUDIT_ROUNDS = 60
# A 25 s cli run makes about 38 commands: with 6 profiles (24 invocations)
# its cost depends less on any one profile, and most invocations still repeat.
CLI_INPUTS = 6

MC_SAMPLES = 100_000
MC_TUPLES = 20
MC_D_MAX = 6
# Wilson score interval width for the Monte Carlo rows, see check_mc_rows.
# An audit run judges about 800 rows; at z=6 a correct row falls outside with
# probability 2e-9, so a correct run fails with probability about 2e-6.  At
# the program's own 4 standard errors that is about 5%.
WILSON_Z = 6.0

# Checks whose failure is a failed operation.  The others (shrink-overlap on
# the full range, lens-enclosure, centered-shell, bands) are known red, and
# their verdicts are recorded as data.
THEOREM_CHECKS = ("mc-geometry", "homothety", "domination")
CLI_COMMANDS = ("eval", "scan", "constant", "verify")


@dataclass
class Op:
    """One operation of a workload: a cell, a radius, a check or a command."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    count_warnings: Callable[[object], int] | None = None  # AnalysisWarnings in the output


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# sweep: one analysis.sweep call per (d, lambda, profile) cell
# ---------------------------------------------------------------------------

def unit_ball_ratio(lam: float, t: float) -> float:
    """Weak-type ratio of the d=1 unit-ball indicator.

    lambda=1: mu(t) = 4/t - 2, so the ratio t*mu/2 is 2 - t.
    lambda=0: M g = 1 on |x| < 1 and 1/(|x|+1) beyond, so mu(t) is 2 for
    t >= 1/2 and 2/t - 2 below; the ratio is max(t, 1 - t).
    """
    return 2.0 - t if lam == 1.0 else max(t, 1.0 - t)


def run_cell(g: StepProfile, d: int, lam: float):
    """One sweep cell through the public API, with its warnings captured."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", analysis.AnalysisWarning)
        result = analysis.sweep([d], [lam], [g], SUITE_OPT, t_points=T_POINTS)
    return result, len(caught)


def check_cell(out, d: int, lam: float, closed_form: bool) -> str | None:
    result, _ = out
    if len(result.cells) != 1:
        # analysis.sweep drops a failing cell and leaves only a warning
        return f"cell dropped: {'; '.join(result.warnings) or 'no warning'}"
    cell = result.cells[0]
    bound = (1.0 + lam) ** d
    if not cell["ratio_sup"] <= bound + BOUND_SLACK:
        return f"ratio_sup {cell['ratio_sup']!r} above (1+lambda)^d = {bound!r}"
    if len(result.rows) != T_POINTS:
        return f"{len(result.rows)} threshold rows, expected {T_POINTS}"
    for row in result.rows:
        if not (math.isfinite(row["ratio"]) and row["ratio"] >= 0.0):
            return f"ratio {row['ratio']!r} at t={row['t']!r}"
        if closed_form and abs(row["ratio"] - unit_ball_ratio(lam, row["t"])) > 1e-3:
            return f"unit ball ratio {row['ratio']!r} at t={row['t']!r}, closed form {unit_ball_ratio(lam, row['t'])!r}"
    return None


def _cell_op(g: StepProfile, d: int, lam: float, closed_form: bool = False) -> Op:
    return Op(
        kind=f"cell d={d}",
        run=lambda: run_cell(g, d, lam),
        check=lambda out: check_cell(out, d, lam, closed_form),
        count_warnings=lambda out: out[1] + len(out[0].warnings),
    )


def sweep_cells(seed: int, j: int) -> list[tuple[StepProfile, int, float]]:
    """Round j: every (d, lambda) pair, each with a profile of its own, so a
    run covers as many profile shapes as it has cells."""
    n = len(SWEEP_D) * len(LAMBDAS)
    pairs = [(d, lam) for d in SWEEP_D for lam in LAMBDAS]
    return [(profiles.random_profile(seed + j * n + i, K_MAX, d), d, lam) for i, (d, lam) in enumerate(pairs)]


UNIT_BALL_CELLS = [(UNIT_BALL, 1, 1.0), (UNIT_BALL, 1, 0.0)]


def sweep_round(seed: int, j: int) -> list[Op]:
    return [_cell_op(*cell) for cell in sweep_cells(seed, j)]


def sweep_ops(seed: int) -> list[Op]:
    ops = [_cell_op(*cell, closed_form=True) for cell in UNIT_BALL_CELLS]
    for j in range(SWEEP_ROUNDS):
        ops.extend(sweep_round(seed, j))
    return ops


# ---------------------------------------------------------------------------
# pointwise: one maximal_value_detailed call per radius, default settings
# ---------------------------------------------------------------------------

def radii_for(g: StepProfile) -> list[float]:
    return (g.support_radius * np.geomspace(0.05, 5.0, RADII_PER_PROFILE)).tolist()


def run_radius(g: StepProfile, cfg: OperatorConfig, R: float):
    return maximal.maximal_value_detailed(g, cfg, R, maximal.RegionKind.FULL, DEFAULT_OPT)


def check_radius(res, g: StepProfile, cfg: OperatorConfig, R: float, closed: float | None):
    v = res.value
    floor = profiles.evaluate(g, R)
    norm = profiles.l1_norm(g, cfg.d)
    ceiling = min(
        g.top_level,
        (1.0 + cfg.lam) ** cfg.d * norm / (geometry.unit_ball_volume(cfg.d) * R ** cfg.d),
    )
    if not math.isfinite(v):
        return f"value {v!r}"
    if v < floor * (1.0 - 1e-12):
        return f"value {v!r} below g(R) = {floor!r}"
    if v > ceiling * (1.0 + 1e-9):
        return f"value {v!r} above its ceiling {ceiling!r}"
    if closed is not None and not _close(v, closed, DEFAULT_OPT.rel_tol):
        return f"unit ball value {v!r}, closed form {closed!r}"
    return None


def _radius_op(g, cfg, R, closed: float | None = None) -> Op:
    return Op(
        kind=f"radius d={cfg.d}",
        run=lambda: run_radius(g, cfg, R),
        check=lambda res: check_radius(res, g, cfg, R, closed),
    )


def pointwise_points(seed: int, j: int) -> list[tuple[StepProfile, OperatorConfig, float]]:
    """Round j: every (d, lambda) pair with a profile of its own."""
    n = len(POINT_D) * len(LAMBDAS)
    pairs = [(d, lam) for d in POINT_D for lam in LAMBDAS]
    points = []
    for i, (d, lam) in enumerate(pairs):
        g = profiles.random_profile(seed + j * n + i, K_MAX, d)
        points += [(g, OperatorConfig(d, lam), R) for R in radii_for(g)]
    return points


# d=1 unit ball at R >= 1: M g(R) = 2/(R+1) at lambda=1 and 1/(R+1) at lambda=0
UNIT_BALL_POINTS = [
    (UNIT_BALL, OperatorConfig(1, lam), R, (1.0 + lam) / (R + 1.0))
    for lam in (1.0, 0.0)
    for R in UNIT_BALL_RADII
]


def pointwise_round(seed: int, j: int) -> list[Op]:
    return [_radius_op(*point) for point in pointwise_points(seed, j)]


def pointwise_ops(seed: int) -> list[Op]:
    ops = [_radius_op(*point) for point in UNIT_BALL_POINTS]
    for j in range(POINT_ROUNDS):
        ops.extend(pointwise_round(seed, j))
    return ops


# ---------------------------------------------------------------------------
# audit: the seven verify checks
# ---------------------------------------------------------------------------

def wilson_interval(hits: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.  Unlike the normal
    interval it stays open when hits is 0 or n."""
    p = hits / n
    z2n = z * z / n
    centre = (p + z2n / 2.0) / (1.0 + z2n)
    half = z / (1.0 + z2n) * math.sqrt(p * (1.0 - p) / n + z2n / (4.0 * n))
    return max(0.0, centre - half), min(1.0, centre + half)


def check_mc_rows(rep, n: int) -> str | None:
    """Judge each Monte Carlo row by the Wilson interval of its hit count.

    The program's own test, |exact - mc| <= 4 se, has se = 0 when a small
    lens gets no hits, so it reports a failure the sampling cannot resolve;
    and over many rows it rejects correct volumes at the 4-sigma rate.
    Returns the reason for the first row outside both tests.
    """
    for row in rep.extra["rows"]:
        vol1 = geometry.unit_ball_volume(row["d"]) * row["rho1"] ** row["d"]
        within_se = abs(row["exact"] - row["mc"]) <= 4.0 * row["se"] + 1e-12 * max(1.0, row["exact"])
        lo, hi = wilson_interval(round(row["mc"] / vol1 * n), n)
        within_wilson = lo * vol1 <= row["exact"] <= hi * vol1
        if not (within_se or within_wilson):
            return f"lens {row!r} outside the Monte Carlo interval"
    return None


def check_report(name: str, rep) -> str | None:
    if not math.isfinite(rep.worst_violation):
        return f"{name}: worst violation {rep.worst_violation!r}"
    if name == "mc-geometry":
        return check_mc_rows(rep, MC_SAMPLES)
    if name in THEOREM_CHECKS and not rep.passed:
        return f"{name} failed: worst {rep.worst_violation!r}, witness {rep.witness!r}"
    return None


def audit_round(seed: int, j: int) -> list[Op]:
    rng = np.random.default_rng([seed, j])
    d, lam = AUDIT_PAIRS[j % len(AUDIT_PAIRS)]
    g = profiles.random_profile(seed + j, K_MAX, d)
    s = g.support_radius
    R_set = [0.5 * s, 0.9 * s, 2.0 * s, 5.0 * s]
    r = float(rng.uniform(0.2, 1.0))
    t = float(rng.uniform(1.05 - r, 2.0))
    R = float(s * rng.uniform(0.3, 3.0))
    mc = [verify.McConfig(int(x), MC_SAMPLES) for x in rng.integers(2**31, size=3)]
    r_grid = np.linspace(0.1, 1.0, 10)
    checks = [
        ("mc-geometry", lambda: verify.check_mc_geometry(MC_TUPLES, MC_D_MAX, mc[0])),
        ("homothety", lambda: verify.check_homothety_identity(d, r_grid, np.linspace(0.2, 2.0, 10))),
        (
            "shrink-overlap",
            lambda: verify.check_shrink_overlap_inequality(
                d, np.linspace(0.05, 1.0, 20), np.linspace(0.05, 2.0, 20), True
            ),
        ),
        ("lens-enclosure", lambda: verify.check_lens_enclosure(d, r, t, mc[1])),
        ("centered-shell", lambda: verify.check_centered_shell_gap(g, d, R_set, DEFAULT_OPT)),
        ("bands", lambda: verify.check_band_regions(g, OperatorConfig(d, lam), R_set, DEFAULT_OPT)),
        (
            "domination",
            lambda: verify.check_random_ball_domination(g, OperatorConfig(d, lam), R, mc[2], DEFAULT_OPT),
        ),
    ]
    return [Op(kind=name, run=fn, check=lambda rep, name=name: check_report(name, rep)) for name, fn in checks]


def audit_ops(seed: int) -> list[Op]:
    return [op for j in range(AUDIT_ROUNDS) for op in audit_round(seed, j)]


# ---------------------------------------------------------------------------
# cli: sequential `python -m ballmax.cli` subprocesses
# ---------------------------------------------------------------------------

def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_commands(seed: int, workdir: str) -> list[tuple[str, list[str], int]]:
    """(command name, argv after `ballmax`, expected exit code) for each
    invocation; profile files are written into workdir."""
    out = []
    for k in range(CLI_INPUTS):
        rng = np.random.default_rng([seed, k])
        g = profiles.random_profile(seed + k, K_MAX, 2)
        path = os.path.join(workdir, f"profile{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(profiles.serialize_profile(g))
        s = g.support_radius
        R = repr(float(s * rng.uniform(0.3, 3.0)))
        ts = ",".join(repr(t) for t in analysis.default_t_grid(g, 4))
        mc_seed = str(int(rng.integers(2**31)))
        out += [
            ("eval", ["eval", "--d", "2", "--lambda", "0.5", "--profile", path, "--R", R], 0),
            (
                "scan",
                ["scan", "--d", "2", "--lambda", "1", "--profile", path, "--R-grid", f"geom:{0.1 * s!r}:{5 * s!r}:8"],
                0,
            ),
            ("constant", ["constant", "--d", "2", "--lambda", "1", "--profile", path, "--t-grid", ts], 0),
            (
                "verify",
                [
                    "verify", "domination", "--d", "2", "--lambda", "1", "--profile", path,
                    "--R", R, "--n-samples", "20000", "--seed", mc_seed,
                ],
                0,
            ),
        ]
    return out


def run_python(argv: list[str], env: dict):
    proc = subprocess.run(
        [sys.executable, *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=120,
        check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(argv: list[str], env: dict):
    return run_python(["-m", "ballmax.cli", *argv], env)


def run_cli_inproc(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def check_cli_output(name: str, out, expected_code: int, first: dict, key) -> str | None:
    code, stdout, stderr = out
    if code != expected_code:
        return f"{name} exited {code}, expected {expected_code}: {stderr[-300:]!r}"
    if first.setdefault(key, (stdout, stderr)) != (stdout, stderr):
        return f"{name} output differs from its first run"
    text = stdout.decode()
    if name == "eval" and not text.startswith("m = "):
        return f"eval printed {text!r}"
    if name == "scan" and len(text.splitlines()) != 9:
        return f"scan printed {len(text.splitlines())} lines, expected 9"
    if name == "constant" and len(text.splitlines()) != 5:
        return f"constant printed {len(text.splitlines())} lines, expected 5"
    if name == "verify":
        reports = json.loads(text)
        if [r["name"] for r in reports] != ["random-ball-domination"] or not reports[0]["passed"]:
            return f"verify reported {text[:300]!r}"
    return None


def cli_ops(seed: int, workdir: str, src: str) -> list[Op]:
    env = cli_env(src)
    first: dict = {}
    ops = []
    for i, (name, argv, code) in enumerate(cli_commands(seed, workdir)):
        ops.append(
            Op(
                kind=name,
                run=lambda argv=argv: run_cli(argv, env),
                check=lambda out, name=name, code=code, i=i: check_cli_output(name, out, code, first, i),
            )
        )
    return ops


def cli_import_ops(src: str, repeats: int) -> list[Op]:
    """Subprocesses that only import ballmax: the fixed cost of every command."""
    env = cli_env(src)
    return [
        Op(
            kind="import",
            run=lambda: run_python(["-c", "import ballmax"], env),
            check=lambda out: None if out[0] == 0 else f"import exited {out[0]}: {out[2][-300:]!r}",
        )
        for _ in range(repeats)
    ]


def cli_inproc_ops(seed: int, workdir: str) -> list[Op]:
    """The first input set's commands through cli.main in this process."""
    first: dict = {}
    return [
        Op(
            kind=name,
            run=lambda argv=argv: run_cli_inproc(argv),
            check=lambda out, name=name, code=code, i=i: check_cli_output(name, out, code, first, i),
        )
        for i, (name, argv, code) in enumerate(cli_commands(seed, workdir)[: len(CLI_COMMANDS)])
    ]


def build(workload: str, seed: int, workdir: str, src: str) -> list[Op]:
    if workload == "sweep":
        return sweep_ops(seed)
    if workload == "pointwise":
        return pointwise_ops(seed)
    if workload == "audit":
        return audit_ops(seed)
    if workload == "cli":
        return cli_ops(seed, workdir, src)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Accuracy panel: fixed inputs with stored high-effort reference values
# ---------------------------------------------------------------------------
# References cannot be stored for every seed a run may get, so shortfall_max
# is measured on the seed-0 round of the sweep and pointwise workloads, the
# same inputs whatever the run's seed.  make_reference.py regenerates them.

PANEL_SEED = 0
# Every value is a lower bound, and more effort does not always find more (at
# one panel radius the default settings beat the first setting by 5e-5), so
# the reference is the largest value over these settings and the workload's.
REFERENCE_OPTS = (
    maximal.OptimizerSettings(alpha_grid=32, beta_grid=96, refine_rounds=24, rel_tol=1e-8),
    maximal.OptimizerSettings(alpha_grid=16, beta_grid=48, refine_rounds=48, rel_tol=1e-9),
)
# Shortfalls below this are reported as this value, so the metric is never 0
# and a change at rounding level does not read as a regression.
SHORTFALL_FLOOR = 1e-9


def sweep_panel() -> list[tuple[StepProfile, int, float]]:
    return UNIT_BALL_CELLS + sweep_cells(PANEL_SEED, 0)


def pointwise_panel() -> list[tuple[StepProfile, OperatorConfig, float]]:
    return [point[:3] for point in UNIT_BALL_POINTS] + pointwise_points(PANEL_SEED, 0)


def panel_key(g: StepProfile, d: int, lam: float, x: float) -> str:
    return f"d={d} lambda={lam!r} profile={profiles.profile_digest(g)} at={x!r}"


def panel_values(kind: str, opt: maximal.OptimizerSettings) -> dict[str, float]:
    """Per-threshold ratios (kind 'sweep') or operator values ('pointwise')
    on the panel inputs, computed with the given settings."""
    out = {}
    if kind == "sweep":
        for g, d, lam in sweep_panel():
            est = analysis.weak_constant_estimate(g, OperatorConfig(d, lam), analysis.default_t_grid(g, T_POINTS), opt)
            out.update((panel_key(g, d, lam, t), ratio) for t, _, ratio in est.per_t)
    else:
        for g, cfg, R in pointwise_panel():
            res = maximal.maximal_value_detailed(g, cfg, R, maximal.RegionKind.FULL, opt)
            out[panel_key(g, cfg.d, cfg.lam, R)] = res.value
    return out


def reference_values(kind: str) -> dict[str, float]:
    own = SUITE_OPT if kind == "sweep" else DEFAULT_OPT
    runs = [panel_values(kind, opt) for opt in (*REFERENCE_OPTS, own)]
    return {k: max(r[k] for r in runs) for k in runs[0]}


def panel_kind(workload: str) -> str:
    """The sweep panel for sweep; the other workloads use default settings,
    so they are scored on the pointwise panel."""
    return "sweep" if workload == "sweep" else "pointwise"


def shortfall(kind: str, reference: dict) -> tuple[float, int]:
    """Largest relative amount by which a value falls below its reference,
    and the number of values compared.  The sweep panel goes through
    analysis.sweep at the criterion-01 settings, the pointwise panel through
    maximal_value_detailed at default settings, as the workloads do."""
    refs = reference[kind]
    got = {}
    if kind == "sweep":
        for g, d, lam in sweep_panel():
            result, _ = run_cell(g, d, lam)
            got.update((panel_key(g, d, lam, row["t"]), row["ratio"]) for row in result.rows)
    else:
        for g, cfg, R in pointwise_panel():
            got[panel_key(g, cfg.d, cfg.lam, R)] = run_radius(g, cfg, R).value
    if got.keys() != refs.keys():
        raise ValueError(
            f"{kind} panel and reference disagree on {len(got.keys() ^ refs.keys())} inputs; "
            "regenerate with perfbench/make_reference.py"
        )
    worst = max((refs[k] - v) / refs[k] for k, v in got.items() if refs[k] > 0.0)
    return worst, len(got)
