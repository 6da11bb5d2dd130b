"""Command-line front end: profile I/O, experiment orchestration, CSV/JSON
emission, deterministic seeding, exit codes.

Exit status: 0 on success, 1 when a verification check fails, a weak-type
bound is violated or a sweep cell fails (mathematical content only), 2 for
usage and validation problems.  The bound, its slack and the threshold table
come from analysis (weak_bound, bound_holds, threshold_rows); this module
only maps bound_holds to exit codes.  Warnings go to stderr as
"warning: <message>" lines; identical configuration and seed produce
byte-identical output files.

Each shared option group is one parent parser, given only to the commands
that read it.  Each verify check is a subcommand with its own parser and
defaults (--d/--d-set and --R/--R-set are one setting each); verify all runs
every check on its own defaults updated with the options all takes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings as _warnings
from functools import partial

import numpy as np

from . import analysis, verify
from .geometry import GeometryDomainError
from .maximal import OptimizerSettings, RegionKind, UsageError, maximal_value_detailed
from .profiles import (
    OperatorConfig,
    ProfileError,
    StepProfile,
    l1_norm,
    parse_profile,
    random_profile,
)

DEFAULT_SEED = 20240817
_SUITE_DEFAULTS = {"seed": DEFAULT_SEED, "count": 20, "k_max": 6}  # sweep's random suite

_REGIONS = {r.value: r for r in RegionKind}


class CliError(ValueError):
    """Bad command-line value (exit code 2)."""


def parse_grid(text: str) -> list[float]:
    """Grid syntax: 'a:b:n' (n linear points), 'geom:a:b:n' (n geometric
    points) or a comma-separated list of values."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if parts[0] == "geom":
                if len(parts) != 4:
                    raise ValueError("expected geom:a:b:n")
                a, b, n = float(parts[1]), float(parts[2]), int(parts[3])
                if n < 1 or not (0 < a < math.inf and 0 < b < math.inf):
                    raise ValueError("geometric grid needs finite positive endpoints and n >= 1")
                return [a] if n == 1 else np.geomspace(a, b, n).tolist()
            if len(parts) != 3:
                raise ValueError("expected a:b:n")
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
            # b - a is finite only where both ends are and their span does not overflow
            if n < 1 or not math.isfinite(b - a):
                raise ValueError("grid needs finite endpoints, a finite span and n >= 1")
            return [a] if n == 1 else np.linspace(a, b, n).tolist()
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise CliError(f"bad grid '{text}': {exc}") from None


def parse_dimensions(text: str) -> list[int]:
    """A dimension list in grid syntax; every entry must be an integer."""
    values = parse_grid(text)
    if not all(v.is_integer() for v in values):
        raise CliError(f"bad dimension list '{text}': entries must be integers")
    return [int(v) for v in values]


def _fmt_number(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_ready(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return str(value)


def emit(rows, fmt: str, path: str | None = None) -> None:
    """Write a row table as CSV (header, RFC-4180 quoting, 12 significant
    digits) or as a JSON array of flat objects with identical keys."""
    rows = list(rows)
    if fmt == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\r\n")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt_number(v) for k, v in row.items()})
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps([_json_ready(row) for row in rows], indent=2) + "\n"
    else:
        raise CliError(f"unknown format '{fmt}'")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_profile(path: str | None) -> StepProfile:
    if path is None:  # verify's default profile
        return StepProfile(((1.0, 1.0),))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_profile(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read profile '{path}': {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballmax",
        description="Partially centered maximal operator on radial decreasing step profiles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shown = "default %(default)s"

    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--d", type=int, required=True)
    shape.add_argument("--lambda", dest="lam", type=float, required=True)
    profile = argparse.ArgumentParser(add_help=False)
    profile.add_argument("--profile", required=True)
    region = argparse.ArgumentParser(add_help=False)
    region.add_argument("--region", choices=sorted(_REGIONS), default="full")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    # absent unless given, so that a run that does not read them can reject them
    out_table = argparse.ArgumentParser(add_help=False)
    out_table.add_argument("--format", dest="fmt", choices=("csv", "json"), default=argparse.SUPPRESS)
    suite_seed = argparse.ArgumentParser(add_help=False)
    suite_seed.add_argument("--seed", type=int, default=argparse.SUPPRESS, help=f"default {DEFAULT_SEED}")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default: stdout)")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--beta-grid", type=int, default=OptimizerSettings.beta_grid, help=shown)
    search.add_argument("--rel-tol", type=float, default=OptimizerSettings.rel_tol, help=shown)
    common = argparse.ArgumentParser(add_help=False, parents=[out, search])

    p = sub.add_parser(
        "eval",
        parents=[shape, profile, region, out_table, common],
        help="operator value at one radius",
        allow_abbrev=False,
    )
    p.add_argument("--R", type=float, required=True)
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser(
        "scan",
        parents=[shape, profile, region, table, common],
        help="operator values on a radius grid",
        allow_abbrev=False,
    )
    p.add_argument("--R-grid", dest="r_grid", required=True)
    p.set_defaults(run=_cmd_scan)

    p = sub.add_parser(
        "constant",
        parents=[shape, profile, table, common],
        help="weak-type ratio table and supremum",
        allow_abbrev=False,
    )
    p.add_argument("--t-grid", dest="t_grid", required=True)
    p.set_defaults(run=_cmd_constant)

    p = sub.add_parser(
        "sharpness",
        parents=[shape, table, common],
        help="indicator-family ratios",
        allow_abbrev=False,
    )
    p.add_argument("--r", dest="r_seq", required=True, help="indicator radii (grid syntax)")
    p.add_argument("--t-grid", dest="t_grid", required=True)
    p.set_defaults(run=_cmd_sharpness)

    p = sub.add_parser(
        "sweep",
        parents=[table, suite_seed, common],
        help="bound verification across (d, lambda, profile)",
        allow_abbrev=False,
    )
    p.add_argument("--d-set", dest="d_set", required=True)
    p.add_argument("--lambda-set", dest="lambda_set", required=True)
    p.add_argument(
        "--profiles",
        default="random",
        help="'random' for the seeded suite, or comma-separated profile paths",
    )
    p.add_argument("--count", type=int, default=argparse.SUPPRESS, help="random suite size")
    p.add_argument("--k-max", dest="k_max", type=int, default=argparse.SUPPRESS)
    p.add_argument("--t-points", dest="t_points", type=int, default=12)
    p.set_defaults(run=_cmd_sweep)

    # verify: one subcommand per check, taking only the options it reads.  Parents
    # share their option objects, so a default that differs between checks is
    # declared in each check's own parser.
    checks = sub.add_parser("verify", help="geometry oracles and region audits", allow_abbrev=False)
    checks = checks.add_subparsers(dest="check", required=True)
    dims = argparse.ArgumentParser(add_help=False)
    dims.add_argument("--d", "--d-set", dest="d_set", default="2", help="dimensions, " + shown)
    ball = argparse.ArgumentParser(add_help=False)
    ball.add_argument("--profile", help="profile path, default the unit ball")
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--seed", type=int, default=DEFAULT_SEED, help=shown)
    samples.add_argument("--n-samples", type=int, default=verify.McConfig.n_samples, help=shown)
    parsers = {}

    def check(name, plan, *parents, grids=(), R=None, lam=None):
        p = parsers[name] = checks.add_parser(name, parents=[out, *parents], allow_abbrev=False)
        p.set_defaults(run=_cmd_verify, plan=plan)
        for flag, grid in zip(("--r-grid", "--t-grid"), grids):
            p.add_argument(flag, default=grid, help=shown if grid else "default min(1, 1.1 - r),1")
        if R:
            p.add_argument("--R", "--R-set", dest="R_set", default=R, help="radii, " + shown)
        if lam is not None:
            p.add_argument("--lambda", dest="lam", type=float, default=lam, help=shown)
        return p

    p = check("mc-geometry", _plan_mc_geometry, samples)
    p.add_argument("--tuples", type=int, default=20, help=shown)
    p.add_argument("--d-max", type=int, default=6, help=shown)
    check("homothety", _plan_homothety, dims, grids=("0.1:1.0:10", "0.2:2.0:10"))
    p = check("shrink-overlap", _plan_shrink_overlap, dims, grids=("0.05:1.0:20", "0.05:1.0:20"))
    p.add_argument("--assert-full-range", dest="assert_full_region", action="store_true",
                   help="assert t > 1 too, on the full range t + r > 1")
    check("lens-enclosure", _plan_lens_enclosure, dims, samples, grids=("0.3,0.5,0.9", None))
    check("centered-shell", _plan_centered_shell, dims, ball, search, R="0.5,0.9,2,5")
    check("bands", _plan_bands, dims, ball, search, R="0.5,0.9,2,5", lam=0.0)
    check("domination", _plan_domination, dims, ball, samples, search, R="2", lam=1.0)
    # `all` takes the options that have one default for every check reading them
    p = checks.add_parser("all", parents=[common, dims, ball, samples], allow_abbrev=False)
    p.set_defaults(run=_cmd_verify, check_parsers=parsers)
    return parser


def _cmd_eval(ns, opt) -> int:
    cfg = OperatorConfig(ns.d, ns.lam)
    g = _load_profile(ns.profile)
    if "fmt" in ns and ns.out is None:
        raise CliError("eval: --format applies only to the --out table")
    res = maximal_value_detailed(g, cfg, ns.R, _REGIONS[ns.region], opt)
    for w in res.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"m = {res.value:.6f}  (lower-bound estimate; rel_tol={opt.rel_tol:g})")
    if ns.out is not None:
        emit(
            [{"R": ns.R, "m": res.value, "alpha": res.alpha, "beta": res.beta}],
            getattr(ns, "fmt", "csv"),
            ns.out,
        )
    return 0


def _cmd_scan(ns, opt) -> int:
    cfg = OperatorConfig(ns.d, ns.lam)
    g = _load_profile(ns.profile)
    grid = parse_grid(ns.r_grid)
    if not grid:
        raise CliError("scan: no radius to scan, --R-grid is empty")
    scan = analysis.radial_scan(g, cfg, grid, _REGIONS[ns.region], opt)
    for w in scan.warnings:
        print(f"warning: {w}", file=sys.stderr)
    emit([{"R": R, "m": m} for R, m in scan.entries], ns.fmt, ns.out)
    return 0


def _cmd_constant(ns, opt) -> int:
    cfg = OperatorConfig(ns.d, ns.lam)
    g = _load_profile(ns.profile)
    ts = sorted(parse_grid(ns.t_grid))
    est = analysis.weak_constant_estimate(g, cfg, ts, opt)
    emit(analysis.threshold_rows(cfg, est.profile_digest, est.per_t), ns.fmt, ns.out)
    bound = analysis.weak_bound(cfg)
    print(
        f"ratio_sup = {est.ratio_sup:.9g} at t = {est.argmax_t:.6g} (bound {bound:.9g})",
        file=sys.stderr,
    )
    return 0 if analysis.bound_holds(est.ratio_sup, bound) else 1


def _cmd_sharpness(ns, opt) -> int:
    cfg = OperatorConfig(ns.d, ns.lam)
    rows = analysis.sharpness_experiment(cfg, parse_grid(ns.r_seq), parse_grid(ns.t_grid), opt)
    emit(rows, ns.fmt, ns.out)
    return 0 if all(analysis.bound_holds(row["ratio"], row["bound"]) for row in rows) else 1


def _cmd_sweep(ns, opt) -> int:
    d_set = parse_dimensions(ns.d_set)
    lambda_set = parse_grid(ns.lambda_set)
    if ns.profiles == "random":
        seed, count, k_max = (getattr(ns, k, v) for k, v in _SUITE_DEFAULTS.items())
        def suite(d):
            return [random_profile(seed + i, k_max, d) for i in range(count)]
    elif _SUITE_DEFAULTS.keys() & vars(ns).keys():
        raise CliError("sweep: --seed, --count and --k-max apply only to --profiles random")
    else:
        suite = [_load_profile(p) for p in ns.profiles.split(",") if p]
        if not suite:
            raise CliError("no profiles given")
        # a mass that overflows is a usage error, as in constant, not a failed cell
        for d in d_set:
            for g in suite:
                l1_norm(g, d)
    result = analysis.sweep(d_set, lambda_set, suite, opt, t_points=ns.t_points)
    if not result.cells:
        raise CliError("sweep: no cell to run, a dimension, lambda or profile list is empty")
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    emit(list(result.rows), ns.fmt, ns.out)
    bad = 0
    for cell in result.cells:
        where = f"d={cell['d']} lambda={cell['lambda']:g} profile={cell['profile_digest']}"
        if cell["error"] is not None:
            bad += 1
            print(f"CELL FAILED: {where}: {cell['error']}", file=sys.stderr)
        elif not analysis.bound_holds(cell["ratio_sup"], cell["bound"]):
            bad += 1
            print(
                f"BOUND VIOLATED: {where} ratio_sup={cell['ratio_sup']:.9g} "
                f"> bound={cell['bound']:.9g}",
                file=sys.stderr,
            )
    done = [c["margin"] for c in result.cells if c["error"] is None]
    print(
        f"{len(result.cells)} cells ({len(result.cells) - len(done)} failed); worst margin "
        f"{min(done, default=float('nan')):.6g}",
        file=sys.stderr,
    )
    return 1 if bad else 0


# Each verify check's plan reads its own namespace and returns the audit
# calls to make; `verify` makes every plan before it makes a call.
def _plan_mc_geometry(ns, opt):
    mc = verify.McConfig(ns.seed, ns.n_samples)
    return [partial(verify.check_mc_geometry, ns.tuples, ns.d_max, mc)]


def _plan_homothety(ns, opt):
    ds, r_grid, t_grid = parse_dimensions(ns.d_set), parse_grid(ns.r_grid), parse_grid(ns.t_grid)
    return [partial(verify.check_homothety_identity, d, r_grid, t_grid) for d in ds]


def _plan_shrink_overlap(ns, opt):
    ds, r_grid, t_grid = parse_dimensions(ns.d_set), parse_grid(ns.r_grid), parse_grid(ns.t_grid)
    full = ns.assert_full_region
    return [partial(verify.check_shrink_overlap_inequality, d, r_grid, t_grid, full) for d in ds]


def _plan_lens_enclosure(ns, opt):
    mc, ds = verify.McConfig(ns.seed, ns.n_samples), parse_dimensions(ns.d_set)
    pairs = []
    for r in dict.fromkeys(parse_grid(ns.r_grid)):
        t_grid = parse_grid(ns.t_grid) if ns.t_grid is not None else [min(1.0, 1.0 - r + 0.1), 1.0]
        # skip t + r <= 1 only: nan and inf reach the check, which rejects them
        pairs += [(r, t) for t in dict.fromkeys(t_grid) if not t + r <= 1.0]
    if not pairs:
        raise CliError("verify lens-enclosure: no (r, t) pair has t + r > 1")
    return [partial(verify.check_lens_enclosure, d, r, t, mc) for d in ds for r, t in pairs]


def _plan_centered_shell(ns, opt):
    ds, g, R_set = parse_dimensions(ns.d_set), _load_profile(ns.profile), parse_grid(ns.R_set)
    return [partial(verify.check_centered_shell_gap, g, d, R_set, opt) for d in ds]


def _plan_bands(ns, opt):
    ds, g, R_set = parse_dimensions(ns.d_set), _load_profile(ns.profile), parse_grid(ns.R_set)
    cfgs = [OperatorConfig(d, ns.lam) for d in ds]
    return [partial(verify.check_band_regions, g, cfg, R_set, opt) for cfg in cfgs]


def _plan_domination(ns, opt):
    mc = verify.McConfig(ns.seed, ns.n_samples)
    ds, g, R_set = parse_dimensions(ns.d_set), _load_profile(ns.profile), parse_grid(ns.R_set)
    cfgs = [OperatorConfig(d, ns.lam) for d in ds]
    check = verify.check_random_ball_domination
    return [partial(check, g, cfg, R, mc, opt) for cfg in cfgs for R in R_set]


def _cmd_verify(ns, opt) -> int:
    runs = {ns.check: ns}
    if ns.check == "all":
        # each check's own defaults, updated with the values `all` gives for its options
        runs = {name: p.parse_args([]) for name, p in ns.check_parsers.items()}
        for check_ns in runs.values():
            vars(check_ns).update((k, v) for k, v in vars(ns).items() if k in check_ns)
    calls = []
    for name, check_ns in runs.items():
        planned = check_ns.plan(check_ns, opt)
        if not planned:
            raise CliError(f"verify {name}: no check ran, a grid is empty")
        calls += planned
    reports = [call() for call in calls]
    emit([r.to_dict() for r in reports], "json", ns.out)
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(
            f"FAILED {r.name}: worst violation {r.worst_violation:.6g} "
            f"(tolerance {r.tolerance:g}), witness {r.witness}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        search = "beta_grid" in ns  # only the commands that search take the search options
        opt = OptimizerSettings(beta_grid=ns.beta_grid, rel_tol=ns.rel_tol) if search else None
        with _warnings.catch_warnings():
            _warnings.simplefilter("always", analysis.AnalysisWarning)
            _warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            return ns.run(ns, opt)
    except (CliError, ProfileError, UsageError, GeometryDomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
