"""Command-line front end: profile I/O, experiment orchestration, CSV/JSON
emission, deterministic seeding, exit codes.

Exit status: 0 on success, 1 when a verification check fails, a weak-type
bound is violated or a sweep cell fails (mathematical content only), 2 for
usage and validation problems.  The bound, its slack and the threshold table
come from analysis (weak_bound, bound_holds, threshold_rows); this module
only maps bound_holds to exit codes.  Warnings go to stderr; identical
configuration and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings as _warnings

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

_REGIONS = {r.value: r for r in RegionKind}

_CHECK_NAMES = (
    "mc-geometry",
    "shrink-overlap",
    "lens-enclosure",
    "homothety",
    "centered-shell",
    "bands",
    "domination",
)


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
                if n < 1 or a <= 0 or b <= 0:
                    raise ValueError("geometric grid needs positive endpoints and n >= 1")
                return [a] if n == 1 else np.geomspace(a, b, n).tolist()
            if len(parts) != 3:
                raise ValueError("expected a:b:n")
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
            if n < 1:
                raise ValueError("grid needs n >= 1")
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
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, (np.floating,)):
        return float(f"{float(value):.12g}")
    if isinstance(value, (np.integer,)):
        return int(value)
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


def _load_profile(path: str) -> StepProfile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_profile(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read profile '{path}': {exc}") from None


def _optimizer_from(ns) -> OptimizerSettings:
    kwargs = {}
    for name in ("beta_grid", "rel_tol"):
        val = getattr(ns, name, None)
        if val is not None:
            kwargs[name] = val
    return OptimizerSettings(**kwargs)


def _add_common(p):
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--beta-grid", dest="beta_grid", type=int, default=None)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballmax",
        description="Partially centered maximal operator on radial decreasing step profiles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="operator value at one radius")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--region", choices=sorted(_REGIONS), default="full")
    _add_common(p)

    p = sub.add_parser("scan", help="operator values on a radius grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--R-grid", dest="r_grid", required=True)
    p.add_argument("--region", choices=sorted(_REGIONS), default="full")
    _add_common(p)

    p = sub.add_parser("constant", help="weak-type ratio table and supremum")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--t-grid", dest="t_grid", required=True)
    _add_common(p)

    p = sub.add_parser("sharpness", help="indicator-family ratios")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--r", dest="r_seq", required=True, help="indicator radii (grid syntax)")
    p.add_argument("--t-grid", dest="t_grid", required=True)
    _add_common(p)

    p = sub.add_parser("sweep", help="bound verification across (d, lambda, profile)")
    p.add_argument("--d-set", dest="d_set", required=True)
    p.add_argument("--lambda-set", dest="lambda_set", required=True)
    p.add_argument(
        "--profiles",
        default="random",
        help="'random' for the seeded suite, or comma-separated profile paths",
    )
    p.add_argument("--count", type=int, default=20, help="random suite size")
    p.add_argument("--k-max", dest="k_max", type=int, default=6)
    p.add_argument("--t-points", dest="t_points", type=int, default=12)
    _add_common(p)

    p = sub.add_parser("verify", help="geometry oracles and region audits")
    p.add_argument("check", choices=_CHECK_NAMES + ("all",))
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--d-set", dest="d_set", default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--profile", default=None)
    p.add_argument("--r-grid", dest="r_grid", default=None)
    p.add_argument("--t-grid", dest="t_grid", default=None)
    p.add_argument("--R-set", dest="R_set", default=None)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--n-samples", dest="n_samples", type=int, default=100_000)
    p.add_argument("--tuples", type=int, default=20)
    p.add_argument("--d-max", dest="d_max", type=int, default=6)
    p.add_argument(
        "--assert-full-range",
        dest="assert_full_region",
        action="store_true",
        help="assert the shrink inequality on the full range t + r > 1 "
        "instead of the conservative sub-region t <= 1",
    )
    _add_common(p)
    return parser


def _cmd_eval(ns, opt) -> int:
    cfg = OperatorConfig(ns.d, ns.lam)
    g = _load_profile(ns.profile)
    res = maximal_value_detailed(g, cfg, ns.R, _REGIONS[ns.region], opt)
    for w in res.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"m = {res.value:.6f}  (lower-bound estimate; rel_tol={opt.rel_tol:g})")
    if ns.out is not None:
        emit(
            [{"R": ns.R, "m": res.value, "alpha": res.alpha, "beta": res.beta}],
            ns.fmt,
            ns.out,
        )
    return 0


def _cmd_scan(ns, opt) -> int:
    cfg = OperatorConfig(ns.d, ns.lam)
    g = _load_profile(ns.profile)
    grid = parse_grid(ns.r_grid)
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
        def suite(d):
            return [random_profile(ns.seed + i, ns.k_max, d) for i in range(ns.count)]
    else:
        suite = [_load_profile(p) for p in ns.profiles.split(",") if p]
        if not suite:
            raise CliError("no profiles given")
        # a mass that overflows is a usage error, as in eval, not a failed cell
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


def _verify_reports(ns, opt) -> list[verify.CheckReport]:
    name = ns.check
    if ns.R is not None and not ns.R > 0.0:
        raise CliError(f"--R must be positive, got {ns.R:g}")
    mc = verify.McConfig(ns.seed, ns.n_samples)
    if ns.d_set:
        d_list = parse_dimensions(ns.d_set)
    else:
        d_list = [ns.d if ns.d is not None else 2]
    g = _load_profile(ns.profile) if ns.profile else StepProfile(((1.0, 1.0),))
    reports = []

    def want(key):
        return name in (key, "all")

    if want("mc-geometry"):
        reports.append(verify.check_mc_geometry(ns.tuples, ns.d_max, mc))
    if want("homothety"):
        r_grid = parse_grid(ns.r_grid) if ns.r_grid else np.linspace(0.1, 1.0, 10).tolist()
        t_grid = parse_grid(ns.t_grid) if ns.t_grid else np.linspace(0.2, 2.0, 10).tolist()
        for d in d_list:
            reports.append(verify.check_homothety_identity(d, r_grid, t_grid))
    if want("shrink-overlap"):
        r_grid = parse_grid(ns.r_grid) if ns.r_grid else np.linspace(0.05, 1.0, 20).tolist()
        t_grid = parse_grid(ns.t_grid) if ns.t_grid else np.linspace(0.05, 1.0, 20).tolist()
        for d in d_list:
            reports.append(
                verify.check_shrink_overlap_inequality(d, r_grid, t_grid, ns.assert_full_region)
            )
    if want("lens-enclosure"):
        r_grid = parse_grid(ns.r_grid) if ns.r_grid else [0.3, 0.5, 0.9]
        before = len(reports)
        for d in d_list:
            for r in dict.fromkeys(r_grid):
                t_grid = parse_grid(ns.t_grid) if ns.t_grid else [min(1.0, 1.0 - r + 0.1), 1.0]
                for t in dict.fromkeys(t_grid):
                    # skip t + r <= 1 only: nan and inf reach the check, which rejects them
                    if not t + r <= 1.0:
                        reports.append(verify.check_lens_enclosure(d, r, t, mc))
        if len(reports) == before:
            raise CliError("lens-enclosure: no (r, t) pair has t + r > 1")
    if want("centered-shell"):
        R_set = parse_grid(ns.R_set) if ns.R_set else [0.5, 0.9, 2.0, 5.0]
        for d in d_list:
            reports.append(verify.check_centered_shell_gap(g, d, R_set, opt))
    if want("bands"):
        R_set = parse_grid(ns.R_set) if ns.R_set else [0.5, 0.9, 2.0, 5.0]
        lam = ns.lam if ns.lam is not None else 0.0
        for d in d_list:
            reports.append(verify.check_band_regions(g, OperatorConfig(d, lam), R_set, opt))
    if want("domination"):
        lam = ns.lam if ns.lam is not None else 1.0
        R_set = parse_grid(ns.R_set) if ns.R_set else ([ns.R] if ns.R is not None else [2.0])
        for d in d_list:
            for R in R_set:
                reports.append(
                    verify.check_random_ball_domination(g, OperatorConfig(d, lam), R, mc, opt)
                )
    if not reports:
        raise CliError(f"verify {name}: no check ran, a grid is empty")
    return reports


def _cmd_verify(ns, opt) -> int:
    reports = _verify_reports(ns, opt)
    emit([r.to_dict() for r in reports], "json", ns.out)
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(
            f"FAILED {r.name}: worst violation {r.worst_violation:.6g} "
            f"(tolerance {r.tolerance:g}), witness {r.witness}",
            file=sys.stderr,
        )
    return 1 if failed else 0


_COMMANDS = {
    "eval": _cmd_eval,
    "scan": _cmd_scan,
    "constant": _cmd_constant,
    "sharpness": _cmd_sharpness,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        opt = _optimizer_from(ns)
        with _warnings.catch_warnings():
            _warnings.simplefilter("always", analysis.AnalysisWarning)
            return _COMMANDS[ns.command](ns, opt)
    except (CliError, ProfileError, UsageError, GeometryDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
