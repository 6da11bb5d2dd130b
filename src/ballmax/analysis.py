"""Radial scans, superlevel-set measures and weak-(1,1) ratio estimation.

On a radial nonincreasing profile the operator is radially nonincreasing:
scaling a ball admissible at s*x (s > 1) by 1/s about the origin gives a
ball admissible at x with no smaller average.  So the superlevel set
{ operator value > t } is a centered ball of radius R_t and the distribution
function is mu(t) = omega_d R_t^d.  R_t is found by monotone inversion: each
crossing is bracketed before any operator call (see _level_set_bracket); the
first call evaluates the bracket ends and a few radii just past each
breakpoint that is a lower end, where M g jumps or a plateau ends, and
shrinks each bracket to the tightest pair of them; all brackets are then
narrowed together by regula falsi in (log R, log m) with Anderson-Bjorck
steps (Anderson and Bjorck, BIT 13, 1973), and R_t is the secant root of the
final bracket.  The weak-type ratio t * mu(t) / ||g||_1 is then maximized
over a threshold grid; for radial nonincreasing profiles its supremum over
all t is (1 + lam)^d, which the sharpness experiment approaches with
normalized ball indicators.

This module owns the weak-(1,1) verdict: the bound (weak_bound), the slack
a ratio may exceed it by (bound_holds) and the per-threshold table every
command emits (threshold_rows).

Because the operator values are lower bounds of the true suprema and the
crossing radii are bracketed to relative width 1e-6, every reported ratio is
a lower estimate of the true ratio up to that refinement error.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from . import maximal
from .geometry import _is_integer, unit_ball_volume
from .maximal import OptimizerSettings, RegionKind, UsageError
from .profiles import (
    OperatorConfig,
    StepProfile,
    l1_norm,
    normalized_indicator,
    profile_digest,
)

__all__ = [
    "AnalysisWarning",
    "RadialScan",
    "ConstantEstimate",
    "SweepResult",
    "level_set_radius_bound",
    "default_t_grid",
    "radial_scan",
    "superlevel_measure",
    "weak_constant_estimate",
    "sharpness_experiment",
    "sweep",
]

_CROSSING_REL_WIDTH = 1e-6
_CROSSING_MAX_STEPS = 80
# Least distance, in log R, of a regula falsi point from either bracket end:
# once one end sits at the root, the next point lands across it and closes
# the bracket below _CROSSING_REL_WIDTH.
_MIN_LOG_STEP = 0.3 * _CROSSING_REL_WIDTH
# Lower bracket ends sit this fraction inside a radius where the value
# reaches t: a breakpoint (lo = r_k * _INSIDE), or the mass-bound radius
# for the covering ball (lo + r_K = hi * _INSIDE, an average of
# t / _INSIDE^d).
_INSIDE = 1.0 - 1e-9
# Radii, as multiples of a breakpoint r_k, that the first operator call also
# evaluates wherever some lower bracket end is r_k * _INSIDE: the far side
# of a jump of M g at r_k (lam < 1), then points past a plateau that starts
# there (lam = 1).
_BREAKPOINT_PROBES = np.array([1.0 / _INSIDE, 1.0 + 1e-3, 1.0 + 1e-2, 1.0 + 1e-1])
_TINY = 1e-300  # floor under operator values before taking the log
_MU_MONOTONE_SLACK = 1e-5
_BOUND_SLACK = 1e-9  # a ratio this far above the bound still meets it


class AnalysisWarning(UserWarning):
    """Resolution or search-domain warnings from the level-set machinery."""


@dataclass(frozen=True)
class RadialScan:
    """Sampled operator values R -> m(R) with the provenance that produced
    them."""

    entries: tuple[tuple[float, float], ...]
    config: OperatorConfig
    region: RegionKind
    settings: OptimizerSettings
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        prev = 0.0
        for R, m in self.entries:
            if R <= prev:
                raise UsageError("scan radii must be positive and strictly increasing")
            if m < 0.0:
                raise UsageError("scan values must be nonnegative")
            prev = R


@dataclass(frozen=True)
class ConstantEstimate:
    """Weak-type ratio table for one profile and configuration."""

    ratio_sup: float
    argmax_t: float
    per_t: tuple[tuple[float, float, float], ...]  # (t, mu, ratio)
    profile_digest: str

    def __post_init__(self):
        if self.per_t:
            ratios = [row[2] for row in self.per_t]
            if abs(self.ratio_sup - max(ratios)) > 1e-12 * max(1.0, abs(self.ratio_sup)):
                raise UsageError("ratio_sup must equal the largest per-threshold ratio")
            mus = [row[1] for row in self.per_t]
            for lo, hi in zip(mus[1:], mus[:-1]):
                if lo > hi * (1.0 + _MU_MONOTONE_SLACK) + 1e-12:
                    raise UsageError("mu(t) must be nonincreasing in t")


@dataclass(frozen=True)
class SweepResult:
    """Per-cell summaries plus the flat per-threshold rows for emission."""

    cells: tuple[dict, ...]
    rows: tuple[dict, ...]
    warnings: tuple[str, ...] = ()


def weak_bound(cfg: OperatorConfig) -> float:
    """The paper's least weak-(1,1) constant (1 + lam)^d."""
    return (1.0 + cfg.lam) ** cfg.d


def bound_holds(ratio: float, bound: float) -> bool:
    """Whether a weak ratio meets the bound up to _BOUND_SLACK; NaN does not."""
    return ratio <= bound + _BOUND_SLACK


def threshold_rows(cfg: OperatorConfig, digest: str, per_t) -> list[dict]:
    """One table row per (t, mu, ratio) of per_t, with the bound and margin."""
    bound = weak_bound(cfg)
    head = {"d": cfg.d, "lambda": cfg.lam, "profile_digest": digest}
    return [
        {**head, "t": t, "mu": mu, "ratio": ratio, "bound": bound, "margin": bound - ratio}
        for t, mu, ratio in per_t
    ]


def level_set_radius_bound(cfg: OperatorConfig, norm: float, t: float) -> float:
    """Radius beyond which the mass bound forces operator values below t:
    ((1+lam)^d * norm / (omega_d * t))^(1/d).

    The mass bound M g(R) <= (1+lam)^d norm / (omega_d R^d), the profile
    mass over the volume of the smallest feasible ball, is the paper's
    weak-(1,1) bound in pointwise form: for nonincreasing M g,
    sup_t t mu(t) = sup_R omega_d R^d M g(R), so the bound (1+lam)^d on the
    weak ratio says M g stays below this curve.  This radius solves it for R
    at M g = t.  The level-set solver uses it as the upper end of every
    bracket and checks the bound at run time: an operator value above t
    there raises an AnalysisWarning."""
    if not (t > 0.0 and norm > 0.0):
        raise UsageError("t and norm must be positive")
    omega = unit_ball_volume(cfg.d)
    return (weak_bound(cfg) * norm / (omega * t)) ** (1.0 / cfg.d)


def default_t_grid(g: StepProfile, n: int = 12) -> tuple[float, ...]:
    """Geometric threshold grid between 1e-4 and (1 - 1e-3) of the profile's
    top level.  Ratios peak as t -> 0, so the grid is log-spaced."""
    if not _is_integer(n) or n < 2:
        raise UsageError("threshold grid needs at least 2 points")
    v1 = g.top_level
    return tuple(np.geomspace(1e-4 * v1, (1.0 - 1e-3) * v1, n).tolist())


def radial_scan(
    g: StepProfile,
    cfg: OperatorConfig,
    R_grid,
    region: RegionKind = RegionKind.FULL,
    opt: OptimizerSettings | None = None,
) -> RadialScan:
    """Evaluate the operator on a strictly increasing radius grid."""
    opt = opt or OptimizerSettings()
    R = np.asarray(list(R_grid), dtype=float)
    if R.size == 0:
        return RadialScan((), cfg, region, opt)
    if np.any(R <= 0.0) or np.any(np.diff(R) <= 0.0):
        raise UsageError("R_grid must be positive and strictly increasing")
    vals, _, _, _, warns = maximal._supremum_batch(g, cfg, R, region, opt)
    entries = tuple((float(r), float(m)) for r, m in zip(R, vals))
    return RadialScan(entries, cfg, region, opt, warnings=warns)


def _level_set_bracket(g, cfg, ts):
    """Ends [lo, hi] that bracket R_t for each threshold t < top level,
    known before any operator call, and the breakpoint r_k that each lo
    sits just inside (NaN where lo is the covering-ball end).

    hi is the mass-bound radius, where the value is at most t.  lo is the
    larger of two radii where the value exceeds t.  One is just inside the
    largest breakpoint whose level exceeds t, where the shrinking-ball
    candidate keeps the value above t.  The other is the covering-ball end
    hi * _INSIDE - r_K: for R >= lam r_K the ball of radius
    (R + r_K) / (1 + lam) centered at (R - lam r_K) / (1 + lam) is
    admissible and holds the whole support, so
    M g(R) >= (1+lam)^d ||g||_1 / (omega_d (R + r_K)^d), which is
    t / _INSIDE^d at that end.  Below lam r_K the ball is not admissible,
    so the covering-ball end is used only where it is at least lam r_K.
    """
    ts = np.asarray(ts, dtype=float)
    r_k = g.support_radius
    norm = l1_norm(g, cfg.d)
    steps = g.arrays
    # the levels end in 0, which no t exceeds
    r_step = steps.radii[np.sum(steps.levels[None, :] > ts[:, None], axis=1) - 1]
    lo = r_step * _INSIDE
    hi = np.array([level_set_radius_bound(cfg, norm, t) for t in ts])
    cover = hi * _INSIDE - r_k
    covered = (cover >= cfg.lam * r_k) & (cover > lo)
    return np.where(covered, cover, lo), hi, np.where(covered, np.nan, r_step)


def _level_set_radii(g, cfg, ts, opt):
    """Radius R_t of the ball { operator value > t } for each threshold
    t < top level, all thresholds solved together.

    Every bracket is known before any search (_level_set_bracket).  The
    first operator call evaluates the bracket ends and, for each breakpoint
    r_k that a lower end sits just inside, the radii r_k * _BREAKPOINT_PROBES
    that fall inside some bracket.  Each bracket then shrinks to the
    largest of these points below its upper end with m > t and the smallest
    point above that with m <= t, so a crossing at a jump of M g (lam < 1)
    is resolved in this call and one past a plateau (lam = 1) starts its
    search beyond the plateau.  Regula falsi on log m - log t against
    log R, with Anderson-Bjorck steps, then narrows every bracket to
    relative width 1e-6, one batched operator call per step.  The reported
    radius is the secant root of the final bracket, taken from its ends'
    own values (the Anderson-Bjorck scaled ones are not), at no extra
    search.  One AnalysisWarning counts unconverged radii.
    """
    ts = np.asarray(ts, dtype=float)
    n = ts.size
    lo, hi, r_step = _level_set_bracket(g, cfg, ts)
    log_t = np.log(ts)
    unconverged = [0]

    def mval(R):
        m, _, _, converged, _ = maximal._supremum_batch(g, cfg, R, RegionKind.FULL, opt)
        unconverged[0] += R.size - np.count_nonzero(converged)
        return m, np.log(np.maximum(m, _TINY))

    probes = np.outer(r_step[~np.isnan(r_step)], _BREAKPOINT_PROBES).ravel()
    probes = probes[((probes > lo[:, None]) & (probes < hi[:, None])).any(axis=0)]
    pts, inv = np.unique(np.concatenate([lo, hi, probes]), return_inverse=True)
    m, log_m = mval(pts)
    # pts is sorted, so each bracket is an index range [end_lo, end_hi]; it
    # shrinks to the largest point below end_hi with m > t, then the
    # smallest point above that with m <= t, or keeps its own end
    end_lo, end_hi = inv[:n], inv[n : 2 * n]
    m_hi = m[end_hi]
    breach = m_hi > ts
    j, above = np.arange(pts.size), m > ts[:, None]
    lo_ok = above & (j >= end_lo[:, None]) & (j < end_hi[:, None])
    i_lo = np.where(lo_ok, j, end_lo[:, None]).max(axis=1)
    hi_ok = ~above & (j > i_lo[:, None]) & (j <= end_hi[:, None])
    i_hi = np.where(breach, end_hi, np.where(hi_ok, j, end_hi[:, None]).min(axis=1))
    lo, hi = pts[i_lo], pts[i_hi]
    f_lo, f_hi = log_m[i_lo] - log_t, log_m[i_hi] - log_t
    # the ends' own values: Anderson-Bjorck scales f_lo and f_hi
    v_lo, v_hi = f_lo.copy(), f_hi.copy()
    for i in np.flatnonzero(breach):
        _warnings.warn(
            f"t={ts[i]:g}: operator value {m_hi[i]:g} exceeds the threshold at the "
            f"mass-bound radius {hi[i]:g}; level set measured to that radius",
            AnalysisWarning,
            stacklevel=4,
        )
    side = np.zeros(n, dtype=int)  # end replaced by the last step: -1 lo, +1 hi

    def live():
        return np.flatnonzero(~breach & (hi - lo > _CROSSING_REL_WIDTH * hi))

    for _ in range(_CROSSING_MAX_STEPS):
        idx = live()
        if idx.size == 0:
            break
        xl, xh = np.log(lo[idx]), np.log(hi[idx])
        fl, fh = f_lo[idx], f_hi[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (xl * fh - xh * fl) / (fh - fl)
        x = np.where(np.isfinite(x), x, 0.5 * (xl + xh))
        R = np.exp(np.clip(x, xl + _MIN_LOG_STEP, xh - _MIN_LOG_STEP))
        m, log_m = mval(R)
        up = m > ts[idx]
        f = log_m - log_t[idx]
        a, b = idx[up], idx[~up]
        # Anderson-Bjorck: an end kept twice running has its value scaled
        # by 1 - f_new / f_old, the change at the end just replaced, or
        # halved (Illinois) where that factor is not positive
        ka, kb = side[a] < 0, side[b] > 0
        f_hi[a[ka]] *= _anderson_bjorck(f[up][ka], f_lo[a[ka]])
        f_lo[b[kb]] *= _anderson_bjorck(f[~up][kb], f_hi[b[kb]])
        lo[a], f_lo[a], v_lo[a], side[a] = R[up], f[up], f[up], -1
        hi[b], f_hi[b], v_hi[b], side[b] = R[~up], f[~up], f[~up], 1
    for i in live():
        _warnings.warn(
            f"t={ts[i]:g}: level-set radius not resolved to relative width "
            f"{_CROSSING_REL_WIDTH:g} in {_CROSSING_MAX_STEPS} steps (bracket "
            f"[{lo[i]:.9g}, {hi[i]:.9g}]); its secant root reported",
            AnalysisWarning,
            stacklevel=4,
        )
    if unconverged[0]:
        _warnings.warn(
            f"level-set search: unconverged at {unconverged[0]} of its radii "
            f"({maximal._UNCONVERGED})",
            AnalysisWarning,
            stacklevel=4,
        )
    return np.where(breach, hi, _secant_root(lo, hi, v_lo, v_hi))


def _secant_root(lo, hi, f_lo, f_hi):
    # root of the line through (log lo, f_lo) and (log hi, f_hi), or the
    # midpoint where that root is not finite or leaves [lo, hi]
    xl, xh = np.log(lo), np.log(hi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = np.exp((xl * f_hi - xh * f_lo) / (f_hi - f_lo))
    return np.where((root >= lo) & (root <= hi), root, 0.5 * (lo + hi))


def _anderson_bjorck(f_new, f_old):
    # scale factor 1 - f_new / f_old, or 0.5 where it is not positive or
    # f_old is 0
    ratio = np.divide(f_new, f_old, out=np.ones_like(f_new), where=f_old != 0.0)
    scale = 1.0 - ratio
    return np.where(scale > 0.0, scale, 0.5)


def _measure_for_thresholds(g, cfg, ts, opt):
    """mu(t) = omega_d R_t^d for each threshold; 0 at or above the top level."""
    ts = np.asarray(ts, dtype=float)
    mus = np.zeros(ts.size)
    live = ts < g.top_level
    if live.any():
        mus[live] = unit_ball_volume(cfg.d) * _level_set_radii(g, cfg, ts[live], opt) ** cfg.d
    return mus.tolist()


def superlevel_measure(
    g: StepProfile,
    cfg: OperatorConfig,
    t: float,
    opt: OptimizerSettings | None = None,
) -> float:
    """Lebesgue measure of the superlevel set { operator value > t }: the
    centered ball of radius R_t that the level-set solver finds (module
    docstring, _level_set_radii).  A value above t at the mass-bound radius
    is warned about and the measure taken to that radius."""
    if not (t > 0.0 and math.isfinite(t)):
        raise UsageError(f"threshold must be positive, got {t}")
    opt = opt or OptimizerSettings()
    return _measure_for_thresholds(g, cfg, [t], opt)[0]


def weak_constant_estimate(
    g: StepProfile,
    cfg: OperatorConfig,
    t_grid,
    opt: OptimizerSettings | None = None,
) -> ConstantEstimate:
    """Ratios t * mu(t) / ||g||_1 over a threshold grid and their maximum."""
    opt = opt or OptimizerSettings()
    ts = [float(t) for t in t_grid]
    if not (ts and all(a < b for a, b in zip(ts, ts[1:])) and 0.0 < ts[0] and ts[-1] < math.inf):
        raise UsageError("t_grid must be positive, finite and strictly increasing")
    norm = l1_norm(g, cfg.d)
    mus = _measure_for_thresholds(g, cfg, ts, opt)
    per_t = tuple((t, mu, t * mu / norm) for t, mu in zip(ts, mus))
    best = max(per_t, key=lambda row: row[2])
    return ConstantEstimate(
        ratio_sup=best[2],
        argmax_t=best[0],
        per_t=per_t,
        profile_digest=profile_digest(g),
    )


def sharpness_experiment(
    cfg: OperatorConfig,
    r_seq,
    t_seq,
    opt: OptimizerSettings | None = None,
) -> list[dict]:
    """Weak-type ratios for the normalized ball indicators of radii r_seq at
    thresholds t_seq, in the caller's order.  By dilation the indicator of
    radius r has at t the unit indicator's ratio at s = t r^d, so one solve
    at the distinct s gives every row: 0 where s overflows (t lies above the
    indicator's level); an s that underflows to 0 is a UsageError."""
    opt = opt or OptimizerSettings()
    rs = [float(r) for r in r_seq]
    ts = [float(t) for t in t_seq]
    if not rs:
        raise UsageError("no indicator radius given")
    if not all(0.0 < x < math.inf for x in rs + ts):
        raise UsageError("radii and thresholds must be positive and finite")
    d, g = cfg.d, normalized_indicator(1.0, cfg.d)
    # s from the mantissas and exponents of r and t, so r^d alone cannot
    # overflow; from the unit indicator's level on, every ratio is 0
    (mr, er), (mt, et) = np.frexp(rs), np.frexp(ts)
    with np.errstate(over="ignore", under="ignore"):
        s = np.minimum(np.ldexp(np.outer(mr ** d, mt), np.add.outer(er * d, et)), g.top_level)
    if not s.all():
        raise UsageError(f"t r^d underflows to 0 in d = {d}: r = {min(rs)!r}, t = {min(ts)!r}")
    est = weak_constant_estimate(g, cfg, np.unique(s).tolist(), opt)
    ratio_at = {x: ratio for x, _, ratio in est.per_t}
    bound = weak_bound(cfg)
    return [
        {"r": r, "t": t, "ratio": ratio_at[x], "bound": bound}
        for r, row in zip(rs, s.tolist())
        for t, x in zip(ts, row)
    ]


def sweep(
    d_set,
    lambda_set,
    suite,
    opt: OptimizerSettings | None = None,
    t_points: int = 12,
) -> SweepResult:
    """Weak-constant estimates for every (d, lambda, profile) cell.

    suite is either an iterable of StepProfile (reused across dimensions) or
    a callable d -> iterable of StepProfile.  A failing cell never aborts the
    sweep: it keeps its cell and threshold rows, with ratio_sup, mu, ratio
    and margin NaN and the exception text in the cell's "error" field (None
    for cells that succeed), and its message is added to the warnings.
    """
    opt = opt or OptimizerSettings()
    lam_list = [float(lam) for lam in lambda_set]
    cells = []
    rows = []
    warn_list = []
    nan = float("nan")
    for d in d_set:
        profiles = list(suite(d)) if callable(suite) else list(suite)
        for lam in lam_list:
            cfg = OperatorConfig(d, lam)
            bound = weak_bound(cfg)
            for g in profiles:
                digest = profile_digest(g)
                ts = default_t_grid(g, t_points)
                try:
                    est = weak_constant_estimate(g, cfg, ts, opt)
                    ratio_sup, per_t, error = est.ratio_sup, est.per_t, None
                except Exception as exc:  # cell-level isolation
                    error = f"{type(exc).__name__}: {exc}"
                    warn_list.append(f"cell d={d} lambda={lam:g} profile={digest}: {error}")
                    ratio_sup, per_t = nan, tuple((t, nan, nan) for t in ts)
                cells.append(
                    {
                        "d": cfg.d,
                        "lambda": lam,
                        "profile_digest": digest,
                        "ratio_sup": ratio_sup,
                        "bound": bound,
                        "margin": bound - ratio_sup,
                        "error": error,
                    }
                )
                rows.extend(threshold_rows(cfg, digest, per_t))
    return SweepResult(tuple(cells), tuple(rows), tuple(warn_list))
