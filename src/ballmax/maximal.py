"""Pointwise evaluation of the partially centered maximal operator.

For a point x at distance R > 0 from the origin and relaxation lam, the
operator takes the supremum of averages of g over every closed ball B whose
shrunk copy lam*B (same center, radius scaled by lam) contains x.  Averaging
a radial function is invariant under rotations about the origin, so each
admissible ball can be rotated until its center lies on the ray through x:
the supremum runs over two scalars, the center offset alpha*R and the radius
beta*R, restricted to a feasible region in the (alpha, beta) plane.

For radial nonincreasing g the ball average does not increase as the center
moves away from the origin (Riesz rearrangement: the convolution of two
symmetric-decreasing functions is symmetric-decreasing).  So for each beta
the supremum sits at the least feasible offset, and the search runs over
beta alone, on that boundary curve; the reported alpha is the least offset
of the reported beta.

The search reads one knot table per radius (_knots): the betas at which
the ball on that curve leaves a profile step B(0, r_k), holds it or lies
inside it, and those at which the curve switches branch.  Between
consecutive knots each step is disjoint from the ball, a lens or contained.
The table also gives the sweep's ends.  Where the beta range starts at 0
(the full region and the upper band), below the least nonnegative leave or
inside knot, capped at 1/(1 + lam), the ball lies inside or outside each
step and averages the level g(R), the shrinking-ball incumbent.  In the
full region, from the support-covering beta on, the ball holds the support
and its average, ||g||_1 / (omega_d (beta R)^d), falls.  The lower band and
the centered shell keep their range's ends, since a lens already exists
where their ranges start.  Outside that range every lens is empty or a
whole ball, so both facts hold at every d whatever the cap kernel's
accuracy.

In one dimension the average along the curve is (A beta + B) / beta between
consecutive knots, so the search evaluates the knots and the range's least
beta, with the shrinking-ball limit, in one kernel call, and is exact up to
rounding.  In higher dimensions that first call also holds one geometric
sweep of 4 * beta_grid betas between the table's two ends.

Refinement then puts 33 points in a window around the incumbent, two sweep
steps either side at first, and each round narrows the window 16x, to the
last round's point spacing.  The window never reaches below the betas whose
balls miss the support, which far outside the support leaves a narrow
range, nor past the mass cutoff of the incumbent.  A radius stops once its
window is flat (its values spread by at most rel_tol), whatever the other
radii of a batch do, so a radius gets the same value alone or in a batch.
One whose window points are no longer distinct floats before it went flat
(kernel noise above rel_tol) is reported unconverged.  Each round is one
kernel call.

The ground-truth region is RegionKind.FULL (alpha in [0, 1],
lam*beta + alpha >= 1, which is exactly the rotated form of "x in lam*B"
with the center folded onto the nonnegative ray).  Three restricted variants
are kept purely as audited diagnostics:

* CENTERED_SHELL: centered balls with radius in [R, 2R], only meaningful at
  lam = 0.
* UPPER_BAND: alpha in [beta, beta+1] (intersected with the full region).
* LOWER_BAND: alpha in [beta-1, beta] (intersected with the full region).

Each region is defined once, by its beta range and its alpha bounds at each
beta, and the search reads only that; no alpha interval of the range is
empty.  A restricted region has a greatest beta and so a least
radius, below which the ball volumes the search needs underflow; the search
rejects such a radius (UsageError).  So it does a radius beyond about
2^53 r_K in every region: there 1 + r_K / R rounds to 1 and no ball it
searches covers the support.  Every region has a least radius, about
r_K / (1 - lam) over the largest double, below which the knots overflow.
And the search has a greatest ball radius, whose volume is a finite double:
it rejects a radius whose greatest needed ball lies beyond it (in the full
region the ball that holds the support, beyond which the average falls),
and clips the knots to it.

Every ball average (the search's and the domination audit's) is one
function, _ball_averages: a lens sum over the profile's indicator steps
(StepProfile.arrays), over the ball volume.

The reported value is a lower bound of the region supremum by construction:
every ball evaluated is a genuine feasible ball average (plus the
shrinking-ball limit, which is a limit of feasible averages).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import _is_integer, _lens_array, unit_ball_volume
from .profiles import OperatorConfig, StepProfile, l1_norm, levels_at

__all__ = [
    "UsageError",
    "RegionKind",
    "OptimizerSettings",
    "MaximalResult",
    "maximal_value",
    "maximal_value_batch",
    "maximal_value_detailed",
]


class UsageError(ValueError):
    """Operation invoked outside its stated domain."""


class RegionKind(enum.Enum):
    """Feasible-region variants for the (alpha, beta) ball parameters."""

    FULL = "full"
    CENTERED_SHELL = "centered-shell"
    UPPER_BAND = "upper-band"
    LOWER_BAND = "lower-band"


@dataclass(frozen=True)
class OptimizerSettings:
    """Grid sizes and stopping tolerances for the supremum search (d >= 2;
    the module docstring describes the search).

    beta_grid sets the geometric sweep of 4 * beta_grid betas and so the
    first refinement window, two sweep steps either side of the incumbent.
    rel_tol is the spread of a round's values, relative to the incumbent,
    at which a radius stops refining.

    alpha_grid and refine_rounds have no effect: the search evaluates one
    ball per beta, at the least feasible offset, and a window narrows until
    it is flat or collapses.  Both fields are still accepted and validated
    (alpha_grid >= 8, refine_rounds >= 1) so that existing settings keep
    working.
    """

    alpha_grid: int = 12
    beta_grid: int = 24
    refine_rounds: int = 12
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not all(_is_integer(n) and n >= 8 for n in (self.alpha_grid, self.beta_grid)):
            raise UsageError("grid counts must be at least 8")
        if not _is_integer(self.refine_rounds) or self.refine_rounds < 1:
            raise UsageError("refine_rounds must be at least 1")
        if not 0.0 < self.rel_tol <= 1e-2:
            raise UsageError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol}")


@dataclass(frozen=True)
class MaximalResult:
    """Value and argmax of the supremum search.

    beta == 0.0 marks the shrinking-ball limit (alpha = 1, beta -> 0), whose
    value is the profile level at R.  converged is False when the radius's
    window shrank below float resolution without going flat (kernel noise
    above rel_tol).
    """

    value: float
    alpha: float
    beta: float
    converged: bool
    warnings: tuple[str, ...] = ()


def _beta_range(region: RegionKind, lam: float):
    """Least and greatest beta of the region: the only check of lam against it."""
    if not 0.0 <= lam <= 1.0:
        raise UsageError(f"lambda must lie in [0, 1], got {lam}")
    if region is RegionKind.FULL:
        return 0.0, math.inf
    if region is RegionKind.CENTERED_SHELL:
        if lam != 0.0:
            raise UsageError("the centered-shell region is only defined at lambda = 0")
        return 1.0, 2.0
    if region is RegionKind.UPPER_BAND:
        return 0.0, 1.0
    if region is RegionKind.LOWER_BAND:
        # the first float with 1 - lam*beta <= beta (rounding may miss 1/(1+lam))
        least = 1.0 / (1.0 + lam)
        while 1.0 - lam * least > least:
            least = math.nextafter(least, 2.0)
        return least, 2.0
    raise UsageError(f"unknown region {region!r}")


def _alpha_bounds(region: RegionKind, lam: float, beta):
    """Least and greatest feasible alpha at each beta (scalar or array) of the
    region's range, never an empty interval; every region lies on or above the
    cut alpha = 1 - lam*beta."""
    cut = 1.0 - lam * beta
    if region is RegionKind.FULL:
        return np.maximum(0.0, cut), 1.0
    if region is RegionKind.CENTERED_SHELL:
        return (np.ones_like(beta),) * 2
    if region is RegionKind.UPPER_BAND:
        return np.maximum(beta, cut), np.minimum(1.0, beta + 1.0)
    return np.maximum(np.maximum(0.0, beta - 1.0), cut), np.minimum(beta, 1.0)


def _ball_averages(g: StepProfile, d: int, omega: float, c, rad):
    """Averages of g over the balls of radius rad centered at distance c (one
    shape, or scalars).  The kernel's (..., K) arrays, one entry per ball and
    step, are built with copyto: a call pays no broadcasting or checks."""
    steps = g.arrays
    shape = np.shape(rad) + steps.step_radii.shape
    cc, rho1, rho2 = np.empty(shape), np.empty(shape), np.empty(shape)
    np.copyto(cc, np.asarray(c)[..., None])
    np.copyto(rho1, steps.step_radii)
    np.copyto(rho2, np.asarray(rad)[..., None])
    lens = _lens_array(d, omega, cc, rho1, rho2)
    return (lens @ steps.step_coeffs) / (omega * rad ** d)


def _mass_cutoff(norm, omega, d, R, best):
    """Smallest beta beyond which no ball can beat best, on arrays R and best.

    Any ball of radius beta*R has average at most norm / (omega_d (beta R)^d),
    so radii above the returned threshold are dominated."""
    return (norm / (omega * best)) ** (1.0 / d) / R


# ---------------------------------------------------------------------------
# Supremum search
# ---------------------------------------------------------------------------

# refinement offsets in log beta, in units of the window half-width: a round
# costs mostly the fixed cost of one kernel call, so it evaluates 33 points
# and the window narrows 16x
_REFINE_STEPS = np.linspace(-1.0, 1.0, 33)[None, :]
# Each round narrows a window 16x and a collapsed window is flat, so a radius
# stops within about 16 rounds; this cap only ends the loop on a NaN
# objective, whose spread is never flat.
_MAX_ROUNDS = 60
# The least beta searched; at tiny radii the search raises it so that the
# least ball's volume stays a normal double.
_BETA_FLOOR = 1e-6
_TINY = 1e-300
# The least ball volume searched, as a multiple of the smallest normal double:
# at tiny radii (beta R)^d would underflow and an average would read 0 / 0.
# With this margin a subnormal rounding is at most 2^-104 of the ball volume.
_LEAST_VOLUME = np.finfo(float).tiny * 2.0**52
# The greatest knot, ball volume and (beta R)^d the search forms: a
# factor 4 below the largest double leaves room for the kernel's 2 rho and
# for rounding.
_GREATEST = float(np.finfo(float).max) / 4.0
_UNCONVERGED = "refinement did not reach rel_tol before its window collapsed"


@functools.lru_cache(maxsize=None)
def _unit_grid(count: int) -> np.ndarray:
    # the sweep's positions in [0, 1], built once per grid size
    grid = np.linspace(0.0, 1.0, count)
    grid.flags.writeable = False
    return grid


def _knots(region: RegionKind, lam: float, R: np.ndarray, radii_k: np.ndarray, bhi: float):
    """The knot table of the least-offset curve (module docstring), per
    radius of R: (knots, steady, cover).

    knots is (n, J): the minimal ball 1/(1 + lam), then per step r_k the
    betas where the ball holds, leaves and lies inside B(0, r_k) on the
    branch alpha = 1 - lam*beta (the shell's alpha = 1 at lam = 0), lies
    inside it on the centered branch alpha = 0 (lam > 0) and on the band's
    branch alpha = beta or beta - 1, then the branch switches 1, 2/(1 + lam)
    and 1/lam and the range top bhi, where finite.  A knot may lie off its
    branch or outside the beta range (negative, or past an end); the search
    clips every knot to the range.

    steady is the sweep's lower end: the least nonnegative leave or inside
    knot (at lam = 1 there are no inside knots), capped at 1/(1 + lam), which
    is at most the least beta of the lower band and of the centered shell.
    cover is its upper end: in the full region the support-covering beta
    (the holds knot of r_K, or r_K / R on the centered branch), elsewhere
    bhi."""
    n = R.size
    ratio = radii_k[None, :] / R[:, None]  # (n, K)
    holds, leaves = (1.0 + ratio) / (1.0 + lam), (1.0 - ratio) / (1.0 + lam)
    inside = (ratio - 1.0) / (1.0 - lam) if lam < 1.0 else np.inf
    cols = [np.full((n, 1), 1.0 / (1.0 + lam)), holds, leaves]
    cols += [inside] if lam < 1.0 else []
    cols += [ratio] if lam > 0.0 else []
    if region is RegionKind.LOWER_BAND:
        cols.append((1.0 + ratio) / 2.0)
    if region is RegionKind.UPPER_BAND:
        cols.append(ratio / 2.0)
    switches = [1.0, 2.0 / (1.0 + lam)] + ([1.0 / lam] if lam > 0.0 else [])
    cols.append(np.tile(switches + ([bhi] if bhi < math.inf else []), (n, 1)))
    # a step's leave knot is nonnegative where R lies outside it, its
    # inside knot where R lies inside it
    steady = np.minimum(np.where(leaves >= 0.0, leaves, inside).min(axis=1), 1.0 / (1.0 + lam))
    cover = np.maximum(ratio[:, -1], holds[:, -1]) if region is RegionKind.FULL else np.full(n, bhi)
    return np.concatenate(cols, axis=1), steady, cover


def _supremum_batch(g, cfg, R, region, opt):
    """Search every radius of R.  Returns per-radius arrays (value, alpha,
    beta, converged) and the warnings tuple."""
    R = np.atleast_1d(np.asarray(R, dtype=float))
    if R.ndim != 1:
        raise UsageError("radii must form a one-dimensional array")
    d, lam = cfg.d, cfg.lam
    blo_region, bhi_region = _beta_range(region, lam)
    if R.size == 0:
        return np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool), ()
    if not np.all(np.isfinite(R)) or np.any(R <= 0.0):
        raise UsageError("every radius must be positive and finite")
    r_K = float(g.support_radius)
    R_min, R_max = float(np.minimum.reduce(R)), float(np.maximum.reduce(R))
    # the knots reach (1 + r_K / R) / q: from least_R on they stay below
    # _GREATEST
    q = 1.0 - lam if lam < 1.0 else 1.0
    least_R = float(r_K / (q * _GREATEST))
    if R_min < least_R:
        raise UsageError(
            f"R = {R_min!r} lies below {least_R!r}, the least radius at lambda = {lam!r} and "
            f"r_K = {r_K!r}: below it the search's knots overflow a double"
        )
    if 1.0 + r_K / R_max == 1.0:
        raise UsageError(
            f"R = {R_max!r} lies beyond the greatest radius, about 2^53 r_K = "
            f"{2.0**53 * r_K!r}: there 1 + r_K / R rounds to 1, so no searched ball covers "
            f"the support"
        )

    radii_k = g.arrays.step_radii
    omega = unit_ball_volume(d)
    norm = l1_norm(g, d)
    n = R.size
    r_col = R[:, None]

    # Every step below is elementwise in the radius, so a radius gets the
    # same bits whether it is searched alone or in a batch.
    def fold(val, beta, betas, r_col):
        # one ball per beta, at the least feasible offset; a row's first best
        # replaces an incumbent it beats.  Returns (value, beta, maxima, values)
        alphas = _alpha_bounds(region, lam, betas)[0]
        vals = _ball_averages(g, d, omega, alphas * r_col, betas * r_col)
        at = np.arange(vals.shape[0]), vals.argmax(axis=1)
        top = vals[at]
        better = top > val
        return np.where(better, top, val), np.where(better, betas[at], beta), top, vals

    # Shrinking-ball limit alpha = 1, beta -> 0 (reported as beta = 0): in the
    # closure of every region whose beta range starts at 0; its value is the
    # profile level at R.
    best_val = levels_at(g, R) if blo_region == 0.0 else np.full(n, -np.inf)
    best_b = np.full(n, 0.0 if blo_region == 0.0 else np.nan)

    # per radius, the floor keeps the least ball's volume a normal double and
    # the ceiling keeps the greatest ball's volume finite
    least_rad = (_LEAST_VOLUME / omega) ** (1.0 / d)
    greatest_rad = float((_GREATEST / max(omega, 1.0)) ** (1.0 / d))
    blo = np.maximum(max(blo_region, _BETA_FLOOR), least_rad / R)
    if np.logical_or.reduce(blo > bhi_region):
        raise UsageError(
            f"R = {R_min!r} lies below {float(least_rad / bhi_region)!r}, the least "
            f"radius of the {region.value} region at d = {d}: smaller balls' volumes underflow"
        )
    # The greatest ball the search needs is the sweep's upper end: in the
    # full region the ball that holds the support (beyond it the average
    # falls), in a restricted one the top of its range.
    knots, steady, cover = _knots(region, lam, R, radii_k, bhi_region)
    top = float(np.maximum.reduce(cover * R))
    if top > greatest_rad:
        raise UsageError(
            f"R = {R_max!r} at d = {d}: the greatest ball the {region.value} search needs, of "
            f"radius {top!r}, lies above {greatest_rad!r}, the greatest radius whose "
            f"ball volume the search keeps finite"
        )
    # The knots reach radius (R + r_K) / q, 2 R and R / lam; only where that
    # passes greatest_rad are they clipped per radius.
    bhi_knots = bhi_region
    if max((R_max + r_K) / q, 2.0 * R_max, R_max / lam if lam > 0.0 else 0.0) > greatest_rad:
        with np.errstate(over="ignore"):
            bhi_knots = np.minimum(bhi_region, greatest_rad / r_col)
    # every knot clipped to the range is a genuine ball
    betas = np.minimum(np.maximum(knots, blo[:, None]), bhi_knots)
    if d == 1:
        # with the range's least beta the search is exact (module docstring)
        betas = np.concatenate([betas, np.minimum(blo[:, None], bhi_knots)], axis=1)
        best_val, best_b = fold(best_val, best_b, betas, r_col)[:2]
        return _finish(g, region, lam, best_val, best_b, np.ones(n, dtype=bool))

    # One geometric sweep between the table's ends shares the knots' kernel
    # call (module docstring).
    lo = np.maximum(blo, steady)
    end = np.maximum(cover, lo)
    t = _unit_grid(4 * opt.beta_grid)
    log_lo = np.log(lo)
    log_span = np.log(end) - log_lo
    sweep = np.exp(log_lo[:, None] + log_span[:, None] * t[None, :])
    betas = np.concatenate([betas, sweep], axis=1)
    best_val, best_b = fold(best_val, best_b, betas, r_col)[:2]

    # Truncate the beta range using the mass bound, within the region; the
    # incumbent is positive by now (the minimal ball always meets the support).
    with np.errstate(over="ignore"):
        cut = _mass_cutoff(norm, omega, d, R, np.maximum(best_val, _TINY))
    bhi = np.minimum(np.maximum(cut, blo * (1.0 + 1e-9)), bhi_region)

    # Local refinement around the incumbent.  A radius stops once its window
    # is flat: the round's values spread by at most rel_tol relative to the
    # incumbent.  live holds the radii still refining, and val, beta, lo, hi,
    # log_w and r_col their incumbents, beta ranges, half-widths and radii;
    # only those radii are evaluated.  A window whose points are no longer
    # distinct floats is flat without evidence; such a radius is reported
    # unconverged.  The window stays in [lo, bhi]: no ball outside beats the
    # incumbent.  It starts two sweep steps wide on either side, or as wide
    # as that range, and each round narrows to the last round's point
    # spacing.  A radius whose window is empty (lo >= bhi), or whose balls
    # from lo on all hold the support (lo >= end), has no ball left that
    # could beat its incumbent, and is done before the first round.
    log_w = np.minimum(2.0 * log_span / (t.size - 1), np.log(bhi / lo))
    converged = lo >= np.minimum(bhi, end)
    live = np.flatnonzero(~converged)
    val, beta, lo, hi, log_w, r_col = (x[live] for x in (best_val, best_b, lo, bhi, log_w, r_col))
    for _ in range(_MAX_ROUNDS):
        if live.size == 0:
            break
        # fmax maps a missing incumbent (NaN) to lo
        center = np.minimum(np.fmax(beta, lo), hi)[:, None]
        bref = center * np.exp(log_w[:, None] * _REFINE_STEPS)
        betas = np.minimum(np.maximum(bref, lo[:, None]), hi[:, None])
        val, beta, top, vals = fold(val, beta, betas, r_col)
        spread = top - np.minimum.reduce(vals, axis=1)
        flat = spread <= opt.rel_tol * np.maximum(np.abs(val), _TINY)
        if np.logical_or.reduce(flat):
            done = live[flat]
            best_val[done], best_b[done] = val[flat], beta[flat]
            pts = bref[flat]
            converged[done] = np.logical_and.reduce(pts[:, 1:] > pts[:, :-1], axis=1)
            keep = ~flat
            live, val, beta, lo, hi, log_w, r_col = (
                x[keep] for x in (live, val, beta, lo, hi, log_w, r_col)
            )
        log_w = log_w * (_REFINE_STEPS[0, 1] - _REFINE_STEPS[0, 0])
    best_val[live], best_b[live] = val, beta
    return _finish(g, region, lam, best_val, best_b, converged)


def _finish(g, region, lam, best_val, best_b, converged):
    warnings = () if converged.all() else (_UNCONVERGED,)
    # averages of g never exceed its top level; the clamp strips the last
    # bits of rounding noise from near-containment lens evaluations
    best_val = np.minimum(np.maximum(best_val, 0.0), g.top_level)
    # each ball sits at its beta's least offset: alpha = 1 for the limit, beta = 0
    best_a = _alpha_bounds(region, lam, best_b)[0]
    return best_val, best_a, best_b, converged, warnings


def maximal_value_batch(
    g: StepProfile,
    cfg: OperatorConfig,
    R_values,
    region: RegionKind = RegionKind.FULL,
    opt: OptimizerSettings | None = None,
) -> np.ndarray:
    """Operator values at several radii in one call (same contract as
    maximal_value entrywise)."""
    opt = opt or OptimizerSettings()
    return _supremum_batch(g, cfg, R_values, region, opt)[0]


def maximal_value_detailed(
    g: StepProfile,
    cfg: OperatorConfig,
    R: float,
    region: RegionKind = RegionKind.FULL,
    opt: OptimizerSettings | None = None,
) -> MaximalResult:
    """maximal_value plus the located argmax and convergence flags."""
    opt = opt or OptimizerSettings()
    vals, a, b, converged, warns = _supremum_batch(g, cfg, [R], region, opt)
    return MaximalResult(
        value=float(vals[0]),
        alpha=float(a[0]),
        beta=float(b[0]),
        converged=bool(converged[0]),
        warnings=warns,
    )


def maximal_value(
    g: StepProfile,
    cfg: OperatorConfig,
    R: float,
    region: RegionKind = RegionKind.FULL,
    opt: OptimizerSettings | None = None,
) -> float:
    """Lower-bounding estimate of the supremum of ball averages at radius R.

    Every value evaluated is a feasible ball average on the least-offset
    boundary curve, or the shrinking-ball limit g(R) for regions whose
    closure admits it; the module docstring describes the search.  At d = 1
    the value is exact up to rounding.
    """
    return maximal_value_detailed(g, cfg, R, region, opt).value
