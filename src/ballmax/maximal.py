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
beta alone, on that boundary curve.  In one dimension the average along the
curve is (A beta + B) / beta between the kinks, so there the search
evaluates only the kinks, the branch switches of the curve, the ends of the
beta range and the shrinking-ball limit, and is exact up to rounding.  In
higher dimensions it adds one geometric sweep in beta and a window around the
incumbent that narrows each round; a radius stops once its window is flat
(its values spread by at most rel_tol), whatever the other radii of a batch
do, so a radius gets the same value alone or in a batch.  Where the cap
kernel is exact to rounding (d <= 6) the window never reaches below the
betas whose balls miss the support, which far outside the support leaves a
narrow range.

The ground-truth region is RegionKind.FULL (alpha in [0, 1],
lam*beta + alpha >= 1, which is exactly the rotated form of "x in lam*B"
with the center folded onto the nonnegative ray).  Three restricted variants
are kept purely as audited diagnostics:

* CENTERED_SHELL: centered balls with radius in [R, 2R], only meaningful at
  lam = 0.
* UPPER_BAND: alpha in [beta, beta+1] (intersected with alpha in [0, 1]).
* LOWER_BAND: alpha in [beta-1, beta] (intersected with alpha in [0, 1]).

The reported value is a lower bound of the region supremum by construction:
every candidate evaluated is a genuine feasible ball average (plus the
shrinking-ball limit, which is a limit of feasible averages).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import _QUIET_DIM, _lens_array, unit_ball_volume
from .profiles import (
    OperatorConfig,
    StepProfile,
    indicator_decomposition,
    l1_norm,
    levels_at,
)

__all__ = [
    "UsageError",
    "RegionKind",
    "BallParams",
    "OptimizerSettings",
    "MaximalResult",
    "feasible",
    "average_over_ball",
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
class BallParams:
    """Candidate ball: center offset alpha*R, radius beta*R."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise UsageError(f"alpha must be nonnegative, got {self.alpha}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise UsageError(f"beta must be positive, got {self.beta}")


@dataclass(frozen=True)
class OptimizerSettings:
    """Grid sizes and stopping tolerances for the supremum search (d >= 2).

    beta_grid sets the one geometric sweep of 4 * beta_grid betas and the
    first refinement window: two sweep steps either side of the incumbent,
    or at d >= 7, where the lens kernel is noisy, two steps of a
    beta_grid-point grid.  Up to d = 6 the window stays above the betas
    whose balls on the least-offset curve miss the support, so far outside
    the support it starts no wider than the betas that remain.  beta_floor
    is the least beta searched; at tiny radii the search raises it so that
    the least ball's volume stays a normal double.  A radius stops refining
    once a round's values spread by at most rel_tol relative to its
    incumbent.  refine_rounds only caps the rounds (the budget is
    refine_rounds plus a fixed number of extra rounds); it is not a minimum.
    A radius still refining when the budget runs out, or whose window has
    shrunk below float resolution before it went flat, is reported
    unconverged.

    alpha_grid has no effect: the search evaluates one ball per beta, at the
    least feasible offset.  The field is still accepted and validated
    (>= 8) so that existing settings keep working.
    """

    alpha_grid: int = 12
    beta_grid: int = 24
    refine_rounds: int = 12
    rel_tol: float = 1e-6
    beta_floor: float = 1e-6

    def __post_init__(self):
        if self.alpha_grid < 8 or self.beta_grid < 8:
            raise UsageError("grid counts must be at least 8")
        if self.refine_rounds < 1:
            raise UsageError("refine_rounds must be at least 1")
        if not 0.0 < self.rel_tol <= 1e-2:
            raise UsageError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol}")
        if not self.beta_floor > 0.0:
            raise UsageError(f"beta_floor must be positive, got {self.beta_floor}")


@dataclass(frozen=True)
class MaximalResult:
    """Value and argmax of the supremum search.

    beta == 0.0 marks the shrinking-ball limit (alpha = 1, beta -> 0), whose
    value is the profile level at R.  converged is False when the radius was
    still refining when the round budget ran out, or when its window shrank
    below float resolution without going flat (kernel noise above rel_tol).
    """

    value: float
    alpha: float
    beta: float
    converged: bool
    empty_region: bool = False
    warnings: tuple[str, ...] = ()


def feasible(region: RegionKind, lam: float, p: BallParams) -> bool:
    """Exact membership of (alpha, beta) in the region variant."""
    if not 0.0 <= lam <= 1.0:
        raise UsageError(f"lambda must lie in [0, 1], got {lam}")
    a, b = p.alpha, p.beta
    if region is RegionKind.FULL:
        return 0.0 <= a <= 1.0 and lam * b + a >= 1.0
    if region is RegionKind.CENTERED_SHELL:
        if lam != 0.0:
            raise UsageError("the centered-shell region is only defined at lambda = 0")
        return a == 1.0 and 1.0 <= b <= 2.0
    if region is RegionKind.UPPER_BAND:
        return b <= a <= b + 1.0 and 0.0 <= a <= 1.0 and lam * b + a >= 1.0
    if region is RegionKind.LOWER_BAND:
        return max(0.0, b - 1.0) <= a <= min(b, 1.0) and lam * b + a >= 1.0
    raise UsageError(f"unknown region {region!r}")


def _least_offset(region: RegionKind, lam: float, beta: np.ndarray) -> np.ndarray:
    """Smallest feasible alpha per beta (array).  Where rounding empties the
    interval (hi < lo by an ulp at a region edge) the upper bound is used, so
    the ball stays inside the region."""
    if region is RegionKind.FULL:
        return np.maximum(0.0, 1.0 - lam * beta)
    if region is RegionKind.CENTERED_SHELL:
        return np.ones_like(beta)
    if region is RegionKind.UPPER_BAND:
        lo = np.maximum(beta, 1.0 - lam * beta)
        hi = np.minimum(1.0, beta + 1.0)
    elif region is RegionKind.LOWER_BAND:
        lo = np.maximum(np.maximum(0.0, beta - 1.0), 1.0 - lam * beta)
        hi = np.minimum(beta, 1.0)
    else:  # pragma: no cover
        raise UsageError(f"unknown region {region!r}")
    return np.minimum(lo, hi)


def _beta_range(region: RegionKind, lam: float):
    if region is RegionKind.FULL:
        return 0.0, math.inf
    if region is RegionKind.CENTERED_SHELL:
        return 1.0, 2.0
    if region is RegionKind.UPPER_BAND:
        return 0.0, 1.0
    return 1.0 / (1.0 + lam), 2.0


def average_over_ball(g: StepProfile, d: int, R: float, p: BallParams) -> float:
    """Average of g over the ball with center offset alpha*R and radius
    beta*R, as a finite sum of exact lens volumes (one lens-kernel call)."""
    if not (R > 0.0 and math.isfinite(R)):
        raise UsageError(f"R must be positive, got {R}")
    omega = unit_ball_volume(d)
    decomp = indicator_decomposition(g)
    radii_k = np.array([r for r, _ in decomp])
    coeff_k = np.array([a for _, a in decomp])
    rad = p.beta * R
    lens = _lens_array(
        d, omega, np.full(radii_k.shape, p.alpha * R), radii_k, np.full(radii_k.shape, rad)
    )
    return float(lens @ coeff_k) / (omega * rad ** d)


def _mass_cutoff(norm, omega, d, R, best):
    """Smallest beta beyond which no ball can beat best, on arrays R and best.

    Any ball of radius beta*R has average at most norm / (omega_d (beta R)^d),
    so radii above the returned threshold are dominated."""
    return (norm / (omega * best)) ** (1.0 / d) / R


# ---------------------------------------------------------------------------
# Supremum search
# ---------------------------------------------------------------------------

# refinement offsets in log beta, in units of the window half-width
_REFINE_STEPS = np.linspace(-1.0, 1.0, 9)[None, :]
_REFINE_SPACING = _REFINE_STEPS[0, 1] - _REFINE_STEPS[0, 0]
_EXTRA_ROUNDS = 48
_TINY = 1e-300
# The least ball volume searched, as a multiple of the smallest normal double:
# at tiny radii (beta R)^d would underflow and an average would read 0 / 0.
# With this margin a subnormal rounding is at most 2^-104 of the ball volume.
_LEAST_VOLUME = np.finfo(float).tiny * 2.0**52
_UNCONVERGED = "refinement did not reach rel_tol within the round budget"


@functools.lru_cache(maxsize=None)
def _unit_grid(count: int) -> np.ndarray:
    # the sweep's positions in [0, 1], built once per grid size
    grid = np.linspace(0.0, 1.0, count)
    grid.flags.writeable = False
    return grid


def _candidate_betas(region: RegionKind, lam: float, R: np.ndarray, radii_k: np.ndarray):
    """Heuristic beta candidates: the minimal feasible ball plus the radii at
    which a ball on the least-offset boundary curve touches a profile
    breakpoint (the kinks of the one-dimensional boundary objective).

    Values may fall outside the feasible beta range; callers clip them, which
    at worst duplicates an endpoint.
    """
    n = R.size
    ratio = radii_k[None, :] / R[:, None]  # (n, K)
    cands = [np.full((n, 1), 1.0 / (1.0 + lam))]
    if region in (RegionKind.FULL, RegionKind.UPPER_BAND, RegionKind.LOWER_BAND):
        # boundary curve alpha = 1 - lam*beta: inner/outer edge meets r_k
        cands.append((1.0 + ratio) / (1.0 + lam))
        cands.append((1.0 - ratio) / (1.0 + lam))
        if lam < 1.0:
            cands.append((ratio - 1.0) / (1.0 - lam))
        if lam > 0.0:
            cands.append(ratio)  # centered branch alpha = 0
    if region is RegionKind.CENTERED_SHELL or lam == 0.0:
        # centered balls: edges at R(1 -+ beta)
        cands.append(np.abs(1.0 - ratio))
        cands.append(1.0 + ratio)
    if region is RegionKind.LOWER_BAND:
        cands.append((1.0 + ratio) / 2.0)  # branch alpha = beta - 1
    if region is RegionKind.UPPER_BAND:
        cands.append(ratio / 2.0)  # branch alpha = beta
    return np.concatenate(cands, axis=1)


def _supremum_batch(g, cfg, R, region, opt):
    """Search every radius of R.  Returns per-radius arrays (value, alpha,
    beta, empty region), the warnings tuple, and the per-radius converged
    array."""
    R = np.atleast_1d(np.asarray(R, dtype=float))
    if R.ndim != 1:
        raise UsageError("radii must form a one-dimensional array")
    if R.size == 0:
        none = np.zeros(0, dtype=bool)
        return np.zeros(0), np.zeros(0), np.zeros(0), none, (), none
    if not np.all(np.isfinite(R)) or np.any(R <= 0.0):
        raise UsageError("every radius must be positive and finite")
    d, lam = cfg.d, cfg.lam
    if region is RegionKind.CENTERED_SHELL and lam != 0.0:
        raise UsageError("the centered-shell region is only defined at lambda = 0")

    decomp = indicator_decomposition(g)
    radii_k = np.array([r for r, _ in decomp])
    coeff_k = np.array([a for _, a in decomp])
    omega = unit_ball_volume(d)
    norm = l1_norm(g, d)
    n = R.size

    best_val = np.full(n, -np.inf)
    best_a = np.full(n, np.nan)
    best_b = np.full(n, np.nan)
    rows = np.arange(n)

    # Every step below is elementwise in the radius, so a radius gets the
    # same bits whether it is searched alone or in a batch.
    def consider(idx, vals, alphas, betas):
        # fold each row's best candidate into the incumbents of radii idx;
        # returns the row maxima
        top = np.maximum.reduce(vals, axis=1)
        better = top > best_val[idx]
        if np.logical_or.reduce(better):
            k = better.nonzero()[0]
            j = vals[k].argmax(axis=1)
            up = idx[k]
            best_val[up] = top[k]
            best_a[up] = alphas[k, j]
            best_b[up] = betas[k, j]
        return top

    def consider_boundary(idx, betas):
        # one ball per beta, at the least feasible offset; the kernel gets
        # one (len(idx), m, K) entry per radius, beta and profile step
        alphas = _least_offset(region, lam, betas)
        r_col = R[idx, None]
        rad = betas * r_col
        shape = betas.shape + radii_k.shape
        c, rho1, rho2 = np.empty(shape), np.empty(shape), np.empty(shape)
        np.copyto(c, (alphas * r_col)[..., None])
        np.copyto(rho1, radii_k)
        np.copyto(rho2, rad[..., None])
        lens = _lens_array(d, omega, c, rho1, rho2)
        vals = (lens @ coeff_k) / (omega * rad ** d)
        return consider(idx, vals, alphas, betas), vals

    # Shrinking-ball limit: alpha = 1, beta -> 0 stays feasible for the full
    # region (lam*beta + 1 >= 1) and for the upper band (alpha = 1 >= beta for
    # small beta); its value is the profile level at R.
    if region in (RegionKind.FULL, RegionKind.UPPER_BAND):
        shrink = levels_at(g, R).astype(float)
        consider(rows, shrink[:, None], np.ones((n, 1)), np.zeros((n, 1)))

    blo_region, bhi_region = _beta_range(region, lam)
    blo_opt = max(blo_region, opt.beta_floor)
    # per radius, the floor keeps the least ball's volume a normal double
    blo = np.maximum(blo_opt, (_LEAST_VOLUME / omega) ** (1.0 / d) / R)

    # Explicit candidates (includes the minimal ball and the ball just
    # covering the whole support).
    cands = _candidate_betas(region, lam, R, radii_k)
    if d == 1:
        # the branch switches of _least_offset and the low end of the range
        extra = [1.0, 2.0 / (1.0 + lam)] + ([1.0 / lam] if lam > 0.0 else [])
        cands = np.concatenate([cands, np.tile(extra, (n, 1)), blo[:, None]], axis=1)
    consider_boundary(rows, np.minimum(np.maximum(cands, blo[:, None]), bhi_region))

    # Truncate the beta range using the mass bound; the incumbent is positive
    # by now (the minimal ball always meets the support).
    finite_best = np.maximum(best_val, _TINY)
    with np.errstate(over="ignore"):
        cut = _mass_cutoff(norm, omega, d, R, finite_best)
    bhi = np.minimum(bhi_region, cut)
    bhi = np.maximum(bhi, blo * (1.0 + 1e-9))

    if d == 1:
        # In one dimension the overlap of each profile step with a ball on
        # the boundary curve is piecewise linear in beta, so the average is
        # (A beta + B) / beta between consecutive candidates: monotone, with
        # its supremum at a candidate, an end of [blo, bhi] or the
        # shrinking-ball limit.  The search is exact up to rounding.
        consider_boundary(rows, bhi[:, None])
        return _finish(g, best_val, best_a, best_b, np.ones(n, dtype=bool))

    # One geometric sweep in beta, in one kernel call.  Where the floor does
    # not bind, math.log keeps the bits (np.log differs in the last bit at a
    # few arguments).
    log_lo = np.where(blo > blo_opt, np.log(blo), math.log(blo_opt))
    log_span = np.log(bhi) - log_lo
    t = _unit_grid(4 * opt.beta_grid)
    consider_boundary(rows, np.exp(log_lo[:, None] + log_span[:, None] * t[None, :]))

    # Local refinement around the incumbent.  A radius stops once its window
    # is flat: its nine values spread by at most rel_tol relative to the
    # incumbent.  live, log_w, lo and hi hold the radii still refining, their
    # half-widths and their beta ranges; only those radii are evaluated.  A
    # window that has collapsed (its end points are one float) is flat
    # without evidence; such a radius, and one still live when the round
    # budget runs out, is reported unconverged.
    if d <= _QUIET_DIM:
        # Below lo every ball on the least-offset curve misses the support
        # (alpha - beta >= 1 - (1 + lam) beta > r_K / R) and averages 0, so
        # the window stays in [lo, bhi].  It starts two sweep steps wide on
        # either side, or as wide as that range, and each round narrows to
        # the last round's point spacing.
        lo = np.minimum(np.maximum(blo, (1.0 - radii_k[-1] / R) / (1.0 + lam)), bhi)
        log_w = np.minimum(2.0 * log_span / (t.size - 1), np.log(bhi / lo))
        shrink = _REFINE_SPACING
    else:
        # On a noisy objective a window that narrow, or that closes that
        # fast, settles on lower noise peaks (up to 2.5e-5 lower at d = 10).
        # This one starts two steps of a beta_grid-point grid wide and
        # narrows to a third each round, so its stencils interleave.
        lo, log_w, shrink = blo, 2.0 * log_span / (opt.beta_grid - 1), 0.33
    live, hi = rows, bhi
    converged = np.zeros(n, dtype=bool)
    for _ in range(opt.refine_rounds + _EXTRA_ROUNDS):
        # fmax maps a missing incumbent (NaN) to lo
        center_b = np.minimum(np.fmax(best_b[live], lo), hi)[:, None]
        bref = center_b * np.exp(log_w[:, None] * _REFINE_STEPS)
        top, vals = consider_boundary(
            live, np.minimum(np.maximum(bref, lo[:, None]), hi[:, None])
        )
        spread = top - np.minimum.reduce(vals, axis=1)
        flat = spread <= opt.rel_tol * np.maximum(np.abs(best_val[live]), _TINY)
        if np.logical_or.reduce(flat):
            converged[live[flat & (bref[:, 0] < bref[:, -1])]] = True
            keep = ~flat
            live, log_w, lo, hi = live[keep], log_w[keep], lo[keep], hi[keep]
            if live.size == 0:
                break
        log_w = log_w * shrink
    return _finish(g, best_val, best_a, best_b, converged)


def _finish(g, best_val, best_a, best_b, converged):
    empty = ~np.isfinite(best_val)
    warnings = []
    if np.any(empty):
        best_val[empty] = 0.0
        warnings.append("empty feasible region after truncation; value reported as 0")
    if not converged.all():
        warnings.append(_UNCONVERGED)
    # averages of g never exceed its top level; the clamp strips the last
    # bits of rounding noise from near-containment lens evaluations
    best_val = np.minimum(np.maximum(best_val, 0.0), g.top_level)
    return best_val, best_a, best_b, empty, tuple(warnings), converged


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
    vals, a, b, empty, warns, converged = _supremum_batch(g, cfg, [R], region, opt)
    return MaximalResult(
        value=float(vals[0]),
        alpha=float(a[0]),
        beta=float(b[0]),
        converged=bool(converged[0]),
        empty_region=bool(empty[0]),
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

    Every candidate lies on the least-offset boundary curve: the explicit
    kink candidates, one geometric sweep of 4 * beta_grid betas, the
    refinement points around the incumbent, and (for regions whose closure
    admits it) the shrinking-ball limit with value g(R).  Refinement starts
    two sweep steps either side of the incumbent, kept above the betas whose
    balls miss the support, and narrows to the point spacing each round (at
    d >= 7, where the lens kernel is noisy, without that floor: two steps of
    a beta_grid-point grid, narrowing to a third), and stops once a round's
    nine values spread by at most rel_tol relative to the incumbent.  At
    d = 1 the kinks, the curve's branch switches, the ends of the
    mass-truncated beta range and the shrinking-ball limit are the only
    candidates; the average is monotone between them, so the value is exact
    up to rounding.
    """
    return maximal_value_detailed(g, cfg, R, region, opt).value
