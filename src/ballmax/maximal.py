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
beta alone, on that boundary curve.

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
import math
from dataclasses import dataclass

import numpy as np

from .geometry import intersection_volume, lens_volume_array, unit_ball_volume
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
    "beta_cutoff",
    "maximal_value",
    "maximal_value_batch",
    "maximal_value_detailed",
    "pointwise_reference",
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
    """Grid sizes and stopping tolerances for the supremum search.

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
    value is the profile level at R.
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
    beta*R, as a finite sum of exact lens volumes."""
    if not (R > 0.0 and math.isfinite(R)):
        raise UsageError(f"R must be positive, got {R}")
    omega = unit_ball_volume(d)
    rad = p.beta * R
    total = 0.0
    for r_k, a_k in indicator_decomposition(g):
        total += a_k * intersection_volume(d, p.alpha * R, r_k, rad)
    return total / (omega * rad ** d)


def beta_cutoff(norm: float, d: int, R: float, best_so_far: float) -> float:
    """Smallest beta beyond which no ball can beat best_so_far.

    Any ball of radius beta*R has average at most norm / (omega_d (beta R)^d),
    so radii above the returned threshold are dominated.
    """
    if not (norm > 0.0 and R > 0.0 and best_so_far > 0.0):
        raise UsageError("norm, R and best_so_far must be positive")
    return _mass_cutoff(norm, unit_ball_volume(d), d, R, best_so_far)


def _mass_cutoff(norm, omega, d, R, best):
    # the mass-bound truncation, on floats or arrays; numpy's array power can
    # differ from Python's float power by an ulp, so each caller keeps its own
    return (norm / (omega * best)) ** (1.0 / d) / R


def pointwise_reference(cfg: OperatorConfig, R: float, norm: float) -> float:
    """Reference curve (1+lam)^d * norm / (omega_d R^d): the reciprocal volume
    of the smallest feasible ball, scaled by the profile mass.  Diagnostic
    overlay only; not assumed as a pointwise bound."""
    if not (R > 0.0 and norm > 0.0):
        raise UsageError("R and norm must be positive")
    omega = unit_ball_volume(cfg.d)
    return (1.0 + cfg.lam) ** cfg.d * norm / (omega * R ** cfg.d)


# ---------------------------------------------------------------------------
# Supremum search
# ---------------------------------------------------------------------------

_REFINE_SHRINK = 0.33
# refinement offsets in log beta, in units of the window half-width
_REFINE_STEPS = np.linspace(-1.0, 1.0, 9)[None, :]
_EXTRA_ROUNDS = 48
_TINY = 1e-300
_UNCONVERGED = "refinement did not reach rel_tol within the round budget"


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
    R = np.atleast_1d(np.asarray(R, dtype=float))
    if R.ndim != 1:
        raise UsageError("radii must form a one-dimensional array")
    if R.size == 0:
        return (np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool), ())
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
    r_col = R[:, None]

    best_val = np.full(n, -np.inf)
    best_a = np.full(n, np.nan)
    best_b = np.full(n, np.nan)
    rows = np.arange(n)

    def consider(vals, alphas, betas):
        idx = np.argmax(vals, axis=1)
        v = vals[rows, idx]
        better = v > best_val
        if better.any():
            best_val[better] = v[better]
            best_a[better] = alphas[rows, idx][better]
            best_b[better] = betas[rows, idx][better]

    def consider_boundary(betas):
        # one ball per beta, at the least feasible offset
        alphas = _least_offset(region, lam, betas)
        rad = betas * r_col
        lens = lens_volume_array(d, (alphas * r_col)[..., None], radii_k, rad[..., None])
        consider((lens @ coeff_k) / (omega * rad ** d), alphas, betas)

    # Shrinking-ball limit: alpha = 1, beta -> 0 stays feasible for the full
    # region (lam*beta + 1 >= 1) and for the upper band (alpha = 1 >= beta for
    # small beta); its value is the profile level at R.
    if region in (RegionKind.FULL, RegionKind.UPPER_BAND):
        shrink = levels_at(g, R).astype(float)
        consider(shrink[:, None], np.ones((n, 1)), np.zeros((n, 1)))

    blo_region, bhi_region = _beta_range(region, lam)
    blo = max(blo_region, opt.beta_floor)

    # Explicit candidates (includes the minimal ball and the ball just
    # covering the whole support).
    cands = _candidate_betas(region, lam, R, radii_k)
    consider_boundary(np.minimum(np.maximum(cands, blo), bhi_region))

    # Truncate the beta range using the mass bound; the incumbent is positive
    # by now (the minimal ball always meets the support).
    finite_best = np.maximum(best_val, _TINY)
    with np.errstate(over="ignore"):
        cut = _mass_cutoff(norm, omega, d, R, finite_best)
    bhi = np.minimum(bhi_region, cut)
    bhi = np.maximum(bhi, blo * (1.0 + 1e-9))

    log_lo = math.log(blo)
    log_hi = np.log(bhi)

    # Coarse and dense geometric sweeps in beta, in one kernel call.
    def geometric(count):
        t = np.linspace(0.0, 1.0, count)
        return np.exp(log_lo + (log_hi - log_lo)[:, None] * t[None, :])

    consider_boundary(
        np.concatenate([geometric(opt.beta_grid), geometric(4 * opt.beta_grid)], axis=1)
    )

    # Local refinement around the incumbent; at least refine_rounds rounds,
    # then continue until one further round improves by <= rel_tol relative.
    log_w = (log_hi - log_lo)[:, None] / (opt.beta_grid - 1) * 2.0
    bhi_col = bhi[:, None]
    unconverged = False
    for rnd in range(opt.refine_rounds + _EXTRA_ROUNDS):
        prev = best_val.copy()
        # fmax maps a missing incumbent (NaN) to blo
        center_b = np.minimum(np.fmax(best_b, blo), bhi)[:, None]
        bref = center_b * np.exp(log_w * _REFINE_STEPS)
        consider_boundary(np.minimum(np.maximum(bref, blo), bhi_col))
        log_w = log_w * _REFINE_SHRINK
        if rnd + 1 >= opt.refine_rounds and np.all(
            best_val - prev <= opt.rel_tol * np.maximum(np.abs(best_val), _TINY)
        ):
            break
    else:
        unconverged = True

    empty = ~np.isfinite(best_val)
    warnings = []
    if np.any(empty):
        best_val[empty] = 0.0
        warnings.append("empty feasible region after truncation; value reported as 0")
    if unconverged:
        warnings.append(_UNCONVERGED)
    # averages of g never exceed its top level; the clamp strips the last
    # bits of rounding noise from near-containment lens evaluations
    best_val = np.minimum(np.maximum(best_val, 0.0), g.top_level)
    return best_val, best_a, best_b, empty, tuple(warnings)


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
    vals, _, _, _, _ = _supremum_batch(g, cfg, R_values, region, opt)
    return vals


def maximal_value_detailed(
    g: StepProfile,
    cfg: OperatorConfig,
    R: float,
    region: RegionKind = RegionKind.FULL,
    opt: OptimizerSettings | None = None,
) -> MaximalResult:
    """maximal_value plus the located argmax and convergence flags."""
    opt = opt or OptimizerSettings()
    vals, a, b, empty, warns = _supremum_batch(g, cfg, [R], region, opt)
    return MaximalResult(
        value=float(vals[0]),
        alpha=float(a[0]),
        beta=float(b[0]),
        converged=_UNCONVERGED not in warns,
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
    kink candidates, a coarse and a dense geometric sweep in beta, the
    refinement points around the incumbent, and (for regions whose closure
    admits it) the shrinking-ball limit with value g(R).
    """
    return maximal_value_detailed(g, cfg, R, region, opt).value
