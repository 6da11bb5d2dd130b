"""Independent scalar oracle for the cap and lens kernels.

The regularized incomplete beta function is evaluated here by its own
continued fraction, with no scipy, and the cap and lens volumes are built on
it with their own scalar case split.  ballmax.geometry has one cap formula
and one lens case split, both on numpy arrays: the cap is a closed form up to
d = 6 and scipy's betainc complement above.  The tests pin those kernels
against this module, and this module and the closed form against mpmath.

sample_in_ball draws uniform points of a ball the textbook way, from d
normal coordinates; it is the reference law for the (radius, axis cosine)
draws of ballmax.verify.  ball_draws and axis_coordinates are the reference
bits of those draws: a point's radius and axis cosine in the unit ball, and
the axis coordinate and distance from the axis of center e1 + s u, in the
float operations the Monte Carlo audits first used.

BallParams, feasible, average_over_ball and indicator_decomposition are
the scalar forms of the operator's pieces: one ball of the (alpha, beta)
plane, its membership in a region, its average (one ballmax.maximal
_ball_averages call) and a profile's indicator steps as tuples.

cosine_hits and exhaustive_domination are the Monte Carlo audits' plain
decisions: the lens oracle's hit test through the axis cosine itself, and
the domination audit with every ball averaged.  ballmax.verify decides the
same samples by exact inequalities that skip that work; the tests pin its
reports to these byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ballmax import verify
from ballmax.geometry import GeometryDomainError, unit_ball_volume
from ballmax.maximal import (
    OptimizerSettings,
    RegionKind,
    UsageError,
    _alpha_bounds,
    _ball_averages,
    _beta_range,
    _units,
    maximal_value_detailed,
)
from ballmax.profiles import StepProfile

_CF_EPS = 3.0e-16
_CF_TINY = 1.0e-300
_CF_MAX_ITER = 500


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta integral, evaluated with the
    # modified Lentz scheme.  Convergence is fast on the branch selected by
    # reg_inc_beta (x below the saddle (a+1)/(a+b+2)).
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        coef = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coef * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + coef / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        coef = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coef * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + coef / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation; the reflection I_x(a, b) = 1 - I_{1-x}(b, a)
    is applied on the slowly converging side of the saddle point.  Absolute
    error stays well below 1e-13 for the shape parameters of the cap formula.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise GeometryDomainError(f"shape parameters must be positive, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise GeometryDomainError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def cap_volume_ref(d: int, rho: float, h: float) -> float:
    """Cap of height h cut from a ball of radius rho, 0 <= h <= 2*rho."""
    if h == 0.0:
        return 0.0
    full = unit_ball_volume(d) * rho ** d
    # complementary argument 1 - x = ((rho - h)/rho)^2, symmetric in
    # h <-> 2*rho - h
    u = abs(rho - h) / rho
    half = 0.5 * full * (1.0 - reg_inc_beta(min(u * u, 1.0), 0.5, 0.5 * (d + 1)))
    return half if h <= rho else full - half


def lens_volume_ref(d: int, c: float, rho1: float, rho2: float) -> float:
    """B(0, rho1) intersected with B(c e1, rho2): disjoint, contained, or two
    caps split at the radical hyperplane."""
    if c >= rho1 + rho2:
        return 0.0
    if c <= abs(rho1 - rho2):
        return unit_ball_volume(d) * min(rho1, rho2) ** d
    x1 = (c * c + rho1 * rho1 - rho2 * rho2) / (2.0 * c)
    h1 = min(max(rho1 - x1, 0.0), 2.0 * rho1)
    h2 = min(max(rho2 - (c - x1), 0.0), 2.0 * rho2)
    return cap_volume_ref(d, rho1, h1) + cap_volume_ref(d, rho2, h2)


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


def feasible(region: RegionKind, lam: float, p: BallParams) -> bool:
    """Exact membership of (alpha, beta) in the region variant."""
    blo, bhi = _beta_range(region, lam)
    lo, hi = _alpha_bounds(region, lam, p.beta)
    return bool(blo <= p.beta <= bhi and lo <= p.alpha <= hi)


def average_over_ball(g: StepProfile, d: int, R: float, p: BallParams) -> float:
    """Average of g over the ball with center offset alpha*R and radius
    beta*R, as a finite sum of exact lens volumes (one lens-kernel call)."""
    if not (R > 0.0 and math.isfinite(R)):
        raise UsageError(f"R must be positive, got {R}")
    steps = g.arrays
    omega = unit_ball_volume(d)
    return float(_ball_averages(steps.step_radii, steps.step_coeffs, d, omega, p.alpha * R, p.beta * R))


def indicator_decomposition(g: StepProfile) -> tuple[tuple[float, float], ...]:
    """Write g as sum of a_k * (indicator of the ball of radius r_k).

    Coefficients are the level drops v_k - v_{k+1}; zero drops (flat runs)
    are collapsed away.
    """
    steps = g.arrays
    return tuple(zip(steps.step_radii.tolist(), steps.step_coeffs.tolist()))


def sample_in_ball(rng, n: int, d: int, radius: float = 1.0) -> np.ndarray:
    """n points uniform in B(0, radius): isotropic direction, radius u^(1/d)."""
    x = rng.standard_normal((n, d))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    x /= norms
    r = radius * rng.random(n) ** (1.0 / d)
    return x * r[:, None]


def ball_draws(rng, m: int, d: int):
    """m points uniform in the unit d-ball, as their radius r and axis
    cosine u_0: the uniforms of verify._axis_draws give u_0 (P signed by
    V - 1/2 at odd d, P cos(pi V) at even d), then m uniforms U give
    r = U^(1/d)."""
    u0, v = verify._axis_draws(rng, m, d)
    if d % 2:
        np.copysign(u0, v - 0.5, out=u0)
    else:
        u0 *= np.cos(np.pi * v)
    return rng.random(m) ** (1.0 / d), u0


def axis_coordinates(center, s, u0):
    """The axis coordinate and the distance from the axis of center e1 + s u,
    u a unit vector with axis cosine u0."""
    return center + s * u0, s * np.sqrt((1.0 - u0) * (1.0 + u0))


def cosine_hits(d: int, c: float, rho2: float, r, p, v) -> int:
    """Hits among lens-oracle band samples (r, P, V) by the product test on
    the axis cosine u_0, which is P signed by V - 1/2 at odd d and
    P cos(pi V) at even d: r (r - 2 c u_0) <= rho2^2 - c^2."""
    u0 = np.copysign(p, v - 0.5) if d % 2 else p * np.cos(np.pi * v)
    u0 *= -2.0 * c
    u0 += r
    u0 *= r
    return int(np.count_nonzero(u0 <= rho2 * rho2 - c * c))


def exhaustive_domination(g, cfg, R, mc, opt=None):
    """check_random_ball_domination with every ball averaged: the same
    draws, every ball through the search's ball-average formula in the
    search's units, in chunks of verify._MC_CHUNK, and the first worst
    violation over all of them."""
    opt = opt or OptimizerSettings()
    d, lam = cfg.d, cfg.lam
    m_star = maximal_value_detailed(g, cfg, R, RegionKind.FULL, opt).value
    rng = np.random.default_rng(mc.seed)
    n = mc.n_samples
    scale = R + g.support_radius
    rho = np.exp(rng.uniform(math.log(1e-4 * scale), math.log(10.0 * scale), n))
    if lam == 0.0:
        z_norm = np.full(n, R)
    else:
        r, u0 = ball_draws(rng, n, d)
        z_norm = np.hypot(*axis_coordinates(R, lam * rho * r, u0))
    omega, averages = unit_ball_volume(d), np.empty(n)
    unit, step_radii = _units(g, d)[1:3]
    for start in range(0, n, verify._MC_CHUNK):
        at = slice(start, start + verify._MC_CHUNK)
        averages[at] = _ball_averages(
            step_radii, g.arrays.step_coeffs, d, omega, z_norm[at] / unit, rho[at] / unit
        )
    viol = (averages - m_star) / max(m_star, 1e-300)
    i = int(np.argmax(viol))
    return verify.CheckReport(
        "random-ball-domination",
        float(viol[i]),
        2.0 * opt.rel_tol,
        (float(z_norm[i]), float(rho[i]), float(averages[i]), float(m_star)),
        f"d={d}, lambda={lam:g}, R={R:g}, {n} balls, seed={mc.seed}",
        {"supremum": float(m_star), "max_sample_average": float(np.max(averages))},
    )
