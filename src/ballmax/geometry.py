"""Exact d-dimensional ball, cap and lens (two-ball intersection) volumes.

Every off-origin ball handled here has its center on the positive first
coordinate axis.  Rotational symmetry about the origin folds all the
configurations used elsewhere in the package onto that axis, so a single
ball is a pair (center offset, radius) and a two-ball configuration is a
triple (center distance, radius, radius).

All functions are pure and deterministic and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc as _betainc_ufunc

MAX_DIMENSION = 30

__all__ = [
    "MAX_DIMENSION",
    "GeometryDomainError",
    "AxisBall",
    "unit_ball_volume",
    "reg_inc_beta",
    "cap_volume",
    "intersection_volume",
    "cap_volume_array",
    "lens_volume_array",
]


class GeometryDomainError(ValueError):
    """An argument lies outside the geometric domain of the operation."""


def _check_dimension(d) -> int:
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise GeometryDomainError(f"dimension must be an integer, got {d!r}")
    if not 1 <= d <= MAX_DIMENSION:
        raise GeometryDomainError(
            f"dimension must lie in [1, {MAX_DIMENSION}], got {d}"
        )
    return int(d)


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d, pi^(d/2) / Gamma(d/2 + 1)."""
    d = _check_dimension(d)
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# Regularized incomplete beta function
# ---------------------------------------------------------------------------

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
    error stays well below 1e-13 for the parameter ranges accepted here.
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


# ---------------------------------------------------------------------------
# Caps and lenses (scalar, continued-fraction backed)
# ---------------------------------------------------------------------------

def cap_volume(d: int, rho: float, h: float) -> float:
    """Volume of the cap of height h cut from a ball of radius rho in R^d.

    The height is measured along the axis from the cutting hyperplane to the
    nearest point of the sphere, so h = rho is a half ball and h = 2*rho the
    whole ball.
    """
    d = _check_dimension(d)
    if not (rho > 0.0 and math.isfinite(rho)):
        raise GeometryDomainError(f"cap radius must be positive, got {rho}")
    if not 0.0 <= h <= 2.0 * rho:
        raise GeometryDomainError(f"cap height must lie in [0, {2.0 * rho}], got {h}")
    if h == 0.0:
        return 0.0
    full = unit_ball_volume(d) * rho ** d
    # The textbook argument x = (2 rho h - h^2) / rho^2 loses half its digits
    # near x = 1, where dI/dx blows up like (1-x)^(-1/2).  Its complement
    # 1 - x = ((rho - h)/rho)^2 is an exact product, so evaluate through the
    # reflection I_x(a, 1/2) = 1 - I_{1-x}(1/2, a).  The value is symmetric
    # under h <-> 2*rho - h, covering both the cap and its complement.
    u = abs(rho - h) / rho
    frac = 1.0 - reg_inc_beta(min(u * u, 1.0), 0.5, 0.5 * (d + 1))
    half = 0.5 * full * frac
    return half if h <= rho else full - half


def intersection_volume(d: int, c: float, rho1: float, rho2: float) -> float:
    """Volume of B(0, rho1) intersected with the ball of radius rho2 centered
    at distance c along the first axis.

    Case split: disjoint for c >= rho1 + rho2, containment for
    c <= |rho1 - rho2| (ties resolve to 0 and the containment value
    respectively; the function is continuous across both boundaries), and
    otherwise a lens equal to two caps split at the radical hyperplane.
    """
    d = _check_dimension(d)
    if not (c >= 0.0 and math.isfinite(c)):
        raise GeometryDomainError(f"center distance must be nonnegative, got {c}")
    if not (rho1 > 0.0 and math.isfinite(rho1)) or not (rho2 > 0.0 and math.isfinite(rho2)):
        raise GeometryDomainError(f"radii must be positive, got {rho1}, {rho2}")
    if c >= rho1 + rho2:
        return 0.0
    if c <= abs(rho1 - rho2):
        return unit_ball_volume(d) * min(rho1, rho2) ** d
    # Radical hyperplane at x1 = (c^2 + rho1^2 - rho2^2) / (2c).
    x1 = (c * c + rho1 * rho1 - rho2 * rho2) / (2.0 * c)
    h1 = min(max(rho1 - x1, 0.0), 2.0 * rho1)
    h2 = min(max(rho2 - (c - x1), 0.0), 2.0 * rho2)
    return cap_volume(d, rho1, h1) + cap_volume(d, rho2, h2)


# ---------------------------------------------------------------------------
# Vectorized kernels for the optimizer hot path
# ---------------------------------------------------------------------------
# These mirror cap_volume / intersection_volume on numpy arrays.  The beta
# function comes from scipy's C ufunc here purely for speed; agreement with
# the scalar continued-fraction path is pinned by the test suite.  One cap
# formula, _cap_array, serves both kernels: lens_volume_array stacks the two
# caps of every lens entry into one _cap_array call, so a lens call makes at
# most one betainc call.

def _cap_array(d: int, rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    # rho and h share one shape, with 0 <= h <= 2*rho
    full = unit_ball_volume(d) * rho ** d
    # complementary-argument evaluation; see cap_volume
    u = np.abs(rho - h) / rho
    frac = 1.0 - _betainc_ufunc(0.5, 0.5 * (d + 1), np.minimum(u * u, 1.0))
    half = 0.5 * full * frac
    return np.where(h <= rho, half, full - half)


def cap_volume_array(d: int, rho, h) -> np.ndarray:
    """Vectorized cap volume; inputs broadcast, heights clipped to [0, 2*rho]."""
    d = _check_dimension(d)
    rho, h = np.broadcast_arrays(np.asarray(rho, float), np.asarray(h, float))
    return _cap_array(d, rho, np.minimum(np.maximum(h, 0.0), 2.0 * rho))


def lens_volume_array(d: int, c, rho1, rho2) -> np.ndarray:
    """Vectorized two-ball intersection volume with the same case split as
    intersection_volume."""
    d = _check_dimension(d)
    c, rho1, rho2 = np.broadcast_arrays(
        np.asarray(c, float), np.asarray(rho1, float), np.asarray(rho2, float)
    )
    if d == 1:
        # min-of-differences form; avoids the cancellation of the naive
        # interval endpoints when one radius is tiny
        overlap = np.minimum(np.minimum(rho1 + rho2 - c, 2.0 * rho1), 2.0 * rho2)
        return np.maximum(overlap, 0.0)
    contain = c <= np.abs(rho1 - rho2)
    out = np.where(contain, unit_ball_volume(d) * np.minimum(rho1, rho2) ** d, 0.0)
    lens = (~contain) & (c < rho1 + rho2)
    if lens.any():
        cc = c[lens]
        r1 = rho1[lens]
        r2 = rho2[lens]
        x1 = (cc * cc + r1 * r1 - r2 * r2) / (2.0 * cc)
        # both caps of each lens, stacked: the radical hyperplane lies at
        # distance x1 from the first center and cc - x1 from the second
        r = np.concatenate((r1, r2))
        h = np.minimum(np.maximum(r - np.concatenate((x1, cc - x1)), 0.0), 2.0 * r)
        caps = _cap_array(d, r, h)
        out[lens] = caps[: cc.size] + caps[cc.size :]
    return out


@dataclass(frozen=True)
class AxisBall:
    """Closed ball whose center sits on the nonnegative first semi-axis."""

    center_offset: float
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise GeometryDomainError(f"ball radius must be positive, got {self.radius}")
        if not (self.center_offset >= 0.0 and math.isfinite(self.center_offset)):
            raise GeometryDomainError(
                f"center offset must be nonnegative, got {self.center_offset}"
            )

    def volume(self, d: int) -> float:
        return unit_ball_volume(d) * self.radius ** d

    def contains(self, points, tol: float = 0.0) -> np.ndarray:
        """Closed-ball membership for points of shape (..., d)."""
        pts = np.array(points, dtype=float, copy=True)
        pts[..., 0] -= self.center_offset
        dist = np.sqrt(np.sum(pts * pts, axis=-1))
        return dist <= self.radius + tol
