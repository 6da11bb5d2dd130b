"""Independent scalar oracle for the cap and lens kernels.

The regularized incomplete beta function is evaluated here by its own
continued fraction, with no scipy, and the cap and lens volumes are built on
it with their own scalar case split.  ballmax.geometry has one cap formula
and one lens case split, both on numpy arrays: the cap is a closed form up to
d = 6 and scipy's betainc complement above.  The tests pin those kernels
against this module, and this module and the closed form against mpmath.
"""

from __future__ import annotations

import math

from ballmax.geometry import GeometryDomainError, unit_ball_volume

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
