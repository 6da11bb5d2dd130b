"""Exact d-dimensional ball, cap and lens (two-ball intersection) volumes.

Every off-origin ball handled here has its center on the positive first
coordinate axis.  Rotational symmetry about the origin folds all the
configurations used elsewhere in the package onto that axis, so a single
ball is a pair (center offset, radius) and a two-ball configuration is a
triple (center distance, radius, radius).

All functions are pure and deterministic and safe to call concurrently.
"""

from __future__ import annotations

import functools
import math

import numpy as np

MAX_DIMENSION = 30

__all__ = [
    "MAX_DIMENSION",
    "GeometryDomainError",
    "unit_ball_volume",
    "cap_volume",
    "intersection_volume",
    "cap_volume_array",
    "lens_volume_array",
]


class GeometryDomainError(ValueError):
    """An argument lies outside the geometric domain of the operation."""


def _is_integer(n) -> bool:
    # an int or numpy integer, not a bool: the one test of every count and dimension
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _check_dimension(d) -> int:
    if not _is_integer(d):
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
# Cap and lens kernels
# ---------------------------------------------------------------------------
# One cap formula, _cap_array, and one lens case split, _lens_array, serve
# every caller, scalar or array.  Both take inputs already in one shape and
# omega_d from the caller, so the supremum search, which builds its own
# arrays, pays no broadcasting or dimension check per call.  The array
# wrappers check the dimension and broadcast to views, without copying an
# input to full size; the scalar wrappers check their domain and evaluate
# one-entry arrays, so each scalar value is the kernel's value for that
# element, bit for bit.  The lens kernel stacks the two caps of every lens
# entry into one _cap_array call, so a lens call makes one cap call.

# Up to this dimension the cap is exact to rounding: a closed form in numpy
# alone, within 1e-14 relative of a 50-digit mpmath value down to caps of
# height 1e-14 rho.  Above it the cap is the complement
# 1 - I_{u^2}(1/2, (d+1)/2) through scipy's betainc, bit for bit as before.
# That complement cancels for small caps (it reads 0 for the tiniest) and
# makes the supremum search's objective noisy at some radii: at d = 30 a
# searched value read 0.76% above the 50-digit average of its own ball.
# This dimension selects only the cap formula and whether scipy is
# imported; the lens kernel forms its cap heights one way at every d, and
# the supremum search does not read it.  The split goes once the
# benchmark's reference values no longer come from that complement (the
# exact cap kernel item in ROADMAP.md).
_QUIET_DIM = 6
# The even-d closed form switches to its Taylor series where the direct
# form would lose more than four bits to cancellation.
_SERIES_LOSS = 16.0


@functools.lru_cache(maxsize=None)
def _cap_coefficients(d: int):
    # Coefficients of the smaller cap's share F of the ball, in the cap's
    # relative height v = min(h, 2 rho - h) / rho.  Each is an integer ratio
    # rounded once (then divided by pi at even d).
    m = d // 2
    if d % 2:
        # d = 2m+1: F = int_0^v (t (2 - t))^m dt / int_0^2 (same), a
        # polynomial v^(m+1) sum_k a_k v^k
        den = 2 ** (2 * m + 1) * math.factorial(m) ** 2
        return tuple(
            (-1) ** k * math.comb(m, k) * 2 ** (m - k) * math.factorial(2 * m + 1)
            / ((m + k + 1) * den)
            for k in range(m + 1)
        )
    # d = 2m, theta the angle at the center from the axis to the cap's rim,
    # s = sin theta, c = cos theta = 1 - v:
    # F = int_0^theta sin^d / int_0^pi sin^d
    #   = (theta - c s (1 + sum_{k>=1} W_k s^(2k))) / pi   (Wallis weights W)
    #   = theta^(d+1) sum_{k>=0} t_k theta^(2k)             (Taylor series)
    # The series comes from sin^d = 2^-d sum_j (-1)^j C(d, m-j) 2 cos(2 j t)
    # and runs until its terms drop below rounding at the switch point.
    wallis = tuple(4**k / (2 * k * math.comb(2 * k, k)) for k in range(2, m + 1))

    def taylor(k):
        n = m + k
        total = sum((-1) ** j * math.comb(d, m - j) * (2 * j) ** (2 * n) for j in range(1, m + 1))
        return (-1) ** n * 2 * total / (math.factorial(2 * n) * (2 * n + 1) * math.comb(d, m)) / math.pi

    series = [taylor(0)]
    switch = (1.0 / (_SERIES_LOSS * math.pi * series[0])) ** (1.0 / d)
    while abs(taylor(len(series))) * switch ** (2 * len(series)) >= 2.0**-53 * series[0]:
        series.append(taylor(len(series)))
    return wallis, tuple(series), switch


def _horner(coef, x):
    # x * sum_k coef[k] x^k, in place: no (n, terms) power matrix
    p = coef[-1] * x
    for a in coef[-2::-1]:
        p += a
        p *= x
    return p


def _betainc_ufunc(a, b, x):
    # scipy is imported on first use: only d > _QUIET_DIM needs it
    from scipy.special import betainc

    return betainc(a, b, x)


def _cap_array(d: int, omega: float, rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    # rho and h share one shape, with 0 <= h <= 2*rho
    full = omega * rho ** d
    if d > _QUIET_DIM:
        # The textbook argument x = (2 rho h - h^2) / rho^2 loses half its
        # digits near x = 1, where dI/dx blows up like (1-x)^(-1/2).  Its
        # complement 1 - x = ((rho - h)/rho)^2 is an exact product, so
        # evaluate through the reflection I_x(a, 1/2) = 1 - I_{1-x}(1/2, a).
        # The value is symmetric under h <-> 2*rho - h, covering both the cap
        # and its complement.
        u = np.abs(rho - h) / rho
        frac = 1.0 - _betainc_ufunc(0.5, 0.5 * (d + 1), np.minimum(u * u, 1.0))
        half = 0.5 * full * frac
        return np.where(h <= rho, half, full - half)
    # the smaller side full * F(v), exact to rounding
    v = 2.0 * rho
    v -= h
    np.minimum(v, h, out=v)
    v /= rho
    m = d // 2
    if d % 2:
        small = _horner(_cap_coefficients(d), v)
        if m:
            small *= v ** m
    else:
        wallis, series, switch = _cap_coefficients(d)
        c = 1.0 - v
        w = 2.0 - v
        w *= v
        s = np.sqrt(w)
        theta = np.arctan2(s, c)
        cs = c * s
        if m > 1:
            cs *= 1.0 + _horner(wallis, w)
        small = theta - cs
        small /= math.pi
        thin = theta < switch
        if np.logical_or.reduce(thin, axis=None):
            theta = theta[thin]
            small[thin] = _horner(series, theta * theta) * theta ** (d - 1)
    small *= full
    return np.where(h <= rho, small, full - small)


def _lens_array(
    d: int, omega: float, c: np.ndarray, rho1: np.ndarray, rho2: np.ndarray
) -> np.ndarray:
    # c, rho1 and rho2 share one shape; the case split of intersection_volume
    if d == 1:
        # min-of-differences form; avoids the cancellation of the naive
        # interval endpoints when one radius is tiny
        overlap = np.minimum(np.minimum(rho1 + rho2 - c, 2.0 * rho1), 2.0 * rho2)
        return np.maximum(overlap, 0.0)
    lo, hi = np.minimum(rho1, rho2), np.maximum(rho1, rho2)
    contain = c <= hi - lo
    out = np.where(contain, omega * lo ** d, 0.0)
    lens = (~contain) & (c < rho1 + rho2)
    if np.logical_or.reduce(lens, axis=None):
        cc, lo, hi = c[lens], lo[lens], hi[lens]
        # both caps of each lens, stacked, the larger ball first.  A cap of
        # the ball of radius r whose partner has radius q has height
        # (r + q - cc) (q - r + cc) / (2 cc).  Each factor is formed without
        # cancellation: with lo <= hi the radii, hi - cc is exact where
        # cc >= hi/2 (Sterbenz), and max(lo, cc) - hi always is, since
        # lo + cc > hi; hi - lo + cc has no cancellation to lose
        half = ((hi - cc) + lo) / (2.0 * cc)
        r = np.concatenate((hi, lo))
        h = np.concatenate(
            (((np.maximum(lo, cc) - hi) + np.minimum(lo, cc)) * half, ((hi - lo) + cc) * half)
        )
        h = np.minimum(h, 2.0 * r)
        caps = _cap_array(d, omega, r, h)
        out[lens] = caps[: cc.size] + caps[cc.size :]
    return out


def _entry(x: float) -> np.ndarray:
    return np.full(1, float(x))


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
    return float(_cap_array(d, unit_ball_volume(d), _entry(rho), _entry(h))[0])


def _check_lens(d, c: float, rho1: float, rho2: float) -> int:
    # the domain of intersection_volume: an integer d in [1, MAX_DIMENSION],
    # a finite c >= 0 and finite positive radii
    d = _check_dimension(d)
    if not (c >= 0.0 and math.isfinite(c)):
        raise GeometryDomainError(f"center distance must be nonnegative, got {c}")
    if not (rho1 > 0.0 and math.isfinite(rho1)) or not (rho2 > 0.0 and math.isfinite(rho2)):
        raise GeometryDomainError(f"radii must be positive, got {rho1}, {rho2}")
    return d


def intersection_volume(d: int, c: float, rho1: float, rho2: float) -> float:
    """Volume of B(0, rho1) intersected with the ball of radius rho2 centered
    at distance c along the first axis.

    Case split: disjoint for c >= rho1 + rho2, containment for
    c <= |rho1 - rho2| (ties resolve to 0 and the containment value
    respectively; the function is continuous across both boundaries), and
    otherwise a lens equal to two caps split at the radical hyperplane.
    """
    d = _check_lens(d, c, rho1, rho2)
    lens = _lens_array(d, unit_ball_volume(d), _entry(c), _entry(rho1), _entry(rho2))
    return float(lens[0])


def cap_volume_array(d: int, rho, h) -> np.ndarray:
    """Vectorized cap volume; inputs broadcast, heights clipped to [0, 2*rho]."""
    d = _check_dimension(d)
    rho, h = np.broadcast_arrays(np.asarray(rho, float), np.asarray(h, float))
    # the closed form works in place, which a 0-d array does not allow
    shape = rho.shape
    rho, h = np.atleast_1d(rho, h)
    h = np.minimum(np.maximum(h, 0.0), 2.0 * rho)
    return _cap_array(d, unit_ball_volume(d), rho, h).reshape(shape)


def lens_volume_array(d: int, c, rho1, rho2) -> np.ndarray:
    """Vectorized two-ball intersection volume with the same case split as
    intersection_volume; inputs broadcast."""
    d = _check_dimension(d)
    c, rho1, rho2 = np.broadcast_arrays(
        np.asarray(c, float), np.asarray(rho1, float), np.asarray(rho2, float)
    )
    return _lens_array(d, unit_ball_volume(d), c, rho1, rho2)
