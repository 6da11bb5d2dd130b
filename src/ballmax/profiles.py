"""Radial nonincreasing step profiles.

A step profile is a finite positive combination of indicators of
origin-centered balls; on this class every ball average reduces to a finite
sum of exact lens volumes, and the class is dense in L^1 among radial
nonincreasing functions.  Annuli are half open, [r_{k-1}, r_k), so point
evaluation is fixed at breakpoints; the convention is irrelevant to any
integral.

Profiles are immutable after construction; all operations are pure.  Every
reader of a profile's numbers in bulk uses its one array form, built once
(StepProfile.arrays).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import MAX_DIMENSION, _check_dimension, _is_integer, unit_ball_volume

__all__ = [
    "ProfileError",
    "StepProfile",
    "OperatorConfig",
    "parse_profile",
    "serialize_profile",
    "profile_digest",
    "l1_norm",
    "evaluate",
    "levels_at",
    "normalized_indicator",
    "random_profile",
]


class ProfileError(ValueError):
    """Invalid profile document or profile field."""


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProfileError(f"{field}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ProfileError(f"{field}: expected a finite number, got {value!r}")
    return out


class StepArrays(NamedTuple):
    """Read-only array form of a StepProfile (see StepProfile.arrays)."""

    radii: np.ndarray  # r_1 < ... < r_K
    levels: np.ndarray  # v_1 >= ... >= v_K, then 0 beyond the support
    step_radii: np.ndarray  # r_k of each indicator step, flat runs collapsed
    step_coeffs: np.ndarray  # its coefficient a_k = v_k - v_{k+1} > 0


@dataclass(frozen=True)
class StepProfile:
    """Radial step function: level v_k on the annulus r_{k-1} <= |x| < r_k
    (r_0 = 0), zero beyond the last radius.

    Radii must increase strictly; levels must be positive and nonincreasing.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple(
            (_as_number(r, f"breakpoints[{k}].r"), _as_number(v, f"breakpoints[{k}].v"))
            for k, (r, v) in enumerate(self.breakpoints)
        )
        if not pts:
            raise ProfileError("breakpoints: profile needs at least one level")
        prev_r = 0.0
        prev_v = math.inf
        for k, (r, v) in enumerate(pts):
            if r <= prev_r:
                raise ProfileError(
                    f"breakpoints[{k}].r: radii must be positive and strictly increasing"
                )
            if v <= 0.0:
                raise ProfileError(f"breakpoints[{k}].v: levels must be positive")
            if v > prev_v:
                raise ProfileError(f"breakpoints[{k}].v: levels must be nonincreasing")
            prev_r, prev_v = r, v
        object.__setattr__(self, "breakpoints", pts)

    @property
    def radii(self) -> tuple[float, ...]:
        return tuple(r for r, _ in self.breakpoints)

    @property
    def levels(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.breakpoints)

    @property
    def support_radius(self) -> float:
        return self.breakpoints[-1][0]

    @property
    def top_level(self) -> float:
        return self.breakpoints[0][1]

    @functools.cached_property
    def arrays(self) -> StepArrays:
        """The profile as read-only arrays, built on first use."""
        radii = np.array(self.radii)
        levels = np.array(self.levels + (0.0,))
        drops = levels[:-1] - levels[1:]
        out = StepArrays(radii, levels, radii[drops > 0.0], drops[drops > 0.0])
        for a in out:
            a.flags.writeable = False
        return out


def parse_profile(text: str) -> StepProfile:
    """Parse the JSON profile document {"levels": [{"r": ..., "v": ...}, ...]}.

    Unknown fields are rejected; validation errors name the offending field.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileError(f"document: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ProfileError("document: top level must be a JSON object")
    unknown = set(doc) - {"levels"}
    if unknown:
        raise ProfileError(f"document: unknown field(s) {sorted(unknown)}")
    if "levels" not in doc:
        raise ProfileError("levels: field is required")
    levels = doc["levels"]
    if not isinstance(levels, list) or not levels:
        raise ProfileError("levels: expected a nonempty array")
    pairs = []
    for k, item in enumerate(levels):
        if not isinstance(item, dict):
            raise ProfileError(f"levels[{k}]: expected an object with fields r, v")
        extra = set(item) - {"r", "v"}
        if extra:
            raise ProfileError(f"levels[{k}]: unknown field(s) {sorted(extra)}")
        if "r" not in item or "v" not in item:
            raise ProfileError(f"levels[{k}]: fields r and v are required")
        pairs.append(
            (_as_number(item["r"], f"levels[{k}].r"), _as_number(item["v"], f"levels[{k}].v"))
        )
    try:
        return StepProfile(tuple(pairs))
    except ProfileError as exc:
        # re-map the internal field name onto the document schema
        raise ProfileError(str(exc).replace("breakpoints[", "levels[")) from None


def serialize_profile(g: StepProfile) -> str:
    """Canonical JSON for a profile; parse_profile inverts it field-exactly."""
    return json.dumps({"levels": [{"r": r, "v": v} for r, v in g.breakpoints]})


def profile_digest(g: StepProfile) -> str:
    """Short stable identifier derived from the canonical serialization."""
    return hashlib.sha256(serialize_profile(g).encode("utf-8")).hexdigest()[:12]


def l1_norm(g: StepProfile, d: int) -> float:
    """Integral of g over R^d: sum of v_k * omega_d * (r_k^d - r_{k-1}^d)."""
    d = _check_dimension(d)
    omega = unit_ball_volume(d)
    total = 0.0
    prev = 0.0
    try:
        for r, v in g.breakpoints:
            total += v * omega * (r ** d - prev ** d)
            prev = r
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ProfileError(f"the profile's mass overflows a double in d = {d}")
    return total


def evaluate(g: StepProfile, radius: float) -> float:
    """Level of g at the given radius (half-open annuli; 0 beyond support)."""
    if not (radius >= 0.0 and math.isfinite(radius)):
        raise ProfileError(f"radius must be nonnegative and finite, got {radius}")
    return float(levels_at(g, radius))


def levels_at(g: StepProfile, radii) -> np.ndarray:
    """Vectorized evaluate over an array of radii."""
    radii = np.asarray(radii, dtype=float)
    if np.any(radii < 0.0) or not np.all(np.isfinite(radii)):
        raise ProfileError("radii must be nonnegative and finite")
    steps = g.arrays
    return steps.levels[np.searchsorted(steps.radii, radii, side="right")]


def normalized_indicator(r: float, d: int) -> StepProfile:
    """Indicator of the ball of radius r scaled to unit integral in R^d."""
    d = _check_dimension(d)
    if not (r > 0.0 and math.isfinite(r)):
        raise ProfileError(f"indicator radius must be positive, got {r}")
    try:
        level = 1.0 / (unit_ball_volume(d) * r ** d)
    except (OverflowError, ZeroDivisionError):
        level = math.nan
    if not (0.0 < level < math.inf):
        raise ProfileError(
            f"indicator radius r = {r!r} in d = {d}: the ball volume omega_d r^d or the "
            f"level 1 / (omega_d r^d) is not a positive finite double"
        )
    return StepProfile(((r, level),))


def random_profile(seed: int, k_max: int, d: int) -> StepProfile:
    """Deterministic random profile for test suites.

    The result always satisfies the StepProfile invariants; flat runs of
    equal levels occur with small probability so downstream code sees them.
    The total integral in dimension d is normalized to a moderate random
    value so scales stay comparable across seeds.
    """
    d = _check_dimension(d)
    if not _is_integer(k_max) or k_max < 1:
        raise ProfileError(f"k_max must be at least 1, got {k_max}")
    if not _is_integer(seed) or seed < 0:
        raise ProfileError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, k_max + 1))
    widths = rng.uniform(0.15, 1.0, size=k)
    radii = np.cumsum(widths) * rng.uniform(0.3, 1.5)
    base = rng.uniform(0.5, 2.0)
    factors = np.where(rng.random(k - 1) < 0.15, 1.0, rng.uniform(0.3, 0.95, size=k - 1))
    values = base * np.concatenate([[1.0], np.cumprod(factors)])
    g = StepProfile(tuple(zip(radii.tolist(), values.tolist())))
    mass_target = rng.uniform(0.5, 4.0)
    scale = mass_target / l1_norm(g, d)
    return StepProfile(tuple((r, v * scale) for r, v in g.breakpoints))


@dataclass(frozen=True)
class OperatorConfig:
    """Dimension d and centering relaxation lam (lambda: 0 centered balls
    only, 1 fully uncentered)."""

    d: int
    lam: float

    def __post_init__(self):
        if not _is_integer(self.d):
            raise ProfileError(f"d must be an integer, got {self.d!r}")
        if not 1 <= self.d <= MAX_DIMENSION:
            raise ProfileError(f"d must lie in [1, {MAX_DIMENSION}], got {self.d}")
        lam = float(self.lam)
        if not (0.0 <= lam <= 1.0):
            raise ProfileError(f"lambda must lie in [0, 1], got {self.lam}")
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "lam", lam)
