"""Independent oracles and audits for the geometry and the region reductions.

Each check returns a CheckReport: the worst violation found over what it
asserts, its stated tolerance, and a witness where that worst violation lies.
The verdict has one rule, CheckReport.passed: worst_violation <= tolerance.
A check with nothing to assert raises UsageError ("verify <report name>:
..."), so no report passes on nothing.  The audits report what the sampled
geometry actually does; several of the restricted-region and inclusion
claims fail on documented parameter ranges, and those failures are recorded
(with witnesses) rather than patched over.

Every check is reproducible bit for bit given its inputs and seed.

Every Monte Carlo check draws a point r u (|u| = 1) of a ball as its radius
r and axis cosine u_0 alone: each set the point is tested against is a ball
centered on the e1 axis, so no d-dimensional point is built.
check_lens_enclosure and check_random_ball_domination draw their points
through one sampler, _ball_points, which returns the axis coordinate and the
distance from the axis of points uniform in a ball B(c e1, rho): r = U^(1/d),
and u_0 by recursion on d.  At d = 1, u_0 is -1 or +1 with probability 1/2
each; at d = 2, u_0 = cos(pi V); at d >= 3, u_0 = V^(1/(d-2)) times an
independent u_0 of dimension d - 2.  The last step is the generalised
Archimedes fact: dropping two coordinates of a uniform point on S^(d-1)
leaves a uniform point in B^(d-2) (Barthe, Guedon, Mendelson and Naor, Ann.
Probab. 33, 2005; Voelker, Gosmann and Stewart, "Efficiently sampling
vectors and coordinates from the n-sphere and n-ball", 2017).  A sample
costs about d/2 + 1 uniform draws and no normals.  One function,
_axis_draws, draws the recursion's product P and the base uniform V for
every check.

The lens oracle, mc_intersection_volume, counts a sample of B(0, rho1) as a
hit in B(c e1, rho2) when r (r - 2 c u_0) <= rho2^2 - c^2.  By the triangle
inequality the radius alone decides it outside the band
|rho2 - c| < r <= c + rho2: below the band it hits for every u_0 when
c <= rho2 and misses for every u_0 otherwise, above it it misses.  One
multinomial draw splits the samples into below, band and above, which is
the law of their radii; only the band samples draw a radius and an axis
cosine.  At odd d a band sample's u_0 is +-P and the product form decides
it; at even d no cosine is taken: u_0 = P cos(pi V) >= q, with
q = (r^2 + c^2 - rho2^2) / (2 c r), is the event pi V <= arccos(q / P).
check_mc_geometry accepts a lens volume when it lies in the Wilson score
interval of the hit count, at a family-wise false-alarm level split over
the tuples.

check_random_ball_domination averages only the balls that can reach the
largest sample average.  A ball's average of a radial nonincreasing g is at
most g at the ball's point nearest the origin, and at most
||g||_1 / (omega_d rho^d).  The check averages the ball with the largest
such bound first, and then only the balls whose bound, widened by a margin
for rounding, reaches that average.  The draws, their order and every
report are the ones that averaging every ball gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .geometry import (
    GeometryDomainError,
    MAX_DIMENSION,
    _check_lens,
    _is_integer,
    lens_volume_array,
    unit_ball_volume,
)
from .maximal import (
    OptimizerSettings,
    RegionKind,
    UsageError,
    _ball_averages,
    maximal_value_batch,
    maximal_value_detailed,
)
from .profiles import OperatorConfig, StepProfile, l1_norm

__all__ = [
    "McConfig",
    "CheckReport",
    "mc_intersection_volume",
    "check_mc_geometry",
    "check_shrink_overlap_inequality",
    "check_lens_enclosure",
    "check_homothety_identity",
    "check_centered_shell_gap",
    "check_band_regions",
    "check_random_ball_domination",
]

_MEMBERSHIP_TOL = 1e-12
_EXACT_TOL = 1e-12
_HOMOTHETY_TOL = 1e-10
# samples (or balls) per chunk of the Monte Carlo checks; a few arrays of
# this length stay in cache
_MC_CHUNK = 16_384
# family-wise false-alarm level of check_mc_geometry over all its tuples
_MC_FALSE_ALARM = 1e-3
# up to this many hits (or misses) _hit_interval widens the Wilson interval
_MC_FEW_HITS = 30
# relative room above a ball's bound on its computed average, for rounding
# in the lens kernel and the bound (check_random_ball_domination)
_PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class McConfig:
    """Seeded Monte Carlo budget."""

    seed: int
    n_samples: int = 100_000

    def __post_init__(self):
        if not _is_integer(self.seed) or self.seed < 0:
            raise UsageError(f"seed must be a non-negative integer, got {self.seed}")
        if not _is_integer(self.n_samples) or self.n_samples < 1000:
            raise UsageError(f"n_samples must be an integer >= 1000, got {self.n_samples}")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one audit: the worst violation over what it asserts (never
    nothing), its tolerance and the witness tuple where the worst lies.  The
    verdict is defined here alone: passed iff worst_violation <= tolerance."""

    name: str
    worst_violation: float
    tolerance: float
    witness: tuple
    samples_or_grid: str
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.worst_violation <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst_violation": float(self.worst_violation),
            "tolerance": float(self.tolerance),
            "witness": list(self.witness),
            "samples_or_grid": self.samples_or_grid,
            "extra": self.extra,
        }


def _report(name, worst, tol, witness, grid, extra=None) -> CheckReport:
    return CheckReport(name, float(worst), float(tol), witness, grid, extra or {})


def _axis_draws(rng, m: int, d: int):
    """The uniforms behind m axis cosines u_0 of points uniform on the unit
    sphere S^(d-1) (see the module docstring): the recursion's product
    P = prod_k V_k^(1/k) and the base uniforms V, so that u_0 is P signed by
    V - 1/2 at odd d and P cos(pi V) at even d.

    Draw order: m uniforms V_k for each recursion step k = d - 2, d - 4, ...
    >= 1; then m base uniforms V."""
    p = np.ones(m)
    for k in range(d - 2, 0, -2):
        p *= rng.random(m) ** (1.0 / k)
    return p, rng.random(m)


def _ball_points(rng, m: int, d: int, center, radius):
    """m points uniform in B(center e1, radius) (radius a scalar or m radii),
    as their axis coordinate x_1 and their distance y from the axis: the
    draws of _axis_draws give u_0, then m uniforms U give rho = U^(1/d), and
    a point is x_1 = center + rho u_0, y = rho sqrt(1 - u_0^2)."""
    u0, v = _axis_draws(rng, m, d)
    if d % 2:
        np.copysign(u0, v - 0.5, out=u0)
    else:
        u0 *= np.cos(np.pi * v)
    rho = rng.random(m) ** (1.0 / d)
    rho *= radius
    # (1 - u_0)(1 + u_0) does not cancel near the axis, as 1 - u_0^2 would
    return center + rho * u0, rho * np.sqrt((1.0 - u0) * (1.0 + u0))


def _lens_hits(d: int, c: float, rho2: float, r: np.ndarray, p: np.ndarray, v: np.ndarray) -> int:
    """How many band samples r u (|u| = 1), drawn as r and the (P, V) of
    _axis_draws, lie in B(c e1, rho2): |r u - c e1|^2 <= rho2^2 is
    r (r - 2 c u_0) <= rho2^2 - c^2, so r = 0 hits exactly when c <= rho2.
    p and v are overwritten."""
    rhs = rho2 * rho2 - c * c
    if d % 2:
        # u_0 = +-P, and the product form above
        u0 = np.copysign(p, v - 0.5, out=p)
        u0 *= -2.0 * c
        u0 += r
        u0 *= r
        return int(np.count_nonzero(u0 <= rhs))
    # u_0 = P cos(pi V) >= q with q = (r^2 - (rho2^2 - c^2)) / (2 c r) is the
    # event pi V <= arccos(clip(q / P, -1, 1)), except at the edges: V = 0
    # hits exactly when q / P <= 1, where the clip reads arccos(1) = 0; and
    # q / P is NaN only where r = 0 (then c = rho2, a hit), where P = 0 meets
    # q = 0 (u_0 = 0, a hit) or where the squares under- or overflow, and is
    # then decided by the sign of r^2 - (rho2^2 - c^2), the product form at
    # u_0 = 0.  The arrays are reused in place: a fresh one costs page faults.
    num = r * r
    num -= rhs
    p *= r
    p *= 2.0 * c
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.divide(num, p, out=p)
    hits = 0
    nan = np.isnan(t)
    if np.logical_or.reduce(nan):
        hits += int(np.count_nonzero(num[nan] <= 0.0))
    pi_v = np.multiply(v, np.pi, out=v)
    if not pi_v.all():
        hits -= int(np.count_nonzero((pi_v == 0.0) & (t > 1.0)))
    theta = np.arccos(np.clip(t, -1.0, 1.0, out=num), out=num)
    return hits + int(np.count_nonzero(pi_v <= theta))


def _lens_counts(d: int, c: float, rho1: float, rho2: float, mc: McConfig) -> tuple[int, int]:
    """The lens oracle's hit count and how many samples the radius decided.

    Draw order: one multinomial split of the n samples into below, band and
    above (see the module docstring); then, per chunk of at most _MC_CHUNK
    band samples, the uniforms V of r = rho1 (lo + (hi - lo) V)^(1/d) and
    the uniforms of _axis_draws.  The input is checked as
    geometry.intersection_volume checks it (_check_lens)."""
    d = _check_lens(d, c, rho1, rho2)
    # the shares (r / rho1)^d of B(0, rho1) below the band ends |rho2 - c|
    # and c + rho2, so r = rho1 U^(1/d) is in the band when lo <= U <= hi;
    # each ratio is clipped to 1 before the power, which cannot overflow
    lo = min(1.0, abs(rho2 - c) / rho1) ** d
    hi = min(1.0, (c + rho2) / rho1) ** d
    rng = np.random.default_rng(mc.seed)
    below, inside, above = rng.multinomial(mc.n_samples, [lo, hi - lo, 1.0 - hi]).tolist()
    hits = below if c <= rho2 else 0
    for start in range(0, inside, _MC_CHUNK):
        m = min(_MC_CHUNK, inside - start)
        r = rho1 * (lo + (hi - lo) * rng.random(m)) ** (1.0 / d)
        hits += _lens_hits(d, c, rho2, r, *_axis_draws(rng, m, d))
    return hits, below + above


def _volume_estimate(vol1: float, hits: int, n: int) -> tuple[float, float]:
    p = hits / n
    return vol1 * p, vol1 * math.sqrt(p * (1.0 - p) / n)


def mc_intersection_volume(d: int, c: float, rho1: float, rho2: float, mc: McConfig):
    """Monte Carlo lens volume: uniform samples in B(0, rho1) tested for
    membership in the second ball.  Returns (estimate, standard error).

    No point is built: a sample r u (|u| = 1) is a hit when
    r (r - 2 c u_0) <= rho2^2 - c^2, and outside the band
    |rho2 - c| < r <= c + rho2 its radius alone decides that (see the module
    docstring).  The hit count is Binomial(n, p) with p the lens's share of
    B(0, rho1), as if every sample were tested.  _lens_counts fixes the
    draw order, so the seed fixes every bit.  Input outside the domain of
    geometry.intersection_volume raises GeometryDomainError, and so does a
    first ball whose volume omega_d rho1^d overflows a double, which
    intersection_volume accepts."""
    d = _check_lens(d, c, rho1, rho2)
    try:
        vol1 = unit_ball_volume(d) * math.pow(rho1, d)
    except OverflowError:
        vol1 = math.inf
    if vol1 == math.inf:
        raise GeometryDomainError(
            f"the first ball's volume omega_d rho1^d overflows a double at rho1 = {rho1!r}, d = {d}"
        )
    hits, _ = _lens_counts(d, c, rho1, rho2, mc)
    return _volume_estimate(vol1, hits, mc.n_samples)


def _poisson_lower(k: int, z: float) -> float:
    # lower confidence bound on a Poisson mean from k >= 1 counts at the
    # one-sided normal quantile z: chi2_{2k}/2 in the Wilson-Hilferty form,
    # which lies below the exact bound at small k
    return k * max(0.0, 1.0 - 1.0 / (9.0 * k) - z / (3.0 * math.sqrt(k))) ** 3


def _hit_interval(hits: int, n: int, z: float) -> tuple[float, float]:
    """Confidence interval for a hit probability from hits of n samples.

    The Wilson score interval.  It undercovers at a few hits or misses, and
    more so at a large z: at z = 4 and one hit its lower end lies 2000x
    above the exact one.  There the end near 0 (or 1) is widened to the
    Poisson bound, as in the modified Wilson interval of Brown, Cai and
    DasGupta (Statist. Sci. 16, 2001, sec. 4.1.1)."""
    p = hits / n
    z2n = z * z / n
    centre = (p + 0.5 * z2n) / (1.0 + z2n)
    half = z / (1.0 + z2n) * math.sqrt(p * (1.0 - p) / n + z2n / (4.0 * n))
    lo, hi = centre - half, centre + half
    if 0 < hits <= _MC_FEW_HITS:
        lo = min(lo, _poisson_lower(hits, z) / n)
    if 0 < n - hits <= _MC_FEW_HITS:
        hi = max(hi, 1.0 - _poisson_lower(n - hits, z) / n)
    return lo, hi


def check_mc_geometry(n_tuples: int, d_max: int, mc: McConfig) -> CheckReport:
    """Exact lens volumes against the Monte Carlo oracle on random tuples.

    A tuple passes when exact / vol1 lies in the Wilson score interval of its
    hit count (Brown, Cai and DasGupta, Statist. Sci. 16, 2001), with a
    Poisson end at up to _MC_FEW_HITS hits or misses (see _hit_interval) and
    a relative 1e-12 for rounding.  Its z puts the family-wise false-alarm
    level _MC_FALSE_ALARM on all tuples together, split evenly over them
    (Bonferroni), and comes from statistics.NormalDist, so no scipy loads.
    Each row carries its interval, as volumes, in mc_lo and mc_hi, and in
    decided the samples whose radius alone decided them."""
    if not _is_integer(n_tuples) or n_tuples < 1:
        raise UsageError(f"verify mc-geometry: n_tuples must be a positive integer, got {n_tuples}")
    if not _is_integer(d_max) or not 1 <= d_max <= MAX_DIMENSION:
        raise UsageError(f"d_max must be an integer in [1, {MAX_DIMENSION}], got {d_max}")
    rng = np.random.default_rng(mc.seed)
    draws = []
    for _ in range(n_tuples):
        d = int(rng.integers(1, d_max + 1))
        rho1 = float(rng.uniform(0.2, 2.0))
        rho2 = float(rng.uniform(0.2, 2.0))
        c = float(rng.uniform(0.0, rho1 + rho2 + 0.5))
        draws.append((d, c, rho1, rho2, int(rng.integers(2**31))))
    # the exact volumes in one lens-kernel call per dimension
    dims = np.array([t[0] for t in draws], dtype=int)
    geo = np.array([t[1:4] for t in draws], dtype=float).reshape(-1, 3)
    exact = np.zeros(n_tuples)
    for d in np.unique(dims):
        at = dims == d
        exact[at] = lens_volume_array(int(d), *geo[at].T)
    n = mc.n_samples
    z = NormalDist().inv_cdf(1.0 - _MC_FALSE_ALARM / (2 * n_tuples))
    rows, found = [], []
    for (d, c, rho1, rho2, seed), ex in zip(draws, exact.tolist()):
        hits, decided = _lens_counts(d, c, rho1, rho2, McConfig(seed, n))
        vol1 = unit_ball_volume(d) * rho1 ** d
        est, se = _volume_estimate(vol1, hits, n)
        lo, hi = _hit_interval(hits, n, z)
        lo, hi = lo * vol1, hi * vol1
        viol = max(lo - ex, ex - hi) - _EXACT_TOL * max(1.0, ex)
        rows.append({"d": d, "c": c, "rho1": rho1, "rho2": rho2, "exact": ex, "mc": est, "se": se,
                     "mc_lo": lo, "mc_hi": hi, "decided": decided})
        found.append((viol, (d, c, rho1, rho2, ex, est, se, lo, hi)))
    # the first worst tuple
    worst, witness = max(found, key=lambda f: f[0])
    return _report(
        "mc-geometry",
        worst,
        0.0,
        witness,
        f"{n_tuples} random tuples, d<=1..{d_max}, n={n} samples each, "
        f"Wilson z={z:.4f} (family-wise level {_MC_FALSE_ALARM:g})",
        {"rows": rows},
    )


def _scaled_lens(d: int, r_grid, t_grid, keep):
    """The (r, t) core of the two lens identities: every r must lie in
    (0, 1], and the pairs that keep(r, t) selects, r-major, a finite t.
    Returns their r and t columns and the left side r^d |B(e1,1) ^ B(0,t)|
    of each, in one lens-kernel call."""
    rs = [float(r) for r in r_grid]
    for r in rs:
        if not 0.0 < r <= 1.0:
            raise UsageError(f"r must lie in (0, 1], got {r}")
    pairs = [(r, t) for r in rs for t in (float(x) for x in t_grid) if keep(r, t)]
    t_col = np.array([t for _, t in pairs])
    if not np.isfinite(t_col).all():
        raise GeometryDomainError(f"radii must be finite, got {t_col[~np.isfinite(t_col)][0]}")
    scale = np.array([r ** d for r, _ in pairs])
    return np.array([r for r, _ in pairs]), t_col, scale * lens_volume_array(d, 1.0, t_col, 1.0)


def check_shrink_overlap_inequality(
    d: int, r_grid, t_grid, assert_full_region: bool = False
) -> CheckReport:
    """Audit of the center-preserving shrink inequality

        r^d |B(e1,1) ^ B(0,t)|  >=  |B(e1,r) ^ B(0,t)|     (0 < r <= 1)

    asserted on t <= 1 by default.  With assert_full_region the whole grid
    with t + r > 1 is asserted, which reproduces the documented failures at
    t > 1 (e.g. d=1, r=0.1, t=1.111: left side 0.1111 < right side 0.2).
    Pairs with t <= 0 or t + r <= 1 are skipped; a grid with no pair to
    assert raises UsageError.
    """
    r_col, t_col, lhs = _scaled_lens(
        d, sorted(float(x) for x in r_grid), sorted(float(x) for x in t_grid),
        lambda r, t: not (t <= 0.0 or t + r <= 1.0),
    )
    rhs = lens_volume_array(d, 1.0, t_col, r_col)
    asserted = np.flatnonzero(assert_full_region | (t_col <= 1.0))
    if not asserted.size:
        raise UsageError(
            "verify shrink-overlap-inequality: no (r, t) pair to assert, one needs t > 0 "
            "and t + r > 1, and t <= 1 unless the full region is asserted"
        )
    rows, beyond, first_violating_t = [], [], {}
    for r, t, left, right in zip(r_col.tolist(), t_col.tolist(), lhs.tolist(), rhs.tolist()):
        viol = right - left
        rows.append({"r": r, "t": t, "lhs": left, "rhs": right, "violation": viol})
        if viol > _EXACT_TOL:
            if t > 1.0:
                beyond.append((r, t, left, right))
            first_violating_t.setdefault(r, t)
    # the first worst asserted pair
    w = rows[asserted[np.argmax((rhs - lhs)[asserted])]]
    return _report(
        "shrink-overlap-inequality",
        w["violation"],
        _EXACT_TOL,
        (w["r"], w["t"], w["lhs"], w["rhs"]),
        f"d={d}, {len(rows)} (r, t) pairs with t + r > 1"
        + ("" if assert_full_region else ", asserted on t <= 1"),
        {
            "rows": rows,
            "violations_beyond_t1": beyond,
            "empirical_violation_boundary": first_violating_t,
            "assert_full_region": assert_full_region,
        },
    )


def check_lens_enclosure(d: int, r: float, t: float, mc: McConfig) -> CheckReport:
    """Audit of the enclosure of B(e1, r) ^ B(0, t) in the ball of radius r*t
    centered at ((1 + t^2 - r^2)/2) e1.

    Uniform samples in B(e1, r) are filtered to B(0, t) and tested for
    membership (distance tolerance 1e-12).  All balls here are centered on
    the e1 axis, so a sample e1 + rho u enters only through its axis
    coordinate x_1 = 1 + rho u_0 and its distance y = rho sqrt(1 - u_0^2)
    from the axis.  The samples are drawn (_ball_points) and checked in
    chunks of _MC_CHUNK, not as one batch of n_samples draws.  The
    deterministic probes follow as a last batch: the axis points (1 -+ r) e1
    and e1 and, for d >= 2, the rim where the two boundary spheres meet (one
    orbit, so one probe).  Witnesses are the rotated representatives
    (x_1, y, 0, ..., 0).  Membership in the second candidate ball centered at
    (1 - r) e1 is recorded alongside but does not gate the verdict.
    """
    if not _is_integer(d) or not 1 <= d <= MAX_DIMENSION:
        raise UsageError(f"d must be an integer in [1, {MAX_DIMENSION}], got {d}")
    if not (math.isfinite(r) and math.isfinite(t)):
        raise UsageError(f"r and t must be finite, got r={r}, t={t}")
    if not 0.0 < r <= 1.0:
        raise UsageError(f"r must lie in (0, 1], got {r}")
    if not (t > 0.0 and t + r > 1.0):
        raise UsageError(f"t must be positive with t + r > 1, got t={t}, r={r}")
    center = (1.0 + t * t - r * r) / 2.0
    if not math.isfinite(center):
        raise UsageError(
            f"t = {t!r} is too large: the center (1 + t^2 - r^2) / 2 of the enclosing ball "
            f"overflows a double"
        )
    probes = [(1.0 - r, 0.0), (1.0 + r, 0.0), (1.0, 0.0)]
    rim2 = t * t - center * center
    if d >= 2 and rim2 >= 0.0:
        probes.append((center, math.sqrt(rim2)))

    def batches():
        rng = np.random.default_rng(mc.seed)
        for start in range(0, mc.n_samples, _MC_CHUNK):
            yield _ball_points(rng, min(_MC_CHUNK, mc.n_samples - start), d, 1.0, r)
        yield np.array(probes).T

    def point(x1, y):
        return ((float(x1), float(y)) + (0.0,) * (d - 2))[:d]

    kept = violating = secondary = 0
    # the first worst (violation, witness) of each ball
    main = second = (-math.inf, ())
    for x1, y in batches():
        inside = np.hypot(x1, y) <= t + _MEMBERSHIP_TOL
        x1, y = x1[inside], y[inside]
        dist_main = np.hypot(x1 - center, y)
        viol_main = dist_main - r * t
        viol_second = np.hypot(x1 - (1.0 - r), y) - r * t
        kept += x1.size
        violating += int(np.count_nonzero(viol_main > _MEMBERSHIP_TOL))
        secondary += int(np.count_nonzero(viol_second > _MEMBERSHIP_TOL))
        if x1.size:
            i, j = int(np.argmax(viol_main)), int(np.argmax(viol_second))
            if viol_main[i] > main[0]:
                main = (float(viol_main[i]), point(x1[i], y[i]) + (float(dist_main[i]),))
            if viol_second[j] > second[0]:
                second = (float(viol_second[j]), point(x1[j], y[j]))
    return _report(
        "lens-enclosure",
        main[0],
        _MEMBERSHIP_TOL,
        main[1],
        f"d={d}, r={r}, t={t}, {mc.n_samples} samples + {len(probes)} probes, seed={mc.seed}",
        {
            "violating_samples": violating,
            "kept_samples": kept,
            "secondary_center_violations": secondary,
            "secondary_worst_violation": second[0],
            "secondary_witness": second[1],
        },
    )


def check_homothety_identity(d: int, r_grid, t_grid) -> CheckReport:
    """Unconditional scaling identity: shrinking the configuration
    (B(e1,1), B(0,t)) about e1 by ratio r multiplies the overlap by r^d, i.e.

        r^d |B(e1,1) ^ B(0,t)| = |B(e1,r) ^ B((1-r) e1, r t)|.

    An empty r or t grid raises UsageError.
    """
    ts = [float(x) for x in t_grid]
    for t in ts:
        if t <= 0.0:
            raise UsageError(f"t must be positive, got {t}")
    # the whole grid, r-major, in one lens-kernel call per side
    r_col, t_col, lhs = _scaled_lens(d, r_grid, ts, lambda r, t: True)
    if not t_col.size:
        raise UsageError("verify homothety-identity: no (r, t) grid point, a grid is empty")
    rhs = lens_volume_array(d, r_col, r_col, r_col * t_col)
    err = np.abs(lhs - rhs)
    i = int(np.argmax(err))
    return _report(
        "homothety-identity",
        err[i],
        _HOMOTHETY_TOL,
        (float(r_col[i]), float(t_col[i]), float(lhs[i]), float(rhs[i])),
        f"d={d}, {err.size} (r, t) grid points",
    )


def _region_audit(name, g, cfg, R_samples, regions, opt, grid, witness) -> CheckReport:
    """Search the full region and each restricted region at every radius.

    A restricted region may fall short of the full supremum but must never
    exceed it.  The report's violation is the worst relative gap, full
    minus region or region minus full, against twice the optimizer
    tolerance, so a region that beats the full region fails the audit like
    one that loses to it; extra["dominance_ok"] says whether every excess
    stays within that tolerance.  The witness is witness(R, region, full,
    value) at the worst gap, the first region listed on a tie; grid is the
    text before the radius count."""
    opt = opt or OptimizerSettings()
    R = np.asarray(list(R_samples), dtype=float)
    if R.size == 0:
        raise UsageError(f"verify {name}: R_samples is empty")
    full = maximal_value_batch(g, cfg, R, RegionKind.FULL, opt)
    values = np.array([maximal_value_batch(g, cfg, R, region, opt) for region in regions])
    excess = (values - full) / np.maximum(full, 1e-300)
    dominance = float(np.max(excess))
    j, i = np.unravel_index(np.argmax(np.abs(excess)), excess.shape)
    keys = ["R", "full", *(region.value.replace("-", "_") for region in regions)]
    rows = [dict(zip(keys, row)) for row in np.column_stack((R, full, *values)).tolist()]
    return _report(
        name,
        abs(float(excess[j, i])),
        2.0 * opt.rel_tol,
        witness(float(R[i]), regions[j], float(full[i]), float(values[j, i])),
        f"{grid}, {R.size} radii",
        {
            "rows": rows,
            "dominance_ok": bool(dominance <= 2.0 * opt.rel_tol),
            "worst_dominance_violation": dominance,
        },
    )


def check_centered_shell_gap(
    g: StepProfile, d: int, R_samples, opt: OptimizerSettings | None = None
) -> CheckReport:
    """At lambda = 0, compare the centered-shell region (centered balls with
    radius in [R, 2R]) against the full region.  A shortfall beyond twice the
    optimizer tolerance is a genuine gap of the restricted region; the known
    witness is the unit-ball indicator at R = 0.9 (5/9 against 1)."""
    regions = [RegionKind.CENTERED_SHELL]
    return _region_audit(
        "centered-shell-gap", g, OperatorConfig(d, 0.0), R_samples, regions, opt,
        f"d={d}", lambda R, region, full, value: (R, full, value),
    )


def check_band_regions(
    g: StepProfile, cfg: OperatorConfig, R_samples, opt: OptimizerSettings | None = None
) -> CheckReport:
    """Compare the upper band (alpha in [beta, beta+1]) and lower band
    (alpha in [beta-1, beta]) against the full region at each radius.

    The canonical regression row is the unit-ball indicator at d=1,
    lambda=0, R=2: upper band 1/4 versus full = lower band = 1/3.
    """
    regions = [RegionKind.UPPER_BAND, RegionKind.LOWER_BAND]
    return _region_audit(
        "band-regions", g, cfg, R_samples, regions, opt, f"d={cfg.d}, lambda={cfg.lam:g}",
        lambda R, region, full, value: (R, region.value, full, value),
    )


def check_random_ball_domination(
    g: StepProfile,
    cfg: OperatorConfig,
    R: float,
    mc: McConfig,
    opt: OptimizerSettings | None = None,
) -> CheckReport:
    """Rotation-reduction audit: random admissible balls (center z anywhere,
    radius rho, with x within lam*rho of z) must not beat the axis-reduced
    supremum.  Each sampled average is computed through the axis reduction
    with center distance |z|.  At lam > 0 the center z is drawn uniform in
    B(R e1, lam rho) (_ball_points), whose axis coordinate and distance from
    the axis give |z| directly; at lam = 0 nothing but rho is drawn.

    Only the balls whose bound can reach the largest average are averaged
    (see the module docstring); the report is the one that averaging every
    ball gives.  A radius R whose largest sampled ball, of radius
    10 (R + r_K), has a volume that overflows a double raises UsageError."""
    opt = opt or OptimizerSettings()
    if not (R > 0.0 and math.isfinite(R)):
        raise UsageError(f"R must be positive, got {R}")
    d, lam = cfg.d, cfg.lam
    omega = unit_ball_volume(d)
    scale = R + g.support_radius
    try:
        largest = (10.0 * scale) ** d
    except OverflowError:
        largest = math.inf
    # both rho^d and omega_d rho^d must be finite; a factor 2 leaves room for
    # the draws' rounding above 10 (R + r_K)
    if 2.0 * max(omega, 1.0) * largest == math.inf:
        raise UsageError(
            f"R = {R!r} at d = {d}: the largest sampled ball, of radius 10 (R + r_K) = "
            f"{10.0 * scale!r}, has a volume that overflows a double"
        )
    res = maximal_value_detailed(g, cfg, R, RegionKind.FULL, opt)
    m_star = res.value
    rng = np.random.default_rng(mc.seed)
    n = mc.n_samples
    rho = np.exp(rng.uniform(math.log(max(1e-9, 1e-4 * scale)), math.log(10.0 * scale), n))
    rho = np.maximum(rho, 1e-9)
    if lam == 0.0:
        z_norm = np.full(n, R)
    else:
        # z uniform in B(R e1, lam rho)
        z_norm = np.hypot(*_ball_points(rng, n, d, R, lam * rho))

    def violation(average):
        return (average - m_star) / max(m_star, 1e-300)

    # Each ball's bound: g at its point nearest the origin, where a distance
    # that rounds onto a breakpoint r_k keeps step k (side="left"), as the
    # lens kernel's c < r_k + rho does; and the mass bound.
    steps = g.arrays
    bound = steps.levels[np.searchsorted(steps.radii, np.maximum(z_norm - rho, 0.0), side="left")]
    np.minimum(bound, l1_norm(g, d) / (omega * rho ** d), out=bound)
    # The floor is the average of the ball with the largest bound.  A ball is
    # averaged when its bound, widened by _PRUNE_MARGIN, reaches the floor in
    # the report's own float operations: a pruned ball's violation then lies
    # strictly below the floor's, ties included.
    first = int(np.argmax(bound))
    floor = violation(_ball_averages(g, d, omega, z_norm[first : first + 1], rho[first : first + 1]))
    kept = np.flatnonzero(violation(bound * (1.0 + _PRUNE_MARGIN)) >= floor)
    # chunks of _MC_CHUNK kernel entries (balls times steps): most kept balls
    # cut lenses from the steps, and a lens entry's arrays are all full size
    chunk = max(1, _MC_CHUNK // steps.step_radii.size)
    averages = np.empty(kept.size)
    for start in range(0, kept.size, chunk):
        at = kept[start : start + chunk]
        averages[start : start + chunk] = _ball_averages(g, d, omega, z_norm[at], rho[at])
    viol = violation(averages)
    i = int(np.argmax(viol))
    j = kept[i]
    return _report(
        "random-ball-domination",
        float(viol[i]),
        2.0 * opt.rel_tol,
        (float(z_norm[j]), float(rho[j]), float(averages[i]), float(m_star)),
        f"d={d}, lambda={lam:g}, R={R:g}, {n} balls, seed={mc.seed}",
        {"supremum": float(m_star), "max_sample_average": float(np.max(averages))},
    )
