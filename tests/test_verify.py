import json
import math
import re
from statistics import NormalDist

import numpy as np
import pytest

from ballmax import verify
from ballmax.cli import main
from ballmax.geometry import GeometryDomainError, intersection_volume, lens_volume_array
from ballmax.maximal import OptimizerSettings, RegionKind, UsageError
from ballmax.profiles import OperatorConfig, StepProfile, l1_norm, random_profile
from ballmax.verify import (
    CheckReport,
    McConfig,
    check_band_regions,
    check_centered_shell_gap,
    check_homothety_identity,
    check_lens_enclosure,
    check_mc_geometry,
    check_random_ball_domination,
    check_shrink_overlap_inequality,
    mc_intersection_volume,
)
from _oracle import axis_coordinates, ball_draws, cosine_hits, exhaustive_domination, sample_in_ball

UNIT_BALL = StepProfile(((1.0, 1.0),))


# ---------------------------------------------------------------------------
# sampling and the Monte Carlo oracle
# ---------------------------------------------------------------------------

def test_sample_in_ball_inside_and_roughly_uniform():
    rng = np.random.default_rng(11)
    pts = sample_in_ball(rng, 20000, 3, radius=2.0)
    norms = np.linalg.norm(pts, axis=1)
    assert np.all(norms <= 2.0 + 1e-12)
    # median radius of a uniform 3-ball sample is 2 * (1/2)^(1/3)
    assert np.median(norms) == pytest.approx(2.0 * 0.5 ** (1 / 3), rel=0.02)


def test_mc_disjoint_is_exact_zero():
    est, se = mc_intersection_volume(2, 3.0, 1.0, 1.0, McConfig(5, 2000))
    assert est == 0.0 and se == 0.0


def test_mc_containment_is_exact():
    est, se = mc_intersection_volume(3, 0.0, 1.0, 1.0, McConfig(5, 2000))
    assert est == pytest.approx(4 * math.pi / 3, rel=1e-12)
    assert se == 0.0


def test_mc_planar_lens_within_four_sigma():
    est, se = mc_intersection_volume(2, 1.0, 1.0, 1.0, McConfig(99, 1_000_000))
    want = 2 * math.pi / 3 - math.sqrt(3) / 2
    assert abs(est - want) <= 4 * se


def test_mc_config_validation():
    with pytest.raises(UsageError):
        McConfig(1, 10)
    with pytest.raises(UsageError, match="seed"):
        McConfig(-1, 1000)
    # an int or numpy integer, not a bool or a float
    for seed, n in ((1, 1000.5), (1.5, 1000), (True, 1000), (1, 1e5)):
        with pytest.raises(UsageError):
            McConfig(seed, n)
    assert McConfig(np.int64(3), np.int32(1000)).n_samples == 1000


@pytest.mark.parametrize(
    "n_tuples, d_max", [(-1, 6), (0, 6), (5, 0), (5, 31), (2.5, 6), (True, 6), (5, 2.0), (5, True)]
)
def test_check_mc_geometry_rejects_bad_counts(n_tuples, d_max):
    with pytest.raises(UsageError):
        check_mc_geometry(n_tuples, d_max, McConfig(1, 1000))


def test_check_mc_geometry_passes():
    rep = check_mc_geometry(10, 6, McConfig(123, 100_000))
    assert rep.passed
    assert len(rep.extra["rows"]) == 10
    for row in rep.extra["rows"]:
        slack = 1e-12 * max(1.0, row["exact"])  # containment: exact = vol1 = mc_hi up to rounding
        assert row["mc_lo"] - slack <= row["exact"] <= row["mc_hi"] + slack


def _axis_cosine(d, p, v):
    # u_0 from the recursion's product P and the base uniform V
    return np.copysign(p, v - 0.5) if d % 2 else p * np.cos(np.pi * v)


def _band_counts(monkeypatch, d, c, rho1, rho2, mc):
    # _lens_counts with each band chunk (r, P, V) recorded as it reaches
    # _lens_hits, which overwrites P and V; returns (hits, decided, chunks)
    # and the hits that the radius decided
    chunks, lens_hits = [], verify._lens_hits

    def recorded(d, c, rho2, r, p, v):
        chunks.append((r.copy(), p.copy(), v.copy()))
        return lens_hits(d, c, rho2, r, p, v)

    with monkeypatch.context() as m:
        m.setattr(verify, "_lens_hits", recorded)
        hits, decided = verify._lens_counts(d, c, rho1, rho2, mc)
    band_hits = sum(lens_hits(d, c, rho2, r, p.copy(), v.copy()) for r, p, v in chunks)
    return hits, decided, chunks, hits - band_hits


def _explicit_counts(monkeypatch, d, c, rho1, rho2, mc):
    # the oracle's own band draws as explicit points r (u_0, sqrt(1 - u_0^2), 0, ...)
    # with a distance test, plus the samples their radius decided
    _, decided, chunks, hits = _band_counts(monkeypatch, d, c, rho1, rho2, mc)
    drawn = 0
    for r, p, v in chunks:
        u0 = _axis_cosine(d, p, v)
        assert np.all((abs(rho2 - c) * (1 - 1e-12) <= r) & (r <= (c + rho2) * (1 + 1e-12)))
        pts = np.zeros((r.size, d))
        pts[:, 0] = r * u0 - c
        if d > 1:
            pts[:, 1] = r * np.sqrt(1.0 - u0 * u0)
        hits += int(np.count_nonzero(np.einsum("ij,ij->i", pts, pts) <= rho2 * rho2))
        drawn += r.size
    assert decided + drawn == mc.n_samples
    return hits, decided


@pytest.mark.parametrize(
    "d, c, rho1, rho2, n",
    [(d, 0.9, 1.0, 0.7, 20_000) for d in range(1, 7)]
    + [
        (3, 0.0, 1.3, 0.8, 20_000),  # concentric
        (2, 2.5, 1.0, 1.5, 20_000),  # externally tangent: no hits
        (4, 0.5, 1.2, 0.7, 20_000),  # internally tangent: the second ball inside
        (5, 0.5, 0.7, 1.2, 20_000),  # the first ball inside: every sample hits
        (6, 1.999, 1.0, 1.0, 20_000),  # near-tangent sliver
        (4, 1.1, 1.0, 0.6, 250_001),  # crosses chunk boundaries
        # at d = 10 and 30 the lens of (0.9, 1.0, 0.7) holds too few samples
        (10, 0.3, 1.0, 1.0, 20_000),
        (30, 0.3, 1.0, 1.0, 20_000),
    ],
)
def test_mc_hits_equal_the_explicit_distance_test(monkeypatch, d, c, rho1, rho2, n):
    mc = McConfig(17 + d, n)
    hits, decided = _explicit_counts(monkeypatch, d, c, rho1, rho2, mc)
    # the radius decides every sample when the balls are disjoint or
    # concentric and when the second ball holds the first
    assert (decided == n) == (abs(rho2 - c) >= rho1 or c == 0.0)
    directions = []
    axis_draws = verify._axis_draws

    def counted_draws(rng, m, d):
        directions.append(m)
        return axis_draws(rng, m, d)

    monkeypatch.setattr(verify, "_axis_draws", counted_draws)
    assert verify._lens_counts(d, c, rho1, rho2, mc) == (hits, decided)
    assert sum(directions) == n - decided  # no direction draw for a decided sample
    vol1 = verify.unit_ball_volume(d) * rho1 ** d
    p = hits / n
    assert mc_intersection_volume(d, c, rho1, rho2, mc) == (vol1 * p, vol1 * math.sqrt(p * (1.0 - p) / n))


@pytest.mark.parametrize("d", [2, 4, 6, 10, 30])
def test_mc_hit_test_takes_no_cosine_at_even_d(monkeypatch, d):
    # the arccos test counts what the cosine's product test counts, on the
    # oracle's own draws, and calls np.cos nowhere
    cases = [(0.9, 1.0, 0.7), (0.3, 1.0, 1.0), (1.1, 1.0, 0.6), (0.6, 0.8, 0.6), (1.999, 1.0, 1.0)]
    want = []
    for c, rho1, rho2 in cases:
        _, decided, chunks, hits = _band_counts(monkeypatch, d, c, rho1, rho2, McConfig(d, 40_000))
        want.append((hits + sum(cosine_hits(d, c, rho2, *chunk) for chunk in chunks), decided))
    calls = []
    cos = np.cos

    def counted_cos(*args, **kwargs):
        calls.append(1)
        return cos(*args, **kwargs)

    monkeypatch.setattr(np, "cos", counted_cos)
    got = [verify._lens_counts(d, c, rho1, rho2, McConfig(d, 40_000)) for c, rho1, rho2 in cases]
    assert not calls
    assert got == want


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("d_max", [6, 30])
def test_mc_geometry_report_is_the_cosine_tests(monkeypatch, seed, d_max):
    fast = check_mc_geometry(20, d_max, McConfig(seed, 20_000)).to_dict()
    monkeypatch.setattr(verify, "_lens_hits", cosine_hits)
    plain = check_mc_geometry(20, d_max, McConfig(seed, 20_000)).to_dict()
    assert json.dumps(fast, sort_keys=True) == json.dumps(plain, sort_keys=True)


@pytest.mark.parametrize(
    "d, c, rho1, rho2",
    [
        (1, 0.3, 2.0, 0.8),  # c < rho2: hits below the band, misses above it
        (2, 1.0, 2.0, 0.4),  # c > rho2: misses on both sides
        (3, 0.3, 2.0, 0.8),
        (4, 1.0, 2.0, 0.4),
        (6, 0.7, 1.0, 1.1),  # the band reaches past rho1: no upper class
        (10, 0.05, 1.5, 1.2),
    ],
)
def test_mc_radius_decides_exactly_outside_the_band(monkeypatch, d, c, rho1, rho2):
    # the shares (r / rho1)^d of B(0, rho1) below the band ends
    lo = min(1.0, abs(rho2 - c) / rho1) ** d
    hi = min(1.0, (c + rho2) / rho1) ** d
    rng = np.random.default_rng(d)
    # random directions and the two axis directions, as explicit unit vectors
    u = np.vstack([sample_in_ball(rng, 500, d), np.eye(d)[:1], -np.eye(d)[:1]])
    u /= np.linalg.norm(u, axis=1)[:, None]
    ends = [(abs(rho2 - c), c <= rho2, -1.0)]
    if c + rho2 < rho1:
        ends.append((c + rho2, False, 1.0))
    for end, verdict, out in ends:
        for eps, decided in ((out * 1e-6, True), (-out * 1e-6, False)):
            r = end * (1.0 + eps)
            share = (r / rho1) ** d
            assert (not lo <= share <= hi) == decided
            dist2 = np.sum((r * u - c * np.eye(d)[0]) ** 2, axis=1)
            hit = dist2 <= rho2 * rho2
            if decided:
                assert np.all(hit == verdict)
            else:  # toward +e1 the point hits, toward -e1 it misses
                assert hit[-2] and not hit[-1]
    # only radii in the band reach the hit test, and the radius decides the
    # rest: below the band hits when c <= rho2, above it misses
    n = 40_000
    _, decided, chunks, decided_hits = _band_counts(monkeypatch, d, c, rho1, rho2, McConfig(d, n))
    r = np.concatenate([chunk[0] for chunk in chunks])
    assert np.all((abs(rho2 - c) * (1 - 1e-12) <= r) & (r <= min(rho1, c + rho2) * (1 + 1e-12)))
    assert decided + r.size == n
    # decided ~ Binomial(n, 1 - (hi - lo)) and its hits ~ Binomial(n, lo) or 0,
    # each within 6 standard deviations
    for count, p in ((decided, 1.0 - (hi - lo)), (decided_hits, lo if c <= rho2 else 0.0)):
        assert abs(count - n * p) <= 6.0 * math.sqrt(n * p * (1.0 - p))


def test_mc_oracle_errors_follow_the_binomial_law():
    # z-scores (p_hat - p) / sqrt(p (1 - p) / n) against the exact lens over
    # seeded partial overlaps at d = 1..6, whose band has one or both ends
    # inside B(0, rho1)
    rng = np.random.default_rng(2024)
    n, z = 20_000, []
    while len(z) < 400:
        d = int(rng.integers(1, 7))
        rho1, rho2 = (float(x) for x in rng.uniform(0.2, 2.0, 2))
        c = float(rng.uniform(0.0, rho1 + rho2))
        vol1 = verify.unit_ball_volume(d) * rho1 ** d
        p = float(lens_volume_array(d, c, rho1, rho2)) / vol1
        if not 0.05 <= p <= 0.95:
            continue
        est, _ = mc_intersection_volume(d, c, rho1, rho2, McConfig(len(z), n))
        z.append((est / vol1 - p) / math.sqrt(p * (1.0 - p) / n))
    z = np.array(z)
    # N(0, 1) would put the mean or the standard deviation beyond 5 standard
    # errors with probability below 1e-5
    assert abs(z.mean()) <= 5.0 / math.sqrt(z.size)
    assert abs(z.std() - 1.0) <= 5.0 / math.sqrt(2.0 * z.size)


@pytest.mark.parametrize(
    "d, c, rho1, rho2",
    [
        (2, 0.5, 1.0, -1.0),
        (2, 0.5, 0.0, 1.0),
        (2, 0.5, 1.0, 0.0),
        (2, math.nan, 1.0, 1.0),
        (2, -0.1, 1.0, 1.0),
        (2, math.inf, 1.0, 1.0),
        (2, 0.5, math.inf, 1.0),
        (2, 0.5, 1.0, math.nan),
        (0, 0.5, 1.0, 1.0),
        (31, 0.5, 1.0, 1.0),
        (2.0, 0.5, 1.0, 1.0),
    ],
)
def test_mc_oracle_rejects_what_the_exact_lens_rejects(d, c, rho1, rho2):
    with pytest.raises(GeometryDomainError):
        intersection_volume(d, c, rho1, rho2)
    with pytest.raises(GeometryDomainError):
        mc_intersection_volume(d, c, rho1, rho2, McConfig(1, 1000))


def test_check_mc_geometry_rows_record_the_decided_samples():
    rows = check_mc_geometry(40, 6, McConfig(5, 10_000)).extra["rows"]
    for row in rows:
        assert 0 <= row["decided"] <= 10_000
        # disjoint or nested balls: the radius settles every sample
        if row["c"] >= row["rho1"] + row["rho2"] or abs(row["rho2"] - row["c"]) >= row["rho1"]:
            assert row["decided"] == 10_000
    assert any(0 < row["decided"] < 10_000 for row in rows)


def _ks_statistic(a, b):
    # two-sample Kolmogorov-Smirnov statistic; ties (d = 1) are handled by
    # evaluating both empirical CDFs at every distinct value
    a, b = np.sort(a), np.sort(b)
    x = np.union1d(a, b)
    fa = np.searchsorted(a, x, side="right") / a.size
    fb = np.searchsorted(b, x, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 10, 30])
def test_mc_draws_follow_the_uniform_ball_law(d):
    n, rho1 = 200_000, 1.7
    x1, y = verify._ball_points(np.random.default_rng(40 + d), n, d, 0.0, rho1)
    # the radius and axis cosine of each point, to rounding: hypot(x1, y) >= |x1|
    r = np.hypot(x1, y)
    u0 = x1 / r
    pts = sample_in_ball(np.random.default_rng(90 + d), n, d, radius=rho1)
    want_u0 = pts[:, 0] / np.linalg.norm(pts, axis=1)
    want_r = rho1 * np.random.default_rng(140 + d).random(n) ** (1.0 / d)
    # two samples of n each differ by more than this with probability below 1e-6
    critical = math.sqrt(-math.log(1e-6 / 2) / 2) * math.sqrt(2.0 / n)
    assert _ks_statistic(u0, want_u0) <= critical
    assert _ks_statistic(r, want_r) <= critical
    assert np.all((0.0 <= r) & (r <= rho1 * (1.0 + 1e-15))) and np.all(np.abs(u0) <= 1.0)
    assert np.all(y >= 0.0)
    # exact moments E u_0^2 = 1/d and E u_0^4 = 3/(d(d+2)), within 6 standard errors
    for power, exact in ((2, 1.0 / d), (4, 3.0 / (d * (d + 2)))):
        x = u0 ** power
        assert abs(x.mean() - exact) <= 6.0 * x.std() / math.sqrt(n) + 1e-15


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 10, 30])
def test_ball_points_are_the_reference_draws_bit_for_bit(d):
    # a scalar radius (lens enclosure) and one radius per point (domination),
    # across two calls on one generator
    m = 5_000
    radii = np.exp(np.random.default_rng(d).uniform(-5.0, 5.0, m))
    for center, radius in ((1.0, 0.7), (2.5, 0.5 * radii)):
        got_rng, want_rng = np.random.default_rng(70 + d), np.random.default_rng(70 + d)
        for _ in range(2):
            got = verify._ball_points(got_rng, m, d, center, radius)
            r, u0 = ball_draws(want_rng, m, d)
            want = axis_coordinates(center, radius * r, u0)
            for a, b in zip(got, want):
                assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_mc_oracle_rejects_a_first_ball_whose_volume_overflows():
    # mc_intersection_volume(30, 0.5, 1e20, 1.0, ...) raised a raw
    # OverflowError from rho1 ** d; the exact lens takes these inputs
    for d, rho1, lens in ((30, 1e20, 2.19e-5), (2, 1e200, math.pi)):
        assert intersection_volume(d, 0.5, rho1, 1.0) == pytest.approx(lens, rel=1e-2)
        with pytest.raises(GeometryDomainError, match=re.escape(f"rho1 = {rho1!r}, d = {d}")):
            mc_intersection_volume(d, 0.5, rho1, 1.0, McConfig(1, 1000))
    # just below the limit the oracle still runs
    assert mc_intersection_volume(2, 0.5, 1e150, 1.0, McConfig(1, 1000)) == (0.0, 0.0)


def test_mc_sample_at_the_origin_hits_exactly_when_c_within_rho2():
    rho2 = 0.6
    above = math.nextafter(rho2, math.inf)
    below = math.nextafter(rho2, 0.0)
    # (P, V) giving the axis cosines u_0 = -1, 0, 0.4 and 1 at odd and at even d
    draws = {1: [(1.0, 0.25), (0.0, 0.75), (0.4, 0.75), (1.0, 0.75)],
             0: [(1.0, 1.0), (0.0, 0.5), (0.4, 0.0), (1.0, 0.0)]}
    for d in range(1, 7):
        for p, v in draws[d % 2]:
            assert _axis_cosine(d, np.array([p]), np.array([v]))[0] in (-1.0, 0.0, 0.4, 1.0)
            for c in (0.0, 0.3, below, rho2, above, 0.9):
                want = int(c <= rho2)
                assert verify._lens_hits(d, c, rho2, np.zeros(1), np.array([p]), np.array([v])) == want


def test_mc_geometry_exact_is_the_scalar_lens_volume_bit_for_bit():
    for seed in (3, 4):
        rows = check_mc_geometry(200, 6, McConfig(seed, 1000)).extra["rows"]
        batched = np.array([row["exact"] for row in rows])
        scalar = np.array([intersection_volume(r["d"], r["c"], r["rho1"], r["rho2"]) for r in rows])
        assert np.array_equal(batched.view(np.int64), scalar.view(np.int64))


def test_mc_geometry_false_alarms_at_the_stated_level():
    # Correct volumes, small samples: tiny lenses get 0, 1 or a few hits.
    # At the family-wise level 1e-3 the expected number of failed checks in
    # 500 is 0.5, and more than 3 has probability below 2e-3.  The plain
    # Wilson interval, without the Poisson ends, fails 7 of these 500.
    seeds = range(500)
    failed = [s for s in seeds if not check_mc_geometry(20, 6, McConfig(s, 1000)).passed]
    assert verify._MC_FALSE_ALARM == 1e-3
    assert len(failed) <= 3, failed


def test_mc_geometry_fails_a_volume_off_by_a_fixed_share(monkeypatch):
    lens = verify.lens_volume_array
    monkeypatch.setattr(verify, "lens_volume_array", lambda *a: 1.03 * lens(*a))
    rep = check_mc_geometry(10, 6, McConfig(123, 100_000))
    assert not rep.passed
    d, c, rho1, rho2, exact, est, se, lo, hi = rep.witness
    vol1 = verify.unit_ball_volume(d) * rho1 ** d
    assert 0.05 <= est / vol1 <= 1.0 and not lo <= exact <= hi


# ---------------------------------------------------------------------------
# shrink inequality audit
# ---------------------------------------------------------------------------

def test_shrink_inequality_interval_example():
    rep = check_shrink_overlap_inequality(1, [0.5], [0.8])
    row = rep.extra["rows"][0]
    assert row["lhs"] == pytest.approx(0.4, abs=1e-12)
    assert row["rhs"] == pytest.approx(0.3, abs=1e-12)
    assert rep.passed


def test_shrink_inequality_equality_at_r_one():
    rep = check_shrink_overlap_inequality(3, [1.0], [0.4, 0.9, 1.3])
    for row in rep.extra["rows"]:
        assert row["lhs"] == pytest.approx(row["rhs"], abs=1e-13)


def test_shrink_inequality_holds_on_line_for_t_below_one():
    # in one dimension lhs - rhs = (1 - r)(1 - t) >= 0 on t <= 1
    rep = check_shrink_overlap_inequality(
        1, np.linspace(0.05, 1.0, 12), np.linspace(0.1, 1.0, 12)
    )
    assert rep.passed
    assert rep.worst_violation <= 1e-12


def test_shrink_inequality_fails_in_higher_dimensions_even_below_t_one():
    # For d >= 2 the inequality genuinely fails near (r, t) = (1, 1): at r = 1
    # both sides agree, and d * |lens| exceeds the boundary-growth rate
    # d|lens|/ds there, so slightly smaller balls win.  The audit reports the
    # violation; the Monte Carlo oracle confirms it is real geometry, not a
    # kernel bug.
    for d in (2, 3):
        rep = check_shrink_overlap_inequality(
            d, np.linspace(0.05, 1.0, 12), np.linspace(0.1, 1.0, 12)
        )
        assert not rep.passed
        r, t, lhs, rhs = rep.witness
        assert rhs > lhs + 1e-6
        est_big, se_big = mc_intersection_volume(d, 1.0, t, 1.0, McConfig(3, 400_000))
        est_small, se_small = mc_intersection_volume(d, 1.0, t, r, McConfig(5, 400_000))
        mc_violation = est_small - r ** d * est_big
        sigma = math.sqrt((r ** d * se_big) ** 2 + se_small ** 2)
        assert mc_violation > 5.0 * sigma


def test_shrink_inequality_witness_beyond_t_one():
    rep = check_shrink_overlap_inequality(1, [0.1], [0.95, 1.111])
    # passes because the violation lies outside the asserted region t <= 1;
    # at t = 0.95 the violation is -(1 - r)(1 - t) < 0
    assert rep.passed
    assert rep.witness[:2] == (0.1, 0.95)
    assert rep.worst_violation == pytest.approx(-0.9 * 0.05, abs=1e-12)
    beyond = rep.extra["violations_beyond_t1"]
    assert len(beyond) == 1
    r, t, lhs, rhs = beyond[0]
    assert (r, t) == (0.1, 1.111)
    assert lhs == pytest.approx(0.1111, abs=1e-12)
    assert rhs == pytest.approx(0.2, abs=1e-12)


def test_shrink_inequality_fails_when_asserting_full_range():
    rep = check_shrink_overlap_inequality(1, [0.1], [0.8, 1.111], assert_full_region=True)
    assert not rep.passed
    assert rep.witness[:2] == (0.1, 1.111)
    assert rep.worst_violation == pytest.approx(0.2 - 0.1111, abs=1e-12)


def test_criterion_07_stays_red_at_its_stated_values():
    # The stated region {0 < r <= 1, 1 - r < t <= 1} on the criterion-07
    # grid: the inequality holds at d = 1 to rounding and fails at d = 2, 3
    # by the documented amounts; asserting t > 1 too reproduces the d = 1
    # witness (r=0.1, t=1.111).
    grid = np.linspace(0.05, 1.0, 20)
    d1, d2, d3 = (check_shrink_overlap_inequality(d, grid, grid) for d in (1, 2, 3))
    assert d1.passed and d1.worst_violation <= 1e-15
    assert not d2.passed and f"{d2.worst_violation:.3e}" == "5.213e-02"
    assert not d3.passed and f"{d3.worst_violation:.3e}" == "8.283e-02"
    full = check_shrink_overlap_inequality(
        1, np.linspace(0.1, 1.0, 10), [0.9, 1.0, 1.111], assert_full_region=True
    )
    assert not full.passed
    assert full.witness[:2] == (0.1, 1.111)
    assert full.witness[2:] == pytest.approx((0.1111, 0.2), abs=1e-9)


# ---------------------------------------------------------------------------
# lens enclosure audit
# ---------------------------------------------------------------------------

def test_lens_enclosure_planar_case_zero_violations():
    rep = check_lens_enclosure(2, 0.5, 0.8, McConfig(7, 100_000))
    assert rep.passed
    assert rep.extra["violating_samples"] == 0


def test_lens_enclosure_spot_check_r1_t1():
    # candidate ball has center 0.5 e1 and radius 1; the axis probe at the
    # origin sits at distance 0.5 < 1
    rep = check_lens_enclosure(1, 1.0, 1.0, McConfig(3, 2000))
    assert rep.passed


def test_lens_enclosure_witness_beyond_validity():
    rep = check_lens_enclosure(1, 0.1, 1.111, McConfig(17, 2000))
    assert not rep.passed
    # deterministic axis probe 0.9 e1: distance exceeds r*t = 0.1111
    m_center = (1 + 1.111 ** 2 - 0.1 ** 2) / 2
    want = abs(0.9 - m_center)
    assert want == pytest.approx(0.21216, abs=5e-5)
    assert rep.worst_violation >= want - 0.1111 - 1e-9


def test_lens_enclosure_secondary_center_recorded():
    # the secondary candidate centered at (1-r) e1 genuinely fails near the
    # boundary corner even for t <= 1; the report records it without gating
    rep = check_lens_enclosure(2, 0.5, 0.8, McConfig(7, 100_000))
    assert rep.extra["secondary_center_violations"] > 0
    assert rep.passed


def test_lens_enclosure_usage_errors():
    with pytest.raises(UsageError):
        check_lens_enclosure(2, 1.5, 0.8, McConfig(1, 2000))
    with pytest.raises(UsageError):
        check_lens_enclosure(2, 0.3, 0.5, McConfig(1, 2000))  # t + r <= 1
    for d, r, t in ((0, 0.5, 0.8), (31, 0.5, 0.8), (2, math.nan, 0.8), (2, 0.5, math.nan), (2, 0.5, math.inf)):
        with pytest.raises(UsageError):
            check_lens_enclosure(d, r, t, McConfig(1, 2000))
    # the dimension is an int or numpy integer, not a bool or a float
    for d in (True, 2.0, 2.5):
        with pytest.raises(UsageError):
            check_lens_enclosure(d, 0.5, 0.8, McConfig(1, 2000))
    assert check_lens_enclosure(np.int64(2), 0.5, 0.8, McConfig(1, 2000)).passed


def test_lens_enclosure_rejects_a_center_that_overflows():
    # verify lens-enclosure --d 2 --r-grid 1 --t-grid 1e300 wrote
    # "worst_violation": Infinity: the center (1 + t^2 - r^2) / 2 overflowed
    with pytest.raises(UsageError, match="t = 1e\\+300 is too large"):
        check_lens_enclosure(2, 1.0, 1e300, McConfig(1, 1000))
    rep = check_lens_enclosure(2, 1.0, 1e150, McConfig(1, 1000))
    assert not rep.passed and rep.worst_violation == pytest.approx(5e299)


@pytest.mark.parametrize("d", range(1, 7))
def test_lens_enclosure_keeps_the_exact_share_of_samples(d):
    # The samples kept in B(0, t) are a binomial draw with the exact share
    # |B(e1, r) ^ B(0, t)| / |B(e1, r)|; it lies in their Wilson interval at
    # level 1e-6.  d >= 7 is left out: there the betainc cap kernel is off
    # (at d = 30, r = 0.3, t = 1 it gives 0.20237 against 0.21801).
    n = 100_000
    z = NormalDist().inv_cdf(1.0 - 1e-6 / 2)
    for r, t in ((0.5, 0.8), (0.3, 1.0), (0.9, 0.6), (1.0, 1.0), (0.2, 1.15)):
        rep = check_lens_enclosure(d, r, t, McConfig(60 + d, n))
        # the axis probes at |x| = 1 - r, 1, 1 + r, and at d >= 2 the rim
        # probe, which lies on |x| = t in every case here
        probes = sum(x <= t + 1e-12 for x in (1.0 - r, 1.0, 1.0 + r)) + (d >= 2)
        lo, hi = verify._hit_interval(rep.extra["kept_samples"] - probes, n, z)
        share = float(lens_volume_array(d, 1.0, r, t)) / (verify.unit_ball_volume(d) * r ** d)
        assert lo <= share <= hi, (r, t)


@pytest.mark.parametrize("d", [1, 2, 3, 6, 30])
def test_lens_enclosure_witnesses_are_rotated_points_of_the_lens(d):
    e1 = np.eye(d)[0]
    for r, t in ((0.5, 0.8), (0.1, 1.111), (0.9, 1.5), (1.0, 1.0)):
        rep = check_lens_enclosure(d, r, t, McConfig(5, 20_000))
        *x, dist = rep.witness
        center = (1.0 + t * t - r * r) / 2.0
        assert dist == pytest.approx(math.dist(x, center * e1), rel=1e-14)
        assert rep.worst_violation == dist - r * t
        for p in (np.array(x), np.array(rep.extra["secondary_witness"])):
            assert p.shape == (d,)
            assert np.linalg.norm(p) <= t + 1e-12
            assert np.linalg.norm(p - e1) <= r + 1e-12
            assert np.all(p[2:] == 0.0)
        # three axis probes, and one rim probe where the two spheres meet
        rim = d >= 2 and 1.0 - r <= t <= 1.0 + r
        assert rep.samples_or_grid.endswith(f"+ {3 + rim} probes, seed=5")


# ---------------------------------------------------------------------------
# homothety identity audit
# ---------------------------------------------------------------------------

def test_homothety_identity_r_one_and_interval_case():
    rep = check_homothety_identity(1, [0.5, 1.0], [0.8])
    assert rep.passed
    # r = 0.5, t = 0.8: both sides equal 0.4
    rows_lhs = 0.5 * 0.8
    assert rows_lhs == pytest.approx(0.4)


def test_homothety_identity_disjoint_case():
    rep = check_homothety_identity(2, [0.4], [3.5])
    assert rep.passed
    assert rep.worst_violation <= 1e-12


def test_homothety_identity_grid():
    for d in (1, 2, 3, 5):
        rep = check_homothety_identity(
            d, np.linspace(0.1, 1.0, 10), np.linspace(0.2, 2.0, 10)
        )
        assert rep.passed
        assert rep.worst_violation <= 1e-10


def _homothety_per_point(d, r_grid, t_grid):
    worst, witness, count = -math.inf, None, 0
    for r in r_grid:
        for t in t_grid:
            lhs = r ** d * intersection_volume(d, 1.0, t, 1.0)
            rhs = intersection_volume(d, r, r, r * t)
            count += 1
            if abs(lhs - rhs) > worst:
                worst, witness = abs(lhs - rhs), (r, t, lhs, rhs)
    return verify._report(
        "homothety-identity", worst, verify._HOMOTHETY_TOL, witness,
        f"d={d}, {count} (r, t) grid points",
    )


def _shrink_per_point(d, r_grid, t_grid, assert_full_region):
    rows, beyond, first = [], [], {}
    worst, witness = -math.inf, None
    for r in sorted(r_grid):
        for t in sorted(t_grid):
            if t <= 0.0 or t + r <= 1.0:
                continue
            lhs = r ** d * intersection_volume(d, 1.0, t, 1.0)
            rhs = intersection_volume(d, 1.0, t, r)
            viol = rhs - lhs
            rows.append({"r": r, "t": t, "lhs": lhs, "rhs": rhs, "violation": viol})
            if (assert_full_region or t <= 1.0) and viol > worst:
                worst, witness = viol, (r, t, lhs, rhs)
            if viol > verify._EXACT_TOL:
                if t > 1.0:
                    beyond.append((r, t, lhs, rhs))
                first.setdefault(r, t)
    return verify._report(
        "shrink-overlap-inequality",
        worst,
        verify._EXACT_TOL,
        witness,
        f"d={d}, {len(rows)} (r, t) pairs with t + r > 1"
        + ("" if assert_full_region else ", asserted on t <= 1"),
        {
            "rows": rows,
            "violations_beyond_t1": beyond,
            "empirical_violation_boundary": first,
            "assert_full_region": assert_full_region,
        },
    )


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_grid_checks_match_a_per_point_loop(d):
    # The homothety and shrink-overlap checks evaluate their whole (r, t)
    # grid in one lens-kernel call per side; their reports are those of a
    # per-point loop over the scalar API, to the bit.  The grids are
    # unsorted, with repeats, and reach the disjoint and contained cases.
    rng = np.random.default_rng(40 + d)
    r_grid = rng.permutation(np.append(np.linspace(0.05, 1.0, 20), [0.5, 1.0])).tolist()
    t_grid = rng.permutation(np.append(np.linspace(0.05, 3.5, 24), [1.0, 1.111])).tolist()
    assert (
        check_homothety_identity(d, r_grid, t_grid).to_dict()
        == _homothety_per_point(d, r_grid, t_grid).to_dict()
    )
    t_grid.append(-0.5)  # skipped by the shrink check
    for full in (False, True):
        assert (
            check_shrink_overlap_inequality(d, r_grid, t_grid, full).to_dict()
            == _shrink_per_point(d, r_grid, t_grid, full).to_dict()
        )


def test_grid_checks_reject_what_the_scalar_api_rejects():
    for bad in (math.inf, math.nan):
        with pytest.raises(GeometryDomainError):
            check_homothety_identity(2, [0.5], [0.4, bad])
        with pytest.raises(GeometryDomainError):
            check_shrink_overlap_inequality(2, [0.5], [0.8, bad])
    with pytest.raises(UsageError):
        check_homothety_identity(2, [0.5], [0.0])
    with pytest.raises(UsageError):
        check_shrink_overlap_inequality(2, [1.5], [0.8])
    # thresholds at or below 0, or with t + r <= 1, are skipped, not rejected
    rep = check_shrink_overlap_inequality(2, [0.5], [-math.inf, 0.0, 0.3, 0.8])
    assert rep.passed and [(row["r"], row["t"]) for row in rep.extra["rows"]] == [(0.5, 0.8)]


@pytest.mark.parametrize(
    "audit",
    [
        lambda: check_mc_geometry(0, 6, McConfig(1, 1000)),
        lambda: check_homothety_identity(2, [], [0.5]),
        lambda: check_homothety_identity(2, [0.5], []),
        lambda: check_shrink_overlap_inequality(2, [0.5], []),
        # one pair, at t > 1, which is asserted only on the full region
        lambda: check_shrink_overlap_inequality(2, [0.5], [1.5]),
    ],
    ids=["mc-geometry", "homothety-r", "homothety-t", "shrink-no-pair", "shrink-none-asserted"],
)
def test_no_audit_passes_on_nothing(audit):
    with pytest.raises(UsageError) as info:
        audit()
    assert str(info.value).startswith("verify ")


# ---------------------------------------------------------------------------
# restricted-region audits
# ---------------------------------------------------------------------------

def test_centered_shell_gap_documented_witness():
    rep = check_centered_shell_gap(UNIT_BALL, 1, [0.9, 2.0])
    assert not rep.passed  # the restriction genuinely loses the supremum
    rows = {round(row["R"], 6): row for row in rep.extra["rows"]}
    assert rows[0.9]["full"] == pytest.approx(1.0, abs=1e-9)
    assert rows[0.9]["centered_shell"] == pytest.approx(5 / 9, abs=1e-9)
    assert rows[2.0]["full"] == pytest.approx(1 / 3, abs=1e-9)
    assert rows[2.0]["centered_shell"] == pytest.approx(1 / 3, abs=1e-9)
    assert rep.extra["dominance_ok"]


def test_centered_shell_agreement_outside_support():
    rep = check_centered_shell_gap(UNIT_BALL, 1, [2.0, 3.0])
    assert rep.passed


def test_band_regions_canonical_row():
    rep = check_band_regions(UNIT_BALL, OperatorConfig(1, 0.0), [2.0])
    row = rep.extra["rows"][0]
    assert row["full"] == pytest.approx(1 / 3, abs=1e-9)
    assert row["lower_band"] == pytest.approx(1 / 3, abs=1e-9)
    assert row["upper_band"] == pytest.approx(1 / 4, abs=1e-9)
    assert not rep.passed  # the upper band loses the supremum
    assert rep.extra["dominance_ok"]


def test_band_regions_uncentered_lower_band_attains():
    rep = check_band_regions(UNIT_BALL, OperatorConfig(1, 1.0), [2.0])
    row = rep.extra["rows"][0]
    assert row["full"] == pytest.approx(2 / 3, abs=1e-9)
    assert row["lower_band"] == pytest.approx(2 / 3, abs=1e-9)
    assert rep.extra["dominance_ok"]


def test_band_regions_dominance_on_random_profile():
    g = random_profile(9, 4, 2)
    rep = check_band_regions(g, OperatorConfig(2, 1.0), [0.5, 1.5, 4.0])
    assert rep.extra["dominance_ok"]


def _plant_values(monkeypatch, values):
    # every search returns the given values of its region
    monkeypatch.setattr(
        verify, "maximal_value_batch", lambda g, cfg, R, region, opt: np.array(values[region])
    )


def test_centered_shell_excess_fails_dominance(monkeypatch):
    # the shell beats the full region by 2^-9 of its value at R = 2
    _plant_values(
        monkeypatch,
        {RegionKind.FULL: [1.0, 0.5], RegionKind.CENTERED_SHELL: [0.75, 0.5 + 2.0**-10]},
    )
    rep = check_centered_shell_gap(UNIT_BALL, 2, [0.9, 2.0])
    assert rep.witness == (0.9, 1.0, 0.75) and rep.worst_violation == 0.25
    assert rep.extra["dominance_ok"] is False
    assert rep.extra["worst_dominance_violation"] == 2.0**-9


def test_centered_shell_excess_alone_fails_the_audit(monkeypatch, capsys):
    # no shortfall anywhere; the shell beats the full region by 2^-9 at R = 2
    _plant_values(
        monkeypatch,
        {RegionKind.FULL: [1.0, 0.5], RegionKind.CENTERED_SHELL: [1.0, 0.5 + 2.0**-10]},
    )
    rep = check_centered_shell_gap(UNIT_BALL, 2, [0.9, 2.0])
    assert not rep.passed
    assert rep.witness == (2.0, 0.5, 0.5 + 2.0**-10) and rep.worst_violation == 2.0**-9
    assert rep.extra["dominance_ok"] is False
    assert rep.extra["worst_dominance_violation"] == 2.0**-9
    assert main(["verify", "centered-shell", "--d", "2", "--R-set", "0.9,2"]) == 1
    assert capsys.readouterr().err.startswith("FAILED centered-shell-gap: ")


@pytest.mark.parametrize("planted", [RegionKind.UPPER_BAND, RegionKind.LOWER_BAND])
def test_band_excess_fails_dominance_and_ties_name_the_upper_band(monkeypatch, planted):
    # both bands fall 1/4 short at R = 0.9; one beats the full region by
    # 2^-9 of its value at R = 2
    values = {
        RegionKind.FULL: [1.0, 0.5],
        RegionKind.UPPER_BAND: [0.75, 0.5],
        RegionKind.LOWER_BAND: [0.75, 0.5],
    }
    values[planted] = [0.75, 0.5 + 2.0**-10]
    _plant_values(monkeypatch, values)
    rep = check_band_regions(UNIT_BALL, OperatorConfig(2, 0.5), [0.9, 2.0])
    assert rep.witness == (0.9, "upper-band", 1.0, 0.75) and rep.worst_violation == 0.25
    assert rep.extra["dominance_ok"] is False
    assert rep.extra["worst_dominance_violation"] == 2.0**-9


# ---------------------------------------------------------------------------
# random ball domination
# ---------------------------------------------------------------------------

def test_domination_uncentered_indicator():
    rep = check_random_ball_domination(
        UNIT_BALL, OperatorConfig(2, 1.0), 2.0, McConfig(31, 10_000)
    )
    assert rep.passed


def test_domination_centered_degenerates():
    rep = check_random_ball_domination(
        UNIT_BALL, OperatorConfig(2, 0.0), 1.5, McConfig(31, 5_000)
    )
    assert rep.passed


def test_domination_random_profile():
    g = random_profile(14, 5, 3)
    rep = check_random_ball_domination(g, OperatorConfig(3, 0.5), 2.0, McConfig(5, 5_000))
    assert rep.passed


@pytest.mark.parametrize("d", [1, 2, 3, 5, 30])
def test_domination_witness_is_admissible(d):
    # the witness center lies within lam * rho of R e1; at lam = 0 it is R e1
    for lam, R, seed in ((0.0, 1.5, 1), (0.25, 0.7, 2), (0.5, 5.0, 3), (1.0, 2.0, 4)):
        rep = check_random_ball_domination(
            UNIT_BALL, OperatorConfig(d, lam), R, McConfig(seed, 5_000)
        )
        z_norm, rho, _, _ = rep.witness
        assert abs(z_norm - R) <= lam * rho * (1.0 + 1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 10, 30])
def test_domination_report_is_the_exhaustive_one(d):
    # the pruned audit reports, byte for byte, what averaging every ball
    # reports: on the unit ball and a seeded profile, with R inside and
    # outside the support, and one and several chunks of balls
    for lam in (0.0, 0.5, 1.0):
        for k, g in enumerate((UNIT_BALL, random_profile(60 + d, 6, d))):
            for n in (1000, 16385, 100_000):
                R = (0.6, 1.7)[k] * g.support_radius
                args = (g, OperatorConfig(d, lam), R, McConfig(7 * d + k, n))
                fast = check_random_ball_domination(*args).to_dict()
                plain = exhaustive_domination(*args).to_dict()
                assert json.dumps(fast, sort_keys=True) == json.dumps(plain, sort_keys=True)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 10, 30])
def test_domination_bound_holds_every_computed_average(d):
    # A ball's computed average is at most its bound, g at its point nearest
    # the origin or the mass over its volume, times 1 + the pruning margin.
    # The balls' nearest points lie at random, on breakpoints and just
    # inside them, or the balls cover the origin, where the mass bound is
    # tight once they hold the support.  The largest excess is 4.4e-16 up
    # to d = 10 and 2.5e-13 at d = 30 (the betainc cap), far below 1e-9.
    rng = np.random.default_rng(d)
    omega = verify.unit_ball_volume(d)
    for seed in range(20):
        g = UNIT_BALL if seed == 0 else random_profile(300 + seed, 6, d)
        radii, levels = g.arrays.radii, g.arrays.levels
        rho = np.exp(rng.uniform(math.log(1e-4), math.log(20.0), 4000)) * g.support_radius
        near = np.concatenate([
            rng.uniform(0.0, 1.5, 1000) * g.support_radius,
            rng.choice(radii, 1000),
            rng.choice(radii, 1000) * (1.0 - 1e-15),
        ])
        z = np.concatenate([near + rho[:3000], rng.random(1000) * rho[3000:]])
        avg = verify._ball_averages(g, d, omega, z, rho)
        nearest = np.maximum(z - rho, 0.0).tolist()
        level = np.array([levels[np.count_nonzero(radii < x)] for x in nearest])
        bound = np.minimum(level, l1_norm(g, d) / (omega * rho ** d))
        assert np.all(avg <= bound * (1.0 + verify._PRUNE_MARGIN))


@pytest.mark.parametrize(
    "d, R, message",
    [(2, 1e308, "overflows a double"), (30, 1e12, "overflows a double"), (30, 1.85e9, "overflows")],
)
def test_domination_rejects_balls_whose_volume_overflows(d, R, message):
    # before any draw: otherwise numpy raises on the radius range (d = 2) or
    # both sides underflow and the audit passes on nothing (d = 30)
    with pytest.raises(UsageError, match=message):
        check_random_ball_domination(UNIT_BALL, OperatorConfig(d, 1.0), R, McConfig(1, 1000))


def test_domination_runs_just_inside_the_volume_limit():
    # 10 (R + 1) = 1.8e10: its 30th power is finite with room to spare; the
    # test suite turns any RuntimeWarning into an error
    rep = check_random_ball_domination(UNIT_BALL, OperatorConfig(30, 1.0), 1.8e9, McConfig(1, 1000))
    assert rep.passed and math.isfinite(rep.worst_violation)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_check_report_invariant():
    # the verdict is derived from the worst violation, never stored
    for worst, passed in ((0.25, True), (0.5, True), (0.75, False), (math.nan, False)):
        rep = CheckReport("x", worst, 0.5, (), "grid")
        assert rep.passed is passed and rep.to_dict()["passed"] is passed


def test_reports_reproducible_bit_for_bit():
    a = check_lens_enclosure(2, 0.5, 0.8, McConfig(77, 20_000))
    b = check_lens_enclosure(2, 0.5, 0.8, McConfig(77, 20_000))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    c = check_random_ball_domination(UNIT_BALL, OperatorConfig(2, 1.0), 2.0, McConfig(9, 5_000))
    d = check_random_ball_domination(UNIT_BALL, OperatorConfig(2, 1.0), 2.0, McConfig(9, 5_000))
    assert json.dumps(c.to_dict(), sort_keys=True) == json.dumps(d.to_dict(), sort_keys=True)


def test_report_serializes_to_json():
    rep = check_homothety_identity(2, [0.5], [0.7])
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["name"] == "homothety-identity"
    assert doc["passed"] is True
    assert "worst_violation" in doc and "witness" in doc and "samples_or_grid" in doc
