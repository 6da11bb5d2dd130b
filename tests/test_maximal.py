import math
import re
import warnings

import numpy as np
import pytest

from ballmax import geometry, maximal
from ballmax.analysis import default_t_grid, weak_constant_estimate
from ballmax.geometry import unit_ball_volume
from ballmax.maximal import (
    OptimizerSettings,
    RegionKind,
    UsageError,
    maximal_value,
    maximal_value_batch,
    maximal_value_detailed,
)
from ballmax.profiles import OperatorConfig, StepProfile, evaluate, l1_norm, levels_at, random_profile

from _oracle import BallParams, average_over_ball, feasible

UNIT_BALL = StepProfile(((1.0, 1.0),))


# ---------------------------------------------------------------------------
# independent one-dimensional oracle: dense grid search over intervals
# ---------------------------------------------------------------------------

def _integral_1d(g, lo, hi):
    """Integral of the radial step function over the interval [lo, hi]."""
    total = 0.0
    prev = 0.0
    for r, v in g.breakpoints:
        for a, b in ((prev, r), (-r, -prev)):
            total += v * max(0.0, min(hi, b) - max(lo, a))
        prev = r
    return total


def _integral_1d_grid(g, lo, hi):
    """_integral_1d on arrays of intervals, summed in the same order."""
    total = np.zeros(np.shape(lo))
    prev = 0.0
    for r, v in g.breakpoints:
        for a, b in ((prev, r), (-r, -prev)):
            total += v * np.maximum(0.0, np.minimum(hi, b) - np.maximum(lo, a))
        prev = r
    return total


def brute_force_m_1d(g, lam, R, n_beta=1200, n_alpha=60, rounds=3):
    """Independent supremum search in one dimension using only interval
    arithmetic; never touches the package's lens or optimizer code.  Each
    round scans its whole (beta, alpha) grid at once and keeps the first
    maximum in beta-major order."""
    best = evaluate(g, R)  # shrinking centered-at-x limit
    b_lo, b_hi = 1e-7, (g.support_radius + R) / R * 3.0
    best_ab = None
    for _ in range(rounds):
        betas = np.geomspace(b_lo, b_hi, n_beta)
        a_lo = np.maximum(0.0, 1.0 - lam * betas)
        alphas = np.linspace(a_lo, 1.0, n_alpha, axis=1)  # (n_beta, n_alpha)
        c, rad = alphas * R, betas[:, None] * R
        vals = _integral_1d_grid(g, c - rad, c + rad) / (2.0 * rad)
        i, j = np.unravel_index(vals.argmax(), vals.shape)
        if vals[i, j] > best:
            best = float(vals[i, j])
            best_ab = (alphas[i, j], betas[i])
        if best_ab is None:
            break
        b_lo = max(1e-9, best_ab[1] * 0.8)
        b_hi = best_ab[1] * 1.25
    return best


# ---------------------------------------------------------------------------
# feasibility predicates
# ---------------------------------------------------------------------------

def test_feasible_full_region():
    assert feasible(RegionKind.FULL, 0.0, BallParams(1.0, 5.0))
    assert not feasible(RegionKind.FULL, 0.0, BallParams(0.9, 5.0))
    assert feasible(RegionKind.FULL, 0.5, BallParams(0.5, 1.0))
    assert not feasible(RegionKind.FULL, 0.5, BallParams(0.4, 1.0))


def test_feasible_band_regions():
    assert feasible(RegionKind.LOWER_BAND, 1.0, BallParams(0.5, 0.5))
    assert not feasible(RegionKind.UPPER_BAND, 0.0, BallParams(1.0, 1.5))
    assert feasible(RegionKind.UPPER_BAND, 0.0, BallParams(1.0, 0.7))
    assert not feasible(RegionKind.LOWER_BAND, 0.0, BallParams(1.0, 2.5))


def test_feasible_centered_shell():
    assert feasible(RegionKind.CENTERED_SHELL, 0.0, BallParams(1.0, 1.5))
    assert not feasible(RegionKind.CENTERED_SHELL, 0.0, BallParams(0.99, 1.5))
    assert not feasible(RegionKind.CENTERED_SHELL, 0.0, BallParams(1.0, 2.5))
    with pytest.raises(UsageError):
        feasible(RegionKind.CENTERED_SHELL, 0.5, BallParams(1.0, 1.5))


def test_ball_params_validation():
    with pytest.raises(UsageError):
        BallParams(-0.1, 1.0)
    with pytest.raises(UsageError):
        BallParams(0.5, 0.0)


# ---------------------------------------------------------------------------
# average_over_ball
# ---------------------------------------------------------------------------

def test_average_containment_gives_level():
    # ball strictly inside the support of the indicator
    for d in (1, 2, 3):
        v = average_over_ball(UNIT_BALL, d, 0.5, BallParams(1.0, 0.5))
        assert v == pytest.approx(1.0, rel=1e-12)


def test_average_planar_lens_value():
    v = average_over_ball(UNIT_BALL, 2, 1.0, BallParams(1.0, 1.0))
    # planar lens area over the disc area: 2/3 - sqrt(3)/(2*pi)
    want = (2 * math.pi / 3 - math.sqrt(3) / 2) / math.pi
    assert v == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.391002, abs=1e-6)


def test_average_interval_arithmetic():
    v = average_over_ball(UNIT_BALL, 1, 2.0, BallParams(0.25, 0.75))
    assert v == pytest.approx(2.0 / 3.0, rel=1e-12)
    # matches the independent integral oracle
    assert v == pytest.approx(_integral_1d(UNIT_BALL, -1.0, 2.0) / 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the mass-bound truncation
# ---------------------------------------------------------------------------

def test_mass_cutoff_solves_mass_bound():
    assert maximal._mass_cutoff(2.0, 2.0, 1, 2.0, 2.0 / 3.0) == pytest.approx(0.75, rel=1e-12)


def test_mass_cutoff_monotonicity_and_scaling():
    norm, d, R = 3.0, 2, 1.5
    omega = unit_ball_volume(d)
    base = maximal._mass_cutoff(norm, omega, d, R, norm / (omega * R ** d))
    assert base <= 1.0 + 1e-12
    b1 = maximal._mass_cutoff(norm, omega, d, R, 0.4)
    b2 = maximal._mass_cutoff(norm, omega, d, R, 0.8)
    assert b2 ** d == pytest.approx(b1 ** d / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# maximal_value: frozen closed forms (verified against the 1-D oracle)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "lam, R, region, want",
    [
        (1.0, 2.0, RegionKind.FULL, 2.0 / 3.0),
        (0.0, 2.0, RegionKind.FULL, 1.0 / 3.0),
        (0.0, 0.9, RegionKind.FULL, 1.0),
        (0.0, 0.9, RegionKind.CENTERED_SHELL, 5.0 / 9.0),
        (0.5, 2.0, RegionKind.FULL, 0.5),
    ],
)
def test_maximal_value_unit_ball_closed_forms(lam, R, region, want):
    cfg = OperatorConfig(1, lam)
    got = maximal_value(UNIT_BALL, cfg, R, region)
    assert got == pytest.approx(want, abs=1e-9)
    if region is RegionKind.FULL:
        oracle = brute_force_m_1d(UNIT_BALL, lam, R)
        assert oracle == pytest.approx(want, abs=2e-3)


def test_maximal_value_outside_support_closed_form():
    # m(R) = (1 + lam) / (R + 1) for the unit interval indicator, R > 1
    for lam in (0.0, 0.25, 0.5, 1.0):
        cfg = OperatorConfig(1, lam)
        for R in (1.5, 2.0, 4.0):
            assert maximal_value(UNIT_BALL, cfg, R) == pytest.approx(
                (1 + lam) / (R + 1), rel=1e-9
            )


def test_maximal_value_matches_brute_force_on_random_profiles():
    for seed in (5, 11, 27):
        g = random_profile(seed, 5, 1)
        for lam in (0.0, 0.6, 1.0):
            cfg = OperatorConfig(1, lam)
            for R in (0.3 * g.support_radius, 1.4 * g.support_radius, 3.0 * g.support_radius):
                got = maximal_value(g, cfg, R)
                oracle = brute_force_m_1d(g, lam, R)
                assert got >= oracle - 1e-4 * max(oracle, 1e-12)
                assert got <= max(oracle * (1 + 2e-3), oracle + 1e-6)


def test_maximal_value_detailed_reports_argmax():
    cfg = OperatorConfig(1, 1.0)
    res = maximal_value_detailed(UNIT_BALL, cfg, 2.0)
    assert res.value == pytest.approx(2.0 / 3.0, abs=1e-9)
    # optimal ball [-1, 2]: alpha = 0.25, beta = 0.75
    assert res.alpha == pytest.approx(0.25, abs=1e-4)
    assert res.beta == pytest.approx(0.75, abs=1e-4)
    assert res.converged


def test_maximal_value_batch_matches_scalar():
    cfg = OperatorConfig(2, 0.5)
    g = random_profile(3, 4, 2)
    Rs = [0.5, 1.0, 2.5]
    batch = maximal_value_batch(g, cfg, Rs)
    for R, v in zip(Rs, batch):
        assert v == pytest.approx(maximal_value(g, cfg, R), rel=1e-12)


CRITERION_01 = OptimizerSettings(alpha_grid=8, beta_grid=12, refine_rounds=6, rel_tol=1e-5)


@pytest.mark.parametrize("d", [2, 3, 5, 10, 30])
def test_maximal_value_batch_is_bitwise_independent(d):
    # each radius stops on its own evidence, so a batch changes no bits
    g = random_profile(700 + d, 6, d)
    Rs = g.support_radius * np.geomspace(0.03, 20.0, 36)
    for lam in (0.0, 0.5, 1.0):
        cfg = OperatorConfig(d, lam)
        for opt in (OptimizerSettings(), CRITERION_01):
            batch = maximal_value_batch(g, cfg, Rs, opt=opt)
            single = np.array([maximal_value(g, cfg, float(R), opt=opt) for R in Rs])
            assert (batch.view(np.int64) == single.view(np.int64)).all(), (lam, opt)


def _same_search(a, b):
    # two _supremum_batch results agree bit for bit: value, alpha, beta,
    # converged flags and warnings
    return all((x.view(np.int64) == y.view(np.int64)).all() for x, y in zip(a[:3], b[:3])) and (
        (a[3] == b[3]).all() and a[4] == b[4]
    )


def test_converged_flag_is_per_radius(monkeypatch):
    # with a one-round cap some radii stop and some do not; each flag is
    # the same in a batch as alone
    monkeypatch.setattr(maximal, "_MAX_ROUNDS", 1)
    opt = OptimizerSettings()
    flags = []
    for d in (2, 3, 10):
        g = random_profile(60 + d, 6, d)
        Rs = g.support_radius * np.geomspace(0.05, 10.0, 24)
        cfg = OperatorConfig(d, 0.5)
        vals, _, _, converged, warns = maximal._supremum_batch(
            g, cfg, Rs, RegionKind.FULL, opt
        )
        for R, v, flag in zip(Rs, vals, converged):
            res = maximal_value_detailed(g, cfg, float(R), opt=opt)
            assert (res.value, res.converged) == (v, flag)
            assert (maximal._UNCONVERGED in res.warnings) == (not flag)
        assert (maximal._UNCONVERGED in warns) == (not converged.all())
        flags.extend(converged)
    assert any(flags) and not all(flags)


@pytest.mark.parametrize("d", [2, 3, 10, 30])
def test_round_cap_never_binds(monkeypatch, d):
    # At rel_tol far below rounding every window narrows until it collapses;
    # even then no radius reaches the cap, so lifting it changes no bit.
    opt = OptimizerSettings(rel_tol=1e-300)
    g = random_profile(900 + d, 6, d)
    Rs = g.support_radius * np.geomspace(1e-3, 100.0, 24)
    cfgs = [OperatorConfig(d, lam) for lam in (0.0, 0.5, 1.0)]
    capped = [maximal._supremum_batch(g, cfg, Rs, RegionKind.FULL, opt) for cfg in cfgs]
    monkeypatch.setattr(maximal, "_MAX_ROUNDS", 10_000)
    for cfg, before in zip(cfgs, capped):
        lifted = maximal._supremum_batch(g, cfg, Rs, RegionKind.FULL, opt)
        assert _same_search(before, lifted), cfg.lam


def test_collapsed_window_is_unconverged():
    # rel_tol far below rounding: no window can go flat before it shrinks
    # below float resolution, and such a radius is not reported converged.
    # It follows the default search's path past the default stop, so its
    # value is at least the default one.
    opt = OptimizerSettings(rel_tol=1e-300)
    g = random_profile(64, 6, 3)
    cfg, R = OperatorConfig(3, 0.5), 2.0 * g.support_radius
    res = maximal_value_detailed(g, cfg, R, opt=opt)
    assert not res.converged and maximal._UNCONVERGED in res.warnings
    assert res.value >= maximal_value(g, cfg, R)


@pytest.mark.parametrize("R", [1e-6, 2.07e-5])
def test_tiny_radius_keeps_the_ball_volume_normal(R):
    # At d=30, (beta R)^d underflows for the smallest betas of such radii;
    # the floored ball radius keeps every average finite (tests turn any
    # RuntimeWarning into an error) and the search converges on the top
    # level.
    g = random_profile(7004, 6, 30)
    for lam in (0.0, 0.5, 1.0):
        res = maximal_value_detailed(g, OperatorConfig(30, lam), R)
        assert res.converged and res.warnings == ()
        assert res.value == g.top_level


@pytest.mark.parametrize("d", [2, 30])
@pytest.mark.parametrize(
    "region", [RegionKind.CENTERED_SHELL, RegionKind.UPPER_BAND, RegionKind.LOWER_BAND]
)
def test_restricted_search_stays_in_its_region(d, region):
    _search_stays_in_its_region(d, region, 0.0)


@pytest.mark.parametrize("d", [2, 30])
@pytest.mark.parametrize("lam", [0.3, 0.5])
def test_lower_band_search_stays_in_its_region(d, lam):
    # at both lam, 1/(1 + lam) rounds so that the cut 1 - lam*beta lies an
    # ulp above it: that ball is outside the band, which starts a float up
    _search_stays_in_its_region(d, RegionKind.LOWER_BAND, lam)


def _search_stays_in_its_region(d, region, lam):
    # At tiny radii the floor that keeps the least ball's volume normal
    # passes the region's greatest beta.  Such a radius is rejected, and the
    # message names the least radius searched; every other radius reports a
    # ball of its region (or the shrinking-ball limit).
    g = random_profile(5, 6, d)
    cfg = OperatorConfig(d, lam)
    rejected = []
    for R in np.geomspace(1e-300, 1.0, 61).tolist():
        try:
            res = maximal_value_detailed(g, cfg, R, region)
        except UsageError as exc:
            rejected.append(float(re.search(r"lies below (\S+),", str(exc)).group(1)))
            continue
        assert res.beta == 0.0 or feasible(region, lam, BallParams(res.alpha, res.beta)), R
    assert rejected and len(set(rejected)) == 1
    least = rejected[0]
    res = maximal_value_detailed(g, cfg, least, region)
    assert res.beta == 0.0 or feasible(region, lam, BallParams(res.alpha, res.beta))
    with pytest.raises(UsageError, match="least radius"):
        maximal_value_detailed(g, cfg, math.nextafter(least, 0.0), region)


def test_radii_up_to_the_greatest_keep_the_closed_forms():
    # m(R) = (1 + lam) / (R + 1) for the unit interval up to R = 1e15; from
    # about 2^53 r_K on, 1 + r_K / R rounds to 1 and the radius is rejected
    for lam in (0.0, 0.5, 1.0):
        cfg = OperatorConfig(1, lam)
        for R in (1e12, 1e15, 4e15):
            res = maximal_value_detailed(UNIT_BALL, cfg, R)
            assert res.converged
            assert res.value == pytest.approx((1.0 + lam) / (R + 1.0), rel=1e-15, abs=0.0)
        for R in (2.0**53, 1e16, 1e300):
            with pytest.raises(UsageError, match="greatest radius"):
                maximal_value_detailed(UNIT_BALL, cfg, R)
    g = random_profile(3, 6, 2)
    for region in RegionKind:
        lam = 0.0 if region is RegionKind.CENTERED_SHELL else 0.5
        with pytest.raises(UsageError, match="greatest radius"):
            maximal_value_batch(g, OperatorConfig(2, lam), [1.0, 2.0**53 * g.support_radius], region)


def test_search_rejects_a_support_covering_ball_whose_volume_overflows():
    # In units of the power of two nearest r_K these covering balls' volumes
    # overflow a double at d = 30, and the message names both radii in the
    # caller's units.
    for r_K, lam, R in ((3e9, 0.5, 3e20), (1e10, 0.0, 1e21)):
        g = StepProfile(((r_K, 1.0),))
        with pytest.raises(UsageError, match="greatest radius") as exc:
            maximal_value_detailed(g, OperatorConfig(30, lam), R)
        cover, greatest = re.search(r"of radius (\S+), lies above (\S+),", str(exc.value)).groups()
        assert float(cover) == pytest.approx((R + r_K) / (1.0 + lam), rel=1e-15)
        assert float(greatest) < float(cover)
    # a knot far beyond the covering ball, (r_K / R - 1) / (1 - lam) = 1e12,
    # is clipped to it
    res = maximal_value_detailed(UNIT_BALL, OperatorConfig(30, 1.0 - 1e-12), 0.5)
    assert res.value == 1.0 and res.converged


def test_support_covering_balls_are_searched_in_units():
    # In absolute units these inputs went wrong at d = 30: the covering balls
    # of r_K = 3e9 and 1e10 have volumes that overflow a double (the radius
    # was rejected), and the indicator of radius 1e-10 read 2.19e-13 at
    # R = 2e-10, where every ball that holds its support lies below the
    # least-volume floor.  In units of the power of two nearest r_K each
    # value is the one at unit scale: bit for bit after that dilation, and
    # to rounding for the unit ball at R / r_K.
    for r_K, lam, R in ((3e9, 0.5, 3e10), (1e10, 0.0, 1e11), (1e-10, 0.5, 2e-10)):
        cfg, unit = OperatorConfig(30, lam), 2.0 ** round(math.log2(r_K))
        res = maximal_value_detailed(StepProfile(((r_K, 1.0),)), cfg, R)
        assert res.converged
        assert res.value == maximal_value(StepProfile(((r_K / unit, 1.0),)), cfg, R / unit)
        assert res.value == pytest.approx(maximal_value(UNIT_BALL, cfg, R / r_K), rel=1e-14, abs=0.0)


def test_search_rejects_radii_whose_candidate_betas_overflow():
    # Where r_K / R overflows a double, every knot does, and the search
    # rejects the radius as below its least radius.
    for r_K, R in ((1.0, 1e-320), (1e10, 1e-299)):
        g = StepProfile(((r_K, 1.0),))
        for d in (1, 2, 30):
            for lam in (0.0, 0.5, 1.0):
                with pytest.raises(UsageError, match="least radius .*r_K / R overflows a double"):
                    maximal_value_detailed(g, OperatorConfig(d, lam), R)


def test_radii_whose_inside_knots_overflow_are_answered():
    # Here only the inside knot (r_K / R - 1) / (1 - lam) overflows; the
    # search rejected these radii as below a least radius at which every knot
    # stays finite.  It now clips that knot to the covering ball, and the
    # value is the unit ball's at R / r_K, the level 1.
    for r_K, R in ((1.0, 9e-309), (1e10, 1e-298)):
        g = StepProfile(((r_K, 1.0),))
        for d in (1, 2, 30):
            cfg = OperatorConfig(d, 0.5)
            res = maximal_value_detailed(g, cfg, R)
            assert res.converged and res.value == maximal_value(UNIT_BALL, cfg, R / r_K) == 1.0


@pytest.mark.parametrize("d", [1, 2, 30])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0 - 1e-12])
def test_radii_from_2_to_the_minus_1070_to_2_to_the_60_warn_never(d, lam):
    # Every radius R = 2^k r_K is rejected or searched without a
    # RuntimeWarning, and a searched value is at least the average of the
    # least-offset ball that holds the support, of radius
    # max(1, (2^k + 1) / (1 + lam)) r_K, to 1e-14 at r_K = 1.  Off powers of
    # two the covering ball is not tangent to the support in floats, and far
    # outside the support its lens cancels: at d = 1 the value already falls
    # more than 1e-14 short at R = 2^10 r_K, so there r_K is a power of two;
    # at d = 2 it falls 3.1e-13 short (lam = 1 - 1e-12, R = 2^30 r_K,
    # r_K = 1e-10), so there the bound is 1e-12.
    scales = ((2.0**-33, 1e-14), (1.0, 1e-14), (2.0**33, 1e-14))
    if d > 1:
        scales = ((1e-10, 1e-12), (1.0, 1e-14), (1e10, 1e-12))
    cfg = OperatorConfig(d, lam)
    for r_K, tol in scales:
        g, searched = StepProfile(((r_K, 1.0),)), []
        for k in range(-1070, 61):
            R = math.ldexp(r_K, k)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    value = maximal_value(g, cfg, R)
                except UsageError:
                    continue
            searched.append(k)
            cover = max(1.0, (math.ldexp(1.0, k) + 1.0) / (1.0 + lam))
            assert value >= cover ** -d * (1.0 - tol), (r_K, k)
        # both ends are rejected, and every radius between them is searched
        assert -1070 < searched[0] and searched[-1] < 60, r_K
        assert searched == list(range(searched[0], searched[-1] + 1)), r_K


@pytest.mark.parametrize("d", [1, 2, 3, 10, 30])
def test_power_of_two_dilations_keep_every_bit(d):
    # M[g(./s)](s R) = M g(R).  The search forms every ball average in units
    # of the power of two nearest r_K, so a dilation by s = 2^k keeps every
    # value's bits, however far s is from 1.  (In absolute units d = 30 read
    # about 0 at 27 radii for k = -40 and overflowed the mass for k = 40.)
    g = random_profile(9100, 6, d)
    R = np.geomspace(0.02, 60.0, 40) * g.support_radius
    for lam in (0.0, 0.5, 1.0):
        cfg = OperatorConfig(d, lam)
        want = maximal_value_batch(g, cfg, R).view(np.int64)
        for k in (-40, -20, 20, 40):
            gs = StepProfile(tuple((math.ldexp(r, k), v) for r, v in g.breakpoints))
            got = maximal_value_batch(gs, cfg, np.ldexp(R, k)).view(np.int64)
            assert np.array_equal(got, want), (lam, k, np.flatnonzero(got != want))


def test_maximal_value_rejects_bad_radius():
    cfg = OperatorConfig(1, 0.5)
    with pytest.raises(UsageError):
        maximal_value(UNIT_BALL, cfg, 0.0)
    with pytest.raises(UsageError):
        maximal_value(UNIT_BALL, cfg, -1.0)
    with pytest.raises(UsageError):
        maximal_value(UNIT_BALL, OperatorConfig(1, 0.5), 1.0, RegionKind.CENTERED_SHELL)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_monotone_in_lambda():
    g = random_profile(8, 5, 2)
    cfgs = [OperatorConfig(2, lam) for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
    opt = OptimizerSettings()
    for R in (0.5 * g.support_radius, 2.0 * g.support_radius):
        vals = [maximal_value(g, cfg, R, RegionKind.FULL, opt) for cfg in cfgs]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 2 * opt.rel_tol * max(a, 1e-12)


def test_region_dominance():
    g = random_profile(17, 4, 2)
    opt = OptimizerSettings()
    for lam in (0.0, 0.5, 1.0):
        cfg = OperatorConfig(2, lam)
        regions = [RegionKind.UPPER_BAND, RegionKind.LOWER_BAND]
        if lam == 0.0:
            regions.append(RegionKind.CENTERED_SHELL)
        for R in (0.7, 1.8, 4.0):
            full = maximal_value(g, cfg, R, RegionKind.FULL, opt)
            for region in regions:
                sub = maximal_value(g, cfg, R, region, opt)
                assert sub <= full + 2 * opt.rel_tol * max(full, 1e-12)


def test_dilation_invariance():
    g = random_profile(21, 4, 2)
    cfg = OperatorConfig(2, 0.75)
    for s in (0.25, 3.0):
        gs = StepProfile(tuple((r * s, v) for r, v in g.breakpoints))
        for R in (0.6, 2.2):
            assert maximal_value(gs, cfg, s * R) == pytest.approx(
                maximal_value(g, cfg, R), rel=1e-9
            )


def test_vertical_scaling_is_exact():
    g = random_profile(33, 4, 3)
    cfg = OperatorConfig(3, 0.5)
    c = 3.7
    gc = StepProfile(tuple((r, v * c) for r, v in g.breakpoints))
    for R in (0.4, 1.9):
        assert maximal_value(gc, cfg, R) == pytest.approx(
            c * maximal_value(g, cfg, R), rel=1e-12
        )


def test_dominates_profile_level_inside_support():
    g = random_profile(2, 6, 2)
    cfg = OperatorConfig(2, 0.25)
    for R in np.linspace(0.1 * g.support_radius, 0.95 * g.support_radius, 7):
        assert maximal_value(g, cfg, float(R)) >= evaluate(g, float(R))


def test_optimizer_settings_validation():
    with pytest.raises(UsageError):
        OptimizerSettings(alpha_grid=7)
    with pytest.raises(UsageError):
        OptimizerSettings(refine_rounds=0)
    with pytest.raises(UsageError):
        OptimizerSettings(rel_tol=0.1)
    # a count must be an int or numpy integer; a float or bool is rejected
    bad = (("beta_grid", 8.0), ("alpha_grid", 9.5), ("refine_rounds", 1.5), ("beta_grid", True))
    for name, value in bad:
        with pytest.raises(UsageError):
            OptimizerSettings(**{name: value})
    assert OptimizerSettings(beta_grid=np.int64(12)).beta_grid == 12


# ---------------------------------------------------------------------------
# least-offset boundary search
# ---------------------------------------------------------------------------

def _alpha_upper(region, beta):
    if region is RegionKind.UPPER_BAND:
        return min(1.0, beta + 1.0)
    if region is RegionKind.LOWER_BAND:
        return min(beta, 1.0)
    return 1.0


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_reported_argmax_is_feasible(d):
    for seed in (52, 9):
        g = random_profile(seed, 6, d)
        Rs = g.support_radius * np.geomspace(0.02, 8, 15)
        for lam in (0.0, 0.5, 1.0):
            cfg = OperatorConfig(d, lam)
            regions = [RegionKind.FULL, RegionKind.UPPER_BAND, RegionKind.LOWER_BAND]
            if lam == 0.0:
                regions.append(RegionKind.CENTERED_SHELL)
            for region in regions:
                for R in Rs:
                    res = maximal_value_detailed(g, cfg, float(R), region)
                    assert res.alpha <= _alpha_upper(region, res.beta), (seed, lam, region, R)


def test_average_nonincreasing_in_center_offset():
    # the fact the boundary search rests on (Riesz rearrangement)
    alphas = np.linspace(0.0, 1.5, 16)
    for d in (1, 2, 3, 5, 10):
        for seed in (4, 19):
            g = random_profile(seed, 5, d)
            for R in (0.5 * g.support_radius, 1.5 * g.support_radius):
                for beta in (0.1, 0.6, 1.0, 2.5):
                    vals = [average_over_ball(g, d, R, BallParams(a, beta)) for a in alphas]
                    for near, far in zip(vals, vals[1:]):
                        assert far <= near * (1.0 + 1e-12), (d, seed, R, beta)


def test_alpha_grid_has_no_effect():
    for d, lam in ((1, 0.5), (2, 0.0), (3, 1.0)):
        g = random_profile(31, 5, d)
        cfg = OperatorConfig(d, lam)
        for R in (0.4 * g.support_radius, 2.0 * g.support_radius):
            a = maximal_value_detailed(g, cfg, R, opt=OptimizerSettings(alpha_grid=8))
            b = maximal_value_detailed(g, cfg, R, opt=OptimizerSettings(alpha_grid=32))
            assert (a.value, a.alpha, a.beta) == (b.value, b.alpha, b.beta)


@pytest.mark.parametrize("d", [2, 10, 30])
def test_refine_rounds_has_no_effect(d):
    g = random_profile(33 + d, 6, d)
    Rs = g.support_radius * np.geomspace(0.05, 20.0, 12)
    for lam in (0.0, 0.5, 1.0):
        cfg = OperatorConfig(d, lam)
        runs = [
            maximal._supremum_batch(g, cfg, Rs, RegionKind.FULL, OptimizerSettings(refine_rounds=k))
            for k in (1, 12, 100)
        ]
        assert all(_same_search(runs[0], other) for other in runs[1:]), lam


def test_each_lens_call_makes_at_most_one_betainc_call(monkeypatch):
    # Up to geometry._QUIET_DIM the cap is closed form and calls no betainc.
    # Above it the lens kernel stacks both caps of every lens entry into one
    # betainc call, so the fixed cost of a kernel call is paid once.
    betainc, lens = geometry._betainc_ufunc, maximal._lens_array
    per_lens_call = []

    def counting_betainc(*args):
        per_lens_call[-1] += 1
        return betainc(*args)

    def counting_lens(*args):
        per_lens_call.append(0)
        return lens(*args)

    monkeypatch.setattr(geometry, "_betainc_ufunc", counting_betainc)
    monkeypatch.setattr(maximal, "_lens_array", counting_lens)
    maximal_value_detailed(random_profile(11, 6, 3), OperatorConfig(3, 0.5), 0.8)
    g = random_profile(20240817, 6, 2)
    weak_constant_estimate(g, OperatorConfig(2, 0.5), default_t_grid(g, 8), CRITERION_01)
    assert len(per_lens_call) > 0
    assert sum(per_lens_call) == 0
    per_lens_call.clear()
    maximal_value_detailed(random_profile(11, 6, 10), OperatorConfig(10, 0.5), 0.8)
    assert sum(per_lens_call) > 0
    assert max(per_lens_call) <= 1


@pytest.mark.parametrize(
    "d, opt",
    [(d, OptimizerSettings()) for d in (2, 3, 5)] + [(d, CRITERION_01) for d in (2, 3, 5)],
    ids=["2", "3", "5", "2-criterion-01", "3-criterion-01", "5-criterion-01"],
)
def test_refinement_stops_within_rel_tol_of_a_dense_scan(d, opt):
    # A flat window is honest evidence: no least-offset ball within two
    # sweep steps of the reported beta (2,001 scalar-path averages) beats
    # the reported value by more than rel_tol.  The sweep step is taken at
    # the mass cutoff of the reported value, which is at most the search's;
    # past it no ball can beat the reported value.  The far-field radii
    # (3 to 60 r_K) check the window floored where balls miss the support.
    # The criterion-01 settings are those of the sweep.
    steps = 4 * opt.beta_grid - 1
    scanned = 0
    for lam in (0.0, 0.5, 1.0):
        cfg = OperatorConfig(d, lam)
        g = random_profile(80 + 10 * d + int(4 * lam), 6, d)
        for R in g.support_radius * np.array([0.6, 1.7, 3.0, 4.0, 20.0, 60.0]):
            res = maximal_value_detailed(g, cfg, R, opt=opt)
            assert res.converged
            if res.beta == 0.0:
                continue  # the shrinking-ball limit
            bhi = maximal._mass_cutoff(l1_norm(g, d), unit_ball_volume(d), d, R, res.value)
            step = (math.log(bhi) - math.log(maximal._BETA_FLOOR)) / steps
            betas = res.beta * np.exp(np.linspace(-2.0 * step, 2.0 * step, 2001))
            scan = max(
                average_over_ball(g, d, R, BallParams(max(0.0, 1.0 - lam * b), b))
                for b in np.minimum(betas, bhi).tolist()
            )
            assert res.value >= scan * (1.0 - opt.rel_tol), (lam, R, res.value, scan)
            scanned += 1
    assert scanned >= 12


def test_refinement_work_budget(monkeypatch):
    # lens-kernel calls per d >= 2 radius at the default settings: one for
    # the candidates and the sweep, then one per refinement round.  The
    # sweep spans only the betas where the average can move and a round
    # narrows 16x, at every d, so a radius takes few calls.
    lens, calls = maximal._lens_array, [0]

    def counting_lens(*args):
        calls[0] += 1
        return lens(*args)

    monkeypatch.setattr(maximal, "_lens_array", counting_lens)
    per_radius = {}
    for d in (2, 3, 5, 10, 30):
        for lam in (0.0, 0.5, 1.0):
            g = random_profile(90 + d, 6, d)
            for R in g.support_radius * np.geomspace(0.05, 5.0, 8):
                calls[0] = 0
                maximal_value_detailed(g, OperatorConfig(d, lam), float(R))
                per_radius.setdefault(d, []).append(calls[0])
    assert all(np.median(per_radius[d]) <= 4 for d in per_radius), per_radius
    assert max(max(per_radius[d]) for d in (2, 3, 5, 10)) <= 5, per_radius


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 30])
def test_least_offset_average_is_fixed_outside_the_sweep_range(d):
    # The two facts that bound the sweep, read from the knot table
    # (maximal._knots).  Where the beta range starts at 0, below the table's
    # lower end the least-offset ball lies inside or outside each step and
    # averages the level g(R).  In the full region, above the table's
    # support-covering beta it averages ||g||_1 / (omega_d (beta R)^d).
    omega = unit_ball_volume(d)
    below = 0
    for seed in range(3):
        g = random_profile(700 + 10 * d + seed, 6, d)
        r_k, norm, radii_k = g.support_radius, l1_norm(g, d), g.arrays.step_radii
        Rs = r_k * np.geomspace(0.05, 4.0, 9)
        Rs[0] = radii_k[0]  # on a breakpoint the ball meets it at once
        for lam in (0.0, 0.3, 0.5, 1.0):
            full = maximal._knots(RegionKind.FULL, lam, Rs, radii_k, math.inf)
            upper = maximal._knots(RegionKind.UPPER_BAND, lam, Rs, radii_k, 1.0)
            for region, (_, steady, _) in ((RegionKind.FULL, full), (RegionKind.UPPER_BAND, upper)):
                assert steady[0] == 0.0 and np.all(steady <= 1.0 / (1.0 + lam))
                for R, b0 in zip(Rs.tolist(), steady.tolist()):
                    level = float(levels_at(g, R))
                    for b in (b0 * np.array([1e-3, 0.3, 0.9, 1.0 - 1e-9])).tolist():
                        if b == 0.0:
                            continue  # R on a breakpoint
                        avg = average_over_ball(g, d, R, BallParams(_least_offset(region, lam, b), b))
                        assert avg == pytest.approx(level, rel=1e-12, abs=0.0), (R, lam, b, region)
                        below += 1
            for R, b0 in zip(Rs.tolist(), full[2].tolist()):
                for b in (b0 * np.array([1.0 + 1e-9, 1.5, 40.0])).tolist():
                    avg = average_over_ball(g, d, R, BallParams(_least_offset(RegionKind.FULL, lam, b), b))
                    assert avg == pytest.approx(norm / (omega * (b * R) ** d), rel=1e-12, abs=0.0), (R, lam, b)
    assert below > 0


_REGION_LAMS = [(RegionKind.CENTERED_SHELL, 0.0)] + [
    (region, lam)
    for region in (RegionKind.FULL, RegionKind.UPPER_BAND, RegionKind.LOWER_BAND)
    for lam in (0.0, 0.3, 1.0)
]


@pytest.mark.parametrize("region, lam", _REGION_LAMS)
def test_each_step_knot_changes_the_ball_relation_to_its_step(region, lam):
    # Per-step blocks of the knot table, in column order after the minimal
    # ball: holds, leaves and lies inside on the branch alpha = 1 - lam*beta,
    # lies inside on the centered branch alpha = 0, then on the band's branch.
    # At a knot on its own branch, the ball B(alpha R, beta R) must cross a
    # boundary of B(0, r_k): disjoint, inside the step, holding it or a lens.
    blocks = [lambda b: 1.0 - lam * b] * (3 if lam < 1.0 else 2)
    blocks += [lambda b: 0.0 * b] if lam > 0.0 else []
    blocks += [lambda b: b - 1.0] if region is RegionKind.LOWER_BAND else []
    blocks += [lambda b: b] if region is RegionKind.UPPER_BAND else []
    blo, bhi = maximal._beta_range(region, lam)

    def relation(R, r, alpha, beta):
        c, rho = alpha * R, beta * R
        if c - rho >= r:
            return "disjoint"
        if c + rho <= r:
            return "inside"
        return "holds" if rho - c >= r else "lens"

    checked = 0
    for seed in range(4):
        g = random_profile(950 + seed, 6, 2)
        radii_k = g.arrays.step_radii
        Rs = g.support_radius * np.geomspace(0.05, 4.0, 11)
        knots = maximal._knots(region, lam, Rs, radii_k, bhi)[0]
        for i, branch in enumerate(blocks):
            block = knots[:, 1 + i * radii_k.size: 1 + (i + 1) * radii_k.size]
            for R, row in zip(Rs.tolist(), block.tolist()):
                for r, knot in zip(radii_k.tolist(), row):
                    sides = (knot * (1.0 - 1e-9), knot * (1.0 + 1e-9))
                    if not all(blo <= b <= bhi and maximal._alpha_bounds(region, lam, b)[0] == branch(b) for b in sides):
                        continue
                    below, above = (relation(R, r, branch(b), b) for b in sides)
                    assert below != above, (R, r, knot, i)
                    checked += 1
    assert checked > 0


def test_reported_alpha_is_the_least_offset_of_the_reported_beta():
    # the search reports only beta; alpha is the region's least offset
    # there, and 1 for the shrinking-ball limit (beta = 0)
    limits = 0
    for d in (1, 2, 3, 10):
        g = random_profile(300 + d, 6, d)
        Rs = g.support_radius * np.geomspace(0.02, 60.0, 24)
        for lam in (0.0, 0.5, 1.0):
            cfg = OperatorConfig(d, lam)
            regions = [RegionKind.FULL, RegionKind.UPPER_BAND, RegionKind.LOWER_BAND]
            if lam == 0.0:
                regions.append(RegionKind.CENTERED_SHELL)
            for region in regions:
                search = maximal._supremum_batch(g, cfg, Rs, region, OptimizerSettings())
                for alpha, beta in zip(search[1].tolist(), search[2].tolist()):
                    if beta == 0.0:
                        assert alpha == 1.0
                        limits += 1
                    else:
                        assert alpha == _least_offset(region, lam, beta), (d, lam, region, beta)
    assert limits > 0


# ---------------------------------------------------------------------------
# d = 1: the search is exact at its candidate betas
# ---------------------------------------------------------------------------

def _least_offset(region, lam, beta):
    """Least alpha of each region's definition (see feasible), scalar."""
    if region is RegionKind.FULL:
        return max(0.0, 1.0 - lam * beta)
    if region is RegionKind.CENTERED_SHELL:
        return 1.0
    if region is RegionKind.UPPER_BAND:
        return min(max(beta, 1.0 - lam * beta), 1.0)
    return min(max(0.0, beta - 1.0, 1.0 - lam * beta), beta, 1.0)


def _beta_span(region, lam, g, R):
    if region is RegionKind.FULL:
        # past the ball that covers the support the average only falls
        return 1e-6, 3.0 * (g.support_radius + R) / R
    if region is RegionKind.UPPER_BAND:
        return 1e-6, 1.0
    if region is RegionKind.LOWER_BAND:
        return 1.0 / (1.0 + lam), 2.0
    return 1.0, 2.0


_D1_CASES = [(RegionKind.CENTERED_SHELL, 0.0)] + [
    (region, lam)
    for region in (RegionKind.FULL, RegionKind.UPPER_BAND, RegionKind.LOWER_BAND)
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0)
]
# one radius per case, from 0.02 to 60 r_K, spread over the regions
_D1_RADII = np.geomspace(0.02, 60.0, len(_D1_CASES))[(5 * np.arange(len(_D1_CASES))) % len(_D1_CASES)]


@pytest.mark.parametrize("case", range(len(_D1_CASES)))
def test_one_dimensional_search_matches_dense_scan(case):
    # The reported value is never below a 20,000-beta least-offset scan
    # through the scalar path by more than 1e-12 relative, and never above
    # that scan plus the reported ball itself, beyond rounding: it is a
    # genuine ball average.  Far from the support the kernel's c - rho
    # cancellation costs about R / r_K ulps, hence 1e-13 there.
    region, lam = _D1_CASES[case]
    g = random_profile(400 + case, 6, 1)
    R = float(_D1_RADII[case] * g.support_radius)
    res = maximal_value_detailed(g, OperatorConfig(1, lam), R, region)
    assert res.converged and res.warnings == ()
    scan = [
        average_over_ball(g, 1, R, BallParams(_least_offset(region, lam, b), b))
        for b in np.geomspace(*_beta_span(region, lam, g, R), 20_000).tolist()
    ]
    if region in (RegionKind.FULL, RegionKind.UPPER_BAND):
        scan.append(evaluate(g, R))  # shrinking-ball limit
    if res.beta == 0.0:
        own = evaluate(g, R)
    else:
        own = average_over_ball(g, 1, R, BallParams(res.alpha, res.beta))
    assert res.value >= max(scan) * (1.0 - 1e-12)
    assert res.value <= max(max(scan), own) * (1.0 + 1e-13)


def test_one_dimensional_unit_ball_closed_forms_to_rounding():
    cases = [
        (1.0, 2.0, RegionKind.FULL, 2.0 / 3.0),
        (0.0, 2.0, RegionKind.FULL, 1.0 / 3.0),
        (0.0, 0.9, RegionKind.FULL, 1.0),
        (0.0, 0.9, RegionKind.CENTERED_SHELL, 5.0 / 9.0),
        (0.5, 2.0, RegionKind.FULL, 0.5),
    ]
    # outside the support m(R) = (1 + lam) / (R + 1)
    cases += [
        (lam, R, RegionKind.FULL, (1.0 + lam) / (R + 1.0))
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0)
        for R in (1.5, 2.0, 4.0, 9.0)
    ]
    for lam, R, region, want in cases:
        res = maximal_value_detailed(UNIT_BALL, OperatorConfig(1, lam), R, region)
        assert res.converged and res.warnings == ()
        assert res.value == pytest.approx(want, rel=1e-14, abs=0.0), (lam, R, region)
