import math

import numpy as np
import pytest

from ballmax import geometry, maximal
from ballmax.analysis import default_t_grid, weak_constant_estimate
from ballmax.geometry import unit_ball_volume
from ballmax.maximal import (
    BallParams,
    OptimizerSettings,
    RegionKind,
    UsageError,
    average_over_ball,
    feasible,
    maximal_value,
    maximal_value_batch,
    maximal_value_detailed,
)
from ballmax.profiles import OperatorConfig, StepProfile, evaluate, l1_norm, random_profile

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
    assert not res.empty_region


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


def test_converged_flag_is_per_radius(monkeypatch):
    # with a one-round budget some radii stop and some do not; each flag
    # is the same in a batch as alone
    monkeypatch.setattr(maximal, "_EXTRA_ROUNDS", 0)
    opt = OptimizerSettings(refine_rounds=1)
    flags = []
    for d in (2, 3, 10):
        g = random_profile(60 + d, 6, d)
        Rs = g.support_radius * np.geomspace(0.05, 10.0, 24)
        cfg = OperatorConfig(d, 0.5)
        vals, _, _, _, warns, converged = maximal._supremum_batch(
            g, cfg, Rs, RegionKind.FULL, opt
        )
        for R, v, flag in zip(Rs, vals, converged):
            res = maximal_value_detailed(g, cfg, float(R), opt=opt)
            assert (res.value, res.converged) == (v, flag)
            assert (maximal._UNCONVERGED in res.warnings) == (not flag)
        assert (maximal._UNCONVERGED in warns) == (not converged.all())
        flags.extend(converged)
    assert any(flags) and not all(flags)


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
    with pytest.raises(UsageError):
        OptimizerSettings(beta_floor=0.0)


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


@pytest.mark.parametrize("d", [2, 3, 5])
def test_refinement_stops_within_rel_tol_of_a_dense_scan(d):
    # A flat window is honest evidence: no least-offset ball within two
    # sweep steps of the reported beta (2,001 scalar-path averages) beats
    # the reported value by more than rel_tol.  The sweep step is taken at
    # the mass cutoff of the reported value, which is at most the search's;
    # past it no ball can beat the reported value.  The far-field radii
    # (3 to 60 r_K) check the window floored where balls miss the support.
    opt = OptimizerSettings()
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
            step = (math.log(bhi) - math.log(opt.beta_floor)) / steps
            betas = res.beta * np.exp(np.linspace(-2.0 * step, 2.0 * step, 2001))
            scan = max(
                average_over_ball(g, d, R, BallParams(max(0.0, 1.0 - lam * b), b))
                for b in np.minimum(betas, bhi).tolist()
            )
            assert res.value >= scan * (1.0 - opt.rel_tol), (lam, R, res.value, scan)
            scanned += 1
    assert scanned >= 12


def test_refinement_work_budget(monkeypatch):
    # median lens-kernel calls per d >= 2 radius at the default settings:
    # candidates, one sweep and the refinement rounds
    lens, calls = maximal._lens_array, [0]

    def counting_lens(*args):
        calls[0] += 1
        return lens(*args)

    monkeypatch.setattr(maximal, "_lens_array", counting_lens)
    per_radius = []
    for d in (2, 3, 5, 10, 30):
        for lam in (0.0, 0.5, 1.0):
            g = random_profile(90 + d, 6, d)
            for R in g.support_radius * np.geomspace(0.05, 5.0, 8):
                calls[0] = 0
                maximal_value_detailed(g, OperatorConfig(d, lam), float(R))
                per_radius.append(calls[0])
    assert np.median(per_radius) <= 9


# ---------------------------------------------------------------------------
# d = 1: the search is exact at its candidate betas
# ---------------------------------------------------------------------------

def _least_offset_1d(region, lam, beta):
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
        average_over_ball(g, 1, R, BallParams(_least_offset_1d(region, lam, b), b))
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
