import math
import re
import warnings

import numpy as np
import pytest

from ballmax import analysis, maximal
from ballmax.analysis import (
    AnalysisWarning,
    ConstantEstimate,
    default_t_grid,
    level_set_radius_bound,
    radial_scan,
    sharpness_experiment,
    superlevel_measure,
    sweep,
    weak_constant_estimate,
)
from ballmax.geometry import unit_ball_volume
from ballmax.maximal import OptimizerSettings, RegionKind, UsageError, maximal_value_batch
from ballmax.profiles import OperatorConfig, StepProfile, l1_norm, profile_digest, random_profile

UNIT_BALL = StepProfile(((1.0, 1.0),))
BASE_SEED = 20240817
# criterion-01 settings
SUITE_OPT = OptimizerSettings(alpha_grid=8, beta_grid=12, refine_rounds=6, rel_tol=1e-5)


# ---------------------------------------------------------------------------
# radial_scan
# ---------------------------------------------------------------------------

def test_radial_scan_closed_form_uncentered():
    scan = radial_scan(UNIT_BALL, OperatorConfig(1, 1.0), [1.5, 2.0, 3.0])
    values = [m for _, m in scan.entries]
    assert values == pytest.approx([0.8, 2.0 / 3.0, 0.5], rel=1e-9)


def test_radial_scan_inside_support_is_top_level():
    scan = radial_scan(UNIT_BALL, OperatorConfig(2, 0.5), [0.2, 0.5, 0.9])
    assert [m for _, m in scan.entries] == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)


def test_radial_scan_empty_grid():
    scan = radial_scan(UNIT_BALL, OperatorConfig(1, 0.0), [])
    assert scan.entries == ()


def test_radial_scan_requires_increasing_grid():
    with pytest.raises(UsageError):
        radial_scan(UNIT_BALL, OperatorConfig(1, 0.0), [2.0, 1.0])
    with pytest.raises(UsageError):
        radial_scan(UNIT_BALL, OperatorConfig(1, 0.0), [-1.0, 1.0])


def test_radial_scan_records_provenance():
    opt = OptimizerSettings(alpha_grid=9, beta_grid=9, refine_rounds=4, rel_tol=1e-4)
    cfg = OperatorConfig(1, 1.0)
    scan = radial_scan(UNIT_BALL, cfg, [1.0, 2.0], RegionKind.FULL, opt)
    assert scan.config == cfg
    assert scan.region is RegionKind.FULL
    assert scan.settings == opt


# ---------------------------------------------------------------------------
# superlevel_measure
# ---------------------------------------------------------------------------

def test_superlevel_above_top_level_is_zero():
    assert superlevel_measure(UNIT_BALL, OperatorConfig(1, 1.0), 1.0) == 0.0
    assert superlevel_measure(UNIT_BALL, OperatorConfig(1, 1.0), 2.5) == 0.0


def test_superlevel_closed_forms_one_dimension():
    # uncentered: mu(t) = 4/t - 2; centered: 2/t - 2 capped at the support
    assert superlevel_measure(UNIT_BALL, OperatorConfig(1, 1.0), 0.5) == pytest.approx(
        6.0, rel=1e-4
    )
    assert superlevel_measure(UNIT_BALL, OperatorConfig(1, 0.0), 0.5) == pytest.approx(
        2.0, rel=1e-4
    )
    assert superlevel_measure(UNIT_BALL, OperatorConfig(1, 0.5), 0.25) == pytest.approx(
        10.0, rel=1e-4
    )


def test_superlevel_rejects_bad_threshold():
    with pytest.raises(UsageError):
        superlevel_measure(UNIT_BALL, OperatorConfig(1, 1.0), 0.0)
    with pytest.raises(UsageError):
        superlevel_measure(UNIT_BALL, OperatorConfig(1, 1.0), -1.0)


def _oracle_measure(g, cfg, t, opt):
    """mu(t) from a dense geometric scan up to the mass-bound radius, then
    bisection of the first crossing to relative width 1e-9."""
    hi = level_set_radius_bound(cfg, l1_norm(g, cfg.d), t)
    grid = np.geomspace(0.5 * g.radii[0], hi, 400)
    above = maximal_value_batch(g, cfg, grid, RegionKind.FULL, opt) > t
    i = int(np.argmin(above))  # first grid radius with value <= t
    assert i > 0 and not above[i]
    lo, hi = grid[i - 1], grid[i]
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if maximal_value_batch(g, cfg, [mid], RegionKind.FULL, opt)[0] > t:
            lo = mid
        else:
            hi = mid
    return unit_ball_volume(cfg.d) * (0.5 * (lo + hi)) ** cfg.d


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_superlevel_matches_scan_and_bisection_oracle(lam):
    opt = OptimizerSettings()
    for d, seed in ((2, BASE_SEED), (3, BASE_SEED + 1)):
        g = random_profile(seed, 6, d)
        cfg = OperatorConfig(d, lam)
        for t in default_t_grid(g, 4):
            want = _oracle_measure(g, cfg, t, opt)
            assert superlevel_measure(g, cfg, t, opt) == pytest.approx(want, rel=1e-5), (d, t)


def test_weak_constant_radius_budget(monkeypatch):
    # radii per cell, and supremum searches (_supremum_batch calls) over
    # all 24 cells: the covering-ball ends close most far-field brackets in
    # a few steps
    counts, calls = [], [0]
    search = maximal._supremum_batch

    def counting(g, cfg, R, *args, **kwargs):
        counts[-1] += np.size(R)
        calls[0] += 1
        return search(g, cfg, R, *args, **kwargs)

    monkeypatch.setattr(maximal, "_supremum_batch", counting)
    for d in (2, 3):
        for i in range(4):
            g = random_profile(BASE_SEED + i, 6, d)
            for lam in (0.0, 0.5, 1.0):
                counts.append(0)
                weak_constant_estimate(g, OperatorConfig(d, lam), default_t_grid(g, 8), SUITE_OPT)
                assert counts[-1] <= 80, (d, i, lam, counts[-1])
    assert len(counts) == 24
    assert calls[0] <= 195


def test_superlevel_warns_on_mass_bound_breach(monkeypatch):
    # with the upper bracket end forced inside the level set (R_t = 9), the
    # measure stops there, with a warning
    monkeypatch.setattr(analysis, "level_set_radius_bound", lambda cfg, norm, t: 1.5)
    with pytest.warns(AnalysisWarning, match="exceeds the threshold at the mass-bound radius"):
        mu = superlevel_measure(UNIT_BALL, OperatorConfig(1, 1.0), 0.2)
    assert mu == pytest.approx(3.0, rel=1e-12)


def test_superlevel_warns_when_steps_run_out(monkeypatch):
    g, cfg = random_profile(BASE_SEED, 6, 2), OperatorConfig(2, 0.5)
    t = default_t_grid(g, 4)[1]
    calls = []
    search = maximal._supremum_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    # premise: this level set needs more than one step (one call evaluates
    # the bracket ends, then one call per step)
    monkeypatch.setattr(maximal, "_supremum_batch", counting)
    superlevel_measure(g, cfg, t)
    assert len(calls) > 2
    monkeypatch.setattr(analysis, "_CROSSING_MAX_STEPS", 1)
    with pytest.warns(AnalysisWarning, match="not resolved to relative width"):
        superlevel_measure(g, cfg, t)


def test_superlevel_resolves_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", AnalysisWarning)
        g = random_profile(BASE_SEED, 6, 2)
        weak_constant_estimate(g, OperatorConfig(2, 0.5), default_t_grid(g, 8), SUITE_OPT)


def test_unconverged_searches_warn_once_with_their_count():
    # at d = 10 the small-cap kernel noise leaves one searched radius of this
    # cell unconverged; the level-set solver says so once
    g = random_profile(9003, 6, 10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AnalysisWarning)
        weak_constant_estimate(g, OperatorConfig(10, 0.0), default_t_grid(g, 12))
    messages = [str(w.message) for w in caught if w.category is AnalysisWarning]
    assert len(messages) == 1
    pattern = r"level-set search: unconverged at 1 of its radii \(.*rel_tol.*\)"
    assert re.fullmatch(pattern, messages[0])


@pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 30])
def test_lower_bracket_ends_lie_inside_the_level_set(d):
    # the computed M g exceeds t at every lower bracket end, and in
    # particular at every covering-ball end (hi * _INSIDE - r_K)
    covering, margin = 0, math.inf
    for lam in (0.0, 0.25, 0.5, 1.0):
        cfg = OperatorConfig(d, lam)
        for s in range(7):
            g = random_profile(BASE_SEED + 10 * d + s, 6, d)
            ts = np.array(default_t_grid(g, 12))
            lo, hi = analysis._level_set_bracket(g, cfg, ts)
            m = maximal_value_batch(g, cfg, lo)
            assert np.all(m > ts), (lam, s, ts[m <= ts])
            cover = lo == hi * analysis._INSIDE - g.support_radius
            assert np.all(lo[cover] >= lam * g.support_radius)
            covering += np.count_nonzero(cover)
            margin = min(margin, np.min(m[cover] / ts[cover] - 1.0, initial=math.inf))
    assert covering >= 50, covering
    assert margin > 0.0


def test_covering_ball_end_unused_below_lam_support():
    # Below R = lam r_K the covering ball is not admissible.  Here the
    # covering-ball end falls just below lam r_K and above the breakpoint
    # end, so only the guard keeps the breakpoint end.
    d, lam = 3, 1.0
    g, cfg = random_profile(BASE_SEED, 6, d), OperatorConfig(d, lam)
    r_k = g.support_radius
    hi_want = (lam * r_k * (1.0 - 1e-6) + r_k) / analysis._INSIDE
    t = (1.0 + lam) ** d * l1_norm(g, d) / (unit_ball_volume(d) * hi_want ** d)
    lo, hi = analysis._level_set_bracket(g, cfg, [t])
    cover = hi[0] * analysis._INSIDE - r_k
    inside = max(r for r, v in g.breakpoints if v > t) * analysis._INSIDE
    assert inside < cover < lam * r_k
    assert lo[0] == inside


def test_level_set_radius_bound_value():
    cfg = OperatorConfig(1, 1.0)
    # (1+1) * 2 / (2 * t) = 2/t
    assert level_set_radius_bound(cfg, 2.0, 0.1) == pytest.approx(20.0, rel=1e-12)


def test_level_set_radius_bound_meets_mass_bound():
    # The mass bound (1+lam)^d norm / (omega_d R^d) is the paper's bound in
    # pointwise form.  At three closed-form values t of it, the returned
    # radius is the one the value was taken at, and the bound there is t.
    for cfg, norm, R, t in [
        (OperatorConfig(1, 1.0), 2.0, 2.0, 1.0),
        (OperatorConfig(3, 0.0), 0.9, 1.7, 0.9 / (unit_ball_volume(3) * 1.7 ** 3)),
        (OperatorConfig(2, 0.5), 1.0, 3.0, 2.25 / (9 * math.pi)),
    ]:
        R_t = level_set_radius_bound(cfg, norm, t)
        assert R_t == pytest.approx(R, rel=1e-12)
        bound = (1.0 + cfg.lam) ** cfg.d * norm / (unit_ball_volume(cfg.d) * R_t ** cfg.d)
        assert bound == pytest.approx(t, rel=1e-12)


# ---------------------------------------------------------------------------
# weak_constant_estimate
# ---------------------------------------------------------------------------

def test_weak_constant_uncentered_ratios():
    est = weak_constant_estimate(UNIT_BALL, OperatorConfig(1, 1.0), [0.1, 0.2, 0.5])
    ratios = [r for _, _, r in est.per_t]
    assert ratios == pytest.approx([1.9, 1.8, 1.5], abs=1e-4)
    assert est.ratio_sup == pytest.approx(1.9, abs=1e-4)
    assert est.argmax_t == pytest.approx(0.1)
    assert est.profile_digest == profile_digest(UNIT_BALL)


def test_weak_constant_centered_ratios():
    est = weak_constant_estimate(UNIT_BALL, OperatorConfig(1, 0.0), [0.1, 0.5])
    ratios = [r for _, _, r in est.per_t]
    assert ratios == pytest.approx([0.9, 0.5], abs=1e-4)
    assert est.ratio_sup <= 1.0 + 1e-9


def test_weak_constant_mu_nonincreasing():
    g = random_profile(4, 5, 2)
    est = weak_constant_estimate(g, OperatorConfig(2, 0.75), default_t_grid(g, 10))
    mus = [mu for _, mu, _ in est.per_t]
    for a, b in zip(mus, mus[1:]):
        assert b <= a * (1 + 1e-5) + 1e-12


def test_weak_constant_requires_increasing_grid():
    with pytest.raises(UsageError):
        weak_constant_estimate(UNIT_BALL, OperatorConfig(1, 1.0), [0.5, 0.2])
    with pytest.raises(UsageError):
        weak_constant_estimate(UNIT_BALL, OperatorConfig(1, 1.0), [])


@pytest.mark.parametrize("t_grid", [[0.1, math.inf], [math.nan], [0.1, math.nan], [-math.inf, 0.1]])
def test_non_finite_thresholds_are_usage_errors(t_grid):
    with pytest.raises(UsageError):
        weak_constant_estimate(UNIT_BALL, OperatorConfig(1, 1.0), t_grid)
    with pytest.raises(UsageError):
        sharpness_experiment(OperatorConfig(1, 1.0), [1.0], t_grid)


def test_constant_estimate_validates_ratio_sup():
    with pytest.raises(UsageError):
        ConstantEstimate(0.5, 0.1, ((0.1, 1.0, 0.9),), "x" * 12)


# ---------------------------------------------------------------------------
# sharpness_experiment
# ---------------------------------------------------------------------------

def test_sharpness_one_dimensional_closed_form():
    # normalized unit-interval indicator: ratio(t) = (1 + lam) - 2 t
    rows = sharpness_experiment(OperatorConfig(1, 1.0), [1.0], [0.1, 0.05])
    assert [row["ratio"] for row in rows] == pytest.approx([1.8, 1.9], abs=1e-4)
    rows = sharpness_experiment(OperatorConfig(1, 0.5), [1.0], [0.1])
    assert rows[0]["ratio"] == pytest.approx(1.3, abs=1e-4)


def test_sharpness_scale_equivariance_in_threshold():
    # the ratio of an indicator family depends on t only through t * |B(0,r)|
    d = 1
    rows_r1 = sharpness_experiment(OperatorConfig(d, 1.0), [1.0], [0.2])
    rows_r2 = sharpness_experiment(OperatorConfig(d, 1.0), [2.0], [0.1])
    assert rows_r1[0]["ratio"] == pytest.approx(rows_r2[0]["ratio"], rel=1e-6)


def test_sharpness_respects_bound():
    rows = sharpness_experiment(OperatorConfig(2, 0.5), [1.0], [1e-2, 1e-3])
    for row in rows:
        assert row["ratio"] <= 2.25 + 1e-9
        assert row["bound"] == 2.25


def test_sharpness_keeps_caller_order():
    rows = sharpness_experiment(OperatorConfig(1, 1.0), [1.0], [0.2, 0.1, 0.05])
    assert [row["t"] for row in rows] == [0.2, 0.1, 0.05]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_indicator_bounds():
    result = sweep([1], [0.0, 1.0], [UNIT_BALL], t_points=6)
    assert {cell["bound"] for cell in result.cells} == {1.0, 2.0}
    for cell in result.cells:
        assert cell["ratio_sup"] <= cell["bound"] + 1e-9
        assert cell["margin"] >= -1e-9
    assert len(result.rows) == 2 * 6
    assert set(result.rows[0]) == {
        "d", "lambda", "profile_digest", "t", "mu", "ratio", "bound", "margin",
    }


def test_sweep_empty_suite():
    result = sweep([1, 2], [0.5], [])
    assert result.cells == ()
    assert result.rows == ()


def test_sweep_bound_arithmetic():
    result = sweep([2], [0.5], [UNIT_BALL], t_points=4)
    assert result.cells[0]["bound"] == pytest.approx(2.25)


def test_bound_holds_within_the_slack_only():
    bound = analysis.weak_bound(OperatorConfig(2, 0.5))
    assert bound == 2.25
    assert analysis.bound_holds(bound + 0.5e-9, bound)
    assert not analysis.bound_holds(bound + 2e-9, bound)
    assert not analysis.bound_holds(math.nan, bound)


def test_sweep_keeps_failed_cell(monkeypatch):
    real = analysis.weak_constant_estimate

    def failing(g, cfg, t_grid, opt=None):
        if cfg.lam == 1.0:
            raise ArithmeticError("boom")
        return real(g, cfg, t_grid, opt)

    monkeypatch.setattr(analysis, "weak_constant_estimate", failing)
    result = sweep([1], [0.0, 1.0], [UNIT_BALL], t_points=4)
    ok, bad = result.cells
    assert ok["error"] is None and ok["ratio_sup"] <= 1.0 + 1e-9
    assert bad["lambda"] == 1.0 and bad["error"] == "ArithmeticError: boom"
    assert math.isnan(bad["ratio_sup"]) and math.isnan(bad["margin"])
    failed_rows = [row for row in result.rows if row["lambda"] == 1.0]
    assert len(failed_rows) == 4 and all(math.isnan(row["ratio"]) for row in failed_rows)
    assert len(result.warnings) == 1 and "boom" in result.warnings[0]


def test_sweep_callable_suite():
    result = sweep([1, 2], [1.0], lambda d: [random_profile(d, 3, d)], t_points=4)
    assert len(result.cells) == 2


def test_default_t_grid_range():
    grid = default_t_grid(UNIT_BALL, 9)
    assert len(grid) == 9
    assert grid[0] == pytest.approx(1e-4)
    assert grid[-1] == pytest.approx(1 - 1e-3)
    assert all(b > a for a, b in zip(grid, grid[1:]))
