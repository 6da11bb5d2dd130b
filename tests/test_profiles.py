import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ballmax.geometry import unit_ball_volume
from ballmax.profiles import (
    OperatorConfig,
    ProfileError,
    StepProfile,
    evaluate,
    l1_norm,
    levels_at,
    normalized_indicator,
    parse_profile,
    profile_digest,
    random_profile,
    serialize_profile,
)

from _oracle import indicator_decomposition

UNIT_BALL = StepProfile(((1.0, 1.0),))
TWO_STEP = StepProfile(((1.0, 2.0), (2.0, 1.0)))


@st.composite
def profiles(draw):
    k = draw(st.integers(1, 6))
    widths = draw(
        st.lists(st.floats(0.05, 1.5), min_size=k, max_size=k)
    )
    radii = np.cumsum(np.asarray(widths) + 0.05)
    top = draw(st.floats(0.1, 5.0))
    drops = draw(st.lists(st.floats(0.0, 1.0), min_size=k - 1, max_size=k - 1))
    levels = [top]
    for frac in drops:
        levels.append(levels[-1] * (1.0 - 0.7 * frac))
    return StepProfile(tuple(zip(radii.tolist(), levels)))


# ---------------------------------------------------------------------------
# construction and parsing
# ---------------------------------------------------------------------------

def test_parse_unit_ball():
    g = parse_profile('{"levels":[{"r":1.0,"v":1.0}]}')
    assert g == UNIT_BALL


def test_parse_two_step():
    g = parse_profile('{"levels":[{"r":1.0,"v":2.0},{"r":2.0,"v":1.0}]}')
    assert g == TWO_STEP


def test_parse_rejects_decreasing_radii():
    with pytest.raises(ProfileError, match=r"levels\[1\]\.r"):
        parse_profile('{"levels":[{"r":2.0,"v":1.0},{"r":1.0,"v":2.0}]}')


def test_parse_rejects_increasing_levels():
    with pytest.raises(ProfileError, match=r"levels\[1\]\.v"):
        parse_profile('{"levels":[{"r":1.0,"v":1.0},{"r":2.0,"v":2.0}]}')


def test_parse_rejects_nonpositive_values():
    with pytest.raises(ProfileError, match=r"levels\[0\]\.v"):
        parse_profile('{"levels":[{"r":1.0,"v":0.0}]}')
    with pytest.raises(ProfileError, match=r"levels\[0\]\.r"):
        parse_profile('{"levels":[{"r":-1.0,"v":1.0}]}')


def test_parse_rejects_unknown_fields_and_malformed_docs():
    with pytest.raises(ProfileError, match="unknown field"):
        parse_profile('{"levels":[{"r":1.0,"v":1.0}],"extra":1}')
    with pytest.raises(ProfileError, match=r"levels\[0\]"):
        parse_profile('{"levels":[{"r":1.0,"v":1.0,"w":2}]}')
    with pytest.raises(ProfileError, match="JSON"):
        parse_profile("{nope")
    with pytest.raises(ProfileError, match="levels"):
        parse_profile("{}")
    with pytest.raises(ProfileError, match="nonempty"):
        parse_profile('{"levels":[]}')
    with pytest.raises(ProfileError, match="number"):
        parse_profile('{"levels":[{"r":"1.0","v":1.0}]}')
    with pytest.raises(ProfileError, match="number"):
        parse_profile('{"levels":[{"r":1.0,"v":true}]}')


@given(profiles())
def test_parse_serialize_roundtrip(g):
    assert parse_profile(serialize_profile(g)) == g


def test_digest_stable_and_distinct():
    assert profile_digest(UNIT_BALL) == profile_digest(StepProfile(((1.0, 1.0),)))
    assert profile_digest(UNIT_BALL) != profile_digest(TWO_STEP)
    assert len(profile_digest(UNIT_BALL)) == 12


# ---------------------------------------------------------------------------
# l1 norm
# ---------------------------------------------------------------------------

def test_l1_norm_unit_ball():
    assert l1_norm(UNIT_BALL, 2) == pytest.approx(math.pi, rel=1e-13)
    assert l1_norm(UNIT_BALL, 1) == pytest.approx(2.0, rel=1e-13)


def test_l1_norm_two_step_direct_sum():
    # 2 * (2*1) + 1 * (2*2 - 2*1) = 6 in one dimension
    assert l1_norm(TWO_STEP, 1) == pytest.approx(6.0, rel=1e-13)


@pytest.mark.parametrize("r, v, d", [(1e11, 1.0, 30), (1e200, 1.0, 2), (1e150, 1e300, 2)])
def test_l1_norm_that_overflows_is_profile_error(r, v, d):
    # r^d overflows in the first two cases, the product with the level in
    # the third; the mass of a profile must be a finite double
    with pytest.raises(ProfileError, match=f"d = {d}$"):
        l1_norm(StepProfile(((r, v),)), d)


@given(profiles(), st.integers(1, 6))
def test_l1_norm_matches_decomposition(g, d):
    direct = l1_norm(g, d)
    omega = unit_ball_volume(d)
    via_decomp = sum(a * omega * r ** d for r, a in indicator_decomposition(g))
    assert direct == pytest.approx(via_decomp, rel=1e-12)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decomposition_examples():
    assert indicator_decomposition(UNIT_BALL) == ((1.0, 1.0),)
    assert indicator_decomposition(TWO_STEP) == ((1.0, 1.0), (2.0, 1.0))
    flat = StepProfile(((1.0, 3.0), (2.0, 3.0)))
    assert indicator_decomposition(flat) == ((2.0, 3.0),)


# ---------------------------------------------------------------------------
# array form
# ---------------------------------------------------------------------------

def test_array_form_is_read_only_and_built_once():
    g = StepProfile(((1.0, 3.0), (2.0, 3.0), (4.0, 1.0)))
    steps = g.arrays
    assert g.arrays is steps
    for a in steps:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    # the flat run on [0, 2) is one step
    assert steps.step_radii.tolist() == [2.0, 4.0]
    assert steps.step_coeffs.tolist() == [2.0, 1.0]


@given(profiles())
def test_array_form_matches_the_breakpoints(g):
    steps = g.arrays
    assert steps.radii.tolist() == list(g.radii)
    assert steps.levels.tolist() == list(g.levels) + [0.0]
    # level drops, flat runs collapsed
    drops = tuple(
        (r, v - v_next)
        for (r, v), v_next in zip(g.breakpoints, g.levels[1:] + (0.0,))
        if v > v_next
    )
    assert indicator_decomposition(g) == drops
    assert tuple(zip(steps.step_radii.tolist(), steps.step_coeffs.tolist())) == drops


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_half_open_convention():
    assert evaluate(UNIT_BALL, 0.5) == 1.0
    assert evaluate(UNIT_BALL, 1.0) == 0.0
    assert evaluate(TWO_STEP, 1.5) == 1.0
    assert evaluate(TWO_STEP, 1.0) == 1.0
    assert evaluate(TWO_STEP, 0.0) == 2.0
    with pytest.raises(ProfileError):
        evaluate(UNIT_BALL, -0.1)


@given(profiles())
def test_evaluate_nonincreasing(g):
    radii = np.linspace(0.0, g.support_radius * 1.2, 200)
    vals = [evaluate(g, float(r)) for r in radii]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_levels_at_matches_evaluate():
    radii = np.linspace(0.0, 3.0, 50)
    arr = levels_at(TWO_STEP, radii)
    for r, v in zip(radii, arr):
        assert v == evaluate(TWO_STEP, float(r))


@given(profiles())
def test_evaluate_and_levels_at_agree_at_and_between_breakpoints(g):
    r = list(g.radii)
    inner = [0.0] + [(a + b) / 2.0 for a, b in zip([0.0] + r, r)]
    beyond = [math.nextafter(r[-1], math.inf), 2.0 * r[-1], 1e300]
    radii = inner + r + beyond
    want = [g.top_level] + list(g.levels) + list(g.levels[1:]) + [0.0] * 4
    assert levels_at(g, radii).tolist() == want
    assert [evaluate(g, x) for x in radii] == want


# ---------------------------------------------------------------------------
# normalized indicator
# ---------------------------------------------------------------------------

def test_normalized_indicator_levels():
    assert normalized_indicator(1.0, 1).top_level == pytest.approx(0.5, rel=1e-13)
    assert normalized_indicator(1.0, 2).top_level == pytest.approx(1 / math.pi, rel=1e-13)
    assert normalized_indicator(0.5, 3).top_level == pytest.approx(6 / math.pi, rel=1e-13)


@given(st.floats(0.1, 4.0), st.integers(1, 6))
def test_normalized_indicator_unit_mass(r, d):
    assert l1_norm(normalized_indicator(r, d), d) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("r, d", [(1e-200, 2), (1e-160, 2), (1e20, 30), (1e154, 2)])
def test_normalized_indicator_rejects_a_volume_out_of_range(r, d):
    # omega_d r^d underflows to 0 (or its reciprocal overflows), or overflows
    with pytest.raises(ProfileError, match=re.escape(f"indicator radius r = {r!r} in d = {d}")):
        normalized_indicator(r, d)


# ---------------------------------------------------------------------------
# random profiles
# ---------------------------------------------------------------------------

def test_random_profile_deterministic_and_valid():
    a = random_profile(123, 6, 2)
    b = random_profile(123, 6, 2)
    assert a == b
    assert parse_profile(serialize_profile(a)) == a


def test_random_profiles_differ_across_seeds():
    assert random_profile(1, 6, 2) != random_profile(2, 6, 2)


def test_random_profile_rejects_non_integer_seed_and_count():
    for seed, k_max in ((3, 2.5), (3, 2.0), (True, 3), (3.0, 3), (3, True)):
        with pytest.raises(ProfileError):
            random_profile(seed, k_max, 2)
    assert random_profile(np.int64(3), np.int64(4), 2) == random_profile(3, 4, 2)


def test_random_profile_invariants_hold():
    for seed in range(40):
        g = random_profile(seed, 5, 3)
        radii = g.radii
        levels = g.levels
        assert all(b > a for a, b in zip((0.0,) + radii, radii))
        assert all(v > 0 for v in levels)
        assert all(b <= a for a, b in zip(levels, levels[1:]))
        assert math.isfinite(l1_norm(g, 3))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_operator_config_validation():
    cfg = OperatorConfig(3, 0.5)
    assert cfg.d == 3 and cfg.lam == 0.5
    with pytest.raises(ProfileError):
        OperatorConfig(0, 0.5)
    with pytest.raises(ProfileError):
        OperatorConfig(31, 0.5)
    with pytest.raises(ProfileError):
        OperatorConfig(2, -0.01)
    with pytest.raises(ProfileError):
        OperatorConfig(2, 1.01)


def test_serialize_is_json():
    doc = json.loads(serialize_profile(TWO_STEP))
    assert doc == {"levels": [{"r": 1.0, "v": 2.0}, {"r": 2.0, "v": 1.0}]}
