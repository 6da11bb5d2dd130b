import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ballmax.geometry import (
    AxisBall,
    GeometryDomainError,
    cap_volume,
    cap_volume_array,
    intersection_volume,
    lens_volume_array,
    reg_inc_beta,
    unit_ball_volume,
)
from ballmax.verify import McConfig, mc_intersection_volume


# ---------------------------------------------------------------------------
# unit_ball_volume
# ---------------------------------------------------------------------------

def test_unit_ball_volume_low_dimensions():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_unit_ball_volume_positive_up_to_cap():
    for d in range(1, 31):
        assert unit_ball_volume(d) > 0.0


def test_unit_ball_volume_domain_errors():
    for bad in (0, -1, 31, 2.0, True):
        with pytest.raises(GeometryDomainError):
            unit_ball_volume(bad)


# ---------------------------------------------------------------------------
# reg_inc_beta
# ---------------------------------------------------------------------------

def test_reg_inc_beta_endpoints():
    assert reg_inc_beta(0.0, 1.7, 0.5) == 0.0
    assert reg_inc_beta(1.0, 1.7, 0.5) == 1.0


def test_reg_inc_beta_symmetry_at_half():
    for a in (0.5, 1.0, 2.5, 7.0):
        assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-13)


def test_reg_inc_beta_arcsine_closed_form():
    # I_x(1/2, 1/2) = (2/pi) arcsin(sqrt(x))
    assert reg_inc_beta(0.25, 0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-13)
    for x in (0.1, 0.5, 0.9):
        assert reg_inc_beta(x, 0.5, 0.5) == pytest.approx(
            2.0 / math.pi * math.asin(math.sqrt(x)), abs=1e-13
        )


def test_reg_inc_beta_against_mpmath():
    # independent oracle at the shape parameters the cap formula uses
    for d in (1, 2, 3, 5, 10, 30):
        a = 0.5 * (d + 1)
        for x in np.linspace(0.0, 1.0, 23):
            want = float(mpmath.betainc(a, 0.5, 0, x, regularized=True))
            assert reg_inc_beta(float(x), a, 0.5) == pytest.approx(want, abs=1e-13)


def test_reg_inc_beta_monotone_in_x():
    xs = np.linspace(0.0, 1.0, 101)
    vals = [reg_inc_beta(float(x), 4.0, 0.5) for x in xs]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_reg_inc_beta_domain_errors():
    with pytest.raises(GeometryDomainError):
        reg_inc_beta(-0.1, 1.0, 1.0)
    with pytest.raises(GeometryDomainError):
        reg_inc_beta(1.1, 1.0, 1.0)
    with pytest.raises(GeometryDomainError):
        reg_inc_beta(0.5, -1.0, 1.0)
    with pytest.raises(GeometryDomainError):
        reg_inc_beta(0.5, 1.0, 0.0)


# ---------------------------------------------------------------------------
# cap_volume
# ---------------------------------------------------------------------------

def test_cap_half_ball():
    for d in (1, 2, 3, 7):
        rho = 1.3
        assert cap_volume(d, rho, rho) == pytest.approx(
            0.5 * unit_ball_volume(d) * rho ** d, rel=1e-13
        )


def test_cap_one_dimensional_is_segment_length():
    assert cap_volume(1, 1.0, 0.3) == pytest.approx(0.3, abs=1e-13)
    assert cap_volume(1, 2.0, 3.5) == pytest.approx(3.5, abs=1e-13)


def test_cap_planar_segment_closed_form():
    # rho^2 arccos((rho-h)/rho) - (rho-h) sqrt(2 rho h - h^2)
    for rho, h in [(1.0, 0.5), (1.0, 1.7), (2.0, 0.4)]:
        want = rho * rho * math.acos((rho - h) / rho) - (rho - h) * math.sqrt(
            2 * rho * h - h * h
        )
        assert cap_volume(2, rho, h) == pytest.approx(want, abs=1e-12)
    assert cap_volume(2, 1.0, 0.5) == pytest.approx(math.pi / 3 - math.sqrt(3) / 4, abs=1e-12)


def test_cap_endpoints_and_monotonicity():
    assert cap_volume(3, 1.0, 0.0) == 0.0
    assert cap_volume(3, 1.0, 2.0) == pytest.approx(unit_ball_volume(3), rel=1e-13)
    hs = np.linspace(0.0, 2.0, 81)
    caps = [cap_volume(3, 1.0, float(h)) for h in hs]
    assert all(b >= a - 1e-13 for a, b in zip(caps, caps[1:]))


@given(
    d=st.integers(1, 8),
    rho=st.floats(0.1, 5.0),
    frac=st.floats(0.0, 1.0),
)
def test_cap_complement_identity(d, rho, frac):
    h = 2.0 * rho * frac
    total = unit_ball_volume(d) * rho ** d
    assert cap_volume(d, rho, h) + cap_volume(d, rho, 2 * rho - h) == pytest.approx(
        total, abs=1e-12 * max(1.0, total)
    )


def test_cap_domain_errors():
    with pytest.raises(GeometryDomainError):
        cap_volume(2, 1.0, -0.1)
    with pytest.raises(GeometryDomainError):
        cap_volume(2, 1.0, 2.1)
    with pytest.raises(GeometryDomainError):
        cap_volume(2, 0.0, 0.0)


# ---------------------------------------------------------------------------
# intersection_volume
# ---------------------------------------------------------------------------

def test_lens_interval_overlap():
    assert intersection_volume(1, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_lens_containment_and_disjoint():
    for d in (1, 2, 3, 6):
        rho = 0.8
        assert intersection_volume(d, 0.0, rho, rho) == pytest.approx(
            unit_ball_volume(d) * rho ** d, rel=1e-13
        )
        assert intersection_volume(d, 2.0, 1.0, 1.0) == 0.0
        assert intersection_volume(d, 5.0, 1.0, 1.0) == 0.0


def test_lens_golden_values():
    assert intersection_volume(2, 1.0, 1.0, 1.0) == pytest.approx(
        2 * math.pi / 3 - math.sqrt(3) / 2, abs=1e-10
    )
    assert intersection_volume(3, 1.0, 1.0, 1.0) == pytest.approx(
        5 * math.pi / 12, abs=1e-10
    )


def test_lens_equal_spheres_closed_form():
    # (pi/12)(4R + c)(2R - c)^2 for two spheres of radius R at distance c
    for R, c in [(1.0, 0.5), (1.0, 1.5), (2.0, 1.0)]:
        want = math.pi / 12 * (4 * R + c) * (2 * R - c) ** 2
        assert intersection_volume(3, c, R, R) == pytest.approx(want, abs=1e-11)


def test_lens_symmetry_in_radii():
    for d in (1, 2, 4):
        a = intersection_volume(d, 0.7, 0.9, 1.4)
        b = intersection_volume(d, 0.7, 1.4, 0.9)
        assert a == pytest.approx(b, rel=1e-12)


@given(
    d=st.integers(1, 8),
    c=st.floats(0.0, 4.0),
    rho1=st.floats(0.1, 2.0),
    rho2=st.floats(0.1, 2.0),
    s=st.floats(0.2, 5.0),
)
def test_lens_scaling_invariance(d, c, rho1, rho2, s):
    base = intersection_volume(d, c, rho1, rho2)
    scaled = intersection_volume(d, s * c, s * rho1, s * rho2)
    assert scaled == pytest.approx(s ** d * base, rel=1e-10, abs=1e-12)


def test_lens_monotone_in_radius_and_distance():
    rhos = np.linspace(0.2, 2.5, 40)
    vals = [intersection_volume(3, 1.0, float(r), 1.0) for r in rhos]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    cs = np.linspace(0.0, 3.0, 40)
    vals = [intersection_volume(3, float(c), 1.2, 1.0) for c in cs]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_lens_continuity_across_case_boundaries():
    for d in (2, 3):
        for c0 in (2.0, abs(1.0 - 0.6)):  # disjoint boundary, containment boundary
            rho1, rho2 = 1.0, (1.0 if c0 == 2.0 else 0.6)
            eps = 1e-9
            inner = intersection_volume(d, c0 - eps, rho1, rho2)
            outer = intersection_volume(d, c0 + eps, rho1, rho2)
            at = intersection_volume(d, c0, rho1, rho2)
            assert abs(inner - at) < 1e-6
            assert abs(outer - at) < 1e-6


def test_lens_monte_carlo_agreement_small():
    rng = np.random.default_rng(42)
    for _ in range(8):
        d = int(rng.integers(1, 7))
        rho1 = float(rng.uniform(0.3, 1.8))
        rho2 = float(rng.uniform(0.3, 1.8))
        c = float(rng.uniform(0.0, rho1 + rho2 + 0.3))
        exact = intersection_volume(d, c, rho1, rho2)
        est, se = mc_intersection_volume(d, c, rho1, rho2, McConfig(int(rng.integers(2**31)), 200_000))
        assert abs(exact - est) <= 4.0 * se + 1e-9


# ---------------------------------------------------------------------------
# array kernels agree with the scalar path
# ---------------------------------------------------------------------------

def test_array_kernels_match_scalar():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 5, 11):
        c = rng.uniform(0.0, 3.0, 200)
        r1 = rng.uniform(0.05, 2.0, 200)
        r2 = rng.uniform(0.05, 2.0, 200)
        arr = lens_volume_array(d, c, r1, r2)
        for i in range(0, 200, 17):
            assert arr[i] == pytest.approx(
                intersection_volume(d, float(c[i]), float(r1[i]), float(r2[i])),
                rel=1e-12,
                abs=1e-13,
            )
        rho = rng.uniform(0.1, 2.0, 100)
        h = rho * rng.uniform(0.0, 2.0, 100)
        caps = cap_volume_array(d, rho, h)
        for i in range(0, 100, 13):
            assert caps[i] == pytest.approx(
                cap_volume(d, float(rho[i]), float(h[i])), rel=1e-12, abs=1e-13
            )


@pytest.mark.parametrize("d", [2, 3, 5, 10, 30])
def test_lens_kernel_is_exactly_two_caps(d):
    # The lens kernel evaluates the two caps of every lens entry in one
    # stacked array; the sum must be the very same floats as two separate
    # cap_volume_array calls, and the case split must hold at both
    # tangencies: c == |r1 - r2| is containment and c == r1 + r2 is disjoint.
    rng = np.random.default_rng(100 + d)
    n = 200
    r1 = np.tile(rng.uniform(0.05, 2.0, n), 5)
    r2 = np.tile(rng.uniform(0.05, 2.0, n), 5)
    gap, reach = np.abs(r1 - r2), r1 + r2
    c = np.concatenate(
        [
            rng.uniform(gap[:n], reach[:n]),  # lens
            gap[n : 2 * n],  # inner tangency
            reach[2 * n : 3 * n],  # outer tangency
            rng.uniform(0.0, 1.0, n) * gap[3 * n : 4 * n],  # containment
            reach[4 * n :] + rng.uniform(0.0, 1.0, n),  # disjoint
        ]
    )
    out = lens_volume_array(d, c, r1, r2)
    lens = (c > gap) & (c < reach)
    contain = c <= gap
    disjoint = ~(lens | contain)
    assert lens[:n].all() and contain[n : 2 * n].all() and contain[3 * n : 4 * n].all()
    assert disjoint[2 * n : 3 * n].all() and disjoint[4 * n :].all()
    cc, a, b = c[lens], r1[lens], r2[lens]
    x1 = (cc * cc + a * a - b * b) / (2.0 * cc)
    h1 = np.clip(a - x1, 0.0, 2.0 * a)
    h2 = np.clip(b - (cc - x1), 0.0, 2.0 * b)
    assert (out[lens] == cap_volume_array(d, a, h1) + cap_volume_array(d, b, h2)).all()
    small = np.minimum(r1, r2)[contain]
    assert (out[contain] == unit_ball_volume(d) * small ** d).all()
    assert (out[disjoint] == 0.0).all()


@pytest.mark.parametrize("d", [1, 3])
def test_lens_kernel_output_shape_and_dtype(d):
    point = lens_volume_array(d, 0.5, 1.0, 0.7)
    assert np.shape(point) == () and point.dtype == np.float64
    assert float(point) == pytest.approx(intersection_volume(d, 0.5, 1.0, 0.7), rel=1e-12)
    empty = lens_volume_array(d, np.zeros(0), 1.0, np.zeros(0))
    assert empty.shape == (0,) and empty.dtype == np.float64
    rng = np.random.default_rng(d)
    c = rng.uniform(0.0, 3.0, (4, 5, 1))
    radii = np.array([0.1, 0.4, 0.9, 1.6])
    rho = rng.uniform(0.05, 2.0, (4, 5, 1))
    out = lens_volume_array(d, c, radii, rho)
    assert out.shape == (4, 5, 4) and out.dtype == np.float64
    # the broadcast result is the entrywise result, bit for bit
    flat = lens_volume_array(d, *(np.broadcast_to(x, out.shape).ravel() for x in (c, radii, rho)))
    assert (out.ravel() == flat).all()


def test_axis_ball():
    ball = AxisBall(center_offset=1.0, radius=0.5)
    assert ball.volume(2) == pytest.approx(math.pi * 0.25, rel=1e-13)
    pts = np.array([[1.0, 0.0], [1.5, 0.0], [1.51, 0.0], [1.0, 0.49]])
    inside = ball.contains(pts)
    assert inside.tolist() == [True, True, False, True]
    with pytest.raises(GeometryDomainError):
        AxisBall(center_offset=-0.1, radius=1.0)
    with pytest.raises(GeometryDomainError):
        AxisBall(center_offset=0.0, radius=0.0)
