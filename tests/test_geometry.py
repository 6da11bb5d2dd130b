import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ballmax import geometry, maximal
from ballmax.geometry import (
    GeometryDomainError,
    cap_volume,
    cap_volume_array,
    intersection_volume,
    lens_volume_array,
    unit_ball_volume,
)
from ballmax.verify import McConfig, mc_intersection_volume

from _oracle import cap_volume_ref, lens_volume_ref, reg_inc_beta


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
# reg_inc_beta: the test oracle's continued fraction
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
# the kernels agree with the continued-fraction oracle
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
                lens_volume_ref(d, float(c[i]), float(r1[i]), float(r2[i])),
                rel=1e-12,
                abs=1e-13,
            )
        rho = rng.uniform(0.1, 2.0, 100)
        h = rho * rng.uniform(0.0, 2.0, 100)
        caps = cap_volume_array(d, rho, h)
        for i in range(0, 100, 13):
            assert caps[i] == pytest.approx(
                cap_volume_ref(d, float(rho[i]), float(h[i])), rel=1e-12, abs=1e-13
            )


# ---------------------------------------------------------------------------
# the cap kernel: closed form to d = 6, betainc complement above
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", range(1, geometry._QUIET_DIM + 1))
def test_closed_form_cap_matches_mpmath(d):
    # Exact to rounding from caps of height 1e-14 rho to the whole ball, on
    # the small side and on its complement: the reference is the smaller
    # cap's share I_{v(2-v)}((d+1)/2, 1/2) / 2 with v = min(h, 2 rho - h) / rho.
    t = np.concatenate([np.geomspace(1e-14, 1.0, 40), np.linspace(0.0, 1.0, 11)])
    for rho in (0.05, 1.3, 7.0):
        h = rho * np.concatenate([t, 2.0 - t])
        got = geometry._cap_array(d, unit_ball_volume(d), np.full(h.size, rho), h)
        with mpmath.workdps(50):
            full = mpmath.mpf(unit_ball_volume(d)) * mpmath.mpf(rho) ** d
            for hi, gi in zip(h.tolist(), got.tolist()):
                u = mpmath.mpf(hi) / rho
                v = min(u, 2 - u)
                x = v * (2 - v)
                small = full * mpmath.betainc(mpmath.mpf(d + 1) / 2, 0.5, 0, x, regularized=True) / 2
                want = small if u <= 1 else full - small
                assert abs(gi - want) <= 1e-13 * want, (rho, hi)


def test_tiny_planar_cap_pin():
    # arccos(1 - h) - (1 - h) sqrt(2h - h^2) at h = 1e-9, to 50 digits; the
    # betainc complement reads it 2.4e-4 high
    assert cap_volume(2, 1.0, 1e-9) == pytest.approx(5.962847939105012556e-14, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("d", [7, 10, 30])
def test_cap_kernel_keeps_the_betainc_complement_bitwise(d):
    from scipy.special import betainc

    rng = np.random.default_rng(700 + d)
    rho = rng.uniform(0.05, 2.0, 400)
    tiny = np.geomspace(1e-14, 1.0, 100)
    h = rho * np.concatenate([tiny, rng.uniform(0.0, 2.0, 200), 2.0 - tiny])
    omega = unit_ball_volume(d)
    full = omega * rho ** d
    u = np.abs(rho - h) / rho
    half = 0.5 * full * (1.0 - betainc(0.5, 0.5 * (d + 1), np.minimum(u * u, 1.0)))
    want = np.where(h <= rho, half, full - half)
    got = geometry._cap_array(d, omega, rho, h)
    assert (got.view(np.int64) == want.view(np.int64)).all()


@pytest.mark.parametrize("d", range(1, 31))
def test_scalar_wrappers_are_the_kernels_bitwise(d):
    # cap_volume and intersection_volume check their domain and evaluate the
    # array kernel on one entry: each scalar value is the array value of the
    # same element, bit for bit, across the case split and its edges.
    rng = np.random.default_rng(500 + d)
    n = 40
    r1 = np.tile(rng.uniform(0.05, 2.0, n), 5)
    r2 = np.tile(rng.uniform(0.05, 2.0, n), 5)
    gap, reach = np.abs(r1 - r2), r1 + r2
    c = np.concatenate(
        [
            rng.uniform(gap[:n], reach[:n]),  # lens
            gap[n : 2 * n],  # inner tangency
            reach[2 * n : 3 * n],  # outer tangency
            np.zeros(n),  # concentric
            reach[4 * n :] + rng.uniform(0.0, 1.0, n),  # disjoint
        ]
    )
    lens = lens_volume_array(d, c, r1, r2)
    args = zip(c.tolist(), r1.tolist(), r2.tolist())
    single = np.array([intersection_volume(d, *x) for x in args])
    assert (single.view(np.int64) == lens.view(np.int64)).all()
    rho = np.tile(rng.uniform(0.05, 2.0, n), 4)
    # h == 0, h == 2*rho, half balls and random heights
    h = np.concatenate(
        [np.zeros(n), 2.0 * rho[n : 2 * n], rho[2 * n : 3 * n], rho[3 * n :] * rng.uniform(0.0, 2.0, n)]
    )
    caps = cap_volume_array(d, rho, h)
    single = np.array([cap_volume(d, *x) for x in zip(rho.tolist(), h.tolist())])
    assert (single.view(np.int64) == caps.view(np.int64)).all()
    assert (caps[:n] == 0.0).all()
    assert (caps[n : 2 * n] == unit_ball_volume(d) * rho[n : 2 * n] ** d).all()
    for bad in [(0.0, 1.0), (-1.0, 0.5), (math.inf, 1.0), (1.0, -1e-9), (1.0, 2.0 + 1e-9),
                (1.0, math.nan)]:
        with pytest.raises(GeometryDomainError):
            cap_volume(d, *bad)
    for bad in [(-1e-9, 1.0, 1.0), (math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0),
                (1.0, 0.0, 1.0), (1.0, 1.0, -1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.nan)]:
        with pytest.raises(GeometryDomainError):
            intersection_volume(d, *bad)


@pytest.mark.parametrize("d", range(1, 8))
def test_cap_volume_array_accepts_scalars(d):
    # a 0-d result, the scalar wrapper's value bit for bit, on both sides of
    # the closed-form dimensions
    got = cap_volume_array(d, 1.0, 0.5)
    assert got.shape == ()
    assert got.view(np.int64) == np.float64(cap_volume(d, 1.0, 0.5)).view(np.int64)


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


@pytest.mark.parametrize("d", [2, 3, 5, 10, 30])
def test_search_kernel_matches_public_lens_bitwise(d):
    # The supremum search builds full (n, m, K) arrays and calls the private
    # kernel itself; it must give the very bits of the public wrapper, which
    # works on broadcast views.  Columns 0-4 are centered balls (c == 0),
    # 5-14 inner and 15-24 outer tangencies with one step each, 25-29
    # containment, and the rest random.
    assert maximal._lens_array is geometry._lens_array
    rng = np.random.default_rng(300 + d)
    n, m, K = 3, 40, 6
    radii = np.sort(rng.uniform(0.05, 2.0, K))
    rho = rng.uniform(0.01, 3.0, (n, m, 1))
    c = rng.uniform(0.0, 4.0, (n, m, 1))
    step = np.arange(m) % K
    gap = np.abs(radii[step][None, :, None] - rho)
    reach = radii[step][None, :, None] + rho
    c[:, :5] = 0.0
    c[:, 5:15] = gap[:, 5:15]
    c[:, 15:25] = reach[:, 15:25]
    c[:, 25:30] = rng.uniform(0.0, 1.0, (n, 5, 1)) * gap[:, 25:30]
    public = lens_volume_array(d, c, radii, rho)
    full = [np.ascontiguousarray(np.broadcast_to(x, public.shape)) for x in (c, radii, rho)]
    kernel = geometry._lens_array(d, unit_ball_volume(d), *full)
    assert kernel.shape == public.shape == (n, m, K)
    assert (kernel.view(np.int64) == public.view(np.int64)).all()
    cols = np.arange(m)
    tied = public[:, cols, step]
    contained = unit_ball_volume(d) * np.minimum(radii[step], rho[..., 0]) ** d
    assert (tied[:, :15] == contained[:, :15]).all() and (tied[:, 25:30] == contained[:, 25:30]).all()
    assert (tied[:, 15:25] == 0.0).all()

