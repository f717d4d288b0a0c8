import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinspec import geometry
from kreinspec.geometry import (
    DiskFamilyRegion,
    RelBound,
    SLBox,
    SpectrumModel,
    boundary_polyline,
    disk_region_membership,
    hull_membership,
    hull_tangency,
    phi,
    phi_extrema,
    prior_hull_membership,
    region_to_json,
    smallerb_threshold,
    sup_resolvent_factor_bound,
    tmain_regions,
)


def oracle_membership(region, lam, n_grid=4001):
    """Brute-force grid decision on min g(t) with a rigorous refinement gap.

    Returns True/False when conclusive, None when lam is too close to the
    boundary for the grid to decide (g is quadratic in t, so the dip between
    adjacent nodes is bounded by (1 - rho b) (dt/2)^2 when convex and zero
    when concave).
    """
    rho, a, b = region.radius_scale, region.bound.a, region.bound.b
    lam = complex(lam)

    def g(t):
        return np.abs(lam - t) ** 2 - rho * (a + b * np.square(t))

    best = math.inf
    gap = 0.0
    for p in region.centers.points:
        best = min(best, float(g(np.array(p))))
    for lo, hi in region.centers.intervals:
        ts = np.linspace(lo, hi, n_grid)
        best = min(best, float(np.min(g(ts))))
        dt = (hi - lo) / (n_grid - 1)
        gap = max(gap, max(1.0 - rho * b, 0.0) * dt * dt / 4.0)
    if best <= 0.0:
        return True
    if best > gap:
        return False
    return None


class TestPhi:
    def test_unit_distance_gives_a(self):
        assert phi(RelBound(3, 0.9), 1j, 0.0) == pytest.approx(3.0)

    def test_value_b_at_m_lambda(self):
        # m by the explicit formula, then direct evaluation
        bound = RelBound(1, 0.5)
        lam = complex(2, 1)
        m = (0.5 * abs(lam) ** 2 - 1.0) / (2 * 0.5 * lam.real)
        assert m == pytest.approx(0.75)
        assert phi(bound, lam, m) == pytest.approx(0.5, abs=1e-14)

    def test_limit_towards_infinity_is_b(self):
        bound = RelBound(0, 0.25)
        for t in (1e7, -1e7, 1e9):
            assert phi(bound, 4j, t) == pytest.approx(0.25, abs=1e-6)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            phi(RelBound(1, 0.5), complex(2, 0), 2.0)

    @settings(max_examples=150, deadline=None)
    @given(a=st.floats(0, 50), b=st.floats(0, 0.999),
           re=st.floats(-20, 20), im=st.floats(-20, 20),
           t=st.floats(-100, 100))
    def test_nonnegative(self, a, b, re, im, t):
        lam = complex(re, im)
        if abs(lam - t) < 1e-9:
            return
        assert phi(RelBound(a, b), lam, t) >= 0.0

    def test_tail_limit_within_stated_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a = rng.uniform(0, 10)
            b = rng.uniform(0, 0.99)
            lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            t = 1e6 * (1.0 + abs(lam)) * rng.choice([-1.0, 1.0])
            assert abs(phi(RelBound(a, b), lam, t) - b) < 1e-6

    def test_extreme_t_does_not_overflow(self):
        bound = RelBound(4, 0.7)
        for t in (1e200, -1e200, 1e308):
            val = phi(bound, complex(2, 1), t)
            assert math.isfinite(val)
            assert val == pytest.approx(0.7, abs=1e-10)


class TestPhiExtrema:
    def test_re_nonzero_branch(self):
        prof = phi_extrema(RelBound(1, 0.5), complex(2, 1))
        assert prof.branch == "re-nonzero"
        assert prof.m_lambda == pytest.approx(0.75)
        assert prof.t_max == pytest.approx(0.75 + math.sqrt(2 + 0.5625))
        assert prof.t_min == pytest.approx(0.75 - math.sqrt(2 + 0.5625))

    def test_re_zero_minimum_branch(self):
        # (Im)^2 = 16 > a/b = 12: global minimum at zero, no maxima
        prof = phi_extrema(RelBound(3, 0.25), 4j)
        assert prof.branch == "re-zero-min"
        assert prof.t_min == 0.0
        assert prof.t_max is None

    def test_re_zero_maximum_branch(self):
        prof = phi_extrema(RelBound(4, 0.25), 2j)
        assert prof.branch == "re-zero-max"
        assert prof.t_max == 0.0

    def test_constant_branch(self):
        prof = phi_extrema(RelBound(4, 0.25), 4j)
        assert prof.branch == "constant"
        assert prof.sup_over_reals == pytest.approx(0.25)

    def test_b_zero_maximum_at_re(self):
        prof = phi_extrema(RelBound(1, 0), complex(5, 2))
        assert prof.branch == "b-zero"
        assert prof.t_max == 5.0
        assert prof.t_min is None

    def test_real_point_rejected(self):
        with pytest.raises(ValueError):
            phi_extrema(RelBound(1, 0.5), complex(1, 0))

    def test_t_max_beats_dense_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            bound = RelBound(rng.uniform(0, 10), rng.uniform(0.01, 0.95))
            lam = complex(rng.uniform(-5, 5), rng.uniform(0.05, 5)
                          * rng.choice([-1, 1]))
            prof = phi_extrema(bound, lam)
            if prof.t_max is None:
                continue
            ts = np.linspace(-50, 50, 20001)
            grid = (bound.a + bound.b * ts**2) / np.abs(ts - lam) ** 2
            assert np.max(grid) <= phi(bound, lam, prof.t_max) * (1 + 1e-8)

    def test_value_b_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            bound = RelBound(rng.uniform(0, 10), rng.uniform(0.01, 0.99))
            lam = complex(rng.uniform(0.01, 5) * rng.choice([-1, 1]),
                          rng.uniform(0.01, 5) * rng.choice([-1, 1]))
            prof = phi_extrema(bound, lam)
            assert prof.branch == "re-nonzero"
            assert abs(phi(bound, lam, prof.m_lambda) - bound.b) \
                <= 1e-10 * (1 + bound.b)


class TestSupResolventFactorBound:
    def test_zero_perturbation(self):
        spec = SpectrumModel.real_line()
        assert sup_resolvent_factor_bound(RelBound(0, 0), spec, 2j) == 0.0

    def test_real_line_against_grid_oracle(self):
        bound = RelBound(3, 0.9)
        spec = SpectrumModel.real_line()
        val = sup_resolvent_factor_bound(bound, spec, 10j)
        ts = np.linspace(-1e4, 1e4, 400001)
        grid = np.sqrt((bound.a + bound.b * ts**2) / np.abs(ts - 10j) ** 2)
        assert val >= np.max(grid) - 1e-12
        assert val == pytest.approx(math.sqrt(0.9), abs=1e-6)

    def test_half_line_saturation(self):
        # real lam beyond gamma + sqrt(gamma^2 + a/b): squared norm <= b
        bound = RelBound(10, 0.4)
        spec = SpectrumModel.half_line_below(10.0)
        val = sup_resolvent_factor_bound(bound, spec, complex(30, 0))
        assert val <= math.sqrt(0.4) + 1e-12

    def test_random_against_grid_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            bound = RelBound(rng.uniform(0, 5), rng.uniform(0, 0.9))
            lo = rng.uniform(-10, 5)
            hi = lo + rng.uniform(0.5, 10)
            spec = SpectrumModel.interval(lo, hi)
            lam = complex(rng.uniform(-15, 15), rng.uniform(0.3, 10))
            val = sup_resolvent_factor_bound(bound, spec, lam)
            ts = np.linspace(lo, hi, 100001)
            grid = np.max(np.sqrt((bound.a + bound.b * ts**2)
                                  / np.abs(ts - lam) ** 2))
            assert grid <= val * (1 + 1e-9)
            assert val <= grid * (1 + 1e-4) + 1e-12

    def test_spectrum_point_rejected(self):
        spec = SpectrumModel.interval(0, 1)
        with pytest.raises(ValueError):
            sup_resolvent_factor_bound(RelBound(1, 0.1), spec, complex(0.5, 0))

    def test_mixed_spectrum_against_grid_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            bound = RelBound(rng.uniform(0, 5), rng.uniform(0.01, 0.9))
            lo = rng.uniform(-6, 0)
            spec = SpectrumModel(intervals=((lo, lo + rng.uniform(1, 5)),),
                                 points=tuple(rng.uniform(4, 9, size=3)))
            lam = complex(rng.uniform(-12, 12), rng.uniform(0.2, 8))
            val = sup_resolvent_factor_bound(bound, spec, lam)
            parts = [np.linspace(spec.intervals[0][0], spec.intervals[0][1],
                                 50001), np.array(spec.points)]
            grid = max(float(np.max(np.sqrt((bound.a + bound.b * ts**2)
                                            / np.abs(ts - lam) ** 2)))
                       for ts in parts)
            assert grid <= val * (1 + 1e-9)
            assert val <= grid * (1 + 1e-4) + 1e-12


class TestDiskRegionMembership:
    def bone(self):
        return DiskFamilyRegion(RelBound(10, 0.4), SpectrumModel.interval(-10, 10))

    def test_figure_region_center(self):
        mem = disk_region_membership(self.bone(), 0j)
        assert mem.inside
        assert mem.margin == pytest.approx(-math.sqrt(10), abs=1e-9)

    def test_figure_region_outside(self):
        mem = disk_region_membership(self.bone(), complex(20, 0))
        assert not mem.inside
        # g at the extreme center t=10: 100 - (10 + 0.4*100) = 50 > 0
        assert mem.margin > 0

    def test_figure_region_inside_right_lobe(self):
        mem = disk_region_membership(self.bone(), complex(15, 0))
        assert mem.inside

    def test_margin_sign_matches_decision(self):
        rng = np.random.default_rng(77)
        region = self.bone()
        for _ in range(300):
            lam = complex(rng.uniform(-25, 25), rng.uniform(-12, 12))
            mem = disk_region_membership(region, lam)
            assert (mem.margin <= 0) == mem.inside

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(101)
        undecided = 0
        for _ in range(500):
            region = _random_region(rng)
            span = region.centers.max_abs + 3 * math.sqrt(
                region.radius_scale * (region.bound.a + 1)) + 2
            lam = complex(rng.uniform(-span, span), rng.uniform(-span, span))
            mem = disk_region_membership(region, lam)
            oracle = oracle_membership(region, lam)
            if oracle is None:
                undecided += 1
                assert abs(mem.margin) < 1e-2
                continue
            assert mem.inside == oracle
        assert undecided < 25

    def test_rejects_unbounded_with_large_scale(self):
        with pytest.raises(ValueError):
            DiskFamilyRegion(RelBound(1, 0.5), SpectrumModel.real_line(),
                             radius_scale=2.5)

    def test_margin_accuracy_against_fine_grid(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            region = _random_region(rng)
            span = region.centers.max_abs + 3 * math.sqrt(
                region.radius_scale * (region.bound.a + 1)) + 2
            lam = complex(rng.uniform(-span, span), rng.uniform(-span, span))
            mem = disk_region_membership(region, lam)
            best = math.inf
            for p in region.centers.points:
                best = min(best, abs(lam - p) - float(region.radius(p)))
            for lo, hi in region.centers.intervals:
                ts = np.linspace(lo, hi, 200001)
                best = min(best, float(np.min(np.hypot(ts - lam.real, lam.imag)
                                              - region.radius(ts))))
            clipped = min(best, 0.0) if mem.inside else max(best, 0.0)
            assert mem.margin == pytest.approx(clipped, abs=1e-6)

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(9)
        region = self.bone()
        for _ in range(100):
            lam = complex(rng.uniform(-20, 20), rng.uniform(0, 10))
            a = disk_region_membership(region, lam)
            b = disk_region_membership(region, lam.conjugate())
            assert a.inside == b.inside
            assert a.margin == pytest.approx(b.margin, abs=1e-12)

    def test_negation_symmetry_for_symmetric_centers(self):
        rng = np.random.default_rng(10)
        region = self.bone()
        for _ in range(100):
            lam = complex(rng.uniform(-20, 20), rng.uniform(-10, 10))
            a = disk_region_membership(region, lam)
            b = disk_region_membership(region, -lam)
            assert a.inside == b.inside
            assert a.margin == pytest.approx(b.margin, abs=1e-9)

    def test_region_grows_with_a(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.uniform(0, 5)
            b = rng.uniform(0, 0.9)
            centers = SpectrumModel.interval(-3, 3)
            small = DiskFamilyRegion(RelBound(a, b), centers)
            big = DiskFamilyRegion(RelBound(a + rng.uniform(0.1, 5), b), centers)
            lam = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if disk_region_membership(small, lam).inside:
                assert disk_region_membership(big, lam).inside


def _scan_margin(region, lam, n_grid=200001):
    """Dense-scan oracle for min over centers of |lam - t| - r(t): a scan of
    n_grid points per interval, refined by a second scan of 2001 points
    around each of its (lowest eight) discrete local minima, plus the
    clipped t = Re lam, where h has a kink for real lam.  A half-line is cut
    where h provably exceeds its value there."""
    x, y = lam.real, lam.imag

    def h(ts):
        return np.hypot(ts - x, y) - region.radius(ts)

    best = min((float(h(np.array(p))) for p in region.centers.points),
               default=math.inf)
    for lo, hi in region.centers.intervals:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            # h(t) >= (1 - sqrt(rho b)) |t| - |x| - sqrt(rho a)
            rho_b = region.radius_scale * region.bound.b
            h0 = float(h(np.clip(x, lo, hi)))
            reach = (abs(h0) + abs(x) + math.sqrt(region.radius_scale
                                                  * region.bound.a) + 1.0) \
                / (1.0 - math.sqrt(rho_b))
            lo, hi = max(lo, -reach), min(hi, reach)
        ts = np.linspace(lo, hi, n_grid)
        vals = h(ts)
        best = min(best, float(np.min(vals)), float(h(np.clip(x, lo, hi))))
        left, right = np.roll(vals, 1), np.roll(vals, -1)
        dips = np.flatnonzero((vals <= left) & (vals <= right)
                              & ((vals < left) | (vals < right)))
        for k in dips[np.argsort(vals[dips])[:8]]:  # rounding makes flat h noisy
            fine = np.linspace(ts[max(k - 1, 0)], ts[min(k + 1, n_grid - 1)], 2001)
            best = min(best, float(np.min(h(fine))))
    return best


class TestExactMargin:
    """The closed-form margin against a dense-scan oracle, before the sign
    clip: it is the least value of h over the centers, never above a scan."""

    @staticmethod
    def check(region, lam):
        raw = geometry._metric_margin_on_interval
        m = min([float(raw(region, np.array(lam.real), np.array(lam.imag), lo, hi))
                 for lo, hi in region.centers.intervals]
                + [abs(lam - p) - float(region.radius(p))
                   for p in region.centers.points])
        scan = _scan_margin(region, lam)
        assert m <= scan + 1e-12 * (1.0 + abs(m))
        assert scan - m <= 1e-9 * (1.0 + abs(m))
        mem = disk_region_membership(region, lam)
        assert mem.margin == (min(m, 0.0) if mem.inside else max(m, 0.0))

    @staticmethod
    def span(region):
        return region.centers.max_abs + 3.0 * math.sqrt(
            region.radius_scale * (region.bound.a + 1.0)) + 2.0

    def test_random_regions(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            region = _random_region(rng)
            s = self.span(region)
            self.check(region, complex(rng.uniform(-s, s), rng.uniform(-s, s)))

    def test_concave_intervals_minimum_at_each_end(self):
        # rho b > 1 on a bounded interval: h falls towards both ends, and
        # above the interval's middle the two end values are close
        rng = np.random.default_rng(2025)
        for _ in range(100):
            lo = rng.uniform(-10.0, 5.0)
            hi = lo + rng.uniform(0.5, 20.0)
            bound = RelBound(rng.uniform(0.0, 8.0), rng.uniform(0.05, 0.9))
            region = DiskFamilyRegion(bound, SpectrumModel.interval(lo, hi),
                                      radius_scale=rng.uniform(1.01, 1.8) / bound.b)
            lam = complex(0.5 * (lo + hi) + rng.uniform(-1.0, 1.0),
                          rng.uniform(-30.0, 30.0))
            self.check(region, lam)

    def test_wide_intervals(self):
        rng = np.random.default_rng(2026)
        for _ in range(60):
            lo = rng.uniform(-500.0, 0.0)
            hi = lo + rng.uniform(10.0, 1000.0)
            bound = RelBound(rng.uniform(0.0, 100.0), rng.uniform(0.0, 0.9))
            region = DiskFamilyRegion(bound, SpectrumModel.interval(lo, hi),
                                      radius_scale=rng.uniform(0.3, 1.6))
            lam = complex(rng.uniform(lo - 50.0, hi + 50.0), rng.uniform(-300.0, 300.0))
            self.check(region, lam)

    @pytest.mark.parametrize("a, b, rho", [
        (3.0, 0.0, 1.0), (0.0, 0.0, 1.3),  # b = 0: the quartic is a (t - x)^2
        (2.0, 0.5, 2.0), (0.0, 0.25, 4.0),  # rho b = 1: it drops to degree 2
        (0.0, 0.4, 1.0), (0.0, 0.7, 1.2),  # a = 0: r has its kink at t = 0
    ])
    def test_degenerate_coefficients(self, a, b, rho):
        rng = np.random.default_rng(int(100 * (a + b + rho)))
        region = DiskFamilyRegion(RelBound(a, b), SpectrumModel.interval(-4.0, 6.0),
                                  radius_scale=rho)
        for _ in range(40):
            self.check(region, complex(rng.uniform(-8, 10), rng.uniform(-4, 4)))
        # rho b = 1 and a = b y^2: the quadratic's leading coefficient is
        # exactly 0 (y = 2 for the draw above), and its root x / 2 spurious
        if rho * b == 1.0 and a > 0.0:
            y = math.sqrt(a / b)
            for x in (-3.0, 0.0, 2.5, 9.0):
                self.check(region, complex(x, y))

    def test_real_lambda_double_root(self):
        # at y = 0 the quartic has the double root t = x, where h has its kink
        rng = np.random.default_rng(2027)
        for _ in range(60):
            region = _random_region(rng)
            s = self.span(region)
            self.check(region, complex(rng.uniform(-s, s), 0.0))

    def test_half_line_centers(self):
        rng = np.random.default_rng(2028)
        for _ in range(60):
            gamma = rng.uniform(-5.0, 5.0)
            centers = (SpectrumModel.half_line_below(gamma) if rng.uniform() < 0.5
                       else SpectrumModel.half_line_above(gamma))
            bound = RelBound(rng.uniform(0.0, 8.0), rng.uniform(0.0, 0.9))
            rho = rng.uniform(0.3, 0.95) / max(bound.b, 0.3)  # rho b < 0.95
            region = DiskFamilyRegion(bound, centers, radius_scale=rho)
            self.check(region, complex(rng.uniform(-20, 20), rng.uniform(-20, 20)))

    def test_array_call_matches_scalar_calls(self):
        rng = np.random.default_rng(2029)
        for _ in range(20):
            region = _random_region(rng)
            s = self.span(region)
            lams = rng.uniform(-s, s, size=(3, 7)) + 1j * rng.uniform(-s, s, size=(3, 7))
            lams[0, :2] = lams[0, :2].real  # real points too
            mem = disk_region_membership(region, lams)
            assert mem.inside.shape == mem.margin.shape == lams.shape
            for lam, inside, margin in zip(lams.flat, mem.inside.flat, mem.margin.flat):
                one = disk_region_membership(region, lam)
                assert type(one.inside) is bool and type(one.margin) is float
                assert (one.inside, one.margin) == (inside, margin)


def _random_region(rng):
    bound = RelBound(rng.uniform(0, 8), rng.uniform(0, 0.9))
    centers = _random_centers(rng)
    rho = rng.uniform(0.3, 1.4)
    if rho * bound.b >= 0.98:
        rho = 0.9 / max(bound.b, 1e-9)
    return DiskFamilyRegion(bound, centers, radius_scale=rho)


def _concave_region(rng):
    """Bounded centers with rho b in [1, 3]: g is concave in the center."""
    bound = RelBound(rng.uniform(0, 8), rng.uniform(0.05, 0.9))
    centers = _random_centers(rng)
    return DiskFamilyRegion(bound, centers,
                            radius_scale=rng.uniform(1.0, 3.0) / bound.b)


def _random_centers(rng):
    """An interval, a few points, or an interval plus two points; all bounded."""
    style = rng.integers(0, 3)
    if style == 0:
        lo = rng.uniform(-8, 4)
        centers = SpectrumModel.interval(lo, lo + rng.uniform(0.1, 10))
    elif style == 1:
        centers = SpectrumModel.from_points(rng.uniform(-8, 8, size=rng.integers(1, 6)))
    else:
        lo = rng.uniform(-8, 0)
        centers = SpectrumModel(
            intervals=((lo, lo + rng.uniform(0.5, 4)),),
            points=tuple(rng.uniform(4, 9, size=2)))
    return centers


class TestConcaveBranch:
    """rho b >= 1 with bounded centers: g and t -+ r(t) are concave in the
    center, so their extrema over an interval sit at its endpoints."""

    def test_membership_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(41)
        inside = 0
        for _ in range(300):
            region = _concave_region(rng)
            span = 2.0 * float(region.radius(region.centers.max_abs)) \
                + region.centers.max_abs + 1.0
            lam = complex(rng.uniform(-span, span), rng.uniform(-span, span))
            oracle = oracle_membership(region, lam)
            assert oracle is not None  # no refinement gap when concave
            assert disk_region_membership(region, lam).inside == oracle
            inside += oracle
        assert 30 < inside < 270

    def test_real_extent_against_dense_scan(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            region = _concave_region(rng)
            ts = np.concatenate([np.array(region.centers.points)]
                                + [np.linspace(lo, hi, 20001)
                                   for lo, hi in region.centers.intervals])
            xmin, xmax = region.real_extent
            scan_min = float(np.min(ts - region.radius(ts)))
            scan_max = float(np.max(ts + region.radius(ts)))
            assert xmin == pytest.approx(scan_min, rel=1e-14, abs=1e-12)
            assert xmax == pytest.approx(scan_max, rel=1e-14, abs=1e-12)

    @pytest.mark.parametrize("a, b", [(2.0, 0.0), (2.0, 0.4), (0.0, 0.0),
                                      (0.0, 0.4)])
    def test_real_extent_unbounded_centers(self, a, b):
        # an infinite end is its own extreme; at b = 0, r(+-inf) is NaN
        def extent(centers):
            return DiskFamilyRegion(RelBound(a, b), centers).real_extent

        def r(t):
            return math.sqrt(a + b * (t * t))

        lo, hi = -1.5, 3.0
        assert extent(SpectrumModel.half_line_below(hi)) == (-math.inf, hi + r(hi))
        assert extent(SpectrumModel.half_line_above(lo)) == (lo - r(lo), math.inf)
        assert extent(SpectrumModel.real_line()) == (-math.inf, math.inf)
        mixed = SpectrumModel(intervals=((-math.inf, lo),), points=(hi,))
        assert extent(mixed) == (-math.inf, hi + r(hi))

    def test_polyline_points_on_boundary(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            region = _concave_region(rng)
            pts = boundary_polyline(region, 64)
            assert len(pts) >= 16
            for z in pts:
                step = 1e-6 * (1.0 + abs(z))
                if z.imag > step:
                    assert oracle_membership(region, z - 1j * step)
                assert not oracle_membership(region, z + 1j * step)


class TestHull:
    def test_boundary_point_on_axis(self):
        assert hull_membership(RelBound(3, 0.9), complex(0, math.sqrt(3)))

    def test_degenerate_region_is_real_line(self):
        assert not hull_membership(RelBound(0, 0), complex(0, 1e-12))
        assert hull_membership(RelBound(0, 0), complex(5, 0))

    def test_sharper_than_prior_bound(self):
        bound = RelBound(3, 0.9)
        lam = complex(0, math.sqrt(30))
        assert not hull_membership(bound, lam)
        assert prior_hull_membership(bound, lam)

    def test_shared_asymptotes_with_prior_bound(self):
        # the improvement matters only for moderate |Re|: both boundary
        # curves approach the same slant asymptotes
        from kreinspec.geometry import hull_height, prior_hull_height
        bound = RelBound(3, 0.9)
        for x in (1e3, 1e5, 1e7):
            ratio = prior_hull_height(bound, x) / hull_height(bound, x)
            assert ratio == pytest.approx(1.0, abs=10.0 / x**2 + 1e-12)
        # and the sharper curve is never above the coarser one
        xs = np.linspace(-50, 50, 401)
        assert np.all(hull_height(bound, xs) <= prior_hull_height(bound, xs))

    def test_hull_contains_every_disk_and_touches_at_tangency(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            bound = RelBound(rng.uniform(0, 10), rng.uniform(0.01, 0.99))
            t0 = rng.uniform(-10, 10)
            a, b = bound.a, bound.b
            t1 = hull_tangency(bound, t0)
            assert t1 == pytest.approx((1 - b) * t0, rel=1e-14)
            # squared heights of hull and disk boundary at abscissa t
            def hull_sq(t):
                return a + b / (1 - b) * t * t

            def disk_sq(t):
                return a + b * t0 * t0 - (t - t0) ** 2

            scale = 1 + abs(hull_sq(t1))
            assert abs(hull_sq(t1) - disk_sq(t1)) <= 1e-10 * scale
            assert (t1 - t0) ** 2 <= b * t0 * t0 + 1e-14
            r = math.sqrt(a + b * t0 * t0) if a + b * t0 * t0 > 0 else 0.0
            for t in np.linspace(t0 - r, t0 + r, 41):
                assert hull_sq(t) >= disk_sq(t) - 1e-10 * scale

    def test_tangency_identity_when_b_zero(self):
        assert hull_tangency(RelBound(1, 0), 7.0) == 7.0

    def test_tangency_large_b(self):
        assert hull_tangency(RelBound(3, 0.9), 10.0) == pytest.approx(1.0)

    def test_tangency_negative_center(self):
        assert hull_tangency(RelBound(1, 0.5), -4.0) == pytest.approx(-2.0)


class TestSmallerbThreshold:
    def test_origin(self):
        assert smallerb_threshold(RelBound(0, 0.5), 0.0) == 0.0

    def test_figure_values(self):
        assert smallerb_threshold(RelBound(10, 0.4), 10.0) \
            == pytest.approx(10 + math.sqrt(125))
        assert smallerb_threshold(RelBound(10, 0.4), 0.0) == pytest.approx(5.0)

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError):
            smallerb_threshold(RelBound(1, 0), 1.0)


class TestTmainRegions:
    def test_zero_perturbation_limit(self):
        out = tmain_regions(0.0, 0.0, 3.0, -1.0)
        assert out["gamma"] == 0.0
        assert out["worse"].centers.points == (0.0,)
        mem = disk_region_membership(out["worse"], 0j)
        assert mem.inside and mem.margin == 0.0

    def test_silver_ratio_instance(self):
        tau = 3 + 2 * math.sqrt(2)
        out = tmain_regions(2.0, 0.1, tau, -10.0)
        expected_gamma = math.sqrt((1 + tau) * 2 / (2 * tau))
        assert out["gamma"] == pytest.approx(expected_gamma)
        assert out["gamma"] == pytest.approx(1.0824, abs=2e-4)
        assert out["better"] is not None
        assert 0.1 < (tau - 1) / (2 * tau)
        assert out["better"].radius_scale \
            == pytest.approx((1 + tau) / (2 * tau * 0.9))

    def test_small_v_caps_gamma_and_disables_better(self):
        out = tmain_regions(1.0, 0.6, 2.0, -0.01)
        assert out["gamma"] == pytest.approx(min(math.sqrt(0.75), 0.015))
        assert out["gamma"] == pytest.approx(0.015)
        assert out["better"] is None  # b = 0.6 >= (tau-1)/(2 tau) = 0.25

    def test_tau_below_one_rejected(self):
        with pytest.raises(ValueError):
            tmain_regions(1.0, 0.1, 0.5, -1.0)

    def test_nonnegative_v_rejected(self):
        with pytest.raises(ValueError):
            tmain_regions(1.0, 0.1, 2.0, 0.0)


class TestBoundaryPolyline:
    def test_box_corners_present(self):
        pts = boundary_polyline(SLBox(1.0, 2.0), 16)
        values = {(round(z.real, 12), round(z.imag, 12)) for z in pts}
        assert (-2.0, 1.0) in values
        assert (2.0, 1.0) in values
        assert (-2.0, 0.0) in values and (2.0, 0.0) in values

    def test_degenerate_box(self):
        assert boundary_polyline(SLBox(0.0, 0.0), 16) == [0j]

    def test_bone_max_height(self):
        region = DiskFamilyRegion(RelBound(10, 0.4),
                                  SpectrumModel.interval(-10, 10))
        pts = boundary_polyline(region, 801)
        top = max(z.imag for z in pts)
        assert top == pytest.approx(math.sqrt(50), abs=1e-3)
        # 2-D grid membership oracle can't beat the sampled boundary by much
        xs = np.linspace(-18, 18, 181)
        ys = np.linspace(0, 8, 81)
        best = 0.0
        for x in xs:
            for y in ys:
                if oracle_membership(region, complex(x, y), 801):
                    best = max(best, y)
        assert best <= top + 0.1

    def test_window_missing_region_raises(self):
        region = DiskFamilyRegion(RelBound(10, 0.4),
                                  SpectrumModel.interval(-10, 10))
        with pytest.raises(ValueError, match="misses the region"):
            boundary_polyline(region, 64, re_window=(100.0, 200.0))
        # a window between two disconnected components holds no abscissa
        apart = DiskFamilyRegion(RelBound(1, 0), SpectrumModel.from_points([-10, 10]))
        with pytest.raises(ValueError, match="misses the region"):
            boundary_polyline(apart, 64, re_window=(-5.0, 5.0))

    @pytest.mark.parametrize("region", [
        RelBound(3, 0.5),
        DiskFamilyRegion(RelBound(10, 0.4), SpectrumModel.interval(-10, 10)),
    ], ids=["hull", "disk-family"])
    def test_reversed_window_raises(self, region):
        with pytest.raises(ValueError, match="reversed"):
            boundary_polyline(region, 64, re_window=(5.0, 3.0))

    def test_hull_boundary_height_on_axis(self):
        pts = boundary_polyline(RelBound(3, 0.9), 257, re_window=(-5, 5))
        at_zero = min(pts, key=lambda z: abs(z.real))
        assert at_zero.imag == pytest.approx(math.sqrt(3), abs=1e-9)

    def test_single_point_region(self):
        region = DiskFamilyRegion(RelBound(0, 0), SpectrumModel.from_points([0.0]))
        pts = boundary_polyline(region, 16)
        assert pts == [0j]

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            boundary_polyline(SLBox(1, 1), 8)

    def test_heights_match_closed_form(self):
        region = DiskFamilyRegion(RelBound(10, 0.4),
                                  SpectrumModel.interval(-10, 10))
        pts = np.array(boundary_polyline(region, 512))
        x, y = pts.real, pts.imag
        t = np.clip(x / 0.6, -10, 10)
        exact = np.sqrt(np.maximum(10 + 0.4 * t * t - (x - t) ** 2, 0.0))
        high = y > 1e-3
        assert np.count_nonzero(high) > 500
        np.testing.assert_allclose(y[high], exact[high], rtol=1e-12, atol=0)

    def test_height_matches_scalar_reference(self):
        # per-abscissa loop over the candidate centers: points, the clamped
        # vertex of a convex g, both endpoints of a concave one
        rng = np.random.default_rng(53)
        for k in range(200):
            region = (_concave_region if k % 2 else _random_region)(rng)
            rho, a, b = region.radius_scale, region.bound.a, region.bound.b
            lead = 1.0 - rho * b
            xs = np.linspace(-25.0, 25.0, 101)
            ref = []
            for x in xs.tolist():
                best = 0.0
                for p in region.centers.points:
                    best = max(best, rho * (a + b * p * p) - (x - p) ** 2)
                for lo, hi in region.centers.intervals:
                    for t in ([min(max(x / lead, lo), hi)] if lead > 0
                              else [lo, hi]):
                        best = max(best, rho * (a + b * t * t) - (t - x) ** 2)
                ref.append(best)
            np.testing.assert_allclose(region.height(xs) ** 2, ref, rtol=1e-12,
                                       atol=1e-12)

    def test_boundary_points_have_small_margin(self):
        region = DiskFamilyRegion(RelBound(4, 0.3),
                                  SpectrumModel.interval(-2, 5))
        pts = boundary_polyline(region, 64)
        for z in pts[5:-5:7]:
            mem = disk_region_membership(region, z)
            assert abs(mem.margin) < 1e-6


class TestSerialization:
    def test_region_json_roundtrip_fields(self):
        region = DiskFamilyRegion(RelBound(10, 0.4),
                                  SpectrumModel.interval(-10, 10))
        obj = region_to_json(region)
        assert obj["kind"] == "disk-family"
        assert obj["gamma"] == 10.0
        assert obj["centers"]["intervals"] == [[-10.0, 10.0]]

    def test_half_line_uses_string_infinities(self):
        region = DiskFamilyRegion(RelBound(10, 0.4),
                                  SpectrumModel.half_line_below(10.0))
        obj = region_to_json(region)
        assert obj["centers"]["intervals"] == [["-inf", 10.0]]
        assert obj["gamma"] is None


class TestSpectrumModel:
    def test_merge_and_absorb(self):
        m = SpectrumModel(intervals=((0, 2), (1, 3)), points=(1.5, 7.0))
        assert m.intervals == ((0.0, 3.0),)
        assert m.points == (7.0,)

    def test_degenerate_interval_becomes_point(self):
        m = SpectrumModel(intervals=((2.0, 2.0),))
        assert m.points == (2.0,)
        assert not m.intervals

    def test_zero_width_interval_is_positive_zero(self):
        # gamma = 0 gives interval(-0.0, 0.0): its point is +0.0
        m = SpectrumModel.interval(-0.0, 0.0)
        assert m.points == (0.0,) and not m.intervals
        assert math.copysign(1.0, m.points[0]) == 1.0
        # a given point keeps its sign
        assert math.copysign(1.0, SpectrumModel.from_points([-0.0]).points[0]) == -1.0

    def test_zero_gamma_enclosure_centers_on_positive_zero(self):
        _, worse = geometry.tmain_worse(0.0, 0.2, 3.0, -1.0)
        assert math.copysign(1.0, worse.centers.points[0]) == 1.0
        assert region_to_json(worse)["gamma"] == 0.0

    def test_distance(self):
        m = SpectrumModel(intervals=((0, 1),), points=(5.0,))
        assert m.distance(0.5) == 0.0
        assert m.distance(3.0) == pytest.approx(2.0)
        assert m.distance(4.5) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SpectrumModel()

    def test_relbound_validation(self):
        with pytest.raises(ValueError):
            RelBound(-1, 0.5)
        with pytest.raises(ValueError):
            RelBound(1, 1.0)
        with pytest.raises(ValueError):
            RelBound(1, 1 - 1e-13)
