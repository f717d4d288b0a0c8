import math

import numpy as np
import pytest

from kreinspec.geometry import RelBound, SpectrumModel, DiskFamilyRegion, \
    disk_family_profiles, disk_region_membership, tmain_worse
from kreinspec import operators, verification
from kreinspec.operators import BlockOperator, KreinPerturbationProblem, \
    assemble_block, block_signature, k_set_membership, min_relative_bound, \
    resolvent_factor_norm, spectral_projections
from kreinspec.verification import (
    classify_spectrum,
    fit_relative_bound,
    random_block_operator,
    random_krein_problem,
    region_area,
    resolvent_order_check,
    trial_seeds,
    verify_block_theorem,
    verify_tmain,
)


class TestRegionArea:
    def test_single_disk(self):
        region = DiskFamilyRegion(RelBound(4.0, 0.0),
                                  SpectrumModel.from_points([1.0]))
        assert region_area(region) == pytest.approx(math.pi * 4.0, rel=1e-6)

    def test_stadium(self):
        # radii constant (b = 0): rectangle plus two half disks
        region = DiskFamilyRegion(RelBound(1.0, 0.0),
                                  SpectrumModel.interval(-2, 2))
        expected = 4.0 * 2.0 * 1.0 + math.pi
        assert region_area(region) == pytest.approx(expected, rel=1e-6)

    def test_monte_carlo_cross_check(self):
        region = DiskFamilyRegion(RelBound(2.0, 0.5),
                                  SpectrumModel.interval(-1, 3),
                                  radius_scale=0.8)
        rng = np.random.default_rng(0)
        xmin, xmax = region.real_extent
        ymax = 3.0
        hits = 0
        n = 40000
        xs = rng.uniform(xmin, xmax, n)
        ys = rng.uniform(-ymax, ymax, n)
        for x, y in zip(xs, ys):
            if not disk_region_membership(region, complex(x, y)).inside:
                continue
            hits += 1
        mc = hits / n * (xmax - xmin) * 2 * ymax
        assert region_area(region) == pytest.approx(mc, rel=0.05)


class TestStackedRegionArea:
    """region_area over a sequence of regions: one stacked evaluation whose
    areas equal the one-region calls bit for bit."""

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64)

    @staticmethod
    def candidates(problem):
        """verify_tmain's 100 candidate plain regions and its fitted curve."""
        tau = spectral_projections(problem).tau0
        w_op = math.sqrt((1.0 + tau) * tau) * problem.v
        curve = [(b, 0.5 * a) for b, a in fit_relative_bound(w_op, problem.a0)]
        return curve, [tmain_worse(a, b, tau, problem.jv_lower_bound)[1]
                       for b, a in curve]

    def test_enclosure_candidates_match_single_calls(self):
        checked = 0
        for seed in trial_seeds(17, 80):
            problem = random_krein_problem(seed)
            if problem.jv_lower_bound >= 0.0:
                continue
            curve, regions = self.candidates(problem)
            single = [region_area(r) for r in regions]
            np.testing.assert_array_equal(self.bits(region_area(regions)),
                                          self.bits(single))
            # verify_tmain keeps the first least-area pair, as a strict-<
            # scan over the single areas does
            first = min(range(len(single)), key=single.__getitem__)
            bounds = verify_tmain(problem).bounds
            assert (bounds["b"], bounds["a"]) == curve[first]
            checked += 1
        assert checked >= 50

    def test_point_center_matches_single_calls(self):
        # a = 0 forces gamma = 0: the centers are the single point 0, whose
        # disk has radius 0; the same center set with a > 0 has area pi a
        regions = [tmain_worse(0.0, b, 3.0, -0.5)[1] for b in (0.0, 0.3, 0.9)]
        assert all(r.centers.points == (0.0,) for r in regions)
        regions += [DiskFamilyRegion(RelBound(a, 0.2), regions[0].centers,
                                     radius_scale=rho)
                    for a, rho in ((1e-6, 1.0), (1.0, 1.0), (40.0, 2.5))]
        regions += [tmain_worse(a, 0.2, 2.0, -1e-3)[1] for a in (1e-6, 1.0)]
        single = [region_area(r) for r in regions]
        assert single[:3] == [0.0] * 3
        assert single[3:6] == pytest.approx([math.pi * 1e-6, math.pi,
                                             math.pi * 100.0], rel=1e-6)
        np.testing.assert_array_equal(self.bits(region_area(regions)),
                                      self.bits(single))

    def test_mixed_center_sets_and_unbounded(self):
        bound = RelBound(2.0, 0.3)
        regions = [
            DiskFamilyRegion(bound, SpectrumModel(intervals=((-1.0, 2.0),),
                                                  points=(-4.0, 5.0))),
            DiskFamilyRegion(bound, SpectrumModel.half_line_below(1.0)),
            DiskFamilyRegion(bound, SpectrumModel.from_points([0.5, 3.0, 9.0]),
                             radius_scale=5.0),  # rho b > 1: concave g
            DiskFamilyRegion(RelBound(4.0, 0.0), SpectrumModel.from_points([1.0])),
        ]
        areas = region_area(regions)
        assert math.isinf(areas[1])
        np.testing.assert_array_equal(self.bits(areas),
                                      self.bits([region_area(r) for r in regions]))
        assert areas[3] == pytest.approx(4.0 * math.pi, rel=1e-6)
        assert region_area([]).shape == (0,)

    @staticmethod
    def scanned_extent(region):
        """The real extent as a scan of t -+ r(t) over the center set's ends,
        one end at a time."""
        xmin, xmax = math.inf, -math.inf
        for t in region.centers.points + sum(region.centers.intervals, ()):
            r = float(region.radius(t)) if math.isfinite(t) else 0.0
            xmin, xmax = min(xmin, t - r), max(xmax, t + r)
        return xmin, xmax

    def test_stacked_extents_match_real_extent(self):
        bound = RelBound(2.0, 0.3)
        regions = [
            DiskFamilyRegion(bound, SpectrumModel.from_points([0.5, -3.0, 9.0]),
                             radius_scale=5.0),
            DiskFamilyRegion(bound, SpectrumModel.interval(-1.0, 2.0)),
            DiskFamilyRegion(RelBound(0.7, 0.0), SpectrumModel(
                intervals=((-6.0, -2.5), (1.0, 2.0)), points=(-8.0, 0.25, 5.0))),
            tmain_worse(0.0, 0.4, 3.0, -0.5)[1],  # gamma = 0: the point 0
            tmain_worse(1e-6, 0.2, 2.0, -1e-3)[1],
        ]
        assert regions[3].centers.points == (0.0,)
        xmin, xmax, heights = disk_family_profiles(regions, np.linspace(-1, 1, 5))
        assert heights.shape == (len(regions), 5)
        single = [r.real_extent for r in regions]
        assert single[3] == (0.0, 0.0)
        for reference in (single, [self.scanned_extent(r) for r in regions]):
            np.testing.assert_array_equal(self.bits(xmin),
                                          self.bits([e[0] for e in reference]))
            np.testing.assert_array_equal(self.bits(xmax),
                                          self.bits([e[1] for e in reference]))


class TestVerifyBlockTheorem:
    def test_decoupled_instance_trivially_clean(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(-3, 3, 4)
        block = BlockOperator(np.diag(d), np.diag(d + 0.5), np.zeros((4, 4)))
        report = verify_block_theorem(block, lambda_samples=100, seed=1)
        assert report.nonreal_count == 0
        assert report.verified

    @pytest.mark.parametrize("coupling_norm", [0.0, 1e-10])
    def test_weakly_coupled_rotated_blocks_clean(self, coupling_norm):
        # non-diagonal blocks: eigvals(full) misses their spectra by rounding,
        # where the K set's closed form is negative; those real eigenvalues
        # must count as inside their own side and be tested against the other
        def rotated(rng, d):
            z = rng.standard_normal((d.size,) * 2) \
                + 1j * rng.standard_normal((d.size,) * 2)
            q = np.linalg.qr(z)[0]
            s = q @ np.diag(d) @ q.conj().T
            return (s + s.conj().T) / 2

        for seed in range(10):
            rng = np.random.default_rng(seed)
            s_plus = rotated(rng, rng.uniform(-3, 3, 5))
            s_minus = rotated(rng, rng.uniform(-3, 3, 4))
            m = rng.standard_normal((5, 4))
            m *= coupling_norm / np.linalg.norm(m, 2)
            report = verify_block_theorem(BlockOperator(s_plus, s_minus, m),
                                          lambda_samples=20, seed=seed)
            assert report.sign_type_failures == [], seed
            assert report.verified, seed
            assert report.nonreal_count == 0
            assert report.checks["signType"]["tested"] == 9

    def test_canonical_two_by_two_boundary(self):
        block = BlockOperator(np.zeros((1, 1)), np.zeros((1, 1)),
                              np.array([[1.0]]))
        report = verify_block_theorem(block, lambda_samples=300, seed=2)
        assert report.nonreal_count == 2
        assert report.verified
        # eigenvalues +-i sit exactly on the K-set boundary |lam| = 1
        assert k_set_membership(np.array([[1.0]]), np.zeros((1, 1)), 1j)
        margins = [r.margin for r in report.eigenvalues if r.kind == "nonreal"]
        assert max(abs(m) for m in margins) < 1e-9

    def test_randomized_suite(self):
        sign_tested = 0
        resolvent_checked = 0
        for seed in trial_seeds(42, 40):
            block = random_block_operator(seed, max_dim=14)
            report = verify_block_theorem(block, lambda_samples=200, seed=seed)
            sign_tested += report.checks["signType"]["tested"]
            resolvent_checked += report.checks["resolvent"]["applicable"]
            assert report.verified, (seed, report.containment_failures,
                                     report.sign_type_failures,
                                     report.resolvent_check_failures)
        # the suite must actually exercise the claims, not skip them
        assert sign_tested > 50
        assert resolvent_checked > 500

    def test_nonreal_eigenvalues_inside_fitted_disks(self):
        # cross-check the theorem-level membership against raw geometry
        for seed in trial_seeds(7, 25):
            block = random_block_operator(seed, max_dim=10)
            full = assemble_block(block)
            evals = np.linalg.eigvals(full)
            d_minus = np.linalg.eigvalsh(block.s_minus)
            curve = fit_relative_bound(block.coupling, block.s_minus,
                                       tuple(np.linspace(0, 0.95, 20)))
            scale = np.linalg.norm(full, 2)
            for lam in evals:
                if abs(lam.imag) < 1e-6 * (1 + abs(lam)):
                    continue
                for b, a in curve:
                    region = DiskFamilyRegion(
                        RelBound(a, b), SpectrumModel.from_points(d_minus))
                    mem = disk_region_membership(region, complex(lam))
                    assert mem.margin <= 1e-8 * scale

    def test_same_type_cluster_is_decided(self):
        # the double eigenvalue 5 is one bracket whose inertia jumps by +2:
        # both copies are real of positive type and tested, as is the -5
        block = BlockOperator(np.diag([5.0, 5.0]), np.diag([-5.0]),
                              np.zeros((2, 1)))
        report = verify_block_theorem(block, lambda_samples=50, seed=0)
        assert report.verified
        assert report.indeterminate == []
        assert report.checks["signType"] == {"tested": 3, "failures": 0,
                                             "indeterminate": 0}
        assert [r.sign for r in report.eigenvalues] == [1.0, 1.0, -1.0]

    def test_mixed_type_cluster_is_indeterminate(self):
        # 5 is an eigenvalue of both types: the jump over the pair is 0, so
        # neither is decided, and no claim is tested on them
        block = BlockOperator(np.array([[5.0]]), np.array([[5.0]]),
                              np.zeros((1, 1)))
        report = verify_block_theorem(block, lambda_samples=50, seed=0)
        assert report.verified
        assert report.indeterminate == [
            {"lambda": 5.0,
             "reason": "net inertia jump 0 over 2 eigenvalues"}] * 2
        assert report.checks["signType"] == {"tested": 0, "failures": 0,
                                             "indeterminate": 2}
        assert report.nonreal_count == 0
        assert [r.sign for r in report.eigenvalues] == [None, None]

    def test_report_serializes(self):
        block = random_block_operator(11, max_dim=8)
        report = verify_block_theorem(block, lambda_samples=50, seed=11)
        payload = report.to_json()
        assert payload["verified"] == report.verified
        assert "margins" in payload["checks"]


class TestVerifyTmain:
    def test_zero_perturbation(self):
        sig = np.array([1.0, -1.0, 1.0])
        prob = KreinPerturbationProblem(signature=sig, a0=np.diag(sig * 2.0),
                                        v=np.zeros((3, 3)))
        report = verify_tmain(prob)
        assert report.checks["branch"] == "jv-nonnegative"
        assert report.verified
        assert report.nonreal_count == 0

    def test_jv_nonnegative_branch_fits_no_bound(self, monkeypatch):
        calls = []

        def counted(t_op, s_op, b):
            calls.append(len(b))
            return min_relative_bound(t_op, s_op, b)

        monkeypatch.setattr(verification, "min_relative_bound", counted)
        sig = np.array([1.0, -1.0, 1.0, -1.0])
        a0 = np.diag(sig * np.array([2.0, 1.0, 3.0, 0.5]))
        report = verify_tmain(KreinPerturbationProblem(
            signature=sig, a0=a0, v=0.3 * np.diag(sig)))
        assert report.checks["branch"] == "jv-nonnegative"
        assert calls == []
        report = verify_tmain(KreinPerturbationProblem(
            signature=sig, a0=a0, v=-0.3 * np.diag(sig)))
        assert report.checks["branch"] == "enclosure"
        assert calls == [100]

    def test_positive_multiple_of_j_keeps_spectrum_real(self):
        for seed in trial_seeds(3, 30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 10))
            sig = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            p = (q * rng.uniform(0.5, 2.0, size=n)) @ q.T
            p = 0.5 * (p + p.T)
            eps = rng.uniform(0.01, 1.0)
            prob = KreinPerturbationProblem(
                signature=sig, a0=sig[:, None] * p, v=eps * np.diag(sig))
            report = verify_tmain(prob)
            assert report.checks["branch"] == "jv-nonnegative"
            assert report.verified

    def test_bounded_v_reduction(self):
        # forcing b = 0 must reproduce radius (1+tau)/2 norm(V) and
        # half-length -(1+tau)/2 v in the rescaled region
        rng = np.random.default_rng(5)
        for seed in range(20):
            prob = random_krein_problem(seed, max_dim=10, definite_fraction=0.0)
            v_low = prob.jv_lower_bound
            if v_low >= 0:
                continue
            tau = 6.0
            v_norm = float(np.linalg.norm(prob.v, 2))
            from kreinspec.geometry import tmain_regions
            a = (1 + tau) * tau * v_norm**2 / 2.0
            out = tmain_regions(a, 0.0, tau, v_low)
            r_expected = (1 + tau) * v_norm / 2.0
            d_expected = -(1 + tau) * v_low / 2.0
            better = out["better"]
            assert better is not None
            radius = math.sqrt(better.radius_scale * a)
            assert radius == pytest.approx(r_expected, abs=1e-10 * (1 + r_expected))
            assert out["gamma"] == pytest.approx(d_expected,
                                                 abs=1e-10 * (1 + d_expected))

    def test_randomized_suite(self):
        nonreal = 0
        for seed in trial_seeds(99, 60):
            prob = random_krein_problem(seed, max_dim=14)
            report = verify_tmain(prob)
            nonreal += report.nonreal_count
            assert report.verified, (seed, report.containment_failures,
                                     report.sign_type_failures)
        assert nonreal > 0  # the generator does exercise the enclosure branch

    def test_same_type_cluster_is_decided(self):
        # A0 + V = diag(9.99, 9.99, -9.99, -9.99): every eigenvalue is
        # double and beyond the region's real section; each pair is one
        # bracket whose inertia jumps by +-2, so all four are tested
        sig = np.array([1.0, 1.0, -1.0, -1.0])
        prob = KreinPerturbationProblem(signature=sig, a0=np.diag(sig * 10.0),
                                        v=np.diag(sig * -0.01))
        report = verify_tmain(prob)
        assert report.checks["branch"] == "enclosure"
        assert report.verified
        assert report.indeterminate == []
        assert report.checks["signType"] == {"tested": 4, "failures": 0,
                                             "indeterminate": 0}
        assert sorted((r.value.real, r.sign) for r in report.eigenvalues) == \
            pytest.approx([(-9.99, -1.0), (-9.99, -1.0), (9.99, 1.0),
                           (9.99, 1.0)])

    def test_jv_nonnegative_branch_reports_types(self):
        # J (A0 + V) is positive definite, so the type of each (real)
        # eigenvalue is its sign; the branch records it and its summary
        for seed in trial_seeds(8, 40):
            prob = random_krein_problem(seed, max_dim=12, definite_fraction=1.0)
            report = verify_tmain(prob)
            assert report.checks["branch"] == "jv-nonnegative"
            assert report.verified
            assert report.checks["signType"] == {"tested": 0, "failures": 0,
                                                 "indeterminate": 0}
            assert [r.sign for r in report.eigenvalues] == \
                [math.copysign(1.0, r.value.real) for r in report.eigenvalues]

    def test_user_tau_below_tau0_is_raised_to_tau0(self):
        prob = random_krein_problem(2, max_dim=6)
        report = verify_tmain(prob, tau=1.0)
        assert report.bounds["tau"] >= report.bounds["tau0"]

    def test_regions_serialized_when_enclosure_branch(self):
        for seed in trial_seeds(123, 30):
            prob = random_krein_problem(seed, max_dim=8, definite_fraction=0.0)
            if prob.jv_lower_bound < 0:
                report = verify_tmain(prob)
                assert report.checks["regions"]["worse"]["kind"] == "disk-family"
                return
        pytest.skip("no indefinite instance found")


class TestClassifySpectrum:
    """Inertia types against the eigenvector quantities they replace."""

    @staticmethod
    def instance(kind, seed):
        if kind == "block":
            block = random_block_operator(seed, max_dim=20)
            return assemble_block(block), block_signature(block)
        prob = random_krein_problem(seed, max_dim=20)
        return prob.a0 + prob.v, prob.signature

    @pytest.mark.parametrize("kind", ["block", "krein"])
    def test_types_match_eigenvector_oracle(self, kind):
        real = nonreal = 0
        for seed in trial_seeds(31, 60):
            matrix, j_sig = self.instance(kind, seed)
            spec = classify_spectrum(matrix, j_sig)
            evals, evecs = np.linalg.eig(matrix)
            # reference non-real rule: |Im| > 1e-8 (1 + |lam|) kappa, kappa
            # the eigenbasis condition number capped at 1e8
            kappa = min(float(np.linalg.cond(evecs)), 1e8)
            flagged = np.abs(evals.imag) > 1e-8 * (1.0 + np.abs(evals)) * kappa
            quotient = np.real(np.einsum("ij,i,ij->j", evecs.conj(), j_sig,
                                         evecs))
            for lam, sign in zip(spec.values, spec.types):
                k = int(np.argmin(np.abs(evals - lam)))
                assert abs(evals[k] - lam) <= 1e-10 * spec.scale
                assert not np.isnan(sign), (seed, lam)  # no undecided bracket
                assert (sign == 0.0) == flagged[k], (seed, lam)
                if sign != 0.0:
                    assert sign == np.sign(quotient[k]), (seed, lam)
                    real += 1
                else:
                    nonreal += 1
        assert real > 300 and nonreal > 20

    def test_dropped_midpoint_merges_brackets(self):
        # equal real parts put a midpoint on an eigenvalue, where H(mu) is
        # singular: the bracket holds both copies and its jump decides them
        spec = classify_spectrum(np.diag([2.0, 2.0, -1.0]),
                                 np.array([1.0, 1.0, -1.0]))
        assert spec.types.tolist() == [1.0, 1.0, -1.0]
        assert spec.brackets.tolist() == [[2, 2], [2, 2], [-1, 1]]

    def test_counts_over_several_stacks(self):
        # 149 midpoints take two eigvalsh stacks; a diagonal J-self-adjoint
        # matrix has the type of each eigenvalue in J
        rng = np.random.default_rng(4)
        j_sig = rng.choice([-1.0, 1.0], size=150)
        spec = classify_spectrum(np.diag(rng.permutation(150) - 75.0), j_sig)
        np.testing.assert_array_equal(spec.types, j_sig)

    def test_inertia_points(self):
        np.testing.assert_array_equal(verification.inertia_points([1.0, 2.0, 4.0]),
                                      [0.0, 1.5, 3.0, 5.0])
        assert verification.inertia_points([]).size == 0


class TestResolventSampler:
    """verify_block_theorem's resolvent sampling replayed with scalar calls:
    the same draws (x, y, sign per sample), the same applicable count and
    the same failures in (sample, side) order."""

    @staticmethod
    def replay(block, samples, seed, norm):
        full = assemble_block(block)
        scale = classify_spectrum(full, block_signature(block)).scale
        rng = np.random.default_rng(seed)
        applicable, failures = 0, []
        for _ in range(samples):
            x = rng.uniform(-2.0 * scale, 2.0 * scale)
            y = rng.uniform(1e-3 * scale, 2.0 * scale) * rng.choice([-1.0, 1.0])
            lam = complex(x, y)
            for t_op, s_op in ((block.coupling, block.s_minus),
                               (block.coupling.conj().T, block.s_plus)):
                nu = resolvent_factor_norm(t_op, s_op, lam)
                if nu < 1.0 - 1e-9:
                    applicable += 1
                    res = norm(full, lam)
                    cap = (1.0 + nu + nu * nu) / (abs(y) * (1.0 - nu * nu))
                    if res > cap * (1.0 + 1e-8) + 1e-12:
                        failures.append({"lambda": [x, y], "norm": res, "cap": cap})
        return applicable, failures

    @staticmethod
    def scalar_loop(rng, count, scale, keep=()):
        """The per-sample draws ``_resolvent_samples`` decodes; returns the
        points and the generator state after each count in ``keep``."""
        points, states = [], {}
        for k in range(count + 1):
            if k in keep:
                states[k] = rng.bit_generator.state
            if k < count:
                points.append(complex(rng.uniform(-2.0 * scale, 2.0 * scale),
                                      rng.uniform(1e-3 * scale, 2.0 * scale)
                                      * rng.choice([-1.0, 1.0])))
        return np.array(points, dtype=complex), states

    @pytest.mark.parametrize("scale", [1.0, 10.0, 37.3])
    def test_stream_matches_scalar_loop(self, scale):
        counts = (0, 1, 2, 999, 1000)
        for seed in range(100):
            loop, states = self.scalar_loop(np.random.default_rng(seed), 1000,
                                            scale, keep=counts)
            for count in counts:
                rng = np.random.default_rng(seed)
                lams = verification._resolvent_samples(rng, count, scale)
                np.testing.assert_array_equal(lams.view(np.uint64),
                                              loop[:count].view(np.uint64))
                assert rng.bit_generator.state == states[count]

    def test_rejects_undecodable_generators(self):
        with pytest.raises(ValueError, match="PCG64"):
            verification._resolvent_samples(
                np.random.Generator(np.random.MT19937(0)), 10, 1.0)
        rng = np.random.default_rng(0)
        rng.choice([-1.0, 1.0])  # leaves a buffered uint32
        with pytest.raises(ValueError, match="buffered"):
            verification._resolvent_samples(rng, 10, 1.0)

    def test_matches_scalar_replay(self):
        for seed in trial_seeds(5, 4):
            block = random_block_operator(seed, max_dim=8)
            report = verify_block_theorem(block, lambda_samples=300, seed=seed)
            applicable, failures = self.replay(block, 300, seed,
                                               operators.resolvent_norm)
            assert report.checks["resolvent"]["applicable"] == applicable > 0
            assert report.resolvent_check_failures == failures == []

    def test_failures_listed_in_sample_and_side_order(self, monkeypatch):
        # an inflated resolvent norm makes part of the samples fail; with
        # nothing certified, every applicable sample reaches it
        def inflated(a_op, lam):
            return 3.0 * operators.resolvent_norm(a_op, lam)

        monkeypatch.setattr(verification, "resolvent_norm", inflated)
        monkeypatch.setattr(verification, "certify_resolvent_bound",
                            lambda a_op, lam, limit: np.zeros(len(lam), dtype=bool))
        listed = 0
        for seed in trial_seeds(6, 4):
            block = random_block_operator(seed, max_dim=8)
            report = verify_block_theorem(block, lambda_samples=300, seed=seed)
            applicable, failures = self.replay(block, 300, seed, inflated)
            assert report.checks["resolvent"]["applicable"] == applicable
            assert report.resolvent_check_failures == failures
            listed += len(failures)
        assert listed > 0


class TestResolventOrderCheck:
    def test_normal_instance(self):
        # commuting blocks, zero coupling: resolvent norm is 1/distance
        d = np.array([-2.0, 1.0, 3.0])
        block = BlockOperator(np.diag(d), np.diag(d - 0.5), np.zeros((3, 3)))
        out = resolvent_order_check(block, samples=300, seed=0)
        assert not out["order1_failures"]

    def test_canonical_two_by_two(self):
        block = BlockOperator(np.zeros((1, 1)), np.zeros((1, 1)),
                              np.array([[1.0]]))
        out = resolvent_order_check(block, samples=300, seed=1)
        assert not out["order1_failures"]
        assert out["growth_constant"] < 10.0

    def test_random_blocks(self):
        for seed in trial_seeds(17, 15):
            block = random_block_operator(seed, max_dim=10)
            out = resolvent_order_check(block, samples=200, seed=seed)
            assert not out["order1_failures"], (seed, out["order1_failures"][:2])


class TestSpectralInclusionForSums:
    """Eigenvalues of S + T for Hermitian S stay inside the fitted disk
    union over the spectrum of S, and inside its hull."""

    def test_sum_spectrum_in_disk_union_and_hull(self):
        from kreinspec.geometry import hull_membership
        for seed in trial_seeds(271, 60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 12))
            q, _ = np.linalg.qr(rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
            d = rng.uniform(-6, 6, n)
            s = (q * d) @ q.conj().T
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            t *= rng.uniform(0.1, 2.0) / np.linalg.norm(t, 2)
            scale = np.linalg.norm(s + t, 2)
            for b in (0.0, 0.3, 0.8):
                a = min_relative_bound(t, s, b)
                region = DiskFamilyRegion(RelBound(a, b),
                                          SpectrumModel.from_points(d))
                for lam in np.linalg.eigvals(s + t):
                    mem = disk_region_membership(region, complex(lam))
                    assert mem.margin <= 1e-8 * scale, (seed, b, lam)
                    # hull membership modulo the same eigenvalue slack
                    z = complex(lam)
                    hull_val = (z.imag**2 - region.bound.a
                                - region.bound.b / (1 - region.bound.b)
                                * z.real**2)
                    assert hull_val <= 1e-6 * (1 + scale) ** 2, (seed, b, lam)

    def test_k_set_inside_disk_union_direct(self):
        # direct randomized consistency: factor norm >= 1 forces membership
        checked = 0
        for seed in trial_seeds(314, 60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 10))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            d = rng.uniform(-5, 5, n)
            s = (q * d) @ q.T
            t = rng.standard_normal((n, n)) * rng.uniform(0.2, 1.5)
            b = float(rng.uniform(0, 0.9))
            a = min_relative_bound(t, s, b)
            region = DiskFamilyRegion(RelBound(a, b),
                                      SpectrumModel.from_points(d))
            for _ in range(40):
                # bias towards the spectrum, where the factor norm is large
                center = float(rng.choice(d))
                lam = complex(center + rng.normal(0, 1.0),
                              rng.normal(0, 0.8))
                if abs(lam.imag) < 1e-9:
                    continue
                if k_set_membership(t, s, lam):
                    checked += 1
                    assert disk_region_membership(region, lam).margin <= 1e-9
        assert checked >= 1000


class TestGenerators:
    def test_block_generator_deterministic(self):
        a = random_block_operator(123, max_dim=12)
        b = random_block_operator(123, max_dim=12)
        np.testing.assert_array_equal(a.coupling, b.coupling)
        assert sum(a.dims) <= 12

    def test_krein_generator_valid_and_mixed(self):
        saw_negative = saw_nonnegative = False
        for seed in range(40):
            prob = random_krein_problem(seed, max_dim=10)
            if prob.jv_lower_bound < 0:
                saw_negative = True
            else:
                saw_nonnegative = True
        assert saw_negative and saw_nonnegative

    def test_trial_seeds_are_unique_and_stable(self):
        seeds = trial_seeds(42, 100)
        assert len(set(seeds)) == 100
        assert seeds == trial_seeds(42, 100)
