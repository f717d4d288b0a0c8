import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from kreinspec import sturm_liouville
from kreinspec.reporting import ConfigError
from kreinspec.sturm_liouville import (
    Potential,
    TAU0_UPPER_BOUND,
    ProbeFunction,
    bst_region,
    containment_report,
    discretize,
    enclosure_bounds_objective,
    extremizer_probe,
    indicator_probe,
    lemma_ls_check,
    lp_norm,
    sl_box,
    sl_certified_spectrum,
    sl_constants,
    sl_eigenvalues,
    sl_sign_types,
    tau0_hilbert_form,
)

SQRT2 = math.sqrt(2.0)


class TestSLConstants:
    def test_s2_regression(self):
        # frozen from the independent arrangement (-6+5 sqrt2)+sqrt(96-67 sqrt2)
        # evaluated at 60 digits
        c = sl_constants(2.0)
        assert c.s_p == pytest.approx(2.188068850809769033, rel=1e-14)

    def test_limits_at_large_p(self):
        t0 = time.time()
        c = sl_constants(1e6)
        assert time.time() - t0 < 1.0
        assert abs(c.im_coef - (2 + SQRT2)) < 1e-2
        assert abs(c.half_diag - math.sqrt(30 + 20 * SQRT2)) < 2e-2

    def test_f_limit_algebraic(self):
        # f(s -> inf) = sqrt(2 (17+12 sqrt2)/(3+2 sqrt2)) = 2 + sqrt2
        big = sl_constants(1e8)
        assert big.f_sp == pytest.approx(2 + SQRT2, abs=1e-6)

    def test_monotone_decreasing_towards_limits(self):
        ps = np.geomspace(2, 1e6, 40)
        ims = [sl_constants(p).im_coef for p in ps]
        hds = [sl_constants(p).half_diag for p in ps]
        assert all(x > y for x, y in zip(ims, ims[1:]))
        assert all(x > y for x, y in zip(hds, hds[1:]))
        assert abs(ims[-1] - (2 + SQRT2)) < 1e-2

    def test_s_p_exceeds_one_and_ordering(self):
        for p in (2, 3, 7.5, 50, 1e4):
            c = sl_constants(p)
            assert c.s_p > 1.0
            assert 0 < c.im_coef < c.re_coef

    def test_small_p_rejected(self):
        with pytest.raises(ValueError):
            sl_constants(1.5)
        with pytest.raises(ValueError):
            sl_constants(math.inf)

    def test_consistency_with_s_objective(self):
        # the closed-form coefficients must equal the raw s-parameterized
        # bounds evaluated at s_p, and s_p must minimize the Im bound
        for p in (2.0, 3.0, 10.0, 100.0):
            c = sl_constants(p)
            out = enclosure_bounds_objective(p, 1.0, c.s_p)
            assert out["im"] == pytest.approx(c.im_coef, rel=1e-10)
            assert out["re"] == pytest.approx(c.re_coef, rel=1e-10)
            for s in np.geomspace(1.01, 50 * c.s_p, 500):
                assert enclosure_bounds_objective(p, 1.0, float(s))["im"] \
                    >= c.im_coef * (1 - 1e-12)

    def test_re_bound_admits_slight_improvement(self):
        # minimizing the Re objective alone lands at a smaller s than s_p
        p = 2.0
        c = sl_constants(p)
        grid = np.geomspace(1.01, 10 * c.s_p, 4001)
        res = [enclosure_bounds_objective(p, 1.0, float(s))["re"] for s in grid]
        assert min(res) <= c.re_coef
        assert min(res) > 0.9 * c.re_coef


class TestBstRegion:
    def test_limits_at_large_p(self):
        r = bst_region(1e6)
        assert abs(r.im_coef - 6 * math.sqrt(3)) < 1e-2
        assert abs(r.abs_coef - (6 * math.sqrt(3) + 4.5)) < 1e-2

    def test_p_two_value(self):
        r = bst_region(2.0)
        assert r.im_coef == pytest.approx(2 ** (5 / 3) * 3 * math.sqrt(3))

    def test_paper_box_strictly_inside(self):
        for p in np.geomspace(2, 100, 50):
            c = sl_constants(p)
            r = bst_region(p, 1.0)
            assert c.im_coef < r.im_coef
            corner = complex(c.re_coef, c.im_coef)
            assert abs(corner.imag) < r.im_bound
            assert abs(corner) < r.abs_bound

    def test_membership_predicate(self):
        r = bst_region(2.0, 1.0)
        assert r.contains(0j)
        assert not r.contains(complex(0, r.im_bound + 1e-6))
        assert r.margin(0j) < 0


class TestSLBox:
    def test_zero_norm_degenerates(self):
        box = sl_box(2.0, 0.0)
        assert box.im_half_height == 0.0 and box.re_half_width == 0.0
        assert box.contains(0j)
        assert not box.contains(1e-12j)

    def test_half_height_from_constants(self):
        c = sl_constants(2.0)
        box = sl_box(2.0, 1.0)
        assert box.im_half_height == pytest.approx(c.im_coef)

    def test_power_scaling_law(self):
        p = 3.0
        b1 = sl_box(p, 1.3)
        b2 = sl_box(p, 2.6)
        factor = 2.0 ** (2 * p / (2 * p - 1))
        assert b2.im_half_height == pytest.approx(b1.im_half_height * factor)
        assert b2.re_half_width == pytest.approx(b1.re_half_width * factor)


class TestLpNorm:
    def test_step_closed_form(self):
        q = Potential(kind="step", depth=3.0, width=1.0)
        assert lp_norm(q, 2.0) == pytest.approx(3.0 * 2 ** 0.5)
        assert lp_norm(q, 5.0) == pytest.approx(3.0 * 2 ** 0.2)
        assert lp_norm(q, math.inf) == 3.0

    def test_gaussian_closed_form_and_quadrature(self):
        q = Potential(kind="gaussian", depth=2.0, width=1.0)
        for p in (2.0, 3.5, 7.0):
            closed = lp_norm(q, p)
            assert closed == pytest.approx(2.0 * (math.pi / p) ** (1 / (2 * p)))
            val, _ = quad(lambda x: abs(q.values(x)) ** p, -40, 40)
            assert closed == pytest.approx(val ** (1 / p), rel=1e-8)

    def test_lorentzian_against_quadrature(self):
        q = Potential(kind="lorentzian", depth=1.5, width=2.0)
        for p in (2.0, 4.0):
            val, _ = quad(lambda x: abs(q.values(x)) ** p, -np.inf, np.inf)
            assert lp_norm(q, p) == pytest.approx(val ** (1 / p), rel=1e-8)

    def test_tabulated_segment_exact(self):
        # piecewise linear through a sign change; p = 2 integral by hand:
        # q goes 1 -> -1 over [0, 2]: integral of q^2 = 2/3
        q = Potential(kind="tabulated", table=([0.0, 2.0], [1.0, -1.0]))
        assert lp_norm(q, 2.0) == pytest.approx(math.sqrt(2.0 / 3.0))
        assert lp_norm(q, math.inf) == 1.0

    def test_p_below_two_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(Potential(kind="step", depth=1.0), 1.0)


class TestDiscretize:
    def test_dirichlet_laplacian_spectrum(self):
        disc = discretize(Potential(kind="step", depth=0.0), L=5.0, n=32)
        t_evals = np.sort(np.linalg.eigvalsh(disc.T))
        k = np.arange(1, 33)
        expected = np.sort((2 - 2 * np.cos(k * np.pi / 33)) / disc.h**2)
        np.testing.assert_allclose(t_evals, expected, rtol=1e-10)
        assert np.all(t_evals > 0)
        a_evals = sl_eigenvalues(disc)
        assert np.max(np.abs(a_evals.imag)) < 1e-8 * np.max(np.abs(a_evals))

    def test_grid_symmetric_and_avoids_zero(self):
        disc = discretize(Potential(kind="step", depth=1.0), L=3.0, n=20)
        np.testing.assert_allclose(disc.grid_x, -disc.grid_x[::-1], atol=1e-14)
        assert np.min(np.abs(disc.grid_x)) > disc.h / 4

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            discretize(Potential(kind="step", depth=1.0), L=3.0, n=21)

    def test_parity_matches_dense(self):
        disc = discretize(Potential(kind="step", depth=5.0), L=8.0, n=64)
        assert disc.parity_symmetric
        fast = np.sort_complex(sl_eigenvalues(disc))
        dense = np.sort_complex(sl_eigenvalues(disc, force_dense=True))
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(fast - dense)) < 1e-10 * scale

    def test_even_potential_quadruple_symmetry(self):
        disc = discretize(Potential(kind="gaussian", depth=12.0), L=12.0, n=300)
        evals = sl_eigenvalues(disc)
        scale = np.max(np.abs(evals))
        for lam in evals:
            for target in (np.conj(lam), -lam, -np.conj(lam)):
                assert np.min(np.abs(evals - target)) < 1e-8 * scale

    def test_richardson_second_order(self):
        # smooth potential: eigenvalue error is O(h^2), so the Richardson
        # ratio |l(2h) - l(h/... )| pattern lands near (16-1)/(4-1) = 5
        q = Potential(kind="gaussian", depth=12.0, width=1.0)
        lams = {}
        for n in (500, 1000, 2000):
            disc = discretize(q, L=20.0, n=n)
            ups = [z for z in _nonreal(containment_report(disc, 2.0))
                   if z.imag > 0 and z.real > 0]
            lams[n] = max(ups, key=lambda z: z.real)
        # treat the finest run as reference; n=500 vs n=1000 errors
        ratio = abs(lams[500] - lams[2000]) / abs(lams[1000] - lams[2000])
        assert 3.5 < ratio < 6.5

    def test_banded_layout_matches_dense(self):
        disc = discretize(Potential(kind="step", depth=2.0), L=4.0, n=16)
        main, upper, lower = disc.diagonals
        dense = disc.A
        np.testing.assert_array_equal(dense, np.diag(main) + np.diag(upper, 1)
                                      + np.diag(lower, -1))
        np.testing.assert_array_equal(disc.T, disc.signs[:, None] * dense)


def _nonreal(report):
    """The non-real eigenvalues of a report's table, sorted."""
    return sorted((complex(row["re"], row["im"])
                   for row in report.checks["table"]),
                  key=lambda z: (z.real, z.imag))


class TestNonrealSpectrum:
    def test_zero_potential_empty(self):
        disc = discretize(Potential(kind="step", depth=0.0), L=5.0, n=64)
        report = containment_report(disc, 2.0)
        assert _nonreal(report) == []
        assert report.diagnostics["pairingDefect"] == 0.0

    def test_deep_well_produces_conjugate_pairs(self):
        disc = discretize(Potential(kind="step", depth=5.0), L=12.0, n=400)
        report = containment_report(disc, 2.0)
        nr = _nonreal(report)
        assert nr
        assert len(nr) % 2 == 0
        for z in nr:
            assert any(abs(w - z.conjugate()) < 1e-8 * (1 + abs(z)) for w in nr)
        assert report.diagnostics["pairingDefect"] <= 1e-8

    def test_pairing_defect_above_tolerance_raises(self, monkeypatch):
        # moving one member of a conjugate pair breaks the symmetry the
        # operator guarantees: containment_report raises, as the CLI's
        # numerical failure (exit 4)
        disc = discretize(Potential(kind="step", depth=5.0), L=12.0, n=400)
        evals = sl_eigenvalues(disc)
        k = int(np.argmax(evals.imag))
        moved = evals.copy()
        moved[k] += 1e-3
        defect = 1e-3 / (1.0 + abs(evals[k]))
        monkeypatch.setattr(sturm_liouville, "sl_eigenvalues",
                            lambda d, force_dense=False: moved)
        monkeypatch.setattr(sturm_liouville, "SL_PAIRING_TOL", 2.0 * defect)
        assert containment_report(disc, 2.0).diagnostics[
            "pairingDefect"] == pytest.approx(defect, rel=1e-3)
        monkeypatch.setattr(sturm_liouville, "SL_PAIRING_TOL", 0.5 * defect)
        with pytest.raises(ArithmeticError, match="no conjugate partner"):
            containment_report(disc, 2.0)

    def test_unpaired_eigenvalue_raises(self, monkeypatch):
        disc = discretize(Potential(kind="step", depth=5.0), L=12.0, n=400)
        evals = sl_eigenvalues(disc)
        lone = np.delete(evals, int(np.argmax(evals.imag)))
        monkeypatch.setattr(sturm_liouville, "sl_eigenvalues",
                            lambda d, force_dense=False: lone)
        with pytest.raises(ArithmeticError, match="no conjugate partner"):
            containment_report(disc, 2.0)

    def test_tabulated_run_is_deterministic(self, tmp_path):
        xs = np.linspace(-2, 2, 41)
        qs = -4.0 * np.exp(-xs**2) * (1 + 0.2 * np.sin(3 * xs))
        pot = Potential(kind="tabulated", table=(xs, qs))
        disc1 = discretize(pot, L=10.0, n=200)
        disc2 = discretize(pot, L=10.0, n=200)
        np.testing.assert_array_equal(sl_eigenvalues(disc1),
                                      sl_eigenvalues(disc2))

    def test_asymmetric_potential_falls_back_to_dense(self):
        xs = np.linspace(-2, 2, 31)
        qs = -3.0 * np.exp(-((xs - 0.6) ** 2))  # off-center: parity broken
        pot = Potential(kind="tabulated", table=(xs, qs))
        disc = discretize(pot, L=8.0, n=80)
        assert not disc.parity_symmetric
        evals = np.sort_complex(sl_eigenvalues(disc))
        dense = np.sort_complex(np.linalg.eigvals(disc.A))
        np.testing.assert_allclose(evals, dense, atol=1e-10)
        # conjugate symmetry survives, the parity pairing need not
        scale = np.max(np.abs(evals))
        for lam in evals:
            assert np.min(np.abs(evals - np.conj(lam))) < 1e-8 * scale

    def test_parity_memory_guard(self, monkeypatch):
        # the parity path holds B, C and B C: 6 n^2 bytes
        disc = discretize(Potential(kind="step", depth=5.0), L=14.0, n=400)
        assert disc.parity_symmetric
        monkeypatch.setattr(sturm_liouville, "DENSE_EIG_MAX_BYTES",
                            6 * 400**2 - 1)
        with pytest.raises(ConfigError,
                           match="parity eigenvalues at n = 400 need about 1 MB"):
            sl_eigenvalues(disc)
        with pytest.raises(ConfigError, match="DENSE_EIG_MAX_BYTES"):
            containment_report(disc, 2.0)
        monkeypatch.setattr(sturm_liouville, "DENSE_EIG_MAX_BYTES", 6 * 400**2)
        assert sl_eigenvalues(disc).size == 400


class TestSignTypes:
    @pytest.mark.parametrize("pot", [
        Potential(kind="step", depth=5.0),
        Potential(kind="gaussian", depth=12.0),
        Potential(kind="lorentzian", depth=8.0, width=0.7),
        Potential(kind="tabulated", table=(
            np.linspace(-2, 2, 31),
            -6.0 * np.exp(-((np.linspace(-2, 2, 31) - 0.6) ** 2)))),
    ], ids=["step", "gaussian", "lorentzian", "tabulated-off-centre"])
    def test_inertia_jump_matches_eigenvector_oracle(self, pot):
        # oracle: the sign of (S v, v) for the eigenvectors of dense eig
        disc = discretize(pot, L=8.0, n=300)
        evals, vecs = np.linalg.eig(disc.A)
        real = np.flatnonzero(np.abs(evals.imag) <= 1e-8 * (1 + np.abs(evals)))
        real = real[np.argsort(evals[real].real)]
        assert real.size > 250
        oracle = [np.sign(np.vdot(vecs[:, i], disc.signs * vecs[:, i]).real)
                  for i in real]
        jumps = sl_sign_types(disc, evals[real].real)
        np.testing.assert_array_equal(jumps, oracle)
        assert set(jumps) == {-1, 1}

    def test_no_real_eigenvalues(self):
        disc = discretize(Potential(kind="step", depth=5.0), L=6.0, n=64)
        assert sl_sign_types(disc, []).size == 0


def _off_centre_well(centre, depth):
    xs = np.linspace(-4.0, 4.0, 81)
    return Potential(kind="tabulated",
                     table=(xs, -depth * np.exp(-((xs - centre) ** 2))))


def _dense_oracle(disc, tol=1e-8):
    """kappa, the non-real eigenvalues with Im > 0, and the real eigenvalues
    of negative T-type with their inertia jumps, all from dense eig."""
    evals = np.linalg.eigvals(disc.A)
    nonreal = np.abs(evals.imag) > tol * (1.0 + np.abs(evals))
    real = np.sort(evals[~nonreal].real)
    jumps = sl_sign_types(disc, real)
    negative = real * jumps < 0
    kappa = int(np.sum(np.linalg.eigvalsh(disc.T) < 0))
    return (kappa, np.sort_complex(evals[nonreal & (evals.imag > 0)]),
            real[negative], jumps[negative])


class TestCertifiedSpectrum:
    @pytest.mark.parametrize("pot", [
        Potential(kind="step", depth=5.0),
        Potential(kind="gaussian", depth=12.0),
        Potential(kind="lorentzian", depth=8.0, width=0.7),
        _off_centre_well(0.6, 10.0),
        _off_centre_well(2.0, 6.0),
    ], ids=["step", "gaussian", "lorentzian", "tabulated-off-centre",
            "tabulated-negative-type"])
    def test_matches_dense_oracle(self, pot):
        disc = discretize(pot, L=15.0, n=1000)
        spec = sl_certified_spectrum(disc)
        assert spec.path == "certified", spec.reason
        kappa, upper, neg_real, neg_jumps = _dense_oracle(disc)
        pairs = spec.nonreal_pairs
        assert spec.kappa == kappa == pairs + len(spec.jumps)
        assert pairs == upper.size
        for w in upper:  # sorting would not pair values with Re ~ 0
            assert np.min(np.abs(spec.eigenvalues[:pairs] - w)) <= 1e-10 * abs(w)
        np.testing.assert_allclose(spec.eigenvalues[pairs:].real, neg_real,
                                   rtol=1e-10, atol=0.0)
        np.testing.assert_array_equal(spec.jumps, neg_jumps)
        assert spec.residual <= sturm_liouville.SL_RESIDUAL_TOL

    def test_negative_type_real_eigenvalue(self):
        # the off-centre well deep enough for W = 1: a real eigenvalue
        # whose inertia jump has the sign opposite to its own
        disc = discretize(_off_centre_well(2.0, 6.0), L=15.0, n=1000)
        spec = sl_certified_spectrum(disc)
        assert spec.jumps == (1,)
        lam = spec.eigenvalues[-1]
        assert lam.imag == 0.0 and lam.real < 0.0
        rep = containment_report(disc, 2.0)
        assert rep.checks["spectrum"] == {
            "path": "certified", "kappa": 2, "nonrealPairs": 1,
            "negativeTypeReal": 1, "real": 998}
        assert rep.checks["signType"] == {"tested": 1, "failures": 0,
                                          "indeterminate": 0}
        assert [r.kind for r in rep.eigenvalues] == ["nonreal", "real"]
        assert rep.nonreal_count == 2 == len(rep.checks["table"])
        assert rep.verified

    def test_zero_potential_needs_no_solve(self):
        xs = np.linspace(-1.0, 1.0, 5)
        disc = discretize(Potential(kind="tabulated", table=(xs, 0 * xs)),
                          L=5.0, n=64)
        spec = sl_certified_spectrum(disc)
        assert (spec.path, spec.kappa, spec.eigenvalues.size) == ("certified", 0, 0)

    def test_count_that_does_not_close_falls_back(self, monkeypatch):
        # claiming one negative eigenvalue of T too many: the Ritz problem
        # still finds kappa - 1 targets, so the count cannot close, and the
        # dense eigenvalues are reduced to those of non-positive type
        disc = discretize(_off_centre_well(0.6, 10.0), L=15.0, n=400)
        kappa, upper, neg_real, neg_jumps = _dense_oracle(disc)
        counts = sturm_liouville._sturm_counts
        monkeypatch.setattr(sturm_liouville, "_sturm_counts",
                            lambda d, pts: (counts(d, pts)[0] + 1,
                                            counts(d, pts)[1]))
        spec = sl_certified_spectrum(disc)
        assert spec.path == "dense"
        assert spec.reason.startswith("count does not close")
        assert (spec.kappa, spec.nonreal_pairs) == (kappa + 1, upper.size)
        np.testing.assert_array_equal(spec.eigenvalues,
                                      np.concatenate((upper, neg_real)))
        np.testing.assert_array_equal(spec.jumps, neg_jumps)
        rep = containment_report(disc, 2.0)
        assert rep.checks["spectrum"] == {
            "path": "dense", "kappa": kappa + 1, "nonrealPairs": upper.size,
            "negativeTypeReal": neg_real.size, "real": 400 - 2 * upper.size}
        assert rep.diagnostics["path"] == "dense"
        assert rep.diagnostics["fallbackReason"] == spec.reason
        assert rep.verified

    def test_dense_memory_guard(self, monkeypatch):
        disc = discretize(_off_centre_well(0.6, 10.0), L=15.0, n=400)
        monkeypatch.setattr(sturm_liouville, "DENSE_EIG_MAX_BYTES",
                            16 * 400**2 - 1)
        with pytest.raises(ConfigError, match="n = 400 need about 3 MB"):
            sl_eigenvalues(disc, force_dense=True)
        # the fallback is guarded too
        monkeypatch.setattr(sturm_liouville, "SL_MAX_ITERATIONS", 1)
        with pytest.raises(ConfigError, match="n = 400"):
            sl_certified_spectrum(disc)

    def test_forced_fallback_matches_certified_report(self, monkeypatch):
        # the dense fallback reduces its n eigenvalues to the certified
        # report's kappa, W = 1 included; only the path differs
        disc = discretize(_off_centre_well(2.0, 6.0), L=15.0, n=1000)
        certified = containment_report(disc, 2.0)
        monkeypatch.setattr(sturm_liouville, "SL_MAX_ITERATIONS", 1)
        dense = containment_report(disc, 2.0)
        assert dense.diagnostics["fallbackReason"].startswith("not converged")
        assert dense.checks["spectrum"] == dict(certified.checks["spectrum"],
                                                path="dense")
        assert dense.checks["signType"] == certified.checks["signType"]
        assert ([(r.kind, r.sign) for r in dense.eigenvalues]
                == [(r.kind, r.sign) for r in certified.eigenvalues]
                == [("nonreal", None), ("real", 1.0)])
        np.testing.assert_allclose([r.value for r in dense.eigenvalues],
                                   [r.value for r in certified.eigenvalues],
                                   rtol=1e-10, atol=0.0)
        assert dense.verified and certified.verified

    def test_even_well_reports_the_parity_count(self):
        disc = discretize(Potential(kind="step", depth=5.0), L=12.0, n=400)
        spectrum = containment_report(disc, 2.0).checks["spectrum"]
        assert spectrum["path"] == "parity"
        assert spectrum["kappa"] == (spectrum["nonrealPairs"]
                                     + spectrum["negativeTypeReal"]) > 0


class TestSturmCounts:
    @staticmethod
    def _points(disc, which, monkeypatch):
        if which == "random":
            rng = np.random.default_rng(13)
            reach = float(np.max(np.abs(disc.diagonals[0])))
            return np.concatenate((rng.uniform(-reach, reach, 10),
                                   rng.uniform(-10.0, 10.0, 10)))
        if which == "brackets":
            # the certified solver counts at 0, then at the
            # +-SL_BRACKET_WIDTH ends around each real target: keep those
            asked, counts = [], sturm_liouville._sturm_counts
            with monkeypatch.context() as patch:
                patch.setattr(sturm_liouville, "_sturm_counts", lambda d, pts: (
                    asked.append(np.asarray(pts, dtype=float)) or counts(d, pts)))
                spec = sl_certified_spectrum(disc)
            assert spec.path == "certified", spec.reason
            assert asked[-1].size == 2 * len(spec.jumps) > 0
            return asked[-1]
        # the first pivot is d_0 - s_0 mu, exactly 0 at mu = A[0, 0]
        return disc.diagonals[0][:1]

    @pytest.mark.parametrize("which", ["random", "brackets", "zero-pivot"])
    @pytest.mark.parametrize("n", [400, 3000])
    def test_few_point_path_matches_vectorized(self, monkeypatch, n, which):
        # the point-by-point loop on Python floats rounds as the loop
        # vectorized over the points, so both give the same counts and flags
        disc = discretize(_off_centre_well(2.0, 6.0), L=15.0, n=n)
        points = self._points(disc, which, monkeypatch)
        assert points.size <= sturm_liouville._STURM_SCALAR_POINTS
        few = sturm_liouville._sturm_counts(disc, points)
        monkeypatch.setattr(sturm_liouville, "_STURM_SCALAR_POINTS", -1)
        vectorized = sturm_liouville._sturm_counts(disc, points)
        for got, want in zip(few, vectorized):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert few[1].tolist() == [which == "zero-pivot"] * points.size
        if n == 400:
            pencil = disc.T
            dense = [int(np.sum(np.linalg.eigvalsh(
                pencil - mu * np.diag(disc.signs)) < 0)) for mu in points]
            assert few[0].tolist() == dense


class TestContainmentReport:
    def test_zero_potential_vacuous(self):
        disc = discretize(Potential(kind="step", depth=0.0), L=5.0, n=64)
        rep = containment_report(disc, 2.0)
        assert rep.nonreal_count == 0
        assert rep.verified

    def test_step_well_pipeline(self):
        disc = discretize(Potential(kind="step", depth=5.0), L=14.0, n=700)
        rep = containment_report(disc, 2.0)
        assert rep.nonreal_count >= 4
        assert rep.verified, (rep.containment_failures, rep.sign_type_failures)
        table = rep.checks["table"]
        assert len(table) == rep.nonreal_count
        for row in table:
            assert row["in_paper_box"] and row["in_bst"]
            assert row["margin_paper"] < 0 and row["margin_bst"] < 0

    def test_missing_eigenvalue_is_indeterminate_with_reason(self, monkeypatch):
        # Drop the second-largest real eigenvalue: the inertia count then
        # jumps by 2 across the interval of exactly one of its neighbours,
        # which is beyond the box and so comes back undecided.
        disc = discretize(Potential(kind="step", depth=5.0), L=6.0, n=200)
        full = containment_report(disc, 2.0)
        evals = sl_eigenvalues(disc)
        real = np.flatnonzero(np.abs(evals.imag) <= 1e-8 * (1 + np.abs(evals)))
        dropped = real[np.argsort(evals[real].real)[-2]]
        assert evals[dropped].real > full.bounds["reHalfWidth"] + 1.0
        monkeypatch.setattr(sturm_liouville, "sl_eigenvalues",
                            lambda disc: np.delete(evals, dropped))
        rep = containment_report(disc, 2.0)
        assert [e["reason"] for e in rep.indeterminate] == ["net inertia jump 2"]
        assert rep.checks["signType"] == {
            "tested": full.checks["signType"]["tested"],
            "failures": 0, "indeterminate": 1}
        # the dropped eigenvalue is of positive type: the counts stand
        assert rep.checks["spectrum"] == full.checks["spectrum"]
        assert rep.verified

    def test_sign_checks_ran(self):
        # the parity path tests the W real eigenvalues of negative type,
        # which kappa = P + W certifies; every other real one beyond the
        # box has sign type sgn(lam), as its own inertia jump confirms
        disc = discretize(Potential(kind="step", depth=5.0), L=14.0, n=700)
        rep = containment_report(disc, 2.0)
        spectrum = rep.checks["spectrum"]
        assert spectrum["kappa"] == (spectrum["nonrealPairs"]
                                     + spectrum["negativeTypeReal"])
        signs = [r.sign for r in rep.eigenvalues if r.kind == "real"]
        assert (rep.checks["signType"]["tested"] == len(signs)
                == spectrum["negativeTypeReal"])
        evals = sl_eigenvalues(disc)
        real = np.sort(evals[np.abs(evals.imag)
                             <= 1e-8 * (1 + np.abs(evals))].real)
        beyond = np.abs(real) > rep.bounds["reHalfWidth"] + rep.bounds["slack"]
        assert np.sum(beyond) > 100
        jumps = sl_sign_types(disc, real)[beyond]
        np.testing.assert_array_equal(jumps, np.sign(real[beyond]))
        assert set(jumps) == {-1, 1}
        assert not rep.indeterminate
        assert not rep.sign_type_failures


class TestLemmaChecker:
    def test_zero_potential_trivial(self):
        f = ProbeFunction.gaussian(alpha=1.0)
        g = Potential(kind="step", depth=0.0)
        out = lemma_ls_check(f, g, p=2.0, r=1.0)
        assert out["lhs"] == pytest.approx(0.0, abs=1e-12)
        assert out["holds"]

    def test_worked_example_closed_form(self):
        # f = exp(-pi x^2), g = indicator of [0, 1], p = 2, r = 1
        f = ProbeFunction.gaussian(alpha=math.pi)
        g = Potential(kind="tabulated", table=([0.0, 1.0], [1.0, 1.0]))
        out = lemma_ls_check(f, g, p=2.0, r=1.0)
        lhs_expected, _ = quad(lambda x: math.exp(-2 * math.pi * x * x), 0, 1)
        lhs_expected = math.sqrt(lhs_expected)
        # norm of f'' for alpha = pi: sqrt(3) * pi * 2^(-1/4)
        fpp_norm = math.sqrt(3) * math.pi * 2 ** -0.25
        rhs_expected = math.sqrt(2) * (2 ** -0.25
                                       + fpp_norm / (4 * math.sqrt(3) * math.pi**2))
        assert out["lhs"] == pytest.approx(lhs_expected, rel=1e-8)
        assert out["rhs"] == pytest.approx(rhs_expected, rel=1e-8)
        assert out["holds"]

    def test_r_sweep_holds(self):
        rng = np.random.default_rng(0)
        fams = [ProbeFunction.gaussian(alpha=a, center=c)
                for a, c in [(1.0, 0.0), (0.3, 1.0), (2.5, -0.5)]]
        fams.append(ProbeFunction.hermite(2))
        pots = [Potential(kind="step", depth=2.0),
                Potential(kind="gaussian", depth=1.0, width=2.0)]
        for r in np.geomspace(1e-2, 1e2, 9):
            f = fams[rng.integers(len(fams))]
            g = pots[rng.integers(len(pots))]
            p = float(rng.choice([2.0, 3.0, 10.0]))
            out = lemma_ls_check(f, g, p=p, r=float(r))
            assert out["holds"], (f.label, g.kind, p, r, out)

    def test_p_infinity(self):
        f = ProbeFunction.gaussian(alpha=1.0)
        g = Potential(kind="step", depth=2.0)
        out = lemma_ls_check(f, g, p=math.inf, r=3.0)
        assert out["holds"]
        # rhs = norm(f) * sup|g| exactly at p = inf
        norm_f = (math.pi / 2) ** 0.25
        assert out["rhs"] == pytest.approx(2.0 * norm_f, rel=1e-8)

    def test_probe_norms_computed_once(self, monkeypatch):
        f = ProbeFunction.gaussian(alpha=0.7, center=0.3)
        g = Potential(kind="gaussian", depth=1.0, width=2.0)
        first = lemma_ls_check(f, g, p=3.0, r=0.5)
        calls = []

        def counting_quad(*args, **kwargs):
            calls.append(1)
            return quad(*args, **kwargs)

        monkeypatch.setattr(sturm_liouville, "quad", counting_quad)
        assert lemma_ls_check(f, g, p=3.0, r=0.5) == first
        assert len(calls) == 0  # both norms and the left side are cached
        assert f.norm == sturm_liouville._l2_norm(f.f, f.window)
        assert f.fpp_norm == sturm_liouville._l2_norm(f.fpp, f.window)

    @staticmethod
    def _count_quad(monkeypatch):
        calls = []

        def counting_quad(*args, **kwargs):
            calls.append(1)
            return quad(*args, **kwargs)

        monkeypatch.setattr(sturm_liouville, "quad", counting_quad)
        return calls

    def test_left_side_once_per_potential(self, monkeypatch):
        f = ProbeFunction.hermite(2)
        g = Potential(kind="step", depth=2.0, width=0.5)
        assert f.norm > 0 and f.fpp_norm > 0  # warm the norm caches
        calls = self._count_quad(monkeypatch)
        for r in (0.1, 1.0, 3.0, 20.0):
            for p in (2.0, 3.0, 10.0, math.inf):
                lemma_ls_check(f, g, p=p, r=r)
        assert len(calls) == 1
        lemma_ls_check(f, Potential(kind="gaussian", depth=1.0), p=2.0, r=1.0)
        assert len(calls) == 2
        # an equal-valued potential is a different object with the same key
        lemma_ls_check(f, Potential(kind="step", depth=2, width=0.5),
                       p=3.0, r=0.7)
        assert len(calls) == 2

    def test_product_norm_matches_direct_quadrature(self):
        f = ProbeFunction.gaussian(alpha=0.7, center=0.3)
        for g in (Potential(kind="lorentzian", depth=1.5, width=0.8),
                  Potential(kind="tabulated",
                            table=([-3.0, -0.5, 2.0], [1.0, -2.0, 0.5]))):
            g_window = (max(np.max(np.abs(g.table[0])), 1.0)
                        if g.kind == "tabulated" else 30.0 * g.width)
            window = max(f.window, g_window)
            val, _ = quad(lambda x: abs(f.f(x) * g.values(x)) ** 2,
                          -window, window, limit=800, epsabs=0.0,
                          epsrel=1e-12, points=None)
            assert f.product_norm(g) == math.sqrt(val)
            assert lemma_ls_check(f, g, p=2.0, r=1.0)["lhs"] == math.sqrt(val)

    def test_failed_quadrature_is_not_cached(self, monkeypatch):
        f = ProbeFunction.gaussian(alpha=1.0)
        g = Potential(kind="step", depth=1.0)
        monkeypatch.setattr(sturm_liouville, "quad",
                            lambda *args, **kwargs: (1.0, 1e-3))
        for _ in range(2):
            with pytest.raises(sturm_liouville.QuadratureError, match="lhs"):
                f.product_norm(g)
        monkeypatch.setattr(sturm_liouville, "quad", quad)
        assert f.product_norm(g) > 0

    def test_memo_leaves_probe_identity_alone(self):
        f = ProbeFunction.hermite(1)
        before = (hash(f), repr(f))
        f.product_norm(Potential(kind="step"))
        assert (hash(f), repr(f)) == before
        assert "_product_norms" not in repr(f)
        assert f == ProbeFunction(label=f.label, f=f.f, fpp=f.fpp,
                                  window=f.window)

    def test_criterion_08_sweep_one_quadrature_per_pair(self, monkeypatch):
        # criterion 08's configuration: one left-side quadrature per distinct
        # (probe, potential) pair, none per radius or exponent
        rng = np.random.default_rng(808)
        functions = [ProbeFunction.gaussian(alpha=a, center=c)
                     for a, c in [(0.5, 0.0), (1.0, 0.7), (2.0, -1.2),
                                  (3.5, 0.2)]]
        functions += [ProbeFunction.hermite(k) for k in (0, 1, 2, 3)]
        potentials = [Potential(kind="step", depth=d, width=w)
                      for d, w in [(1.0, 1.0), (4.0, 0.5)]]
        potentials += [Potential(kind="gaussian", depth=2.0, width=1.5),
                       Potential(kind="lorentzian", depth=1.0, width=1.0)]
        pairs = [(functions[rng.integers(len(functions))],
                  potentials[rng.integers(len(potentials))])
                 for _ in range(20)]
        for f in functions:
            assert f.norm > 0 and f.fpp_norm > 0  # warm the norm caches
        calls = self._count_quad(monkeypatch)
        checks = 0
        for f, g in pairs:
            for r in np.geomspace(1e-2, 1e2, 20):
                for p in (2.0, 3.0, 10.0, 1e3):
                    assert lemma_ls_check(f, g, p=p, r=float(r))["holds"]
                    checks += 1
        assert checks == 1600
        assert len(calls) == len({(f.label, g) for f, g in pairs})

    def test_derivatives_are_consistent(self):
        # finite differences validate the declared second derivatives
        for tf in (ProbeFunction.gaussian(alpha=0.7, center=0.3),
                   ProbeFunction.hermite(3)):
            xs = np.linspace(-2, 2, 9)
            h = 1e-5
            fd = (tf.f(xs + h) - 2 * tf.f(xs) + tf.f(xs - h)) / h**2
            np.testing.assert_allclose(tf.fpp(xs), fd, rtol=1e-4, atol=1e-4)


class TestTau0HilbertForm:
    def test_indicator_matches_closed_form(self):
        f1, f2, support = indicator_probe()
        val = tau0_hilbert_form(f1, f2, support)
        expected = 1 + (2 / math.pi) * (10 * math.log(2) - 6 * math.log(3))
        assert val == pytest.approx(expected, abs=1e-6)

    def test_single_component_stays_below_three(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rng.uniform(0.5, 3.0)
            f1 = lambda x, a=a: np.exp(-a * x)
            val = tau0_hilbert_form(f1, None, (0.01, 50.0))
            assert val <= 3.0 + 1e-4

    def test_upper_bound_for_extremizer_family(self):
        for x_max in (1e2, 1e4):
            f1, f2, support = extremizer_probe(x_max)
            val = tau0_hilbert_form(f1, f2, support)
            assert val <= TAU0_UPPER_BOUND + 1e-4

    def test_extremizer_grows_with_truncation(self):
        vals = []
        for x_max in (1e2, 1e3, 1e4):
            f1, f2, support = extremizer_probe(x_max)
            vals.append(tau0_hilbert_form(f1, f2, support))
        assert vals[0] < vals[1] < vals[2]

    def test_bad_support_rejected(self):
        f1, f2, _ = indicator_probe()
        with pytest.raises(ValueError):
            tau0_hilbert_form(f1, f2, (0.0, 2.0))

    def test_zero_probe_rejected(self):
        with pytest.raises(ValueError):
            tau0_hilbert_form(lambda x: np.zeros_like(x), None, (1.0, 2.0))


class TestLazyImports:
    def test_import_loads_no_quadrature_module(self):
        # scipy.integrate, scipy.special, scipy.linalg and mpmath load on
        # first use only
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = ("import sys, kreinspec; print(sorted(name for name in "
                 "('scipy.integrate', 'scipy.special', 'scipy.linalg', "
                 "'mpmath') if name in sys.modules))")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, timeout=120, check=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.stdout.strip() == "[]"

    def test_quad_forwards_to_scipy(self):
        assert sturm_liouville.quad(math.cos, 0.0, 1.0) == quad(math.cos, 0.0, 1.0)
