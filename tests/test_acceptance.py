"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with its measured quantities.  Run with ``pytest -v -s``.
"""

import math
import time

import numpy as np
import pytest

from kreinspec.geometry import (
    RelBound,
    disk_region_membership,
    hull_tangency,
    phi,
    phi_extrema,
    tmain_regions,
)
from kreinspec.operators import KreinPerturbationProblem, j0_quadrature, \
    spectral_projections
from kreinspec.sturm_liouville import (
    Potential,
    ProbeFunction,
    bst_region,
    containment_report,
    discretize,
    extremizer_probe,
    indicator_probe,
    lemma_ls_check,
    sl_constants,
    tau0_hilbert_form,
)
from kreinspec.verification import random_block_operator, random_krein_problem, \
    trial_seeds, verify_block_theorem, verify_tmain

SQRT2 = math.sqrt(2.0)


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")
    assert ok, detail


def test_criterion_01_constants_limits():
    t0 = time.time()
    c = sl_constants(1e6)
    elapsed = time.time() - t0
    im_err = abs(c.im_coef - 3.414214)
    hd_err = abs(c.half_diag - 7.630335)
    ok = im_err < 1e-2 and hd_err < 2e-2 and elapsed < 1.0
    _report(1, ok,
            f"imCoef(1e6)={c.im_coef:.6f} (|d|={im_err:.2e}<1e-2), "
            f"halfDiag={c.half_diag:.6f} (|d|={hd_err:.2e}<2e-2), "
            f"runtime {elapsed * 1e3:.0f}ms < 1s")


def test_criterion_02_competitor_limits():
    r = bst_region(1e6)
    im_err = abs(r.im_coef - 10.3923)
    abs_err = abs(r.abs_coef - 14.8923)
    ok = im_err < 1e-2 and abs_err < 1e-2
    _report(2, ok,
            f"bst imCoef(1e6)={r.im_coef:.5f} (|d|={im_err:.2e}), "
            f"absCoef={r.abs_coef:.5f} (|d|={abs_err:.2e}), both < 1e-2")


def test_criterion_03_strict_containment():
    exceptions = 0
    for p in np.geomspace(2.0, 100.0, 200):
        c = sl_constants(float(p))
        r = bst_region(float(p), 1.0)
        corner = complex(c.re_coef, c.im_coef)
        if not (c.im_coef < r.im_coef
                and abs(corner.imag) < r.im_bound
                and abs(corner) < r.abs_bound):
            exceptions += 1
    _report(3, exceptions == 0,
            f"200 log-spaced p in [2,100]: {exceptions} containment exceptions")


@pytest.mark.slow
def test_criterion_04_block_matrix_suite():
    t0 = time.time()
    failures = 0
    nonreal = 0
    rejected = 0
    for seed in trial_seeds(42, 500):
        block = random_block_operator(seed, max_dim=20)
        report = verify_block_theorem(block, lambda_samples=1000, seed=seed)
        nonreal += report.nonreal_count
        if max(report.bounds["b_minus"], report.bounds["b_plus"]) >= 1.0:
            rejected += 1
            continue
        if not report.verified:
            failures += 1
            print(f"  offending seed: {seed}")
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 300.0
    _report(4, ok,
            f"500 instances (seed 42, dims<=20, 1e3 lambda samples each): "
            f"{failures} failures, {rejected} rejected, {nonreal} non-real "
            f"eigenvalues, runtime {elapsed:.0f}s < 300s")


def test_criterion_05_perturbation_suite():
    failures = 0
    real_branch = 0
    enclosure_branch = 0
    better_checked = 0
    bounded_v_bad = 0
    for seed in trial_seeds(42, 200):
        problem = random_krein_problem(seed, max_dim=20)
        report = verify_tmain(problem)
        if not report.verified:
            failures += 1
            print(f"  offending seed: {seed}")
        if report.checks["branch"] == "jv-nonnegative":
            real_branch += 1
            evals = np.linalg.eigvals(problem.a0 + problem.v)
            scale = np.linalg.norm(problem.a0 + problem.v, 2)
            if np.max(np.abs(evals.imag)) >= 1e-8 * scale:
                failures += 1
                print(f"  non-real spectrum at definite seed {seed}")
        else:
            enclosure_branch += 1
            if report.checks["betterApplies"]:
                better_checked += 1
            # bounded-V specialization at b = 0 on the same instance
            tau = report.bounds["tau"]
            v_low = report.bounds["v"]
            v_norm = float(np.linalg.norm(problem.v, 2))
            if v_norm > 0:
                a0_coeff = (1 + tau) * tau * v_norm**2 / 2.0
                out = tmain_regions(a0_coeff, 0.0, tau, v_low)
                radius = math.sqrt(out["better"].radius_scale * a0_coeff)
                r_expected = (1 + tau) * v_norm / 2.0
                d_expected = -(1 + tau) * v_low / 2.0
                if (abs(radius - r_expected) > 1e-10 * (1 + r_expected)
                        or abs(out["gamma"] - d_expected)
                        > 1e-10 * (1 + d_expected)):
                    bounded_v_bad += 1
    ok = failures == 0 and bounded_v_bad == 0 and real_branch > 0 \
        and enclosure_branch > 0
    _report(5, ok,
            f"200 instances: {failures} failures "
            f"({real_branch} real-spectrum branch, {enclosure_branch} "
            f"enclosure branch, {better_checked} with the sharper region), "
            f"{bounded_v_bad} bounded-V reduction mismatches")


def test_criterion_06_geometry_identities():
    rng = np.random.default_rng(606)
    bad_identity = 0
    for _ in range(10000):
        a = rng.uniform(0.0, 10.0)
        b = rng.uniform(0.01, 0.99)
        bound = RelBound(a, b)
        lam = complex(rng.uniform(0.01, 5.0) * rng.choice([-1.0, 1.0]),
                      rng.uniform(0.01, 5.0) * rng.choice([-1.0, 1.0]))
        prof = phi_extrema(bound, lam)
        if abs(phi(bound, lam, prof.m_lambda) - b) > 1e-10 * (1 + b):
            bad_identity += 1
        t0 = rng.uniform(-10.0, 10.0)
        t1 = hull_tangency(bound, t0)
        hull_sq = a + b / (1 - b) * t1 * t1
        disk_sq = a + b * t0 * t0 - (t1 - t0) ** 2
        if abs(hull_sq - disk_sq) > 1e-10 * (1 + abs(hull_sq)):
            bad_identity += 1

    from test_geometry import _random_region, oracle_membership
    disagreements = 0
    undecided = 0
    for _ in range(10000):
        region = _random_region(rng)
        span = region.centers.max_abs + 3 * math.sqrt(
            region.radius_scale * (region.bound.a + 1)) + 2
        lam = complex(rng.uniform(-span, span), rng.uniform(-span, span))
        mem = disk_region_membership(region, lam)
        oracle = oracle_membership(region, lam)
        if oracle is None:
            undecided += 1
            if abs(mem.margin) > 1e-2:
                disagreements += 1
            continue
        if mem.inside != oracle:
            disagreements += 1
    ok = bad_identity == 0 and disagreements == 0
    _report(6, ok,
            f"1e4 identity draws: {bad_identity} violations at 1e-10; "
            f"1e4 membership oracle draws: {disagreements} disagreements "
            f"({undecided} boundary-close cases checked by margin size)")


def test_criterion_07_sturm_liouville_sweep():
    t0 = time.time()
    failures = 0
    symmetry_bad = 0
    nonreal_total = 0
    reference = None
    for depth in range(1, 41):
        disc = discretize(Potential(kind="step", depth=float(depth)),
                          L=30.0, n=4000)
        report = containment_report(disc, 2.0)
        nonreal_total += report.nonreal_count
        if not report.verified:
            failures += 1
            print(f"  depth {depth}: {report.containment_failures[:2]}"
                  f"{report.sign_type_failures[:2]}")
        values = [complex(r["re"], r["im"]) for r in report.checks["table"]]
        for z in values:
            for target in (z.conjugate(), -z, -z.conjugate()):
                if not any(abs(w - target) <= 1e-8 * (1 + abs(z))
                           for w in values):
                    symmetry_bad += 1
        if depth == 5:
            reference = report.checks["table"]

    # refinement stability at the representative depth
    disc_fine = discretize(Potential(kind="step", depth=5.0), L=45.0, n=9000)
    fine = containment_report(disc_fine, 2.0).checks["table"]
    margin_drift = 0.0
    margin_grew = 0
    assert reference and len(fine) == len(reference)
    for row in reference:
        z = complex(row["re"], row["im"])
        partner = min(fine, key=lambda r: abs(complex(r["re"], r["im"]) - z))
        for key in ("margin_paper", "margin_bst"):
            denom = max(abs(row[key]), 1e-12)
            margin_drift = max(margin_drift,
                               abs(partner[key] - row[key]) / denom)
            if partner[key] > row[key] + 1e-9 * denom:
                margin_grew += 1
    elapsed = time.time() - t0
    ok = (failures == 0 and symmetry_bad == 0 and margin_drift < 0.01
          and margin_grew == 0 and elapsed < 600.0)
    _report(7, ok,
            f"depths 1..40 (p=2, L=30, n=4000): {failures} containment "
            f"failures, {nonreal_total} non-real eigenvalues, "
            f"{symmetry_bad} symmetry breaches; refinement (L=45, n=9000) "
            f"margin drift {margin_drift * 100:.3f}% < 1% "
            f"({margin_grew} margins grew); runtime {elapsed:.0f}s < 600s")


def test_criterion_08_lemma_sweep():
    rng = np.random.default_rng(808)
    functions = [ProbeFunction.gaussian(alpha=a, center=c)
                 for a, c in [(0.5, 0.0), (1.0, 0.7), (2.0, -1.2), (3.5, 0.2)]]
    functions += [ProbeFunction.hermite(k) for k in (0, 1, 2, 3)]
    potentials = [Potential(kind="step", depth=d, width=w)
                  for d, w in [(1.0, 1.0), (4.0, 0.5)]]
    potentials += [Potential(kind="gaussian", depth=2.0, width=1.5),
                   Potential(kind="lorentzian", depth=1.0, width=1.0)]
    pairs = [(functions[rng.integers(len(functions))],
              potentials[rng.integers(len(potentials))]) for _ in range(20)]
    r_values = np.geomspace(1e-2, 1e2, 20)
    violations = 0
    checks = 0
    for f, g in pairs:
        for r in r_values:
            for p in (2.0, 3.0, 10.0, 1e3):
                out = lemma_ls_check(f, g, p=p, r=float(r))
                checks += 1
                if not out["holds"]:
                    violations += 1
    _report(8, violations == 0,
            f"{checks} inequality checks (20 pairs x 20 radii x 4 exponents "
            f"incl. the p=1e3 proxy): {violations} violations at slack 1e-6")


def test_criterion_09_tau0_bounds():
    probes = [("indicator",) + indicator_probe()]
    for x_max in (1e2, 1e3, 1e4, 1e6):
        probes.append((f"extremizer(X={x_max:g})",) + extremizer_probe(x_max))
    probes.append(("decaying", lambda x: np.exp(-x), None, (0.01, 60.0)))
    over_bound = 0
    extremizer_value = None
    indicator_value = None
    for name, f1, f2, support in probes:
        value = tau0_hilbert_form(f1, f2, support)
        if value > 5.8285:
            over_bound += 1
        if name == "extremizer(X=1e+06)":
            extremizer_value = value
        if name == "indicator":
            indicator_value = value
    closed_form = 1 + (2 / math.pi) * (10 * math.log(2) - 6 * math.log(3))
    indicator_ok = abs(indicator_value - closed_form) <= 1e-6
    ok = over_bound == 0 and extremizer_value >= 4.5 and indicator_ok
    _report(9, ok,
            f"{len(probes)} probes all <= 5.8285 ({over_bound} over); "
            f"extremizer X=1e6 gives {extremizer_value:.4f} >= 4.5; "
            f"indicator {indicator_value:.10f} matches "
            f"{closed_form:.10f} to 1e-6")


def test_criterion_10_j0_quadrature_consistency():
    worst = 0.0
    for seed in trial_seeds(1010, 20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        sig = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
        q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        p = (q * rng.uniform(0.4, 2.5, size=n)) @ q.conj().T
        a0 = sig[:, None] * 0.5 * (p + p.conj().T)
        problem = KreinPerturbationProblem(signature=sig, a0=a0,
                                           v=np.zeros((n, n)))
        expected = spectral_projections(problem).j0
        approx = j0_quadrature(a0)
        worst = max(worst, float(np.max(np.abs(approx - expected))))
    _report(10, worst < 1e-4,
            f"20 random instances: max entrywise deviation {worst:.2e} < 1e-4")
