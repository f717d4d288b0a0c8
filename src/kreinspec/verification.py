"""Numerical verification harnesses for the enclosure statements.

Each harness builds (or receives) a finite-dimensional instance, computes
its spectrum, and checks the advertised containments, sign types, and
resolvent bounds, collecting any violation into a ``VerificationReport``.
The statements under test are theorems, so a non-empty failure list
signals an implementation or tolerance bug, never "an unlucky instance".
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import DiskFamilyRegion, RelBound, SpectrumModel, \
    disk_region_membership, region_to_json, smallerb_threshold, tmain_regions
from .operators import BlockOperator, KreinPerturbationProblem, assemble_block, \
    block_signature, min_relative_bound, resolvent_norm, spectral_projections

__all__ = [
    "HypothesisUnmetError",
    "VerificationReport",
    "EigenRecord",
    "Spectrum",
    "classify_spectrum",
    "fit_relative_bound",
    "region_area",
    "random_block_operator",
    "random_krein_problem",
    "verify_block_theorem",
    "verify_tmain",
    "resolvent_order_check",
    "trial_seeds",
]

# b values over which the harnesses fit relative bounds: 0, 0.01, ..., 0.99
DEFAULT_B_GRID = tuple(round(0.01 * k, 2) for k in range(100))
# resolvent_order_check's coarser grid: 0.05, 0.10, ..., 0.95
ORDER_B_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))
# An eigenvalue counts as non-real when |Im lam| > NONREAL_TOL (1 + |lam|)
# kappa, kappa being the condition number of the eigenbasis (capped at 1e8).
NONREAL_TOL = 1e-8
# A sign test passes when (Jf, f)/norm(f)^2 exceeds SIGN_TOL in magnitude
# and has the expected sign.
SIGN_TOL = 1e-6
# A real eigenvalue within CLUSTER_TOL * scale of another one has no
# well-defined eigenvector, so its sign type is left indeterminate.
CLUSTER_TOL = 1e-6


class HypothesisUnmetError(ValueError):
    """An instance fails the hypotheses of the statement under test (this is
    a rejection, not a verification failure)."""


@dataclass
class EigenRecord:
    value: complex
    contained: bool
    margin: float
    kind: str  # "nonreal" | "real"
    sign: float | None = None  # (Jf, f)/norm^2 when a sign test ran


@dataclass
class VerificationReport:
    """Outcome of one verification run; ``verified`` iff no failure list
    has entries.  Counts and margins summarize what was actually checked."""

    instance: dict
    bounds: dict
    eigenvalues: list = field(default_factory=list)
    nonreal_count: int = 0
    containment_failures: list = field(default_factory=list)
    resolvent_check_failures: list = field(default_factory=list)
    sign_type_failures: list = field(default_factory=list)
    indeterminate: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    sign_tested: int = 0

    @property
    def verified(self) -> bool:
        return not (self.containment_failures or self.resolvent_check_failures
                    or self.sign_type_failures)

    def add_nonreal(self, lam: complex, contained: bool, margin: float,
                    failure: dict) -> None:
        """Record a non-real eigenvalue; ``failure`` describes the missed
        enclosure and is listed only when ``contained`` is false."""
        self.nonreal_count += 1
        self.eigenvalues.append(EigenRecord(lam, contained, margin, "nonreal"))
        if not contained:
            self.containment_failures.append(failure)

    def add_real(self, lam, sign: float | None = None, margin: float = 0.0) -> None:
        self.eigenvalues.append(
            EigenRecord(complex(lam), True, margin, "real", sign=sign))

    def check_sign(self, lam: float, sign: float, positive: bool) -> None:
        """Sign-type test of one real eigenvalue against SIGN_TOL."""
        self.sign_tested += 1
        if not (sign > SIGN_TOL if positive else sign < -SIGN_TOL):
            self.sign_type_failures.append(
                {"lambda": lam, "sign": sign,
                 "expected": "positive" if positive else "negative"})

    def add_indeterminate(self, lam: float, reason: str) -> None:
        self.indeterminate.append({"lambda": lam, "reason": reason})

    def summarize_sign_checks(self) -> None:
        self.checks["signType"] = {"tested": self.sign_tested,
                                   "failures": len(self.sign_type_failures),
                                   "indeterminate": len(self.indeterminate)}

    def margin_summary(self) -> dict:
        ms = [r.margin for r in self.eigenvalues if r.kind == "nonreal"]
        if not ms:
            return {"count": 0}
        return {"count": len(ms), "min": min(ms), "max": max(ms),
                "mean": sum(ms) / len(ms)}

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "bounds": self.bounds,
            "eigenvalues": [
                {"re": r.value.real, "im": r.value.imag, "kind": r.kind,
                 "contained": r.contained, "margin": r.margin, "sign": r.sign}
                for r in self.eigenvalues
            ],
            "checks": dict(self.checks,
                           nonrealCount=self.nonreal_count,
                           containmentFailures=self.containment_failures,
                           resolventCheckFailures=self.resolvent_check_failures,
                           signTypeFailures=self.sign_type_failures,
                           indeterminate=self.indeterminate,
                           margins=self.margin_summary()),
            "verified": self.verified,
        }


def trial_seeds(root_seed: int, trials: int) -> list:
    """Deterministic per-trial seed schedule derived from one root seed."""
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(root_seed).spawn(trials)]


def fit_relative_bound(t_op, s_op, b_grid=DEFAULT_B_GRID) -> list:
    """The curve b -> least admissible a over a grid of b values."""
    return [(b, min_relative_bound(t_op, s_op, b)) for b in b_grid]


def region_area(region: DiskFamilyRegion, nodes: int = 257) -> float:
    """Area of a bounded disk-family region.

    The height of the region above abscissa x is available in closed form
    (the defining polynomial is quadratic in the center), so the area is a
    single 1-D quadrature of that height profile.
    """
    if not region.centers.bounded:
        return math.inf
    a, b = region.bound.a, region.bound.b
    rho = region.radius_scale
    xmin, xmax = region.real_extent

    def height(x):
        best = np.zeros_like(x)
        for p in region.centers.points:
            best = np.maximum(best, rho * (a + b * p * p) - (x - p) ** 2)
        for lo, hi in region.centers.intervals:
            lead = 1.0 - rho * b
            tc = x / lead if lead > 0 else np.full_like(x, hi)
            tc = np.clip(tc, lo, hi)
            best = np.maximum(best, rho * (a + b * tc * tc) - (x - tc) ** 2)
            if lead <= 0:
                best = np.maximum(best, rho * (a + b * lo * lo) - (x - lo) ** 2)
        return np.sqrt(np.maximum(best, 0.0))

    xs, ws = _leggauss_cached(nodes)
    mid, half = 0.5 * (xmax + xmin), 0.5 * (xmax - xmin)
    return float(2.0 * half * np.sum(ws * height(mid + half * xs)))


@lru_cache(maxsize=16)
def _leggauss_cached(nodes: int) -> tuple:
    return np.polynomial.legendre.leggauss(nodes)


def random_block_operator(seed: int, max_dim: int = 20,
                          spectrum_scale: float = 10.0,
                          coupling_scale: float | None = None) -> BlockOperator:
    """Random diagonally coupled instance with Hermitian diagonal blocks.

    Diagonal blocks get uniform spectra inside [-spectrum_scale, spectrum_scale]
    (random sub-windows, so bounded-above/below cases all occur) and a dense
    complex coupling block with norm on the order of the diagonal scale.
    """
    rng = np.random.default_rng(seed)
    total = int(rng.integers(2, max_dim + 1))
    n_plus = int(rng.integers(1, total))
    n_minus = total - n_plus

    def hermitian_with_spectrum(n):
        lo = rng.uniform(-spectrum_scale, spectrum_scale)
        hi = rng.uniform(lo, spectrum_scale)
        d = rng.uniform(lo, hi, size=n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        return (q * d) @ q.conj().T

    sp = hermitian_with_spectrum(n_plus)
    sm = hermitian_with_spectrum(n_minus)
    if coupling_scale is None:
        coupling_scale = rng.uniform(0.1, 0.5) * (spectrum_scale + 1.0)
    m = rng.standard_normal((n_plus, n_minus)) + 1j * rng.standard_normal((n_plus, n_minus))
    m *= coupling_scale / max(np.linalg.norm(m, 2), 1e-300)
    return BlockOperator(s_plus=0.5 * (sp + sp.conj().T),
                         s_minus=0.5 * (sm + sm.conj().T), coupling=m)


def random_krein_problem(seed: int, max_dim: int = 20,
                         strength: float | None = None,
                         definite_fraction: float = 0.25) -> KreinPerturbationProblem:
    """Random signature, A0 = J P with P Hermitian positive definite, and a
    J-symmetric V; a ``definite_fraction`` of draws make J V positive
    semi-definite to exercise the real-spectrum branch."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_dim + 1))
    sig = np.ones(n)
    sig[: int(rng.integers(1, n))] = -1.0
    rng.shuffle(sig)

    def hermitian(scale):
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = 0.5 * (w + w.conj().T)
        return w * (scale / max(np.linalg.norm(w, 2), 1e-300))

    pe = rng.uniform(0.5, 3.0, size=n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    p = (q * pe) @ q.conj().T
    p = 0.5 * (p + p.conj().T)
    if strength is None:
        strength = rng.uniform(0.05, 1.0)
    w = hermitian(strength * float(np.max(pe)))
    if rng.uniform() < definite_fraction:
        we = np.linalg.eigvalsh(w)
        w = w + (abs(we[0]) + 1e-3) * np.eye(n)
    return KreinPerturbationProblem(signature=sig, a0=sig[:, None] * p,
                                    v=sig[:, None] * w)


class Spectrum(NamedTuple):
    """Eigenpairs of a dense matrix, flagged for the enclosure and sign tests."""

    values: np.ndarray
    vectors: np.ndarray
    nonreal: np.ndarray  # per eigenvalue, see NONREAL_TOL
    clustered: np.ndarray  # per eigenvalue, see CLUSTER_TOL
    kappa: float  # eigenbasis condition number, capped at 1e8
    scale: float  # max(norm_2, 1)

    def sign(self, idx: int, j_sig) -> float:
        """(Jf, f)/norm(f)^2 for the eigenvector f of eigenvalue ``idx``."""
        f = self.vectors[:, idx]
        return float(np.real(f.conj() @ (j_sig * f)) / np.real(f.conj() @ f))


def classify_spectrum(matrix) -> Spectrum:
    """Eigenpairs of ``matrix`` with the non-real and clustered flags."""
    evals, evecs = np.linalg.eig(matrix)
    try:
        kappa = min(float(np.linalg.cond(evecs)), 1e8)
    except np.linalg.LinAlgError:
        kappa = 1e8
    scale = max(np.linalg.norm(matrix, 2), 1.0)
    gaps = np.abs(evals[:, None] - evals[None, :])
    np.fill_diagonal(gaps, np.inf)
    return Spectrum(evals, evecs,
                    np.abs(evals.imag) > NONREAL_TOL * (1.0 + np.abs(evals)) * kappa,
                    gaps.min(axis=1) <= CLUSTER_TOL * scale, kappa, scale)


def _select_pair(curve, center_sq_max: float) -> tuple:
    """Pick the (b, a) pair minimizing the largest squared disk radius."""
    return min(curve, key=lambda ba: ba[1] + ba[0] * center_sq_max)


def verify_block_theorem(block: BlockOperator, lambda_samples: int = 1000,
                         seed: int = 0) -> VerificationReport:
    """Check the block-matrix enclosure on one instance.

    Verified statements: every non-real eigenvalue lies where both resolvent
    factors have norm >= 1 and inside the intersection of the two fitted
    disk-family regions; real eigenvalues away from the minus-block spectrum
    with factor norm < 1 have positive sign (Jf, f) (negative for the plus
    side); and at sampled non-real lam with factor norm nu < 1 the full
    resolvent obeys norm((S-lam)^{-1}) <= (1 + nu + nu^2)/(|Im lam| (1 - nu^2)).
    """
    rng = np.random.default_rng(seed)
    full = assemble_block(block)
    j_sig = block_signature(block)
    d_plus, u_plus = np.linalg.eigh(block.s_plus)
    d_minus, u_minus = np.linalg.eigh(block.s_minus)
    m = block.coupling

    curve_minus = fit_relative_bound(m, block.s_minus)
    curve_plus = fit_relative_bound(m.conj().T, block.s_plus)
    b_minus, a_minus = _select_pair(curve_minus, float(np.max(d_minus**2)))
    b_plus, a_plus = _select_pair(curve_plus, float(np.max(d_plus**2)))

    region_minus = DiskFamilyRegion(RelBound(a_minus, b_minus),
                                    SpectrumModel.from_points(d_minus))
    region_plus = DiskFamilyRegion(RelBound(a_plus, b_plus),
                                   SpectrumModel.from_points(d_plus))

    # column-transformed couplings: norm(M (S- - lam)^{-1}) via scaled svd
    m_minus = m @ u_minus
    m_plus = m.conj().T @ u_plus

    def factor_norm_minus(lam):
        return float(np.linalg.norm(m_minus / (d_minus - lam), 2))

    def factor_norm_plus(lam):
        return float(np.linalg.norm(m_plus / (d_plus - lam), 2))

    spec = classify_spectrum(full)
    scale = spec.scale

    report = VerificationReport(
        instance={"dims": list(block.dims), "seed": seed,
                  "norms": {"s_plus": float(np.linalg.norm(block.s_plus, 2)),
                            "s_minus": float(np.linalg.norm(block.s_minus, 2)),
                            "coupling": float(np.linalg.norm(m, 2))},
                  "eig_condition": spec.kappa},
        bounds={"a_minus": a_minus, "b_minus": b_minus,
                "a_plus": a_plus, "b_plus": b_plus})

    for idx, lam in enumerate(spec.values):
        lam = complex(lam)
        if spec.nonreal[idx]:
            near_minus = float(np.min(np.abs(d_minus - lam))) <= 1e-8 * scale
            near_plus = float(np.min(np.abs(d_plus - lam))) <= 1e-8 * scale
            in_k_minus = near_minus or factor_norm_minus(lam) >= 1.0 - 1e-10
            in_k_plus = near_plus or factor_norm_plus(lam) >= 1.0 - 1e-10
            mem_minus = disk_region_membership(region_minus, lam)
            mem_plus = disk_region_membership(region_plus, lam)
            margin = max(mem_minus.margin, mem_plus.margin)
            # slack absorbs the eigensolver's own error at tangency cases
            # (e.g. 1x1 blocks put non-real eigenvalues exactly on the rim)
            report.add_nonreal(
                lam, in_k_minus and in_k_plus and margin <= 1e-8 * scale, margin,
                {"lambda": [lam.real, lam.imag],
                 "k_minus": in_k_minus, "k_plus": in_k_plus,
                 "disks_minus": mem_minus.inside, "disks_plus": mem_plus.inside})
            continue

        lam_r = lam.real
        sign = spec.sign(idx, j_sig)
        report.add_real(lam, sign)
        for (d_side, factor, want_pos) in (
                (d_minus, factor_norm_minus, True),
                (d_plus, factor_norm_plus, False)):
            if float(np.min(np.abs(d_side - lam_r))) <= 1e-8 * scale:
                continue  # inside the side's spectrum: no claim
            if factor(lam_r) >= 1.0 - 1e-10:
                continue  # inside the K set: no claim
            if spec.clustered[idx]:
                report.add_indeterminate(lam_r, "clustered eigenvalue")
            else:
                report.check_sign(lam_r, sign, want_pos)

    # sampled resolvent bound
    checked = 0
    for _ in range(lambda_samples):
        x = rng.uniform(-2.0 * scale, 2.0 * scale)
        y = rng.uniform(1e-3 * scale, 2.0 * scale) * rng.choice([-1.0, 1.0])
        lam = complex(x, y)
        res = None
        for factor in (factor_norm_minus, factor_norm_plus):
            nu = factor(lam)
            if nu < 1.0 - 1e-9:
                if res is None:
                    res = resolvent_norm(full, lam)
                cap = (1.0 + nu + nu * nu) / (abs(y) * (1.0 - nu * nu))
                checked += 1
                if res > cap * (1.0 + 1e-8) + 1e-12:
                    report.resolvent_check_failures.append(
                        {"lambda": [x, y], "norm": res, "cap": cap})
    report.checks["resolvent"] = {"sampled": lambda_samples, "applicable": checked,
                                  "failures": len(report.resolvent_check_failures)}
    report.summarize_sign_checks()
    return report


def verify_tmain(problem: KreinPerturbationProblem,
                 tau: float | None = None) -> VerificationReport:
    """Check the perturbation enclosure for A0 + V on one instance.

    Fits the scaled relative bound of V against A0 over a grid of b values,
    keeps the pair whose plain region has least area, and verifies: non-real
    eigenvalues of A0 + V lie in the plain region (and in the rescaled one
    when its existence condition b < (tau-1)/(2 tau) holds); when the lower
    bound v of J V is >= 0 the whole spectrum is real; real eigenvalues
    beyond the region's real section carry the advertised sign.
    """
    proj = spectral_projections(problem)
    tau0 = proj.tau0
    tau = tau0 if tau is None else max(float(tau), tau0)
    v_low = problem.jv_lower_bound
    j_sig = problem.signature

    w_op = math.sqrt((1.0 + tau) * tau) * problem.v
    curve = [(b, 0.5 * min_relative_bound(w_op, problem.a0, b))
             for b in DEFAULT_B_GRID]

    report = VerificationReport(
        instance={"dims": [problem.dim],
                  "norms": {"a0": float(np.linalg.norm(problem.a0, 2)),
                            "v": float(np.linalg.norm(problem.v, 2))}},
        bounds={"tau": tau, "tau0": tau0, "v": v_low})

    spec = classify_spectrum(problem.a0 + problem.v)
    scale = spec.scale
    report.instance["eig_condition"] = spec.kappa

    if v_low >= 0.0:
        report.bounds.update({"a": None, "b": None, "gamma": None})
        report.checks["branch"] = "jv-nonnegative"
        for lam in spec.values:
            lam = complex(lam)
            if abs(lam.imag) <= NONREAL_TOL * scale * spec.kappa:
                report.add_real(lam, margin=abs(lam.imag))
            else:
                report.add_nonreal(
                    lam, False, abs(lam.imag),
                    {"lambda": [lam.real, lam.imag],
                     "reason": "nonreal spectrum though J V >= 0"})
        return report

    best = None
    for b, a in curve:
        regions = tmain_regions(a, b, tau, v_low)
        area = region_area(regions["worse"])
        if best is None or area < best[0]:
            best = (area, b, a, regions)
    _, b_sel, a_sel, regions = best
    worse, better, gamma = regions["worse"], regions["better"], regions["gamma"]
    report.bounds.update({"a": a_sel, "b": b_sel, "gamma": gamma})
    report.checks["branch"] = "enclosure"
    report.checks["betterApplies"] = better is not None
    report.checks["fitCurve"] = [[b, a] for b, a in curve]
    report.checks["regions"] = {
        "worse": region_to_json(worse),
        "better": region_to_json(better) if better is not None else None,
    }

    real_section = gamma + math.sqrt(worse.radius_scale
                                     * (a_sel + b_sel * gamma * gamma))
    tight = better if better is not None else worse
    tight_section = gamma + math.sqrt(tight.radius_scale
                                      * (a_sel + b_sel * gamma * gamma))

    for idx, lam in enumerate(spec.values):
        lam = complex(lam)
        if spec.nonreal[idx]:
            margin = max(disk_region_membership(r, lam).margin
                         for r in (worse, better) if r is not None)
            report.add_nonreal(lam, margin <= 1e-8 * scale, margin,
                               {"lambda": [lam.real, lam.imag], "margin": margin})
            continue
        sign = spec.sign(idx, j_sig)
        report.add_real(lam, sign)
        if spec.clustered[idx]:
            if abs(lam.real) > tight_section * (1.0 + 1e-6):
                report.add_indeterminate(lam.real, "clustered eigenvalue")
            continue
        if abs(lam.real) > tight_section * (1.0 + 1e-6) + 1e-9 * scale:
            report.check_sign(lam.real, sign, lam.real > 0)
    report.checks["realSection"] = real_section
    report.summarize_sign_checks()
    return report


def resolvent_order_check(block: BlockOperator, samples: int = 1000,
                          seed: int = 0) -> dict:
    """Sample the resolvent beyond the saturation threshold and report.

    Beyond |lam| > gamma + sqrt(gamma^2 + a/b) the factor norms drop below
    sqrt(b) and the resolvent obeys the first-order bound
    norm((S-lam)^{-1}) <= 3 / ((1-b) |Im lam|); elsewhere off the real axis
    the quadratic growth constant M = sup norm * |Im|^2 / (1+|lam|)^2 is
    reported empirically.
    """
    rng = np.random.default_rng(seed)
    full = assemble_block(block)
    d_plus = np.linalg.eigvalsh(block.s_plus)
    d_minus = np.linalg.eigvalsh(block.s_minus)
    gamma = max(float(np.max(d_minus)), float(-np.min(d_plus)), 0.0)
    m = block.coupling
    best = None
    for b in ORDER_B_GRID:
        a = max(min_relative_bound(m, block.s_minus, b),
                min_relative_bound(m.conj().T, block.s_plus, b))
        thr = smallerb_threshold(RelBound(a, b), gamma)
        if best is None or thr < best[0]:
            best = (thr, a, b)
    thr, a_sel, b_sel = best

    failures = []
    m_growth = 0.0
    for _ in range(samples):
        radius = thr * rng.uniform(1.0 + 1e-9, 4.0)
        theta = rng.uniform(0.05, math.pi - 0.05) * rng.choice([-1.0, 1.0])
        lam = radius * complex(math.cos(theta), math.sin(theta))
        res = resolvent_norm(full, lam)
        cap = 3.0 / ((1.0 - b_sel) * abs(lam.imag))
        if res > cap * (1.0 + 1e-8):
            failures.append({"lambda": [lam.real, lam.imag], "norm": res, "cap": cap})
        inner = rng.uniform(0.1, 1.0) * thr * complex(
            math.cos(theta), math.sin(theta))
        if abs(inner.imag) > 1e-6:
            m_growth = max(m_growth, resolvent_norm(full, inner)
                           * inner.imag**2 / (1.0 + abs(inner)) ** 2)
    return {"threshold": thr, "a": a_sel, "b": b_sel, "gamma": gamma,
            "order1_failures": failures, "growth_constant": m_growth,
            "samples": samples}
