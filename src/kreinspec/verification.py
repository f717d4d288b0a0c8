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
    disk_family_profiles, disk_region_membership, region_to_json, \
    smallerb_threshold, tmain_regions, tmain_worse
from .operators import BlockOperator, KreinPerturbationProblem, _factor_norm, \
    _k_set_member, assemble_block, block_signature, certify_resolvent_bound, \
    min_relative_bound, resolvent_norm, spectral_projections

__all__ = [
    "HypothesisUnmetError",
    "VerificationReport",
    "EigenRecord",
    "Spectrum",
    "inertia_points",
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
# An eigenvalue within SPECTRUM_PROXIMITY_TOL * scale of a point of a block's
# spectrum counts as inside that side's K set: the eigensolver's rounding can
# put a real eigenvalue of a weakly coupled block just off the spectrum, where
# the K set's closed form comes out slightly negative.
SPECTRUM_PROXIMITY_TOL = 1e-8
# A non-real eigenvalue counts as contained when its region margin is at most
# CONTAINMENT_SLACK * scale; it absorbs the eigensolver's own error at
# tangency cases (e.g. 1x1 blocks put non-real eigenvalues exactly on the rim).
CONTAINMENT_SLACK = 1e-8
# The resolvent bound applies on a side whose factor norm nu is below
# 1 - APPLICABILITY_MARGIN, away from the pole of its cap at nu = 1.
APPLICABILITY_MARGIN = 1e-9
# A sampled resolvent norm fails its cap when it exceeds
# cap (1 + RESOLVENT_REL_TOL) + RESOLVENT_ABS_TOL in verify_block_theorem,
# and cap (1 + RESOLVENT_REL_TOL) in resolvent_order_check.
RESOLVENT_REL_TOL = 1e-8
RESOLVENT_ABS_TOL = 1e-12
# verify_tmain tests the sign type of a real eigenvalue only beyond the tight
# region's real section s, at |Re lam| > s (1 + REAL_SECTION_SLACK)
# + REAL_SECTION_ABS_SLACK * scale.
REAL_SECTION_SLACK = 1e-6
REAL_SECTION_ABS_SLACK = 1e-9
# resolvent_order_check takes its growth constant over the inner sample
# points with |Im lam| > GROWTH_SAMPLE_MIN_IM only (a tiny threshold can put
# some next to the real axis); it picks the samples of a reported number and
# decides no verdict.
GROWTH_SAMPLE_MIN_IM = 1e-6
# Gauss-Legendre nodes of region_area's quadrature of a height profile.
REGION_AREA_NODES = 257


class HypothesisUnmetError(ValueError):
    """An instance fails the hypotheses of the statement under test (this is
    a rejection, not a verification failure)."""


@dataclass
class EigenRecord:
    value: complex
    contained: bool
    margin: float
    kind: str  # "nonreal" | "real"
    sign: float | None = None  # the inertia type, +-1.0, where recorded


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
    # solver diagnostics for the run record; not part of ``to_json``
    diagnostics: dict = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return not (self.containment_failures or self.resolvent_check_failures
                    or self.sign_type_failures)

    def add_nonreal(self, lam: complex, contained: bool, margin: float,
                    failure: dict, count: int = 1) -> None:
        """Record a non-real eigenvalue; ``failure`` describes the missed
        enclosure and is listed only when ``contained`` is false.  With
        ``count=2`` the record stands for ``lam`` and its conjugate."""
        self.nonreal_count += count
        self.eigenvalues.append(EigenRecord(lam, contained, margin, "nonreal"))
        if not contained:
            self.containment_failures.append(failure)

    def add_real(self, lam, sign: float | None = None, margin: float = 0.0) -> None:
        self.eigenvalues.append(
            EigenRecord(complex(lam), True, margin, "real", sign=sign))

    def check_sign(self, lam: float, sign: float, positive: bool) -> None:
        """Sign-type test of one real eigenvalue's type (+-1) against 0."""
        self.sign_tested += 1
        if not (sign > 0.0 if positive else sign < 0.0):
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
    return list(zip(b_grid, min_relative_bound(t_op, s_op, b_grid).tolist()))


_leggauss_cached = lru_cache(maxsize=16)(np.polynomial.legendre.leggauss)


def region_area(regions):
    """Area of a disk-family region (a float, inf when its centers are
    unbounded), or an array of the areas of a sequence of regions: a 1-D
    Gauss-Legendre quadrature of each closed-form height profile, all rows on
    one stacked (m, REGION_AREA_NODES) grid by ``disk_family_profiles``."""
    single = isinstance(regions, DiskFamilyRegion)
    regions = [regions] if single else list(regions)
    areas = np.full(len(regions), math.inf)
    bounded = [k for k, r in enumerate(regions) if r.centers.bounded]
    if bounded:
        xs, ws = _leggauss_cached(REGION_AREA_NODES)
        xmin, xmax, heights = disk_family_profiles(
            [regions[k] for k in bounded], xs)
        half = 0.5 * (xmax - xmin)
        areas[bounded] = 2.0 * half * np.sum(ws * heights, axis=1)
    return float(areas[0]) if single else areas


def random_block_operator(seed: int, max_dim: int = 20) -> BlockOperator:
    """Random diagonally coupled instance with Hermitian diagonal blocks.

    Diagonal blocks get uniform spectra inside [-10, 10] (random sub-windows,
    so bounded-above/below cases all occur) and a dense complex coupling
    block of norm uniform in [1.1, 5.5], on the order of the diagonal scale.
    """
    rng = np.random.default_rng(seed)
    spectrum_scale = 10.0  # the generator's scale, not a tolerance
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
    coupling_scale = rng.uniform(0.1, 0.5) * (spectrum_scale + 1.0)
    m = rng.standard_normal((n_plus, n_minus)) + 1j * rng.standard_normal((n_plus, n_minus))
    m *= coupling_scale / max(np.linalg.norm(m, 2), 1e-300)
    return BlockOperator(s_plus=0.5 * (sp + sp.conj().T),
                         s_minus=0.5 * (sm + sm.conj().T), coupling=m)


def random_krein_problem(seed: int, max_dim: int = 20,
                         definite_fraction: float = 0.25) -> KreinPerturbationProblem:
    """Random signature, A0 = J P with P Hermitian positive definite, and
    V = J W with W Hermitian of norm uniform in [0.05, 1] times norm(P); a
    ``definite_fraction`` of draws shift W to make J V positive definite,
    to exercise the real-spectrum branch."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_dim + 1))
    sig = np.ones(n)
    sig[: int(rng.integers(1, n))] = -1.0
    rng.shuffle(sig)

    pe = rng.uniform(0.5, 3.0, size=n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    p = (q * pe) @ q.conj().T
    p = 0.5 * (p + p.conj().T)
    strength = rng.uniform(0.05, 1.0)
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = 0.5 * (w + w.conj().T)
    w *= strength * float(np.max(pe)) / max(np.linalg.norm(w, 2), 1e-300)
    if rng.uniform() < definite_fraction:
        we = np.linalg.eigvalsh(w)
        w = w + (abs(we[0]) + 1e-3) * np.eye(n)
    return KreinPerturbationProblem(signature=sig, a0=sig[:, None] * p,
                                    v=sig[:, None] * w)


class Spectrum(NamedTuple):
    """Eigenvalues of a dense J-self-adjoint matrix with their sign types."""

    values: np.ndarray
    types: np.ndarray  # +-1.0 real of that type, 0.0 non-real, NaN undecided
    brackets: np.ndarray  # (net inertia jump, eigenvalue count) per eigenvalue
    scale: float  # max(norm_2, 1)


def inertia_points(values_sorted) -> np.ndarray:
    """Where inertia is counted to type ascending real values: the midpoints
    between neighbours, and one point 1.0 beyond each end."""
    lam = np.asarray(values_sorted, dtype=float)
    return np.concatenate((lam[:1] - 1.0, 0.5 * (lam[:-1] + lam[1:]),
                           lam[-1:] + 1.0))


def classify_spectrum(matrix, j_sig) -> Spectrum:
    """Eigenvalues of ``matrix`` (J-self-adjoint, J = diag(j_sig)), typed by
    inertia: nu(mu), the negative count of the Hermitian J (A - mu), jumps
    across each real eigenvalue by the sum of the types there (Iohvidov,
    Krein & Langer 1982).  eigvalsh counts nu at the midpoints of
    ``inertia_points``; one within its backward error n eps norm of singular
    is dropped, merging two brackets.  Beyond the ends nu is J's own count.
    A bracket of m eigenvalues with jump +-m holds m real ones of that type,
    a lone one with jump 0 is non-real, and any other is undecided."""
    values = np.linalg.eigvals(matrix)
    order = np.argsort(values.real, kind="stable")
    h, j, n = j_sig[:, None] * matrix, np.diag(j_sig), values.size
    mid = inertia_points(values.real[order])[1:-1]
    counts, sure = [np.sum(j_sig < 0)], [True]
    step = len(DEFAULT_B_GRID)  # stacks no larger than the bound fit's
    for mu in np.split(mid, range(step, mid.size, step)):
        w = np.linalg.eigvalsh(h - mu[:, None, None] * j)
        counts.extend(np.sum(w < 0, axis=1))
        sure.extend(np.min(np.abs(w), axis=1)
                    > n * np.finfo(float).eps * np.max(np.abs(w), axis=1))
    cuts = np.flatnonzero(sure + [True])
    jump, size = np.diff(np.append(counts, np.sum(j_sig > 0))[cuts]), np.diff(cuts)
    typed = np.where(np.abs(jump) == size, np.sign(jump),
                     np.where((size == 1) & (jump == 0), 0.0, np.nan))
    # the bracket of each eigenvalue, through its rank among the real parts
    member = np.repeat(np.arange(size.size), size)[np.argsort(order)]
    return Spectrum(values, typed[member], np.column_stack((jump, size))[member],
                    max(np.linalg.norm(matrix, 2), 1.0))


def _record_typed(report: VerificationReport, spec: Spectrum, idx: int,
                  margin: float = 0.0) -> float:
    """Record the real (or undecided) eigenvalue ``idx`` with its type and
    return the type; an undecided one (NaN) is also recorded indeterminate."""
    lam, sign = complex(spec.values[idx]), float(spec.types[idx])
    report.add_real(lam, None if math.isnan(sign) else sign, margin)
    if math.isnan(sign):
        report.add_indeterminate(lam.real, "net inertia jump {} over {} "
                                 "eigenvalues".format(*spec.brackets[idx]))
    return sign


def _select_pair(curve, center_sq_max: float) -> tuple:
    """Pick the (b, a) pair minimizing the largest squared disk radius."""
    return min(curve, key=lambda ba: ba[1] + ba[0] * center_sq_max)


def _resolvent_samples(rng: np.random.Generator, count: int,
                       scale: float) -> np.ndarray:
    """``count`` points complex(rng.uniform(-2 scale, 2 scale),
    rng.uniform(1e-3 scale, 2 scale) * rng.choice([-1.0, 1.0])), bit for
    bit the draws of that scalar loop, decoded from one ``random_raw`` pass.

    Each two samples take five PCG64 words: x, y, a word whose low 32 bits
    are the first choice's draw, x, y; the second choice takes the buffered
    high half.  A double is (w >> 11) 2^-53, uniform(lo, hi) is
    lo + (hi - lo) d, and the choice picks +1.0 when bit 31 of its 32-bit
    draw is set (Lemire's bounded draw on [0, 1]).  The generator is left
    in the loop's final state: an odd count leaves the last high half
    buffered.  Raises ``ValueError`` for any other bit generator, or one
    holding a buffered uint32, whose stream this layout does not decode.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64) or bitgen.state["has_uint32"]:
        raise ValueError("stream-exact samples need a PCG64 generator with "
                         "no buffered uint32")
    pairs, odd = divmod(count, 2)
    words = np.append(bitgen.random_raw(5 * pairs + 3 * odd),
                      np.zeros(2 * odd, dtype=np.uint64)).reshape(-1, 5)
    unit = (words >> np.uint64(11)).astype(float) * 2.0**-53
    x_lo, y_lo = -2.0 * scale, 1e-3 * scale
    x = x_lo + (2.0 * scale - x_lo) * unit[:, [0, 3]].ravel()[:count]
    y = y_lo + (2.0 * scale - y_lo) * unit[:, [1, 4]].ravel()[:count]
    bits = np.column_stack((words[:, 2] >> np.uint64(31),
                            words[:, 2] >> np.uint64(63))) & np.uint64(1)
    lams = np.empty(count, dtype=complex)
    lams.real, lams.imag = x, y * np.where(bits.ravel()[:count], 1.0, -1.0)
    if count:
        state = bitgen.state
        state.update(has_uint32=odd, uinteger=int(words[-1, 2] >> np.uint64(32)))
        bitgen.state = state
    return lams


def verify_block_theorem(block: BlockOperator, lambda_samples: int = 1000,
                         seed: int = 0) -> VerificationReport:
    """Check the block-matrix enclosure on one instance.

    Verified statements: every non-real eigenvalue lies where both resolvent
    factors have norm >= 1 and inside the intersection of the two fitted
    disk-family regions; real eigenvalues outside the minus side's K set and
    away from the minus-block spectrum have positive type (negative for the
    plus side); and at sampled non-real lam with factor norm nu < 1 the full
    resolvent obeys
    norm((S-lam)^{-1}) <= (1 + nu + nu^2)/(|Im lam| (1 - nu^2)).
    """
    rng = np.random.default_rng(seed)
    full = assemble_block(block)
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

    spec = classify_spectrum(full, block_signature(block))
    scale = spec.scale

    report = VerificationReport(
        instance={"dims": list(block.dims), "seed": seed,
                  "norms": {"s_plus": float(np.linalg.norm(block.s_plus, 2)),
                            "s_minus": float(np.linalg.norm(block.s_minus, 2)),
                            "coupling": float(np.linalg.norm(m, 2))}},
        bounds={"a_minus": a_minus, "b_minus": b_minus,
                "a_plus": a_plus, "b_plus": b_plus})

    # each side's factor T U and spectrum d, for S = U diag(d) U* its block
    # (T = M on the minus side, M* on the plus side), formed once
    sides = ((m @ u_minus, d_minus), (m.conj().T @ u_plus, d_plus))
    # K-set membership per side and eigenvalue, real ones at their real part;
    # near d counts as inside
    nonreal = spec.types == 0.0
    probes = np.where(nonreal, spec.values, spec.values.real)
    in_k_minus, in_k_plus = (
        (_k_set_member(tu, d_side, probes)
         | (np.min(np.abs(d_side - probes[:, None]), axis=1)
            <= SPECTRUM_PROXIMITY_TOL * scale)).tolist()
        for tu, d_side in sides)

    mem_minus, mem_plus = (disk_region_membership(r, spec.values[nonreal])
                           for r in (region_minus, region_plus))
    disks = iter(zip(np.maximum(mem_minus.margin, mem_plus.margin).tolist(),
                     mem_minus.inside.tolist(), mem_plus.inside.tolist()))
    for idx, lam in enumerate(spec.values):
        lam = complex(lam)
        if nonreal[idx]:
            margin, disks_minus, disks_plus = next(disks)
            contained = (in_k_minus[idx] and in_k_plus[idx]
                         and margin <= CONTAINMENT_SLACK * scale)
            report.add_nonreal(
                lam, contained, margin,
                {"lambda": [lam.real, lam.imag],
                 "k_minus": in_k_minus[idx], "k_plus": in_k_plus[idx],
                 "disks_minus": disks_minus, "disks_plus": disks_plus})
            continue

        sign = _record_typed(report, spec, idx)
        for inside, want_pos in ((in_k_minus[idx], True), (in_k_plus[idx], False)):
            # in the side's K set or near its spectrum: no claim
            if not (inside or math.isnan(sign)):
                report.check_sign(lam.real, sign, want_pos)

    # resolvent bound where a factor norm nu < 1
    lams = _resolvent_samples(rng, lambda_samples, scale)
    nu = np.stack([_factor_norm(tu, d, lams) for tu, d in sides], axis=1)
    applicable = nu < 1.0 - APPLICABILITY_MARGIN
    with np.errstate(divide="ignore"):
        cap = (1.0 + nu + nu * nu) / (np.abs(lams.imag)[:, None] * (1.0 - nu * nu))
    limit = cap * (1.0 + RESOLVENT_REL_TOL) + RESOLVENT_ABS_TOL
    # a sample certified below its strictest applicable limit fails no side;
    # the SVD decides the rest and gives a failure's norm
    hit = np.flatnonzero(applicable.any(axis=1))
    strictest = np.min(np.where(applicable, limit, np.inf), axis=1)[hit]
    undecided = hit[~certify_resolvent_bound(full, lams[hit], strictest)]
    res = np.zeros(lambda_samples)
    res[undecided] = resolvent_norm(full, lams[undecided])
    failed = applicable & (res[:, None] > limit)
    report.resolvent_check_failures.extend(  # in (sample, side) order
        {"lambda": [lams[k].real, lams[k].imag], "norm": float(res[k]),
         "cap": float(cap[k, side])} for k, side in zip(*np.nonzero(failed)))
    report.checks["resolvent"] = {"sampled": lambda_samples,
                                  "applicable": int(applicable.sum()),
                                  "failures": len(report.resolvent_check_failures)}
    report.diagnostics["resolvent"] = {"applicableSamples": hit.size,
                                       "certified": hit.size - undecided.size,
                                       "svd": undecided.size}
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

    report = VerificationReport(
        instance={"dims": [problem.dim],
                  "norms": {"a0": float(np.linalg.norm(problem.a0, 2)),
                            "v": float(np.linalg.norm(problem.v, 2))}},
        bounds={"tau": tau, "tau0": tau0, "v": v_low})

    spec = classify_spectrum(problem.a0 + problem.v, problem.signature)
    scale = spec.scale

    if v_low >= 0.0:
        report.bounds.update({"a": None, "b": None, "gamma": None})
        report.checks["branch"] = "jv-nonnegative"
        for idx, lam in enumerate(spec.values):
            lam = complex(lam)
            if spec.types[idx] != 0.0:
                _record_typed(report, spec, idx, margin=abs(lam.imag))
            else:
                report.add_nonreal(
                    lam, False, abs(lam.imag),
                    {"lambda": [lam.real, lam.imag],
                     "reason": "nonreal spectrum though J V >= 0"})
        report.summarize_sign_checks()
        return report

    w_op = math.sqrt((1.0 + tau) * tau) * problem.v
    curve = [(b, 0.5 * a) for b, a in fit_relative_bound(w_op, problem.a0)]
    # the pair whose plain region has least area; argmin keeps the first
    b_sel, a_sel = curve[int(np.argmin(region_area(
        [tmain_worse(a, b, tau, v_low)[1] for b, a in curve])))]
    regions = tmain_regions(a_sel, b_sel, tau, v_low)
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

    nonreal = spec.types == 0.0
    margins = iter(np.max([disk_region_membership(r, spec.values[nonreal]).margin
                           for r in (worse, better) if r is not None], axis=0).tolist())
    for idx, lam in enumerate(spec.values):
        lam = complex(lam)
        if nonreal[idx]:
            margin = next(margins)
            report.add_nonreal(lam, margin <= CONTAINMENT_SLACK * scale,
                               margin,
                               {"lambda": [lam.real, lam.imag], "margin": margin})
            continue
        sign = _record_typed(report, spec, idx)
        if not math.isnan(sign) and abs(lam.real) > (
                tight_section * (1.0 + REAL_SECTION_SLACK)
                + REAL_SECTION_ABS_SLACK * scale):
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
    for (b, a_minus), (_, a_plus) in zip(
            fit_relative_bound(m, block.s_minus, ORDER_B_GRID),
            fit_relative_bound(m.conj().T, block.s_plus, ORDER_B_GRID)):
        a = max(a_minus, a_plus)
        thr = smallerb_threshold(RelBound(a, b), gamma)
        if best is None or thr < best[0]:
            best = (thr, a, b)
    thr, a_sel, b_sel = best

    pairs = []  # (lam beyond the threshold, inner point on the same ray)
    for _ in range(samples):
        radius = thr * rng.uniform(1.0 + 1e-9, 4.0)
        theta = rng.uniform(0.05, math.pi - 0.05) * rng.choice([-1.0, 1.0])
        unit = complex(math.cos(theta), math.sin(theta))
        pairs.append((radius * unit, rng.uniform(0.1, 1.0) * thr * unit))
    lams, inners = np.array(pairs, dtype=complex).reshape(-1, 2).T
    res = resolvent_norm(full, lams)
    cap = 3.0 / ((1.0 - b_sel) * np.abs(lams.imag))
    failures = [{"lambda": [lam.real, lam.imag], "norm": float(r), "cap": float(c)}
                for lam, r, c in zip(lams, res, cap)
                if r > c * (1.0 + RESOLVENT_REL_TOL)]
    inners = inners[np.abs(inners.imag) > GROWTH_SAMPLE_MIN_IM]
    m_growth = float(np.max(resolvent_norm(full, inners) * inners.imag**2
                            / (1.0 + np.abs(inners)) ** 2, initial=0.0))
    return {"threshold": thr, "a": a_sel, "b": b_sel, "gamma": gamma,
            "order1_failures": failures, "growth_constant": m_growth,
            "samples": samples}
