"""Indefinite Sturm-Liouville application: sgn(x) (-f'' + q f) on the line.

This module carries the concrete pipeline: the enclosure constants for
potentials measured in an L^p norm, the competing published region they are
compared against, finite-difference discretization with a sign-symmetric
grid, non-real eigenvalue extraction by the index-certified solver,
containment reports, the multiplier inequality checker, and the
Rayleigh-quotient estimator for the norm of the involution built from the
unperturbed spectral projections.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import SLBox
from .reporting import ConfigError
from .verification import VerificationReport, _leggauss_cached, inertia_points

__all__ = [
    "QuadratureError",
    "SLConstants",
    "BstRegion",
    "Potential",
    "SLDiscretization",
    "SLSpectrum",
    "ProbeFunction",
    "sl_constants",
    "sl_box",
    "enclosure_bounds_objective",
    "bst_region",
    "lp_norm",
    "discretize",
    "sl_eigenvalues",
    "sl_certified_spectrum",
    "sl_sign_types",
    "containment_slack",
    "containment_report",
    "lemma_ls_check",
    "tau0_hilbert_form",
    "tau0_profile_quotient",
    "indicator_probe",
    "extremizer_probe",
    "TAU0_UPPER_BOUND",
    "LEMMA_SLACK",
    "LEMMA_QUAD_TOL",
    "SL_RESIDUAL_TOL",
    "SL_BRACKET_WIDTH",
    "SL_MAX_ITERATIONS",
    "DENSE_EIG_MAX_BYTES",
    "guard_eig_memory",
]


def quad(func, a: float, b: float, points=()) -> tuple:
    """Integral of ``func`` over [a, b], a < b, and an estimate of its
    absolute error.

    ``func`` is evaluated on arrays, once per round, on the Gauss nodes of
    every open panel.  The first panels are [a, b] split at ``points``, the
    places where ``func`` may jump or kink.  Each round compares every open
    panel's _QUAD_NODES-point Gauss-Legendre value with the sum over its two
    halves: a panel whose difference is within its width's share of
    _QUAD_RTOL times the integral is accepted with the halves' sum, the
    others are bisected.  The error estimate is the sum of the differences,
    including those of the panels still open after _QUAD_MAX_DEPTH
    bisections or when more than _QUAD_MAX_PANELS would be open.  A
    non-finite value of ``func`` ends the quadrature with (nan, inf).
    """
    xs, ws = _leggauss_cached(_QUAD_NODES)
    m = len(xs)
    edges = np.unique([a, b, *(x for x in points if a < x < b)])
    lo, hi = edges[:-1], edges[1:]
    whole = None  # Gauss values of the open panels, once known
    value = error = 0.0
    for depth in range(_QUAD_MAX_DEPTH + 1):
        mid, quarter = 0.5 * (lo + hi), 0.25 * (hi - lo)
        centers = np.stack([mid - quarter, mid + quarter], axis=1)
        nodes = (centers[..., None] + quarter[:, None, None] * xs).ravel()
        if whole is None:
            nodes = np.concatenate(
                [nodes, (mid[:, None] + 2.0 * quarter[:, None] * xs).ravel()])
        vals = np.asarray(func(nodes), dtype=float)
        if not np.all(np.isfinite(vals)):
            return math.nan, math.inf
        k = len(lo)
        halves = vals[:2 * k * m].reshape(k, 2, m) @ ws * quarter[:, None]
        if whole is None:
            whole = vals[2 * k * m:].reshape(k, m) @ ws * (2.0 * quarter)
        sums = halves.sum(axis=1)
        diff = np.abs(whole - sums)
        target = _QUAD_RTOL * abs(value + sums.sum()) / (b - a)
        done = diff <= target * (hi - lo)
        if depth == _QUAD_MAX_DEPTH or 2 * (k - done.sum()) > _QUAD_MAX_PANELS:
            done[:] = True
        value += float(sums[done].sum())
        error += float(diff[done].sum())
        if done.all():
            break
        keep = ~done
        lo = np.stack([lo[keep], mid[keep]], axis=1).ravel()
        hi = np.stack([mid[keep], hi[keep]], axis=1).ravel()
        whole = halves[keep].ravel()
    return value, error


class QuadratureError(ArithmeticError):
    """A quadrature did not reach its requested accuracy."""


SQRT2 = math.sqrt(2.0)
# sup of the Rayleigh quotient of the involution form: 3 + 2 sqrt(2), the
# top eigenvalue of its Mellin symbol at t = 0 (tau0_profile_quotient)
TAU0_UPPER_BOUND = 3.0 + 2.0 * SQRT2

# Decision tolerances of the pipeline (README, "Scope notes").
# The multiplier inequality holds when lhs <= rhs (1 + LEMMA_SLACK).
LEMMA_SLACK = 1e-6
# A quadrature of the multiplier check (the probe norms and the left side)
# fails when its error estimate exceeds LEMMA_QUAD_TOL times its value.
LEMMA_QUAD_TOL = 1e-8
# quad's relative target, four orders inside LEMMA_QUAD_TOL; its Gauss points
# per panel; its bisection depth (2^-50 of [a, b] is a few ulps of b - a);
# the most panels it keeps open in one round.
_QUAD_RTOL = 1e-12
_QUAD_NODES = 16
_QUAD_MAX_DEPTH = 50
_QUAD_MAX_PANELS = 1000
# An eigenvalue z within SL_REAL_TOL (1 + |z|) of the real axis is real.
SL_REAL_TOL = 1e-8
# A Ritz pair (theta, x) of the certified solver has converged when its
# backward residual norm(T x - theta S x) / (norm(T) norm(x)) is at most this.
SL_RESIDUAL_TOL = 1e-14
# Half-width of the inertia bracket around a converged real Ritz value, and
# the radius within which two Ritz values count as one, as a backward error:
# SL_BRACKET_WIDTH norm(T) times the eigenvalue condition number
# norm(x)^2 / |x^T S x|.  Four orders above SL_RESIDUAL_TOL, so the
# first-order error of a converged Ritz value lies well inside it.
SL_BRACKET_WIDTH = 1e-10
# Expansion rounds after which the certified solver falls back to dense eig.
SL_MAX_ITERATIONS = 30
# containment_slack's floor; logarithmic panels per decade of
# tau0_hilbert_form's quadrature, which stops when two passes differ by at
# most TAU0_REL_TOL max(|quotient|, 1); tau0_profile_quotient's integral
# fails when its error estimate exceeds TAU0_REL_TOL times its value.
SL_SLACK_FLOOR = 1e-6
TAU0_PANELS_PER_DECADE = 8
TAU0_REL_TOL = 1e-6
# Largest working set the certified solver's dense fallback may take.  Its
# eig holds A itself and the copy LAPACK reduces, 16 n^2 bytes (n = 11585 at
# 2 GiB), whatever the potential.  Above it the run stops with a ConfigError
# (exit 2) instead of exhausting memory.
DENSE_EIG_MAX_BYTES = 2 * 1024**3
# _sturm_counts runs its recurrence point by point on Python floats for up to
# this many points, and row by row vectorized over the points above it.  On
# 2 vCPUs at n = 3000 the first costs 0.2-0.25 us per row and point, the
# second 9-12 us per row for up to 60 points, so they break even at 40-50.
_STURM_SCALAR_POINTS = 40


@dataclass(frozen=True)
class SLConstants:
    """Enclosure constants at exponent p: the box is
    |Im z| <= im_coef * qnorm^(2p/(2p-1)), |Re z| <= re_coef * qnorm^(2p/(2p-1))."""

    p: float
    s_p: float
    f_sp: float
    c_p: float
    im_coef: float
    re_coef: float

    @property
    def half_diag(self) -> float:
        return math.hypot(self.im_coef, self.re_coef)

    @property
    def norm_exponent(self) -> float:
        return 2.0 * self.p / (2.0 * self.p - 1.0)


def sl_constants(p: float) -> SLConstants:
    """Evaluate the box constants at exponent p >= 2.

    The optimizer location s_p mixes terms of size ~p against a square root
    of the same size, so everything is evaluated in 50-digit arithmetic and
    rounded once at the end; plain doubles shed digits for large p.
    """
    import mpmath as mp  # imported on first use: it is slow to load

    p = float(p)
    if not (math.isfinite(p) and p >= 2.0):
        raise ValueError(f"p >= 2 (finite) required, got {p}")
    with mp.workdps(50):
        pp = mp.mpf(p)
        r2 = mp.sqrt(2)
        s = (4 - 3 * r2 - 5 * pp + 4 * r2 * pp
             + mp.sqrt(44 - 31 * r2 - 88 * pp + 62 * r2 * pp
                       + 57 * pp**2 - 40 * r2 * pp**2))
        f = mp.sqrt(2 * ((17 + 12 * r2) * s + 4 + 3 * r2)
                    / ((3 + 2 * r2) * s - 1 - r2))
        c = ((1 + r2) * mp.sqrt(3 - 2 * r2) * mp.sqrt(2 * pp / (2 * pp - 1))
             * (16 * r2 * (3 + 2 * r2) ** 2 / (3 * mp.pi**4 * pp) * s)
             ** (1 / (4 * pp - 2)))
        im = c * f
        re = c * (mp.sqrt(6 + 4 * r2) + f)
        return SLConstants(p=p, s_p=float(s), f_sp=float(f), c_p=float(c),
                           im_coef=float(im), re_coef=float(re))


def sl_box(p: float, q_norm: float) -> SLBox:
    """The enclosure rectangle for a potential of the given L^p norm."""
    if q_norm < 0:
        raise ValueError("q_norm must be >= 0")
    c = sl_constants(p)
    s = q_norm**c.norm_exponent
    return SLBox(im_half_height=c.im_coef * s, re_half_width=c.re_coef * s)


def enclosure_bounds_objective(p: float, q_norm: float, s: float) -> dict:
    """Im and Re bounds as functions of the free optimization parameter s > 1.

    The derivation balances the two relative-bound coefficients through a
    parameter s: a(s) grows like s^(1/(2p-1)) while b(s) = (tau-1)/(2 tau s)
    shrinks.  The shipped box evaluates both bounds at the s minimizing the
    Im bound; the Re bound alone admits a slightly smaller minimizer, which
    callers can locate numerically on this objective.
    """
    p, s = float(p), float(s)
    if not p >= 2:
        raise ValueError("p >= 2 required")
    if not s > 1:
        raise ValueError("s > 1 required")
    tau = TAU0_UPPER_BOUND
    exponent = 1.0 / (2.0 * p - 1.0)
    m_p = ((1.0 + tau) * tau / 2.0
           * (16.0 * tau**2 * (1.0 + tau)
              / (3.0 * (tau - 1.0) * math.pi**4 * p)) ** exponent
           * (2.0 * p / (2.0 * p - 1.0))
           * q_norm ** (4.0 * p * exponent))
    a_s = m_p * s**exponent
    b_s = (tau - 1.0) / (2.0 * tau * s)
    gamma_s = math.sqrt((1.0 + tau) * a_s / (2.0 * tau))
    im_sq = (1.0 + tau) * (a_s + b_s * gamma_s**2) / (2.0 * tau * (1.0 - b_s))
    return {"im": math.sqrt(im_sq), "re": gamma_s + math.sqrt(im_sq),
            "a": a_s, "b": b_s, "gamma": gamma_s}


@dataclass(frozen=True)
class BstRegion:
    """Competing published enclosure: a horizontal strip cut by a disk,
    |Im z| <= im_bound and |z| <= abs_bound."""

    p: float
    im_coef: float
    abs_coef: float
    im_bound: float
    abs_bound: float

    def contains(self, z: complex) -> bool:
        return abs(z.imag) <= self.im_bound and abs(z) <= self.abs_bound

    def margin(self, z: complex) -> float:
        return max(abs(z.imag) - self.im_bound, abs(z) - self.abs_bound)


def bst_region(p: float, q_norm: float = 1.0) -> BstRegion:
    """Strip-and-disk region with coefficients 2^((2p+1)/(2p-1)) 3 sqrt(3)
    and that plus 2^((3-2p)/(2p-1)) * 9, scaled by qnorm^(2p/(2p-1))."""
    p = float(p)
    if not (math.isfinite(p) and p >= 2.0):
        raise ValueError(f"p >= 2 (finite) required, got {p}")
    if q_norm < 0:
        raise ValueError("q_norm must be >= 0")
    im_coef = 2.0 ** ((2 * p + 1) / (2 * p - 1)) * 3.0 * math.sqrt(3.0)
    abs_coef = im_coef + 2.0 ** ((3 - 2 * p) / (2 * p - 1)) * 9.0
    s = q_norm ** (2.0 * p / (2.0 * p - 1.0))
    return BstRegion(p=p, im_coef=im_coef, abs_coef=abs_coef,
                     im_bound=im_coef * s, abs_bound=abs_coef * s)


@dataclass(frozen=True)
class Potential:
    """A potential on the line.  The closed-form families are negative wells
    -depth * profile(x / width); ``tabulated`` interpolates a sample table
    piecewise-linearly (zero outside the table) and may change sign."""

    kind: str
    depth: float = 1.0
    width: float = 1.0
    table: tuple | None = None  # (x samples, q samples), strictly increasing x

    def __post_init__(self):
        if self.kind not in ("step", "gaussian", "lorentzian", "tabulated"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "tabulated":
            if self.table is None:
                raise ValueError("tabulated potential needs a table")
            tx = np.asarray(self.table[0], dtype=float)
            tq = np.asarray(self.table[1], dtype=float)
            if tx.ndim != 1 or tx.shape != tq.shape or tx.size < 2:
                raise ValueError("table must be two equal-length 1-D arrays")
            if not np.all(np.diff(tx) > 0):
                raise ValueError("table abscissae must be strictly increasing")
            if not (np.all(np.isfinite(tx)) and np.all(np.isfinite(tq))):
                raise ValueError("table entries must be finite")
            object.__setattr__(self, "table", (tuple(tx), tuple(tq)))
        else:
            if not (self.depth >= 0 and math.isfinite(self.depth)):
                raise ValueError("depth must be >= 0 (0 means no potential)")
            if not (self.width > 0 and math.isfinite(self.width)):
                raise ValueError("width must be positive")

    def values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "step":
            return np.where(np.abs(x) <= self.width, -self.depth, 0.0)
        if self.kind == "gaussian":
            return -self.depth * np.exp(-((x / self.width) ** 2))
        if self.kind == "lorentzian":
            return -self.depth / (1.0 + (x / self.width) ** 2)
        tx, tq = self.table
        return np.interp(x, tx, tq, left=0.0, right=0.0)


def lp_norm(q: Potential, p: float) -> float:
    """L^p norm of the potential, closed form per family (p in [2, inf]).

    step: depth (2 width)^(1/p); gaussian: depth (width sqrt(pi/p))^(1/p);
    lorentzian: depth (width sqrt(pi) Gamma(p-1/2)/Gamma(p))^(1/p);
    tabulated: exact segment-wise integral of the piecewise-linear |q|^p.
    """
    if not p >= 2.0:
        raise ValueError(f"p >= 2 required, got {p}")
    if math.isinf(p):
        if q.kind == "tabulated":
            return float(np.max(np.abs(q.table[1])))
        return q.depth
    if q.kind == "step":
        return q.depth * (2.0 * q.width) ** (1.0 / p)
    if q.kind == "gaussian":
        return q.depth * (q.width * math.sqrt(math.pi / p)) ** (1.0 / p)
    if q.kind == "lorentzian":
        log_int = (math.log(q.width) + 0.5 * math.log(math.pi)
                   + math.lgamma(p - 0.5) - math.lgamma(p))
        return q.depth * math.exp(log_int / p)
    tx, tq = np.asarray(q.table[0]), np.asarray(q.table[1])
    total = 0.0
    for x0, x1, q0, q1 in zip(tx[:-1], tx[1:], tq[:-1], tq[1:]):
        if q0 == q1:
            total += abs(q0) ** p * (x1 - x0)
        else:
            slope = (q1 - q0) / (x1 - x0)
            num = (abs(q1) ** (p + 1) * math.copysign(1.0, q1)
                   - abs(q0) ** (p + 1) * math.copysign(1.0, q0))
            total += num / (slope * (p + 1))
    return float(total ** (1.0 / p))


@dataclass
class SLDiscretization:
    """Central-difference model of sgn(x) (-d2/dx2 + q) on [-L, L].

    The n interior grid points (n even) are symmetric about zero with no
    node at zero, Dirichlet conditions at +-L.  T is the Hermitian
    tridiagonal -D2 + diag(q); the weight is diag(sgn(x)); A is their
    product, a real nonsymmetric tridiagonal matrix.  Only the potential
    samples are stored: ``t_diagonals`` gives T's diagonals, A's are S times
    them, and the dense ``A`` and ``T`` are built anew on each access (oracles).
    """

    potential: Potential
    L: float
    n: int
    h: float
    grid_x: np.ndarray
    q_values: np.ndarray
    signs: np.ndarray

    @property
    def t_diagonals(self) -> tuple:
        """T's (main, off) diagonals: 2/h^2 + q and -1/h^2."""
        return (2.0 / self.h**2 + self.q_values,
                np.full(self.n - 1, -1.0 / self.h**2))

    @property
    def diagonals(self) -> tuple:
        """A's (main, upper, lower) diagonals, S times T's (exact: S is
        +-1); the upper one holds A[i, i+1] and the lower one A[i+1, i]."""
        (main, off), s = self.t_diagonals, self.signs
        return s * main, s[:-1] * off, s[1:] * off

    @property
    def A(self) -> np.ndarray:
        return _dense_tridiagonal(*self.diagonals)

    @property
    def T(self) -> np.ndarray:
        main, off = self.t_diagonals
        return _dense_tridiagonal(main, off, off)


def _dense_tridiagonal(main, upper, lower) -> np.ndarray:
    """Dense matrix with the given diagonals, filled into one zeros array."""
    out = np.zeros((main.size, main.size))
    np.fill_diagonal(out, main)
    np.fill_diagonal(out[:, 1:], upper)
    np.fill_diagonal(out[1:], lower)
    return out


def discretize(q: Potential, L: float = 30.0, n: int = 4000) -> SLDiscretization:
    """Build the finite-difference model.  n must be even (the grid then has
    no node at x = 0, so the sign weight needs no convention there)."""
    if not (L > 0 and math.isfinite(L)):
        raise ValueError(f"L > 0 required, got {L}")
    if n < 16 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 16, got {n}")
    guard_eig_memory("grid", n, 24 * n)  # grid_x, q_values and signs
    h = 2.0 * L / (n + 1)
    x = -L + h * np.arange(1, n + 1)
    return SLDiscretization(potential=q, L=L, n=n, h=h, grid_x=x,
                            q_values=q.values(x), signs=np.sign(x))


def guard_eig_memory(path: str, n: int, need: int) -> None:
    """Refuse, in integer arithmetic (any n), a working set of ``need``
    bytes above ``DENSE_EIG_MAX_BYTES``, before anything is allocated."""
    if need > DENSE_EIG_MAX_BYTES:
        raise ConfigError(
            f"{path} eigenvalues at n = {n} need about "
            f"{(need + 500_000) // 10**6} MB, above the limit "
            f"DENSE_EIG_MAX_BYTES = {(DENSE_EIG_MAX_BYTES + 500_000) // 10**6} MB")


def sl_eigenvalues(disc: SLDiscretization) -> np.ndarray:
    """All n eigenvalues of A by a dense eig: the certified solver's
    fallback, and the tests' oracle.  An eig whose working set would exceed
    ``DENSE_EIG_MAX_BYTES`` raises ``ConfigError`` before it starts."""
    guard_eig_memory("dense", disc.n, 16 * disc.n**2)
    return np.linalg.eigvals(disc.A)


def _sturm_counts(disc: SLDiscretization, points) -> tuple:
    """nu(lam) at each point, the number of negative LDL^T pivots of the
    symmetric tridiagonal pencil T - lam S (the Sturm count of LAPACK
    bisection), and whether a pivot there fell below pivmin (it is then
    replaced by -pivmin).

    The recurrence is one pass over the n grid rows per point.  Up to
    ``_STURM_SCALAR_POINTS`` points (kappa at 0, the bracket ends of the
    certified solver) run it point by point on Python floats, a fraction
    of a microsecond per row; more (``sl_sign_types``' n + 1 points) run
    it row by row with each step vectorized over all points, so the ten
    NumPy calls of a row (about 10 us for a few dozen points) are paid n
    times in all.  Python floats round as NumPy's element-wise operations
    in the same order, so both give the same counts and flags.
    """
    points = np.asarray(points, dtype=float)
    (t_main, t_off), signs = disc.t_diagonals, disc.signs
    t_off_sq = np.concatenate(([0.0], t_off**2))
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(t_off_sq)))
    if points.size <= _STURM_SCALAR_POINTS:
        negatives, singular = [], []
        for lam in points.tolist():
            pivot, count, tiny = 1.0, 0, False
            # memoryview yields the rows as Python floats without a list copy
            for d, s, e2 in zip(memoryview(t_main), memoryview(signs),
                                memoryview(t_off_sq)):
                pivot = d - e2 / pivot - s * lam
                if abs(pivot) < pivmin:
                    tiny, pivot = True, -pivmin
                if pivot < 0.0:
                    count += 1
            negatives.append(count)
            singular.append(tiny)
        return np.array(negatives, dtype=int), np.array(singular, dtype=bool)
    negatives = np.zeros(points.size, dtype=int)
    singular = np.zeros(points.size, dtype=bool)
    pivot = np.ones(points.size)
    for d, s, e2 in zip(t_main, signs, t_off_sq):
        pivot = d - e2 / pivot - s * points
        tiny = np.abs(pivot) < pivmin
        singular |= tiny
        pivot[tiny] = -pivmin
        negatives += pivot < 0.0
    return negatives, singular


def sl_sign_types(disc: SLDiscretization, real_sorted) -> np.ndarray:
    """Inertia jump nu(b) - nu(a) across each real eigenvalue: +1 for
    positive type, -1 for negative type, anything else when (a, b) does
    not isolate one simple eigenvalue.

    ``real_sorted`` holds all real eigenvalues in ascending order; a and b
    are consecutive ``inertia_points`` of it: midpoints and ends.
    nu(lam) is the Sturm count of ``_sturm_counts``; at an eigenvalue, the
    branch of the pencil's eigenvalues through zero has slope
    -(S v, v)/norm(v)^2.
    """
    return np.diff(_sturm_counts(disc, inertia_points(real_sorted))[0])


@dataclass(frozen=True)
class SLSpectrum:
    """The eigenvalues of A of non-positive T-type and the path that found
    them: the ``nonreal_pairs`` (P) non-real ones with Im > 0, sorted, then
    the W real ones of negative T-type, ascending, with inertia ``jumps``.
    ``kappa`` is the number of negative eigenvalues of T, and kappa = P + W
    on both paths, certified and dense (``_closed_spectrum``).  The
    certified solve adds its ``iterations`` and largest backward
    ``residual``, and a dense fallback its ``reason``.
    """

    path: str
    eigenvalues: np.ndarray
    kappa: int
    nonreal_pairs: int
    jumps: tuple = ()
    iterations: int = 0
    residual: float | None = None
    reason: str | None = None

    def diagnostics(self) -> dict:
        """Solver diagnostics for the run record."""
        return {"path": self.path, "kappa": self.kappa,
                "nonrealPairs": self.nonreal_pairs,
                "negativeTypeReal": len(self.jumps),
                "iterations": self.iterations, "maxResidual": self.residual,
                "fallbackReason": self.reason}


def _closed_spectrum(path: str, kappa: int, singular: bool, upper, real,
                     jumps, **solve) -> SLSpectrum:
    """The ``SLSpectrum`` of the candidates, certified by the count
    kappa = P + W; the one closing rule of both paths.

    ``kappa`` and ``singular`` are T's Sturm count at 0 and its flag,
    ``upper`` the non-real candidates with Im > 0 (P of them), ``real`` the
    real ones, ascending, with their inertia ``jumps``; W counts the reals
    whose jump is -sgn(lam), those of negative T-type.  Every counted
    candidate is a distinct eigenvalue of non-positive type, so
    P + W <= kappa, and equality means every other real candidate has
    positive type, whatever its jump.  A count that does not close, or a
    singular T, raises ``ArithmeticError`` naming P, W and kappa.
    """
    negative = jumps * np.sign(real) == -1
    pairs, w = int(upper.size), int(np.sum(negative))
    if singular or pairs + w != kappa:
        why = ("T is singular: a pivot of its Sturm count at 0 fell below "
               "pivmin" if singular else "count does not close")
        raise ArithmeticError(f"{why} on the {path} path: P + W = {pairs} + "
                              f"{w}, kappa = {kappa}")
    return SLSpectrum(path, np.concatenate((np.sort_complex(upper),
                                            real[negative])),
                      kappa=kappa, nonreal_pairs=pairs,
                      jumps=tuple(int(j) for j in jumps[negative]), **solve)


def _tridiagonal_matmul(main, off, x) -> np.ndarray:
    """T x for the symmetric tridiagonal T with the given diagonals."""
    y = main[:, None] * x
    y[:-1] += off[:, None] * x[1:]
    y[1:] += off[:, None] * x[:-1]
    return y


def _pencil_solve(main, off, signs, theta, rhs) -> np.ndarray:
    """(T - theta S)^-1 rhs by one banded LU."""
    from scipy.linalg import solve_banded  # imported on first use

    ab = np.zeros((3, main.size), dtype=np.result_type(theta, float))
    ab[0, 1:] = off
    ab[1] = main - theta * signs
    ab[2, :-1] = off
    return solve_banded((1, 1), ab, rhs)


def _orthonormal_extension(basis, new) -> np.ndarray:
    """``basis`` with the part of each column of ``new`` orthogonal to it
    appended.  Two Gram-Schmidt passes ("twice is enough"); a column that
    the second pass shrinks by half or more lies in the span to working
    precision and is dropped, as is a zero column."""
    for col in new.T:
        norms = []
        for _ in range(2):
            col = col - basis @ (basis.T @ col)
            norms.append(np.linalg.norm(col))
        if norms[1] > 0.5 * norms[0]:
            basis = np.column_stack((basis, col / norms[1]))
    return basis


def sl_certified_spectrum(disc: SLDiscretization) -> SLSpectrum:
    """The kappa eigenvalues of non-positive T-type, certified by the count
    kappa = P + W, in O(n) memory; reduced from a dense eig when it does not
    close, and refused (``ArithmeticError``) for a singular T.

    A = S T is self-adjoint in the indefinite form [f, g] = (T f, g), which
    has kappa negative squares, kappa the number of negative eigenvalues of
    T.  With T invertible and the eigenvalues simple, kappa = P + W, P the
    number of non-real conjugate pairs and W that of real eigenvalues of
    negative T-type (Iohvidov, Krein & Langer 1982; for the continuous
    problem P <= kappa is the bound of Behrndt, Katatbeh & Trunk 2009).

    kappa is the negative-pivot Sturm count of T at 0.  Rayleigh-Ritz on a
    real orthonormal basis Q, seeded with T's kappa negative eigenvectors
    and their images under T^-1 S, finds the targets: the Ritz values of
    the real symmetric pencil (Q^T T Q, Q^T S Q) with Im > 0, and the real
    ones with (T x, x) < 0.  By interlacing there are kappa of them.  Each
    target whose backward residual exceeds ``SL_RESIDUAL_TOL`` adds the real
    and imaginary parts of one shifted solve (T - theta S)^-1 S x to Q.
    The result is certified when every target has converged, the targets
    are distinct, none of the non-real ones lies within ``SL_REAL_TOL``
    of the real axis (the report would call it real), and the count closes
    (``_closed_spectrum``), W taken from the inertia jump across each real
    target's bracket (``SL_BRACKET_WIDTH``).  Otherwise the n eigenvalues
    of ``sl_eigenvalues`` are reduced by the same rule, and the result, on
    the dense path, carries the reason: one within ``SL_REAL_TOL (1 + |z|)``
    of the real axis counts as real and gets its ``sl_sign_types`` inertia
    jump, and a count that does not close raises ``ArithmeticError``.
    """
    from scipy.linalg import eig, eigh_tridiagonal  # imported on first use

    (t_main, t_off), s = disc.t_diagonals, disc.signs
    (kappa,), (singular,) = _sturm_counts(disc, [0.0])
    kappa = int(kappa)
    iterations, residual = 0, None

    def fallback(reason):
        evals = np.asarray(sl_eigenvalues(disc), dtype=complex)
        is_real = np.abs(evals.imag) <= SL_REAL_TOL * (1.0 + np.abs(evals))
        nonreal, real = evals[~is_real], np.sort(evals[is_real].real)
        return _closed_spectrum("dense", kappa, False,
                                nonreal[nonreal.imag > 0], real,
                                sl_sign_types(disc, real),
                                iterations=iterations, residual=residual,
                                reason=reason)

    if singular or kappa == 0:  # nothing to solve for, or no solve at 0
        none = np.zeros(0)
        return _closed_spectrum("certified", kappa, singular, none, none, none)
    t_norm = float(np.max(np.abs(t_main) + np.abs(np.append(t_off, 0.0))
                          + np.abs(np.insert(t_off, 0, 0.0))))
    _, vecs = eigh_tridiagonal(t_main, t_off, select="i",
                               select_range=(0, kappa - 1))
    basis = _orthonormal_extension(
        vecs, _pencil_solve(t_main, t_off, s, 0.0, s[:, None] * vecs))
    while True:
        iterations += 1
        t_basis = _tridiagonal_matmul(t_main, t_off, basis)
        t_ritz = basis.T @ t_basis
        s_ritz = basis.T @ (s[:, None] * basis)
        t_ritz = 0.5 * (t_ritz + t_ritz.T)
        theta, y = eig(t_ritz, 0.5 * (s_ritz + s_ritz.T))
        t_type = np.einsum("ij,ij->j", y.real, t_ritz @ y.real)
        targets = np.isfinite(theta) & (
            (theta.imag > 0) | ((theta.imag == 0) & (t_type < 0)))
        theta, x = theta[targets], basis @ y[:, targets]
        sx = s[:, None] * x
        x_norm = np.linalg.norm(x, axis=0)
        residuals = np.linalg.norm(
            _tridiagonal_matmul(t_main, t_off, x) - theta * sx,
            axis=0) / (t_norm * x_norm)
        residual = float(np.max(residuals, initial=0.0))
        open_targets = np.flatnonzero(residuals > SL_RESIDUAL_TOL)
        if not open_targets.size:
            break
        if iterations == SL_MAX_ITERATIONS:
            return fallback(f"not converged after {iterations} expansion "
                            f"rounds (max residual {residual:.1e})")
        steps = [_pencil_solve(t_main, t_off, s, theta[j], sx[:, j])
                 for j in open_targets]
        basis = _orthonormal_extension(
            basis, np.column_stack([part for z in steps
                                    for part in (z.real, z.imag)]))

    radius = (SL_BRACKET_WIDTH * t_norm * x_norm**2
              / np.abs(np.einsum("ij,ij->j", x, sx)))
    gaps = np.abs(theta[:, None] - theta) - (radius[:, None] + radius)
    np.fill_diagonal(gaps, np.inf)
    if np.any(gaps <= 0.0):
        return fallback("two Ritz values within their error radii")
    nonreal = theta.imag > 0
    near_real = nonreal & (theta.imag <= SL_REAL_TOL * (1.0 + np.abs(theta)))
    if np.any(near_real):
        return fallback(f"non-real eigenvalue {complex(theta[near_real][0])} "
                        f"within tol {SL_REAL_TOL} of the real axis")
    lam, width = theta[~nonreal].real, radius[~nonreal]
    order = np.argsort(lam)
    lam, width = lam[order], width[order]
    counts, _ = _sturm_counts(disc, np.column_stack(
        (lam - width, lam + width)).ravel())
    try:
        return _closed_spectrum("certified", kappa, singular, theta[nonreal],
                                lam, counts[1::2] - counts[::2],
                                iterations=iterations, residual=residual)
    except ArithmeticError as exc:
        return fallback(str(exc))


def containment_slack(disc: SLDiscretization, scale: float) -> float:
    """Region inflation max(SL_SLACK_FLOOR, h^2 sup|q| + exp(-L) scale).  It
    covers a Gaussian well's O(h^2) error, not a step well's O(h) one (22
    times it at n = 4000), which moves no verdict: step margins are <= -8."""
    q_sup = float(np.max(np.abs(disc.q_values)))
    return max(SL_SLACK_FLOOR, disc.h**2 * q_sup + math.exp(-disc.L) * scale)


def containment_report(disc: SLDiscretization, p: float) -> VerificationReport:
    """Check the non-real eigenvalues against the box and the competing
    region (inflated by the discretization slack), and the sign type of the
    real eigenvalues beyond the box.

    The eigenvalues of non-positive type come from ``sl_certified_spectrum``
    for every potential; on its certified path and on its dense fallback
    the count kappa = P + W must close, or ``ArithmeticError`` is raised.
    For an even potential the reflection x -> -x anticommutes with A and
    commutes with T, so lam and -conj(lam) are both among the kappa, and
    the table lists z, conj(z), -z and -conj(z).  Every real eigenvalue but
    the W of negative T-type then has sign type sgn(lam), so the sign claim
    beyond the box holds exactly when each of the W lies within
    |lam| <= reHalfWidth + slack.  ``eigenvalues`` lists the non-positive
    type (a non-real one for its conjugate pair), ``checks.spectrum`` the
    counts, the table both members of each pair; the solver's diagnostics
    are left in ``report.diagnostics`` for the run record.
    """
    q_norm = lp_norm(disc.potential, p)
    box = sl_box(p, q_norm)
    bst = bst_region(p, q_norm)
    slack = containment_slack(disc, max(1.0, box.re_half_width))
    spectrum = sl_certified_spectrum(disc)
    kind = disc.potential.kind
    report = VerificationReport(
        instance={"potential": kind, "L": disc.L, "n": disc.n, "p": p,
                  "depth": None if kind == "tabulated" else disc.potential.depth},
        bounds={"qNorm": q_norm, "imHalfHeight": box.im_half_height,
                "reHalfWidth": box.re_half_width, "bstIm": bst.im_bound,
                "bstAbs": bst.abs_bound, "slack": slack},
        diagnostics=spectrum.diagnostics())
    table, reach = [], box.re_half_width + slack
    evals = [complex(z) for z in spectrum.eigenvalues]
    pairs = spectrum.nonreal_pairs
    for z in evals[:pairs]:
        m_box, m_bst = box.margin(z), bst.margin(z)
        in_box, in_bst = m_box <= slack, m_bst <= slack
        report.add_nonreal(z, in_box and in_bst, max(m_box, m_bst),
                           {"lambda": [z.real, z.imag], "margin_box": m_box,
                            "margin_bst": m_bst}, count=2)
        row = {"re": z.real, "im": z.imag, "in_paper_box": in_box,
               "in_bst": in_bst, "margin_paper": m_box, "margin_bst": m_bst}
        table += [dict(row, im=-z.imag), row]
    for z, jump in zip(evals[pairs:], spectrum.jumps):
        # negative T-type: the test passes only inside the box
        lam, sign = z.real, float(jump)
        report.check_sign(lam, sign, lam > 0 if abs(lam) > reach else sign > 0)
        report.add_real(lam, sign)
    report.checks["spectrum"] = {
        "path": spectrum.path, "kappa": spectrum.kappa,
        "nonrealPairs": pairs, "negativeTypeReal": len(spectrum.jumps),
        "real": disc.n - 2 * pairs}
    report.checks["table"] = table
    report.summarize_sign_checks()
    return report


@dataclass(frozen=True)
class ProbeFunction:
    """Smooth decaying function with an exactly known second derivative.

    ``f`` and ``fpp`` are evaluated on arrays (``quad`` passes all the nodes
    of a round at once) and return arrays of the same shape.  Its norms do
    not depend on the exponent or the radius of a multiplier check, so each
    is computed once per probe: ``norm`` and ``fpp_norm`` are cached, and
    ``product_norm`` memoizes norm(f g) per potential g.
    """

    label: str
    f: object
    fpp: object
    window: float  # quadrature window half-width: values negligible beyond
    # where the first panels of ``norm`` and ``fpp_norm`` end
    points: tuple = ()
    # product_norm's memo, keyed by the frozen (hashable) Potential g
    _product_norms: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)

    @classmethod
    def gaussian(cls, alpha: float = 1.0, center: float = 0.0):
        if alpha <= 0:
            raise ValueError("alpha must be positive")

        def f(x):
            return np.exp(-alpha * (x - center) ** 2)

        def fpp(x):
            u = x - center
            return (4 * alpha**2 * u**2 - 2 * alpha) * np.exp(-alpha * u**2)

        # the center and center +- alpha^(-1/2) 4^k, k = 0, 1, ..., grade
        # the first panels toward a bump much narrower than the window
        window = abs(center) + math.sqrt(60.0 / alpha)
        scale = alpha ** -0.5
        grades = math.ceil(math.log(2.0 * window / scale, 4.0))
        steps = scale * 4.0 ** np.arange(grades)
        points = tuple(float(x) for x in
                       (center, *(center - steps), *(center + steps))
                       if abs(x) < window)
        return cls(label=f"gaussian(alpha={alpha}, center={center})",
                   f=f, fpp=fpp, window=window, points=points)

    @classmethod
    def hermite(cls, k: int):
        """Oscillator eigenfunction H_k(x) exp(-x^2/2); its second derivative
        is (x^2 - 2k - 1) times the function."""
        if k < 0:
            raise ValueError("k must be >= 0")
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0

        def f(x):
            return np.polynomial.hermite.hermval(x, coeffs) * np.exp(-x**2 / 2.0)

        def fpp(x):
            return (x**2 - 2.0 * k - 1.0) * f(x)

        window = math.sqrt(2.0 * (2 * k + 1)) + 12.0
        return cls(label=f"hermite({k})", f=f, fpp=fpp, window=window)

    @cached_property
    def norm(self) -> float:
        """L2 norm of f over the window, its first panels split at
        ``points``, computed once per probe; 0 raises QuadratureError."""
        return _l2_norm(self.f, self.window, self.points)

    @cached_property
    def fpp_norm(self) -> float:
        """L2 norm of f'' over the window, its first panels split at
        ``points``, computed once per probe; 0 raises QuadratureError."""
        return _l2_norm(self.fpp, self.window, self.points, side="fpp_norm")

    def product_norm(self, g: Potential) -> float:
        """L2 norm of f g over the wider of the probe's window and g's
        (30 widths, or the table's reach), computed once per equal-valued
        potential.  The quadrature's first panels end at g's kinks: the
        table abscissae for a tabulated g; for a closed-form well
        +-width 4^k, k = 0, 1, ..., inside the window, which are a step's
        jumps and grade the panels toward a well narrower than the window,
        so that no panel's nodes all miss it; and at the probe's ``points``,
        for a probe narrower than the well.  A quadrature whose value or
        error estimate is not finite, or whose error estimate exceeds
        ``LEMMA_QUAD_TOL`` of its value, raises ``QuadratureError`` and is
        not memoized."""
        if g not in self._product_norms:
            if g.kind == "tabulated":
                kinks = g.table[0]
                window = max(self.window, np.max(np.abs(kinks)), 1.0)
            else:
                window = max(self.window, 30.0 * g.width)
                grades = math.ceil(math.log(window / g.width, 4.0))
                steps = g.width * 4.0 ** np.arange(grades)
                kinks = np.concatenate([-steps, steps])
            self._product_norms[g] = _l2_norm(
                lambda x: self.f(x) * g.values(x), window,
                [*kinks, *self.points], side="lhs")
        return self._product_norms[g]


def _l2_norm(func, window: float, points=(), side: str = "norm") -> float:
    """L2 norm of func over [-window, window] by ``quad``, gated: a value or
    error estimate that is not finite, or an error estimate above
    LEMMA_QUAD_TOL of the value, raises QuadratureError, and so does a value
    of 0 unless side is "lhs" (a probe's norms are positive; f g may vanish)."""
    val, err = quad(lambda x: np.abs(func(x)) ** 2, -window, window, points)
    if not (math.isfinite(val) and math.isfinite(err) and val >= 0
            and (err <= LEMMA_QUAD_TOL * val if val > 0 else side == "lhs")):
        raise QuadratureError(
            f"{side} quadrature {val:.6g} with error estimate {err:.2e}")
    return math.sqrt(val)


def lemma_ls_check(f: ProbeFunction, g: Potential, p: float, r: float) -> dict:
    """Evaluate both sides of the multiplier inequality

        norm_2(f g) <= (2r)^(1/p) (norm_2(f) + norm_2(f'')/(2 sqrt(3) pi^2 p r^2)) norm_p(g)

    for r > 0 and p in [2, inf].  The left side is ``f.product_norm(g)``,
    one quadrature per probe and potential whatever p and r; the right side
    is closed-form.  Returns {"lhs", "rhs", "holds"}; the decision allows
    the relative slack ``LEMMA_SLACK``.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if not p >= 2:
        raise ValueError("p >= 2 required")
    lhs = f.product_norm(g)
    if math.isinf(p):
        rhs = f.norm * lp_norm(g, math.inf)
    else:
        rhs = ((2.0 * r) ** (1.0 / p)
               * (f.norm + f.fpp_norm / (2.0 * math.sqrt(3.0) * math.pi**2 * p * r**2))
               * lp_norm(g, p))
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + LEMMA_SLACK)}


def _hilbert_quotient(f1, f2, lo: float, hi: float, m: int) -> float:
    """One pass of tau0_hilbert_form's rule, m nodes a panel.

    P = max(4, ceil(decades TAU0_PANELS_PER_DECADE)) panels [rho_p, rho_p r],
    rho_p = lo r^p, r = (hi/lo)^(1/P); panel p holds the nodes rho_p xi and
    the weights rho_p omega of the m-point Gauss-Legendre rule (xi, omega) on
    [1, r].  Both kernels K are homogeneous of degree -1, so the kernel
    between panels p and p + d is G_d / rho_p, G_d[k, l] = K(xi_k, r^d xi_l):
    the N x N kernel matrix (N = P m) is block-Toeplitz up to the 1/rho_p
    rows, and no N x N array is built.  With U the N x 4 columns Re a, Im a,
    Re b, Im b (a = w f1, b = w f2) and U' the same with the halves swapped,
    II = tr(U^T K1 U) - tr(U^T K2 U'), as K2 is symmetric.  The block of
    panels (p + d, p) is the transpose of (p, p + d), so the lags d >= 0
    suffice, each d > 0 counted twice: lag d adds tr(S^T [G1_d, -G2_d]
    [U_d; U'_d]), one m x 2m block against U / rho_p on the panels p < P - d
    (S) and U, U' on the panels p + d.
    """
    decades = max(math.log10(hi / lo), 0.1)
    num_panels = max(4, math.ceil(decades * TAU0_PANELS_PER_DECADE))
    ratio = (hi / lo) ** (1.0 / num_panels)
    rho = lo * ratio ** np.arange(num_panels)
    xs, ws = _leggauss_cached(m)
    xi = 0.5 * (ratio + 1.0) + 0.5 * (ratio - 1.0) * xs
    weights = np.outer(rho, 0.5 * (ratio - 1.0) * ws).ravel()
    nodes = np.outer(rho, xi).ravel()
    v1 = np.asarray(f1(nodes), dtype=complex)
    v2 = (np.zeros_like(v1) if f2 is None
          else np.asarray(f2(nodes), dtype=complex))
    norm_sq = float(np.sum(weights * (np.abs(v1) ** 2 + np.abs(v2) ** 2)))
    if norm_sq <= 0:
        raise ValueError("probe has zero norm on its support")
    a, b = weights * v1, weights * v2
    cols = np.stack([a.real, a.imag, b.real, b.imag], axis=-1)
    cols = np.ascontiguousarray(  # (node, panel, column)
        cols.reshape(num_panels, m, 4).transpose(1, 0, 2))
    scaled = cols / rho[:, None]
    stacked = np.concatenate([cols, cols[..., [2, 3, 0, 1]]])
    ii = 0.0
    for d in range(num_panels):
        y = ratio ** d * xi
        xsum = xi[:, None] + y
        hyp = np.hypot(xi[:, None], y)  # x^2 + y^2 = hyp^2 without overflow
        block = np.hstack([1.0 / xsum, -xsum / hyp / hyp])
        part = float(np.einsum("kj,kj->",
                               scaled[:, :num_panels - d].reshape(m, -1),
                               block @ stacked[:, d:].reshape(2 * m, -1)))
        ii += part if d == 0 else 2.0 * part
    return 1.0 + (2.0 / math.pi) * ii / norm_sq


def tau0_hilbert_form(f1, f2, support: tuple) -> float:
    """Rayleigh quotient of the involution form on a split function (f1, f2)
    supported in (0, inf):

        q = 1 + (2/pi) * II / (norm(f1)^2 + norm(f2)^2),

    where II integrates (conj(f1(x)) f1(y) + conj(f2(x)) f2(y))/(x+y)
    minus 2 (x+y)/(x^2+y^2) Re(conj(f1(x)) f2(y)) over (0, inf)^2.
    Product Gauss-Legendre on TAU0_PANELS_PER_DECADE geometric panels a
    decade, m nodes a panel.  The kernels 1/(x+y) and (x+y)/(x^2+y^2) are
    homogeneous of degree -1, the Hilbert-type kernels of Hardy, Littlewood
    and Polya (Inequalities, ch. IX), so on geometric panels the kernel
    matrix is block-Toeplitz: m x m blocks, one per lag between the P
    panels, make up each quadratic form (``_hilbert_quotient``), and memory
    grows as N = P m, not N^2.  m doubles from 8 until the quotient
    stabilizes to TAU0_REL_TOL, else a QuadratureError is raised.

    ``f2 = None`` means the second component vanishes.
    """
    lo, hi = float(support[0]), float(support[1])
    if not (0.0 < lo < hi < math.inf and hi / lo < math.inf):
        raise ValueError(
            "support must satisfy 0 < lo < hi < inf with hi/lo finite")
    nodes = 8
    prev = _hilbert_quotient(f1, f2, lo, hi, nodes)
    for _ in range(4):
        nodes *= 2
        cur = _hilbert_quotient(f1, f2, lo, hi, nodes)
        if abs(cur - prev) <= TAU0_REL_TOL * max(abs(cur), 1.0):
            return cur
        prev = cur
    raise QuadratureError("Rayleigh-quotient quadrature did not stabilize")


def indicator_probe() -> tuple:
    """Constant window on [1, 2] in the first component only; the form value
    has the closed form 1 + (2/pi)(10 ln 2 - 6 ln 3)."""
    return (lambda x: np.ones_like(np.asarray(x, dtype=float)), None, (1.0, 2.0))


def extremizer_probe(x_max: float = 1e6) -> tuple:
    """Near-extremizer of the underlying convolution inequality:
    f1(x) = x^(-1/2) on [1, X], f2 = -f1.  The quotient grows towards the
    supremum like 1/log(X), so desk-scale X stays visibly below it."""
    if not x_max > 1.0:
        raise ValueError("x_max must exceed 1")
    f1 = lambda x: 1.0 / np.sqrt(np.asarray(x, dtype=float))
    f2 = lambda x: -1.0 / np.sqrt(np.asarray(x, dtype=float))
    return (f1, f2, (1.0, float(x_max)))


def _log_kernels(v):
    """The involution form's kernels in log variables at v >= 0:
    K1(v) = 1/(2 cosh(v/2)) and K2(v) = cosh(v/2)/cosh(v), written in
    e^(-v/2) so that no term overflows."""
    e = np.exp(-0.5 * v)
    e2 = e * e
    return e / (1.0 + e2), e * (1.0 + e2) / (1.0 + e2 * e2)


def tau0_profile_quotient(profile: str, x_max: float = 1e6) -> float:
    """Rayleigh quotient of the involution form on a named probe, the
    ``indicator`` (``indicator_probe``; ``x_max`` unused) or the
    ``extremizer`` on [1, x_max] (``extremizer_probe``), as one 1-D integral.

    With x = e^s and g_i(s) = e^(s/2) f_i(e^s), both kernels of
    ``tau0_hilbert_form`` are even functions K1, K2 of v = s - u
    (``_log_kernels``), so with R_ij the autocorrelation of g_i and g_j

        q = 1 + (2/pi) int [(R11 + R22) K1 - 2 Re R12 K2] dv / N,

    N = |g1|^2 + |g2|^2, the integral over the line.
    Both probes have a closed-form R on [0, l]: the extremizer has
    g1 = -g2 = 1 on [0, l], l = ln x_max, so R11 = R22 = -R12 = l - |v| and
    q = 1 + (4/(pi l)) int_0^l (l - v)(K1 + K2) dv; the indicator has
    g1 = e^(s/2) on [0, ln 2], g2 = 0 and |g1|^2 = 1, so
    R11 = 2 e^(-v/2) - e^(v/2).  The integrand is smooth and decays like
    e^(-v/2); ``quad`` evaluates it once, and an error estimate above
    TAU0_REL_TOL times the value raises QuadratureError.

    The Fourier transforms of K1 and K2 are k1(t) = pi / cosh(pi t) and
    k2(t) = sqrt(2) pi cosh(pi t/2) / cosh(pi t), so the form is
    multiplication by I + (2/pi) [[k1, -k2], [-k2, k1]] in the Mellin
    variable t.  Its top eigenvalue 1 + (2/pi)(k1 + k2) decreases in |t|
    from TAU0_UPPER_BOUND at t = 0, and both probes stay strictly below it.
    """
    if profile == "indicator":
        ell, scale = math.log(2.0), 4.0 / math.pi

        def integrand(v):
            r11 = 2.0 * np.exp(-0.5 * v) - np.exp(0.5 * v)
            return r11 * _log_kernels(v)[0]
    elif profile == "extremizer":
        if not 1.0 < x_max < math.inf:
            raise ValueError("x_max must be finite and exceed 1")
        ell = math.log(x_max)
        scale = 4.0 / (math.pi * ell)

        def integrand(v):
            k1, k2 = _log_kernels(v)
            return (ell - v) * (k1 + k2)
    else:
        raise ValueError(f"unknown tau0 profile {profile!r}")
    value, error = quad(integrand, 0.0, ell)
    if not error <= TAU0_REL_TOL * abs(value):
        raise QuadratureError(
            f"tau0 {profile} integral error estimate {error:.3g} exceeds "
            f"TAU0_REL_TOL of its value {value:.6g}")
    return 1.0 + scale * value
