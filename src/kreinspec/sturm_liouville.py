"""Indefinite Sturm-Liouville application: sgn(x) (-f'' + q f) on the line.

This module carries the concrete pipeline: the enclosure constants for
potentials measured in an L^p norm, the competing published region they are
compared against, finite-difference discretization with a sign-symmetric
grid, non-real eigenvalue extraction, containment reports, the multiplier
inequality checker, and the Rayleigh-quotient estimator for the norm of the
involution built from the unperturbed spectral projections.
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .geometry import SLBox
from .verification import VerificationReport

__all__ = [
    "QuadratureError",
    "SLConstants",
    "BstRegion",
    "Potential",
    "SLDiscretization",
    "ProbeFunction",
    "sl_constants",
    "sl_box",
    "enclosure_bounds_objective",
    "bst_region",
    "lp_norm",
    "discretize",
    "sl_eigenvalues",
    "sl_sign_types",
    "nonreal_spectrum",
    "containment_slack",
    "containment_report",
    "lemma_ls_check",
    "tau0_hilbert_form",
    "indicator_probe",
    "extremizer_probe",
    "TAU0_UPPER_BOUND",
]


class QuadratureError(ArithmeticError):
    """A quadrature did not reach its requested accuracy."""


SQRT2 = math.sqrt(2.0)
# sup of the Rayleigh quotient of the involution form: 3 + 2 sqrt(2)
TAU0_UPPER_BOUND = 3.0 + 2.0 * SQRT2


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

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return (abs(z.imag) <= self.im_bound + slack
                and abs(z) <= self.abs_bound + slack)

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
                   + gammaln(p - 0.5) - gammaln(p))
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
    return total ** (1.0 / p)


@dataclass
class SLDiscretization:
    """Central-difference model of sgn(x) (-d2/dx2 + q) on [-L, L].

    The n interior grid points (n even) are symmetric about zero with no
    node at zero, Dirichlet conditions at +-L.  T is the Hermitian
    tridiagonal -D2 + diag(q); the weight is diag(sgn(x)); A is their
    product, a real nonsymmetric tridiagonal matrix.  Only the potential
    samples are stored: every form of A derives from ``diagonals``, and
    the dense ``A`` and ``T`` are built anew on each access (test oracles).
    """

    potential: Potential
    L: float
    n: int
    h: float
    grid_x: np.ndarray
    q_values: np.ndarray
    signs: np.ndarray

    @property
    def diagonals(self) -> tuple:
        """A's (main, upper, lower) diagonals; the upper one holds
        A[i, i+1] and the lower one A[i+1, i]."""
        off = self.signs * (-1.0 / self.h**2)
        return self.signs * (2.0 / self.h**2 + self.q_values), off[:-1], off[1:]

    @property
    def A(self) -> np.ndarray:
        return _dense_tridiagonal(*self.diagonals)

    @property
    def T(self) -> np.ndarray:
        main, upper, lower = self.diagonals
        s = self.signs
        return _dense_tridiagonal(s * main, s[:-1] * upper, s[1:] * lower)

    @property
    def parity_symmetric(self) -> bool:
        q = self.q_values
        scale = max(float(np.max(np.abs(q))), 1.0)
        return bool(np.all(np.abs(q - q[::-1]) <= 1e-13 * scale))


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
    h = 2.0 * L / (n + 1)
    x = -L + h * np.arange(1, n + 1)
    return SLDiscretization(potential=q, L=L, n=n, h=h, grid_x=x,
                            q_values=q.values(x), signs=np.sign(x))


def _parity_eigenvalues(disc: SLDiscretization) -> np.ndarray:
    """Spectrum via the parity splitting, valid for even potentials.

    The reflection P anticommutes with A, so in the even/odd basis A is
    off-block [[0, B], [C, 0]] and its eigenvalues are the two square roots
    of each eigenvalue of the half-size product B C.  B and C equal the
    leading n/2 block of A up to one corner entry.
    """
    m = disc.n // 2
    main, upper, lower = disc.diagonals
    s_block = _dense_tridiagonal(main[:m], upper[:m - 1], lower[:m - 1])
    corner = upper[m - 1]  # entry A[m-1, m]
    b_block = s_block.copy()
    b_block[m - 1, m - 1] -= corner
    c_block = s_block.copy()
    c_block[m - 1, m - 1] += corner
    mu = np.linalg.eigvals(b_block @ c_block)
    roots = np.sqrt(mu.astype(complex))
    return np.concatenate([roots, -roots])


def sl_eigenvalues(disc: SLDiscretization, force_dense: bool = False) -> np.ndarray:
    """All eigenvalues of A, using the exact half-size parity reduction when
    the potential is even on the grid."""
    if disc.parity_symmetric and not force_dense:
        return _parity_eigenvalues(disc)
    return np.linalg.eigvals(disc.A)


def sl_sign_types(disc: SLDiscretization, real_sorted) -> np.ndarray:
    """Inertia jump nu(b) - nu(a) across each real eigenvalue: +1 for
    positive type, -1 for negative type, anything else when (a, b) does
    not isolate one simple eigenvalue.

    ``real_sorted`` holds all real eigenvalues in ascending order; a and b
    are the midpoints to the neighbours, 1.0 beyond the extreme ones.
    nu(lam) counts the negative LDL^T pivots of the symmetric tridiagonal
    pencil T - lam S (the Sturm count of LAPACK bisection, pivots below
    pivmin replaced by -pivmin); at an eigenvalue, the branch of the
    pencil's eigenvalues through zero has slope -(S v, v)/norm(v)^2.  The
    recurrence runs over the grid rows for all points at once.
    """
    lam = np.asarray(real_sorted, dtype=float)
    points = np.concatenate((lam[:1] - 1.0, 0.5 * (lam[:-1] + lam[1:]),
                             lam[-1:] + 1.0))
    main, upper, _ = disc.diagonals
    t_main = disc.signs * main
    t_off_sq = np.concatenate(([0.0], (disc.signs[:-1] * upper) ** 2))
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(t_off_sq)))
    negatives = np.zeros(points.size, dtype=int)
    pivot = np.ones(points.size)
    for d, s, e2 in zip(t_main, disc.signs, t_off_sq):
        pivot = d - e2 / pivot - s * points
        pivot[np.abs(pivot) < pivmin] = -pivmin
        negatives += pivot < 0.0
    return np.diff(negatives)


def nonreal_spectrum(disc: SLDiscretization, tol: float = 1e-8) -> list:
    """Eigenvalues with |Im| > tol (1 + |lam|), conjugate-paired and sorted.

    Raises when a non-real eigenvalue has no conjugate partner within the
    pairing tolerance: the computed spectrum then breaks the symmetry the
    operator guarantees, which signals a numerical problem.
    """
    evals = sl_eigenvalues(disc)
    flagged = [complex(z) for z in evals
               if abs(z.imag) > tol * (1.0 + abs(z))]
    unmatched = list(flagged)
    while unmatched:
        z = unmatched.pop()
        best = min(unmatched, key=lambda w: abs(w - z.conjugate()), default=None)
        if best is None or abs(best - z.conjugate()) > 1e-6 * (1.0 + abs(z)):
            raise ArithmeticError(
                f"non-real eigenvalue {z} has no conjugate partner")
        unmatched.remove(best)
    return sorted(flagged, key=lambda z: (z.real, z.imag))


def containment_slack(disc: SLDiscretization, scale: float,
                      c: float = 1.0, kappa: float = 1.0) -> float:
    """Region inflation for discretized eigenvalues: the continuous statement
    is exact, the discretization is a proxy with O(h^2) consistency error and
    an exponentially small domain-truncation term."""
    q_sup = float(np.max(np.abs(disc.q_values)))
    return max(1e-6, c * disc.h**2 * q_sup + math.exp(-kappa * disc.L) * scale)


def containment_report(disc: SLDiscretization, p: float,
                       slack_c: float = 1.0, slack_kappa: float = 1.0,
                       tol: float = 1e-8) -> VerificationReport:
    """Check all non-real eigenvalues against the box and the competing
    region (inflated by the discretization slack), and the sign type of
    real eigenvalues beyond the box by ``sl_sign_types``."""
    q_norm = lp_norm(disc.potential, p)
    box = sl_box(p, q_norm)
    bst = bst_region(p, q_norm)
    slack = containment_slack(disc, max(1.0, box.re_half_width),
                              c=slack_c, kappa=slack_kappa)
    evals = [complex(z) for z in sl_eigenvalues(disc)]
    real = sorted((i for i, z in enumerate(evals)
                   if abs(z.imag) <= tol * (1.0 + abs(z))),
                  key=lambda i: evals[i].real)
    jumps = dict(zip(real, sl_sign_types(disc, [evals[i].real for i in real])))
    report = VerificationReport(
        instance={"potential": disc.potential.kind,
                  "depth": getattr(disc.potential, "depth", None),
                  "L": disc.L, "n": disc.n, "p": p},
        bounds={"qNorm": q_norm, "imHalfHeight": box.im_half_height,
                "reHalfWidth": box.re_half_width, "bstIm": bst.im_bound,
                "bstAbs": bst.abs_bound, "slack": slack})
    table = []
    for i, z in enumerate(evals):
        if i not in jumps:
            m_box = box.margin(z)
            m_bst = bst.margin(z)
            in_box = m_box <= slack
            in_bst = m_bst <= slack
            report.add_nonreal(z, in_box and in_bst, max(m_box, m_bst),
                               {"lambda": [z.real, z.imag], "margin_box": m_box,
                                "margin_bst": m_bst})
            table.append({"re": z.real, "im": z.imag, "in_paper_box": in_box,
                          "in_bst": in_bst, "margin_paper": m_box,
                          "margin_bst": m_bst})
            continue
        lam, sign = z.real, None
        if abs(lam) > box.re_half_width + slack:
            if abs(jumps[i]) == 1:
                sign = float(jumps[i])
                report.check_sign(lam, sign, lam > 0)
            else:
                report.add_indeterminate(lam, f"net inertia jump {jumps[i]}")
        report.add_real(lam, sign)
    report.checks["table"] = table
    report.summarize_sign_checks()
    return report


@dataclass(frozen=True)
class ProbeFunction:
    """Smooth decaying function with an exactly known second derivative."""

    label: str
    f: object
    fpp: object
    window: float  # quadrature window half-width: values negligible beyond

    @classmethod
    def gaussian(cls, alpha: float = 1.0, center: float = 0.0):
        if alpha <= 0:
            raise ValueError("alpha must be positive")

        def f(x):
            return np.exp(-alpha * (x - center) ** 2)

        def fpp(x):
            u = x - center
            return (4 * alpha**2 * u**2 - 2 * alpha) * np.exp(-alpha * u**2)

        window = abs(center) + math.sqrt(60.0 / alpha)
        return cls(label=f"gaussian(alpha={alpha}, center={center})",
                   f=f, fpp=fpp, window=window)

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


def _l2_norm(func, window: float, rel_tol: float = 1e-8) -> float:
    val, err = quad(lambda x: abs(func(x)) ** 2, -window, window,
                    limit=400, epsabs=0.0, epsrel=1e-12)
    if val < 0 or (val > 0 and err > rel_tol * val):
        raise QuadratureError(f"norm quadrature error {err:.2e} too large")
    return math.sqrt(val)


def lemma_ls_check(f: ProbeFunction, g: Potential, p: float, r: float) -> dict:
    """Evaluate both sides of the multiplier inequality

        norm_2(f g) <= (2r)^(1/p) (norm_2(f) + norm_2(f'')/(2 sqrt(3) pi^2 p r^2)) norm_p(g)

    for r > 0 and p in [2, inf]; the left side is computed by quadrature.
    Returns {"lhs", "rhs", "holds"} with a 1e-6 relative decision slack.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if not p >= 2:
        raise ValueError("p >= 2 required")
    g_window = (max(np.max(np.abs(g.table[0])), 1.0) if g.kind == "tabulated"
                else 30.0 * g.width)
    window = max(f.window, g_window)
    lhs_sq, err = quad(lambda x: abs(f.f(x) * g.values(x)) ** 2,
                       -window, window, limit=800, epsabs=0.0, epsrel=1e-12,
                       points=None)
    if lhs_sq > 0 and err > 1e-8 * lhs_sq:
        raise QuadratureError(f"lhs quadrature error {err:.2e} too large")
    lhs = math.sqrt(max(lhs_sq, 0.0))
    f_norm = _l2_norm(f.f, f.window)
    fpp_norm = _l2_norm(f.fpp, f.window)
    if math.isinf(p):
        rhs = f_norm * lp_norm(g, math.inf)
    else:
        rhs = ((2.0 * r) ** (1.0 / p)
               * (f_norm + fpp_norm / (2.0 * math.sqrt(3.0) * math.pi**2 * p * r**2))
               * lp_norm(g, p))
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + 1e-6)}


def _panel_nodes(lo: float, hi: float, panels_per_decade: int,
                 nodes_per_panel: int) -> tuple:
    decades = max(math.log10(hi / lo), 0.1)
    num_panels = max(4, math.ceil(decades * panels_per_decade))
    edges = np.geomspace(lo, hi, num_panels + 1)
    xs, ws = np.polynomial.legendre.leggauss(nodes_per_panel)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * xs)
        weights.append(half * ws)
    return np.concatenate(nodes), np.concatenate(weights)


def tau0_hilbert_form(f1, f2, support: tuple, rel_tol: float = 1e-6,
                      panels_per_decade: int = 8) -> float:
    """Rayleigh quotient of the involution form on a split function (f1, f2)
    supported in (0, inf):

        q = 1 + (2/pi) * II / (norm(f1)^2 + norm(f2)^2),

    where II integrates (conj(f1(x)) f1(y) + conj(f2(x)) f2(y))/(x+y)
    minus 2 (x+y)/(x^2+y^2) Re(conj(f1(x)) f2(y)) over (0, inf)^2.
    Product Gauss-Legendre on logarithmic panels; node counts double until
    the quotient stabilizes to rel_tol, else a QuadratureError is raised.

    ``f2 = None`` means the second component vanishes.
    """
    lo, hi = float(support[0]), float(support[1])
    if not (0.0 < lo < hi < math.inf):
        raise ValueError("support must satisfy 0 < lo < hi < inf")

    def quotient(nodes_per_panel: int) -> float:
        xs, ws = _panel_nodes(lo, hi, panels_per_decade, nodes_per_panel)
        v1 = np.asarray(f1(xs), dtype=complex)
        v2 = (np.zeros_like(v1) if f2 is None
              else np.asarray(f2(xs), dtype=complex))
        n1 = float(np.sum(ws * np.abs(v1) ** 2))
        n2 = float(np.sum(ws * np.abs(v2) ** 2))
        if n1 + n2 <= 0:
            raise ValueError("probe has zero norm on its support")
        xsum = xs[:, None] + xs[None, :]
        k1 = 1.0 / xsum
        k2 = xsum / (np.square(xs)[:, None] + np.square(xs)[None, :])
        w1 = ws * v1.conj()
        w2 = ws * v2.conj()
        term_diag = np.real((w1[:, None] * (ws * v1)[None, :]
                             + w2[:, None] * (ws * v2)[None, :]) * k1)
        term_cross = np.real(w1[:, None] * (ws * v2)[None, :]) * k2
        ii = float(np.sum(term_diag) - 2.0 * np.sum(term_cross))
        return 1.0 + (2.0 / math.pi) * ii / (n1 + n2)

    nodes = 8
    prev = quotient(nodes)
    for _ in range(4):
        nodes *= 2
        cur = quotient(nodes)
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1.0):
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
