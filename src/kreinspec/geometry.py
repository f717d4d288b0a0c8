"""Closed-form spectral-enclosure regions in the complex plane.

The regions handled here are unions of closed disks centered on a real set,

    R = union over t in C of B_r(t),   r(t) = sqrt(rho * (a + b t^2)),

together with the parabola-like hull { (Im z)^2 <= a + b/(1-b) (Re z)^2 }
and axis-aligned rectangles.  The pair (a, b) is a relative bound
(norm^2 of a perturbation against norm^2 of the unperturbed operator),
the center set C models a real spectrum, and rho is an optional radius
rescaling.  Membership decisions are made on the polynomial

    g(t) = |z - t|^2 - rho * (a + b t^2),

which is quadratic in t, so the exact minimum over an interval of centers
is available in closed form.  Signed margins use the metric form
|z - t| - r(t) minimized numerically over the centers.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

__all__ = [
    "RelBound",
    "SpectrumModel",
    "DiskFamilyRegion",
    "PhiProfile",
    "SLBox",
    "Membership",
    "phi",
    "phi_extrema",
    "sup_resolvent_factor_bound",
    "disk_region_membership",
    "hull_membership",
    "prior_hull_membership",
    "hull_height",
    "prior_hull_height",
    "hull_tangency",
    "smallerb_threshold",
    "tmain_regions",
    "boundary_polyline",
    "region_to_json",
    "polyline_to_csv",
]

# b is rejected this close to 1: all enclosure formulas degenerate there.
_B_CAP = 1.0 - 1e-12


@dataclass(frozen=True)
class RelBound:
    """Coefficients (a, b) of ``norm(Tf)^2 <= a norm(f)^2 + b norm(Sf)^2``."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise ValueError(f"relative bound needs a >= 0, got a={self.a}")
        if not (math.isfinite(self.b) and 0.0 <= self.b < _B_CAP):
            raise ValueError(f"relative bound needs 0 <= b < 1, got b={self.b}")


@dataclass(frozen=True)
class SpectrumModel:
    """A closed subset of the real line: intervals plus isolated points.

    The representation is normalized on construction: intervals are sorted
    and merged, points lying inside an interval are absorbed, degenerate
    intervals collapse to points.  Endpoints may be ``-inf``/``inf``.
    """

    intervals: tuple = ()
    points: tuple = ()

    def __post_init__(self):
        ivs = []
        for lo, hi in self.intervals:
            lo, hi = float(lo), float(hi)
            if math.isnan(lo) or math.isnan(hi) or lo > hi:
                raise ValueError(f"bad interval [{lo}, {hi}]")
            if lo == hi:
                if not math.isfinite(lo):
                    raise ValueError("interval collapsed at infinity")
                object.__setattr__(self, "points", tuple(self.points) + (lo,))
            else:
                ivs.append((lo, hi))
        ivs.sort()
        merged = []
        for lo, hi in ivs:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        pts = sorted(
            {float(p) for p in self.points}
            - {p for p in self.points for lo, hi in merged if lo <= p <= hi}
        )
        for p in pts:
            if not math.isfinite(p):
                raise ValueError("spectrum points must be finite")
        object.__setattr__(self, "intervals", tuple(merged))
        object.__setattr__(self, "points", tuple(pts))
        if not self.intervals and not self.points:
            raise ValueError("empty spectrum model")

    @classmethod
    def real_line(cls):
        return cls(intervals=((-math.inf, math.inf),))

    @classmethod
    def half_line_below(cls, gamma):
        return cls(intervals=((-math.inf, float(gamma)),))

    @classmethod
    def half_line_above(cls, gamma):
        return cls(intervals=((float(gamma), math.inf),))

    @classmethod
    def interval(cls, lo, hi):
        return cls(intervals=((float(lo), float(hi)),))

    @classmethod
    def from_points(cls, values):
        return cls(points=tuple(float(v) for v in values))

    @property
    def bounded(self) -> bool:
        return all(math.isfinite(lo) and math.isfinite(hi) for lo, hi in self.intervals)

    @property
    def max_abs(self) -> float:
        best = max((abs(p) for p in self.points), default=0.0)
        for lo, hi in self.intervals:
            best = max(best, abs(lo), abs(hi))
        return best

    def contains(self, x: float) -> bool:
        if any(lo <= x <= hi for lo, hi in self.intervals):
            return True
        return any(x == p for p in self.points)

    def distance(self, x: float) -> float:
        d = min((abs(x - p) for p in self.points), default=math.inf)
        for lo, hi in self.intervals:
            if lo <= x <= hi:
                return 0.0
            d = min(d, abs(x - lo) if math.isfinite(lo) else math.inf,
                    abs(x - hi) if math.isfinite(hi) else math.inf)
        return d


@dataclass(frozen=True)
class DiskFamilyRegion:
    """Union of closed disks B_{sqrt(rho (a + b t^2))}(t) over a real center set."""

    bound: RelBound
    centers: SpectrumModel
    radius_scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.radius_scale) and self.radius_scale > 0.0):
            raise ValueError(f"radius_scale > 0 required, got {self.radius_scale}")
        if self.radius_scale * self.bound.b >= 1.0 and not self.centers.bounded:
            raise ValueError(
                "radius_scale * b >= 1 with unbounded centers: region covers a "
                "neighborhood of infinity and has no outer boundary"
            )

    def radius(self, t):
        """Disk radius at center t (vectorized)."""
        return np.sqrt(self.radius_scale * (self.bound.a + self.bound.b * np.square(t)))

    @property
    def real_extent(self) -> tuple:
        """Smallest interval [xmin, xmax] containing the region's real section."""
        xmin, xmax = math.inf, -math.inf
        for p in self.centers.points:
            xmin = min(xmin, p - float(self.radius(p)))
            xmax = max(xmax, p + float(self.radius(p)))
        for lo, hi in self.centers.intervals:
            if not math.isfinite(lo):
                xmin = -math.inf
            else:
                xmin = min(xmin, _extremal_reach(self, lo, hi, side=-1))
            if not math.isfinite(hi):
                xmax = math.inf
            else:
                xmax = max(xmax, _extremal_reach(self, lo, hi, side=+1))
        return (xmin, xmax)


def _extremal_reach(region, lo, hi, side):
    """min of t - r(t) (side=-1) or max of t + r(t) (side=+1) over [lo, hi]."""
    if region.radius_scale * region.bound.b < 1.0:
        # |r'(t)| <= sqrt(rho b) < 1, so t +- r(t) is monotone increasing
        t = hi if side > 0 else lo
        return t + side * float(region.radius(t))

    def objective(t):
        return side * t + float(region.radius(t))

    res = minimize_scalar(lambda t: -objective(t), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12 * (1.0 + abs(lo) + abs(hi))})
    cand = [objective(lo), objective(hi), objective(res.x)]
    return side * max(cand)


@dataclass(frozen=True)
class PhiProfile:
    """Global behaviour of t -> (a + b t^2) / |t - z|^2 along the real line."""

    m_lambda: float | None
    t_max: float | None
    t_min: float | None
    sup_over_reals: float
    branch: str  # one of: b-zero, re-nonzero, re-zero-min, re-zero-max, constant


@dataclass(frozen=True)
class SLBox:
    """Rectangle symmetric about both axes: |Im z| <= im half-height, |Re z| <= re half-width."""

    im_half_height: float
    re_half_width: float

    def __post_init__(self):
        if self.im_half_height < 0 or self.re_half_width < 0:
            raise ValueError("box half-dimensions must be >= 0")

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return (abs(z.imag) <= self.im_half_height + slack
                and abs(z.real) <= self.re_half_width + slack)

    def margin(self, z: complex) -> float:
        """Signed: <= 0 inside, max of the two per-axis excesses."""
        return max(abs(z.imag) - self.im_half_height, abs(z.real) - self.re_half_width)


@dataclass(frozen=True)
class Membership:
    inside: bool
    margin: float


def phi(bound: RelBound, lam: complex, t: float) -> float:
    """Ratio (a + b t^2) / |t - lam|^2, the squared local disk-test function.

    Raises ValueError when t coincides with lam (only possible for real lam).
    """
    lam = complex(lam)
    if abs(t) > 1e150:
        # rescale to avoid inf/inf; the limit towards infinity is b
        u = 1.0 / t
        return ((bound.a * u * u + bound.b)
                / ((1.0 - lam.real * u) ** 2 + (lam.imag * u) ** 2))
    den = (t - lam.real) ** 2 + lam.imag**2
    if den == 0.0:
        raise ValueError(f"phi undefined at t == lambda == {t}")
    return (bound.a + bound.b * t * t) / den


def phi_extrema(bound: RelBound, lam: complex) -> PhiProfile:
    """Locate the global extrema of t -> phi(bound, lam, t) for non-real lam.

    Branch dispatch:

    * b = 0: single global maximum at t = Re lam, no minimum.
    * b > 0, Re lam != 0: with m = (b |lam|^2 - a) / (2 b Re lam), the value
      phi(m) equals b and the extrema sit at m +- sgn(Re lam) sqrt(a/b + m^2).
    * b > 0, Re lam = 0: a single extremum at t = 0, a minimum when
      (Im lam)^2 > a/b, a maximum when (Im lam)^2 < a/b, and the constant
      profile phi == b at equality.
    """
    lam = complex(lam)
    if lam.imag == 0.0:
        raise ValueError("phi_extrema requires a non-real point")
    a, b = bound.a, bound.b
    x, y = lam.real, lam.imag
    if b == 0.0:
        return PhiProfile(m_lambda=None, t_max=x, t_min=None,
                          sup_over_reals=a / (y * y), branch="b-zero")
    if x != 0.0:
        m = (b * abs(lam) ** 2 - a) / (2.0 * b * x)
        half = math.sqrt(a / b + m * m)
        sgn = 1.0 if x > 0 else -1.0
        t_max = m + sgn * half
        t_min = m - sgn * half
        return PhiProfile(m_lambda=m, t_max=t_max, t_min=t_min,
                          sup_over_reals=phi(bound, lam, t_max), branch="re-nonzero")
    ratio = a / b
    if y * y > ratio:
        return PhiProfile(m_lambda=None, t_max=None, t_min=0.0,
                          sup_over_reals=b, branch="re-zero-min")
    if y * y < ratio:
        return PhiProfile(m_lambda=None, t_max=0.0, t_min=None,
                          sup_over_reals=a / (y * y), branch="re-zero-max")
    return PhiProfile(m_lambda=None, t_max=None, t_min=None,
                      sup_over_reals=b, branch="constant")


def _phi_critical_points(bound: RelBound, lam: complex) -> list:
    """Real critical points of phi(bound, lam, .), valid for any lam off the set."""
    a, b = bound.a, bound.b
    x = complex(lam).real
    if b == 0.0:
        return [x]
    if x == 0.0:
        return [0.0]
    m = (b * abs(lam) ** 2 - a) / (2.0 * b * x)
    half = math.sqrt(a / b + m * m)
    return [m - half, m + half]


def sup_resolvent_factor_bound(bound: RelBound, spectrum: SpectrumModel,
                               lam: complex) -> float:
    """Exact sup of sqrt(phi_lam) over the spectrum model.

    Per interval the candidates are the clamped interior critical points and
    the finite endpoints; unbounded intervals contribute the tail limit
    sqrt(b).  No sampling: the result is exact up to floating error.
    This value bounds the norm of T (S - lam)^{-1} whenever (a, b) is a
    relative bound of T against the self-adjoint S with spectrum in the model.
    """
    lam = complex(lam)
    if lam.imag == 0.0 and spectrum.contains(lam.real):
        raise ValueError(f"lambda = {lam} lies in the spectrum model")
    best = 0.0
    for p in spectrum.points:
        best = max(best, phi(bound, lam, p))
    crits = _phi_critical_points(bound, lam)
    for lo, hi in spectrum.intervals:
        for c in crits:
            if lo < c < hi:
                best = max(best, phi(bound, lam, c))
        for end in (lo, hi):
            if math.isfinite(end):
                best = max(best, phi(bound, lam, end))
            else:
                best = max(best, bound.b)
    return math.sqrt(best)


def _min_g_on_interval(region: DiskFamilyRegion, lam: complex, lo: float,
                       hi: float) -> float:
    """Exact min over [lo, hi] of g(t) = |lam - t|^2 - rho (a + b t^2)."""
    a, b = region.bound.a, region.bound.b
    rho = region.radius_scale
    x, y = lam.real, lam.imag
    lead = 1.0 - rho * b

    def g(t):
        return (t - x) ** 2 + y * y - rho * (a + b * t * t)

    cands = []
    if lead > 0.0:
        cands.append(min(max(x / lead, lo), hi))
    else:
        # concave (or linear) in t: minimum at an endpoint; endpoints are
        # finite here because unbounded centers with rho*b >= 1 are rejected
        cands.extend([lo, hi])
    if math.isfinite(lo):
        cands.append(lo)
    if math.isfinite(hi):
        cands.append(hi)
    return min(g(t) for t in cands)


def _metric_margin_on_interval(region: DiskFamilyRegion, lam: complex, lo: float,
                               hi: float) -> float:
    """min over centers t in [lo, hi] of |lam - t| - r(t), by bounded minimization."""
    x, y = lam.real, lam.imag
    rho_b = region.radius_scale * region.bound.b

    def h(t):
        return math.hypot(t - x, y) - float(region.radius(t))

    lead = 1.0 - rho_b
    seed = min(max(x / lead if lead > 0 else x, lo), hi)
    h_seed = h(seed)
    if not math.isfinite(lo) or not math.isfinite(hi):
        # h(t) >= (1 - sqrt(rho b)) |t| - |x| - sqrt(rho a); clip the search
        # window where h provably exceeds the seed value
        gate = 1.0 - math.sqrt(rho_b)
        reach = (abs(h_seed) + abs(x) + math.sqrt(region.radius_scale * region.bound.a)
                 + 1.0) / gate
        lo = max(lo, seed - reach)
        hi = min(hi, seed + reach)
    if hi - lo < 1e-300:
        return h_seed
    res = minimize_scalar(h, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12 * (1.0 + abs(lo) + abs(hi))})
    best = min(h_seed, h(lo), h(hi), float(res.fun))
    # bounded Brent can miss a second basin; a coarse scan guards against it
    ts = np.linspace(lo, hi, 33)
    scan = np.hypot(ts - x, y) - region.radius(ts)
    k = int(np.argmin(scan))
    if scan[k] < best:
        res2 = minimize_scalar(h, bounds=(ts[max(k - 1, 0)], ts[min(k + 1, 32)]),
                               method="bounded", options={"xatol": 1e-12 * (1.0 + abs(lo) + abs(hi))})
        best = min(best, float(res2.fun))
    return best


def _min_g(region: DiskFamilyRegion, lam: complex) -> float:
    """Exact min over all centers of g(t) = |lam - t|^2 - rho (a + b t^2)."""
    min_g = math.inf
    for p in region.centers.points:
        min_g = min(min_g, abs(lam - p) ** 2 - region.radius_scale
                    * (region.bound.a + region.bound.b * p * p))
    for lo, hi in region.centers.intervals:
        min_g = min(min_g, _min_g_on_interval(region, lam, lo, hi))
    return min_g


def disk_region_membership(region: DiskFamilyRegion, lam: complex,
                           slack: float = 0.0) -> Membership:
    """Decide lam in region, with a signed metric margin.

    The inside/outside decision uses the square-root-free polynomial g(t)
    (exact for the closed region, the default ``slack = 0``); the margin is
    the minimum of |lam - t| - r(t) over the centers, so margin <= 0 iff
    inside.  A positive ``slack`` moves the decision to the metric margin,
    accepting points within that distance of the region.
    """
    lam = complex(lam)
    margin = math.inf
    for p in region.centers.points:
        margin = min(margin, abs(lam - p) - float(region.radius(p)))
    for lo, hi in region.centers.intervals:
        margin = min(margin, _metric_margin_on_interval(region, lam, lo, hi))
    inside = _min_g(region, lam) <= 0.0
    if inside and margin > 0.0:
        margin = 0.0
    elif not inside and margin < 0.0:
        margin = 0.0
    if slack > 0.0:
        inside = margin <= slack
    return Membership(inside=inside, margin=margin)


def hull_membership(bound: RelBound, lam: complex) -> bool:
    """(Im lam)^2 <= a + b/(1-b) (Re lam)^2 — the hull of all disks over t in R."""
    lam = complex(lam)
    return lam.imag**2 <= bound.a + bound.b / (1.0 - bound.b) * lam.real**2


def prior_hull_membership(bound: RelBound, lam: complex) -> bool:
    """(Im lam)^2 <= (a + b (Re lam)^2)/(1-b) — the coarser envelope the hull sharpens."""
    lam = complex(lam)
    return lam.imag**2 <= (bound.a + bound.b * lam.real**2) / (1.0 - bound.b)


def hull_height(bound: RelBound, x):
    """Boundary height of the hull at abscissa x (vectorized)."""
    return np.sqrt(bound.a + bound.b / (1.0 - bound.b) * np.square(x))


def prior_hull_height(bound: RelBound, x):
    return np.sqrt((bound.a + bound.b * np.square(x)) / (1.0 - bound.b))


def hull_tangency(bound: RelBound, t0: float) -> float:
    """Abscissa where the disk centered at t0 touches the hull boundary.

    The contact point is t1 = (1-b) t0; since (t1-t0)^2 = b^2 t0^2 <= b t0^2,
    t1 always lies in the disk's real section.
    """
    return (1.0 - bound.b) * t0


def smallerb_threshold(bound: RelBound, gamma: float) -> float:
    """Modulus gamma + sqrt(gamma^2 + a/b) beyond which the factor norm^2 drops to b.

    Applies to spectra bounded above by gamma and points with Re lam >= 0
    (mirror for spectra bounded below).  Undefined at b = 0, where the norm
    decays like a/dist^2 instead of saturating.
    """
    if bound.b == 0.0:
        raise ValueError("threshold undefined for b = 0")
    return gamma + math.sqrt(gamma * gamma + bound.a / bound.b)


def tmain_regions(a: float, b: float, tau: float, v: float) -> dict:
    """Enclosure data for a relatively bounded perturbation of a definitizable
    diagonal part: half-width gamma and the two disk-family regions.

    gamma = min( sqrt((1+tau) a / (2 tau)), -(1+tau) v / 2 ) with v < 0 the
    lower bound of the perturbation in the indefinite inner product.  The
    plain region uses radii sqrt(a + b t^2); the sharper region exists iff
    b < (tau-1)/(2 tau) and rescales the radii by (1+tau)/(2 tau (1-b)).
    """
    bound = RelBound(a, b)
    if not (math.isfinite(tau) and tau >= 1.0):
        raise ValueError(f"tau >= 1 required, got {tau}")
    if not v < 0.0:
        raise ValueError("tmain_regions expects v < 0; for v >= 0 the perturbed "
                         "operator keeps a real spectrum and no region is needed")
    gamma = min(math.sqrt((1.0 + tau) * a / (2.0 * tau)), -(1.0 + tau) * v / 2.0)
    centers = (SpectrumModel.from_points([0.0]) if gamma == 0.0
               else SpectrumModel.interval(-gamma, gamma))
    worse = DiskFamilyRegion(bound=bound, centers=centers, radius_scale=1.0)
    better = None
    if b < (tau - 1.0) / (2.0 * tau):
        better = DiskFamilyRegion(bound=bound, centers=centers,
                                  radius_scale=(1.0 + tau) / (2.0 * tau * (1.0 - b)))
    return {"gamma": gamma, "worse": worse, "better": better}


def _bisect_boundary_height(region: DiskFamilyRegion, x: float, y_hi: float) -> float:
    """Largest y >= 0 with x + iy inside the region, via monotone bisection."""
    lo, hi = 0.0, y_hi
    while not not_inside(region, x, hi):
        hi *= 2.0
        if hi > 1e30:
            raise ValueError("region appears unbounded in the imaginary direction")
    tol = 1e-10 * (1.0 + math.hypot(x, hi))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not_inside(region, x, mid):
            hi = mid
        else:
            lo = mid
    y = 0.5 * (lo + hi)
    return 0.0 if y <= tol else y


def not_inside(region: DiskFamilyRegion, x: float, y: float) -> bool:
    # decision only (no margin): the polynomial test is cheap and exact
    return _min_g(region, complex(x, y)) > 0.0


def _clearly_outside(region: DiskFamilyRegion, x: float) -> bool:
    # tolerant gate for sampling: keeps boundary-exact abscissae (the
    # region's real extremes land here with g ~ 1e-14 from rounding)
    return _min_g(region, complex(x, 0.0)) > 1e-12 * (1.0 + abs(x)) ** 2


def boundary_polyline(region, resolution: int = 256, re_window=None) -> list:
    """Sample the upper-half boundary of a region as a list of complex points.

    Consumers mirror across the real axis for the full closed curve.  For a
    disk-family region the height at each abscissa is found by bisection on
    the membership margin; rectangles and hulls use their closed forms.
    ``re_window`` clips unbounded regions (required implicitly: a default
    window is derived from the region scale when none is given).
    """
    if resolution < 16:
        raise ValueError("resolution >= 16 required")
    if isinstance(region, SLBox):
        w, h = region.re_half_width, region.im_half_height
        if w == 0.0 and h == 0.0:
            return [0j]
        xs = np.linspace(-w, w, resolution)
        pts = [complex(-w, 0.0)] + [complex(x, h) for x in xs] + [complex(w, 0.0)]
        return pts
    if isinstance(region, RelBound):
        # the hull region of a relative bound; unbounded, needs a window
        if re_window is None:
            scale = math.sqrt(region.a / (1.0 - region.b)) if region.a > 0 else 1.0
            re_window = (-5.0 * scale, 5.0 * scale)
        if not np.all(np.isfinite(re_window)):
            raise ValueError(f"hull needs a finite re_window, got {re_window}")
        xs = np.linspace(re_window[0], re_window[1], resolution)
        return [complex(x, y) for x, y in zip(xs, hull_height(region, xs))]
    if not isinstance(region, DiskFamilyRegion):
        raise TypeError(f"cannot sample boundary of {type(region).__name__}")

    xmin, xmax = region.real_extent
    if re_window is not None:
        xmin, xmax = max(xmin, re_window[0]), min(xmax, re_window[1])
    if not (math.isfinite(xmin) and math.isfinite(xmax)):
        scale = (region.centers.max_abs if region.centers.bounded else 0.0)
        scale = max(scale, math.sqrt(region.radius_scale * region.bound.a), 1.0)
        xmin = max(xmin, -10.0 * scale)
        xmax = min(xmax, 10.0 * scale)
    y_seed = float(np.sqrt(region.radius_scale
                           * (region.bound.a + region.bound.b
                              * max(abs(xmin), abs(xmax)) ** 2))) + 1.0
    if xmax - xmin <= 1e-300:
        return [complex(xmin, _bisect_boundary_height(region, xmin, y_seed))]
    pts = []
    for x in np.linspace(xmin, xmax, resolution):
        if _clearly_outside(region, x):
            continue  # gap between disconnected components
        pts.append(complex(x, _bisect_boundary_height(region, x, y_seed)))
    return pts


def region_to_json(region) -> dict:
    """JSON-ready description {kind, a, b, radiusScale, centers, gamma}."""
    def enc(x):
        if x == math.inf:
            return "inf"
        if x == -math.inf:
            return "-inf"
        return x

    if isinstance(region, DiskFamilyRegion):
        ivs = region.centers.intervals
        gamma = None
        if len(ivs) == 1 and not region.centers.points and ivs[0][0] == -ivs[0][1]:
            gamma = ivs[0][1]
        if not ivs and list(region.centers.points) == [0.0]:
            gamma = 0.0
        return {
            "kind": "disk-family",
            "a": region.bound.a,
            "b": region.bound.b,
            "radiusScale": region.radius_scale,
            "centers": {
                "intervals": [[enc(lo), enc(hi)] for lo, hi in ivs],
                "points": list(region.centers.points),
            },
            "gamma": gamma,
        }
    if isinstance(region, RelBound):
        return {"kind": "hull", "a": region.a, "b": region.b,
                "radiusScale": None, "centers": None, "gamma": None}
    if isinstance(region, SLBox):
        return {"kind": "box", "a": None, "b": None, "radiusScale": None,
                "centers": None, "gamma": None,
                "imHalfHeight": region.im_half_height,
                "reHalfWidth": region.re_half_width}
    raise TypeError(f"cannot serialize {type(region).__name__}")


def polyline_to_csv(points) -> str:
    """CSV text with header ``re,im``, one sampled point per line."""
    lines = ["re,im"]
    for z in points:
        z = complex(z)
        lines.append(f"{z.real!r},{z.imag!r}")
    return "\n".join(lines) + "\n"
