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
is available in closed form.  Since Im z enters g only through the additive
term (Im z)^2, the minimizing center does not depend on Im z, and the
region's height above x is sqrt(-min_t g(t)) at z = x: boundary polylines
and areas use that closed form, with no bisection.  Signed margins use the
metric form |z - t| - r(t), whose minimum over an interval of centers lies
among the clipped real parts of a quartic's roots, t = 0, t = Re z and the
endpoints: one stacked companion eigvals evaluates it for many z at once.
"""

import math
from dataclasses import dataclass

import numpy as np

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
    "disk_family_profiles",
    "disk_region_membership",
    "hull_membership",
    "prior_hull_membership",
    "hull_height",
    "prior_hull_height",
    "hull_tangency",
    "smallerb_threshold",
    "tmain_worse",
    "tmain_regions",
    "boundary_polyline",
    "region_to_json",
]

# b is rejected this close to 1: all enclosure formulas degenerate there.
_B_CAP = 1.0 - 1e-12
# boundary_polyline draws x where min_t g(t) <= BOUNDARY_GATE_TOL (1 + |x|)^2:
# the real extremes (g ~ 1e-14 by rounding) stay in, gaps between components out.
BOUNDARY_GATE_TOL = 1e-12


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

    Normalized on construction: intervals are sorted and merged, points inside
    an interval absorbed, degenerate intervals collapse to points (that of
    [-0.0, 0.0] is 0.0).  Endpoints may be ``-inf``/``inf``.
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
                object.__setattr__(self, "points",
                                   tuple(self.points) + (lo + 0.0,))
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

    def height(self, x):
        """Height of the region above abscissa x (vectorized), 0 off its real section."""
        return _stacked_heights(*_segment_stack([self]),
                                np.asarray(x, dtype=float)[None])[0]

    @property
    def real_extent(self) -> tuple:
        """Smallest interval [xmin, xmax] containing the region's real section
        (the one-row case of ``disk_family_profiles``)."""
        xmin, xmax = _stacked_extents(*_segment_stack([self]))
        return (float(xmin[0]), float(xmax[0]))


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

    def contains(self, z: complex) -> bool:
        return (abs(z.imag) <= self.im_half_height
                and abs(z.real) <= self.re_half_width)

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


def _metric_margin_on_interval(region: DiskFamilyRegion, x, y, lo: float, hi: float):
    """Exact min over centers t in [lo, hi] of h(t) = |x + iy - t| - r(t),
    vectorized over x and y.  Its smooth critical points are real roots of
    (t - x)^2 (a + b t^2) - rho b^2 t^2 ((t - x)^2 + y^2) (h' = 0, squared); the
    candidates are the real parts of all roots, t = 0 (the kink of r at a = 0),
    t = x and the finite ends, clipped into [lo, hi]: none undershoots, and
    unbounded tails grow since rho b < 1 there."""
    a, b, rho = region.bound.a, region.bound.b, region.radius_scale
    c = 1.0 - rho * b
    coeffs = [b * c, -2.0 * b * c * x, a + b * x * x - rho * b * b * (x * x + y * y),
              -2.0 * a * x, a * x * x][0 if c else 2:]  # a quadratic at rho b = 1
    coeffs = np.stack(np.broadcast_arrays(*coeffs), axis=-1)
    deg = coeffs.shape[-1] - 1
    # a zero leading coefficient leaves a zero companion: the real root is then
    # t = x (b = 0), or x / 2, spurious (rho b = 1, a = b y^2, h' = -x / |lam - t|)
    companion = np.zeros(coeffs.shape[:-1] + (deg, deg))
    np.divide(-coeffs[..., 1:], coeffs[..., :1], out=companion[..., 0, :],
              where=coeffs[..., :1] != 0.0)
    companion[..., range(1, deg), range(deg - 1)] = 1.0
    ends = [np.full_like(x, e) for e in (lo, hi) if math.isfinite(e)]
    t = np.concatenate([np.stack([np.zeros_like(x), x] + ends, axis=-1),
                        np.linalg.eigvals(companion).real], axis=-1).clip(lo, hi)
    return np.min(np.hypot(t - x[..., None], y[..., None]) - region.radius(t), axis=-1)


def _segment_min_g(a, b, rho, lo, hi, x, y=0.0):
    """Exact min over centers t in [lo, hi] of g(t) = (t - x)^2 + y^2
    - rho (a + b t^2), broadcasting over all arguments; a point center p is
    the interval [p, p].

    The convex case (lead = 1 - rho b > 0) has its minimum at the clamped
    vertex x / lead; otherwise g is concave (or linear) in t and the minimum
    sits at an endpoint, finite because unbounded centers with rho b >= 1
    are rejected.
    """
    convex = 1.0 - rho * b > 0.0
    vertex = np.clip(x / np.where(convex, 1.0 - rho * b, 1.0), lo, hi)
    centers = ([vertex] if np.all(convex) else
               [np.where(convex, vertex, lo), np.where(convex, vertex, hi)])
    return np.minimum.reduce([(t - x) ** 2 + y * y - rho * (a + b * t * t)
                              for t in centers])


def _min_g(region: DiskFamilyRegion, x, y=0.0):
    """Exact min over all centers of g(t) = |x + iy - t|^2 - rho (a + b t^2),
    vectorized over x."""
    a, b = region.bound.a, region.bound.b
    rho = region.radius_scale
    x = np.asarray(x, dtype=float)
    best = np.full(x.shape, np.inf)
    for p in region.centers.points:
        best = np.minimum(best, np.hypot(x - p, y) ** 2 - rho * (a + b * p * p))
    for lo, hi in region.centers.intervals:
        best = np.minimum(best, _segment_min_g(a, b, rho, lo, hi, x, y))
    return best


def _segment_stack(regions):
    """A stack of regions as arrays: the (m, w, 2) ends of each region's
    intervals and points (a point p is [p, p]), padded to a common count w by
    repeating a region's first one, and the (m, 3) rows (a, b, rho)."""
    segments = [r.centers.intervals + tuple((p, p) for p in r.centers.points)
                for r in regions]
    width = max(map(len, segments))
    ends = np.array([s + s[:1] * (width - len(s)) for s in segments])
    params = np.array([(r.bound.a, r.bound.b, r.radius_scale) for r in regions])
    return ends, params


def _stacked_extents(ends, params):
    """Per region of a ``_segment_stack``, the smallest [xmin, xmax] holding
    its real section: r(t) = norm((sqrt(rho a), sqrt(rho b) t)) is convex, so
    the extremes are among t -+ r(t) at the segment ends (an infinite end is
    its own extreme).  Padding repeats an end and leaves both unchanged."""
    a, b, rho = (params[:, k, None, None] for k in range(3))
    finite = np.isfinite(ends)
    t = np.where(finite, ends, 0.0)
    r = np.where(finite, np.sqrt(rho * (a + b * np.square(t))), 0.0)
    return np.min(ends - r, axis=(1, 2)), np.max(ends + r, axis=(1, 2))


def _stacked_heights(ends, params, x):
    """Heights of the regions of a ``_segment_stack``: row k of the result is
    region k's height above the abscissae in row k of ``x``, 0 off its real
    section, all rows one broadcast evaluation of ``_segment_min_g`` (the
    padding leaves each region's minimum unchanged)."""
    tail = (1,) * (x.ndim - 1)
    lo, hi = (ends[..., k].reshape(ends.shape[:2] + tail) for k in (0, 1))
    a, b, rho = (params[:, k].reshape((-1, 1) + tail) for k in range(3))
    g = _segment_min_g(a, b, rho, lo, hi, x[:, None])
    # 0.0 - g rather than -g: a boundary-exact g = 0 gives +0.0, not -0.0
    return np.sqrt(np.maximum(0.0 - np.min(g, axis=1), 0.0))


def disk_family_profiles(regions, nodes):
    """The real extents of a stack of disk-family regions and their heights
    over them: ``(xmin, xmax, heights)`` with row k of ``heights`` region k's
    height at the ``nodes`` of [-1, 1] mapped affinely onto
    [xmin[k], xmax[k]], from one stacking of the regions' segments."""
    ends, params = _segment_stack(regions)
    xmin, xmax = _stacked_extents(ends, params)
    mid, half = 0.5 * (xmax + xmin), 0.5 * (xmax - xmin)
    return xmin, xmax, _stacked_heights(ends, params,
                                        mid[:, None] + half[:, None] * nodes)


def disk_region_membership(region: DiskFamilyRegion, lam) -> Membership:
    """Decide lam in region, with a signed metric margin, for a scalar lam
    (bool and float) or an array of lam (arrays of each).

    The inside/outside decision uses the square-root-free polynomial g(t)
    (exact for the closed region); the margin is the exact minimum of
    |lam - t| - r(t) over the centers, so margin <= 0 iff inside.
    """
    lam = np.asarray(lam, dtype=complex)
    x, y = lam.real, lam.imag
    margin = np.full(lam.shape, np.inf)
    for p in region.centers.points:
        margin = np.minimum(margin, np.hypot(x - p, y) - region.radius(p))
    for lo, hi in region.centers.intervals:
        margin = np.minimum(margin, _metric_margin_on_interval(region, x, y, lo, hi))
    inside = _min_g(region, x, y) <= 0.0
    margin = np.where(inside == (margin > 0.0), 0.0, margin)
    return (Membership(bool(inside), float(margin)) if lam.ndim == 0
            else Membership(inside, margin))


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


def tmain_worse(a: float, b: float, tau: float, v: float) -> tuple:
    """The half-width gamma and the plain ("worse") region of
    ``tmain_regions``, without its sharper companion."""
    bound = RelBound(a, b)
    if not (math.isfinite(tau) and tau >= 1.0):
        raise ValueError(f"tau >= 1 required, got {tau}")
    if not v < 0.0:
        raise ValueError("tmain_regions expects v < 0; for v >= 0 the perturbed "
                         "operator keeps a real spectrum and no region is needed")
    gamma = min(math.sqrt((1.0 + tau) * a / (2.0 * tau)), -(1.0 + tau) * v / 2.0)
    return gamma, DiskFamilyRegion(bound=bound, radius_scale=1.0,
                                   centers=SpectrumModel.interval(-gamma, gamma))


def tmain_regions(a: float, b: float, tau: float, v: float) -> dict:
    """Enclosure data for a relatively bounded perturbation of a definitizable
    diagonal part: half-width gamma and the two disk-family regions.

    gamma = min( sqrt((1+tau) a / (2 tau)), -(1+tau) v / 2 ) with v < 0 the
    lower bound of the perturbation in the indefinite inner product.  The
    plain region uses radii sqrt(a + b t^2); the sharper region exists iff
    b < (tau-1)/(2 tau) and rescales the radii by (1+tau)/(2 tau (1-b)).
    """
    gamma, worse = tmain_worse(a, b, tau, v)
    better = None
    if b < (tau - 1.0) / (2.0 * tau):
        better = DiskFamilyRegion(bound=worse.bound, centers=worse.centers,
                                  radius_scale=(1.0 + tau) / (2.0 * tau * (1.0 - b)))
    return {"gamma": gamma, "worse": worse, "better": better}


def boundary_polyline(region, resolution: int = 256, re_window=None) -> list:
    """Sample the upper-half boundary of a region as a list of complex points.

    Consumers mirror across the real axis for the full closed curve.  A
    disk-family region's height at each abscissa is its closed form
    ``DiskFamilyRegion.height``; rectangles and hulls use theirs too.
    ``re_window`` clips unbounded regions (required implicitly: a default
    window is derived from the region scale when none is given); a reversed
    window (``re_window[0] > re_window[1]``) or one holding no abscissa of a
    disk-family region raises ``ValueError``.
    """
    if resolution < 16:
        raise ValueError("resolution >= 16 required")
    if re_window is not None and re_window[0] > re_window[1]:
        raise ValueError(f"re_window {re_window} is reversed")
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
    xs = np.linspace(xmin, xmax, resolution if xmax - xmin > 1e-300 else 1)
    xs = xs[_min_g(region, xs) <= BOUNDARY_GATE_TOL * (1.0 + np.abs(xs)) ** 2]
    if not xs.size:
        raise ValueError(f"re_window {re_window} misses the region")
    return [complex(x, y) for x, y in zip(xs, region.height(xs))]


def region_to_json(region) -> dict:
    """JSON-ready description {kind, a, b, radiusScale, centers, gamma}."""
    def enc(x):
        return "inf" if x == math.inf else "-inf" if x == -math.inf else x

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
