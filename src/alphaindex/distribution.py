"""Citation and h-index distribution analyses.

Covers the statistical toolbox used around group ranking: the log-log
citations-vs-h slope, stretched-exponential shape estimation (profile
likelihood over a beta grid), sample and theoretical moment ratios
(computed in log space), a Giddings peak-shape fit for h-index histograms
(baseline and amplitude in closed form; width and center by one grid on at
most 64 merged bins over a box bounded by the data, then one simplex run on
every bin, with a peak on the box's edge refused by name; the Bessel
function I1 from ``scipy.special``),
excess kurtosis and skewness, a Shapiro-Wilk normality test in Royston's
extended form (3 <= n <= 5000), and histogram construction with bins of
one fixed width.

scipy is imported inside the functions that call it, never at module
level: ``scipy.optimize`` by ``fit_giddings``, ``scipy.special`` by the
Bessel functions and the Shapiro-Wilk weights.  Importing the package and
running the commands that fit nothing (``rank``, ``metrics``, ``lorenz``,
``psi``, ``validate``) load no scipy at all, which cuts a fresh start-up
to under a third.  The Shapiro-Wilk test and the moments are written out
here rather than taken from ``scipy.stats`` for the same reason: that
module alone costs about half a second to import.

This module imports numpy at module level, so nothing imports it before a
name from it is needed: the package serves its names on first access, and
the CLI imports it inside the ``distfit`` handlers.  ``validate``,
``metrics``, ``lorenz`` and ``psi`` thus load no numpy either.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BinSpecError,
    FitDivergedError,
    InsufficientDataError,
    SampleSizeError,
    ZeroVarianceError,
)

# ---------------------------------------------------------------------------
# histograms

_MAX_BINS = 1_000_000


@dataclass(frozen=True)
class Histogram:
    """Binned counts with strictly increasing edges; bins are half-open.

    ``build_histogram`` always produces integer counts.  Real-valued counts
    are accepted so that noiseless synthetic targets can be fitted without
    rounding artifacts.
    """

    bin_edges: tuple[float, ...]
    counts: tuple[float, ...]

    def __post_init__(self):
        if len(self.bin_edges) != len(self.counts) + 1:
            raise ValueError("need exactly one more edge than counts")
        if any(b >= a for a, b in zip(self.bin_edges[1:], self.bin_edges)):
            raise ValueError("bin edges must be strictly increasing")

    def centers(self) -> tuple[float, ...]:
        return tuple(
            0.5 * (lo + hi) for lo, hi in zip(self.bin_edges, self.bin_edges[1:])
        )

    def widths(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in zip(self.bin_edges, self.bin_edges[1:]))


def build_histogram(data: Sequence[float], bin_width: float) -> Histogram:
    """Histogram of ``data`` with bins of one fixed width anchored at the
    data minimum.
    """
    xs = np.asarray(data, dtype=float)
    if xs.size == 0:
        raise BinSpecError("no data to bin")
    lo = float(xs.min())
    hi = float(xs.max())

    width = float(bin_width)
    if width <= 1e-12:
        raise BinSpecError(f"bin width must exceed 1e-12, got {width}")
    if not math.isfinite(width):
        raise BinSpecError(f"bin width must be finite, got {width}")
    n_bins = int((hi - lo) / width) + 1
    if n_bins > _MAX_BINS:
        raise BinSpecError(f"{n_bins} bins exceed the {_MAX_BINS} limit")
    edges = [lo + j * width for j in range(n_bins + 1)]
    while edges[-1] <= hi:  # guard against float shortfall on the last edge
        edges.append(lo + len(edges) * width)

    edge_arr = np.asarray(edges)
    idx = np.searchsorted(edge_arr, xs, side="right") - 1
    counts = np.bincount(idx, minlength=len(edges) - 1)
    return Histogram(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
    )


# ---------------------------------------------------------------------------
# log-log slope of citations against h-index


class PowerLawFit(NamedTuple):
    slope: float
    intercept: float
    points_used: int
    points_dropped: int


def power_law_slope(pairs: Sequence[tuple[int, int]]) -> PowerLawFit:
    """Least-squares slope of log(citations) on log(h-index).

    Pairs with a zero on either side are dropped (their logs are undefined)
    and reported in ``points_dropped``.  The intercept is in natural-log
    units.
    """
    usable = [(h, x) for h, x in pairs if h >= 1 and x >= 1]
    dropped = len(pairs) - len(usable)
    if len(usable) < 2:
        raise InsufficientDataError(
            f"log-log fit needs at least 2 usable pairs, got {len(usable)}"
        )
    # float arrays: counts past 2**63 would otherwise give object arrays
    log_h = np.log(np.array([h for h, _ in usable], dtype=float))
    log_x = np.log(np.array([x for _, x in usable], dtype=float))
    dh = log_h - log_h.mean()
    denom = float(dh @ dh)
    if denom == 0.0:
        raise InsufficientDataError("all h values identical; slope is undefined")
    slope = float(dh @ (log_x - log_x.mean())) / denom
    intercept = float(log_x.mean() - slope * log_h.mean())
    return PowerLawFit(slope, intercept, len(usable), dropped)


# ---------------------------------------------------------------------------
# stretched-exponential shape over a beta grid
#
# For the density ~ exp(-(x/x0)^beta) the scale x0 has the closed-form
# maximum likelihood x0^beta = beta * <x^beta>, leaving a profile likelihood
# in beta alone.  The moment ratio <x^k>/<x>^k is independent of x0 too; its
# sample and theoretical values are reported side by side as a diagnostic.

DEFAULT_BETA_GRID = tuple(round(0.20 + 0.02 * i, 2) for i in range(8))
DEFAULT_K_GRID = tuple(round(1.0 + 0.1 * i, 1) for i in range(21))


def _finite(value: float, what: str) -> float:
    """``value``, or ``ValueError`` naming ``what`` if it is not a finite double."""
    if not math.isfinite(value):
        raise ValueError(f"{what} is not a finite double")
    return value


def theoretical_moment_ratio(k: float, beta: float) -> float:
    """Scale-free moment ratio of the stretched exponential:

        M_k = Gamma((k+1)/beta) * Gamma(1/beta)^(k-1) / Gamma(2/beta)^k.

    M_1 is identically 1.  ``ValueError`` if M_k is not a finite double.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    try:
        ratio = math.exp(
            math.lgamma((k + 1) / beta)
            + (k - 1) * math.lgamma(1 / beta)
            - k * math.lgamma(2 / beta)
        )
    except OverflowError:  # a log-gamma term or the ratio left the double range
        ratio = math.inf
    return _finite(ratio, f"moment ratio at k={k}, beta={beta}")


def empirical_moment_ratio(k: float, data: Sequence[float]) -> float:
    """Sample analog of :func:`theoretical_moment_ratio`:

        R_k = n^(k-1) * sum(x_i^k) / (sum x_i)^k  =  <x^k> / <x>^k,

    computed in log space, so it is refused only when R_k itself leaves the
    double range.  Requires strictly positive data (fractional powers of
    zero-citation entries are meaningless here; callers exclude them and
    report it).  ``ValueError`` if R_k is not a finite double.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    xs = np.asarray(data, dtype=float)
    if xs.size == 0:
        raise InsufficientDataError("moment ratio of an empty sample")
    if np.any(xs <= 0):
        raise ValueError("moment ratios require strictly positive data")
    # ln R_k = ln mean(x^k) - k * ln mean(x), with x scaled by its maximum:
    # the scale cancels in R_k, the scaled powers lie in (0, 1] and each
    # mean is at least 1/n, so no power overflows and no log sees 0.  At
    # k = 1 both terms are the same float, so ln R_1 is exactly 0.
    shifted = np.log(xs) - math.log(float(xs.max()))
    with np.errstate(over="ignore"):  # k * shifted may reach -inf; exp gives 0
        ln_mean_1, ln_mean_k = (math.log(float(np.exp(p * shifted).mean())) for p in (1.0, k))
    try:
        ratio = math.exp(ln_mean_k - k * ln_mean_1)
    except OverflowError:
        ratio = math.inf
    return _finite(ratio, f"sample moment ratio at k={k}")


@dataclass(frozen=True)
class StretchedExpFit:
    """Grid-search result for the stretched-exponential shape parameter."""

    beta: float
    grid: tuple[float, ...]
    objective_per_beta: tuple[float, ...]


def fit_beta(data: Sequence[float]) -> StretchedExpFit:
    """Pick the beta of :data:`DEFAULT_BETA_GRID` that minimizes the profile
    negative log-likelihood.

    Each grid beta is scored by the negative log-likelihood per draw of the
    density ``beta / (x0 * Gamma(1/beta)) * exp(-(x/x0)^beta)`` at the
    scale's closed-form maximum ``x0^beta = beta * mean(x^beta)``:

        nll(beta) = -[ln beta - ln(beta * mean(x^beta)) / beta
                      - lnGamma(1/beta) - 1/beta].

    The likelihood treats the data as continuous.  On the positive integers
    of ``synth --round`` at unit scale (x0=1, beta=0.28, 1e5 draws, seeds
    0-19) it missed 0.28 in all 20 seeds (0.30 in 19, 0.32 in 1); at
    x0 = 10 and x0 = 100 it hit 0.28 in 20 of 20.
    """
    xs = np.asarray(data, dtype=float)
    if xs.size < 10:
        raise InsufficientDataError(f"shape fit needs n >= 10, got {xs.size}")
    if np.any(xs <= 0):
        raise ValueError("shape fit requires strictly positive data")

    objectives = _beta_nll(xs)
    best = int(np.argmin(objectives))
    return StretchedExpFit(
        beta=DEFAULT_BETA_GRID[best],
        grid=DEFAULT_BETA_GRID,
        objective_per_beta=tuple(objectives),
    )


def _beta_nll(xs: np.ndarray) -> list[float]:
    # ln mean(x^beta) in log space, shifted by the largest ln x: the shifted
    # terms lie in (0, 1] and their sum is at least 1.  On the grid x^beta
    # stays below 1e105 for every double, so no overflow needs the shift,
    # but the reported objectives are fixed bit for bit with it in place
    ln_x = np.log(xs)
    ln_max = float(ln_x.max())
    shifted = ln_x - ln_max
    ln_n = math.log(xs.size)
    objectives = []
    for beta in DEFAULT_BETA_GRID:
        ln_mean = beta * ln_max + math.log(float(np.exp(beta * shifted).sum())) - ln_n
        loglik = (
            math.log(beta)
            - (math.log(beta) + ln_mean) / beta
            - math.lgamma(1 / beta)
            - 1 / beta
        )
        objectives.append(-loglik)
    return objectives


# ---------------------------------------------------------------------------
# Giddings peak-shape fit for h-index histograms


@dataclass(frozen=True)
class GiddingsFit:
    """Parameters of the Giddings peak shape (see :func:`giddings_eval`)."""

    baseline: float
    amplitude: float
    width: float
    center: float
    residual_ss: float = 0.0
    converged: bool = True  # fit_giddings raises rather than return False

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be non-negative, got {self.amplitude}")
        if self.width <= 0:
            raise ValueError(f"width must be positive, got {self.width}")
        if self.center <= 0:
            raise ValueError(f"center must be positive, got {self.center}")
        if self.residual_ss < 0:
            raise ValueError(f"residual_ss must be non-negative, got {self.residual_ss}")


_I1_OVERFLOW_GUARD = 700.0


def bessel_i1(x: float) -> float:
    """Modified Bessel function of the first kind, order 1 (``scipy.special.i1``).

    Valid for 0 <= x <= 700; beyond that ``exp(x)`` leaves the double range
    and ``OverflowError`` is raised.
    """
    if x < 0:
        raise ValueError(f"bessel_i1 requires x >= 0, got {x}")
    if x > _I1_OVERFLOW_GUARD:
        raise OverflowError(f"bessel_i1 overflows for x > {_I1_OVERFLOW_GUARD}, got {x}")
    from scipy.special import i1

    return float(i1(x))


def bessel_i1_scaled(x):
    """``exp(-x) * I1(x)`` elementwise (``scipy.special.i1e``), stable for
    arbitrarily large x >= 0; a float for scalar ``x``."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError(f"bessel_i1_scaled requires x >= 0, got {x[x < 0].min()}")
    from scipy.special import i1e

    scaled = i1e(x)
    return float(scaled) if scaled.ndim == 0 else scaled


def giddings_eval(h: float, params: GiddingsFit) -> float:
    """Giddings peak shape at ``h > 0``:

        baseline + (amplitude/width) * sqrt(center/h)
                 * I1(2*sqrt(center*h)/width) * exp(-(h + center)/width).

    Evaluated with the exponentially scaled Bessel function, so the value is
    finite for any positive parameters even where I1 alone would overflow.
    """
    if h <= 0:
        raise ValueError(f"peak shape is defined for h > 0, got {h}")
    return float(
        params.baseline + _giddings_peak(h, params.amplitude, params.width, params.center)
    )


def _giddings_peak(h, amplitude, width, center):
    # h, amplitude, width and center broadcast against each other;
    # exp(-(h + center)/width) is split as exp(-arg) * exp(-(sqrt(h) -
    # sqrt(center))^2 / width) so the first factor goes into the scaled
    # Bessel function
    arg = 2.0 * np.sqrt(center * h) / width
    exponent = -((np.sqrt(h) - np.sqrt(center)) ** 2) / width
    return (
        (amplitude / width)
        * np.sqrt(center / h)
        * bessel_i1_scaled(arg)
        * np.exp(exponent)
    )


def _project(g: np.ndarray, counts: np.ndarray):
    """Least-squares baseline, amplitude >= 0 and residual SS of ``counts``
    on ``baseline + amplitude * g``, for each row of the unit peaks ``g``.

    The amplitude is the slope of the centered regression, 0 when it is
    negative or undefined (a peak with no spread over the bins).
    """
    counts_c = counts - counts.mean()
    g_mean = g.mean(axis=-1)
    g_c = g - g_mean[..., None]
    s_gy = g_c @ counts_c
    s_gg = np.einsum("...i,...i->...", g_c, g_c)
    amplitude = np.divide(s_gy, s_gg, out=np.zeros_like(s_gy), where=(s_gy > 0) & (s_gg > 0))
    resid = amplitude[..., None] * g_c - counts_c
    return counts.mean() - amplitude * g_mean, amplitude, np.einsum("...i,...i->...", resid, resid)


_GRID = 48  # grid points per searched coordinate
_GRID_BINS = 64  # most bins the grid is evaluated on
_ON_BOUND = 1e-6  # distance to a box bound, relative to the box's extent


def fit_giddings(hist: Histogram) -> GiddingsFit:
    """Least-squares Giddings fit of bin counts at bin centers.

    The counts are fitted as densities, so the bins should share one width:
    bins that widen with h would push the fitted peak to the right.

    The model ``baseline + amplitude * g(h; width, center)`` is linear in
    baseline and amplitude, so for each (width, center) they are solved in
    closed form, amplitude held at >= 0, and only (width, center) are
    searched: variable projection (Golub & Pereyra 1973).

    The search is bounded by the data: ln(width) in [ln(min bin width / 8),
    ln(4 * (last edge - first edge))] and center in [first edge, last edge],
    center > 0.  Bins below h = 0 are refused.
    The projected residual is evaluated on a 48 x 48 grid over that box in
    one array expression on at most 64 bins (runs of adjacent bins merged by
    their mean center and count), and one Nelder-Mead simplex in (ln width,
    center) refines the best grid point on every bin, with the residual set
    to 1e300 outside the box.  ``FitDivergedError`` is raised when the
    simplex does not collapse below 1e-9 within 1000 evaluations, and when a
    fit with a positive amplitude ends on a bound of the box (within 1e-6 of
    its extent), which the error names: the histogram then has no peak
    inside the binned range.  A zero-amplitude fit (the baseline alone) may
    end on a bound, since its width and center do not enter the model.
    ``converged`` is True on every returned fit.
    """
    centers = np.asarray(hist.centers())
    counts = np.asarray(hist.counts, dtype=float)
    if hist.bin_edges[0] < 0:
        raise ValueError("peak-shape fit needs bins at h >= 0")
    if int((counts > 0).sum()) < 6:
        raise InsufficientDataError(
            "peak-shape fit needs at least 6 non-empty bins "
            "(4 parameters + 2 degrees of freedom)"
        )

    first, last = hist.bin_edges[0], hist.bin_edges[-1]
    lo = np.array([math.log(min(hist.widths()) / 8), first])
    hi = np.array([math.log(4 * (last - first)), last])

    def project(ln_width, center, x=centers, y=counts):
        # broadcasts: column vectors give one row per (ln width, center)
        return _project(_giddings_peak(x, 1.0, np.exp(ln_width), center), y)

    (lo_w, lo_c), (hi_w, hi_c) = lo.tolist(), hi.tolist()
    counts_c = counts - counts.mean()

    def objective(theta):
        # _project's residual SS on one point, in the same arithmetic
        ln_width, center = theta.tolist()
        if not (lo_w <= ln_width <= hi_w and lo_c <= center <= hi_c and center > 0):
            return 1e300  # also for NaN, which fails every comparison
        g = _giddings_peak(centers, 1.0, np.exp(ln_width), center)
        g_c = g - np.add.reduce(g) / g.size
        s_gy, s_gg = float(g_c @ counts_c), float(np.einsum("i,i->", g_c, g_c))
        resid = (s_gy / s_gg if s_gy > 0 and s_gg > 0 else 0.0) * g_c - counts_c
        return float(np.einsum("i,i->", resid, resid))

    # the grid runs on adjacent bins merged to at most _GRID_BINS by their
    # mean center and count (the identity at _GRID_BINS bins or fewer)
    starts = np.arange(0, centers.size, -(-centers.size // _GRID_BINS))
    merged = np.add.reduceat(np.stack([centers, counts]), starts, axis=1)
    ln_w, c = (a.ravel() for a in np.meshgrid(*np.linspace(lo, hi, _GRID, axis=1)))
    grid_ss = project(ln_w[:, None], c[:, None], *merged / np.diff(starts, append=centers.size))[2]
    grid_ss[c == 0] = np.inf  # the peak at center 0 is identically 0
    best = int(np.argmin(grid_ss))

    from scipy.optimize import minimize

    result = minimize(
        objective,
        np.array([ln_w[best], c[best]]),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-9, "maxfev": 1000},
    )
    if not result.success:
        raise FitDivergedError(
            f"simplex search did not converge within tolerance 1e-09 in {result.nfev} evaluations"
        )
    baseline, amplitude, residual_ss = map(float, project(*result.x))
    width, center = math.exp(result.x[0]), float(result.x[1])
    if amplitude > 0:
        margin = _ON_BOUND * (hi - lo)
        bounds = (
            (result.x[0] - lo[0] <= margin[0], f"width = min bin width / 8 = {math.exp(lo[0]):g}"),
            (hi[0] - result.x[0] <= margin[0], f"width = 4 x data range = {math.exp(hi[0]):g}"),
            (result.x[1] - lo[1] <= margin[1], f"center = first edge {first:g}"),
            (hi[1] - result.x[1] <= margin[1], f"center = last edge {last:g}"),
        )
        for on_bound, name in bounds:
            if on_bound:
                raise FitDivergedError(
                    f"Giddings fit ends on the search box bound {name}: "
                    "the histogram has no interior peak"
                )
    return GiddingsFit(baseline, amplitude, width, center, residual_ss, True)


# ---------------------------------------------------------------------------
# shape statistics of a sample


def _central_moment(xs: np.ndarray, order: int) -> float:
    return float(((xs - xs.mean()) ** order).mean())


def kurtosis(data: Sequence[float]) -> float:
    """Excess kurtosis, ``mu4 / mu2^2 - 3`` with population central moments.

    Zero for a normal distribution; positive values flag heavy tails.
    """
    xs = np.asarray(data, dtype=float)
    if xs.size < 2:
        raise ValueError(f"kurtosis needs n >= 2, got {xs.size}")
    m2 = _central_moment(xs, 2)
    if m2 == 0.0:
        raise ZeroVarianceError("kurtosis of constant data is undefined")
    return _central_moment(xs, 4) / m2**2 - 3.0


def skewness(data: Sequence[float]) -> float:
    """Skewness, ``mu3 / mu2^1.5`` with population central moments."""
    xs = np.asarray(data, dtype=float)
    if xs.size < 2:
        raise ValueError(f"skewness needs n >= 2, got {xs.size}")
    m2 = _central_moment(xs, 2)
    if m2 == 0.0:
        raise ZeroVarianceError("skewness of constant data is undefined")
    return _central_moment(xs, 3) / m2**1.5


# ---------------------------------------------------------------------------
# Shapiro-Wilk normality test (Royston's approximation, 3 <= n <= 5000)

# polynomial coefficients, highest degree first as np.polyval takes them
_SW_TOP1 = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0)
_SW_TOP2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)
_SW_MU_SMALL = (-6.714e-4, 0.025054, -0.39978, 0.5440)  # in n, 4 <= n <= 11
_SW_SIGMA_SMALL = (-0.0020322, 0.062767, -0.77857, 1.3822)
_SW_MU_LARGE = (0.0038915, -0.083751, -0.31082, -1.5861)  # in ln n, n >= 12
_SW_SIGMA_LARGE = (0.0030302, -0.082676, -0.4803)


@dataclass(frozen=True)
class NormalityReport:
    """Shapiro-Wilk verdict plus the tail/symmetry statistics of the sample."""

    statistic: float
    p_value: float
    kurtosis: float
    skewness: float
    normal_at_5pct: bool


def _sw_weights(n: int) -> np.ndarray:
    if n == 3:
        return np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    from scipy.special import ndtri

    m = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    ssq = float(m @ m)
    u = 1.0 / math.sqrt(n)
    a = np.empty(n)
    a_top = m[-1] / math.sqrt(ssq) + np.polyval(_SW_TOP1, u)
    if n > 5:
        a_top2 = m[-2] / math.sqrt(ssq) + np.polyval(_SW_TOP2, u)
        fac = math.sqrt(
            (ssq - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2)
            / (1.0 - 2.0 * a_top**2 - 2.0 * a_top2**2)
        )
        a[2 : n - 2] = m[2 : n - 2] / fac
        a[-2], a[1] = a_top2, -a_top2
    else:
        fac = math.sqrt((ssq - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_top**2))
        a[1 : n - 1] = m[1 : n - 1] / fac
    a[-1], a[0] = a_top, -a_top
    return a


def shapiro_wilk(data: Sequence[float]) -> NormalityReport:
    """W statistic and p-value for the hypothesis that the sample is normal.

    Weights come from normal order-statistic approximations and the p-value
    from the normalizing transformation of W, valid for 3 <= n <= 5000.
    ``normal_at_5pct`` is True when p > 0.05.
    """
    xs = sorted(float(v) for v in data)
    n = len(xs)
    if not 3 <= n <= 5000:
        raise SampleSizeError(f"normality test supports 3 <= n <= 5000, got {n}")
    if xs[0] == xs[-1]:
        raise ZeroVarianceError("normality test of constant data is undefined")

    arr = np.asarray(xs)
    a = _sw_weights(n)
    centered = arr - arr.mean()
    w = float(a @ arr) ** 2 / float(centered @ centered)
    w = min(w, 1.0)

    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
    elif w >= 1.0:
        p = 1.0
    elif n <= 11:
        gamma = 0.459 * n - 2.273
        # ln(1 - W) < gamma for every sample: gamma > 0 from n = 5, and at
        # n = 4 it needs W <= 1 - exp(gamma) = 0.354, while the least W over
        # sorted samples (0, u, v, 1) is 4 * a_n**2 / 3 = 0.630, at (0, 0, 0, 1)
        y = math.log(1.0 - w)
        z = (-math.log(gamma - y) - np.polyval(_SW_MU_SMALL, n)) / math.exp(
            np.polyval(_SW_SIGMA_SMALL, n)
        )
        p = 0.5 * math.erfc(z / math.sqrt(2.0))
    else:
        ln_n = math.log(n)
        z = (math.log(1.0 - w) - np.polyval(_SW_MU_LARGE, ln_n)) / math.exp(
            np.polyval(_SW_SIGMA_LARGE, ln_n)
        )
        p = 0.5 * math.erfc(z / math.sqrt(2.0))

    return NormalityReport(
        statistic=w,
        p_value=p,
        kurtosis=kurtosis(xs),
        skewness=skewness(xs),
        normal_at_5pct=p > 0.05,
    )
