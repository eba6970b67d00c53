"""Lognormal impact model: density, scaled histogram fits, bin ensembles, derived stats.

The model family is the two-parameter lognormal in log-location mu and
log-spread sigma. Histogram fits use the scaled form (A / x) *
exp(-(ln x - mu)^2 / (2 sigma^2)) whose amplitude A absorbs the sample size
and bin width, so raw bin counts can be fitted without normalizing them.
Because best-fit parameters depend on the binning, confidence intervals come
from refitting at many randomly drawn bin counts (each distinct count once,
in the calling process, in blocks of lockstep Levenberg-Marquardt fits) and
reading percentiles off the draws, whose median is the reported fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import DataError, NumericalError
from .histogram import Histogram, binned_rows
from .leastsq import LeastSquaresResult, damped_least_squares, damped_least_squares_batch

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Non-empty bins a histogram fit needs; the CLI's --bins check writes it out as HI >= 4.
_MIN_BINS = 4

# How many spans of its bin centers' ln range a fit's mu may lie outside it: a
# window without the mode puts mu up to 5 out (at 4:8), a runaway fit some 1e5.
_MU_SPANS_OUTSIDE = 100.0

# Why an ensemble's bin count failed, in the order of a fit's status codes 1, 2, 3.
_FAILURES = ("too_few_bins", "not_converged", "mu_outside_bins")

# A fit's residual cells are padded to a multiple of _PAD, so the length its sums run over, and
# with it every bit of its result, depends on its own bin count alone and not on its block.
_PAD = 64
# Cells in one block of LM fits: enough rows to share NumPy's per-call cost. The cap trades time
# for memory: on the golden sample an uncapped ensemble gave the same bits in 0.107 s against
# 0.129 s (medians) at 10,000 fits, with no resolved difference at 2,500, but its peak RSS rose
# from 38 to 43-44 MB, more than fit-paper's 5% peak_rss_mb bound.
_MAX_CELLS = 8192

# The standard normal 97.5% quantile: NormalDist().inv_cdf(0.975), 0x1.f5c0331eeff82p+0, to the last bit.
_Z975 = 1.9599639845400536


@dataclass(frozen=True)
class LognormalParams:
    """Log-scale location and spread of a lognormal distribution."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("mu and sigma must be finite")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class LognormalFit:
    """One fit to one histogram: the scaled model's by fit_histogram, or the normal in ln x by fit_normal_log."""

    amplitude: float
    params: LognormalParams
    n_bins_used: int
    residual_norm: float
    converged: bool


@dataclass(frozen=True)
class FitEnsemble:
    """Percentile summaries of (mu, sigma) across a random-bin fit ensemble.

    The 2.5 and 97.5 percentiles bound a 95% confidence interval; the median
    is the central value. Only converged fits contribute (see fit_histogram).
    ``diagnostics`` maps report keys to values over the distinct bin counts,
    not the draws: the failures by reason and the LM iterations. Equality
    ignores it.
    """

    mu_p2_5: float
    mu_p50: float
    mu_p97_5: float
    sigma_p2_5: float
    sigma_p50: float
    sigma_p97_5: float
    n_failed: int
    diagnostics: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class DerivedStats:
    """Closed-form statistics of a lognormal with the given parameters."""

    mean: float
    median: float
    mode: float
    interval95_lo: float
    interval95_hi: float


def pdf(x, params: LognormalParams):
    """Lognormal probability density at x > 0, a scalar or an array.

    p(x) = 1 / (x sigma sqrt(2 pi)) * exp(-(ln x - mu)^2 / (2 sigma^2)).
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("pdf requires x > 0")
    out = gaussian((1.0 / (params.sigma * _SQRT_2PI), params.mu, params.sigma), np.log(arr), arr)
    return float(out) if arr.ndim == 0 else out


def gaussian(p, t: np.ndarray, div: np.ndarray | float = 1.0) -> np.ndarray:
    """A * exp(-(t - mu)^2 / (2 sigma^2)) / div for p = (A, mu, sigma).

    With the default ``div`` this is the Gaussian in t = ln x; dividing by
    x gives the scaled lognormal model.
    """
    amp, mu, sigma = p
    z = (t - mu) / sigma
    return amp * np.exp(-0.5 * z * z) / div


def _valid(p: np.ndarray):
    """Whether each (A, mu, sigma) row lies in the model's domain: finite, A > 0 and sigma > 0."""
    return np.isfinite(p).all(axis=-1) & (p[..., 0] > 0) & (p[..., 2] > 0)


def _gaussian_model(q, cols: np.ndarray) -> np.ndarray:
    """Residual y - gaussian(q, t, div) at the columns (t, y, div), then its derivatives in A, mu and sigma.

    ``q`` holds (A, mu, sigma), each broadcast against the columns; the four arrays come stacked.
    """
    t, y, div = cols
    amp, mu, sigma = q
    out = np.empty((4, *t.shape))
    # in place, two temporaries: z = (t - mu) / sigma, then e = exp(-0.5 z z), then A e / div and A (e / div) z
    z = np.subtract(t, mu)
    z /= sigma
    e = np.multiply(-0.5, z)
    e *= z
    np.exp(e, out=e)
    shape = np.divide(e, div, out=out[1])
    e *= amp
    e /= div
    np.subtract(y, e, out=out[0])
    amp_shape_z = np.multiply(amp, shape, out=e)
    amp_shape_z *= z
    np.divide(amp_shape_z, sigma, out=out[2])
    amp_shape_z *= z
    np.divide(amp_shape_z, sigma, out=out[3])
    return out


def _moment_init(t: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the weighted mean and standard deviation (at least 1e-3) of t; (0, 1) where the weights sum to <= 0."""
    total = weights.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = (weights * t).sum(axis=-1) / total
        sigma0 = np.maximum(np.sqrt((weights * (t - mu0[..., None]) ** 2).sum(axis=-1) / total), 1e-3)
    return np.where(total > 0, mu0, 0.0), np.where(total > 0, sigma0, 1.0)


def _fit_block(centers, counts, n, init: LognormalParams | None) -> tuple[LeastSquaresResult, np.ndarray]:
    """Fit the scaled model to each row of a block of histograms, shape (R, L), in one lockstep LM loop.

    Row i holds its first ``n[i]`` bin centers and counts; its pad cells, past them, hold its last
    center and a count of 0. A pad cell keeps t = ln of that center and gets x = inf, so every array
    _gaussian_model returns is exactly 0 there (the residual is 0 - A e / inf, and each derivative
    carries e / inf), and a row's sums are the same whatever rows share its block. Each row starts
    from ``init`` or, without one, from its own log-moments, with the amplitude that puts the model
    through its highest bin. Returns the solver's result per row and each row's status: 0 for a good
    fit, else 1 plus the index of its reason in _FAILURES. A row with fewer than _MIN_BINS non-empty
    bins is not fitted: it starts at amplitude NaN, outside the domain.
    """
    cols = np.stack((np.log(centers), counts, np.where(np.arange(centers.shape[1]) < n[:, None], centers, np.inf)))
    t, y, _ = cols
    enough = np.count_nonzero(y > 0, axis=1) >= _MIN_BINS
    mu0, sigma0 = _moment_init(t, y) if init is None else (np.full(len(t), init.mu), np.full(len(t), init.sigma))
    t_pk, y_pk, x_pk = np.take_along_axis(cols, np.argmax(y, axis=1)[None, :, None], axis=2)[..., 0]
    amp0 = np.where(enough, np.maximum(y_pk / np.maximum(gaussian((1.0, mu0, sigma0), t_pk, x_pk), 1e-300), 1e-12), np.nan)
    fit = damped_least_squares_batch(_gaussian_model, np.stack((amp0, mu0, sigma0), axis=1), cols, valid=_valid)
    # mu more than _MU_SPANS_OUTSIDE spans outside the ln range of the row's bin centers is a failure
    t_lo, t_hi, mu = t[:, 0], t[:, -1], fit.params[:, 1]
    inside = (t_lo - _MU_SPANS_OUTSIDE * (t_hi - t_lo) <= mu) & (mu <= t_hi + _MU_SPANS_OUTSIDE * (t_hi - t_lo))
    return fit, np.select([~enough, ~fit.converged, ~inside], [1, 2, 3], 0)


def fit_histogram(hist: Histogram, init: LognormalParams | None = None) -> LognormalFit:
    """Fit (A, mu, sigma) of the scaled model to a histogram's bin counts.

    Unweighted least squares on raw counts, minimized by damped iterative
    least squares with the analytic Jacobian (iteration cap 200, relative
    step tolerance 1e-10). Empty bins stay in the objective with count 0;
    bins with non-positive centers are excluded because ln is undefined
    there. Requires at least _MIN_BINS non-empty usable bins. Non-convergence
    returns the last iterate flagged converged=False, and so does a fit
    whose mu lies outside the ln range of the bin centers used by more than
    _MU_SPANS_OUTSIDE spans: LM can converge there on a few non-empty bins.
    A start whose residual is not finite comes back unconverged, unmoved.
    This is a one-row block of :func:`ensemble_fit`'s, padded to the same
    length, and gives bit for bit what that block gives the same histogram.
    """
    mask = hist.centers > 0
    x = np.asarray(hist.centers[mask], dtype=float)
    y = np.asarray(hist.counts[mask], dtype=float)
    if np.count_nonzero(y > 0) < _MIN_BINS:
        raise ValueError(f"histogram needs at least {_MIN_BINS} non-empty bins with positive centers")
    pad = -x.size % _PAD
    fit, status = _fit_block(np.pad(x, (0, pad), mode="edge")[None], np.pad(y, (0, pad))[None], np.array([x.size]), init)
    amp, mu, sigma = fit.params[0]
    return LognormalFit(
        amplitude=float(amp),
        params=LognormalParams(mu=float(mu), sigma=float(sigma)),
        n_bins_used=x.size,
        residual_norm=float(math.sqrt(fit.cost[0])),
        converged=bool(status[0] == 0),
    )


def fit_normal_log(hist: Histogram) -> LognormalFit:
    """Fit A' * exp(-(t - mu)^2 / (2 sigma^2)) to a histogram of ln values.

    Consistency check for :func:`fit_histogram`: on log-transformed data the
    same (mu, sigma) should come back, in the same parameterization. Every
    bin is used. Non-convergence returns the last iterate flagged
    converged=False; the caller decides how to report it.
    """
    t = np.asarray(hist.centers, dtype=float)
    y = np.asarray(hist.counts, dtype=float)
    if np.count_nonzero(y > 0) < _MIN_BINS:
        raise ValueError(f"histogram needs at least {_MIN_BINS} non-empty bins")

    mu0, sigma0 = _moment_init(t, y)
    amp0 = max(float(y.max()), 1e-12)
    result = damped_least_squares(_gaussian_model, [amp0, mu0, sigma0], np.stack((t, y, np.ones_like(t))), valid=_valid)
    amp, mu, sigma = result.params
    return LognormalFit(float(amp), LognormalParams(float(mu), float(sigma)), t.size, math.sqrt(result.cost), result.converged)


def ensemble_fit(
    values,
    lo: float,
    hi: float,
    bins_lo: int,
    bins_hi: int,
    n_fits: int,
    seed: int,
) -> FitEnsemble:
    """Refit across randomly drawn bin counts and summarize parameter percentiles.

    Draws ``n_fits`` bin counts uniformly from {bins_lo, ..., bins_hi} with a
    generator seeded by ``seed``, histograms ``values`` over [lo, hi) at each
    count, and fits the scaled model. Every value must be positive and lie
    in that half-open window, with 0 <= lo. A fit depends only on its bin
    count, so each distinct count is fitted once, in this process, and its
    result stands for every draw of that count. The counts are binned by
    :func:`binned_rows` into blocks, in ascending order: one row per count,
    padded to a multiple of _PAD cells, rows of one padded length together,
    at most _MAX_CELLS cells a block. Each block is one lockstep LM loop
    (see :func:`damped_least_squares_batch`), and a fit gives the same bits
    whichever fits share its block: those :func:`fit_histogram` gives for
    ``build_histogram(values, lo, hi, count)``. The converged (mu, sigma)
    pairs of all draws feed the 2.5/50/97.5 percentiles (linear
    interpolation between order statistics); ``n_failed`` counts the draws
    whose fit failed, not the distinct counts. All fits start from the
    log-sample moments of ``values``. Identical inputs give bit-identical
    results. Fewer than 8 values, a bin center at bins_hi too close to 0
    for the fit's sums to stay finite, or no drawn count that puts the
    values in _MIN_BINS non-empty bins raises DataError; NumericalError
    means every fit failed although some drawn count had its _MIN_BINS bins.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if not (0 <= lo < hi < math.inf):
        raise ValueError(f"need a window 0 <= lo < hi < inf, got [{lo}, {hi})")
    if not np.all((arr > 0) & (arr >= lo) & (arr < hi)):
        raise ValueError(f"values must be > 0 and lie inside [{lo}, {hi}); filter before fitting")
    if not (1 <= bins_lo <= bins_hi):
        raise ValueError(f"need 1 <= bins_lo <= bins_hi, got [{bins_lo}, {bins_hi}]")
    if n_fits < 1:
        raise ValueError(f"need n_fits >= 1, got {n_fits}")
    if arr.size < 8:
        raise DataError(f"only {arr.size} values inside [{lo!r}, {hi!r}); too few to fit")
    # Each of a fit's L padded cells adds at most (e / x)^2 <= 1 / x^2 to J'J, so its centers must keep L / x^2 finite.
    least_center = math.sqrt((bins_hi + -bins_hi % _PAD) / np.finfo(float).max)
    if lo + (hi - lo) / bins_hi / 2 < least_center:
        raise DataError(f"the window [{lo!r}, {hi!r}) lies too close to 0 for {bins_hi} bins: a bin center below {least_center:.3g} overflows the fit")

    logs = np.log(arr)
    init = LognormalParams(mu=float(logs.mean()), sigma=max(float(logs.std()), 1e-3))

    rng = np.random.default_rng(seed)
    bin_draws = rng.integers(bins_lo, bins_hi, size=n_fits, endpoint=True)

    bin_counts, draw_of = np.unique(bin_draws, return_inverse=True)
    length = bin_counts + -bin_counts % _PAD
    per_count = np.empty((bin_counts.size, 2))
    status, n_iter = np.empty((2, bin_counts.size), dtype=int)
    offsets = arr - lo
    start = 0
    while start < bin_counts.size:  # one block: counts of one padded length, at most _MAX_CELLS cells
        stop = min(start + max(1, _MAX_CELLS // length[start]), np.searchsorted(length, length[start], side="right"))
        n = bin_counts[start:stop]
        fit, status[start:stop] = _fit_block(*binned_rows(offsets, lo, hi, n, length[start]), n, init)
        per_count[start:stop], n_iter[start:stop] = fit.params[:, 1:], fit.n_iter
        start = stop
    fitted = n_iter[status != 1]
    if not fitted.size:
        raise DataError(f"no drawn bin count puts the {arr.size} values inside [{lo!r}, {hi!r}) in {_MIN_BINS} non-empty bins")
    per_draw = per_count[draw_of][status[draw_of] == 0]
    if not len(per_draw):
        raise NumericalError(f"all {n_fits} ensemble fits failed")

    ordered = np.sort(per_draw, axis=0)
    mu_lo, mu_mid, mu_hi = _sorted_percentiles(ordered[:, 0], (2.5, 50.0, 97.5))
    sg_lo, sg_mid, sg_hi = _sorted_percentiles(ordered[:, 1], (2.5, 50.0, 97.5))
    failed = {f"failed_bin_counts.{why}": int(k) for why, k in zip(_FAILURES, np.bincount(status, minlength=4)[1:])}
    return FitEnsemble(
        mu_p2_5=mu_lo,
        mu_p50=mu_mid,
        mu_p97_5=mu_hi,
        sigma_p2_5=sg_lo,
        sigma_p50=sg_mid,
        sigma_p97_5=sg_hi,
        n_failed=int(n_fits - len(per_draw)),
        diagnostics={
            **failed,
            "lm_iterations_per_bin_count.mean": float(fitted.mean()),
            "lm_iterations_per_bin_count.max": int(fitted.max()),
        },
    )


def _sorted_percentiles(ordered: np.ndarray, qs) -> list[float]:
    """The ``qs`` percentiles of the ascending sample ``ordered`` by NumPy's default ``linear`` rule.

    At virtual index (n - 1) q / 100 it reads a + (b - a) t, or b - (b - a)(1 - t) where t >= 0.5, as NumPy's
    ``_lerp`` does. That equals ``np.percentile`` bit for bit, except where -0.0 and +0.0 tie, as a sort and a
    partition may order them differently. ``np.percentile`` calls ``np.unique``, which imports ``numpy.ma``.
    """
    last = len(ordered) - 1
    out = []
    for q in qs:
        v = last * (q / 100)
        i = math.floor(v)  # i = last only at q = 100, where b = a and t = 0
        a, b, t = float(ordered[i]), float(ordered[min(i + 1, last)]), v - i
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def derived_stats(params: LognormalParams) -> DerivedStats:
    """Closed-form mean, median, mode and the central 95% interval.

    mean = e^(mu + sigma^2/2), median = e^mu, mode = e^(mu - sigma^2); for
    sigma > 0 these are strictly ordered mode < median < mean. The interval
    endpoints are the distribution quantiles e^(mu +- z sigma) with z the
    standard normal 97.5% quantile. A statistic past the largest float
    raises NumericalError.
    """
    mu, sigma = params.mu, params.sigma
    exponents = {
        "mean": mu + 0.5 * sigma**2,
        "median": mu,
        "mode": mu - sigma**2,
        "interval95_lo": mu - _Z975 * sigma,
        "interval95_hi": mu + _Z975 * sigma,
    }
    stats = {}
    for name, exponent in exponents.items():
        try:
            stats[name] = math.exp(exponent)
        except OverflowError:
            raise NumericalError(f"the fitted lognormal's {name} e^{exponent:.6g} is past the largest float") from None
    return DerivedStats(**stats)


def percentile_of(x: float, params: LognormalParams) -> float:
    """Fraction of the distribution at or below x > 0 (the value's percentile).

    Equals Phi((ln x - mu) / sigma) with Phi the standard normal CDF,
    evaluated to machine precision via erfc.
    """
    if not (x > 0):
        raise ValueError(f"percentile_of requires x > 0, got {x}")
    z = (math.log(x) - params.mu) / params.sigma
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
