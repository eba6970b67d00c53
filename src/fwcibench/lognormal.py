"""Lognormal impact model: density, scaled histogram fits, bin ensembles, derived stats.

The model family is the two-parameter lognormal in log-location mu and
log-spread sigma. Histogram fits use the scaled form (A / x) *
exp(-(ln x - mu)^2 / (2 sigma^2)) whose amplitude A absorbs the sample size
and bin width, so raw bin counts can be fitted without normalizing them.
Because best-fit parameters depend on the binning, confidence intervals come
from refitting at many randomly drawn bin counts (each distinct count once)
and reading percentiles off the parameter distribution over the draws.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .corpus import NumericalError
from .histogram import Histogram, build_histogram
from .leastsq import damped_least_squares

log = logging.getLogger(__name__)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


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
    """A single scaled-model fit to one histogram."""

    amplitude: float
    params: LognormalParams
    n_bins_used: int
    residual_norm: float
    converged: bool


@dataclass(frozen=True)
class FitEnsemble:
    """Percentile summaries of (mu, sigma) across a random-bin fit ensemble.

    The 2.5 and 97.5 percentiles bound a 95% confidence interval; the median
    is the central value. Only converged fits contribute.
    """

    mu_p2_5: float
    mu_p50: float
    mu_p97_5: float
    sigma_p2_5: float
    sigma_p50: float
    sigma_p97_5: float
    n_fits: int
    n_failed: int
    seed: int


@dataclass(frozen=True)
class DerivedStats:
    """Closed-form statistics of a lognormal with the given parameters."""

    mean: float
    median: float
    mode: float
    interval95_lo: float
    interval95_hi: float


def pdf(x, params: LognormalParams):
    """Lognormal probability density at x > 0.

    p(x) = 1 / (x sigma sqrt(2 pi)) * exp(-(ln x - mu)^2 / (2 sigma^2)).
    """
    return scaled_model(x, 1.0 / (params.sigma * _SQRT_2PI), params)


def scaled_model(x, amplitude: float, params: LognormalParams):
    """Expected bin count (A / x) * exp(-(ln x - mu)^2 / (2 sigma^2)).

    Setting A = 1 / (sigma * sqrt(2 pi)) recovers the unit-area density exactly.
    """
    if not (amplitude > 0):
        raise ValueError(f"amplitude must be > 0, got {amplitude}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("scaled_model requires x > 0")
    out = gaussian((amplitude, params.mu, params.sigma), np.log(arr), arr)
    return float(out) if arr.ndim == 0 else out


def gaussian(p, t: np.ndarray, div: np.ndarray | float = 1.0) -> np.ndarray:
    """A * exp(-(t - mu)^2 / (2 sigma^2)) / div for p = (A, mu, sigma).

    With the default ``div`` this is the Gaussian in t = ln x; dividing by
    x gives the scaled lognormal model.
    """
    amp, mu, sigma = p
    z = (t - mu) / sigma
    return amp * np.exp(-0.5 * z * z) / div


def _fit_gaussian(t: np.ndarray, y: np.ndarray, div: np.ndarray | float, p0: list[float]):
    """Least-squares fit of :func:`gaussian` to counts ``y`` at ``t``, from ``p0``.

    The histogram fit divides by x (t = ln x); the ln-space fit divides by
    1.0, which is exact, so both share one residual, Jacobian and domain.
    """

    def residual(p: np.ndarray) -> np.ndarray:
        return y - gaussian(p, t, div)

    def jacobian(p: np.ndarray) -> np.ndarray:
        amp, mu, sigma = p
        z = (t - mu) / sigma
        shape = np.exp(-0.5 * z * z) / div
        return np.column_stack((shape, amp * shape * z / sigma, amp * shape * z * z / sigma))

    def valid(p: np.ndarray) -> bool:
        return bool(np.isfinite(p).all()) and p[0] > 0 and p[2] > 0

    return damped_least_squares(residual, jacobian, p0, valid=valid)


def _moment_init(t: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    total = float(weights.sum())
    if total <= 0:
        return 0.0, 1.0
    mu0 = float((weights * t).sum() / total)
    var0 = float((weights * (t - mu0) ** 2).sum() / total)
    return mu0, max(math.sqrt(var0), 1e-3)


def fit_histogram(hist: Histogram, init: LognormalParams | None = None) -> LognormalFit:
    """Fit (A, mu, sigma) of the scaled model to a histogram's bin counts.

    Unweighted least squares on raw counts, minimized by damped iterative
    least squares with the analytic Jacobian (iteration cap 200, relative
    step tolerance 1e-10). Empty bins stay in the objective with count 0;
    bins with non-positive centers are excluded because ln is undefined
    there. Requires at least 4 non-empty usable bins. Non-convergence
    returns the last iterate flagged converged=False.
    """
    mask = hist.centers > 0
    x = np.asarray(hist.centers[mask], dtype=float)
    y = np.asarray(hist.counts[mask], dtype=float)
    if int((y > 0).sum()) < 4:
        raise ValueError("histogram needs at least 4 non-empty bins with positive centers")
    t = np.log(x)

    if init is not None:
        mu0, sigma0 = init.mu, init.sigma
    else:
        mu0, sigma0 = _moment_init(t, y)
    peak = int(np.argmax(y))
    z0 = (t[peak] - mu0) / sigma0
    shape_at_peak = math.exp(-0.5 * z0 * z0) / x[peak]
    amp0 = max(y[peak] / max(shape_at_peak, 1e-300), 1e-12)

    result = _fit_gaussian(t, y, x, [amp0, mu0, sigma0])
    amp, mu, sigma = result.params
    return LognormalFit(
        amplitude=float(amp),
        params=LognormalParams(mu=float(mu), sigma=float(sigma)),
        n_bins_used=int(x.size),
        residual_norm=float(math.sqrt(result.cost)),
        converged=result.converged,
    )


def fit_normal_log(hist: Histogram) -> tuple[float, LognormalParams]:
    """Fit A' * exp(-(t - mu)^2 / (2 sigma^2)) to a histogram of ln values.

    Consistency check for :func:`fit_histogram`: on log-transformed data the
    same (mu, sigma) should come back, in the same parameterization. Returns
    (amplitude, params); non-convergence is logged as a warning since the
    contract has no flag slot.
    """
    t = np.asarray(hist.centers, dtype=float)
    y = np.asarray(hist.counts, dtype=float)
    if int((y > 0).sum()) < 4:
        raise ValueError("histogram needs at least 4 non-empty bins")

    mu0, sigma0 = _moment_init(t, y)
    amp0 = max(float(y.max()), 1e-12)
    result = _fit_gaussian(t, y, 1.0, [amp0, mu0, sigma0])
    if not result.converged:
        log.warning("normal fit to log histogram did not converge in %d iterations", result.n_iter)
    amp, mu, sigma = result.params
    return float(amp), LognormalParams(mu=float(mu), sigma=float(sigma))


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
    count, and fits the scaled model. A fit depends only on its bin count, so
    each distinct count is fitted once and its result stands for every draw
    of that count. The converged (mu, sigma) pairs of all draws feed the
    2.5/50/97.5 percentiles (linear interpolation between order statistics);
    ``n_failed`` counts the draws whose fit failed, not the distinct counts.
    All fits start from the log-sample moments of ``values``. Identical
    inputs give bit-identical results.

    One strided share of the distinct counts per available core is fitted,
    here or in a forked child; the result does not depend on the core count.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("values must be non-empty")
    if not np.all((arr > lo) & (arr < hi)):
        raise ValueError(f"values must lie strictly inside ({lo}, {hi}); filter before fitting")
    if not (1 <= bins_lo <= bins_hi):
        raise ValueError(f"need 1 <= bins_lo <= bins_hi, got [{bins_lo}, {bins_hi}]")
    if n_fits < 1:
        raise ValueError(f"need n_fits >= 1, got {n_fits}")

    logs = np.log(arr)
    init = LognormalParams(mu=float(logs.mean()), sigma=max(float(logs.std()), 1e-3))

    rng = np.random.default_rng(seed)
    bin_draws = rng.integers(bins_lo, bins_hi, size=n_fits, endpoint=True)

    bin_counts, draw_of = np.unique(bin_draws, return_inverse=True)
    per_count = np.full((bin_counts.size, 2), np.nan)
    workers = min(len(os.sched_getaffinity(0)), bin_counts.size)

    def fit_share(share: int) -> np.ndarray:
        for k in range(share, bin_counts.size, workers):  # strided: the costly high counts spread evenly
            try:
                fit = fit_histogram(build_histogram(arr, lo, hi, int(bin_counts[k])), init=init)
            except ValueError:
                continue
            if fit.converged:
                per_count[k] = fit.params.mu, fit.params.sigma
        return per_count[share::workers]

    children = []  # (share, pid, read end of its pipe)
    try:
        for share in range(1, workers):
            read_end, write_end = os.pipe()
            if not (pid := os.fork()):  # the child leaves only through os._exit: no stdio flush, no atexit
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as fh:
                        fh.write(fit_share(share).tobytes())
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_end)
            children.append((share, pid, read_end))
        fit_share(0)
    except BaseException:
        import signal  # here, not at module load, where it would add 0.4 ms to every launch
        for _, pid, read_end in children:
            os.kill(pid, signal.SIGKILL)
            os.close(read_end)
            os.waitpid(pid, 0)
        raise
    for share, pid, read_end in children:
        with open(read_end, "rb") as fh:  # read to EOF first: a share can outgrow the pipe buffer
            data = fh.read()
        ok = os.waitpid(pid, 0)[1] == 0 and len(data) == per_count[share::workers].nbytes
        per_count[share::workers] = np.frombuffer(data).reshape(-1, 2) if ok else fit_share(share)
    per_draw = per_count[draw_of]
    per_draw = per_draw[~np.isnan(per_draw[:, 0])]
    if not len(per_draw):
        raise NumericalError(f"all {n_fits} ensemble fits failed")

    mu_lo, mu_mid, mu_hi = np.percentile(per_draw[:, 0], [2.5, 50.0, 97.5])
    sg_lo, sg_mid, sg_hi = np.percentile(per_draw[:, 1], [2.5, 50.0, 97.5])
    return FitEnsemble(
        mu_p2_5=float(mu_lo),
        mu_p50=float(mu_mid),
        mu_p97_5=float(mu_hi),
        sigma_p2_5=float(sg_lo),
        sigma_p50=float(sg_mid),
        sigma_p97_5=float(sg_hi),
        n_fits=int(n_fits),
        n_failed=int(n_fits - len(per_draw)),
        seed=int(seed),
    )


def derived_stats(params: LognormalParams) -> DerivedStats:
    """Closed-form mean, median, mode and the central 95% interval.

    mean = e^(mu + sigma^2/2), median = e^mu, mode = e^(mu - sigma^2); for
    sigma > 0 these are strictly ordered mode < median < mean. The interval
    endpoints are the distribution quantiles e^(mu +- z sigma) with z the
    standard normal 97.5% quantile. A statistic past the largest float
    raises NumericalError.
    """
    mu, sigma = params.mu, params.sigma
    z = NormalDist().inv_cdf(0.975)
    exponents = {
        "mean": mu + 0.5 * sigma**2,
        "median": mu,
        "mode": mu - sigma**2,
        "interval95_lo": mu - z * sigma,
        "interval95_hi": mu + z * sigma,
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
