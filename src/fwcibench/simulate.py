"""Monte Carlo small-sample correction for award-level mean impact.

An award's mean FWCI over n papers is a noisy, skew-biased estimator: under a
unit-mean lognormal baseline the median of such means sits well below 1 for
small n and climbs toward 1 as n grows. This module simulates that median and
benchmarks observed award means against it, per baseline spread.

Every quantity is deterministic given (n, sigma_sq, reps, seed): each
(n, sigma_sq) combination gets its own generator substream keyed by the
values themselves, so adding or reordering baselines never perturbs results
computed for other combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .corpus import AwardSummary
from .lognormal import LognormalParams

VERDICT_ABOVE = "above_median"
VERDICT_BELOW = "below_median"

# Draws per chunk when a single request would not fit comfortably in memory.
# Chunking is invisible: consecutive standard_normal calls on one generator
# consume the underlying bit stream exactly as a single combined call would.
_CHUNK_VALUES = 8_000_000


@dataclass(frozen=True)
class BaselineField:
    """Unit-mean lognormal baseline, parameterized by its log-variance only.

    Fixing mu = -sigma_sq / 2 pins the distribution mean to exactly 1, which
    is what a field-normalized impact score has by construction.
    """

    sigma_sq: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_sq) and self.sigma_sq > 0):
            raise ValueError(f"sigma_sq must be finite and > 0, got {self.sigma_sq}")

    @property
    def params(self) -> LognormalParams:
        # mu is derived from the rounded sigma, not from sigma_sq, so that
        # mu + sigma^2/2 cancels to exactly 0 and the implied mean is
        # exactly 1 in floating point.
        sigma = math.sqrt(self.sigma_sq)
        return LognormalParams(mu=-0.5 * sigma**2, sigma=sigma)


@dataclass(frozen=True)
class MedianCurvePoint:
    """Median of per-award mean impact at one (n, sigma_sq) combination."""

    n: int
    sigma_sq: float
    median_mean: float
    reps: int
    seed: int


@dataclass(frozen=True)
class AwardBenchmark:
    """One award's observed mean compared against simulated medians.

    thresholds maps sigma_sq to the simulated median of means at this award's
    paper count; verdicts maps sigma_sq to above_median / below_median. A tie
    counts as above_median.
    """

    award_code: str
    n_papers: int
    observed_mean: float
    verdicts: dict[float, str]
    thresholds: dict[float, float]


@dataclass(frozen=True)
class SigmaAggregate:
    """Portfolio counts against one baseline spread.

    n_small_sample_pass counts awards above the simulated median whose plain
    mean is below 1, i.e. awards that pass only once the small-n bias of the
    mean is accounted for.
    """

    sigma_sq: float
    n_total: int
    n_above: int
    n_below: int
    n_mean_ge_1: int
    n_small_sample_pass: int

    @property
    def fraction_above(self) -> float:
        return self.n_above / self.n_total


def _stream(seed: int, n: int, sigma_sq: float) -> np.random.Generator:
    """Generator substream for one (seed, n, sigma_sq) combination.

    sigma_sq enters through its float64 bit pattern, so any two distinct
    spreads get distinct streams without an index convention to keep stable.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    key = int(np.float64(sigma_sq).view(np.uint64))
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(n), key]))


def sample_lognormal(params: LognormalParams, n: int, stream: np.random.Generator) -> np.ndarray:
    """Draw n values e^(mu + sigma Z), advancing the stream deterministically."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    z = stream.standard_normal(n)
    return np.exp(params.mu + params.sigma * z)


@lru_cache(maxsize=None)
def _median_mean(n: int, sigma_sq: float, reps: int, seed: int) -> float:
    """Median over reps simulated awards of the mean of n baseline draws.

    Cache-safe because the result is a pure function of the key: the stream
    is derived from (seed, n, sigma_sq) alone. Draws are chunked to bound
    memory; the chunk size does not affect the values (see _CHUNK_VALUES).
    """
    rng = _stream(seed, n, sigma_sq)
    mu = -0.5 * sigma_sq
    sigma = math.sqrt(sigma_sq)
    means = np.empty(reps, dtype=np.float64)
    block = max(_CHUNK_VALUES // n, 1)
    done = 0
    while done < reps:
        m = min(block, reps - done)
        z = rng.standard_normal(m * n)
        means[done : done + m] = np.exp(mu + sigma * z).reshape(m, n).mean(axis=1)
        done += m
    # np.median averages the two central order statistics when reps is even.
    median = float(np.median(means))
    if not median > 0:
        raise ValueError(f"simulated median of means underflows to {median!r} at sigma2 = {sigma_sq!r}, n = {n}")
    return median


def median_of_means(n: int, baseline: BaselineField, reps: int, seed: int) -> MedianCurvePoint:
    """Simulate reps awards of n papers each and return the median award mean.

    Each award's mean is the arithmetic mean of n independent draws from the
    baseline. Deterministic per (n, sigma_sq, reps, seed); repeated calls are
    served from a cache.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    value = _median_mean(int(n), float(baseline.sigma_sq), int(reps), int(seed))
    return MedianCurvePoint(
        n=int(n),
        sigma_sq=baseline.sigma_sq,
        median_mean=value,
        reps=int(reps),
        seed=int(seed),
    )


def median_curve(
    n_values,
    baselines,
    reps: int,
    seed: int,
) -> list[MedianCurvePoint]:
    """One MedianCurvePoint per (baseline, n) combination, grouped by baseline."""
    n_list = list(n_values)
    base_list = list(baselines)
    if not n_list:
        raise ValueError("n_values must be non-empty")
    if not base_list:
        raise ValueError("baselines must be non-empty")
    return [median_of_means(n, b, reps, seed) for b in base_list for n in n_list]


def benchmark_award(
    summary: AwardSummary,
    baselines,
    reps: int,
    seed: int,
) -> AwardBenchmark:
    """Compare one award's observed mean against the simulated medians for its n.

    Verdict is above_median iff observed_mean >= threshold; the tie rule is
    fixed so reruns can never disagree.
    """
    if summary.n_papers < 1:
        raise ValueError(f"award {summary.award_code!r} has no papers to benchmark")
    if summary.mean_fwci is None:
        raise ValueError(f"award {summary.award_code!r} has no mean impact value")
    thresholds: dict[float, float] = {}
    verdicts: dict[float, str] = {}
    for baseline in baselines:
        threshold = _median_mean(int(summary.n_papers), float(baseline.sigma_sq), int(reps), int(seed))
        thresholds[baseline.sigma_sq] = threshold
        verdicts[baseline.sigma_sq] = (
            VERDICT_ABOVE if summary.mean_fwci >= threshold else VERDICT_BELOW
        )
    return AwardBenchmark(
        award_code=summary.award_code,
        n_papers=summary.n_papers,
        observed_mean=summary.mean_fwci,
        verdicts=verdicts,
        thresholds=thresholds,
    )


def aggregate_benchmarks(benchmarks) -> tuple[SigmaAggregate, ...]:
    """Portfolio counts per baseline spread, sorted by sigma_sq.

    Requires every benchmark to carry verdicts for the same sigma_sq set.
    Empty input aggregates to an empty tuple.
    """
    bench_list = list(benchmarks)
    if not bench_list:
        return ()
    sigma_set = set(bench_list[0].verdicts)
    for b in bench_list[1:]:
        if set(b.verdicts) != sigma_set:
            raise ValueError("benchmarks carry inconsistent sigma_sq sets")
    n_mean_ge_1 = sum(1 for b in bench_list if b.observed_mean >= 1.0)
    out = []
    for sigma_sq in sorted(sigma_set):
        n_above = sum(1 for b in bench_list if b.verdicts[sigma_sq] == VERDICT_ABOVE)
        n_pass = sum(
            1
            for b in bench_list
            if b.verdicts[sigma_sq] == VERDICT_ABOVE and b.observed_mean < 1.0
        )
        out.append(
            SigmaAggregate(
                sigma_sq=sigma_sq,
                n_total=len(bench_list),
                n_above=n_above,
                n_below=len(bench_list) - n_above,
                n_mean_ge_1=n_mean_ge_1,
                n_small_sample_pass=n_pass,
            )
        )
    return tuple(out)
