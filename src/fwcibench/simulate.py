"""Monte Carlo small-sample correction for award-level mean impact.

An award's mean FWCI over n papers is a noisy, skew-biased estimator: under a
unit-mean lognormal baseline the median of such means sits well below 1 for
small n and climbs toward 1 as n grows. This module simulates that median and
benchmarks observed award means against it, per baseline spread.

Every quantity is deterministic given (n, sigma_sq, reps, seed). The
simulation uses common random numbers: each (seed, sigma_sq) has one
generator stream, and every paper count reads its awards from the start of
that stream, so the median for n depends only on the first n draws of each
simulated award. Adding or reordering paper counts or baselines therefore
never perturbs other results, and one sigma_sq's medians are correlated
across n. Each baseline of a curve runs as one task on a default-sized thread
pool; memory is two reps-long arrays per baseline in flight, and no result
depends on the number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import AwardSummary
from .lognormal import LognormalParams, NumericalError

VERDICT_ABOVE = "above_median"
VERDICT_BELOW = "below_median"

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


def sample_lognormal(params: LognormalParams, n: int, stream: np.random.Generator) -> np.ndarray:
    """Draw n values e^(mu + sigma Z), advancing the stream deterministically."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    z = stream.standard_normal(n)
    return np.exp(params.mu + params.sigma * z)


def _checked(n_values, reps: int, seed: int) -> list[int]:
    """The distinct paper counts in n_values, ascending, once they, reps and seed are checked."""
    wanted = sorted({int(n) for n in n_values})
    if not wanted:
        raise ValueError("n_values must be non-empty")
    if wanted[0] < 1:
        raise ValueError(f"need n >= 1, got {wanted[0]}")
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return wanted


def _stream(sigma_sq: float, seed: int) -> np.random.Generator:
    """The generator stream of (seed, sigma_sq), keyed by sigma_sq's float64 bit pattern."""
    key = int(np.float64(sigma_sq).view(np.uint64))
    return np.random.default_rng(np.random.SeedSequence([int(seed), key]))


def _run(wanted: list[int], sigma_sq: float, reps: int, rng: np.random.Generator, failed: list) -> dict[int, float]:
    """One baseline's medians at each n in wanted (see medians), drawn from rng.

    Stops at its next paper, returning the medians so far, once failed is
    non-empty; appends sigma_sq to failed if it raises itself.
    """
    params = BaselineField(sigma_sq).params
    total = np.zeros(reps)
    scratch = np.empty(reps)
    out: dict[int, float] = {}
    try:
        for n in range(1, wanted[-1] + 1):
            if failed:
                break
            # in place: sample_lognormal's fresh arrays per paper cost ~60% more time
            rng.standard_normal(out=scratch)
            scratch *= params.sigma
            scratch += params.mu
            np.exp(scratch, out=scratch)
            np.add(total, scratch, out=total)
            if n == wanted[len(out)]:
                # The median partitions a copy of total in scratch; np.median
                # averages the two central order statistics when reps is even.
                np.copyto(scratch, total)
                median = float(np.median(scratch, overwrite_input=True)) / n
                if not median > 0:
                    raise NumericalError(f"simulated median of means underflows to {median!r} at sigma2 = {sigma_sq!r}, n = {n}")
                out[n] = median
    except BaseException:
        failed.append(sigma_sq)
        raise
    return out


def medians(n_values, sigma_sq: float, reps: int, seed: int) -> dict[int, float]:
    """Median over reps simulated awards of the mean of n baseline draws, for each n.

    One generator stream per (seed, sigma_sq), with sigma_sq entering through
    its float64 bit pattern. Paper j is drawn for all reps at once and added
    to a running sum, so the n-paper award means are the first n draws of
    each rep: a result for n depends only on the first n * reps values of
    the stream, and adding paper counts or baselines never moves another
    result. Because every n reads the same draws, one sigma_sq's medians are
    correlated across n. Memory is two reps-long arrays, the running sum and
    a scratch array for each paper's draws and the median; time grows with
    reps * max(n_values). median_curve gives the same values for many baselines.
    """
    return _run(_checked(n_values, reps, seed), sigma_sq, reps, _stream(sigma_sq, seed), [])


def median_curve(n_values, baselines, reps: int, seed: int) -> list[MedianCurvePoint]:
    """One MedianCurvePoint per (baseline, n) combination, grouped by baseline.

    Each baseline runs its whole stream as one task on a default-sized thread
    pool, so each point is the value medians gives, whatever the number of
    threads; after one baseline fails, the others stop at their next paper.
    Memory is two reps-long arrays per baseline in flight.
    """
    n_list = [int(n) for n in n_values]
    wanted = _checked(n_list, reps, seed)
    base_list = list(baselines)
    if not base_list:
        raise ValueError("baselines must be non-empty")
    # Seeded here, before any worker starts: the first default_rng imports
    # numpy.random, whose memory would otherwise land in a worker's malloc arena.
    streams = [_stream(b.sigma_sq, seed) for b in base_list]
    # Imported here: at module load it would add ~0.3 MB to commands that start no thread.
    from concurrent.futures import ThreadPoolExecutor

    failed: list[float] = []
    with ThreadPoolExecutor() as pool:
        runs = list(pool.map(lambda b, rng: _run(wanted, b.sigma_sq, reps, rng, failed), base_list, streams))
    return [
        MedianCurvePoint(n=n, sigma_sq=b.sigma_sq, median_mean=values[n])
        for b, values in zip(base_list, runs)
        for n in n_list
    ]


def benchmark_award(summary: AwardSummary, thresholds: dict[float, float]) -> AwardBenchmark:
    """Compare one award's observed mean against its simulated medians.

    thresholds maps sigma_sq to the simulated median of means at this award's
    paper count. Verdict is above_median iff observed_mean >= threshold; the
    tie rule is fixed so reruns can never disagree.
    """
    if summary.n_papers < 1:
        raise ValueError(f"award {summary.award_code!r} has no papers to benchmark")
    if summary.mean_fwci is None:
        raise ValueError(f"award {summary.award_code!r} has no mean impact value")
    verdicts = {s: VERDICT_ABOVE if summary.mean_fwci >= t else VERDICT_BELOW for s, t in thresholds.items()}
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
