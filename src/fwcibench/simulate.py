"""Monte Carlo small-sample correction for award-level mean impact.

An award's mean FWCI over n papers is a noisy, skew-biased estimator: under a
unit-mean lognormal baseline the median of such means sits well below 1 for
small n and climbs toward 1 as n grows. This module simulates that median and
benchmarks observed award means against it, per baseline spread.

Every quantity is deterministic given (n, sigma_sq, reps, seed). The reps are
split into ceil(reps / 2**15) blocks of near-equal size, block b drawing from
its own stream keyed by (seed, b). A block of m reps draws ceil(m / 2) normals
z per paper: its first ceil(m / 2) reps take e^(mu + sigma z), its last
floor(m / 2) take e^(mu - sigma z) of the first floor(m / 2): antithetic pairs
(Hammersley & Morton, 1956), each rep still an exact baseline draw. Whether a
mean lies below a point is monotone in every z, so by Harris's inequality a
rep and its mirror are negatively correlated there and the median varies no
more than with independent reps; at n = 1 with even blocks it is e^mu
cosh(sigma min |z|), e^mu to about 1e-9 at 100,000 reps. Paper j's normals
serve every baseline and every paper count from j on: common random numbers
across sigma_sq and n. So adding or reordering paper counts or baselines never
perturbs other results, no result depends on the number of threads, and the
medians are correlated with each other. Blocks advance on a thread pool and
the calling thread takes the medians. Memory is one reps-long running sum per
baseline, one scratch array and ~reps/2 normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import AwardSummary
from .lognormal import LognormalParams, NumericalError

VERDICT_ABOVE = "above_median"
VERDICT_BELOW = "below_median"
_BLOCK = 2**15  # reps per block at most

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


def _stream(seed: int, block: int) -> np.random.Generator:
    """The generator stream of one block of reps."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(block)]))


def median_curve(n_values, baselines, reps: int, seed: int) -> list[MedianCurvePoint]:
    """Median over reps simulated awards of the mean of n baseline draws, one point per (baseline, n).

    Points come grouped by baseline, each in the order of n_values. Paper j
    is drawn for each block of at most 2**15 reps at once, as the module
    docstring's antithetic pairs: the estimand is unchanged, the median is
    no noisier than with independent reps, and at n = 1 with even blocks it
    is e^mu. Each baseline adds paper j to its running sum, so the n-paper
    means are the first n papers of each rep and a point never moves when
    other paper counts or baselines are asked for. At each distinct n,
    ascending, every block advances to n as one task on a default-sized
    thread pool, then the calling thread takes the medians; no point depends
    on the number of threads. Time grows with reps * max(n_values).
    """
    n_list = [int(n) for n in n_values]
    wanted = sorted(set(n_list))
    if not wanted:
        raise ValueError("n_values must be non-empty")
    if wanted[0] < 1:
        raise ValueError(f"need n >= 1, got {wanted[0]}")
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    base_list = list(baselines)
    if not base_list:
        raise ValueError("baselines must be non-empty")

    params = [base.params for base in base_list]
    # The reps-long arrays first: reps too large to allocate then fail here, before anything reps / _BLOCK long is built.
    totals, scratch = np.zeros((len(params), reps)), np.empty(reps)
    n_blocks = -(-reps // _BLOCK)
    bounds = [b * reps // n_blocks for b in range(n_blocks + 1)]
    # Seeded here, before any worker starts: the first default_rng imports
    # numpy.random, whose memory would otherwise land in a worker's malloc arena.
    streams = [_stream(seed, b) for b in range(n_blocks)]
    normals = [np.empty((bounds[b + 1] - bounds[b] + 1) // 2) for b in range(n_blocks)]  # ceil(m / 2) per block
    half = reps // 2
    out: list[dict[int, float]] = [{} for _ in params]

    def advance(b: int, start: int, stop: int) -> None:
        rows = slice(bounds[b], bounds[b + 1])
        z, x = normals[b], scratch[rows]
        ahead, mirrored = x[: len(z)], x[len(z) :]  # +z, then -z of the first floor(m / 2)
        for _ in range(start, stop):
            streams[b].standard_normal(out=z)
            for p, total in zip(params, totals):
                # in place: a fresh array per paper costs ~60% more time; mu stays in the exp, as e^(sigma z) alone overflows first
                np.multiply(z, p.sigma, out=ahead)
                np.negative(ahead[: len(mirrored)], out=mirrored)
                x += p.mu
                np.exp(x, out=x)
                total[rows] += x

    # Imported here: at module load it would add ~0.3 MB to commands that start no thread.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor() as pool:
        for done, n in zip([0, *wanted], wanted):
            list(pool.map(advance, range(n_blocks), [done] * n_blocks, [n] * n_blocks))
            for base, total, values in zip(base_list, totals, out):
                # np.median's value from one partition: at even reps np.median partitions at two ranks, ~8x the time
                np.copyto(scratch, total)
                scratch.partition(half)
                values[n] = float(scratch[half] if reps % 2 else (scratch[:half].max() + scratch[half]) / 2) / n
                if not values[n] > 0:
                    raise NumericalError(f"simulated median of means underflows to {values[n]!r} at sigma2 = {base.sigma_sq!r}, n = {n}")
    return [
        MedianCurvePoint(n=n, sigma_sq=base.sigma_sq, median_mean=values[n])
        for base, values in zip(base_list, out)
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
