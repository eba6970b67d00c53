import concurrent.futures
import functools
import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fwcibench import simulate
from fwcibench.corpus import AwardSummary
from fwcibench.lognormal import LognormalParams, NumericalError, derived_stats
from fwcibench.simulate import (
    VERDICT_ABOVE,
    VERDICT_BELOW,
    BaselineField,
    MedianCurvePoint,
    benchmark_award,
    median_curve,
)

SEED = 1
REPS = 100_000
SIGMAS = (1.0, 1.3, 1.8)
REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "reference_thresholds.json")


def summary(code="12/IA/1234", n=1, mean=1.0):
    return AwardSummary(award_code=code, n_papers=n, mean_fwci=mean)


def medians(n_values, sigma_sq, reps, seed):
    """The n -> simulated median map of one baseline, read off median_curve."""
    return {p.n: p.median_mean for p in median_curve(n_values, [BaselineField(sigma_sq)], reps, seed)}


def thresholds_at(n, sigmas, reps, seed):
    """The sigma_sq -> simulated median map that benchmark_award takes, for n papers."""
    return {s: medians([n], s, reps, seed)[n] for s in sigmas}


def block_sizes(reps):
    """The number of reps in each block, as median_curve splits them."""
    n_blocks = -(-reps // simulate._BLOCK)
    return [(b + 1) * reps // n_blocks - b * reps // n_blocks for b in range(n_blocks)]


def normal_bounds(sizes):
    """Where each block's ceil(m / 2) normals start in one array of all blocks' normals, and where the last ends."""
    return np.cumsum([0] + [-(-m // 2) for m in sizes])


def mirrored(z, m):
    """A block's m normals from the ceil(m / 2) drawn for it (last axis): z, then -z of the first floor(m / 2)."""
    return np.concatenate([z, -z[..., : m // 2]], axis=-1)


# --- BaselineField ---


def test_baseline_validation():
    with pytest.raises(ValueError):
        BaselineField(0.0)
    with pytest.raises(ValueError):
        BaselineField(-1.3)
    with pytest.raises(ValueError):
        BaselineField(math.inf)


@given(st.floats(min_value=0.01, max_value=10))
def test_baseline_implied_mean_is_exactly_one(sigma_sq):
    assert derived_stats(BaselineField(sigma_sq).params).mean == 1.0


def test_baseline_params_location():
    p = BaselineField(1.3).params
    assert p.sigma == pytest.approx(math.sqrt(1.3), rel=1e-15)
    assert p.mu == pytest.approx(-0.65, rel=1e-12)


# --- lognormal draws (the tests' sampler) ---


def test_sample_degenerate_sigma(lognormal_sampler):
    p = LognormalParams(mu=0.2, sigma=1e-15)
    draws = lognormal_sampler(p, 100, np.random.default_rng(0))
    assert np.allclose(draws, math.exp(0.2), rtol=1e-12)


def test_sample_mean_obeys_large_numbers(lognormal_sampler):
    draws = lognormal_sampler(BaselineField(1.3).params, 1_000_000, np.random.default_rng(10))
    assert draws.mean() == pytest.approx(1.0, abs=0.01)


def test_sample_median_symmetry(lognormal_sampler):
    p = BaselineField(1.3).params
    draws = lognormal_sampler(p, 1_000_000, np.random.default_rng(11))
    below = float((draws < math.exp(p.mu)).mean())
    assert below == pytest.approx(0.5, abs=0.002)


def test_sample_advances_stream_deterministically(lognormal_sampler):
    a = lognormal_sampler(BaselineField(1.0).params, 50, np.random.default_rng(5))
    b = lognormal_sampler(BaselineField(1.0).params, 50, np.random.default_rng(5))
    assert np.array_equal(a, b)


# --- medians ---


def test_median_of_means_deterministic():
    a = medians([3], 1.3, 2000, 7)[3]
    b = medians([3], 1.3, 2000, 7)[3]
    assert a == b


def test_median_of_means_seed_sensitivity_is_small():
    a = median_curve([1], [BaselineField(1.3)], REPS, SEED)[0]
    b = median_curve([1], [BaselineField(1.3)], REPS, SEED + 50)[0]
    assert a.median_mean != b.median_mean
    assert abs(a.median_mean - b.median_mean) < 0.005


@pytest.mark.parametrize("sigma_sq", SIGMAS)
def test_single_paper_median_is_distribution_median(sigma_sq):
    point = median_curve([1], [BaselineField(sigma_sq)], REPS, SEED)[0]
    assert point.median_mean == pytest.approx(math.exp(-sigma_sq / 2), abs=0.005)


def test_median_of_means_monotone_in_n():
    values = [
        medians([n], 1.3, REPS, SEED)[n]
        for n in (1, 5, 20, 46, 100, 400)
    ]
    assert all(v < 1.0 for v in values)
    # increases toward 1, allowing Monte Carlo noise between adjacent points
    assert all(b > a - 0.005 for a, b in zip(values, values[1:]))
    assert values[-1] > values[0]


def test_medians_depend_only_on_their_prefix_of_the_stream():
    assert medians([5], 1.3, 2000, 3)[5] == medians([1, 5, 400], 1.3, 2000, 3)[5]
    assert medians([400, 1, 5], 1.3, 2000, 3) == medians([1, 5, 400], 1.3, 2000, 3)


def test_medians_stream_layout_is_pinned():
    # Recorded when the mirrored layout was introduced: one stream per (seed,
    # block of reps), paper j's ceil(m / 2) normals drawn for the block at
    # once, its last floor(m / 2) reps taking the first normals negated, and
    # shared by every baseline.
    got = {n: v.hex() for n, v in medians([1, 7, 46], 1.3, 5000, 9).items()}
    assert got == {1: "0x1.0b499c3acda58p-1", 7: "0x1.b920f0f6beb60p-1", 46: "0x1.f19e1a8dfd9b1p-1"}


def test_medians_equal_median_of_direct_means():
    # the running sum reproduces the means of each rep's first n draws, with
    # the reps split into two blocks of 16,384 and 16,385, each with its own
    # stream drawing 8,192 and 8,193 normals per paper
    reps, seed, sigma_sq = 2**15 + 1, 4, 1.3
    params = BaselineField(sigma_sq).params
    streams = [np.random.default_rng(np.random.SeedSequence([seed, b])) for b in (0, 1)]
    z = np.hstack([mirrored(rng.standard_normal((6, -(-size // 2))), size) for rng, size in zip(streams, (16_384, 16_385))])
    draws = np.exp(params.mu + params.sigma * z)
    got = medians([2, 6], sigma_sq, reps, seed)
    for n in (2, 6):
        assert got[n] == pytest.approx(float(np.median(draws[:n].mean(axis=0))), rel=1e-14)


def fed_median(monkeypatch, z, reps, sigma_sq=1.0):
    """medians' one-paper median over reps whose paper draws the normals z, block by block: ceil(m / 2) for a block of m."""
    starts = normal_bounds(block_sizes(reps))

    class FedStream:
        def __init__(self, seed, block):
            self.rows = slice(starts[block], starts[block + 1])

        def standard_normal(self, out):
            out[:] = z[self.rows]

    monkeypatch.setattr(simulate, "_stream", FedStream)
    return medians([1], sigma_sq, reps, 0)[1]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 2**15, 2**15 + 1])
def test_median_read_is_np_median_to_the_bit(monkeypatch, size):
    # One paper: each rep's running sum is e^(mu + sigma z) of the normal fed
    # to it, or e^(mu - sigma z) of its mirror's; an inf normal makes one inf
    # sum and one 0.
    sizes = block_sizes(size)
    starts = normal_bounds(sizes)
    k = starts[-1]
    rng = np.random.default_rng(size)
    half_inf = np.where(np.arange(k) < k // 2, rng.standard_normal(k), np.inf)
    cases = {
        "normal": (rng.standard_normal(k), 1.0),
        "ties": (rng.integers(-1, 2, k).astype(float), 1.0),
        "some inf": (np.where(rng.random(k) < 0.3, np.inf, rng.standard_normal(k)), 1.0),
        "half inf": (rng.permutation(half_inf), 1.0),
        "all inf": (np.full(k, np.inf), 1.0),
        # mu = -743.3: every sum is the subnormal 3 * 2**-1074, (a + b) / 2 keeps it, a / 2 + b / 2 rounds to 4 units
        "subnormal ties": (np.zeros(k), 1486.6),
    }
    for name, (z, sigma_sq) in cases.items():
        params = BaselineField(sigma_sq).params
        full = np.hstack([mirrored(z[a:b], m) for a, b, m in zip(starts, starts[1:], sizes)])
        expected = float(np.median(np.exp(full * params.sigma + params.mu)))
        assert fed_median(monkeypatch, z, size, sigma_sq).hex() == expected.hex(), name


@pytest.mark.parametrize("reps", [4000, 4001, 2**15 + 1])
def test_median_read_of_running_sums_is_np_median_to_the_bit(reps):
    # the running sums rebuilt from each block's stream, mirrored and added paper by paper as the kernel does
    seed, sigma_sq = 4, 1.3
    params = BaselineField(sigma_sq).params
    sizes = block_sizes(reps)
    streams = [np.random.default_rng(np.random.SeedSequence([seed, b])) for b in range(len(sizes))]
    z = np.hstack([[mirrored(rng.standard_normal(-(-size // 2)), size) for _ in range(46)] for rng, size in zip(streams, sizes)])
    totals = np.cumsum(np.exp(z * params.sigma + params.mu), axis=0)
    got = medians([1, 5, 46], sigma_sq, reps, seed)
    assert {n: v.hex() for n, v in got.items()} == {n: (float(np.median(totals[n - 1])) / n).hex() for n in (1, 5, 46)}


@pytest.mark.parametrize("reps", [1, 2, 7, 2**15, 2**15 + 1, 2**16 + 1])
def test_each_block_draws_ceil_half_its_reps_in_normals_per_paper(monkeypatch, reps):
    sizes_drawn = {}
    real_stream = simulate._stream

    class RecordingStream:
        def __init__(self, seed, block):
            self.block, self.rng = block, real_stream(seed, block)
            sizes_drawn[block] = []

        def standard_normal(self, out):
            sizes_drawn[self.block].append(len(out))
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(simulate, "_stream", RecordingStream)
    medians([1, 3], 1.3, reps, SEED)
    assert sizes_drawn == {b: [-(-m // 2)] * 3 for b, m in enumerate(block_sizes(reps))}


def test_single_paper_median_is_e_to_the_mu_when_every_block_is_even():
    # Four blocks of 25,000: each block's sums below e^mu mirror those above,
    # so the two central sums are e^(mu -/+ sigma a) for the smallest |z| = a
    # of the 50,000 normals, and their mean is e^mu cosh(sigma a).
    assert block_sizes(REPS) == [25_000] * 4
    for p in median_curve([1], [BaselineField(s) for s in SIGMAS], REPS, SEED):
        assert p.median_mean == pytest.approx(math.exp(BaselineField(p.sigma_sq).params.mu), rel=1e-9)


def test_medians_lie_within_4_standard_errors_of_the_reference_table():
    # The reference holds 400,000-rep medians drawn independently, with the
    # density f of award means at each; the i.i.d. standard error of the
    # difference is sqrt(1/reps + 1/400,000) / (2 f). Mirrored reps are no
    # noisier than i.i.d. ones.
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    reps = 20_000
    n_values = sorted({int(n) for table in ref["table"].values() for n in table})
    points = median_curve(n_values, [BaselineField(float(s)) for s in ref["table"]], reps, SEED)
    z_scores = []
    for p in points:
        median, density = ref["table"][repr(p.sigma_sq)][str(p.n)]
        se = math.sqrt(1 / reps + 1 / ref["reps"]) / (2 * density)
        z_scores.append(abs(p.median_mean - median) / se)
    assert len(z_scores) == 453
    assert max(z_scores) < 4


def test_median_that_underflows_is_an_error():
    # mu = -1000: the median draw, e^-1000, underflows to 0
    with pytest.raises(NumericalError, match=r"sigma2 = 2000\.0, n = 1"):
        medians([1], 2000.0, 100, SEED)


def test_median_of_means_validation():
    with pytest.raises(ValueError):
        medians([0], 1.0, 10, 1)
    with pytest.raises(ValueError):
        medians([1], 1.0, 0, 1)
    with pytest.raises(ValueError):
        medians([1], 1.0, 10, -1)


# --- median_curve ---


def test_curve_shape_and_values():
    points = median_curve([1, 46], [BaselineField(s) for s in SIGMAS], 2000, 3)
    assert len(points) == 6
    assert [(p.sigma_sq, p.n) for p in points] == [(s, n) for s in SIGMAS for n in (1, 46)]
    direct = median_curve([46], [BaselineField(1.3)], 2000, 3)[0]
    match = [p for p in points if p.n == 46 and p.sigma_sq == 1.3]
    assert match[0] == direct


def test_curve_single_draw_points():
    points = median_curve([1], [BaselineField(s) for s in SIGMAS], REPS, SEED)
    for p in points:
        assert p.median_mean == pytest.approx(math.exp(-p.sigma_sq / 2), abs=0.005)


def test_curve_independent_of_baseline_order():
    forward = median_curve([1, 46], [BaselineField(s) for s in SIGMAS], 2000, 3)
    backward = median_curve([1, 46], [BaselineField(s) for s in reversed(SIGMAS)], 2000, 3)
    assert len(forward) == len(backward) == 6
    assert set(forward) == set(backward)


def test_curve_validation():
    with pytest.raises(ValueError):
        median_curve([], [BaselineField(1.0)], 10, 1)
    with pytest.raises(ValueError):
        median_curve([1], [], 10, 1)


# More baselines than a small machine has cores, in no particular order.
FIVE_SIGMAS = (1.8, 0.5, 1.3, 2.2, 1.0)
N_UNSORTED = [46, 1, 5, 46, 12, 1]


def test_curve_on_worker_threads_equals_a_loop_over_medians():
    points = median_curve(N_UNSORTED, [BaselineField(s) for s in FIVE_SIGMAS], 2000, 3)
    expected = []
    for s in FIVE_SIGMAS:
        values = medians(N_UNSORTED, s, 2000, 3)
        expected += [MedianCurvePoint(n=n, sigma_sq=s, median_mean=values[n]) for n in N_UNSORTED]
    assert [(p.sigma_sq, p.n, p.median_mean.hex()) for p in points] == [
        (p.sigma_sq, p.n, p.median_mean.hex()) for p in expected
    ]


def test_curve_threads_stay_within_the_pool_default(monkeypatch):
    # One task per block of reps: with blocks of 16 reps, 200 reps make 13
    # blocks, which run on the executor's default number of threads, never
    # on one thread each.
    monkeypatch.setattr(simulate, "_BLOCK", 16)
    sigmas = [0.1 * k for k in range(1, 41)]
    expected = [medians(N_UNSORTED, s, 200, 3) for s in sigmas]
    live = []

    class SampledStream:
        def __init__(self, seed, block):
            self.rng = real_stream(seed, block)

        def standard_normal(self, out):
            live.append(threading.active_count() - 1)  # less the calling thread
            return self.rng.standard_normal(out=out)

    real_stream = simulate._stream
    monkeypatch.setattr(simulate, "_stream", SampledStream)
    points = median_curve(N_UNSORTED, [BaselineField(s) for s in sigmas], 200, 3)
    assert [(p.sigma_sq, p.n, p.median_mean) for p in points] == [
        (s, n, values[n]) for s, values in zip(sigmas, expected) for n in N_UNSORTED
    ]
    assert len(live) == 13 * 46
    assert 1 <= max(live) <= concurrent.futures.ThreadPoolExecutor()._max_workers


def test_median_that_underflows_in_a_worker_is_an_error():
    with pytest.raises(NumericalError, match=r"sigma2 = 2000\.0, n = 1"):
        median_curve([1], [BaselineField(1.0), BaselineField(2000.0)], 100, SEED)


@pytest.fixture
def drawn(monkeypatch):
    """Papers drawn per block of reps, keyed by block, in the test's last call."""
    counts = {}
    real_stream = simulate._stream

    class CountingStream:
        def __init__(self, seed, block):
            self.block, self.rng = block, real_stream(seed, block)
            counts[block] = 0

        def standard_normal(self, out):
            counts[self.block] += 1
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(simulate, "_stream", CountingStream)
    return counts


def test_an_underflowing_baseline_stops_the_others_early(drawn):
    # Two blocks; no block draws past the first requested n once a baseline underflows there.
    with pytest.raises(NumericalError, match=r"sigma2 = 2000\.0, n = 1"):
        median_curve([1, 400], [BaselineField(s) for s in (2000.0, 1.0, 1.3)], 2**15 + 1, SEED)
    assert drawn == {0: 1, 1: 1}


@pytest.mark.parametrize("reps,blocks", [(1, 1), (2**15, 1), (2**15 + 1, 2), (2**16 + 1, 3)])
def test_reps_are_split_into_blocks_of_at_most_2_to_the_15(drawn, reps, blocks):
    medians([3], 1.3, reps, SEED)
    assert drawn == {b: 3 for b in range(blocks)}


def test_curve_on_one_worker_equals_the_default_pool(monkeypatch):
    # Four blocks of reps: one thread or many give the same bits.
    args = (N_UNSORTED, [BaselineField(s) for s in FIVE_SIGMAS], 3 * 2**15 + 5, 3)
    default = median_curve(*args)
    one_worker = functools.partial(concurrent.futures.ThreadPoolExecutor, max_workers=1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", one_worker)
    assert [p.median_mean.hex() for p in median_curve(*args)] == [p.median_mean.hex() for p in default]


def test_medians_do_not_depend_on_the_other_baselines_in_the_call():
    alone = median_curve(N_UNSORTED, [BaselineField(1.3)], 2**15 + 7, 5)
    among = median_curve(N_UNSORTED, [BaselineField(s) for s in FIVE_SIGMAS], 2**15 + 7, 5)
    assert [p for p in among if p.sigma_sq == 1.3] == alone


@pytest.mark.parametrize("reps,seed", [(0, 1), (10, -1)])
def test_curve_arguments_are_checked_before_any_thread_starts(monkeypatch, reps, seed):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    with pytest.raises(ValueError):
        median_curve([1], [BaselineField(1.0), BaselineField(1.3)], reps, seed)


# --- benchmark_award ---


def test_benchmark_single_paper_above():
    bench = benchmark_award(summary(n=1, mean=0.60), thresholds_at(1, [1.3], REPS, SEED))
    assert bench.verdicts[1.3] == VERDICT_ABOVE
    assert bench.thresholds[1.3] == pytest.approx(0.522, abs=0.005)


def test_benchmark_mean_of_one_or_more_always_above():
    bench = benchmark_award(summary(n=4, mean=1.0), thresholds_at(4, SIGMAS, 20_000, SEED))
    assert all(v == VERDICT_ABOVE for v in bench.verdicts.values())
    assert all(t < 1.0 for t in bench.thresholds.values())


def test_benchmark_zero_mean_always_below():
    bench = benchmark_award(summary(n=4, mean=0.0), thresholds_at(4, SIGMAS, 20_000, SEED))
    assert all(v == VERDICT_BELOW for v in bench.verdicts.values())


def test_benchmark_tie_counts_as_above():
    threshold = medians([3], 1.3, 2000, 7)[3]
    bench = benchmark_award(summary(n=3, mean=threshold), thresholds_at(3, [1.3], 2000, 7))
    assert bench.verdicts[1.3] == VERDICT_ABOVE


def test_benchmark_split_verdict_example():
    # thresholds at n=1 are about 0.607 / 0.522 / 0.407
    bench = benchmark_award(summary(n=1, mean=0.55), thresholds_at(1, SIGMAS, REPS, SEED))
    assert bench.verdicts[1.0] == VERDICT_BELOW
    assert bench.verdicts[1.3] == VERDICT_ABOVE
    assert bench.verdicts[1.8] == VERDICT_ABOVE


def test_benchmark_thresholds_decrease_in_sigma_sq():
    for n in (1, 5, 30):
        bench = benchmark_award(summary(n=n, mean=1.0), thresholds_at(n, SIGMAS, 20_000, SEED))
        t = [bench.thresholds[s] for s in SIGMAS]
        assert t[0] > t[1] - 0.005 and t[1] > t[2] - 0.005


def test_benchmark_verdict_monotone_in_sigma_sq():
    # given decreasing thresholds, above at one spread implies above at any
    # larger spread
    for mean in (0.3, 0.45, 0.55, 0.7, 0.95, 1.2):
        bench = benchmark_award(summary(n=2, mean=mean), thresholds_at(2, SIGMAS, 20_000, SEED))
        flags = [bench.verdicts[s] == VERDICT_ABOVE for s in SIGMAS]
        assert flags == sorted(flags)


def test_benchmark_requires_papers_and_mean():
    with pytest.raises(ValueError):
        benchmark_award(AwardSummary(award_code="12/IA/1234", n_papers=0), thresholds_at(1, [1.0], 10, 1))
    with pytest.raises(ValueError):
        benchmark_award(AwardSummary(award_code="12/IA/1234", n_papers=3, mean_fwci=None), thresholds_at(3, [1.0], 10, 1))
