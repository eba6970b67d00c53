import concurrent.futures
import math
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
    AwardBenchmark,
    BaselineField,
    MedianCurvePoint,
    aggregate_benchmarks,
    benchmark_award,
    median_curve,
    medians,
    sample_lognormal,
)

SEED = 1
REPS = 100_000
SIGMAS = (1.0, 1.3, 1.8)


def summary(code="12/IA/1234", n=1, mean=1.0):
    return AwardSummary(award_code=code, n_papers=n, mean_fwci=mean)


def thresholds_at(n, sigmas, reps, seed):
    """The sigma_sq -> simulated median map that benchmark_award takes, for n papers."""
    return {s: medians([n], s, reps, seed)[n] for s in sigmas}


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


# --- sample_lognormal ---


def test_sample_degenerate_sigma():
    p = LognormalParams(mu=0.2, sigma=1e-15)
    draws = sample_lognormal(p, 100, np.random.default_rng(0))
    assert np.allclose(draws, math.exp(0.2), rtol=1e-12)


def test_sample_mean_obeys_large_numbers():
    draws = sample_lognormal(BaselineField(1.3).params, 1_000_000, np.random.default_rng(10))
    assert draws.mean() == pytest.approx(1.0, abs=0.01)


def test_sample_median_symmetry():
    p = BaselineField(1.3).params
    draws = sample_lognormal(p, 1_000_000, np.random.default_rng(11))
    below = float((draws < math.exp(p.mu)).mean())
    assert below == pytest.approx(0.5, abs=0.002)


def test_sample_advances_stream_deterministically():
    a = sample_lognormal(BaselineField(1.0).params, 50, np.random.default_rng(5))
    b = sample_lognormal(BaselineField(1.0).params, 50, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_sample_requires_positive_n():
    with pytest.raises(ValueError):
        sample_lognormal(BaselineField(1.0).params, 0, np.random.default_rng(0))


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
    # Recorded when the common-random-numbers layout was introduced: one stream
    # per (seed, sigma_sq), paper j drawn for all reps at once.
    got = {n: v.hex() for n, v in medians([1, 7, 46], 1.3, 5000, 9).items()}
    assert got == {1: "0x1.0282aa4eb58f6p-1", 7: "0x1.b262ab521e239p-1", 46: "0x1.ef2a3d2f60b53p-1"}


def test_medians_equal_median_of_direct_means():
    # the running sum reproduces the means of each rep's first n draws
    reps, seed, sigma_sq = 501, 4, 1.3
    params = BaselineField(sigma_sq).params
    rng = np.random.default_rng(np.random.SeedSequence([seed, int(np.float64(sigma_sq).view(np.uint64))]))
    draws = np.exp(params.mu + params.sigma * rng.standard_normal((6, reps)))
    got = medians([2, 6], sigma_sq, reps, seed)
    for n in (2, 6):
        assert got[n] == pytest.approx(float(np.median(draws[:n].mean(axis=0))), rel=1e-14)


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
    # One task per baseline: forty baselines run on the executor's default
    # number of threads, never on one thread each.
    sigmas = [0.1 * k for k in range(1, 41)]
    expected = [medians(N_UNSORTED, s, 200, 3) for s in sigmas]
    live = []

    class SampledStream:
        def __init__(self, sigma_sq, seed):
            self.rng = real_stream(sigma_sq, seed)

        def standard_normal(self, out):
            live.append(threading.active_count() - 1)  # less the calling thread
            return self.rng.standard_normal(out=out)

    real_stream = simulate._stream
    monkeypatch.setattr(simulate, "_stream", SampledStream)
    points = median_curve(N_UNSORTED, [BaselineField(s) for s in sigmas], 200, 3)
    assert [(p.sigma_sq, p.n, p.median_mean) for p in points] == [
        (s, n, values[n]) for s, values in zip(sigmas, expected) for n in N_UNSORTED
    ]
    assert len(live) == 40 * 46
    assert 1 <= max(live) <= concurrent.futures.ThreadPoolExecutor()._max_workers


def test_median_that_underflows_in_a_worker_is_an_error():
    with pytest.raises(NumericalError, match=r"sigma2 = 2000\.0, n = 1"):
        median_curve([1], [BaselineField(1.0), BaselineField(2000.0)], 100, SEED)


def test_an_underflowing_baseline_stops_the_others_early(monkeypatch):
    drawn = {}

    class CountingStream:
        def __init__(self, sigma_sq, seed):
            self.sigma_sq, self.rng = sigma_sq, real_stream(sigma_sq, seed)
            drawn[sigma_sq] = 0

        def standard_normal(self, out):
            drawn[self.sigma_sq] += 1
            return self.rng.standard_normal(out=out)

    real_stream = simulate._stream
    monkeypatch.setattr(simulate, "_stream", CountingStream)
    with pytest.raises(NumericalError, match=r"sigma2 = 2000\.0, n = 1"):
        median_curve([1, 400], [BaselineField(s) for s in (2000.0, 1.0, 1.3)], 20_000, SEED)
    assert drawn[2000.0] == 1
    assert drawn[1.0] < 400 and drawn[1.3] < 400


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


# --- aggregate_benchmarks ---


def bench_of(code, mean, verdicts):
    return AwardBenchmark(
        award_code=code,
        n_papers=2,
        observed_mean=mean,
        verdicts={s: v for s, v in verdicts.items()},
        thresholds={s: 0.5 for s in verdicts},
    )


def test_aggregate_counts():
    benches = [
        bench_of("11/IA/0001", 1.4, {1.0: VERDICT_ABOVE, 1.3: VERDICT_ABOVE}),
        bench_of("11/IA/0002", 0.8, {1.0: VERDICT_BELOW, 1.3: VERDICT_ABOVE}),
        bench_of("11/IA/0003", 0.2, {1.0: VERDICT_BELOW, 1.3: VERDICT_BELOW}),
    ]
    aggs = aggregate_benchmarks(benches)
    assert [a.sigma_sq for a in aggs] == [1.0, 1.3]
    first, second = aggs
    assert (first.n_above, first.n_below) == (1, 2)
    assert (second.n_above, second.n_below) == (2, 1)
    assert first.n_mean_ge_1 == 1 and second.n_mean_ge_1 == 1
    assert first.n_small_sample_pass == 0
    assert second.n_small_sample_pass == 1  # 0.8-mean award passes only via simulation
    assert second.fraction_above == pytest.approx(2 / 3)


def test_aggregate_empty():
    assert aggregate_benchmarks([]) == ()


def test_aggregate_rejects_mixed_sigma_sets():
    benches = [
        bench_of("11/IA/0001", 1.0, {1.0: VERDICT_ABOVE}),
        bench_of("11/IA/0002", 1.0, {1.3: VERDICT_ABOVE}),
    ]
    with pytest.raises(ValueError):
        aggregate_benchmarks(benches)
