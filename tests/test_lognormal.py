import math
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.integrate import quad

from fwcibench import lognormal
from fwcibench.histogram import Histogram, build_histogram, log_transform
from fwcibench.lognormal import (
    FitEnsemble,
    LognormalParams,
    NumericalError,
    derived_stats,
    ensemble_fit,
    fit_histogram,
    fit_normal_log,
    pdf,
    percentile_of,
    scaled_model,
)

P13 = LognormalParams(mu=-0.65, sigma=math.sqrt(1.3))
P_FIT = LognormalParams(mu=-0.0761, sigma=0.933)


def expected_count_histogram(amplitude, params, lo, hi, n_bins):
    """Histogram whose counts are the exact model values at the bin centers."""
    width = (hi - lo) / n_bins
    centers = lo + (np.arange(n_bins) + 0.5) * width
    counts = scaled_model(centers, amplitude, params)
    return Histogram(lo=lo, hi=hi, n_bins=n_bins, counts=counts, centers=centers)


# --- params ---


def test_params_validation():
    with pytest.raises(ValueError):
        LognormalParams(mu=0.0, sigma=0.0)
    with pytest.raises(ValueError):
        LognormalParams(mu=0.0, sigma=-1.0)
    with pytest.raises(ValueError):
        LognormalParams(mu=math.nan, sigma=1.0)


# --- pdf ---


def test_pdf_at_median():
    p = LognormalParams(mu=-0.4, sigma=0.8)
    x = math.exp(p.mu)
    assert pdf(x, p) == pytest.approx(1.0 / (x * p.sigma * math.sqrt(2 * math.pi)), rel=1e-12)


def test_pdf_standard_case():
    assert pdf(1.0, LognormalParams(mu=0.0, sigma=1.0)) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)


def test_pdf_matches_scipy():
    x = np.linspace(0.01, 20, 300)
    ours = pdf(x, P13)
    ref = stats.lognorm.pdf(x, s=P13.sigma, scale=math.exp(P13.mu))
    assert np.allclose(ours, ref, rtol=1e-12)


def test_pdf_integrates_to_one():
    total, _ = quad(lambda x: pdf(x, P13), 0, 200, limit=200)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_pdf_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        pdf(0.0, P13)
    with pytest.raises(ValueError):
        pdf(np.array([1.0, -2.0]), P13)


# --- scaled_model ---


def test_scaled_model_reduces_to_pdf():
    x = np.linspace(0.05, 12, 50)
    amp = 1.0 / (P13.sigma * math.sqrt(2 * math.pi))
    assert np.allclose(scaled_model(x, amp, P13), pdf(x, P13), rtol=1e-12)


def test_scaled_model_at_median():
    p = LognormalParams(mu=0.3, sigma=0.7)
    x = math.exp(p.mu)
    assert scaled_model(x, 42.0, p) == pytest.approx(42.0 / x, rel=1e-12)


def test_scaled_model_unit_point():
    assert scaled_model(1.0, 100.0, LognormalParams(mu=0.0, sigma=1.0)) == pytest.approx(100.0)


def test_scaled_model_rejects_bad_amplitude():
    with pytest.raises(ValueError):
        scaled_model(1.0, 0.0, P13)


# --- fit_histogram ---


def test_fit_recovers_exact_expected_counts():
    h = expected_count_histogram(250.0, P_FIT, 0.0, 8.0, 80)
    fit = fit_histogram(h)
    assert fit.converged
    assert fit.residual_norm < 1e-6
    assert fit.params.mu == pytest.approx(P_FIT.mu, abs=1e-8)
    assert fit.params.sigma == pytest.approx(P_FIT.sigma, abs=1e-8)
    assert fit.amplitude == pytest.approx(250.0, rel=1e-8)


def test_fit_round_trip_on_draws(trunc_sampler):
    for seed in (1000, 1004, 1008):
        draws = trunc_sampler(100_000, P_FIT.mu, P_FIT.sigma, seed=seed)
        fit = fit_histogram(build_histogram(draws, 0.0, 8.0, 80))
        assert fit.converged
        assert fit.params.mu == pytest.approx(P_FIT.mu, abs=0.02)
        assert fit.params.sigma == pytest.approx(P_FIT.sigma, abs=0.02)


def test_fit_rejects_single_bin():
    h = build_histogram([1.0, 1.1, 1.2], 0.0, 8.0, 1)
    with pytest.raises(ValueError):
        fit_histogram(h)


def test_fit_needs_four_nonempty_bins():
    h = build_histogram([0.5, 2.5, 4.5], 0.0, 8.0, 8)
    with pytest.raises(ValueError):
        fit_histogram(h)


def test_fit_ignores_nonpositive_centers():
    h = expected_count_histogram(300.0, P_FIT, 0.0, 8.0, 80)
    # graft a leading negative-x region carrying junk counts
    centers = np.concatenate([np.array([-0.35, -0.25, -0.15, -0.05]), h.centers])
    counts = np.concatenate([np.array([9.0, 9.0, 9.0, 9.0]), h.counts])
    spiked = Histogram(lo=-0.4, hi=8.0, n_bins=84, counts=counts, centers=centers)
    fit = fit_histogram(spiked)
    assert fit.n_bins_used == 80
    assert fit.params.mu == pytest.approx(P_FIT.mu, abs=1e-8)


def test_fit_accepts_explicit_init():
    h = expected_count_histogram(250.0, P_FIT, 0.0, 8.0, 80)
    fit = fit_histogram(h, init=LognormalParams(mu=1.0, sigma=0.4))
    assert fit.converged
    assert fit.params.mu == pytest.approx(P_FIT.mu, abs=1e-7)


# --- fit_normal_log ---


def test_normal_log_recovers_exact_gaussian():
    lo, hi, n = -4.0, 3.0, 56
    width = (hi - lo) / n
    centers = lo + (np.arange(n) + 0.5) * width
    counts = 120.0 * np.exp(-0.5 * ((centers - P_FIT.mu) / P_FIT.sigma) ** 2)
    amp, params = fit_normal_log(Histogram(lo=lo, hi=hi, n_bins=n, counts=counts, centers=centers))
    assert amp == pytest.approx(120.0, rel=1e-8)
    assert params.mu == pytest.approx(P_FIT.mu, abs=1e-8)
    assert params.sigma == pytest.approx(P_FIT.sigma, abs=1e-8)


def test_cross_method_consistency_exact_counts():
    # noiseless inputs: both routes must land on the same parameters
    hx = expected_count_histogram(250.0, P_FIT, 0.0, 8.0, 80)
    fit_x = fit_histogram(hx)

    lo, hi, n = -4.0, 2.0, 48
    width = (hi - lo) / n
    centers = lo + (np.arange(n) + 0.5) * width
    counts = 80.0 * np.exp(-0.5 * ((centers - P_FIT.mu) / P_FIT.sigma) ** 2)
    _, p_t = fit_normal_log(Histogram(lo=lo, hi=hi, n_bins=n, counts=counts, centers=centers))

    assert abs(fit_x.params.mu - p_t.mu) < 2e-6
    assert abs(fit_x.params.sigma - p_t.sigma) < 2e-6


def test_cross_method_consistency_on_draws(trunc_sampler):
    draws = trunc_sampler(100_000, P_FIT.mu, P_FIT.sigma, seed=77)
    fit_x = fit_histogram(build_histogram(draws, 0.0, 8.0, 80))
    _, p_t = fit_normal_log(build_histogram(np.log(draws), math.log(0.005), math.log(8.0), 40))
    assert abs(fit_x.params.mu - p_t.mu) < 0.03
    assert abs(fit_x.params.sigma - p_t.sigma) < 0.03


def test_normal_log_spike_masked_by_range(trunc_sampler):
    # zero-impact records displaced to ln(0.01) must not leak into a fit whose
    # range starts at ln(0.1)
    draws = trunc_sampler(30_000, P_FIT.mu, P_FIT.sigma, seed=123, lo=0.1, hi=8.0)
    n_zero = int(round(0.088 * draws.size))
    spiked = np.concatenate([draws, np.zeros(n_zero)])
    t_spiked = log_transform(spiked, 0.01)

    lo, hi = math.log(0.1), math.log(8.0)
    h_clean = build_histogram(np.log(draws), lo, hi, 40)
    h_spiked = build_histogram(t_spiked, lo, hi, 40)
    assert h_spiked.counts.tolist() == h_clean.counts.tolist()
    assert h_spiked.n_dropped == n_zero

    _, p_clean = fit_normal_log(h_clean)
    _, p_spiked = fit_normal_log(h_spiked)
    assert p_spiked.mu == p_clean.mu and p_spiked.sigma == p_clean.sigma
    assert p_spiked.mu == pytest.approx(P_FIT.mu, abs=0.05)


def test_lm_iterates_are_pinned_bit_for_bit(trunc_sampler, monkeypatch):
    # float.hex of the fits' outputs and the solver's iteration counts, so a
    # change to the LM loop that moves a single bit is caught
    solves = []

    def recording(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]

    real = lognormal.damped_least_squares
    monkeypatch.setattr(lognormal, "damped_least_squares", recording)
    draws = trunc_sampler(3000, P_FIT.mu, P_FIT.sigma, seed=2024)

    fit = fit_histogram(build_histogram(draws, 0.0, 8.0, 60))
    got = [v.hex() for v in (fit.amplitude, fit.params.mu, fit.params.sigma, fit.residual_norm)]
    assert got == ["0x1.669884f9001abp+7", "-0x1.bfd36dbd8a3a3p-4", "0x1.c7d749bb1330ep-1", "0x1.977ae460f3fe2p+5"]
    assert (solves[-1].n_iter, fit.converged) == (9, True)

    amp, p = fit_normal_log(build_histogram(np.log(draws), math.log(0.005), math.log(8.0), 40))
    got = [v.hex() for v in (amp, p.mu, p.sigma, math.sqrt(solves[-1].cost))]
    assert got == ["0x1.f0cff62ef8053p+7", "-0x1.cc1c45235252dp-4", "0x1.c6673db4fd9d0p-1", "0x1.a5aec094d4997p+5"]
    assert (solves[-1].n_iter, solves[-1].converged) == (7, True)


def test_normal_log_needs_enough_bins():
    h = build_histogram([0.1, 0.2], 0.0, 1.0, 4)
    with pytest.raises(ValueError):
        fit_normal_log(h)


# --- ensemble_fit ---


def per_draw_ensemble(values, lo, hi, bins_lo, bins_hi, n_fits, seed):
    """One fit per drawn bin count, as the ensemble was first computed."""
    values = np.asarray(values, dtype=float)
    logs = np.log(values)
    init = LognormalParams(mu=float(logs.mean()), sigma=max(float(logs.std()), 1e-3))
    bin_draws = np.random.default_rng(seed).integers(bins_lo, bins_hi, size=n_fits, endpoint=True)
    mus, sigmas = [], []
    for n_bins in bin_draws:
        try:
            fit = fit_histogram(build_histogram(values, lo, hi, int(n_bins)), init=init)
        except ValueError:
            continue
        if fit.converged:
            mus.append(fit.params.mu)
            sigmas.append(fit.params.sigma)
    if not mus:
        raise NumericalError(f"all {n_fits} ensemble fits failed")
    q = [2.5, 50.0, 97.5]
    return FitEnsemble(
        *(float(v) for v in np.percentile(mus, q)),
        *(float(v) for v in np.percentile(sigmas, q)),
        n_fits=n_fits,
        n_failed=n_fits - len(mus),
        seed=seed,
    )


def test_ensemble_single_fit_percentiles_collapse(trunc_sampler):
    draws = trunc_sampler(3000, P_FIT.mu, P_FIT.sigma, seed=9)
    ens = ensemble_fit(draws, 0.0, 8.0, 20, 800, 1, seed=9)
    assert ens.mu_p2_5 == ens.mu_p50 == ens.mu_p97_5
    assert ens.sigma_p2_5 == ens.sigma_p50 == ens.sigma_p97_5
    assert ens.n_fits == 1 and ens.n_failed == 0


def test_ensemble_deterministic_and_ordered(trunc_sampler):
    draws = trunc_sampler(2000, P_FIT.mu, P_FIT.sigma, seed=31)
    a = ensemble_fit(draws, 0.0, 8.0, 20, 120, 50, seed=4)
    b = ensemble_fit(draws, 0.0, 8.0, 20, 120, 50, seed=4)
    assert a == b
    assert a.mu_p2_5 <= a.mu_p50 <= a.mu_p97_5
    assert a.sigma_p2_5 <= a.sigma_p50 <= a.sigma_p97_5


def test_ensemble_seed_matters(trunc_sampler):
    draws = trunc_sampler(2000, P_FIT.mu, P_FIT.sigma, seed=31)
    a = ensemble_fit(draws, 0.0, 8.0, 20, 120, 50, seed=4)
    b = ensemble_fit(draws, 0.0, 8.0, 20, 120, 50, seed=5)
    assert a != b


def test_ensemble_counts_failed_members():
    rng = np.random.default_rng(2)
    draws = np.exp(-0.1 + 0.9 * rng.standard_normal(400))
    draws = draws[(draws > 0) & (draws < 8)]
    ens = ensemble_fit(draws, 0.0, 8.0, 2, 30, 40, seed=3)
    assert 0 < ens.n_failed < 40


def test_ensemble_all_failed_raises():
    args = (np.full(50, 0.5), 0.0, 8.0, 20, 40, 10)
    for fit in (ensemble_fit, per_draw_ensemble):
        with pytest.raises(NumericalError, match="all 10 ensemble fits failed"):
            fit(*args, seed=0)


def test_ensemble_equals_per_draw_fits_with_repeated_counts(trunc_sampler):
    draws = trunc_sampler(3000, P_FIT.mu, P_FIT.sigma, seed=12)
    args = (draws, 0.0, 8.0, 20, 800, 200)
    assert ensemble_fit(*args, seed=6) == per_draw_ensemble(*args, seed=6)
    assert len(np.unique(np.random.default_rng(6).integers(20, 800, size=200, endpoint=True))) < 200


def test_ensemble_counts_every_failed_draw():
    # bin counts 2 and 3 always fail (too few bins) and are drawn repeatedly
    rng = np.random.default_rng(2)
    draws = np.exp(-0.1 + 0.9 * rng.standard_normal(400))
    draws = draws[(draws > 0) & (draws < 8)]
    ens = ensemble_fit(draws, 0.0, 8.0, 2, 30, 40, seed=5)
    assert ens == per_draw_ensemble(draws, 0.0, 8.0, 2, 30, 40, seed=5)
    bin_draws = np.random.default_rng(5).integers(2, 30, size=40, endpoint=True)
    failing = bin_draws[bin_draws < 4]
    assert (ens.n_failed, failing.size, len(np.unique(failing))) == (6, 6, 2)


def test_ensemble_input_validation():
    vals = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        ensemble_fit(np.array([]), 0.0, 8.0, 20, 800, 10, seed=0)
    with pytest.raises(ValueError):
        ensemble_fit(np.array([0.0, 1.0]), 0.0, 8.0, 20, 800, 10, seed=0)
    with pytest.raises(ValueError):
        ensemble_fit(np.array([1.0, 9.0]), 0.0, 8.0, 20, 800, 10, seed=0)
    with pytest.raises(ValueError, match="strictly inside"):
        ensemble_fit(np.array([1.0, np.nan]), 0.0, 8.0, 20, 800, 10, seed=0)
    with pytest.raises(ValueError):
        ensemble_fit(vals, 0.0, 8.0, 800, 20, 10, seed=0)
    with pytest.raises(ValueError):
        ensemble_fit(vals, 0.0, 8.0, 20, 800, 0, seed=0)


# --- ensemble_fit across worker processes ---


def set_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def ensemble_args(trunc_sampler):
    return (trunc_sampler(2000, P_FIT.mu, P_FIT.sigma, seed=31), 0.0, 8.0, 20, 300, 120)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_ensemble_does_not_depend_on_the_core_count(ensemble_args, monkeypatch, cores):
    expected = per_draw_ensemble(*ensemble_args, seed=7)
    set_cores(monkeypatch, cores)
    assert ensemble_fit(*ensemble_args, seed=7) == expected
    assert_no_child_left()


def test_ensemble_refits_the_share_of_a_failed_child(ensemble_args, monkeypatch):
    expected = per_draw_ensemble(*ensemble_args, seed=7)
    caller, real_fit = os.getpid(), lognormal.fit_histogram

    def fit_or_die(hist, init=None):
        if os.getpid() != caller:
            os._exit(1)
        return real_fit(hist, init=init)

    monkeypatch.setattr(lognormal, "fit_histogram", fit_or_die)
    set_cores(monkeypatch, 3)
    assert ensemble_fit(*ensemble_args, seed=7) == expected
    assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_ensemble_reaps_its_children_when_the_callers_share_raises(ensemble_args, monkeypatch, error):
    caller = os.getpid()

    def hang_or_raise(hist, init=None):
        if os.getpid() != caller:
            time.sleep(20)
        raise error("stop")

    monkeypatch.setattr(lognormal, "fit_histogram", hang_or_raise)
    set_cores(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(error, match="stop"):
        ensemble_fit(*ensemble_args, seed=7)
    assert time.monotonic() - start < 10
    assert_no_child_left()


def test_ensemble_with_one_distinct_bin_count_forks_nothing(ensemble_args, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    set_cores(monkeypatch, 3)
    draws, lo, hi = ensemble_args[:3]
    assert ensemble_fit(draws, lo, hi, 60, 60, 10, seed=1) == per_draw_ensemble(draws, lo, hi, 60, 60, 10, seed=1)


def test_ensemble_share_larger_than_a_pipe_buffer_comes_back_whole(monkeypatch):
    calls = []  # the caller's fits only: a child's appends stay in the child

    def fake_fit(n_bins, init=None):
        calls.append(n_bins)
        params = LognormalParams(mu=float(n_bins), sigma=1.0 + n_bins % 7)
        return lognormal.LognormalFit(1.0, params, n_bins, 0.0, converged=n_bins % 3 > 0)

    monkeypatch.setattr(lognormal, "build_histogram", lambda arr, lo, hi, n_bins: n_bins)
    monkeypatch.setattr(lognormal, "fit_histogram", fake_fit)
    args = (np.array([1.0]), 0.0, 8.0, 1, 20_000, 50_000)
    set_cores(monkeypatch, 1)
    serial = ensemble_fit(*args, seed=2)
    n_counts = len(calls)
    assert n_counts // 2 * 16 > 65_536
    calls.clear()
    set_cores(monkeypatch, 2)

    def timeout(signum, frame):
        raise TimeoutError("the caller waited on a child that waits on a full pipe")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        assert ensemble_fit(*args, seed=2) == serial
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(calls) == (n_counts + 1) // 2  # the child's share was not refitted here
    assert_no_child_left()


# --- derived_stats ---


def test_derived_example_values():
    stats_ = derived_stats(P_FIT)
    assert stats_.mean == pytest.approx(1.433, abs=2e-3)
    assert stats_.median == pytest.approx(0.9267, abs=5e-4)


def test_derived_closed_forms():
    p = LognormalParams(mu=-0.2, sigma=1.1)
    d = derived_stats(p)
    assert d.mean == pytest.approx(math.exp(p.mu + p.sigma**2 / 2), rel=1e-12)
    assert d.median == pytest.approx(math.exp(p.mu), rel=1e-12)
    assert d.mode == pytest.approx(math.exp(p.mu - p.sigma**2), rel=1e-12)


def test_derived_interval_matches_scipy_quantiles():
    d = derived_stats(P13)
    dist = stats.lognorm(s=P13.sigma, scale=math.exp(P13.mu))
    assert d.interval95_lo == pytest.approx(dist.ppf(0.025), rel=1e-10)
    assert d.interval95_hi == pytest.approx(dist.ppf(0.975), rel=1e-10)


def test_derived_degenerate_limit():
    d = derived_stats(LognormalParams(mu=0.0, sigma=1e-9))
    assert d.mean == pytest.approx(1.0, abs=1e-9)
    assert d.median == 1.0
    assert d.mode == pytest.approx(1.0, abs=1e-9)


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=0.01, max_value=3))
def test_derived_ordering_strict(mu, sigma):
    d = derived_stats(LognormalParams(mu=mu, sigma=sigma))
    assert d.mode < d.median < d.mean


@given(st.floats(min_value=0.05, max_value=3))
def test_constrained_family_mean_is_exactly_one(sigma):
    d = derived_stats(LognormalParams(mu=-0.5 * sigma**2, sigma=sigma))
    assert d.mean == 1.0


# --- percentile_of ---


def test_percentile_at_median():
    assert percentile_of(math.exp(P13.mu), P13) == pytest.approx(0.5, abs=1e-12)


def test_percentile_of_unit_value():
    value = percentile_of(1.0, P13)
    assert value == pytest.approx(0.716, abs=5e-3)
    # the closed form is the normal CDF at sigma/2
    assert value == pytest.approx(stats.norm.cdf(P13.sigma / 2), abs=1e-9)


def test_percentile_near_half_below_median_value():
    assert percentile_of(0.52, P13) == pytest.approx(0.50, abs=5e-3)


def test_percentile_matches_scipy_cdf_grid():
    xs = np.exp(np.linspace(-4, 4, 41))
    ref = stats.norm.cdf((np.log(xs) - P13.mu) / P13.sigma)
    ours = np.array([percentile_of(float(x), P13) for x in xs])
    assert np.max(np.abs(ours - ref)) < 1e-9


def test_percentile_rejects_nonpositive():
    with pytest.raises(ValueError):
        percentile_of(0.0, P13)


@settings(max_examples=60)
@given(st.floats(min_value=0.001, max_value=100), st.floats(min_value=-2, max_value=2), st.floats(min_value=0.1, max_value=2.5))
def test_percentile_monotone_in_x(x, mu, sigma):
    p = LognormalParams(mu=mu, sigma=sigma)
    assert percentile_of(x, p) <= percentile_of(x * 1.5, p)
