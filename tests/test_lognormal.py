import math
import os
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.integrate import quad

from fwcibench import lognormal
from fwcibench.corpus import DataError
from fwcibench.histogram import Histogram, build_histogram
from fwcibench.lognormal import (
    FitEnsemble,
    LognormalParams,
    NumericalError,
    derived_stats,
    ensemble_fit,
    fit_histogram,
    fit_normal_log,
    gaussian,
    pdf,
    percentile_of,
)

P13 = LognormalParams(mu=-0.65, sigma=math.sqrt(1.3))
P_FIT = LognormalParams(mu=-0.0761, sigma=0.933)


def expected_count_histogram(amplitude, params, lo, hi, n_bins):
    """Histogram whose counts are the exact model values at the bin centers."""
    width = (hi - lo) / n_bins
    centers = lo + (np.arange(n_bins) + 0.5) * width
    counts = gaussian((amplitude, params.mu, params.sigma), np.log(centers), centers)
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
    fit = fit_normal_log(Histogram(lo=lo, hi=hi, n_bins=n, counts=counts, centers=centers))
    assert fit.amplitude == pytest.approx(120.0, rel=1e-8)
    assert fit.params.mu == pytest.approx(P_FIT.mu, abs=1e-8)
    assert fit.params.sigma == pytest.approx(P_FIT.sigma, abs=1e-8)


def test_cross_method_consistency_exact_counts():
    # noiseless inputs: both routes must land on the same parameters
    hx = expected_count_histogram(250.0, P_FIT, 0.0, 8.0, 80)
    fit_x = fit_histogram(hx)

    lo, hi, n = -4.0, 2.0, 48
    width = (hi - lo) / n
    centers = lo + (np.arange(n) + 0.5) * width
    counts = 80.0 * np.exp(-0.5 * ((centers - P_FIT.mu) / P_FIT.sigma) ** 2)
    p_t = fit_normal_log(Histogram(lo=lo, hi=hi, n_bins=n, counts=counts, centers=centers)).params

    assert abs(fit_x.params.mu - p_t.mu) < 2e-6
    assert abs(fit_x.params.sigma - p_t.sigma) < 2e-6


def test_cross_method_consistency_on_draws(trunc_sampler):
    draws = trunc_sampler(100_000, P_FIT.mu, P_FIT.sigma, seed=77)
    fit_x = fit_histogram(build_histogram(draws, 0.0, 8.0, 80))
    p_t = fit_normal_log(build_histogram(np.log(draws), math.log(0.005), math.log(8.0), 40)).params
    assert abs(fit_x.params.mu - p_t.mu) < 0.03
    assert abs(fit_x.params.sigma - p_t.sigma) < 0.03


def test_normal_log_spike_masked_by_range(trunc_sampler):
    # zero-impact records displaced to ln(0.01) must not leak into a fit whose
    # range starts at ln(0.1)
    draws = trunc_sampler(30_000, P_FIT.mu, P_FIT.sigma, seed=123, lo=0.1, hi=8.0)
    n_zero = int(round(0.088 * draws.size))
    spiked = np.concatenate([draws, np.zeros(n_zero)])
    t_spiked = np.log(np.where(spiked > 0, spiked, 0.01))

    lo, hi = math.log(0.1), math.log(8.0)
    h_clean = build_histogram(np.log(draws), lo, hi, 40)
    h_spiked = build_histogram(t_spiked, lo, hi, 40)
    assert h_spiked.counts.tolist() == h_clean.counts.tolist()
    assert int(h_spiked.counts.sum()) == spiked.size - n_zero

    p_clean = fit_normal_log(h_clean).params
    p_spiked = fit_normal_log(h_spiked).params
    assert p_spiked.mu == p_clean.mu and p_spiked.sigma == p_clean.sigma
    assert p_spiked.mu == pytest.approx(P_FIT.mu, abs=0.05)


def test_lm_iterates_are_pinned_bit_for_bit(trunc_sampler, monkeypatch):
    # float.hex of the fits' outputs and the solver's iteration counts, so a
    # change to the LM loop that moves a single bit is caught
    solves = []

    def recording(real):
        def run(*args, **kwargs):
            solves.append(real(*args, **kwargs))
            return solves[-1]

        return run

    monkeypatch.setattr(lognormal, "damped_least_squares", recording(lognormal.damped_least_squares))
    monkeypatch.setattr(lognormal, "damped_least_squares_batch", recording(lognormal.damped_least_squares_batch))
    draws = trunc_sampler(3000, P_FIT.mu, P_FIT.sigma, seed=2024)

    fit = fit_histogram(build_histogram(draws, 0.0, 8.0, 60))
    got = [v.hex() for v in (fit.amplitude, fit.params.mu, fit.params.sigma, fit.residual_norm)]
    assert got == ["0x1.669884f9001aap+7", "-0x1.bfd36dbd8a380p-4", "0x1.c7d749bb13313p-1", "0x1.977ae460f3fdfp+5"]
    assert (solves[-1].n_iter.tolist(), fit.converged) == ([9], True)

    fit = fit_normal_log(build_histogram(np.log(draws), math.log(0.005), math.log(8.0), 40))
    got = [v.hex() for v in (fit.amplitude, fit.params.mu, fit.params.sigma, fit.residual_norm)]
    assert got == ["0x1.f0cff62ef8046p+7", "-0x1.cc1c452352517p-4", "0x1.c6673db4fd9dfp-1", "0x1.a5aec094d4996p+5"]
    assert (solves[-1].n_iter, fit.converged) == (7, True)


def fit_key(fit):
    if isinstance(fit, ValueError):
        return str(fit)
    return [v.hex() for v in (fit.amplitude, fit.params.mu, fit.params.sigma, fit.residual_norm)], fit.converged


def fit_alone(hist):
    try:
        return fit_key(fit_histogram(hist))
    except ValueError as exc:
        return str(exc)


def test_one_batch_gives_each_histogram_its_fit_alone_bit_for_bit(trunc_sampler):
    # one block mixing a histogram with too few bins, a fit stopped by the
    # 200-iteration cap, a runaway whose mu leaves its bins and two that converge;
    # each has 65 to 128 bins, so it fills the 128 cells it is padded to alone
    capped = np.exp(np.random.default_rng(6).normal(0.0, 2.0, 30))
    draws = trunc_sampler(3000, P_FIT.mu, P_FIT.sigma, seed=5)
    hists = [
        build_histogram(draws, 0.0, 8.0, 70),
        build_histogram([0.5, 2.5, 4.5], 0.0, 8.0, 100),
        build_histogram(capped[capped < 8.0], 0.0, 8.0, 80),
        build_histogram(np.linspace(4e305, 8e306, 20), 0.0, 1.7e308, 87),
        build_histogram(draws, 0.0, 8.0, 128),
    ]
    centers = np.stack([np.pad(h.centers, (0, 128 - h.n_bins), mode="edge") for h in hists])
    counts = np.stack([np.pad(h.counts, (0, 128 - h.n_bins)) for h in hists])
    fit, status = lognormal._fit_block(centers, counts, np.array([h.n_bins for h in hists]), None)
    assert list(zip(fit.n_iter.tolist(), status.tolist())) == [(8, 0), (0, 1), (200, 2), (1, 3), (7, 0)]
    assert fit.params[3, 1] > 1e5
    block = [
        "histogram needs at least 4 non-empty bins with positive centers"
        if code == 1
        else ([v.hex() for v in (*params, math.sqrt(cost))], code == 0)
        for params, cost, code in zip(fit.params.tolist(), fit.cost.tolist(), status.tolist())
    ]
    assert block == [fit_alone(hist) for hist in hists]


def test_normal_log_needs_enough_bins():
    h = build_histogram([0.1, 0.2], 0.0, 1.0, 4)
    with pytest.raises(ValueError):
        fit_normal_log(h)


# --- ensemble_fit ---


def per_draw_ensemble(values, lo, hi, bins_lo, bins_hi, n_fits, seed):
    """One fit per drawn bin count, as the ensemble was first computed.

    Its histograms come from build_histogram, which bins through the ensemble's own binned_rows, so
    this checks the blocks, the fits and the percentiles; tests/test_histogram.py checks the binning.
    """
    values = np.asarray(values, dtype=float)
    logs = np.log(values)
    init = LognormalParams(mu=float(logs.mean()), sigma=max(float(logs.std()), 1e-3))
    bin_draws = np.random.default_rng(seed).integers(bins_lo, bins_hi, size=n_fits, endpoint=True)
    mus, sigmas, n_binned = [], [], 0
    for n_bins in bin_draws:
        try:
            fit = fit_histogram(build_histogram(values, lo, hi, int(n_bins)), init=init)
        except ValueError:
            continue
        n_binned += 1
        if fit.converged:
            mus.append(fit.params.mu)
            sigmas.append(fit.params.sigma)
    if not n_binned:
        raise DataError(f"no drawn bin count puts the {values.size} values inside [{lo!r}, {hi!r}) in 4 non-empty bins")
    if not mus:
        raise NumericalError(f"all {n_fits} ensemble fits failed")
    q = [2.5, 50.0, 97.5]
    return FitEnsemble(
        *(float(v) for v in np.percentile(mus, q)),
        *(float(v) for v in np.percentile(sigmas, q)),
        n_failed=n_fits - len(mus),
    )


def test_ensemble_single_fit_percentiles_collapse(trunc_sampler):
    draws = trunc_sampler(3000, P_FIT.mu, P_FIT.sigma, seed=9)
    ens = ensemble_fit(draws, 0.0, 8.0, 20, 800, 1, seed=9)
    assert ens.mu_p2_5 == ens.mu_p50 == ens.mu_p97_5
    assert ens.sigma_p2_5 == ens.sigma_p50 == ens.sigma_p97_5
    assert ens.n_failed == 0


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
    # one value: no bin count gives it the 4 non-empty bins a fit needs, which is a data error
    args = (np.full(50, 0.5), 0.0, 8.0, 20, 40, 10)
    message = r"no drawn bin count puts the 50 values inside \[0.0, 8.0\) in 4 non-empty bins"
    for fit in (ensemble_fit, per_draw_ensemble):
        with pytest.raises(DataError, match=message):
            fit(*args, seed=0)


def test_ensemble_counts_a_fit_whose_mu_leaves_the_bins_ln_range_as_failed():
    # ln of the values is 704.6..707.7, and of the bin centers at most 709.73;
    # on these few non-empty bins LM converges to mu near 1e6, which no bin supports
    values = np.linspace(4e305, 8e306, 20)
    logs = np.log(values)
    fit = fit_histogram(build_histogram(values, 0.0, 1.7e308, 87), init=LognormalParams(logs.mean(), logs.std()))
    assert fit.params.mu > 1e5 and not fit.converged
    for ensemble in (ensemble_fit, per_draw_ensemble):
        with pytest.raises(NumericalError, match="all 20 ensemble fits failed"):
            ensemble(values, 0.0, 1.7e308, 20, 800, 20, seed=42)


def test_ensemble_fits_a_window_that_leaves_out_the_mode():
    # mu = -0.0761 lies below ln of every bin center in (1, 8). The sample is
    # the planted lognormal's exact quantiles inside the window: a random tail
    # sample of this size would put mu's sampling error near the band itself.
    planted = NormalDist(P_FIT.mu, P_FIT.sigma)
    lo_cdf, hi_cdf = planted.cdf(0.0), planted.cdf(math.log(8.0))
    values = np.exp([planted.inv_cdf(lo_cdf + (hi_cdf - lo_cdf) * (k + 0.5) / 1300) for k in range(1300)])
    ens = ensemble_fit(values, 1.0, 8.0, 20, 800, 200, seed=7)
    assert ens.n_failed == 0
    assert abs(ens.mu_p50 - P_FIT.mu) <= 0.05 and abs(ens.sigma_p50 - P_FIT.sigma) <= 0.05


def test_ensemble_bins_a_value_just_below_hi_in_the_last_bin(trunc_sampler):
    # at 21 bins over [0.1, 8), (v - lo) / width rounds up to 21 for v = 8 - ulp
    values = np.append(trunc_sampler(2000, P_FIT.mu, P_FIT.sigma, seed=8, lo=0.1), np.nextafter(8.0, 0.0))
    logs = np.log(values)
    init = LognormalParams(mu=float(logs.mean()), sigma=max(float(logs.std()), 1e-3))
    rest = build_histogram(values[:-1], 0.1, 8.0, 21)
    counts = rest.counts + np.eye(21, dtype=int)[-1]
    fit = fit_histogram(Histogram(lo=0.1, hi=8.0, n_bins=21, counts=counts, centers=rest.centers), init=init)
    ens = ensemble_fit(values, 0.1, 8.0, 21, 21, 1, seed=0)
    assert (ens.mu_p50, ens.sigma_p50) == (fit.params.mu, fit.params.sigma)


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


@pytest.mark.parametrize("n", [1, 2, 3, 2500])
def test_sorted_percentiles_equal_numpy_bit_for_bit(n):
    # drawn with replacement from one-decimal values, so ties abound; + 0.0 turns -0.0 into 0.0
    rng = np.random.default_rng(n)
    x = rng.choice(np.round(rng.standard_normal(n), 1) + 0.0, size=n)
    q = (2.5, 50.0, 97.5)
    got = lognormal._sorted_percentiles(np.sort(x), q)
    assert [v.hex() for v in got] == [float(v).hex() for v in np.percentile(x, q)]


def test_ensemble_does_not_depend_on_how_its_fits_are_batched(trunc_sampler, monkeypatch):
    # bin counts 2 and 3 always fail; at a 1-cell cap every block holds one fit
    args = (trunc_sampler(2000, P_FIT.mu, P_FIT.sigma, seed=31), 0.0, 8.0, 2, 300, 150)
    batched = ensemble_fit(*args, seed=3)
    monkeypatch.setattr(lognormal, "_MAX_CELLS", 1)
    assert ensemble_fit(*args, seed=3) == batched
    assert batched.n_failed > 0


def test_ensemble_memory_is_bounded_by_its_batch_not_its_draws():
    # C11's sample at the default 10,000 fits; every distinct count held at
    # once would take tens of MB
    planted = NormalDist(-0.0761, 0.933)
    hi_cdf = planted.cdf(math.log(8.0))
    values = np.array([math.exp(planted.inv_cdf(hi_cdf * (k + 0.5) / 2500)) for k in range(2500)])
    values = values[values >= 0.1]
    ensemble_fit(values, 0.1, 8.0, 20, 800, 1, seed=42)  # first-call set-up stays out of the peak
    tracemalloc.start()
    try:
        ensemble_fit(values, 0.1, 8.0, 20, 800, 10_000, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_ensemble_input_validation():
    vals = np.array([1.0, 2.0])
    with pytest.raises(DataError, match=r"only 0 values inside \[0.0, 8.0\); too few to fit"):
        ensemble_fit(np.array([]), 0.0, 8.0, 20, 800, 10, seed=0)
    with pytest.raises(DataError, match=r"the window \[0.0, 5e-322\) lies too close to 0 for 20 bins"):
        ensemble_fit(np.arange(1, 13) * 2e-323, 0.0, 5e-322, 4, 20, 50, seed=0)  # 5e-322 / 20 is subnormal
    with pytest.raises(ValueError):
        ensemble_fit(np.array([0.0, 1.0]), 0.0, 8.0, 20, 800, 10, seed=0)
    with pytest.raises(ValueError):
        ensemble_fit(np.array([1.0, 9.0]), 0.0, 8.0, 20, 800, 10, seed=0)
    with pytest.raises(ValueError):
        ensemble_fit(np.array([1.0, 8.0]), 0.0, 8.0, 20, 800, 10, seed=0)
    with pytest.raises(ValueError):
        ensemble_fit(np.array([0.09, 1.0]), 0.1, 8.0, 20, 800, 10, seed=0)
    with pytest.raises(ValueError, match=r"must be > 0 and lie inside \[0.0, 8.0\)"):
        ensemble_fit(np.array([1.0, np.nan]), 0.0, 8.0, 20, 800, 10, seed=0)
    with pytest.raises(ValueError):
        ensemble_fit(vals, 0.0, 8.0, 800, 20, 10, seed=0)
    with pytest.raises(ValueError):
        ensemble_fit(vals, 0.0, 8.0, 20, 800, 0, seed=0)


def test_ensemble_runs_without_fork_or_cpu_affinity(trunc_sampler, monkeypatch):
    # neither call exists on Windows, and macOS has no sched_getaffinity
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    args = (trunc_sampler(2000, P_FIT.mu, P_FIT.sigma, seed=31), 0.0, 8.0, 20, 300, 120)
    assert ensemble_fit(*args, seed=7) == per_draw_ensemble(*args, seed=7)


# --- derived_stats ---


def test_derived_example_values():
    stats_ = derived_stats(P_FIT)
    assert stats_.mean == pytest.approx(1.433, abs=2e-3)
    assert stats_.median == pytest.approx(0.9267, abs=5e-4)


def test_derived_z_is_the_normal_975_quantile_to_the_bit():
    assert lognormal._Z975 == NormalDist().inv_cdf(0.975)
    assert lognormal._Z975.hex() == "0x1.f5c0331eeff82p+0"


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
