"""End-to-end checks, one test per shipped claim.

Each test prints through the terminal summary hook as ACCEPTANCE Cnn. Seeds
are frozen so every number below is reproducible bit for bit; the Monte Carlo
error of a 100,000-rep sample median is about 0.0024, well inside every band
asserted here.
"""

import csv
import math
import os
import time
from statistics import NormalDist

import numpy as np
from scipy import integrate

from fwcibench import cli
from fwcibench.corpus import (
    AwardSummary,
    PublicationRecord,
    normalize_award_code,
    portfolio_totals,
    split_low_fwci,
)
from fwcibench.histogram import build_histogram
from fwcibench.lognormal import (
    LognormalParams,
    derived_stats,
    ensemble_fit,
    pdf,
    percentile_of,
)
from fwcibench.simulate import (
    VERDICT_ABOVE,
    BaselineField,
    benchmark_award,
    median_curve,
)

SEED = 1
REPS = 100_000


def medians(n_values, sigma_sq, reps, seed):
    """The n -> simulated median map of one baseline, read off median_curve."""
    return {p.n: p.median_mean for p in median_curve(n_values, [BaselineField(sigma_sq)], reps, seed)}


def test_c01_single_paper_median_sigma13_under_one_second():
    t0 = time.perf_counter()
    value = medians([1], 1.3, REPS, SEED)[1]
    elapsed = time.perf_counter() - t0
    assert abs(value - 0.522) <= 0.005, f"median {value!r} outside 0.522 +/- 0.005"
    assert elapsed < 1.0, f"took {elapsed:.2f} s, budget 1 s"


def test_c02_single_paper_median_sigma10():
    value = medians([1], 1.0, REPS, SEED)[1]
    assert abs(value - 0.607) <= 0.005, f"median {value!r} outside 0.607 +/- 0.005"


def test_c03_median_accuracy_at_typical_and_large_awards():
    t0 = time.perf_counter()
    failures = []
    for sigma_sq in (1.0, 1.3, 1.8):
        value = medians([46], sigma_sq, REPS, SEED)[46]
        if abs(value - 1.0) > 0.10:
            failures.append(f"n=46 sigma2={sigma_sq}: {value!r} off by more than 10%")
    value_400 = medians([400], 1.8, REPS, SEED)[400]
    if abs(value_400 - 1.0) > 0.01:
        # Not a seed artifact: three independent 1,000,000-rep runs put the
        # true median at 0.989158 +/- 0.0002, a 1.08% shortfall from 1.0, so
        # no seed can land inside a 1% band. The gap closes near n = 550.
        failures.append(
            f"n=400 sigma2=1.8: {value_400!r} is {abs(value_400 - 1.0):.2%} from 1.0, "
            "outside the 1% band (true median 0.989158 +/- 0.0002, shortfall 1.08%)"
        )
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f} s, budget 30 s")
    assert not failures, "; ".join(failures)


def test_c04_unit_impact_percentile():
    params = BaselineField(1.3).params
    value = percentile_of(1.0, params)
    oracle = NormalDist().cdf(params.sigma / 2)
    assert abs(value - 0.716) <= 0.005, f"percentile {value!r} outside 0.716 +/- 0.005"
    assert abs(value - oracle) < 1e-9, f"disagrees with closed form {oracle!r}"


def test_c05_derived_stats_closed_forms():
    stats = derived_stats(LognormalParams(mu=-0.0761, sigma=0.933))
    assert abs(stats.mean - 1.433) <= 0.002, f"mean {stats.mean!r} outside 1.433 +/- 0.002"
    assert abs(stats.median - 0.9267) <= 0.0005, f"median {stats.median!r} outside 0.9267 +/- 0.0005"


def test_c06_ensemble_round_trip_across_seeds(trunc_sampler):
    t0 = time.perf_counter()
    failures = []
    for seed in (1, 2, 3, 4, 6):
        values = trunc_sampler(2959, -0.0761, 0.933, seed)
        ens = ensemble_fit(values, 0.0, 8.0, 20, 800, 10_000, seed)
        if abs(ens.mu_p50 - (-0.0761)) > 0.05:
            failures.append(f"seed {seed}: mu_p50 {ens.mu_p50!r} outside -0.0761 +/- 0.05")
        if abs(ens.sigma_p50 - 0.933) > 0.05:
            failures.append(f"seed {seed}: sigma_p50 {ens.sigma_p50!r} outside 0.933 +/- 0.05")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.0f} s, budget 300 s")
    assert not failures, "; ".join(failures)


def test_c07_invariant_suite(trunc_sampler):
    failures = []

    # density integrates to 1
    for mu in (-1.0, -0.25, 0.5):
        for sigma in (0.5, 1.0, 1.5):
            total, _ = integrate.quad(pdf, 0, np.inf, args=(LognormalParams(mu, sigma),))
            if abs(total - 1.0) > 1e-4:
                failures.append(f"normalization mu={mu} sigma={sigma}: integral {total!r}")

    # mode < median < mean, strictly
    for mu in (-1.0, -0.25, 0.5):
        for sigma in (0.5, 1.0, 1.5):
            s = derived_stats(LognormalParams(mu, sigma))
            if not s.mode < s.median < s.mean:
                failures.append(f"ordering mu={mu} sigma={sigma}: {s.mode!r}, {s.median!r}, {s.mean!r}")

    # rescaling the sample by k shifts mu by ln k and leaves sigma alone
    values = trunc_sampler(3000, -0.0761, 0.933, 21)
    base = ensemble_fit(values, 0.0, 8.0, 20, 200, 400, 21)
    scaled = ensemble_fit(2.0 * values, 0.0, 16.0, 20, 200, 400, 21)
    if abs((scaled.mu_p50 - base.mu_p50) - math.log(2)) > 0.02:
        failures.append(f"scale covariance: mu shift {scaled.mu_p50 - base.mu_p50!r} vs ln 2")
    if abs(scaled.sigma_p50 - base.sigma_p50) > 0.02:
        failures.append(f"scale covariance: sigma moved {base.sigma_p50!r} -> {scaled.sigma_p50!r}")

    # binning conserves counts, and halving bin width refines consistently
    data = values[values < 5.0]
    in_range = int(((data >= 0.5) & (data < 4.5)).sum())
    coarse = build_histogram(data, 0.5, 4.5, 16)
    fine = build_histogram(data, 0.5, 4.5, 32)
    if int(coarse.counts.sum()) != in_range:
        failures.append(f"conservation: {int(coarse.counts.sum())} binned of {in_range} in range")
    merged = fine.counts.reshape(16, 2).sum(axis=1)
    if not np.array_equal(merged, coarse.counts):
        failures.append("refinement: doubled binning does not merge back to the coarse counts")

    # the one-parameter family keeps its mean pinned at exactly 1
    for sigma_sq in np.linspace(0.05, 3.0, 25):
        if derived_stats(BaselineField(float(sigma_sq)).params).mean != 1.0:
            failures.append(f"constrained family: mean != 1 at sigma2 {sigma_sq!r}")

    # low-impact split is a clean order-preserving partition
    records = [
        PublicationRecord("11/IA/2000", 2019, "article", fwci=v, source_id=f"W{i}")
        for i, v in enumerate((0.0, 0.05, 0.1, 0.3, 1.2, 0.09, 2.0))
    ]
    low, main = split_low_fwci(records, 0.1)
    if len(low) + len(main) != len(records):
        failures.append("split: sizes do not add up")
    if not (all(r.fwci < 0.1 for r in low) and all(r.fwci >= 0.1 for r in main)):
        failures.append("split: records on the wrong side of the cut")
    if [r for r in records if r.fwci < 0.1] != list(low) or [r for r in records if r.fwci >= 0.1] != list(main):
        failures.append("split: input order not preserved")

    # code normalization is idempotent
    for raw in ("12/IA/3456", "SFI/13/IA/0042", "14/1A/2222", " 15/IA/8888 "):
        once = normalize_award_code(raw)
        if normalize_award_code(once) != once:
            failures.append(f"normalize: {raw!r} not stable at {once!r}")

    assert not failures, "; ".join(failures)


def _rerun_snapshot(argv, out):
    assert cli.main(argv) == 0
    first = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert cli.main(argv) == 0
    second = {name: (out / name).read_bytes() for name in os.listdir(out)}
    return first, second


def test_c08_cli_reruns_byte_identical(tmp_path):
    path = tmp_path / "pubs.csv"
    rng = np.random.default_rng(5)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["award_code", "year", "pub_type", "fwci", "citations", "title", "source_id"])
        uid = 0
        for i in range(16):
            for v in np.exp(-0.0761 + 0.933 * rng.standard_normal(50)):
                uid += 1
                writer.writerow(
                    [f"{11 + i % 4:02d}/IA/{3000 + i}", 2018, "article", repr(float(v)), 1, f"t{uid}", f"W{uid}"]
                )

    common = ["--input", str(path), "--seed", "5"]
    out_fit = tmp_path / "fit"
    first, second = _rerun_snapshot(["fit", *common, "--fits", "150", "--bins", "20:120", "--out", str(out_fit)], out_fit)
    assert first == second, "fit outputs changed between identical runs"
    assert "fit_report.txt" in first

    out_bench = tmp_path / "bench"
    first, second = _rerun_snapshot(["benchmark", *common, "--reps", "3000", "--out", str(out_bench)], out_bench)
    assert first == second, "benchmark outputs changed between identical runs"
    assert "benchmark_report.txt" in first


def test_c09_null_portfolio_calibration(lognormal_sampler):
    baseline = BaselineField(1.3)
    rng = np.random.default_rng(907)
    summaries = []
    for i in range(148):
        n = int(rng.integers(2, 41))
        draws = lognormal_sampler(baseline.params, n, rng)
        summaries.append(
            AwardSummary(
                award_code=f"{10 + i // 100:02d}/IA/{1000 + i}",
                n_papers=n,
                mean_fwci=float(draws.mean()),
            )
        )
    thresholds = medians(sorted({s.n_papers for s in summaries}), baseline.sigma_sq, 20_000, 7)
    benchmarks = [benchmark_award(s, {baseline.sigma_sq: thresholds[s.n_papers]}) for s in summaries]
    n_above = sum(b.verdicts[baseline.sigma_sq] == VERDICT_ABOVE for b in benchmarks)
    fraction = n_above / len(benchmarks)
    # two binomial standard deviations at 148 trials is 2*sqrt(.25/148) = 0.082
    assert abs(fraction - 0.5) <= 0.09, (
        f"fraction above {fraction!r} ({n_above}/{len(benchmarks)}) outside 0.50 +/- 0.09"
    )


def test_c10_portfolio_cost_per_paper():
    summaries = [
        AwardSummary(award_code=f"{11 + i % 5:02d}/IA/{5000 + i}", n_papers=21, budget=1_419_471.0)
        for i in range(147)
    ]
    summaries.append(AwardSummary(award_code="16/IA/9000", n_papers=156, budget=1_419_451.0))
    totals = portfolio_totals(summaries)
    assert totals.n_papers == 3243
    assert totals.total_budget == 210_081_688.0
    cpp = totals.cost_per_paper
    assert abs(cpp - 64_780) < 1, f"cost per paper {cpp!r} not within EUR 1 of 64,780"
    assert round(cpp, -3) == 65_000, f"cost per paper {cpp!r} does not round to 65,000"


def test_c11_default_fit_recovers_the_planted_lognormal(tmp_path):
    # 2,500 exact quantiles of the planted lognormal inside (0, 8), cut at 0.1
    # as the paper does: no sampling error, so what remains is the fit's bias.
    planted = NormalDist(-0.0761, 0.933)
    hi_cdf = planted.cdf(math.log(8.0))
    values = [math.exp(planted.inv_cdf(hi_cdf * (k + 0.5) / 2500)) for k in range(2500)]
    path = tmp_path / "pubs.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["award_code", "year", "pub_type", "fwci", "citations", "title", "source_id"])
        for k, v in enumerate(v for v in values if v >= 0.1):
            writer.writerow([f"{11 + k % 4:02d}/IA/{3000 + k % 148}", 2018, "article", repr(v), 1, f"t{k}", f"W{k}"])

    out = tmp_path / "fit"
    assert cli.main(["fit", "--input", str(path), "--fits", "200", "--out", str(out)]) == 0
    lines = (out / "fit_report.txt").read_text(encoding="utf-8").splitlines()
    report = dict(line.strip().split(" = ", 1) for line in lines if " = " in line)
    mu, sigma = float(report["mu_p50"]), float(report["sigma_p50"])
    assert abs(mu - (-0.0761)) <= 0.005 and abs(sigma - 0.933) <= 0.005, (
        f"(mu_p50, sigma_p50) = ({mu!r}, {sigma!r}) outside (-0.0761, 0.933) +/- 0.005"
    )
