"""Command-line front end: ingest, fit, benchmark, curve.

Wires corpus parsing through histogram fitting and the Monte Carlo benchmark
into reproducible runs. Reports are line-oriented text, series files are CSV,
and nothing embeds a timestamp or machine detail: the same inputs, flags and
seed produce byte-identical output files on every run.

Exit codes: 0 success; 1 usage error (bad flags, or an OSError such as an
unreadable path); 2 data error, raised as corpus.DataError (malformed corpus,
text that is not UTF-8, a CSV the csv module cannot read, nothing to process,
fewer than 4 distinct values to fit, budgets, an award's FWCI values or all
eligible FWCI values whose sum overflows); 3 numerical failure, raised as
corpus.NumericalError, which lognormal re-exports (every ensemble fit failed, a
fitted statistic overflowed, a simulated median underflowed). Any other
exception is a bug and ends the run with a traceback.

Both error classes live in corpus, so ``ingest``, ``--help`` and a usage error
never import NumPy: the numerical modules are imported inside the commands
that use them. The cyclic garbage collector is off while a command runs,
because a run builds many objects and no reference cycles worth collecting.
"""

from __future__ import annotations

import argparse
import csv
import gc
import logging
import math
import os
import sys
from dataclasses import dataclass

from . import corpus
from .corpus import DataError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# Display constants for the two standard views: linear impact-value bins of
# width 0.1, and log-value bins of width 0.2 over [-5, 3) with zeros shown
# at ln(0.01).
_LINEAR_BIN_WIDTH = 0.1
_LINEAR_MAX_BINS = 10_000  # keeps the display view drawable whatever --range spans
_LOG_LO = -5.0
_LOG_HI = 3.0
_LOG_BINS = 40
_ZERO_SHIFT = 0.01
_CURVE_POINTS = 512


def _shown(path: str) -> str:
    """``path`` as UTF-8 text, with each byte of a non-UTF-8 name shown as ``\\xNN``."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def _config_lines(args: argparse.Namespace) -> list[str]:
    """The effective settings of one command run; echoed into every report."""
    return [
        "config:",
        f"  input = {_shown(args.input)}",
        f"  budgets = {_shown(args.budgets) if args.budgets else '-'}",
        f"  low_cut = {args.low_cut!r}",
        f"  range = {args.range[0]!r}:{args.range[1]!r}",
        f"  bins = {args.bins[0]}:{args.bins[1]}",
        f"  fits = {args.fits}",
        # each value once, as benchmark and curve run them
        f"  sigma2 = {','.join(repr(s) for s in dict.fromkeys(args.sigma2))}",
        f"  reps = {args.reps}",
        f"  seed = {args.seed}",
        f"  out = {_shown(args.out)}",
    ]


def _write_text(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(path: str, header: list[str], rows: list[list[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # plain-float repr even for numpy scalar subclasses
        return repr(float(value))
    return str(value)


def _write_report(args: argparse.Namespace, name: str, title: str, lines: list[str]) -> None:
    """A text report: its title, the run's config block, then ``lines``."""
    _write_text(_out_path(args, name), [title, *_config_lines(args), *lines])


def _write_series(args: argparse.Namespace, name: str, header: list[str], xs, ys) -> None:
    """A two-column CSV series: floats in repr form, integer counts as integers."""
    _write_csv(_out_path(args, name), header, [[_fmt(x), _fmt(y)] for x, y in zip(xs, ys)])


def _grid(lo: float, hi: float):
    """Midpoints of _CURVE_POINTS equal steps over [lo, hi], where a curve is drawn."""
    import numpy as np

    return lo + (np.arange(_CURVE_POINTS) + 0.5) * (hi - lo) / _CURVE_POINTS


# ---------------------------------------------------------------------------
# flag parsing


def _flag_type(convert, ok, what: str):
    """An argparse type: ``convert`` the text, then accept the value only if ``ok(value)``."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"need {what}, got {text!r}")

    return parse


_pos_int = _flag_type(int, lambda v: v >= 1, "an integer >= 1")
_nonneg_int = _flag_type(int, lambda v: v >= 0, "an integer >= 0")
_nonneg_float = _flag_type(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
# The model lives on x > 0, and a histogram fit needs at least 4 non-empty bins.
_float_range = _flag_type(
    lambda t: tuple(map(float, t.split(":"))),
    lambda r: len(r) == 2 and 0 <= r[0] < r[1] < math.inf,
    "LO:HI with finite 0 <= LO < HI",
)
_int_range = _flag_type(
    lambda t: tuple(map(int, t.split(":"))),
    lambda r: len(r) == 2 and 1 <= r[0] <= r[1] and r[1] >= 4,
    "integers LO:HI with 1 <= LO <= HI and HI >= 4",
)
_sigma_list = _flag_type(
    lambda t: tuple(map(float, t.split(","))),
    lambda vs: all(0 < v < math.inf for v in vs),
    "comma-separated finite values > 0",
)
_n_list = _flag_type(
    lambda t: tuple(map(int, t.split(","))),
    lambda vs: all(v >= 1 for v in vs),
    "comma-separated paper counts >= 1",
)


def _distinct(values, what: str) -> list:
    """values without repeats, first occurrence kept, with a warning for each repeat dropped."""
    kept: list = []
    for v in values:
        if v in kept:
            print(f"warning: duplicate {what} {v!r} ignored", file=sys.stderr)
        else:
            kept.append(v)
    return kept


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwcibench",
        description="Benchmark grant-funded publication impact against a lognormal baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="publication record file (CSV or JSONL)")
    common.add_argument("--budgets", default=None, help="optional budget CSV (award_code, budget_eur)")
    common.add_argument("--low-cut", type=_nonneg_float, default=0.1, help="impact cutoff split before fitting")
    common.add_argument("--range", type=_float_range, default=(0.0, 8.0), metavar="LO:HI", help="fitting range")
    common.add_argument("--bins", type=_int_range, default=(20, 800), metavar="LO:HI", help="ensemble bin-count range")
    common.add_argument("--fits", type=_pos_int, default=10_000, help="ensemble size")
    common.add_argument("--sigma2", type=_sigma_list, default=(1.0, 1.3, 1.8), help="baseline log-variances")
    common.add_argument("--reps", type=_pos_int, default=100_000, help="simulated awards per median")
    common.add_argument("--seed", type=_nonneg_int, default=42, help="master seed")
    common.add_argument("--out", default=".", help="output directory")

    p_ingest = sub.add_parser("ingest", parents=[common], help="parse, clean and summarize the corpus")
    p_ingest.set_defaults(func=cmd_ingest)

    p_fit = sub.add_parser("fit", parents=[common], help="fit the lognormal model with a random-bin ensemble")
    p_fit.set_defaults(func=cmd_fit)

    p_bench = sub.add_parser("benchmark", parents=[common], help="compare award means against simulated medians")
    p_bench.set_defaults(func=cmd_benchmark)

    p_curve = sub.add_parser("curve", parents=[common], help="tabulate the median of award means versus paper count")
    p_curve.add_argument("--n-list", type=_n_list, required=True, help="comma-separated award paper counts")
    p_curve.set_defaults(func=cmd_curve)

    return parser


# ---------------------------------------------------------------------------
# shared pipeline


@dataclass(frozen=True)
class _Corpus:
    """One run's input: deduplicated records, their eligible subset, budgets and every rejection."""

    records: list[corpus.PublicationRecord]
    rejections: list[corpus.RowRejection]
    n_duplicates: int
    eligible: list[corpus.PublicationRecord]
    budgets: dict[str, float]
    budget_rejections: list[corpus.RowRejection]


def _load_corpus(args: argparse.Namespace) -> _Corpus:
    """Parse, dedupe and eligibility-filter the input; load budgets if given."""
    records, rejections = corpus.read_records(args.input)
    records, n_dup = corpus.dedupe_per_award(records)
    budgets: dict[str, float] = {}
    budget_rejections: list[corpus.RowRejection] = []
    if args.budgets:
        budgets, budget_rejections = corpus.read_budgets(args.budgets)
    return _Corpus(records, rejections, n_dup, corpus.filter_eligible(records), budgets, budget_rejections)


def _out_path(args: argparse.Namespace, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args: argparse.Namespace) -> int:
    data = _load_corpus(args)

    summaries = corpus.summarize_awards(data.eligible, data.budgets)
    totals = corpus.portfolio_totals(summaries)
    if totals.total_budget is not None and not math.isfinite(totals.total_budget):
        raise DataError(f"{args.budgets}: the budgets sum past the largest float; no cost per paper")
    low, main = corpus.split_low_fwci(data.eligible, args.low_cut)

    with open(_out_path(args, "eligible_records.csv"), "w", encoding="utf-8", newline="") as fh:
        corpus.write_records_csv(data.eligible, fh)

    rejection_lines = [f"row {r.row}: {r.reason} | {r.raw}" for r in data.rejections]
    rejection_lines += [f"budget row {r.row}: {r.reason} | {r.raw}" for r in data.budget_rejections]
    _write_text(_out_path(args, "rejections.txt"), rejection_lines or ["no rejections"])

    _write_csv(
        _out_path(args, "award_summaries.csv"),
        ["award_code", "n_papers", "mean_fwci", "budget_eur", "cost_per_paper"],
        [
            [s.award_code, s.n_papers, _fmt(s.mean_fwci), _fmt(s.budget), _fmt(s.cost_per_paper)]
            for s in summaries
        ],
    )

    count_line = f"{totals.n_awards} awards, {totals.n_papers:,} publications"
    cost_line = (
        f"cost_per_paper = {totals.cost_per_paper!r} "
        f"(~EUR {round(totals.cost_per_paper):,}; {totals.n_awards_with_budget} budgeted awards, "
        f"{totals.n_papers_with_budget:,} papers)"
        if totals.cost_per_paper is not None
        else "cost_per_paper = n/a (no budgets)"
    )
    report = [
        "counts:",
        f"  rows_parsed = {len(data.records) + len(data.rejections)}",
        f"  rows_rejected = {len(data.rejections)}",
        f"  duplicates_dropped = {data.n_duplicates}",
        f"  records_eligible = {len(data.eligible)}",
        f"  below_low_cut = {len(low)}",
        f"  at_or_above_low_cut = {len(main)}",
        f"  budget_rows_rejected = {len(data.budget_rejections)}",
        f"  {count_line}",
        f"  {cost_line}",
    ]
    _write_report(args, "ingest_report.txt", "ingest report", report)

    print(count_line)
    print(f"below low cut {args.low_cut!r}: {len(low)}; at or above: {len(main)}")
    print(cost_line)
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    import numpy as np

    from . import histogram, lognormal

    fit_lo, fit_hi = args.range
    eligible = _load_corpus(args).eligible
    if not eligible:
        raise DataError("no eligible records to fit")

    all_values = np.array([r.fwci for r in eligible], dtype=float)
    with np.errstate(over="ignore"):
        naive_mean_all = float(all_values.mean())
    if not math.isfinite(naive_mean_all):
        raise DataError("the eligible FWCI values sum past the largest float; no naive_mean_all")
    low, main = corpus.split_low_fwci(eligible, args.low_cut)
    fit_values = np.array(
        [r.fwci for r in main if fit_lo < r.fwci < fit_hi], dtype=float
    )
    n_outside = len(main) - fit_values.size
    if fit_values.size < 8:
        raise DataError(
            f"only {fit_values.size} values inside ({fit_lo!r}, {fit_hi!r}); too few to fit"
        )
    n_distinct = np.unique(fit_values).size
    if n_distinct < 4:
        raise DataError(
            f"only {n_distinct} distinct values inside ({fit_lo!r}, {fit_hi!r}); a fit needs 4 non-empty bins"
        )

    ensemble = lognormal.ensemble_fit(
        fit_values, fit_lo, fit_hi, *args.bins, args.fits, args.seed
    )
    central = lognormal.LognormalParams(mu=ensemble.mu_p50, sigma=ensemble.sigma_p50)
    stats = lognormal.derived_stats(central)

    # Display view: fixed-width bins for plotting plus one fit at that binning
    # so the drawn curve matches the drawn histogram.
    n_display = round(min(max((fit_hi - fit_lo) / _LINEAR_BIN_WIDTH, 4), _LINEAR_MAX_BINS))
    display_hist = histogram.build_histogram(fit_values, fit_lo, fit_hi, n_display)
    try:
        display_fit = lognormal.fit_histogram(display_hist)
        display_lines = [
            f"  n_bins = {n_display}",
            f"  amplitude = {display_fit.amplitude!r}",
            f"  mu = {display_fit.params.mu!r}",
            f"  sigma = {display_fit.params.sigma!r}",
            f"  converged = {display_fit.converged}",
        ]
        curve_amp, curve_params = display_fit.amplitude, display_fit.params
    except ValueError as exc:
        display_lines = [f"  unavailable: {exc}"]
        width = (fit_hi - fit_lo) / n_display
        curve_amp = fit_values.size * width / (central.sigma * math.sqrt(2 * math.pi))
        curve_params = central

    _write_series(args, "hist_linear.csv", ["center", "count"], display_hist.centers, display_hist.counts)
    xs = _grid(fit_lo, fit_hi)
    _write_series(
        args, "curve_linear.csv", ["x", "expected_count"], xs, lognormal.scaled_model(xs, curve_amp, curve_params)
    )

    # Log view: whole eligible sample with zeros displaced, for display; the
    # cross-check normal fit runs on ln of the fitted sample only.
    log_all = histogram.log_transform(all_values, _ZERO_SHIFT)
    log_hist = histogram.build_histogram(log_all, _LOG_LO, _LOG_HI, _LOG_BINS)
    _write_series(args, "hist_log.csv", ["center", "count"], log_hist.centers, log_hist.counts)

    cons_lo = math.log(args.low_cut) if args.low_cut > 0 else _LOG_LO
    cons_hi = math.log(fit_hi)
    try:
        # empty window when ln(low_cut) >= ln(fit_hi), or fit_hi <= e^-5 with no low cut
        cons_hist = histogram.build_histogram(np.log(fit_values), cons_lo, cons_hi, _LOG_BINS)
        cons_amp, cons_params = lognormal.fit_normal_log(cons_hist)
        cons_lines = [
            f"  range = {cons_lo!r}:{cons_hi!r} ({_LOG_BINS} bins of ln values)",
            f"  amplitude = {cons_amp!r}",
            f"  mu = {cons_params.mu!r}",
            f"  sigma = {cons_params.sigma!r}",
        ]
        ts = _grid(cons_lo, cons_hi)
        gs = lognormal.gaussian((cons_amp, cons_params.mu, cons_params.sigma), ts)
    except ValueError as exc:
        cons_lines = [f"  unavailable: {exc}"]
        ts = gs = []
    _write_series(args, "curve_log.csv", ["t", "expected_count"], ts, gs)

    report = [
        "sample:",
        f"  records_eligible = {len(eligible)}",
        f"  below_low_cut = {len(low)}",
        f"  outside_fit_range = {n_outside}",
        f"  fitted = {fit_values.size}",
        f"  naive_mean_all = {naive_mean_all!r}",
        f"  naive_mean_fitted_sample = {float(fit_values.mean())!r}",
        "ensemble:",
        f"  n_fits = {ensemble.n_fits}",
        f"  n_failed = {ensemble.n_failed}",
        f"  seed = {ensemble.seed}",
        f"  mu_p2_5 = {ensemble.mu_p2_5!r}",
        f"  mu_p50 = {ensemble.mu_p50!r}",
        f"  mu_p97_5 = {ensemble.mu_p97_5!r}",
        f"  sigma_p2_5 = {ensemble.sigma_p2_5!r}",
        f"  sigma_p50 = {ensemble.sigma_p50!r}",
        f"  sigma_p97_5 = {ensemble.sigma_p97_5!r}",
        "derived (from median parameters):",
        f"  fitted_mean = {stats.mean!r}",
        f"  fitted_median = {stats.median!r}",
        f"  fitted_mode = {stats.mode!r}",
        f"  interval95 = {stats.interval95_lo!r}:{stats.interval95_hi!r} (distribution quantiles)",
        "consistency (normal fit to ln values):",
        *cons_lines,
        "display fit (fixed-width bins):",
        *display_lines,
        "series files: hist_linear.csv curve_linear.csv hist_log.csv curve_log.csv",
    ]
    _write_report(args, "fit_report.txt", "fit report", report)

    print(f"fitted {fit_values.size} values; ensemble n_failed = {ensemble.n_failed}")
    print(f"mu_p50 = {ensemble.mu_p50!r}, sigma_p50 = {ensemble.sigma_p50!r}")
    print(f"fitted_mean = {stats.mean!r} vs naive_mean_all = {naive_mean_all!r}")
    return EXIT_OK


def cmd_benchmark(args: argparse.Namespace) -> int:
    from . import simulate

    args.sigma2 = _distinct(args.sigma2, "sigma2")
    data = _load_corpus(args)
    summaries = corpus.summarize_awards(data.eligible, data.budgets)
    # One Monte Carlo run serves every award; an empty portfolio simulates nothing.
    n_values = sorted({s.n_papers for s in summaries})
    baselines = [simulate.BaselineField(s) for s in args.sigma2]
    points = simulate.median_curve(n_values, baselines, args.reps, args.seed) if n_values else []
    simulated = {(p.sigma_sq, p.n): p.median_mean for p in points}
    benchmarks = [
        simulate.benchmark_award(s, {sig: simulated[sig, s.n_papers] for sig in args.sigma2})
        for s in summaries
    ]

    header = ["award_code", "n_papers", "observed_mean"]
    for s in args.sigma2:
        header += [f"threshold_{s!r}", f"verdict_{s!r}"]
    rows = []
    for b in benchmarks:
        row: list[object] = [b.award_code, b.n_papers, _fmt(b.observed_mean)]
        for s in args.sigma2:
            row += [_fmt(b.thresholds[s]), b.verdicts[s]]
        rows.append(row)
    _write_csv(_out_path(args, "benchmark.csv"), header, rows)

    if not benchmarks:
        _write_report(args, "benchmark_report.txt", "benchmark report", ["no awards in input"])
        print("warning: no awards in input", file=sys.stderr)
        return EXIT_OK

    aggregates = simulate.aggregate_benchmarks(benchmarks)
    report = [f"awards = {len(benchmarks)}"]
    for agg in aggregates:
        combined = agg.n_mean_ge_1 + agg.n_small_sample_pass
        report += [
            f"sigma2 = {agg.sigma_sq!r}:",
            f"  above_median = {agg.n_above}",
            f"  below_median = {agg.n_below}",
            f"  fraction_above = {agg.fraction_above!r}",
            f"  mean_ge_1 = {agg.n_mean_ge_1}",
            f"  small_sample_pass = {agg.n_small_sample_pass} (above median with mean < 1)",
            f"  mean_ge_1_plus_small_sample_pass = {combined}",
        ]
    above_counts = [agg.n_above for agg in aggregates]
    report.append(f"above_median across sigma2: {min(above_counts)} to {max(above_counts)}")
    _write_report(args, "benchmark_report.txt", "benchmark report", report)

    for agg in aggregates:
        print(
            f"sigma2 {agg.sigma_sq!r}: {agg.n_above}/{agg.n_total} above median "
            f"(fraction {agg.fraction_above!r})"
        )
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    from . import simulate

    n_list = _distinct(args.n_list, "paper count")
    args.sigma2 = _distinct(args.sigma2, "sigma2")
    baselines = [simulate.BaselineField(s) for s in args.sigma2]
    points = simulate.median_curve(n_list, baselines, args.reps, args.seed)

    _write_csv(
        _out_path(args, "median_curve.csv"),
        ["sigma_sq", "n", "median_mean", "reps", "seed"],
        [[_fmt(p.sigma_sq), p.n, _fmt(p.median_mean), args.reps, args.seed] for p in points],
    )
    report = [f"n_list = {','.join(str(n) for n in n_list)}", f"points = {len(points)}"]
    _write_report(args, "curve_report.txt", "median curve report", report)
    print(f"wrote median_curve.csv ({len(points)} points)")
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_USAGE

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
