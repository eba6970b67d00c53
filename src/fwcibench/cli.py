"""Command-line front end: ingest, fit, benchmark, curve.

Wires corpus parsing through histogram fitting and the Monte Carlo benchmark
into reproducible runs. Reports are line-oriented text, series files are CSV,
and nothing embeds a timestamp or machine detail: the same inputs, flags and
seed produce byte-identical output files on every run.

Exit codes: 0 success; 1 usage error (bad flags, a flag the command does not
read, a --fits or --reps too large to allocate, or an OSError such as an
unreadable path); 2 data error, raised as corpus.DataError (malformed corpus,
text that is not UTF-8, a CSV the csv module cannot read, nothing to process,
budgets, an award's FWCI values or all eligible FWCI values whose sum
overflows, a --low-cut at or above the top of --range, which leaves fit an
empty window, fewer than 8 values to fit, a window whose bins at the top --bins
count lie too close to 0 for the fit's sums to stay finite, or no drawn bin
count that puts them in 4 non-empty bins); 3 numerical failure,
raised as corpus.NumericalError, which lognormal re-exports (every ensemble
fit failed although some bin count had 4 non-empty bins, a fitted statistic
overflowed, the fit had no mass in its window, a simulated median
underflowed). Any other exception is a bug and ends in a traceback.

Both error classes live in corpus, so ``ingest``, ``--help`` and a usage error
never import NumPy: the numerical modules are imported inside the commands
that use them. The cyclic garbage collector is off while a command runs,
because a run builds many objects and no reference cycles worth collecting.
"""

from __future__ import annotations

import argparse
import csv
import gc
import math
import os
import sys

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
    """The settings of one command run, each flag it reads in parser order; echoed into every report."""
    return ["config:", *(f"  {dest} = {echo(getattr(args, dest))}" for dest, echo in args.echo)]


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
# The model lives on x > 0.
_float_range = _flag_type(
    lambda t: tuple(map(float, t.split(":"))),
    lambda r: len(r) == 2 and 0 <= r[0] < r[1] < math.inf,
    "LO:HI with finite 0 <= LO < HI",
)
_int_range = _flag_type(
    lambda t: tuple(map(int, t.split(":"))),
    lambda r: len(r) == 2 and 1 <= r[0] <= r[1] and r[1] >= 4,  # 4 is lognormal._MIN_BINS, which imports NumPy
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


def _listed(fmt):
    """The echo of a comma-separated flag: each value once, as the commands run them."""
    return lambda values: ",".join(map(fmt, dict.fromkeys(values)))


# Every flag once: its argparse settings, then how a report echoes its value.
_FLAGS = {
    "--input": (dict(required=True, help="publication record file (CSV or JSONL)"), _shown),
    "--budgets": (dict(help="optional budget CSV (award_code, budget_eur)"), lambda v: _shown(v) if v else "-"),
    "--n-list": (dict(type=_n_list, required=True, help="comma-separated award paper counts"), _listed(str)),
    "--low-cut": (dict(type=_nonneg_float, default=0.1, help="impact cutoff split before fitting"), repr),
    "--range": (dict(type=_float_range, default=(0.0, 8.0), metavar="LO:HI", help="fitting range"), "%r:%r".__mod__),
    "--bins": (dict(type=_int_range, default=(20, 800), metavar="LO:HI", help="ensemble bin-count range"), "%d:%d".__mod__),
    "--fits": (dict(type=_pos_int, default=10_000, help="ensemble size"), str),
    "--sigma2": (dict(type=_sigma_list, default=(1.0, 1.3, 1.8), help="baseline log-variances"), _listed(repr)),
    "--reps": (dict(type=_pos_int, default=100_000, help="simulated awards per median"), str),
    "--seed": (dict(type=_nonneg_int, default=42, help="master seed"), str),
    "--out": (dict(default=".", help="output directory"), _shown),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwcibench",
        description="Benchmark grant-funded publication impact against a lognormal baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command accepts only the flags it reads, and its report echoes them in this order.
    for name, func, flags in (
        ("ingest", cmd_ingest, "--input --budgets --low-cut --out"),
        ("fit", cmd_fit, "--input --low-cut --range --bins --fits --seed --out"),
        ("benchmark", cmd_benchmark, "--input --sigma2 --reps --seed --out"),
        ("curve", cmd_curve, "--n-list --sigma2 --reps --seed --out"),
    ):
        p = sub.add_parser(name, help=func.__doc__)
        echo = [(p.add_argument(flag, **_FLAGS[flag][0]).dest, _FLAGS[flag][1]) for flag in flags.split()]
        p.set_defaults(func=func, echo=echo)
    # curve opens no corpus; it still accepts --input, unread and unechoed, for callers that pass it
    sub.choices["curve"].add_argument("--input", help=argparse.SUPPRESS)
    return parser


# ---------------------------------------------------------------------------
# shared pipeline


def _load_corpus(args: argparse.Namespace):
    """The input's deduplicated records, every rejection, the duplicates dropped and the eligible records."""
    records, rejections = corpus.read_records(args.input)
    records, n_dup = corpus.dedupe_per_award(records)
    return records, rejections, n_dup, corpus.filter_eligible(records)


def _out_path(args: argparse.Namespace, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args: argparse.Namespace) -> int:
    """parse, clean and summarize the corpus"""
    records, rejections, n_duplicates, eligible = _load_corpus(args)
    budgets, budget_rejections = corpus.read_budgets(args.budgets) if args.budgets else ({}, [])

    summaries = corpus.summarize_awards(eligible, budgets)
    totals = corpus.portfolio_totals(summaries)
    if totals.total_budget is not None and not math.isfinite(totals.total_budget):
        raise DataError(f"{args.budgets}: the budgets sum past the largest float; no cost per paper")
    low, main = corpus.split_low_fwci(eligible, args.low_cut)

    with open(_out_path(args, "eligible_records.csv"), "w", encoding="utf-8", newline="") as fh:
        corpus.write_records_csv(eligible, fh)

    rejection_lines = [f"row {r.row}: {r.reason} | {r.raw}" for r in rejections]
    rejection_lines += [f"budget row {r.row}: {r.reason} | {r.raw}" for r in budget_rejections]
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
        f"  rows_parsed = {len(records) + len(rejections)}",
        f"  rows_rejected = {len(rejections)}",
        f"  duplicates_dropped = {n_duplicates}",
        f"  records_eligible = {len(eligible)}",
        f"  below_low_cut = {len(low)}",
        f"  at_or_above_low_cut = {len(main)}",
        f"  budget_rows_rejected = {len(budget_rejections)}",
        f"  {count_line}",
        f"  {cost_line}",
    ]
    _write_report(args, "ingest_report.txt", "ingest report", report)

    print(count_line)
    print(f"below low cut {args.low_cut!r}: {len(low)}; at or above: {len(main)}")
    print(cost_line)
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    """fit the lognormal model with a random-bin ensemble"""
    import numpy as np

    from . import histogram, lognormal

    fit_lo, fit_hi = args.range
    *_, eligible = _load_corpus(args)
    if not eligible:
        raise DataError("no eligible records to fit")

    all_values = np.array([r.fwci for r in eligible], dtype=float)
    with np.errstate(over="ignore"):
        naive_mean_all = float(all_values.mean())
    if not math.isfinite(naive_mean_all):
        raise DataError("the eligible FWCI values sum past the largest float; no naive_mean_all")
    low, main = corpus.split_low_fwci(eligible, args.low_cut)
    window_lo = max(fit_lo, args.low_cut)  # the fitted sample lies in [window_lo, fit_hi)
    if window_lo >= fit_hi:
        raise DataError(f"--low-cut {args.low_cut!r} leaves --range {fit_lo!r}:{fit_hi!r} an empty fit window [{window_lo!r}, {fit_hi!r})")
    fit_values = np.array([r.fwci for r in main if window_lo <= r.fwci < fit_hi and r.fwci > 0], dtype=float)
    n_outside = len(main) - fit_values.size
    ensemble = lognormal.ensemble_fit(fit_values, window_lo, fit_hi, *args.bins, args.fits, args.seed)
    central = lognormal.LognormalParams(mu=ensemble.mu_p50, sigma=ensemble.sigma_p50)
    stats = lognormal.derived_stats(central)
    mass = lognormal.percentile_of(fit_hi, central) - (lognormal.percentile_of(window_lo, central) if window_lo > 0 else 0)
    if not mass > 0:
        raise NumericalError(f"the fitted lognormal puts no mass in the window {window_lo!r}:{fit_hi!r}")

    # Display view: fixed-width bins, and the reported fit restricted to the
    # window as an expected count per bin, N * w * pdf(x) / mass.
    n_display = round(min(max((fit_hi - fit_lo) / _LINEAR_BIN_WIDTH, 4), _LINEAR_MAX_BINS))
    display_hist = histogram.build_histogram(fit_values, fit_lo, fit_hi, n_display)
    _write_series(args, "hist_linear.csv", ["center", "count"], display_hist.centers, display_hist.counts)
    xs = _grid(window_lo, fit_hi)
    expected = fit_values.size * (fit_hi - fit_lo) / n_display * lognormal.pdf(xs, central) / mass
    _write_series(args, "curve_linear.csv", ["x", "expected_count"], xs, expected)

    # Log view: whole eligible sample with zeros displaced, for display; the
    # cross-check normal fit runs on ln of the fitted sample only, over its window.
    log_all = np.log(np.where(all_values > 0, all_values, _ZERO_SHIFT))
    log_hist = histogram.build_histogram(log_all, _LOG_LO, _LOG_HI, _LOG_BINS)
    _write_series(args, "hist_log.csv", ["center", "count"], log_hist.centers, log_hist.counts)

    cons_lo = math.log(window_lo) if window_lo > 0 else _LOG_LO
    cons_hi = math.log(fit_hi)
    try:
        # ValueError: fewer than 4 non-empty bins, or an empty window (fit_hi <= e^-5 with window_lo = 0)
        cons_hist = histogram.build_histogram(np.log(fit_values), cons_lo, cons_hi, _LOG_BINS)
        cons = lognormal.fit_normal_log(cons_hist)
        if not cons.converged:
            print("warning: normal fit to log histogram did not converge", file=sys.stderr)
        cons_lines = [
            f"  range = {cons_lo!r}:{cons_hi!r} ({_LOG_BINS} bins of ln values)",
            f"  amplitude = {cons.amplitude!r}",
            f"  mu = {cons.params.mu!r}",
            f"  sigma = {cons.params.sigma!r}",
        ]
        ts = _grid(cons_lo, cons_hi)
        gs = lognormal.gaussian((cons.amplitude, cons.params.mu, cons.params.sigma), ts)
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
        f"  n_fits = {args.fits}",
        f"  n_failed = {ensemble.n_failed}",
        *(f"  {key} = {value!r}" for key, value in ensemble.diagnostics.items()),
        f"  seed = {args.seed}",
        f"  window = {window_lo!r}:{fit_hi!r}",
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
        "series files: hist_linear.csv curve_linear.csv hist_log.csv curve_log.csv",
    ]
    _write_report(args, "fit_report.txt", "fit report", report)

    print(f"fitted {fit_values.size} values; ensemble n_failed = {ensemble.n_failed}")
    print(f"mu_p50 = {ensemble.mu_p50!r}, sigma_p50 = {ensemble.sigma_p50!r}")
    print(f"fitted_mean = {stats.mean!r} vs naive_mean_all = {naive_mean_all!r}")
    return EXIT_OK


def cmd_benchmark(args: argparse.Namespace) -> int:
    """compare award means against simulated medians"""
    from . import simulate

    sigma2 = _distinct(args.sigma2, "sigma2")
    *_, eligible = _load_corpus(args)
    summaries = corpus.summarize_awards(eligible)
    # One Monte Carlo run serves every award; an empty portfolio simulates nothing.
    n_values = sorted({s.n_papers for s in summaries})
    baselines = [simulate.BaselineField(s) for s in sigma2]
    points = simulate.median_curve(n_values, baselines, args.reps, args.seed) if n_values else []
    simulated = {(p.sigma_sq, p.n): p.median_mean for p in points}
    benchmarks = [
        simulate.benchmark_award(s, {sig: simulated[sig, s.n_papers] for sig in sigma2})
        for s in summaries
    ]

    header = ["award_code", "n_papers", "observed_mean"]
    for s in sigma2:
        header += [f"threshold_{s!r}", f"verdict_{s!r}"]
    rows = []
    for b in benchmarks:
        row: list[object] = [b.award_code, b.n_papers, _fmt(b.observed_mean)]
        for s in sigma2:
            row += [_fmt(b.thresholds[s]), b.verdicts[s]]
        rows.append(row)
    _write_csv(_out_path(args, "benchmark.csv"), header, rows)

    if not benchmarks:
        _write_report(args, "benchmark_report.txt", "benchmark report", ["no awards in input"])
        print("warning: no awards in input", file=sys.stderr)
        return EXIT_OK

    # Counts per sigma2, ascending; a small-sample pass is above its median with a plain mean below 1.
    n_awards = len(benchmarks)
    n_mean_ge_1 = sum(b.observed_mean >= 1.0 for b in benchmarks)
    report, summary, above_counts = [f"awards = {n_awards}"], [], []
    for s in sorted(sigma2):
        above = [b.observed_mean for b in benchmarks if b.verdicts[s] == simulate.VERDICT_ABOVE]
        n_pass = sum(mean < 1.0 for mean in above)
        fraction = len(above) / n_awards
        report += [
            f"sigma2 = {s!r}:",
            f"  above_median = {len(above)}",
            f"  below_median = {n_awards - len(above)}",
            f"  fraction_above = {fraction!r}",
            f"  mean_ge_1 = {n_mean_ge_1}",
            f"  small_sample_pass = {n_pass} (above median with mean < 1)",
            f"  mean_ge_1_plus_small_sample_pass = {n_mean_ge_1 + n_pass}",
        ]
        summary.append(f"sigma2 {s!r}: {len(above)}/{n_awards} above median (fraction {fraction!r})")
        above_counts.append(len(above))
    report.append(f"above_median across sigma2: {min(above_counts)} to {max(above_counts)}")
    _write_report(args, "benchmark_report.txt", "benchmark report", report)

    print("\n".join(summary))
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    """tabulate the median of award means versus paper count"""
    from . import simulate

    n_list = _distinct(args.n_list, "paper count")
    baselines = [simulate.BaselineField(s) for s in _distinct(args.sigma2, "sigma2")]
    points = simulate.median_curve(n_list, baselines, args.reps, args.seed)

    _write_csv(
        _out_path(args, "median_curve.csv"),
        ["sigma_sq", "n", "median_mean", "reps", "seed"],
        [[_fmt(p.sigma_sq), p.n, _fmt(p.median_mean), args.reps, args.seed] for p in points],
    )
    _write_report(args, "curve_report.txt", "median curve report", [f"points = {len(points)}"])
    print(f"wrote median_curve.csv ({len(points)} points)")
    return EXIT_OK


def main(argv=None) -> int:
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
    except MemoryError as exc:  # a --fits or --reps too large to allocate; Python's own raises it with no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
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
