"""The benchmark's own tests: seeded inputs, correctness checks, and tracing.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

Each check must accept the program's real output and reject a copy with one
planted error. The commands run at reduced ensemble size or sigma2 list to
keep the suite short; the checks take the sigma2 list as an argument and read
the rest from the reports, so the same code judges the full-size workloads.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402

SEED = 7
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _cli(tmp, name: str, *args: str, script: tuple[str, ...] = ("-m", "fwcibench.cli")) -> str:
    out = str(tmp / name)
    argv = [sys.executable, *script, *args, "--out", out]
    _, _, _, code = run.spawn(argv, str(tmp / f"{name}.stdout"), str(tmp / f"{name}.stderr"), ENV, 120.0)
    assert code == 0, (tmp / f"{name}.stderr").read_text()
    return out


@pytest.fixture(scope="module")
def portfolio(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    truth = generate.generate(SEED, 1, str(tmp / "input"))
    return tmp, str(tmp / "input" / "pubs.csv"), truth


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference(run.REFERENCE)


def _corrupt(src: str, dst, name: str, old: str, new: str) -> str:
    shutil.copytree(src, dst)
    path = os.path.join(dst, name)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) >= 1, old
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, 1))
    return str(dst)


def _report_line(out: str, name: str, key: str) -> str:
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return next(line for line in fh.read().splitlines() if line.strip().startswith(f"{key} = "))


def test_generator_is_deterministic(tmp_path):
    for name in ("a", "b", "c"):
        generate.generate(11 if name != "c" else 12, 1, str(tmp_path / name))
    for f in ("pubs.csv", "budgets.csv", "truth.json"):
        assert filecmp.cmp(tmp_path / "a" / f, tmp_path / "b" / f, shallow=False)
    assert not filecmp.cmp(tmp_path / "a" / "pubs.csv", tmp_path / "c" / "pubs.csv", shallow=False)


def test_generator_plants_what_truth_reports(portfolio):
    _, pubs, truth = portfolio
    with open(pubs, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == truth["data_rows"] == truth["rows_parsed"] + truth["duplicates_dropped"]
    assert sum(1 for r in rows if "/IB/" in r["award_code"]) == truth["rows_rejected"]
    assert len(rows) - len({json.dumps(r, sort_keys=True) for r in rows}) == truth["duplicates_dropped"]
    assert sum(a["n"] for a in truth["awards"].values()) == truth["records_eligible"]
    assert any(r["award_code"].startswith("SFI/") for r in rows)
    assert any("/1A/" in r["award_code"] for r in rows)
    assert any(r["fwci"] == "" for r in rows) and any(r["fwci"] == "0.0" for r in rows)
    assert max(a["n"] for a in truth["awards"].values()) <= generate.MAX_ELIGIBLE


@pytest.mark.parametrize("reps", [50_000, 100_000])
def test_every_reference_entry_catches_a_five_percent_shift(reference, reps):
    for sigma_sq, entries in reference["table"].items():
        for n, (median, _) in entries.items():
            assert checks._threshold_problem(reference, float(sigma_sq), int(n), median, reps) is None
            shifted = median * 1.05
            assert checks._threshold_problem(reference, float(sigma_sq), int(n), shifted, reps), (sigma_sq, n)


@pytest.fixture(scope="module")
def fit_out(portfolio):
    tmp, pubs, _ = portfolio
    return _cli(tmp, "fit", "fit", "--input", pubs, "--fits", "200")


def test_fit_check_accepts_real_output(fit_out, portfolio):
    assert checks.check_fit(fit_out, portfolio[2]) == []


@pytest.mark.parametrize(
    "key, value",
    [("mu_p50", "0.2"), ("sigma_p50", "1.2"), ("records_eligible", "+1")],
)
def test_fit_check_rejects_corruption(fit_out, portfolio, tmp_path, key, value):
    line = _report_line(fit_out, "fit_report.txt", key)
    old = line.split(" = ")[1]
    if value == "+1":
        value = str(int(old) + 1)
    bad = _corrupt(fit_out, tmp_path / "bad", "fit_report.txt", line, line.replace(old, value))
    assert checks.check_fit(bad, portfolio[2])


def test_fit_check_rejects_ensemble_of_identical_fits(fit_out, portfolio, tmp_path):
    # A solver that never moves from its start returns one (mu, sigma) for
    # every bin count, so the ensemble interval has zero width.
    mid = _report_line(fit_out, "fit_report.txt", "mu_p50").split(" = ")[1]
    lo = _report_line(fit_out, "fit_report.txt", "mu_p2_5")
    hi = _report_line(fit_out, "fit_report.txt", "mu_p97_5")
    bad = _corrupt(fit_out, tmp_path / "bad", "fit_report.txt", lo, lo.split(" = ")[0] + " = " + mid)
    _corrupt(bad, tmp_path / "worse", "fit_report.txt", hi, hi.split(" = ")[0] + " = " + mid)
    assert checks.check_fit(str(tmp_path / "worse"), portfolio[2])


@pytest.fixture(scope="module")
def benchmark_out(portfolio):
    tmp, pubs, _ = portfolio
    return _cli(tmp, "benchmark", "benchmark", "--input", pubs, "--sigma2", "1.8")


def test_benchmark_check_accepts_real_output(benchmark_out, portfolio, reference):
    assert checks.check_benchmark(benchmark_out, portfolio[2], reference, (1.8,)) == []


def test_benchmark_check_rejects_threshold_shifted_five_percent(benchmark_out, portfolio, reference, tmp_path):
    with open(os.path.join(benchmark_out, "benchmark.csv"), encoding="utf-8") as fh:
        row = fh.read().splitlines()[1]
    code, n, observed, threshold, _ = row.split(",")
    shifted = float(threshold) * 1.05
    # Keep the verdict consistent so that only the threshold itself is wrong.
    verdict = "above_median" if float(observed) >= shifted else "below_median"
    bad = _corrupt(
        benchmark_out, tmp_path / "bad", "benchmark.csv", row, ",".join([code, n, observed, repr(shifted), verdict])
    )
    problems = checks.check_benchmark(bad, portfolio[2], reference, (1.8,))
    assert any("standard errors" in p for p in problems), problems


def test_benchmark_check_rejects_flipped_verdict_and_count(benchmark_out, portfolio, reference, tmp_path):
    with open(os.path.join(benchmark_out, "benchmark.csv"), encoding="utf-8") as fh:
        row = fh.read().splitlines()[1]
    flipped = row.replace("above_median", "below_median") if "above" in row else row.replace("below", "above")
    bad = _corrupt(benchmark_out, tmp_path / "verdict", "benchmark.csv", row, flipped)
    assert checks.check_benchmark(bad, portfolio[2], reference, (1.8,))

    line = _report_line(benchmark_out, "benchmark_report.txt", "above_median")
    count = int(line.split(" = ")[1])
    bad = _corrupt(benchmark_out, tmp_path / "count", "benchmark_report.txt", line, line.replace(str(count), str(count + 1)))
    assert checks.check_benchmark(bad, portfolio[2], reference, (1.8,))


@pytest.fixture(scope="module")
def curve_out(portfolio):
    tmp, pubs, _ = portfolio
    return _cli(tmp, "curve", "curve", "--input", pubs, "--n-list", "1,46,400", "--sigma2", "1.8")


def test_curve_check_accepts_real_output(curve_out, reference):
    assert checks.check_curve(curve_out, reference, (1, 46, 400), (1.8,)) == []


def test_curve_check_rejects_point_shifted_five_percent(curve_out, reference, tmp_path):
    with open(os.path.join(curve_out, "median_curve.csv"), encoding="utf-8") as fh:
        row = fh.read().splitlines()[-1]
    cells = row.split(",")
    cells[2] = repr(float(cells[2]) * 1.05)
    bad = _corrupt(curve_out, tmp_path / "bad", "median_curve.csv", row, ",".join(cells))
    assert checks.check_curve(bad, reference, (1, 46, 400), (1.8,))


@pytest.fixture(scope="module")
def ingest_out(portfolio):
    tmp, pubs, _ = portfolio
    return _cli(tmp, "ingest", "ingest", "--input", pubs, "--budgets", pubs.replace("pubs.csv", "budgets.csv"))


def test_ingest_check_accepts_real_output(ingest_out, portfolio):
    assert checks.check_ingest(ingest_out, portfolio[2]) == []


@pytest.mark.parametrize("key", ["rows_parsed", "duplicates_dropped", "records_eligible", "rows_rejected"])
def test_ingest_check_rejects_count_off_by_one(ingest_out, portfolio, tmp_path, key):
    line = _report_line(ingest_out, "ingest_report.txt", key)
    value = int(line.split(" = ")[1])
    bad = _corrupt(ingest_out, tmp_path / "bad", "ingest_report.txt", line, line.replace(str(value), str(value + 1)))
    assert any(p.startswith(f"ingest {key}") for p in checks.check_ingest(bad, portfolio[2]))


def test_traced_run_leaves_output_bytes_unchanged(portfolio, fit_out, tmp_path):
    tmp, pubs, _ = portfolio
    spans_path = str(tmp_path / "spans.json")
    script = (os.path.join(BENCH, "traced.py"), spans_path, "test", "--")
    traced_out = _cli(tmp_path, "fit", "fit", "--input", pubs, "--fits", "200", script=script)
    # The config echo names the output directory; every other byte must match.
    for name in sorted(os.listdir(fit_out)):
        with open(os.path.join(fit_out, name), encoding="utf-8") as a, open(
            os.path.join(traced_out, name), encoding="utf-8"
        ) as b:
            assert a.read().replace(fit_out, "OUT") == b.read().replace(traced_out, "OUT"), name

    with open(spans_path, encoding="utf-8") as fh:
        m = traced.layer_metrics(json.load(fh)["spans"])
    assert m["lognormal.fits_attempted"] == 201  # 200 ensemble fits plus the display fit
    assert m["histogram.calls"] == 203  # ensemble, display, log view and consistency histograms
    assert m["leastsq.calls"] == 202  # the fits above plus the consistency fit
    assert m["corpus.rows"] > 0 and m["simulate.calls"] == 0
    assert 0 < m["lognormal.self_s"] < m["lognormal.ensemble.s"] < m["cli.root_s"]
    assert m["cli.self_s"] > 0


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "fit-paper", "--seed", "1", "--seconds", "1"]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0 and result.stdout == ""


def test_layer_metrics_self_time_and_failure_reasons():
    spans = [
        ["cli", 0.0, 10.0, None, {}],
        ["lognormal.ensemble_fit", 1.0, 9.0, 0, {}],
        ["lognormal.fit_histogram", 1.0, 4.0, 1, {"converged": True}],
        ["histogram.build_histogram", 1.0, 2.0, 2, {"key": [20, 0.0, 8.0, 5]}],
        ["leastsq.damped_least_squares", 2.0, 3.0, 2, {"n_iter": 4, "converged": True}],
        ["lognormal.fit_histogram", 4.0, 5.0, 1, {"error": "ValueError: histogram needs at least 4 non-empty bins"}],
        ["histogram.build_histogram", 4.0, 4.5, 5, {"key": [20, 0.0, 8.0, 5]}],
        ["lognormal.fit_histogram", 5.0, 8.0, 1, {"converged": False}],
        ["leastsq.damped_least_squares", 5.0, 7.0, 7, {"n_iter": 200, "converged": False}],
    ]
    m = traced.layer_metrics(spans)
    assert m["lognormal.ensemble.s"] == 8.0
    assert m["lognormal.self_s"] == 8.0 - (1.0 + 1.0 + 0.5 + 2.0)
    assert m["cli.self_s"] == 2.0
    assert m["histogram.repeat_share"] == 0.5
    assert m["leastsq.iters_max"] == 200 and m["leastsq.not_converged"] == 1
    assert math.isclose(m["leastsq.us_per_iter"], 1e6 * 3.0 / 204)
    assert m["lognormal.fits_ok_ratio"] == pytest.approx(1 / 3)
    assert m["lognormal.fits_failed.too_few_bins"] == 1
    assert m["lognormal.fits_failed.not_converged"] == 1
    assert m["lognormal.fits_failed.domain"] == 0
