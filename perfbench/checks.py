"""Correctness checks on each command's output directory.

The checks judge statistics and counts, not bytes: a change that alters output
bytes on purpose (a new fit, common random numbers, extra diagnostics) still
passes as long as the numbers stay right. Each check returns a list of
problems; an empty list means the output is correct. ``tree_sha256`` gives the
byte-level fingerprint separately, as a diagnostic only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re

# fit: allowed distance of the ensemble medians from the generating (mu, sigma).
# Over 40 generator seeds the current fit, which ignores the low-impact cut,
# lands at mu - 0.007 +- 0.021 and sigma * (0.974 +- 0.021); a cut-aware fit
# centres on the truth with a similar spread. Both sit well inside these
# bands, while a solver that stalls or diverges does not.
MU_TOL = 0.12
SIGMA_REL_TOL = 0.12
# Share of ensemble fits that may fail before the ensemble counts as broken.
MAX_FAILED_SHARE = 0.5

# benchmark, curve: a threshold may sit this many combined Monte Carlo
# standard errors away from the reference median. At 50,000 reps or more
# (the benchmark workload runs 50,000, curve the default 100,000), 5 errors
# stay below 4% of every threshold, so a single threshold off by 5% is always
# caught.
THRESHOLD_SIGMAS = 5.0

# Exact-match tolerance for values recomputed from the same inputs.
REL_EXACT = 1e-9

# rows_parsed is what the ingest report means by it: rows kept after
# duplicates are dropped plus rows rejected. check_ingest also requires
# rows_parsed + duplicates_dropped to equal the input's data rows.
INGEST_COUNTS = (
    "rows_parsed",
    "rows_rejected",
    "duplicates_dropped",
    "records_eligible",
    "below_low_cut",
    "at_or_above_low_cut",
    "budget_rows_rejected",
)

_KV = re.compile(r"^\s+([A-Za-z0-9_.]+) = (.*)$")


def tree_sha256(root: str) -> str:
    """SHA-256 over every file's relative path and bytes under ``root``."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


def parse_report(path: str) -> dict[str, dict[str, str]]:
    """Report lines as {section: {key: value}}; unindented lines open sections."""
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            match = _KV.match(line)
            if match:
                sections[current][match.group(1)] = match.group(2)
            elif line and not line.startswith(" "):
                current = line.rstrip(":")
                sections.setdefault(current, {})
                if " = " in line:  # "awards = 148" or "sigma2 = 1.0:" style headers
                    key, _, value = line.partition(" = ")
                    sections[""][key] = value.rstrip(":")
    return sections


def _first_number(text: str) -> float:
    return float(text.split()[0])


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_EXACT, abs_tol=1e-12)


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _threshold_problem(ref: dict, sigma_sq: float, n: int, value: float, reps: int) -> str | None:
    entry = ref["table"].get(repr(float(sigma_sq)), {}).get(str(n))
    if entry is None:
        return f"no reference threshold for n={n}, sigma2={sigma_sq!r}"
    median, density = entry
    se = math.sqrt(1.0 / reps + 1.0 / ref["reps"]) / (2.0 * density)
    if not abs(value - median) <= THRESHOLD_SIGMAS * se:
        return (
            f"threshold n={n} sigma2={sigma_sq!r}: {value!r} is {abs(value - median) / se:.1f} "
            f"standard errors from reference {median!r}"
        )
    return None


def check_fit(out_dir: str, truth: dict) -> list[str]:
    problems: list[str] = []
    report = parse_report(os.path.join(out_dir, "fit_report.txt"))
    sample, ens, derived = report["sample"], report["ensemble"], report["derived (from median parameters)"]
    for key in ("records_eligible", "below_low_cut"):
        if int(sample[key]) != truth[key]:
            problems.append(f"fit {key} = {sample[key]}, expected {truth[key]}")

    mu = [float(ens[k]) for k in ("mu_p2_5", "mu_p50", "mu_p97_5")]
    sigma = [float(ens[k]) for k in ("sigma_p2_5", "sigma_p50", "sigma_p97_5")]
    if not abs(mu[1] - truth["mu"]) <= MU_TOL:
        problems.append(f"mu_p50 = {mu[1]!r} is more than {MU_TOL} from {truth['mu']!r}")
    if not abs(sigma[1] / truth["sigma"] - 1.0) <= SIGMA_REL_TOL:
        problems.append(f"sigma_p50 = {sigma[1]!r} is more than {SIGMA_REL_TOL:.0%} from {truth['sigma']!r}")
    for name, (lo, mid, hi) in (("mu", mu), ("sigma", sigma)):
        if not (lo <= mid <= hi and lo < hi):
            problems.append(f"{name} 95% interval {lo!r}:{hi!r} does not bracket {mid!r} with positive width")
    n_fits, n_failed = int(ens["n_fits"]), int(ens["n_failed"])
    if not n_failed <= MAX_FAILED_SHARE * n_fits:
        problems.append(f"{n_failed} of {n_fits} ensemble fits failed")
    if not _close(float(derived["fitted_mean"]), math.exp(mu[1] + 0.5 * sigma[1] ** 2)):
        problems.append("fitted_mean does not match exp(mu + sigma^2 / 2)")
    if not _close(float(derived["fitted_median"]), math.exp(mu[1])):
        problems.append("fitted_median does not match exp(mu)")

    _, hist_rows = _read_csv(os.path.join(out_dir, "hist_linear.csv"))
    if sum(int(r[1]) for r in hist_rows) != int(sample["fitted"]):
        problems.append("hist_linear.csv counts do not add up to the fitted sample")
    return problems


def check_benchmark(out_dir: str, truth: dict, ref: dict, sigma_sq: tuple[float, ...]) -> list[str]:
    problems: list[str] = []
    report = parse_report(os.path.join(out_dir, "benchmark_report.txt"))
    reps = int(report["config"]["reps"])
    header, rows = _read_csv(os.path.join(out_dir, "benchmark.csv"))
    expected_header = ["award_code", "n_papers", "observed_mean"]
    for s in sigma_sq:
        expected_header += [f"threshold_{s!r}", f"verdict_{s!r}"]
    if header != expected_header:
        return [f"benchmark.csv header {header} != {expected_header}"]

    awards = truth["awards"]
    if sorted(r[0] for r in rows) != sorted(awards):
        problems.append(f"benchmark.csv has {len(rows)} awards, expected {len(awards)}")
    above = {s: 0 for s in sigma_sq}
    small_pass = {s: 0 for s in sigma_sq}
    mean_ge_1 = 0
    for row in rows:
        code, n, observed = row[0], int(row[1]), float(row[2])
        want = awards.get(code)
        if want is None or n != want["n"] or not _close(observed, want["mean"]):
            problems.append(f"award {code}: n={n} mean={observed!r} disagrees with the input")
        mean_ge_1 += observed >= 1.0
        for k, s in enumerate(sigma_sq):
            threshold, verdict = float(row[3 + 2 * k]), row[4 + 2 * k]
            problem = _threshold_problem(ref, s, n, threshold, reps)
            if problem:
                problems.append(f"award {code}: {problem}")
            is_above = observed >= threshold
            if verdict != ("above_median" if is_above else "below_median"):
                problems.append(f"award {code}: verdict {verdict} contradicts {observed!r} vs {threshold!r}")
            above[s] += is_above
            small_pass[s] += is_above and observed < 1.0

    if int(report[""].get("awards", -1)) != len(rows):
        problems.append("report award count disagrees with benchmark.csv")
    for s in sigma_sq:
        section = report.get(f"sigma2 = {s!r}")
        if section is None:
            problems.append(f"report has no section for sigma2 = {s!r}")
            continue
        expected = {
            "above_median": above[s],
            "below_median": len(rows) - above[s],
            "mean_ge_1": mean_ge_1,
            "small_sample_pass": small_pass[s],
            "mean_ge_1_plus_small_sample_pass": mean_ge_1 + small_pass[s],
        }
        for key, value in expected.items():
            if int(_first_number(section[key])) != value:
                problems.append(f"sigma2 {s!r}: {key} = {section[key]}, expected {value}")
        if rows and not _close(float(section["fraction_above"]), above[s] / len(rows)):
            problems.append(f"sigma2 {s!r}: fraction_above disagrees with the verdicts")
    return problems


def check_curve(out_dir: str, ref: dict, n_list: tuple[int, ...], sigma_sq: tuple[float, ...]) -> list[str]:
    problems: list[str] = []
    header, rows = _read_csv(os.path.join(out_dir, "median_curve.csv"))
    if header != ["sigma_sq", "n", "median_mean", "reps", "seed"]:
        return [f"median_curve.csv header {header} is not the documented one"]
    got = sorted((float(r[0]), int(r[1])) for r in rows)
    want = sorted((s, n) for s in sigma_sq for n in n_list)
    if got != want:
        problems.append(f"median_curve.csv covers {got}, expected {want}")
    for row in rows:
        problem = _threshold_problem(ref, float(row[0]), int(row[1]), float(row[2]), int(row[3]))
        if problem:
            problems.append(problem)
    report = parse_report(os.path.join(out_dir, "curve_report.txt"))
    if int(report[""].get("points", -1)) != len(rows):
        problems.append("curve_report.txt point count disagrees with median_curve.csv")
    return problems


def check_ingest(out_dir: str, truth: dict) -> list[str]:
    problems: list[str] = []
    counts = parse_report(os.path.join(out_dir, "ingest_report.txt"))["counts"]
    for key in INGEST_COUNTS:
        if int(counts.get(key, -1)) != truth[key]:
            problems.append(f"ingest {key} = {counts.get(key)}, expected {truth[key]}")
    if int(counts.get("rows_parsed", -1)) + int(counts.get("duplicates_dropped", -1)) != truth["data_rows"]:
        problems.append(f"rows_parsed + duplicates_dropped is not the input's {truth['data_rows']} data rows")
    with open(os.path.join(out_dir, "ingest_report.txt"), encoding="utf-8") as fh:
        text = fh.read()
    totals = f"{truth['n_awards']} awards, {truth['records_eligible']:,} publications"
    if totals not in text:
        problems.append(f"ingest report lacks the totals line {totals!r}")
    match = re.search(r"cost_per_paper = (\S+)", text)
    if match is None or not _close(float(match.group(1)), truth["cost_per_paper"]):
        problems.append(f"cost_per_paper is not {truth['cost_per_paper']!r}")

    _, eligible = _read_csv(os.path.join(out_dir, "eligible_records.csv"))
    if len(eligible) != truth["records_eligible"]:
        problems.append(f"eligible_records.csv has {len(eligible)} rows, expected {truth['records_eligible']}")
    _, summaries = _read_csv(os.path.join(out_dir, "award_summaries.csv"))
    awards = truth["awards"]
    if len(summaries) != len(awards):
        problems.append(f"award_summaries.csv has {len(summaries)} awards, expected {len(awards)}")
    for code, n, mean, *_ in summaries:
        want = awards.get(code)
        if want is None or int(n) != want["n"] or not _close(float(mean), want["mean"]):
            problems.append(f"award {code}: n={n} mean={mean} disagrees with the input")
    with open(os.path.join(out_dir, "rejections.txt"), encoding="utf-8") as fh:
        n_rejections = sum(1 for line in fh if line.startswith("row "))
    if n_rejections != truth["rows_rejected"]:
        problems.append(f"rejections.txt lists {n_rejections} rows, expected {truth['rows_rejected']}")
    return problems


def load_reference(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
