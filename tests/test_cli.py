import contextlib
import csv
import gc
import io
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fwcibench
from fwcibench import cli
from fwcibench.corpus import CSV_COLUMNS, DataError, NumericalError
from fwcibench.simulate import BaselineField, median_curve

FIT_FILES = (
    "hist_linear.csv",
    "curve_linear.csv",
    "hist_log.csv",
    "curve_log.csv",
    "fit_report.txt",
)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture(scope="module")
def corpus_info(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pubs.csv"
    rng = np.random.default_rng(424)
    rows = []
    uid = 0
    n_low = 10  # the explicit zero-impact rows below
    for i in range(20):
        code = f"{11 + i % 5:02d}/IA/{2000 + i}"
        for v in np.exp(-0.0761 + 0.933 * rng.standard_normal(28)):
            uid += 1
            n_low += v < 0.1
            rows.append([code, 2015 + uid % 6, "article", repr(float(v)), uid % 9, f"study {uid}", f"W{uid}"])
    for j in range(10):
        uid += 1
        rows.append([f"{11 + j % 5:02d}/IA/{2000 + j}", 2017, "article", "0.0", 0, f"study {uid}", f"W{uid}"])
    rows.append(["11/IA/2000", 2018, "review", "1.5", 4, "survey", "Wrev1"])
    rows.append(["12/IA/2001", 2018, "article", "", 0, "unscored", "Wmiss1"])
    rows.append(["13/IA/2002", 2018, "article", "-1.0", 2, "bad value", "Wbad1"])
    rows.append(list(rows[0]))
    write_csv(path, list(CSV_COLUMNS), rows)
    return path, int(n_low)


@pytest.fixture(scope="module")
def corpus_path(corpus_info):
    return corpus_info[0]


@pytest.fixture(scope="module")
def budget_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("budgets") / "budgets.csv"
    rows = [[f"{11 + i % 5:02d}/IA/{2000 + i}", str(900_000 + 37_000 * i)] for i in range(20)]
    write_csv(path, ["award_code", "budget_eur"], rows)
    return path


def header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, list(CSV_COLUMNS), [])
    return path


# --- ingest ---


def test_ingest_writes_all_outputs(corpus_info, budget_path, tmp_path, capsys):
    corpus_path, n_low = corpus_info
    out = tmp_path / "out"
    code = cli.main(
        ["ingest", "--input", str(corpus_path), "--budgets", str(budget_path), "--out", str(out)]
    )
    assert code == 0
    for name in ("eligible_records.csv", "rejections.txt", "award_summaries.csv", "ingest_report.txt"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "20 awards, 570 publications" in stdout
    assert "cost_per_paper" in stdout

    with open(out / "award_summaries.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    for row in rows:
        budget = float(row["budget_eur"])
        assert float(row["cost_per_paper"]) == budget / int(row["n_papers"])

    report = (out / "ingest_report.txt").read_text(encoding="utf-8")
    assert "rows_rejected = 1" in report
    assert "duplicates_dropped = 1" in report
    assert "records_eligible = 570" in report
    assert f"below_low_cut = {n_low}" in report
    assert f"at_or_above_low_cut = {570 - n_low}" in report


def test_ingest_header_only_corpus(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["ingest", "--input", str(header_only_csv(tmp_path)), "--out", str(out)])
    assert code == 0
    assert "0 awards, 0 publications" in capsys.readouterr().out
    report = (out / "ingest_report.txt").read_text(encoding="utf-8")
    assert "records_eligible = 0" in report


def test_missing_input_file(tmp_path):
    assert cli.main(["ingest", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 1


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["foo", "bar"], [["1", "2"]])
    assert cli.main(["ingest", "--input", str(path), "--out", str(tmp_path)]) == 2


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("flag", ["--input", "--budgets"])
def test_non_utf8_file_is_a_data_error(corpus_path, budget_path, tmp_path, flag, capsys):
    paths = {"--input": corpus_path, "--budgets": budget_path}
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(paths[flag].read_bytes() + b"11/IA/2000,caf\xe9\n")
    paths[flag] = bad
    args = ["ingest", "--input", str(paths["--input"]), "--budgets", str(paths["--budgets"])]
    assert cli.main([*args, "--out", str(tmp_path / "out")]) == 2
    err = assert_one_line_error(capsys)
    assert err.startswith(f"error: {bad}: ")
    assert str(corpus_path if flag == "--budgets" else budget_path) not in err


def test_oversized_csv_field_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    write_csv(path, list(CSV_COLUMNS), [["11/IA/2000", 2019, "article", "1.0", 1, "x" * 200_000, "W1"]])
    assert cli.main(["ingest", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
    assert assert_one_line_error(capsys).startswith(f"error: {path}: line 2: field larger than field limit")


def test_ingest_rejects_a_deeply_nested_jsonl_line(tmp_path, capsys):
    deep = '{"award_code": ' + "[" * 100_000 + "]" * 100_000 + "}"
    good = '{"award_code": "12/IA/1570", "year": 2014, "pub_type": "article", "fwci": 1.5}'
    path = tmp_path / "deep.jsonl"
    path.write_text(deep + "\n" + good + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["ingest", "--input", str(path), "--out", str(out)]) == 0
    assert "1 awards, 1 publications" in capsys.readouterr().out
    rejections = (out / "rejections.txt").read_text(encoding="utf-8").splitlines()
    assert rejections == [f"row 1: not valid JSON: nested too deeply | {deep}"]


def test_budgets_summing_past_the_largest_float_are_a_data_error(corpus_path, tmp_path, capsys):
    budgets = tmp_path / "budgets.csv"
    write_csv(budgets, ["award_code", "budget_eur"], [["11/IA/2000", "1e308"], ["12/IA/2001", "1e308"]])
    args = ["ingest", "--input", str(corpus_path), "--budgets", str(budgets), "--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    assert assert_one_line_error(capsys).startswith(f"error: {budgets}: the budgets sum past the largest float")


def test_fit_whose_mean_overflows_is_a_numerical_error(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    values = np.linspace(4e305, 8e306, 20)
    rows = [[f"11/IA/{3000 + i % 5}", 2019, "article", repr(float(v)), 1, "t", f"W{i}"] for i, v in enumerate(values)]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(path), "--range", "0:1.7e308", "--fits", "20", "--out", str(out)]) == 3
    assert assert_one_line_error(capsys).startswith("error: the fitted lognormal's mean e^")
    assert not (out / "fit_report.txt").exists()


@pytest.mark.parametrize(
    "command,output",
    [(["ingest"], "award_summaries.csv"), (["benchmark", "--reps", "100"], "benchmark.csv")],
    ids=["ingest", "benchmark"],
)
def test_award_fwci_sum_past_the_largest_float_is_a_data_error(tmp_path, command, output, capsys):
    path = tmp_path / "huge.csv"
    rows = [["11/IA/3009", 2019, "article", "1.7e308", 1, "t", f"W{i}"] for i in range(2)]
    write_csv(path, list(CSV_COLUMNS), rows + [["11/IA/3010", 2019, "article", "1.0", 1, "t", "W3"]])
    out = tmp_path / "out"
    assert cli.main([*command, "--input", str(path), "--out", str(out)]) == 2
    expected = "error: award 11/IA/3009: its FWCI values sum past the largest float; no mean\n"
    assert assert_one_line_error(capsys) == expected
    assert not (out / output).exists()


def test_fit_on_fwci_values_summing_past_the_largest_float_is_a_data_error(tmp_path, capsys):
    # The two huge values lie outside --range, so only naive_mean_all would see them.
    path = tmp_path / "huge.csv"
    rows = [[f"11/IA/{3000 + i % 5}", 2019, "article", repr(0.2 + 0.3 * i), 1, "t", f"W{i}"] for i in range(20)]
    rows += [["11/IA/3009", 2019, "article", "1.7e308", 1, "t", f"H{i}"] for i in range(2)]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(path), "--fits", "20", "--out", str(out)]) == 2
    expected = "error: the eligible FWCI values sum past the largest float; no naive_mean_all\n"
    assert assert_one_line_error(capsys) == expected
    assert not (out / "fit_report.txt").exists()


@pytest.mark.parametrize(
    "command,flag",
    [(["ingest"], "--input"), (["curve", "--n-list", "1,5", "--reps", "100"], "--out")],
    ids=["ingest-input", "curve-out"],
)
def test_non_utf8_path_is_echoed_with_byte_escapes(corpus_path, tmp_path, command, flag):
    paths = {"--input": str(corpus_path), "--out": str(tmp_path / "out")}
    paths[flag] = str(tmp_path / os.fsdecode(b"p\xff.csv"))
    if flag == "--input":
        shutil.copyfile(corpus_path, paths[flag])
    assert cli.main([*command, "--input", paths["--input"], "--out", paths["--out"]]) == 0
    report = os.path.join(paths["--out"], f"{command[0]}_report.txt")
    with open(report, encoding="utf-8") as fh:
        assert f"  {flag[2:]} = {tmp_path}{os.sep}p\\xff.csv\n" in fh.read()


# Pieces of corrupted record and budget files: rows that parse, short rows,
# non-finite and out-of-range numbers, fields past the csv module's limit,
# bytes that are not UTF-8, broken quoting, and (JSONL) nesting, integers and
# escapes that json cannot turn into a record.
_CSV_PIECES = [
    b"award_code,year,pub_type,fwci,citations,title,source_id",
    b"12/IA/1570,2014,article,1.2,3,t,W1",
    b"12/IA/1571,2015,Article,0.4,1,u,W2",
    b"12/IA/1570,2014",
    b"12/IA/1570,2014,article,nan,3,t,W3",
    b"12/IA/1570,2014,article,inf,3,t,W4",
    b"12/IA/1570,2014,article,-inf,3,t,W5",
    b"12/IA/1570,2014,article,1e999,3,t,W6",
    b"12/IA/1570,2014,article,1e308,3,t,W7",
    b"12/IA/1570,2014,article,1.0," + b"9" * 5000 + b",t,W8",
    b"12/IA/1570," + b"9" * 5000 + b",article,1.0,3,t,W9",
    b"12/IA/1570,2014,article,1.0,3," + b"x" * 200_000 + b",W10",
    b"12/IA/1570,2014,article,1.0,3,caf\xe9,W11",
    b"\xff\xfe\x00",
    b'12/IA/1570,2014,article,1.0,3,"unterminated',
    b'12/IA/1570,2014,article,1.0,3,a"b"c,W12',
    b"\x00,\x00,\x00",
    b",,,,,,",
    b"",
]
_JSONL_PIECES = [
    b'{"award_code": "12/IA/1570", "year": 2014, "pub_type": "article", "fwci": 1.2, "source_id": "W1"}',
    b'{"award_code": "12/IA/1571", "year": "2015", "pub_type": "note", "fwci": "0.4"}',
    b'{"award_code": "12/IA/1570", "year": 2014, "fwci": NaN}',
    b'{"award_code": "12/IA/1570", "year": 2014, "fwci": Infinity}',
    b'{"award_code": "12/IA/1570", "year": 2014, "fwci": -Infinity}',
    b'{"award_code": "12/IA/1570", "year": 2014, "fwci": 1e999}',
    b'{"award_code": "12/IA/1570", "year": 2014, "pub_type": "article", "fwci": 1e308}',
    b'{"award_code": "12/IA/1570", "year": ' + b"9" * 5000 + b"}",
    b'{"award_code": "12/IA/1570", "year": 2014, "pub_type": "article", "fwci": 1.0, "title": "\\ud800"}',
    b'{"award_code": "12/IA/1570", "year": 2014, "title": "' + b"x" * 200_000 + b'"}',
    b'{"award_code": [1, {"a": null}], "year": true, "fwci": [], "citations": {}}',
    b'{"award_code": "12/IA/1570", "year": 2014, "fwci": "caf\xe9"}',
    b"\xff\xfe\x00",
    b"[1, 2]",
    b"not json",
    b"",
]
_BUDGET_PIECES = [
    b"award_code,budget_eur",
    b"12/IA/1570,2500000",
    b"12/IA/1570,1e308",
    b"12/IA/1571,1e308",
    b"12/IA/1571,nan",
    b"12/IA/1571,-5",
    b"12/IA/1571",
    b"12/IA/1571,\xe9",
    b"12/IA/1571," + b"9" * 200_000,
]


def _nested(depth):
    return b'{"award_code": ' + b"[" * depth + b"]" * depth + b', "year": 2014}'


def _corrupted(pieces, extra):
    """Lines drawn from ``pieces`` and ``extra``, or raw bytes, joined by any line ending."""
    line = st.one_of(st.sampled_from(pieces), extra, st.binary(max_size=12))
    return st.tuples(st.lists(line, max_size=8), st.sampled_from([b"\n", b"\r\n", b"\r"])).map(
        lambda t: t[1].join(t[0]) + t[1]
    )


_CSV_FILES = st.tuples(st.sampled_from([b"", _CSV_PIECES[0] + b"\n"]), _corrupted(_CSV_PIECES, st.nothing())).map(
    b"".join
)
_JSONL_FILES = _corrupted(_JSONL_PIECES, st.sampled_from([10, 990, 1000, 1010, 100_000]).map(_nested))
_BUDGET_FILES = st.tuples(st.just(_BUDGET_PIECES[0] + b"\n"), _corrupted(_BUDGET_PIECES, st.nothing())).map(b"".join)

# A valid sample that fit and benchmark read before the corrupted lines: 24
# distinct values inside the fit range, so fit reaches its ensemble and
# benchmark its Monte Carlo.
_BASE_ROWS = [(f"12/IA/{1570 + k % 3}", repr(0.15 * 1.15**k), f"B{k}") for k in range(24)]
_BASE = {
    "pubs.csv": _CSV_PIECES[0] + b"\n" + "".join(f"{c},2014,article,{v},1,t,{s}\n" for c, v, s in _BASE_ROWS).encode(),
    "pubs.jsonl": "".join(
        f'{{"award_code": "{c}", "year": 2014, "pub_type": "article", "fwci": {v}, "source_id": "{s}"}}\n'
        for c, v, s in _BASE_ROWS
    ).encode(),
}


@pytest.mark.parametrize("command", ["ingest", "fit", "benchmark"])
@settings(max_examples=80, deadline=None)
@given(
    records=st.one_of(_CSV_FILES.map(lambda b: ("pubs.csv", b)), _JSONL_FILES.map(lambda b: ("pubs.jsonl", b))),
    budgets=st.none() | _BUDGET_FILES,
)
def test_corrupted_input_exits_0_or_2(command, records, budgets):
    name, data = records
    if command != "ingest":
        data = _BASE[name] + data
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"--input": os.path.join(tmp, name), "--budgets": os.path.join(tmp, "budgets.csv")}
        args = [command, "--out", os.path.join(tmp, "out"), "--fits", "10", "--bins", "20:60", "--reps", "100"]
        for flag, content in (("--input", data), ("--budgets", budgets)):
            if content is not None:
                with open(paths[flag], "wb") as fh:
                    fh.write(content)
                args += [flag, paths[flag]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
    err = err.getvalue()
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""


# --- fit ---


def fit_args(corpus_path, out):
    return [
        "fit",
        "--input",
        str(corpus_path),
        "--out",
        str(out),
        "--fits",
        "60",
        "--bins",
        "20:60",
        "--seed",
        "3",
    ]


def test_fit_writes_report_and_series(corpus_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(fit_args(corpus_path, out)) == 0
    for name in FIT_FILES:
        assert (out / name).exists()

    report = (out / "fit_report.txt").read_text(encoding="utf-8")
    assert "  fits = 60" in report
    assert "  seed = 3" in report
    assert "naive_mean_all = " in report
    assert "naive_mean_fitted_sample = " in report
    assert "fitted_mean = " in report
    assert "interval95 = " in report
    assert "mu_p50" in capsys.readouterr().out

    with open(out / "hist_linear.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 80  # (8 - 0) / 0.1 fixed-width display bins
    assert sum(int(r["count"]) for r in rows) > 500


def test_fit_display_view_bin_count_is_capped(tmp_path):
    # 0.1-wide display bins over 0:1e300 would number 1e301
    path = tmp_path / "wide.csv"
    rows = [[f"11/IA/{3000 + i % 5}", 2019, "article", repr(2.4e298 * (i + 1)), 1, "t", f"W{i}"] for i in range(40)]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(path), "--range", "0:1e300", "--fits", "20", "--out", str(out)]) == 0
    with open(out / "hist_linear.csv", encoding="utf-8") as fh:
        assert len(fh.readlines()) == cli._LINEAR_MAX_BINS + 1


def test_fit_rerun_is_byte_identical(corpus_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(fit_args(corpus_path, out)) == 0
    first = {name: (out / name).read_bytes() for name in FIT_FILES}
    assert cli.main(fit_args(corpus_path, out)) == 0
    for name in FIT_FILES:
        assert (out / name).read_bytes() == first[name]


def test_fit_needs_enough_values(tmp_path):
    path = tmp_path / "tiny.csv"
    rows = [[f"11/IA/{2000 + i}", 2019, "article", "0.9", 1, f"t{i}", f"W{i}"] for i in range(5)]
    write_csv(path, list(CSV_COLUMNS), rows)
    assert cli.main(["fit", "--input", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("values", [[1.0], [0.5, 1.0, 2.0]], ids=["one-value", "three-values"])
def test_fit_on_fewer_than_four_distinct_values_is_a_data_error(values, tmp_path, capsys):
    # no bin count can give a histogram fit the 4 non-empty bins it needs
    path = tmp_path / "flat.csv"
    rows = [
        [f"11/IA/{2000 + i}", 2019, "article", repr(values[i % len(values)]), 1, f"t{i}", f"W{i}"]
        for i in range(30)
    ]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(path), "--out", str(out), "--fits", "200"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "distinct values" in err and err.count("\n") == 1
    assert not (out / "fit_report.txt").exists()


def test_fit_with_an_empty_consistency_window_reports_it_unavailable(tmp_path, capsys):
    # with no low cut the ln-value window starts at -5, past ln(0.005)
    path = tmp_path / "tiny.csv"
    rows = [["11/IA/2000", 2019, "article", repr(0.0005 + 0.0001 * k), 1, "t", f"W{k}"] for k in range(40)]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    args = ["fit", "--input", str(path), "--out", str(out), "--low-cut", "0", "--range", "0:0.005", "--fits", "20"]
    assert cli.main(args) == 0
    assert capsys.readouterr().err == ""
    report = (out / "fit_report.txt").read_text(encoding="utf-8")
    assert "consistency (normal fit to ln values):\n  unavailable: need lo < hi" in report


def test_fit_on_empty_corpus(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(header_only_csv(tmp_path)), "--out", str(out)]) == 2


# --- benchmark ---


def read_benchmark_rows(out):
    with open(out / "benchmark.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_benchmark_verdicts_match_thresholds(corpus_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        ["benchmark", "--input", str(corpus_path), "--out", str(out), "--reps", "2000", "--seed", "7"]
    )
    assert code == 0
    rows = read_benchmark_rows(out)
    assert len(rows) == 20
    for row in rows:
        mean = float(row["observed_mean"])
        for s in ("1.0", "1.3", "1.8"):
            verdict = row[f"verdict_{s}"]
            assert verdict in ("above_median", "below_median")
            expected = "above_median" if mean >= float(row[f"threshold_{s}"]) else "below_median"
            assert verdict == expected
    report = (out / "benchmark_report.txt").read_text(encoding="utf-8")
    assert "fraction_above" in report
    assert "mean_ge_1_plus_small_sample_pass" in report
    assert "above_median across sigma2:" in report
    assert "above median" in capsys.readouterr().out


def test_benchmark_empty_corpus_warns(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["benchmark", "--input", str(header_only_csv(tmp_path)), "--out", str(out)])
    assert code == 0
    assert "no awards" in capsys.readouterr().err
    with open(out / "benchmark.csv", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1  # header only


def test_benchmark_single_low_mean_award(tmp_path):
    path = tmp_path / "one.csv"
    write_csv(path, list(CSV_COLUMNS), [["11/IA/2000", 2019, "article", "0.55", 2, "t", "W1"]])
    out = tmp_path / "out"
    code = cli.main(
        ["benchmark", "--input", str(path), "--out", str(out), "--reps", "100000", "--seed", "1"]
    )
    assert code == 0
    (row,) = read_benchmark_rows(out)
    # n = 1 thresholds sit near 0.607 / 0.522 / 0.407, so 0.55 splits them
    assert row["verdict_1.0"] == "below_median"
    assert row["verdict_1.3"] == "above_median"
    assert row["verdict_1.8"] == "above_median"


def test_benchmark_high_portfolio_all_above(tmp_path):
    path = tmp_path / "high.csv"
    rows = [
        [f"11/IA/{2000 + i}", 2019, "article", "1.4", 5, f"t{i}", f"W{i}"]
        for i in range(4)
    ]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    assert cli.main(["benchmark", "--input", str(path), "--out", str(out), "--reps", "2000"]) == 0
    for row in read_benchmark_rows(out):
        for s in ("1.0", "1.3", "1.8"):
            assert row[f"verdict_{s}"] == "above_median"


# --- curve ---


def test_curve_matches_library_values(corpus_path, tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        [
            "curve",
            "--input",
            str(corpus_path),
            "--out",
            str(out),
            "--n-list",
            "1,5,46",
            "--reps",
            "2000",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    with open(out / "median_curve.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    for row in rows:
        point = median_curve([int(row["n"])], [BaselineField(float(row["sigma_sq"]))], 2000, 3)[0]
        assert float(row["median_mean"]) == point.median_mean
        assert int(row["reps"]) == 2000 and int(row["seed"]) == 3
    assert (out / "curve_report.txt").read_text(encoding="utf-8").count("points = 9") == 1


def test_curve_dedupes_n_list(corpus_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        ["curve", "--input", str(corpus_path), "--out", str(out), "--n-list", "2,2", "--reps", "500"]
    )
    assert code == 0
    assert "duplicate" in capsys.readouterr().err
    with open(out / "median_curve.csv", encoding="utf-8", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 3


@pytest.mark.parametrize(
    "command,output,columns,echoed",
    [
        (
            ["benchmark", "--sigma2", "1.0,1,1.3"],
            "benchmark.csv",
            ["award_code", "n_papers", "observed_mean", "threshold_1.0", "verdict_1.0", "threshold_1.3", "verdict_1.3"],
            "1.0,1.3",
        ),
        (["curve", "--sigma2", "1.0,1", "--n-list", "1,5"], "median_curve.csv", None, "1.0"),
    ],
    ids=["benchmark", "curve"],
)
def test_duplicate_sigma2_is_simulated_once(corpus_path, tmp_path, command, output, columns, echoed, capsys):
    out = tmp_path / "out"
    code = cli.main([*command, "--input", str(corpus_path), "--out", str(out), "--reps", "500"])
    assert code == 0
    assert capsys.readouterr().err.count("warning: duplicate sigma2 1.0 ignored") == 1
    with open(out / output, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if columns:
        assert reader.fieldnames == columns
    else:
        assert [(r["sigma_sq"], r["n"]) for r in rows] == [("1.0", "1"), ("1.0", "5")]
    report = next(out.glob("*_report.txt")).read_text(encoding="utf-8")
    assert f"  sigma2 = {echoed}\n" in report


@pytest.mark.parametrize("command", [["ingest"], ["fit", "--fits", "20"]], ids=["ingest", "fit"])
def test_unused_sigma2_is_echoed_once_without_a_warning(corpus_path, tmp_path, command, capsys):
    out = tmp_path / "out"
    code = cli.main([*command, "--input", str(corpus_path), "--out", str(out), "--sigma2", "1,1.3,1.0"])
    assert code == 0
    assert "warning" not in capsys.readouterr().err
    report = next(out.glob("*_report.txt")).read_text(encoding="utf-8")
    assert "  sigma2 = 1.0,1.3\n" in report


@pytest.mark.parametrize(
    "command,output",
    [
        (["benchmark", "--sigma2", "1e6"], "benchmark.csv"),
        (["curve", "--sigma2", "2000", "--n-list", "1,400"], "median_curve.csv"),
    ],
    ids=["benchmark", "curve"],
)
def test_underflowing_sigma2_writes_no_threshold(corpus_path, tmp_path, command, output, capsys):
    out = tmp_path / "out"
    code = cli.main([*command, "--input", str(corpus_path), "--out", str(out), "--reps", "100"])
    assert code == 3
    assert "underflows" in capsys.readouterr().err
    assert not (out / output).exists()


# --- usage errors ---


def test_no_subcommand_is_usage_error():
    assert cli.main([]) == 1


def test_help_exits_clean(capsys):
    assert cli.main(["-h"]) == 0
    assert "fwcibench" in capsys.readouterr().out


def test_missing_required_input():
    assert cli.main(["fit", "--out", "x"]) == 1


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--range", "8:0"),
        ("--range", "junk"),
        ("--range", "-1:8"),
        ("--bins", "0:10"),
        ("--bins", "1:3"),
        ("--fits", "0"),
        ("--sigma2", "0"),
        ("--seed", "-1"),
    ],
)
def test_bad_flag_values(flag, value, capsys):
    # x.csv does not exist either, so argparse must be the one that says no
    assert cli.main(["fit", "--input", "x.csv", f"{flag}={value}"]) == 1
    assert f"argument {flag}" in capsys.readouterr().err


def test_bad_n_list(corpus_path):
    assert cli.main(["curve", "--input", str(corpus_path), "--n-list", "0,5"]) == 1


# --- collector and start-up ---


@pytest.fixture
def restore_gc():
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize(
    "outcome,code",
    [(None, 0), (DataError("bad"), 2), (NumericalError("underflow"), 3), (RuntimeError("bug"), None)],
    ids=["exit-0", "exit-2", "exit-3", "escapes"],
)
def test_main_runs_a_command_with_the_collector_off_and_restores_it(monkeypatch, restore_gc, enabled, outcome, code):
    during = []

    def command(args):
        during.append(gc.isenabled())
        if outcome is not None:
            raise outcome
        return 0

    monkeypatch.setattr(cli, "cmd_ingest", command)
    (gc.enable if enabled else gc.disable)()
    argv = ["ingest", "--input", "x.csv"]
    if code is None:
        with pytest.raises(RuntimeError, match="bug"):
            cli.main(argv)
    else:
        assert cli.main(argv) == code
    assert during == [False]
    assert gc.isenabled() is enabled


def run_fresh(code: str, *argv: str, cwd=None) -> list[str]:
    """stdout lines of ``code`` run by a new interpreter, which has imported nothing of the package yet."""
    src = os.path.dirname(os.path.dirname(fwcibench.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, cwd=cwd, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize(
    "argv,code",
    [
        (["ingest", "--input", "small.csv", "--out", "out"], 0),
        (["fit", "--input", "small.csv", "--fits", "0"], 1),
        (["--help"], 0),
    ],
    ids=["ingest", "usage-error", "help"],
)
def test_ingest_help_and_usage_errors_never_import_numpy(corpus_path, tmp_path, argv, code):
    shutil.copy(corpus_path, tmp_path / "small.csv")
    main_then_modules = "import sys; from fwcibench import cli; print(cli.main(sys.argv[1:]), 'numpy' in sys.modules)"
    assert run_fresh(main_then_modules, *argv, cwd=tmp_path)[-1] == f"{code} False"


def test_package_loads_its_submodules_on_first_use():
    lines = run_fresh(
        "import sys, fwcibench\n"
        "print('numpy' in sys.modules)\n"
        "print(callable(fwcibench.lognormal.ensemble_fit))\n"
        "print(fwcibench.lognormal.NumericalError is fwcibench.corpus.NumericalError)\n"
    )
    assert lines == ["False", "True", "True"]
