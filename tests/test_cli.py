import argparse
import contextlib
import csv
import dataclasses
import gc
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fwcibench
from fwcibench import cli, lognormal
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


def read_outputs(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_a_byte_order_mark_is_read_past_in_records_and_budgets(corpus_path, budget_path, tmp_path, capsys):
    # Excel's "CSV UTF-8" export starts the file with one; runs on the same paths, so the reports match
    pubs, budgets, out = tmp_path / "pubs.csv", tmp_path / "budgets.csv", tmp_path / "out"
    args = ["ingest", "--input", str(pubs), "--budgets", str(budgets), "--out", str(out)]
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        pubs.write_bytes(bom + corpus_path.read_bytes())
        budgets.write_bytes(bom + budget_path.read_bytes())
        shutil.rmtree(out, ignore_errors=True)
        assert cli.main(args) == 0
        outputs.append((read_outputs(out), capsys.readouterr().out))
    assert outputs[1] == outputs[0]
    assert b"budget row" not in outputs[0][0]["rejections.txt"]


def test_a_byte_order_mark_before_the_first_jsonl_line_is_read_past(tmp_path, capsys):
    good = '{"award_code": "12/IA/1570", "year": 2014, "pub_type": "article", "fwci": 1.5}'
    path = tmp_path / "bom.jsonl"
    path.write_text("\ufeff" + good + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["ingest", "--input", str(path), "--out", str(out)]) == 0
    assert "1 awards, 1 publications" in capsys.readouterr().out
    assert (out / "rejections.txt").read_text(encoding="utf-8") == "no rejections\n"


def test_a_rejected_crlf_jsonl_line_is_written_without_its_line_end(tmp_path, capsys):
    good = b'{"award_code": "12/IA/1570", "year": 2014, "pub_type": "article", "fwci": 1.5}'
    path = tmp_path / "crlf.jsonl"
    path.write_bytes(b"[1, 2\r\n" + good + b"\r\n")
    out = tmp_path / "out"
    assert cli.main(["ingest", "--input", str(path), "--out", str(out)]) == 0
    assert "1 awards, 1 publications" in capsys.readouterr().out
    rejections = (out / "rejections.txt").read_bytes()
    assert b"\r" not in rejections
    assert rejections.decode("utf-8").splitlines() == ["row 1: not valid JSON: Expecting ',' delimiter | [1, 2"]


def test_a_rejected_csv_row_holding_a_line_break_is_one_line_numbered_by_its_first(tmp_path, capsys):
    # three lines: the header, then one row whose quoted title breaks across lines 2 and 3
    path = tmp_path / "pubs.csv"
    path.write_bytes(b'award_code,year,pub_type,fwci,citations,title,source_id\n12/IB/1234,2018,article,1.0,1,"two\nlines",W1\n')
    out = tmp_path / "out"
    assert cli.main(["ingest", "--input", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "rejections.txt").read_text(encoding="utf-8").splitlines() == [
        'row 2: award code does not match YY/IA/XXXX | 12/IB/1234,2018,article,1.0,1,"two\\nlines",W1'
    ]


def test_budgets_summing_past_the_largest_float_are_a_data_error(corpus_path, tmp_path, capsys):
    budgets = tmp_path / "budgets.csv"
    write_csv(budgets, ["award_code", "budget_eur"], [["11/IA/2000", "1e308"], ["12/IA/2001", "1e308"]])
    args = ["ingest", "--input", str(corpus_path), "--budgets", str(budgets), "--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    assert assert_one_line_error(capsys).startswith(f"error: {budgets}: the budgets sum past the largest float")


def test_fit_whose_mean_overflows_is_a_numerical_error(tmp_path, capsys, monkeypatch):
    # No fit whose mu stays inside its bins' ln range has been seen to put the
    # mean past the largest float, so the ensemble is stubbed: mu + sigma^2 / 2 = 711.
    ensemble = lognormal.FitEnsemble(708.9, 709.0, 709.1, 1.9, 2.0, 2.1, n_failed=0)
    monkeypatch.setattr(lognormal, "ensemble_fit", lambda *args: ensemble)
    path = tmp_path / "pubs.csv"
    rows = [[f"11/IA/{3000 + i % 5}", 2019, "article", repr(0.2 + 0.3 * i), 1, "t", f"W{i}"] for i in range(20)]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(path), "--fits", "20", "--out", str(out)]) == 3
    assert assert_one_line_error(capsys).startswith("error: the fitted lognormal's mean e^")
    assert not (out / "fit_report.txt").exists()


def test_fit_whose_model_puts_no_mass_in_the_window_is_a_numerical_error(tmp_path, capsys, monkeypatch):
    # at mu = 50, sigma = 1 the share of the distribution below 8 underflows to 0
    ensemble = lognormal.FitEnsemble(49.9, 50.0, 50.1, 0.9, 1.0, 1.1, n_failed=0)
    monkeypatch.setattr(lognormal, "ensemble_fit", lambda *args: ensemble)
    path = tmp_path / "pubs.csv"
    rows = [[f"11/IA/{3000 + i % 5}", 2019, "article", repr(0.2 + 0.3 * i), 1, "t", f"W{i}"] for i in range(20)]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(path), "--low-cut", "0", "--fits", "20", "--out", str(out)]) == 3
    assert assert_one_line_error(capsys) == "error: the fitted lognormal puts no mass in the window 0.0:8.0\n"
    assert not (out / "fit_report.txt").exists()


def test_fit_whose_every_ensemble_fit_leaves_the_bins_ln_range_is_a_numerical_error(tmp_path, capsys):
    # Every LM fit converges to mu near 1e6, far past ln(1.7e308) = 709.8.
    path = tmp_path / "huge.csv"
    values = np.linspace(4e305, 8e306, 20)
    rows = [[f"11/IA/{3000 + i % 5}", 2019, "article", repr(float(v)), 1, "t", f"W{i}"] for i, v in enumerate(values)]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(path), "--range", "0:1.7e308", "--fits", "20", "--out", str(out)]) == 3
    assert assert_one_line_error(capsys) == "error: all 20 ensemble fits failed\n"
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
    "argv,flag",
    [
        (["ingest", "--input", "{path}", "--out", "{out}"], "--input"),
        (["curve", "--n-list", "1,5", "--reps", "100", "--out", "{path}"], "--out"),
    ],
    ids=["ingest-input", "curve-out"],
)
def test_non_utf8_path_is_echoed_with_byte_escapes(corpus_path, tmp_path, argv, flag):
    path = str(tmp_path / os.fsdecode(b"p\xff.csv"))
    out = path if flag == "--out" else str(tmp_path / "out")
    if flag == "--input":
        shutil.copyfile(corpus_path, path)
    assert cli.main([arg.format(path=path, out=out) for arg in argv]) == 0
    with open(os.path.join(out, f"{argv[0]}_report.txt"), encoding="utf-8") as fh:
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


# Small ensembles and Monte Carlo sizes, passed to the commands that read them.
_SMALL = {"ingest": [], "fit": ["--fits", "10", "--bins", "20:60"], "benchmark": ["--reps", "100"]}


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
        args = [command, "--out", os.path.join(tmp, "out"), *_SMALL[command]]
        # only ingest reads budgets
        for flag, content in (("--input", data), ("--budgets", budgets if command == "ingest" else None)):
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
    assert "ensemble:\n  n_fits = 60\n" in report and "\n  seed = 3\n  window = " in report
    assert "naive_mean_all = " in report
    assert "naive_mean_fitted_sample = " in report
    assert "fitted_mean = " in report
    assert "interval95 = " in report
    assert "mu_p50" in capsys.readouterr().out

    with open(out / "hist_linear.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 80  # (8 - 0) / 0.1 fixed-width display bins
    assert sum(int(r["count"]) for r in rows) > 500


def test_fit_report_counts_failed_bin_counts_by_reason_and_lm_iterations(corpus_path, tmp_path):
    # bin counts 2 and 3 always have too few bins, however often they are drawn
    out = tmp_path / "out"
    assert cli.main([*fit_args(corpus_path, out), "--bins", "2:30", "--fits", "200"]) == 0
    report = (out / "fit_report.txt").read_text(encoding="utf-8")
    draws = np.random.default_rng(3).integers(2, 30, size=200, endpoint=True)
    too_few = np.unique(draws[draws < 4]).size
    assert too_few == 2 and np.count_nonzero(draws < 4) > too_few
    assert (
        f"  n_failed = {np.count_nonzero(draws < 4)}\n"
        f"  failed_bin_counts.too_few_bins = {too_few}\n"
        "  failed_bin_counts.not_converged = 0\n"
        "  failed_bin_counts.mu_outside_bins = 0\n"
        "  lm_iterations_per_bin_count.mean = "
    ) in report
    mean = read_report_value(report, "lm_iterations_per_bin_count.mean")
    iters_max = read_report_value(report, "lm_iterations_per_bin_count.max")
    assert 1 <= mean <= iters_max <= 200


def read_report_value(report, key):
    return float(next(line.split(" = ")[1] for line in report.splitlines() if line.startswith(f"  {key} = ")))


def test_fit_draws_the_reported_fit_restricted_to_its_window(corpus_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(fit_args(corpus_path, out)) == 0
    report = (out / "fit_report.txt").read_text(encoding="utf-8")
    assert "display fit" not in report
    central = lognormal.LognormalParams(read_report_value(report, "mu_p50"), read_report_value(report, "sigma_p50"))
    with open(out / "curve_linear.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    xs = np.array([float(r["x"]) for r in rows])
    ratio = np.array([float(r["expected_count"]) for r in rows]) / lognormal.pdf(xs, central)
    # N * w / mass: N values fitted in the window 0.1:8, display bins 0.1 wide
    mass = lognormal.percentile_of(8.0, central) - lognormal.percentile_of(0.1, central)
    expected = read_report_value(report, "fitted") * 0.1 / mass
    assert ratio == pytest.approx(np.full(xs.size, expected), rel=1e-9)
    assert xs.min() >= 0.1


def test_fit_keeps_a_value_exactly_at_the_low_cut(tmp_path, capsys):
    # the cut keeps FWCI >= 0.1, so 0.1 itself is fitted, in the window's first bin
    path = tmp_path / "pubs.csv"
    values = [0.1] + [0.25 + 0.1 * i for i in range(39)]
    rows = [[f"11/IA/{3000 + i % 5}", 2019, "article", repr(v), 1, "t", f"W{i}"] for i, v in enumerate(values)]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(path), "--fits", "20", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = (out / "fit_report.txt").read_text(encoding="utf-8")
    assert "  below_low_cut = 0\n" in report and "  fitted = 40\n" in report
    assert "  window = 0.1:8.0\n" in report
    with open(out / "hist_linear.csv", encoding="utf-8", newline="") as fh:
        rows = [(float(r["center"]), int(r["count"])) for r in csv.DictReader(fh)]
    assert sum(count for _, count in rows) == 40
    assert rows[1] == (pytest.approx(0.15), 1)  # the bin [0.1, 0.2) holds 0.1 alone


def test_fit_keeps_a_value_exactly_at_the_range_low_end(tmp_path, capsys):
    # the fitted window is [1.0, 8.0), half-open like its histograms, so 1.0 is fitted
    path = tmp_path / "pubs.csv"
    values = [1.0] + [1.15 + 0.1 * i for i in range(39)]
    rows = [[f"11/IA/{3000 + i % 5}", 2019, "article", repr(v), 1, "t", f"W{i}"] for i, v in enumerate(values)]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(path), "--range", "1:8", "--fits", "20", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = (out / "fit_report.txt").read_text(encoding="utf-8")
    assert "  outside_fit_range = 0\n" in report and "  fitted = 40\n" in report
    assert "  window = 1.0:8.0\n" in report


def test_fit_names_the_half_open_window_when_too_few_values_remain(tmp_path, capsys):
    path = tmp_path / "pubs.csv"
    rows = [[f"11/IA/{3000 + i}", 2019, "article", repr(v), 1, "t", f"W{i}"] for i, v in enumerate([0.5, 1.0, 2.0])]
    write_csv(path, list(CSV_COLUMNS), rows)
    assert cli.main(["fit", "--input", str(path), "--range", "1:8", "--out", str(tmp_path / "out")]) == 2
    assert "only 2 values inside [1.0, 8.0); too few to fit" in capsys.readouterr().err


def test_fit_on_a_window_that_leaves_out_the_mode(corpus_path, tmp_path, capsys):
    # e^mu is near 0.93, below every bin of the window, at every default bin count
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(corpus_path), "--range", "1:8", "--fits", "60", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "  n_failed = 0\n" in (out / "fit_report.txt").read_text(encoding="utf-8")


def test_fit_consistency_window_starts_at_the_fitted_sample_lower_edge(corpus_path, tmp_path):
    # the range starts above the low cut 0.1, so the ln-value bins start at ln(0.5)
    out = tmp_path / "out"
    assert cli.main([*fit_args(corpus_path, out), "--range", "0.5:8"]) == 0
    report = (out / "fit_report.txt").read_text(encoding="utf-8")
    assert f"consistency (normal fit to ln values):\n  range = {math.log(0.5)!r}:{math.log(8.0)!r} (40 bins" in report


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
    assert err == "error: no drawn bin count puts the 30 values inside [0.1, 8.0) in 4 non-empty bins\n"
    assert not (out / "fit_report.txt").exists()


def test_fit_on_values_no_drawn_bin_count_separates_is_a_data_error(tmp_path, capsys):
    # four distinct values within 0.0003 of each other share one bin at every count up to 800
    path = tmp_path / "narrow.csv"
    values = ("1.0", "1.0001", "1.0002", "1.0003")
    rows = [[f"11/IA/{2000 + i}", 2019, "article", values[i % 4], 1, "t", f"W{i}"] for i in range(12)]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(path), "--out", str(out), "--fits", "200"]) == 2
    err = assert_one_line_error(capsys)
    assert err == "error: no drawn bin count puts the 12 values inside [0.1, 8.0) in 4 non-empty bins\n"
    assert not (out / "fit_report.txt").exists()


@pytest.mark.parametrize(
    "bins,top,least",
    [([], 800, "2.15e-153"), (["--bins", "4:20", "--fits", "50"], 20, "5.97e-154")],
    ids=["default-bins", "bins-4-20"],
)
def test_fit_on_a_window_too_narrow_for_its_top_bin_count_is_a_data_error(bins, top, least, tmp_path, capsys):
    # 12 subnormal values; 5e-322 / 20 is subnormal and 5e-322 / 800 is 0. Runs with RuntimeWarning as an error.
    path = tmp_path / "subnormal.csv"
    rows = [[f"11/IA/{2000 + i}", 2019, "article", repr((i + 1) * 2e-323), 1, "t", f"W{i}"] for i in range(12)]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    args = ["fit", "--input", str(path), "--out", str(out), "--range", "0:5e-322", "--low-cut", "0", *bins]
    assert cli.main(args) == 2
    err = assert_one_line_error(capsys)
    narrow = f"the window [0.0, 5e-322) lies too close to 0 for {top} bins"
    assert err == f"error: {narrow}: a bin center below {least} overflows the fit\n"
    assert not (out / "fit_report.txt").exists()


@pytest.mark.parametrize("scale,code", [(1e-160, 2), (1e-150, 0)], ids=["refused-1e-160", "fitted-1e-150"])
def test_fit_refuses_bins_too_close_to_0_for_the_scaled_model(scale, code, tmp_path, capsys):
    # At 800 bins over 0:10 * scale, the least center is scale / 160. J'J sums 832 cells of (e / x)^2 <= 1 / x^2,
    # which stays finite down to x = 2.15e-153; at 1e-160 LM overflowed into "all fits failed". RuntimeWarning is an error.
    path = tmp_path / "tiny.csv"
    rows = [[f"11/IA/{2000 + i % 20}", 2019, "article", repr((1 + i / 200) * scale), 1, "t", f"W{i}"] for i in range(200)]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    args = ["fit", "--input", str(path), "--out", str(out), "--range", f"0:{10 * scale!r}", "--low-cut", "0", "--fits", "200"]
    assert cli.main(args) == code
    if code:
        err = assert_one_line_error(capsys)
        assert err == "error: the window [0.0, 1e-159) lies too close to 0 for 800 bins: a bin center below 2.15e-153 overflows the fit\n"
        assert not (out / "fit_report.txt").exists()
    else:
        assert capsys.readouterr().err == ""
        assert "  fitted = 200\n" in (out / "fit_report.txt").read_text(encoding="utf-8")


def test_fit_whose_one_drawn_bin_count_is_below_four_is_a_data_error(corpus_path, tmp_path, capsys):
    # the one count drawn at seed 1 from 1:4 is 2, whatever the data
    out = tmp_path / "out"
    args = ["fit", "--input", str(corpus_path), "--out", str(out), "--bins", "1:4", "--fits", "1", "--seed", "1"]
    assert cli.main(args) == 2
    assert "4 non-empty bins" in assert_one_line_error(capsys)
    assert not (out / "fit_report.txt").exists()


def test_fit_warns_once_when_its_consistency_fit_does_not_converge(corpus_path, tmp_path, capsys, monkeypatch):
    # damped_least_squares is the solver only the consistency fit calls
    solve = lognormal.damped_least_squares

    def unconverged(*args, **kwargs):
        return dataclasses.replace(solve(*args, **kwargs), converged=False)

    monkeypatch.setattr(lognormal, "damped_least_squares", unconverged)
    out = tmp_path / "out"
    assert cli.main(fit_args(corpus_path, out)) == 0
    assert capsys.readouterr().err == "warning: normal fit to log histogram did not converge\n"
    assert "consistency (normal fit to ln values):\n  range = " in (out / "fit_report.txt").read_text(encoding="utf-8")


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


def test_fit_log_view_shows_zero_fwci_papers_at_the_zero_shift(tmp_path):
    # uncited papers sit at ln 0.01 = -4.605, in the bin [-4.8, -4.6) centred at -4.7, beside true values there;
    # 0.005 and 30 fall outside the view's [-5, 3)
    draws = np.exp(-0.0761 + 0.933 * np.random.default_rng(30).standard_normal(300))
    values = [*draws.tolist(), 0.0085, 0.009, 0.005, 30.0, *[0.0] * 7]
    path = tmp_path / "pubs.csv"
    rows = [[f"11/IA/{3000 + i % 5}", 2019, "article", repr(v), 1, "t", f"W{i}"] for i, v in enumerate(values)]
    write_csv(path, list(CSV_COLUMNS), rows)
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(path), "--fits", "20", "--out", str(out)]) == 0
    with open(out / "hist_log.csv", encoding="utf-8", newline="") as fh:
        rows = [(float(r["center"]), int(r["count"])) for r in csv.DictReader(fh)]
    logs = [math.log(v) if v > 0 else math.log(0.01) for v in values]
    at_shift = [count for center, count in rows if center == pytest.approx(-4.7)]
    assert at_shift == [7 + sum(-4.8 <= t < -4.6 for t in logs if t != math.log(0.01))] == [9]
    assert sum(count for _, count in rows) == sum(-5.0 <= t < 3.0 for t in logs) == len(values) - 2


def test_fit_with_a_fits_count_too_large_to_allocate_is_a_usage_error(corpus_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(corpus_path), "--out", str(out), "--fits", "1000000000000000"]) == 1
    assert assert_one_line_error(capsys).startswith("error: Unable to allocate ")
    assert not (out / "fit_report.txt").exists()


def test_fit_on_empty_corpus(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(header_only_csv(tmp_path)), "--out", str(out)]) == 2


# --- benchmark ---


def read_benchmark_rows(out):
    with open(out / "benchmark.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def report_blocks(report):
    """Each ``sigma2 = s:`` block of a benchmark report, in report order: s -> {key: first word of its value}."""
    blocks, block = {}, None
    for line in report.splitlines():
        if line.startswith("sigma2 = "):
            block = blocks[line.removeprefix("sigma2 = ").rstrip(":")] = {}
        elif line.startswith("  ") and block is not None:
            key, value = line.strip().split(" = ")
            block[key] = value.split()[0]
        else:
            block = None
    return blocks


def spread_corpus(tmp_path):
    """Six two-paper awards whose means straddle the n = 2 medians (about 0.73, 0.66 and 0.55 at sigma2 1.0, 1.3, 1.8)."""
    path = tmp_path / "spread.csv"
    means = (0.5, 0.6, 0.7, 0.8, 1.0, 1.2)
    rows = [[f"11/IA/{3000 + i}", 2019, "article", repr(m), 1, f"t{i}.{j}", f"W{i}.{j}"] for i, m in enumerate(means) for j in range(2)]
    write_csv(path, list(CSV_COLUMNS), rows)
    return path


def test_benchmark_verdicts_match_thresholds(corpus_path, tmp_path, capsys):
    for path, n_awards in ((corpus_path, 20), (spread_corpus(tmp_path), 6)):
        out = tmp_path / path.stem
        code = cli.main(
            ["benchmark", "--input", str(path), "--out", str(out), "--reps", "2000", "--seed", "7",
             "--sigma2", "1.8,1.0,1.3"]
        )
        assert code == 0
        rows = read_benchmark_rows(out)
        assert len(rows) == n_awards
        for row in rows:
            mean = float(row["observed_mean"])
            for s in ("1.0", "1.3", "1.8"):
                verdict = row[f"verdict_{s}"]
                assert verdict in ("above_median", "below_median")
                expected = "above_median" if mean >= float(row[f"threshold_{s}"]) else "below_median"
                assert verdict == expected

        # every count the report and stdout print, recounted from benchmark.csv, in ascending sigma2
        n_mean_ge_1 = sum(float(row["observed_mean"]) >= 1 for row in rows)
        counts, stdout = {}, []
        for s in ("1.0", "1.3", "1.8"):
            above = [float(row["observed_mean"]) for row in rows if row[f"verdict_{s}"] == "above_median"]
            n_pass = sum(mean < 1 for mean in above)
            counts[s] = {
                "above_median": str(len(above)),
                "below_median": str(len(rows) - len(above)),
                "fraction_above": repr(len(above) / len(rows)),
                "mean_ge_1": str(n_mean_ge_1),
                "small_sample_pass": str(n_pass),
                "mean_ge_1_plus_small_sample_pass": str(n_mean_ge_1 + n_pass),
            }
            stdout.append(f"sigma2 {s}: {len(above)}/{len(rows)} above median (fraction {len(above) / len(rows)!r})")
        report = (out / "benchmark_report.txt").read_text(encoding="utf-8")
        blocks = report_blocks(report)
        assert list(blocks) == ["1.0", "1.3", "1.8"]
        assert blocks == counts
        above_counts = [int(c["above_median"]) for c in counts.values()]
        assert f"\nabove_median across sigma2: {min(above_counts)} to {max(above_counts)}\n" in report
        assert capsys.readouterr().out == "\n".join(stdout) + "\n"
    # the spread portfolio's counts differ from sigma2 to sigma2, and some awards pass on the correction alone
    assert len(set(above_counts)) == 3 and all(c["small_sample_pass"] != "0" for c in counts.values())


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
    # so it passes at 1.3 and 1.8 only once the small-n bias of its mean is allowed for
    blocks = report_blocks((out / "benchmark_report.txt").read_text(encoding="utf-8"))
    assert [(b["small_sample_pass"], b["mean_ge_1"]) for b in blocks.values()] == [("0", "0"), ("1", "0"), ("1", "0")]


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


def test_curve_matches_library_values(tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        [
            "curve",
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


def test_curve_with_reps_too_large_to_allocate_fails_at_once(tmp_path):
    # Run under a 2 GiB address-space limit, so that a tree which builds reps / 2**15 block bounds first hits a
    # MemoryError there instead of filling the machine's memory.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fwcibench.__file__)), OPENBLAS_NUM_THREADS="1")
    argv = ["curve", "--n-list", "1", "--reps", "1000000000000000", "--out", str(tmp_path / "out")]
    done = subprocess.run(
        [sys.executable, "-m", "fwcibench.cli", *argv],
        env=env, preexec_fn=limit_memory, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: Unable to allocate ") and done.stderr.count("\n") == 1, done.stderr
    assert not (tmp_path / "out" / "median_curve.csv").exists()


def test_a_memory_error_with_no_message_is_one_readable_line(monkeypatch, capsys):
    def command(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_ingest", command)
    assert cli.main(["ingest", "--input", "x.csv"]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def test_curve_dedupes_n_list(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        ["curve", "--out", str(out), "--n-list", "2,2", "--reps", "500"]
    )
    assert code == 0
    assert "duplicate" in capsys.readouterr().err
    with open(out / "median_curve.csv", encoding="utf-8", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 3


@pytest.mark.parametrize(
    "command,output,columns,echoed",
    [
        (
            ["benchmark", "--input", "{input}", "--sigma2", "1.0,1,1.3"],
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
    code = cli.main([*(arg.format(input=corpus_path) for arg in command), "--out", str(out), "--reps", "500"])
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


# --- which flags each command accepts ---

# The flags each command reads, in parser order. curve also accepts --input,
# unread, unechoed and hidden from --help, for callers that still pass it.
READS = {
    "ingest": ("--input", "--budgets", "--low-cut", "--out"),
    "fit": ("--input", "--low-cut", "--range", "--bins", "--fits", "--seed", "--out"),
    "benchmark": ("--input", "--sigma2", "--reps", "--seed", "--out"),
    "curve": ("--n-list", "--sigma2", "--reps", "--seed", "--out"),
}
# What a run needs besides its output directory, with small ensembles and Monte Carlo sizes.
BASE_ARGS = {
    "ingest": ["--input", "{input}"],
    "fit": ["--input", "{input}", "--fits", "20"],
    "benchmark": ["--input", "{input}", "--reps", "200"],
    "curve": ["--n-list", "1,5", "--reps", "200"],
}
# For each flag but --out, a valid value that BASE_ARGS and the defaults do not give it.
OTHER_VALUE = {
    "--input": "{other_input}",
    "--budgets": "{budgets}",
    "--n-list": "1,6",
    "--low-cut": "0.3",
    "--range": "0:4",
    "--bins": "20:40",
    "--fits": "30",
    "--sigma2": "1.5",
    "--reps": "300",
    "--seed": "5",
}
FOREIGN = [
    (command, flag)
    for command in READS
    for flag in OTHER_VALUE
    if flag not in READS[command] and (command, flag) != ("curve", "--input")
]


@pytest.fixture
def cli_paths(corpus_path, budget_path, tmp_path):
    """Values for the ``{name}`` fields of BASE_ARGS and OTHER_VALUE: a second corpus is the first one's first 300 rows."""
    other = tmp_path / "other.csv"
    other.write_text("".join(corpus_path.read_text(encoding="utf-8").splitlines(True)[:301]), encoding="utf-8")
    return {"input": corpus_path, "other_input": other, "budgets": budget_path}


def accepted_flags(command):
    """The flags the command's parser accepts, in order, leaving out -h and those hidden from --help."""
    sub = next(action for action in cli._build_parser()._actions if action.dest == "command")
    actions = sub.choices[command]._actions
    return [a.option_strings[0] for a in actions if a.dest != "help" and a.help != argparse.SUPPRESS]


@pytest.mark.parametrize("command", READS)
def test_each_command_accepts_exactly_the_flags_it_reads(command):
    assert accepted_flags(command) == list(READS[command])


@pytest.mark.parametrize("command,flag", FOREIGN, ids=[f"{c}-{f[2:]}" for c, f in FOREIGN])
def test_a_flag_the_command_does_not_read_is_a_usage_error(cli_paths, tmp_path, command, flag, capsys):
    out = tmp_path / "out"
    argv = [command, *BASE_ARGS[command], "--out", str(out), flag, OTHER_VALUE[flag]]
    assert cli.main([arg.format(**cli_paths) for arg in argv]) == 1
    assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def outputs_outside_config(argv, out, capsys):
    """stdout and each output file of a run, with the config block cut out of every report."""
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(out)]) == 0
    files = {"stdout": capsys.readouterr().out}
    for name, data in read_outputs(out).items():
        lines = data.decode("utf-8").splitlines()
        if "config:" in lines:
            start = lines.index("config:")
            stop = next((i for i in range(start + 1, len(lines)) if not lines[i].startswith("  ")), len(lines))
            lines[start:stop] = []
        files[name] = lines
    return files


@pytest.mark.parametrize("command,flag", [(c, f) for c in READS for f in accepted_flags(c) if f != "--out"])
def test_every_flag_a_command_accepts_changes_its_output(cli_paths, tmp_path, command, flag, capsys):
    base = [command, *(arg.format(**cli_paths) for arg in BASE_ARGS[command])]
    other = [*base, flag, OTHER_VALUE[flag].format(**cli_paths)]  # the last value of a flag wins
    out = tmp_path / "out"
    assert outputs_outside_config(other, out, capsys) != outputs_outside_config(base, out, capsys)


def test_curve_accepts_input_unread_and_unechoed(tmp_path, capsys):
    argv = ["curve", "--n-list", "1,5", "--reps", "200", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    without = read_outputs(tmp_path / "out"), capsys.readouterr()
    assert cli.main([*argv, "--input", str(tmp_path / "missing.csv")]) == 0
    assert (read_outputs(tmp_path / "out"), capsys.readouterr()) == without
    assert cli.main(["curve", "--help"]) == 0
    assert "--input" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "command,output",
    [
        (["benchmark", "--input", "{input}", "--sigma2", "1e6"], "benchmark.csv"),
        (["curve", "--sigma2", "2000", "--n-list", "1,400"], "median_curve.csv"),
    ],
    ids=["benchmark", "curve"],
)
def test_underflowing_sigma2_writes_no_threshold(corpus_path, tmp_path, command, output, capsys):
    out = tmp_path / "out"
    code = cli.main([*(arg.format(input=corpus_path) for arg in command), "--out", str(out), "--reps", "100"])
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
    command = "benchmark" if flag == "--sigma2" else "fit"
    assert cli.main([command, "--input", "x.csv", f"{flag}={value}"]) == 1
    assert f"argument {flag}" in capsys.readouterr().err


def test_bad_n_list():
    assert cli.main(["curve", "--n-list", "0,5"]) == 1


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


def test_fit_never_imports_numpy_ma(corpus_path, tmp_path):
    # np.unique and np.percentile import numpy.ma on their first call, some 10-20 ms
    shutil.copy(corpus_path, tmp_path / "small.csv")
    main_then_modules = "import sys; from fwcibench import cli; print(cli.main(sys.argv[1:]), 'numpy.ma' in sys.modules)"
    argv = ["fit", "--input", "small.csv", "--fits", "20", "--out", "out"]
    assert run_fresh(main_then_modules, *argv, cwd=tmp_path)[-1] == "0 False"


def test_ingest_and_fit_never_import_logging(corpus_path, tmp_path):
    # benchmark and curve still load it, through concurrent.futures
    shutil.copy(corpus_path, tmp_path / "small.csv")
    code = (
        "import sys; from fwcibench import cli\n"
        "ingest = cli.main(['ingest', '--input', 'small.csv', '--out', 'out'])\n"
        "fit = cli.main(['fit', '--input', 'small.csv', '--fits', '20', '--out', 'out'])\n"
        "print(ingest, fit, 'logging' in sys.modules)\n"
    )
    assert run_fresh(code, cwd=tmp_path)[-1] == "0 0 False"


def test_package_loads_its_submodules_on_first_use():
    lines = run_fresh(
        "import sys, fwcibench\n"
        "print('numpy' in sys.modules)\n"
        "print(callable(fwcibench.lognormal.ensemble_fit))\n"
        "print(fwcibench.lognormal.NumericalError is fwcibench.corpus.NumericalError)\n"
    )
    assert lines == ["False", "True", "True"]


TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "traced.py")


@pytest.mark.parametrize(
    "argv,layers",
    [
        (
            ["fit", "--fits", "50"],
            {"corpus.read_records", "histogram.build_histogram", "lognormal.ensemble_fit"}
            | {"leastsq.damped_least_squares"},
        ),
        (["benchmark", "--reps", "500"], {"corpus.read_records", "simulate.median_curve", "simulate.benchmark_award"}),
        (
            ["ingest"],
            {"corpus.read_records", "corpus.dedupe_per_award", "corpus.summarize_awards", "corpus.write_records_csv"},
        ),
    ],
    ids=["fit", "benchmark", "ingest"],
)
def test_traced_launch_finds_its_layers_and_writes_the_same_files(corpus_path, tmp_path, argv, layers):
    # perfbench/traced.py rebinds layer functions by name, so renaming one fails every traced launch
    out, spans = tmp_path / "out", tmp_path / "spans.json"
    cli_args = [*argv, "--input", str(corpus_path), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fwcibench.__file__)))
    outputs = []
    for cmd in (["-m", "fwcibench.cli", *cli_args], [TRACER, str(spans), "run", "--", *cli_args]):
        shutil.rmtree(out, ignore_errors=True)
        done = subprocess.run([sys.executable, *cmd], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append((read_outputs(out), done.stdout))
    assert outputs[1] == outputs[0]
    with open(spans, encoding="utf-8") as fh:
        assert layers <= {span[0] for span in json.load(fh)["spans"]}
