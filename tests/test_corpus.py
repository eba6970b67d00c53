import csv
import io
import json
import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fwcibench import corpus
from fwcibench.corpus import (
    AwardSummary,
    DataError,
    PublicationRecord,
    RowRejection,
)


def rec(code="12/IA/1234", year=2015, pub_type="article", fwci=1.0, source_id="s1", **kw):
    return PublicationRecord(award_code=code, year=year, pub_type=pub_type, fwci=fwci, source_id=source_id, **kw)


# --- award codes ---


def test_normalize_strips_prefix():
    assert corpus._parse_award_code("SFI/12/IA/1570") == ("12/IA/1570", "")


def test_normalize_repairs_digit_one_typo():
    assert corpus._parse_award_code("14/1A/2508") == ("14/IA/2508", "")


def test_normalize_passes_canonical_through():
    assert corpus._parse_award_code("12/IA/1234") == ("12/IA/1234", "")


def test_normalize_trims_whitespace():
    assert corpus._parse_award_code("  13/IA/2073 ") == ("13/IA/2073", "")


@pytest.mark.parametrize(
    "bad",
    ["", "12/IB/1234", "123/IA/1234", "12/IA/123", "12/IA/12345", "12-IA-1234", "xx/IA/1234", "12/IA/", "１２/IA/1234"],
)
def test_normalize_rejects_noncanonical(bad):
    reason = "award code does not match YY/IA/XXXX" if bad else "missing award_code"
    assert corpus._parse_award_code(bad) == ("", reason)


@given(
    yy=st.integers(0, 99),
    xxxx=st.integers(0, 9999),
    prefix=st.booleans(),
    typo=st.booleans(),
)
def test_normalize_idempotent(yy, xxxx, prefix, typo):
    raw = f"{yy:02d}/{'1A' if typo else 'IA'}/{xxxx:04d}"
    if prefix:
        raw = "SFI/" + raw
    once, reason = corpus._parse_award_code(raw)
    assert reason == ""
    assert corpus._parse_award_code(once) == (once, "")


# --- parse_records ---

HEADER = "award_code,year,pub_type,fwci,citations,title,source_id\n"


def test_parse_valid_rows():
    text = HEADER + (
        "12/IA/1570,2014,Article,1.2,10,Paper one,a1\n"
        "SFI/12/IA/1570,2015,Conference Paper,0.0,0,Paper two,a2\n"
        "14/1A/2508,2016,letter,2.5,3,Paper three,a3\n"
    )
    records, rejections = corpus.parse_records(io.StringIO(text))
    assert len(records) == 3 and not rejections
    assert [r.award_code for r in records] == ["12/IA/1570", "12/IA/1570", "14/IA/2508"]
    assert records[0].pub_type == "article"
    assert records[1].pub_type == "conference_paper"
    assert records[1].fwci == 0.0


def test_parse_empty_fwci_is_absent_not_zero():
    text = HEADER + "12/IA/1570,2014,article,,5,t,a1\n"
    records, rejections = corpus.parse_records(io.StringIO(text))
    assert not rejections
    assert records[0].fwci is None


def test_parse_negative_fwci_rejected():
    text = HEADER + "12/IA/1570,2014,article,-1,5,t,a1\n"
    records, rejections = corpus.parse_records(io.StringIO(text))
    assert not records
    assert len(rejections) == 1 and "fwci" in rejections[0].reason


@pytest.mark.parametrize(
    "row,expect",
    [
        (",2014,article,1.0,5,t,a1", "award_code"),
        ("12/IA/1570,,article,1.0,5,t,a1", "year"),
        ("12/IA/1570,noyear,article,1.0,5,t,a1", "year"),
        ("99/ZZ/0001,2014,article,1.0,5,t,a1", "award code"),
        ("12/IA/1570,2014,article,nan,5,t,a1", "fwci"),
        ("12/IA/1570,2014,article,1.0,-2,t,a1", "citation"),
        ("12/IA/1570,2014,article,1.0,many,t,a1", "citations"),
    ],
)
def test_parse_bad_rows_rejected_with_reason(row, expect):
    records, rejections = corpus.parse_records(io.StringIO(HEADER + row + "\n"))
    assert not records
    assert len(rejections) == 1
    assert expect in rejections[0].reason


def test_parse_bad_rows_never_abort():
    text = HEADER + "bad,2014,article,1.0,5,t,a1\n12/IA/1570,2014,article,1.0,5,t,a2\n"
    records, rejections = corpus.parse_records(io.StringIO(text))
    assert len(records) == 1 and len(rejections) == 1
    assert rejections[0].row == 2


def test_full_width_digits_do_not_make_a_second_award():
    text = HEADER + "12/IA/1234,2014,article,1.0,1,t,a1\n" + "１２/IA/1234,2014,article,2.0,1,u,a2\n"
    records, rejections = corpus.parse_records(io.StringIO(text))
    assert [s.award_code for s in corpus.summarize_awards(records)] == ["12/IA/1234"]
    assert [(r.row, r.reason) for r in rejections] == [(3, "award code does not match YY/IA/XXXX")]


def test_digit_separators_are_rejected():
    # int() and float() read "1_0" as 10: a typo would pass as a tenfold value.
    lines = [
        "12/IA/1570,2_014,article,1.0,5,t,a1",
        "12/IA/1570,2014,article,1_0,5,t,a2",
        "12/IA/1570,2014,article,1.0,1_000,t,a3",
    ]
    reasons = ["year '2_014' is not an integer", "fwci '1_0' is not a number", "citations '1_000' is not an integer"]
    records, rejections = corpus.parse_records(io.StringIO(HEADER + "\n".join(lines) + "\n"))
    assert not records
    assert [r.reason for r in rejections] == reasons
    cells = [("2_014", "1.0", "5"), ("2014", "1_0", "5"), ("2014", "1.0", "1_000")]
    objs = [{"award_code": "12/IA/1570", "year": y, "fwci": f, "citations": c} for y, f, c in cells]
    text = "".join(json.dumps(obj) + "\n" for obj in objs)
    records, rejections = corpus.parse_records(io.StringIO(text), fmt="jsonl")
    assert not records
    assert [r.reason for r in rejections] == reasons


def test_non_ascii_digits_are_rejected():
    # int() and float() read full-width and Arabic-Indic digits as ASCII ones.
    lines = [
        "12/IA/1570,２０１４,article,1.0,5,t,a1",
        "12/IA/1570,2014,article,１０,5,t,a2",
        "12/IA/1570,2014,article,1.0,３,t,a3",
        "12/IA/1570,\u0662\u0660,article,1.0,5,t,a4",
    ]
    records, rejections = corpus.parse_records(io.StringIO(HEADER + "\n".join(lines) + "\n"))
    assert not records
    assert [r.reason for r in rejections] == [
        "year '２０１４' is not an integer",
        "fwci '１０' is not a number",
        "citations '３' is not an integer",
        "year '\u0662\u0660' is not an integer",
    ]


def test_non_positive_years_are_rejected():
    lines = ["12/IA/1570,-3,article,1.0,5,t,a1", "12/IA/1570,0,article,1.0,5,t,a2", "12/IA/1570,+7,article,1.0,5,t,a3"]
    records, rejections = corpus.parse_records(io.StringIO(HEADER + "\n".join(lines) + "\n"))
    assert [r.year for r in records] == [7]
    assert [r.reason for r in rejections] == ["year '-3' is not positive", "year '0' is not positive"]
    records, rejections = corpus.parse_records(io.StringIO('{"award_code": "12/IA/1570", "year": -3}\n'), fmt="jsonl")
    assert not records and [r.reason for r in rejections] == ["year -3 is not positive"]


def test_parse_unknown_pub_type_maps_to_other():
    text = HEADER + "12/IA/1570,2014,data paper,1.0,5,t,a1\n"
    records, _ = corpus.parse_records(io.StringIO(text))
    assert records[0].pub_type == "other"


def test_parse_missing_header_column_fatal():
    with pytest.raises(DataError):
        corpus.parse_records(io.StringIO("award_code,year\n12/IA/1570,2014\n"))


def test_parse_empty_stream_fatal():
    with pytest.raises(DataError):
        corpus.parse_records(io.StringIO(""))


def test_unreadable_csv_line_is_a_format_error_with_its_line():
    text = HEADER + "12/IA/1570,2014,article,1.0,5,t,a1\n" + "12/IA/1570,2014,article,1.0,5," + "x" * 200_000 + ",a2\n"
    with pytest.raises(DataError, match="^line 3: field larger than field limit"):
        corpus.parse_records(io.StringIO(text))
    with pytest.raises(DataError, match="^line 2: field larger than field limit"):
        corpus.load_budgets(io.StringIO("award_code,budget_eur\n12/IA/1570," + "9" * 200_000 + "\n"))


def test_parse_jsonl():
    text = (
        '{"award_code": "SFI/12/IA/1570", "year": 2014, "pub_type": "article", "fwci": 1.5, "source_id": "a"}\n'
        "not json\n"
        '{"award_code": "12/IA/1570", "year": 2015, "pub_type": "review"}\n'
    )
    records, rejections = corpus.parse_records(io.StringIO(text), fmt="jsonl")
    assert len(records) == 2 and len(rejections) == 1
    assert records[0].award_code == "12/IA/1570"
    assert records[1].fwci is None


def test_deeply_nested_jsonl_line_is_a_rejection():
    deep = '{"award_code": ' + "[" * 100_000 + "]" * 100_000 + "}"
    good = '{"award_code": "12/IA/1570", "year": 2014, "pub_type": "article", "fwci": 1.5}'
    records, rejections = corpus.parse_records(io.StringIO(deep + "\n" + good + "\n"), fmt="jsonl")
    assert [r.award_code for r in records] == ["12/IA/1570"]
    assert [(r.row, r.reason, r.raw) for r in rejections] == [(1, "not valid JSON: nested too deeply", deep)]


@pytest.mark.parametrize(
    "line,reason",
    [
        ('{"award_code": "12/IA/1570", "year": ' + "1" * 5000 + "}", "not valid JSON: a number has too many digits"),
        (
            '{"award_code": "12/IA/1570", "year": 2014, "title": "\\ud800"}',
            "a string holds an unpaired surrogate, which is not Unicode text",
        ),
    ],
    ids=["long-integer", "lone-surrogate"],
)
def test_undecodable_jsonl_line_is_a_rejection(line, reason):
    records, rejections = corpus.parse_records(io.StringIO(line + "\n"), fmt="jsonl")
    assert not records
    assert [(r.row, r.reason, r.raw) for r in rejections] == [(1, reason, line)]


def test_jsonl_surrogate_pair_is_one_character():
    line = '{"award_code": "12/IA/1570", "year": 2014, "title": "\\ud83d\\ude00"}'
    (record,), rejections = corpus.parse_records(io.StringIO(line + "\n"), fmt="jsonl")
    assert not rejections and record.title == "\U0001f600"


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        corpus.parse_records(io.StringIO(""), fmt="xml")


def test_csv_round_trip():
    records = [rec(fwci=1.25, citations=7), rec(code="13/IA/2073", fwci=None, citations=None, source_id="s2")]
    buf = io.StringIO()
    corpus.write_records_csv(records, buf)
    back, rejections = corpus.parse_records(io.StringIO(buf.getvalue()))
    assert not rejections
    assert back == records


def test_csv_writes_floats_by_repr_and_absent_cells_empty():
    records = [
        rec(fwci=1.0, citations=7, title="a, b"),
        rec(fwci=1e-05, citations=None, source_id=""),
        rec(fwci=None, citations=None, source_id=""),
    ]
    buf = io.StringIO()
    corpus.write_records_csv(records, buf)
    assert buf.getvalue() == (
        "award_code,year,pub_type,fwci,citations,title,source_id\n"
        '12/IA/1234,2015,article,1.0,7,"a, b",s1\n'
        "12/IA/1234,2015,article,1e-05,,,\n"
        "12/IA/1234,2015,article,,,,\n"
    )


# --- parse_records against a per-row reference parser ---
#
# parse_records remembers each distinct award code, year and publication type
# cell it has parsed. The reference below parses every row afresh through a
# {column: cell} dict, as the parser did before it kept that state; on any
# input the two must give equal records and equal rejections.


def _ref_number(convert, text):
    if "_" in text or any(ord(c) > 127 for c in text):
        raise ValueError("digit separator or non-ASCII character")
    return convert(text)


def _ref_absent(value):
    return value is None or (isinstance(value, str) and value.strip() == "")


def _ref_award_code(raw):
    """The code rule in steps, not corpus's one regex: strip, drop one ``SFI/``, repair a middle ``1A``, rejoin, check; None if it fails."""
    code = raw.strip()
    if code.startswith("SFI/"):
        code = code[len("SFI/") :]
    parts = code.split("/")
    if len(parts) == 3 and parts[1] == "1A":
        code = "/".join((parts[0], "IA", parts[2]))
    return code if re.match(r"^[0-9]{2}/IA/[0-9]{4}$", code) else None


def _ref_record(fields, row, raw):
    code_raw = fields.get("award_code")
    if _ref_absent(code_raw):
        return RowRejection(row, "missing award_code", raw)
    code = _ref_award_code(str(code_raw))
    if code is None:
        return RowRejection(row, "award code does not match YY/IA/XXXX", raw)
    year_raw = fields.get("year")
    if _ref_absent(year_raw):
        return RowRejection(row, "missing year", raw)
    try:
        year = _ref_number(int, str(year_raw).strip())
    except ValueError:
        return RowRejection(row, f"year {year_raw!r} is not an integer", raw)
    if year <= 0:
        return RowRejection(row, f"year {year_raw!r} is not positive", raw)
    text = str(fields.get("pub_type", "")).strip().lower().replace(" ", "_").replace("-", "_")
    pub_type = text if text in corpus.PUBLICATION_TYPES else "other"
    fwci = None
    fwci_raw = fields.get("fwci")
    if not _ref_absent(fwci_raw):
        try:
            fwci = _ref_number(float, str(fwci_raw).strip())
        except ValueError:
            return RowRejection(row, f"fwci {fwci_raw!r} is not a number", raw)
        if not math.isfinite(fwci):
            return RowRejection(row, "fwci is not finite", raw)
        if fwci < 0:
            return RowRejection(row, "negative fwci", raw)
    citations = None
    cit_raw = fields.get("citations")
    if not _ref_absent(cit_raw):
        try:
            citations = _ref_number(int, str(cit_raw).strip())
        except ValueError:
            return RowRejection(row, f"citations {cit_raw!r} is not an integer", raw)
        if citations < 0:
            return RowRejection(row, "negative citation count", raw)
    title = "" if _ref_absent(fields.get("title")) else str(fields.get("title"))
    source_id = "" if _ref_absent(fields.get("source_id")) else str(fields.get("source_id")).strip()
    return PublicationRecord(code, year, pub_type, fwci, citations, title, source_id)


def _ref_rows(stream, fmt):
    if fmt == "jsonl":
        for lineno, line in enumerate(stream, start=1):
            raw = line.rstrip("\n")
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                yield lineno, f"not valid JSON: {exc.msg}", raw
                continue
            yield lineno, (obj if isinstance(obj, dict) else "line is not a JSON object"), raw
        return
    reader = csv.reader(stream)
    cols = [c.strip().lower() for c in next(reader)]
    index = {name: cols.index(name) for name in corpus.CSV_COLUMNS}
    # every line belongs to a row, a blank line to an empty one, so a row starts on the line after the last row's
    while True:
        first = reader.line_num + 1
        cells = next(reader, None)
        if cells is None:
            return
        if not cells or all(c.strip() == "" for c in cells):
            continue
        fields = {name: (cells[i] if i < len(cells) else "") for name, i in index.items()}
        yield first, fields, _ref_one_line(cells)


def _ref_one_line(cells):
    """The cells as csv.writer quotes them (CR and LF force quotes with a CRLF terminator), CR and LF then escaped."""
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2].replace("\r", "\\r").replace("\n", "\\n")


def reference_parse(text, fmt):
    records, rejections = [], []
    for row, fields, raw in _ref_rows(io.StringIO(text, newline=""), fmt):
        out = RowRejection(row, fields, raw) if isinstance(fields, str) else _ref_record(fields, row, raw)
        (rejections if isinstance(out, RowRejection) else records).append(out)
    return records, rejections


def assert_parses_like_reference(text, fmt):
    records, rejections = corpus.parse_records(io.StringIO(text, newline=""), fmt=fmt)
    ref_records, ref_rejections = reference_parse(text, fmt)
    assert records == ref_records
    assert [(r.row, r.reason, r.raw) for r in rejections] == [(r.row, r.reason, r.raw) for r in ref_rejections]


# Blanks that str.strip() removes; float() and int() do not accept \x1c-\x1f.
_BLANK = st.sampled_from(["", "", " ", "  ", "\t", "\x1c", "\x1f", "\u00a0", "\u3000"])
_TEXT = st.text(max_size=8)


def _either(common, rare, odds=3):
    """``common`` about ``odds`` times as often as ``rare``."""
    return st.sampled_from([True] * odds + [False]).flatmap(lambda pick_common: common if pick_common else rare)


def _cells(usual, odd):
    """A column's cells: mostly ``usual`` values, sometimes ``odd`` ones or any text, with blanks around them.

    The pools are small, so a stream repeats each cell, in rows that parse
    and in rows rejected for another column.
    """
    padded = st.tuples(_BLANK, _either(st.sampled_from(usual), st.sampled_from(odd)), _BLANK).map("".join)
    return _either(padded, _TEXT)


CELLS = {
    "award_code": _cells(
        ["12/IA/1570", "SFI/12/IA/1570", "14/1A/2508", "SFI/14/1A/2508"],
        ["12/IB/1234", "123/IA/1234", "12/ia/1570", "SFI/", "", "SFI/SFI/12/IA/1570", "１２/IA/1570", "12/IA/1570/x", "sfi/12/IA/1570"],
    ),
    "year": _cells(["2014", "2015", "0", "-3", "+7", "1_000", "\u0662\u0660"], ["2014.0", "1e3", "noyear", ""]),
    "pub_type": _cells(
        ["article", "Article", "Conference Paper", "conference-paper", "review", "NOTE"], ["data paper", "", "-"]
    ),
    "fwci": st.one_of(
        _cells(["1.5", "0", "0.0", "-0.0", "2e-3", "1_0"], ["-1", "nan", "NaN", "inf", "-inf", "1e999", "abc", ""]),
        st.floats().map(repr),
    ),
    "citations": st.one_of(
        _cells(["3", "0", "1_000", "+4"], ["-2", "many", "1.5", "nan", ""]), st.integers(-9, 10**6).map(str)
    ),
    "title": _cells(["Paper one", "a,b", 'say "hi"'], ["", "\n"]),
    "source_id": _cells(["W1", "W2"], [""]),
    "extra": _TEXT,
}


@st.composite
def csv_tables(draw):
    """A record table: shuffled columns plus an extra one, short and blank rows, either line ending."""
    order = draw(st.permutations([*corpus.CSV_COLUMNS, "extra"]))
    header = [draw(st.sampled_from([name, name.upper(), f" {name} "])) for name in order]
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(CELLS[name]) for name in order]
        rows.append(row if draw(st.sampled_from([True] * 3 + [False])) else row[: draw(st.integers(0, len(row)))])
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows([header, *rows])
    return buf.getvalue()


# Most JSON values come from a pool whose members are equal as dict keys
# (1, 1.0, True; 0, 0.0, False; 2014, 2014.0) but not as text.
_JSON_VALUES = _either(
    st.sampled_from([None, True, 1, 1.0, "1", False, 0, 0.0, 2014, 2014.0]),
    st.one_of(
        st.integers(-(10**6), 10**6),
        st.floats(),
        _TEXT,
        st.lists(st.integers(0, 9), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2),
    ),
    odds=2,
)


@st.composite
def jsonl_streams(draw):
    """JSONL lines: objects whose values are any JSON type, scalars, broken JSON and blank lines."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["object"] * 5 + ["scalar", "broken", "blank"]))
        if kind == "object":
            keep = st.sampled_from([True] * 4 + [False])
            odds = {"award_code": 3}  # a row with a valid code goes on to parse its other cells
            obj = {
                name: draw(_either(CELLS[name], _JSON_VALUES, odds.get(name, 1)))
                for name in corpus.CSV_COLUMNS
                if draw(keep)
            }
            lines.append(json.dumps(obj))
        elif kind == "scalar":
            lines.append(json.dumps(draw(_JSON_VALUES)))
        else:
            pool = ["not json", "{", '{"year": }', "[1, 2"] if kind == "broken" else ["", "  "]
            lines.append(draw(st.sampled_from(pool)))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(csv_tables())
def test_csv_parse_matches_per_row_reference(text):
    assert_parses_like_reference(text, "csv")


@settings(max_examples=100, deadline=None)
@given(jsonl_streams())
def test_jsonl_parse_matches_per_row_reference(text):
    assert_parses_like_reference(text, "jsonl")


def test_memo_keeps_json_values_apart_from_their_text():
    # 1, 1.0 and True are one dict key; as year cells they give 1, an error and an error.
    lines = [{"award_code": "12/IA/1570", "year": y} for y in ("1", 1, 1.0, True, "True", " 1 ")]
    text = "".join(json.dumps(obj) + "\n" for obj in lines)
    assert_parses_like_reference(text, "jsonl")
    records, rejections = corpus.parse_records(io.StringIO(text), fmt="jsonl")
    assert [r.year for r in records] == [1, 1, 1]
    assert [r.reason for r in rejections] == [
        "year 1.0 is not an integer",
        "year True is not an integer",
        "year 'True' is not an integer",
    ]


def test_record_keeps_frozen_slots():
    record = rec()
    with pytest.raises(AttributeError):
        record.fwci = 2.0
    assert not hasattr(record, "__dict__")
    assert hash(record) == hash(rec()) and record == rec()


def test_record_is_a_tuple_of_its_fields():
    record = rec(fwci=1.5, citations=3, title="t")
    assert record._fields == corpus.CSV_COLUMNS
    assert record == ("12/IA/1234", 2015, "article", 1.5, 3, "t", "s1") == tuple(record)


# --- write_records_csv ---


def test_written_title_and_source_id_read_back():
    # csv.writer(lineterminator="\n") leaves a bare CR unquoted, so the row splits in two on reading
    texts = ["Carriage\rReturn", "CR LF\r\nend", "a, b", 'say "hi"', "line\nbreak", '"\r"']
    records = [rec(title=text, source_id=f"S{text}E") for text in texts] + [rec(title="plain", source_id="SX")]
    buf = io.StringIO(newline="")
    corpus.write_records_csv(records, buf)
    back, rejections = corpus.parse_records(io.StringIO(buf.getvalue(), newline=""))
    assert not rejections
    assert back == records


@st.composite
def parsed_records(draw):
    """A record as parse_records gives one, with title and source_id cells from the parser's pools."""
    title = draw(st.one_of(CELLS["title"], st.sampled_from(["Carriage\rReturn", "\r\n", '\r"q"'])))
    source_id = draw(st.one_of(CELLS["source_id"], _TEXT))
    return PublicationRecord(
        draw(st.sampled_from(["12/IA/1570", "14/IA/2508"])),
        draw(st.integers(1, 3000)),
        draw(st.sampled_from(sorted(corpus.PUBLICATION_TYPES))),
        draw(st.none() | st.floats(min_value=0, allow_infinity=False)),
        draw(st.none() | st.integers(0, 10**9)),
        title if title.strip() else "",
        source_id.strip(),
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(parsed_records(), max_size=12))
def test_writer_matches_csv_writer_and_reads_back(records):
    buf = io.StringIO(newline="")
    corpus.write_records_csv(records, buf)
    if not any("\r" in r.title + r.source_id for r in records):
        oracle = io.StringIO(newline="")
        csv.writer(oracle, lineterminator="\n").writerows([corpus.CSV_COLUMNS, *records])
        assert buf.getvalue() == oracle.getvalue()
    back, rejections = corpus.parse_records(io.StringIO(buf.getvalue(), newline=""))
    assert not rejections
    assert back == records


def test_writer_memory_does_not_grow_with_the_file():
    # 50,000 formatted rows take about 6 MB; the writer holds one chunk of them at a time
    records = [
        rec(code=f"12/IA/{i % 10_000:04d}", fwci=i / 7, citations=i, title=f"Paper number {i}", source_id=f"W{i}")
        for i in range(50_000)
    ]

    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    sink = Sink()
    tracemalloc.start()
    try:
        corpus.write_records_csv(records, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 3_000_000
    assert peak < 4 * 2**20, f"writing 50,000 records peaked at {peak:,} bytes"


# --- filter_eligible ---


def test_filter_excludes_review():
    records = [rec(fwci=1.2), rec(pub_type="review", fwci=3.0, source_id="s2")]
    kept = corpus.filter_eligible(records)
    assert kept == [records[0]]


def test_filter_drops_absent_fwci_when_required():
    records = [rec(fwci=None)]
    assert corpus.filter_eligible(records) == []


def test_filter_keeps_zero_fwci():
    records = [rec(pub_type="conference_paper", fwci=0.0)]
    assert corpus.filter_eligible(records) == records


def test_filter_is_pure_subsequence():
    records = [
        rec(fwci=1.0, source_id="a"),
        rec(pub_type="editorial", fwci=1.0, source_id="b"),
        rec(pub_type="note", fwci=2.0, source_id="c"),
        rec(pub_type="book_chapter", fwci=0.5, source_id="d"),
    ]
    kept = corpus.filter_eligible(records)
    assert kept == [records[0], records[2]]
    it = iter(records)
    assert all(any(k is r for r in it) for k in kept)  # order preserved


# --- split_low_fwci ---


def test_split_threshold_zero_gives_empty_low():
    records = [rec(fwci=0.0), rec(fwci=1.0, source_id="s2")]
    low, main = corpus.split_low_fwci(records, 0.0)
    assert low == [] and main == records


def test_split_requires_fwci():
    with pytest.raises(ValueError):
        corpus.split_low_fwci([rec(fwci=None)], 0.1)


@given(st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), max_size=60), st.floats(min_value=0, max_value=10))
def test_split_is_a_partition(values, threshold):
    records = [rec(fwci=v, source_id=f"s{i}") for i, v in enumerate(values)]
    low, main = corpus.split_low_fwci(records, threshold)
    assert len(low) + len(main) == len(records)
    assert all(r.fwci < threshold for r in low)
    assert all(r.fwci >= threshold for r in main)
    assert sorted(low + main, key=lambda r: r.source_id) == sorted(records, key=lambda r: r.source_id)


def test_split_counts_generated_sample(trunc_sampler):
    # 1000 draws plus 88 zero-impact records: the zeros and the sub-threshold
    # draws land on the low side, nothing else does.
    draws = trunc_sampler(1000, -0.0761, 0.933, seed=5)
    records = [rec(fwci=float(v), source_id=f"d{i}") for i, v in enumerate(draws)]
    records += [rec(fwci=0.0, source_id=f"z{i}") for i in range(88)]
    low, main = corpus.split_low_fwci(records, 0.1)
    expected_low = 88 + int((draws < 0.1).sum())
    assert len(low) == expected_low
    assert len(main) == len(records) - expected_low


# --- dedupe_per_award ---


def test_dedupe_keeps_first_within_award(caplog):
    records = [rec(fwci=1.0, source_id="x"), rec(fwci=2.0, source_id="x"), rec(fwci=3.0, source_id="y")]
    kept, dropped = corpus.dedupe_per_award(records)
    assert kept == [records[0], records[2]] and dropped == 1
    assert not caplog.records  # the count is the report; no log line per duplicate


def test_dedupe_allows_same_paper_on_two_awards():
    records = [rec(code="12/IA/1111", source_id="x"), rec(code="12/IA/2222", source_id="x")]
    kept, dropped = corpus.dedupe_per_award(records)
    assert kept == records and dropped == 0


def test_dedupe_ignores_missing_source_id():
    records = [rec(source_id=""), rec(source_id="")]
    kept, dropped = corpus.dedupe_per_award(records)
    assert kept == records and dropped == 0


# --- summarize_awards ---


def test_summary_mean_is_arithmetic():
    records = [rec(fwci=0.5, source_id="a"), rec(fwci=1.5, source_id="b")]
    (summary,) = corpus.summarize_awards(records)
    assert summary.mean_fwci == 1.0 and summary.n_papers == 2


def test_summaries_sorted_and_counts_conserved():
    records = [
        rec(code="13/IA/2073", source_id="a"),
        rec(code="11/IA/0001", source_id="b"),
        rec(code="13/IA/2073", source_id="c"),
    ]
    summaries = corpus.summarize_awards(records)
    assert [s.award_code for s in summaries] == ["11/IA/0001", "13/IA/2073"]
    assert sum(s.n_papers for s in summaries) == len(records)


def test_summary_cost_per_paper_uses_budget():
    records = [rec(source_id="a"), rec(source_id="b")]
    (summary,) = corpus.summarize_awards(records, budgets={"12/IA/1234": 1_000_000.0})
    assert summary.budget == 1_000_000.0
    assert summary.cost_per_paper == 500_000.0


def test_summary_without_budget_has_no_cost():
    (summary,) = corpus.summarize_awards([rec()])
    assert summary.budget is None and summary.cost_per_paper is None


def test_summarize_empty():
    assert corpus.summarize_awards([]) == []


@given(st.lists(st.tuples(st.integers(0, 4), st.floats(min_value=0, max_value=9, allow_nan=False)), max_size=40))
def test_summary_paper_counts_sum_to_input(pairs):
    records = [rec(code=f"12/IA/{100 + c:04d}", fwci=v, source_id=f"s{i}") for i, (c, v) in enumerate(pairs)]
    summaries = corpus.summarize_awards(records)
    assert sum(s.n_papers for s in summaries) == len(records)


# --- budgets and totals ---


def test_load_budgets():
    text = "award_code,budget_eur\nSFI/12/IA/1570,2500000\nbad code,100\n12/IA/2222,-5\n12/IA/3333\n"
    budgets, rejections = corpus.load_budgets(io.StringIO(text))
    assert budgets == {"12/IA/1570": 2_500_000.0}
    assert [(r.row, r.reason) for r in rejections] == [
        (3, "award code does not match YY/IA/XXXX"),
        (4, "budget_eur must be a finite non-negative amount"),
        (5, "budget_eur is not a number"),  # a short row reads its missing cell as empty
    ]


@pytest.mark.parametrize(
    "cell,reason",
    [
        ("", "missing award_code"),
        ("   ", "missing award_code"),
        ("bad code", "award code does not match YY/IA/XXXX"),
        ("１２/IA/1234", "award code does not match YY/IA/XXXX"),
        ("12/IB/1234", "award code does not match YY/IA/XXXX"),
        ("SFI/12/1A/1570", ""),
    ],
)
def test_budget_and_record_tables_read_a_code_cell_alike(cell, reason):
    budgets, budget_rejections = corpus.load_budgets(io.StringIO(f"award_code,budget_eur\n{cell},100\n"))
    records, record_rejections = corpus.parse_records(io.StringIO(HEADER + f"{cell},2014,article,1.0,5,t,a1\n"))
    assert [(r.row, r.reason) for r in budget_rejections] == [(r.row, r.reason) for r in record_rejections]
    assert [(r.row, r.reason) for r in budget_rejections] == ([(2, reason)] if reason else [])
    if not reason:
        assert list(budgets) == [r.award_code for r in records] == ["12/IA/1570"]


def test_a_repeated_budget_code_keeps_the_first_amount():
    # rows 2, 4 and 6 normalize to one code; row 3's rejected amount claims nothing, so row 5 is the first for 12/IA/1571
    text = "award_code,budget_eur\n08/IA/1234,100\n12/IA/1571,-1\nSFI/08/IA/1234,900\n12/IA/1571,50\n08/1A/1234,7\n"
    budgets, rejections = corpus.load_budgets(io.StringIO(text))
    assert budgets == {"08/IA/1234": 100.0, "12/IA/1571": 50.0}
    assert [(r.row, r.reason, r.raw) for r in rejections] == [
        (3, "budget_eur must be a finite non-negative amount", "12/IA/1571,-1"),
        (4, "award code 08/IA/1234 repeats row 2; the first amount is kept", "SFI/08/IA/1234,900"),
        (6, "award code 08/IA/1234 repeats row 2; the first amount is kept", "08/1A/1234,7"),
    ]


def test_budget_amounts_are_read_like_record_numbers():
    text = "award_code,budget_eur\n12/IA/1570,1_000\n12/IA/1571,１０\n12/IA/1572, 2500 \n"
    budgets, rejections = corpus.load_budgets(io.StringIO(text))
    assert budgets == {"12/IA/1572": 2500.0}
    assert [(r.row, r.reason) for r in rejections] == [(2, "budget_eur is not a number"), (3, "budget_eur is not a number")]


def test_a_rejected_budget_row_with_line_breaks_gives_its_first_line_on_one_line():
    # row 2 spans lines 2-3 and is accepted; rows 4-6 (CRLF inside a cell counts once) and 7-8 are rejected
    text = 'award_code,budget_eur,note\r\n08/IA/1234,"100\n",a\r\n12/IA/1571,"-1","x\r\ny\rz"\r\n08/IA/1234,"7","b\nc"\r\n'
    budgets, rejections = corpus.load_budgets(io.StringIO(text, newline=""))
    assert budgets == {"08/IA/1234": 100.0}
    assert [(r.row, r.reason, r.raw) for r in rejections] == [
        (4, "budget_eur must be a finite non-negative amount", '12/IA/1571,-1,"x\\r\\ny\\rz"'),
        (7, "award code 08/IA/1234 repeats row 2; the first amount is kept", '08/IA/1234,7,"b\\nc"'),
    ]


def test_load_budgets_missing_column():
    with pytest.raises(DataError):
        corpus.load_budgets(io.StringIO("award_code,amount\n"))


def test_portfolio_totals_cover_budgeted_awards_only():
    summaries = [
        AwardSummary(award_code="11/IA/0001", n_papers=10, mean_fwci=1.0, budget=100.0, cost_per_paper=10.0),
        AwardSummary(award_code="11/IA/0002", n_papers=5, mean_fwci=1.0),
    ]
    totals = corpus.portfolio_totals(summaries)
    assert totals.n_awards == 2 and totals.n_papers == 15
    assert totals.n_awards_with_budget == 1 and totals.n_papers_with_budget == 10
    assert totals.total_budget == 100.0 and totals.cost_per_paper == 10.0


def test_portfolio_totals_empty():
    totals = corpus.portfolio_totals([])
    assert totals.n_awards == 0 and totals.cost_per_paper is None


def test_rejection_carries_context():
    r = RowRejection(row=7, reason="x", raw="a,b")
    assert (r.row, r.reason, r.raw) == (7, "x", "a,b")
