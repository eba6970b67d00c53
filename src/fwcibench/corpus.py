"""Publication corpus handling: parsing, award-code cleanup, eligibility, summaries."""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, TextIO

PUBLICATION_TYPES = frozenset(
    {
        "article",
        "conference_paper",
        "letter",
        "note",
        "review",
        "editorial",
        "short_survey",
        "book_chapter",
        "other",
    }
)

DEFAULT_INCLUDED_TYPES = frozenset({"article", "conference_paper", "letter", "note"})

CSV_COLUMNS = ("award_code", "year", "pub_type", "fwci", "citations", "title", "source_id")

# The one award-code rule: YY/IA/XXXX, with an optional leading SFI/ stripped and the
# digit-one-for-letter-I typo (1A) repaired. Anything else is rejected, not guessed
# at: a typo'd code spawns a phantom award. [0-9], not \d: \d also matches
# full-width and other Unicode digits, which would spawn a second award.
_AWARD_CODE = re.compile(r"(?:SFI/)?([0-9]{2})/[I1]A/([0-9]{4})")
# What a JSON "\ud800"-style escape decodes to when no partner completes the pair.
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")
_MISSING_CODE = "missing award_code"
_WRITE_CHUNK = 4096  # rows per write: one join of a 190k-row file raised ingest's peak RSS from 92 to 121 MB


class DataError(Exception):
    """The input cannot be used: not a readable table, not UTF-8 text, or nothing a command can compute on."""


class NumericalError(Exception):
    """A computation broke down: every ensemble fit failed, a derived statistic overflowed, or a simulated median underflowed."""


class PublicationRecord(NamedTuple):
    """One publication attributed to an award, with its precomputed FWCI if any.

    A record is a tuple of its seven fields, in ``CSV_COLUMNS`` order, and
    compares equal to a plain tuple of the same fields. Its fields are
    read-only, and it is built in one step, with no per-field attribute
    stores: ingest builds one per input row.
    """

    award_code: str
    year: int
    pub_type: str
    fwci: float | None = None
    citations: int | None = None
    title: str = ""
    source_id: str = ""


@dataclass(frozen=True)
class AwardSummary:
    """Per-award aggregate over its eligible publications."""

    award_code: str
    n_papers: int
    mean_fwci: float | None = None
    budget: float | None = None
    cost_per_paper: float | None = None


@dataclass(frozen=True)
class RowRejection:
    """A rejected input row, kept with enough context to audit by hand."""

    row: int
    reason: str
    raw: str


@dataclass(frozen=True)
class PortfolioTotals:
    """Whole-portfolio bookkeeping over a list of award summaries."""

    n_awards: int
    n_papers: int
    n_awards_with_budget: int
    n_papers_with_budget: int
    total_budget: float | None
    cost_per_paper: float | None


def _text(cell: object) -> str:
    """A cell's text with surrounding blanks stripped; an absent cell (JSON null) reads as empty."""
    return "" if cell is None else str(cell).strip()


def _parse_pub_type(cell: object) -> str:
    text = _text(cell).lower().replace(" ", "_").replace("-", "_")
    return text if text in PUBLICATION_TYPES else "other"


def _parse_award_code(cell: object) -> tuple[str, str]:
    """``(canonical code, "")``, or ``("", reason)`` when the row must be rejected."""
    text = _text(cell)
    if not text:
        return "", _MISSING_CODE
    m = _AWARD_CODE.fullmatch(text)
    return (f"{m[1]}/IA/{m[2]}", "") if m else ("", "award code does not match YY/IA/XXXX")


def _number(convert: Callable, text: str):
    """``convert(text)`` for int or float, refusing the ``_`` separators and non-ASCII digits they read (``1_0``, ``１０``)."""
    if "_" in text or not text.isascii():
        raise ValueError(f"digit separator or non-ASCII character in {text!r}")
    return convert(text)


def _parse_year(cell: object) -> tuple[int, str]:
    """``(year, "")``, or ``(0, reason)`` when the row must be rejected."""
    text = _text(cell)
    if not text:
        return 0, "missing year"
    try:
        year = _number(int, text)
    except ValueError:
        return 0, f"year {cell!r} is not an integer"
    return (year, "") if year > 0 else (0, f"year {cell!r} is not positive")


def _csv_header(reader: Iterator[list[str]], required: tuple[str, ...], what: str) -> tuple[Callable, int]:
    """``(pick, width)`` from a CSV table's header row: ``pick`` maps a row of ``width`` or more cells to its cells of ``required``.

    The header must name every column in ``required`` (case and surrounding
    blanks ignored; at least two, so the cells come as a tuple); other
    columns are ignored.
    """
    header = next(reader, None)
    if header is None:
        raise DataError(f"empty {what} table: no header row")
    cols = [c.strip().lower() for c in header]
    missing = [c for c in required if c not in cols]
    if missing:
        raise DataError(f"{what} header is missing columns: {', '.join(missing)}")
    index = [cols.index(name) for name in required]
    return operator.itemgetter(*index), max(index) + 1


def _first_line(line_num: int, cells: list[str]) -> int:
    """The first line of a CSV row that ``csv.reader`` read up to line ``line_num``: less the line breaks in its cells, a CRLF counting once."""
    text = ",".join(cells)
    return line_num - text.count("\n") - text.count("\r") + text.count("\r\n")


def _csv_rejection(line_num: int, reason: str, cells: list[str]) -> RowRejection:
    """A rejected CSV row, numbered by its first line, with its cells on one line of ``rejections.txt``.

    A cell that holds ``,``, ``"``, CR or LF is quoted as
    :func:`write_records_csv` quotes it, with CR and LF written as ``\\r``
    and ``\\n``; other cells are written as read.
    """
    raw = ",".join(_quoted(c).replace("\r", "\\r").replace("\n", "\\n") if re.search('[,"\r\n]', c) else c for c in cells)
    return RowRejection(_first_line(line_num, cells), reason, raw)


def _jsonl_rows(stream: TextIO, rejections: list[RowRejection]) -> Iterator[list]:
    """Yield ``[value of each of CSV_COLUMNS, line_num, line]`` for each JSON object line of a JSONL stream.

    A value is ``None`` where its key is missing. Blank lines are skipped.
    Any other line is added to ``rejections`` before the next row is
    yielded: one that is not a JSON object, cannot be decoded (bad syntax,
    nesting too deep, an integer too long), or holds a ``\\udXXX`` escape
    that no output file can encode.
    """
    for lineno, line in enumerate(stream, start=1):
        raw = line.rstrip("\r\n")
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            reason = f"not valid JSON: {exc.msg}"
        except RecursionError:
            reason = "not valid JSON: nested too deeply"
        except ValueError:  # an integer past the interpreter's digit limit
            reason = "not valid JSON: a number has too many digits"
        else:
            fields = list(map(obj.get, CSV_COLUMNS)) if isinstance(obj, dict) else None
            if fields is None:
                reason = "line is not a JSON object"
            elif any(type(v) is str and _LONE_SURROGATE.search(v) for v in fields):
                reason = "a string holds an unpaired surrogate, which is not Unicode text"
            else:
                yield [*fields, lineno, raw]
                continue
        rejections.append(RowRejection(lineno, reason, raw))


def parse_records(stream: TextIO, fmt: str = "csv") -> tuple[list[PublicationRecord], list[RowRejection]]:
    """Parse publication records from ``stream``.

    ``fmt`` is ``"csv"`` (comma-separated with a header row) or ``"jsonl"``
    (one JSON object per line, same field names). Malformed rows never abort
    the parse: they are collected as :class:`RowRejection` entries with the
    row number and reason. An empty FWCI cell parses to absent, not zero.

    One loop holds the field rules of both formats. CSV cells are always
    ``str``; JSONL cells may be any JSON value, which is read through its
    ``str`` form but quoted as itself in a reason.
    """
    records: list[PublicationRecord] = []
    rejections: list[RowRejection] = []
    if fmt == "csv":
        rows = reader = csv.reader(stream)
        reject = lambda reason, cells: _csv_rejection(reader.line_num, reason, cells)  # noqa: E731
    elif fmt == "jsonl":
        rows = _jsonl_rows(stream, rejections)
        reject = lambda reason, row: RowRejection(row[-2], reason, row[-1])  # noqa: E731
        pick, width = operator.itemgetter(*range(len(CSV_COLUMNS))), len(CSV_COLUMNS)
    else:
        raise ValueError(f"unknown record format {fmt!r} (expected 'csv' or 'jsonl')")
    # Award codes, years and publication types repeat from row to row: parse
    # each distinct cell once. The memos take only str cells: JSON's 1, 1.0
    # and True are one key but three texts, and lists are not hashable.
    codes, years, pub_types = map(functools.cache, (_parse_award_code, _parse_year, _parse_pub_type))
    # No Python-level call per accepted row: a frame per row (a generator, a
    # field parser, the NamedTuple's __new__) costs more than the rules.
    new, isfinite = tuple.__new__, math.isfinite
    try:
        if fmt == "csv":
            pick, width = _csv_header(reader, CSV_COLUMNS, "record")
        for cells in rows:
            code_cell, year_cell, type_cell, fwci_cell, cit_cell, title_cell, source_cell = pick(
                cells if len(cells) >= width else cells + [""] * width
            )
            code, reason = codes(code_cell) if type(code_cell) is str else _parse_award_code(code_cell)
            if not reason:
                year, reason = years(year_cell) if type(year_cell) is str else _parse_year(year_cell)
            fwci = citations = None
            if not reason:
                text = fwci_cell.strip() if type(fwci_cell) is str else _text(fwci_cell)
                if text:
                    # "_" and non-ASCII digits are refused, as _number refuses them
                    try:
                        fwci = float(text) if "_" not in text and text.isascii() else None
                    except ValueError:
                        pass
                    if fwci is None:
                        reason = f"fwci {fwci_cell!r} is not a number"
                    elif not isfinite(fwci):
                        reason = "fwci is not finite"
                    elif fwci < 0:
                        reason = "negative fwci"
            if not reason:
                text = cit_cell.strip() if type(cit_cell) is str else _text(cit_cell)
                if text:
                    try:
                        citations = int(text) if "_" not in text and text.isascii() else None
                    except ValueError:
                        pass
                    if citations is None:
                        reason = f"citations {cit_cell!r} is not an integer"
                    elif citations < 0:
                        reason = "negative citation count"
            if reason:
                # a blank CSV row is skipped; it first fails here, as a row with no code
                if not (reason == _MISSING_CODE and fmt == "csv" and not any(map(str.strip, cells))):
                    rejections.append(reject(reason, cells))
                continue
            pub_type = pub_types(type_cell) if type(type_cell) is str else _parse_pub_type(type_cell)
            if type(title_cell) is not str:
                title_cell = "" if title_cell is None else str(title_cell)
            title = title_cell if title_cell.strip() else ""
            source_id = source_cell.strip() if type(source_cell) is str else _text(source_cell)
            records.append(new(PublicationRecord, (code, year, pub_type, fwci, citations, title, source_id)))
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from exc
    return records, rejections


def _read_file(path: str, parse: Callable[[TextIO], tuple]) -> tuple:
    """``parse`` the UTF-8 text file at ``path``, less a leading byte-order mark; a format error names the file."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            return parse(fh)
        except (DataError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: {exc}") from exc


def read_records(path: str) -> tuple[list[PublicationRecord], list[RowRejection]]:
    """Parse a record file, picking the format from its suffix (.jsonl/.ndjson vs CSV)."""
    fmt = "jsonl" if str(path).lower().endswith((".jsonl", ".ndjson")) else "csv"
    return _read_file(path, lambda fh: parse_records(fh, fmt=fmt))


def write_records_csv(records: Iterable[PublicationRecord], stream: TextIO) -> None:
    """Write records back out in the canonical CSV schema (empty cell = absent).

    A row reads as ``csv.writer`` writes it: a float by ``repr``, an int by
    ``str``, None as an empty cell. Only a title or source_id can hold a
    ``,``, ``"``, CR or LF once parsed, and such a cell is quoted, with its
    quotes doubled. Unlike ``csv.writer(lineterminator="\\n")``, this quotes a
    bare CR too, so that the file reads back. Rows are joined
    ``_WRITE_CHUNK`` at a time, so memory does not grow with the file.
    """
    stream.write(",".join(CSV_COLUMNS) + "\n")
    # compiled here, not at import, which every command pays for
    quote, rows = re.compile('[,"\r\n]').search, iter(records)
    while chunk := list(itertools.islice(rows, _WRITE_CHUNK)):
        lines = [
            f"{code},{year},{pub_type},{'' if fwci is None else repr(fwci)},{'' if citations is None else citations},"
            f"{_quoted(title) if quote(title) else title},{_quoted(source) if quote(source) else source}\n"
            for code, year, pub_type, fwci, citations, title, source in chunk
        ]
        stream.write("".join(lines))


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


def dedupe_per_award(records: list[PublicationRecord]) -> tuple[list[PublicationRecord], int]:
    """Drop repeated source_ids within one award, keeping the first occurrence.

    Deduplication is per-award only: the same paper may legitimately appear
    under two different awards (transfers between awards happen). Records
    without a source_id are never deduplicated.
    """
    seen: set[tuple[str, str]] = set()
    kept: list[PublicationRecord] = []
    dropped = 0
    for r in records:
        if r.source_id:
            key = (r.award_code, r.source_id)
            if key in seen:
                dropped += 1
                continue
            seen.add(key)
        kept.append(r)
    return kept, dropped


def filter_eligible(records: Iterable[PublicationRecord]) -> list[PublicationRecord]:
    """Keep records whose type is in DEFAULT_INCLUDED_TYPES and that carry an FWCI.

    A literal FWCI of 0 is a value (an uncited paper), not a missing value;
    only records with no FWCI at all are dropped. Input order is preserved
    and no record is mutated.
    """
    return [r for r in records if r.pub_type in DEFAULT_INCLUDED_TYPES and r.fwci is not None]


def split_low_fwci(
    records: Iterable[PublicationRecord], threshold: float
) -> tuple[list[PublicationRecord], list[PublicationRecord]]:
    """Partition records into (below threshold, remainder) by FWCI.

    Every record must carry an FWCI value. The two lists are disjoint and
    together contain exactly the input records, in order.
    """
    low: list[PublicationRecord] = []
    main: list[PublicationRecord] = []
    for r in records:
        if r.fwci is None:
            raise ValueError(f"record {r.source_id or r.title!r} has no FWCI value")
        (low if r.fwci < threshold else main).append(r)
    return low, main


def summarize_awards(
    records: Iterable[PublicationRecord], budgets: Mapping[str, float] | None = None
) -> list[AwardSummary]:
    """Aggregate one summary per distinct award code, sorted by code.

    ``mean_fwci`` is the plain arithmetic mean over the award's records that
    carry an FWCI. ``cost_per_paper`` is budget / paper count when the award
    has a budget entry. An award whose FWCI values sum past the largest float
    has no mean and raises :class:`DataError`.
    """
    budgets = budgets or {}
    groups: dict[str, list[PublicationRecord]] = {}
    for r in records:
        groups.setdefault(r.award_code, []).append(r)

    summaries: list[AwardSummary] = []
    for code in sorted(groups):
        rows = groups[code]
        fwcis = [r.fwci for r in rows if r.fwci is not None]
        mean = sum(fwcis) / len(fwcis) if fwcis else None
        if mean is not None and not math.isfinite(mean):
            raise DataError(f"award {code}: its FWCI values sum past the largest float; no mean")
        budget = budgets.get(code)
        cost = budget / len(rows) if budget is not None and len(rows) >= 1 else None
        summaries.append(
            AwardSummary(
                award_code=code,
                n_papers=len(rows),
                mean_fwci=mean,
                budget=budget,
                cost_per_paper=cost,
            )
        )
    return summaries


def load_budgets(stream: TextIO) -> tuple[dict[str, float], list[RowRejection]]:
    """Read a two-column budget file (award_code, budget_eur) keyed by normalized code.

    Codes and amounts are read, and rejected rows reported, by the rules of
    :func:`parse_records`. A row whose normalized code an earlier accepted
    row already holds is rejected: the first amount is kept, as
    :func:`dedupe_per_award` keeps the first record.
    """
    budgets: dict[str, float] = {}
    first_rows: dict[str, tuple[int, list[str]]] = {}
    rejections: list[RowRejection] = []
    reader = csv.reader(stream)
    try:
        pick, width = _csv_header(reader, ("award_code", "budget_eur"), "budget")
        for cells in reader:
            if not any(map(str.strip, cells)):
                continue
            code_cell, amount_cell = pick(cells if len(cells) >= width else cells + [""] * width)
            code, reason = _parse_award_code(code_cell)
            if not reason:
                try:
                    amount = _number(float, amount_cell.strip())
                except ValueError:
                    reason = "budget_eur is not a number"
                else:
                    if not math.isfinite(amount) or amount < 0:
                        reason = "budget_eur must be a finite non-negative amount"
            if not reason and code in first_rows:
                reason = f"award code {code} repeats row {_first_line(*first_rows[code])}; the first amount is kept"
            if reason:
                rejections.append(_csv_rejection(reader.line_num, reason, cells))
                continue
            first_rows[code] = (reader.line_num, cells)
            budgets[code] = amount
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from exc
    return budgets, rejections


def read_budgets(path: str) -> tuple[dict[str, float], list[RowRejection]]:
    """Read a budget file with :func:`load_budgets`."""
    return _read_file(path, load_budgets)


def portfolio_totals(summaries: Iterable[AwardSummary]) -> PortfolioTotals:
    """Totals across awards; cost per paper covers only awards that have a budget."""
    rows = list(summaries)
    n_awards = len(rows)
    n_papers = sum(s.n_papers for s in rows)
    with_budget = [s for s in rows if s.budget is not None]
    total_budget = sum(s.budget for s in with_budget) if with_budget else None
    papers_with_budget = sum(s.n_papers for s in with_budget)
    cost = total_budget / papers_with_budget if total_budget is not None and papers_with_budget else None
    return PortfolioTotals(
        n_awards=n_awards,
        n_papers=n_papers,
        n_awards_with_budget=len(with_budget),
        n_papers_with_budget=papers_with_budget,
        total_budget=total_budget,
        cost_per_paper=cost,
    )
