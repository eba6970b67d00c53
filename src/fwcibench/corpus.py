"""Publication corpus handling: parsing, award-code cleanup, eligibility, summaries."""

from __future__ import annotations

import csv
import functools
import json
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

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

# [0-9], not \d: \d also matches full-width and other Unicode digits, which would spawn a second award.
_CANONICAL_CODE = re.compile(r"^[0-9]{2}/IA/[0-9]{4}$")
# What a JSON "\ud800"-style escape decodes to when no partner completes the pair.
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


class AwardCodeError(ValueError):
    """A grant code that cannot be brought to the canonical YY/IA/XXXX form."""

    def __init__(self, raw: str, reason: str):
        super().__init__(f"bad award code {raw!r}: {reason}")
        self.raw = raw
        self.reason = reason


class DataError(Exception):
    """The input cannot be used: not a readable table, not UTF-8 text, or nothing a command can compute on."""


class NumericalError(Exception):
    """A computation broke down: every ensemble fit failed, a derived statistic overflowed, or a simulated median underflowed."""


def normalize_award_code(raw: str) -> str:
    """Normalize a grant identifier to the canonical ``YY/IA/XXXX`` form.

    Strips a leading ``SFI/`` prefix and repairs the digit-one-for-letter-I
    typo in the middle segment (``1A`` becomes ``IA``). Only these two
    documented cleanups are applied; anything else that fails the canonical
    pattern raises :class:`AwardCodeError` rather than being guessed at,
    since typo'd codes are known to spawn phantom awards downstream.
    """
    code = raw.strip()
    if code.startswith("SFI/"):
        code = code[len("SFI/") :]
    parts = code.split("/")
    if len(parts) == 3 and parts[1] == "1A":
        code = "/".join((parts[0], "IA", parts[2]))
    if not _CANONICAL_CODE.match(code):
        raise AwardCodeError(raw, "does not match YY/IA/XXXX")
    return code


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
        return "", "missing award_code"
    try:
        return normalize_award_code(text), ""
    except AwardCodeError as exc:
        return "", f"award code {exc.reason}"


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


def _record_from_fields(
    fields: Sequence[object], codes: Callable, years: Callable, pub_types: Callable
) -> PublicationRecord | str:
    """The record in one row's ``CSV_COLUMNS`` cells, or the reason to reject the row.

    CSV cells are always ``str``; JSONL cells may be any JSON value, which
    is read through its ``str`` form but quoted as itself in a reason.
    ``codes``, ``years`` and ``pub_types`` are the memoised parsers of their
    columns. They take only ``str`` cells: JSON's ``1``, ``1.0`` and ``True``
    are one key but three texts, and lists are not hashable.
    """
    code_cell, year_cell, type_cell, fwci_cell, cit_cell, title_cell, source_cell = fields
    code, reason = codes(code_cell) if type(code_cell) is str else _parse_award_code(code_cell)
    if reason:
        return reason
    year, reason = years(year_cell) if type(year_cell) is str else _parse_year(year_cell)
    if reason:
        return reason

    fwci: float | None = None
    text = fwci_cell.strip() if type(fwci_cell) is str else _text(fwci_cell)
    if text:
        try:
            fwci = _number(float, text)
        except ValueError:
            return f"fwci {fwci_cell!r} is not a number"
        if not math.isfinite(fwci):
            return "fwci is not finite"
        if fwci < 0:
            return "negative fwci"

    citations: int | None = None
    text = cit_cell.strip() if type(cit_cell) is str else _text(cit_cell)
    if text:
        try:
            citations = _number(int, text)
        except ValueError:
            return f"citations {cit_cell!r} is not an integer"
        if citations < 0:
            return "negative citation count"

    if type(title_cell) is not str:
        title_cell = "" if title_cell is None else str(title_cell)
    # Positional, in field order: keyword arguments add about 1 us to every record.
    return PublicationRecord(
        code,
        year,
        pub_types(type_cell) if type(type_cell) is str else _parse_pub_type(type_cell),
        fwci,
        citations,
        title_cell if title_cell.strip() else "",
        source_cell.strip() if type(source_cell) is str else _text(source_cell),
    )


def _csv_rows(
    stream: TextIO, required: tuple[str, ...], what: str
) -> Iterator[tuple[int, tuple[str, ...], list[str]]]:
    """Yield ``(line_num, cells of required, all cells)`` for each non-blank data row of a CSV table.

    The header must name every column in ``required`` (case and surrounding
    blanks ignored; at least two, so the cells come as a tuple); other
    columns are ignored. A row shorter than the header reads its missing
    cells as empty. A line the ``csv`` module cannot read raises
    :class:`DataError` with its line number.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"empty {what} table: no header row")
        cols = [c.strip().lower() for c in header]
        missing = [c for c in required if c not in cols]
        if missing:
            raise DataError(f"{what} header is missing columns: {', '.join(missing)}")
        index = [cols.index(name) for name in required]
        pick = operator.itemgetter(*index)
        width = max(index) + 1
        for cells in reader:
            if not any(map(str.strip, cells)):
                continue
            yield reader.line_num, pick(cells if len(cells) >= width else cells + [""] * width), cells
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from exc


def _jsonl_rows(stream: TextIO) -> Iterator[tuple[int, tuple[object, ...] | str, list[str]]]:
    """Yield ``(line_num, fields, [line])`` for each non-blank line of a JSONL stream.

    ``fields`` holds the line's values for ``CSV_COLUMNS`` (``None`` where a
    key is missing), or is the reason for rejecting the line: it is not a
    JSON object, cannot be decoded (bad syntax, nesting too deep, an integer
    too long), or holds a ``\\udXXX`` escape that no output file can encode.
    """
    for lineno, line in enumerate(stream, start=1):
        raw = line.rstrip("\n")
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            fields = f"not valid JSON: {exc.msg}"
        except RecursionError:
            fields = "not valid JSON: nested too deeply"
        except ValueError:  # an integer past the interpreter's digit limit
            fields = "not valid JSON: a number has too many digits"
        else:
            fields = tuple(map(obj.get, CSV_COLUMNS)) if isinstance(obj, dict) else "line is not a JSON object"
        if isinstance(fields, tuple) and any(type(v) is str and _LONE_SURROGATE.search(v) for v in fields):
            fields = "a string holds an unpaired surrogate, which is not Unicode text"
        yield lineno, fields, [raw]


def parse_records(stream: TextIO, fmt: str = "csv") -> tuple[list[PublicationRecord], list[RowRejection]]:
    """Parse publication records from ``stream``.

    ``fmt`` is ``"csv"`` (comma-separated with a header row) or ``"jsonl"``
    (one JSON object per line, same field names). Malformed rows never abort
    the parse: they are collected as :class:`RowRejection` entries with the
    row number and reason. An empty FWCI cell parses to absent, not zero.
    """
    if fmt == "csv":
        rows = _csv_rows(stream, CSV_COLUMNS, "record")
    elif fmt == "jsonl":
        rows = _jsonl_rows(stream)
    else:
        raise ValueError(f"unknown record format {fmt!r} (expected 'csv' or 'jsonl')")
    # Award codes, years and publication types repeat from row to row: parse each distinct cell once.
    codes, years, pub_types = map(functools.cache, (_parse_award_code, _parse_year, _parse_pub_type))
    records: list[PublicationRecord] = []
    rejections: list[RowRejection] = []
    for line_num, fields, cells in rows:
        out = fields if isinstance(fields, str) else _record_from_fields(fields, codes, years, pub_types)
        if isinstance(out, str):
            rejections.append(RowRejection(line_num, out, ",".join(cells)))
        else:
            records.append(out)
    return records, rejections


def _read_file(path: str, parse: Callable[[TextIO], tuple]) -> tuple:
    """``parse`` the UTF-8 text file at ``path``; a format error names the file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return parse(fh)
        except (DataError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: {exc}") from exc


def read_records(path: str) -> tuple[list[PublicationRecord], list[RowRejection]]:
    """Parse a record file, picking the format from its suffix (.jsonl/.ndjson vs CSV)."""
    fmt = "jsonl" if str(path).lower().endswith((".jsonl", ".ndjson")) else "csv"
    return _read_file(path, lambda fh: parse_records(fh, fmt=fmt))


def write_records_csv(records: Iterable[PublicationRecord], stream: TextIO) -> None:
    """Write records back out in the canonical CSV schema (empty cell = absent)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.award_code,
                r.year,
                r.pub_type,
                "" if r.fwci is None else repr(float(r.fwci)),
                "" if r.citations is None else r.citations,
                r.title,
                r.source_id,
            ]
        )


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
    """Read a two-column budget file (award_code, budget_eur) keyed by normalized code."""
    budgets: dict[str, float] = {}
    rejections: list[RowRejection] = []
    for line_num, (code_cell, amount_cell), cells in _csv_rows(stream, ("award_code", "budget_eur"), "budget"):
        try:
            code = normalize_award_code(code_cell)
        except AwardCodeError as exc:
            rejections.append(RowRejection(line_num, f"award code {exc.reason}", ",".join(cells)))
            continue
        try:
            amount = _number(float, amount_cell.strip())
        except ValueError:
            rejections.append(RowRejection(line_num, "budget_eur is not a number", ",".join(cells)))
            continue
        if not math.isfinite(amount) or amount < 0:
            reason = "budget_eur must be a finite non-negative amount"
            rejections.append(RowRejection(line_num, reason, ",".join(cells)))
            continue
        budgets[code] = amount
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
