"""Data ingestion: survey-expectations API client and market CSV contracts.

The expectations client speaks the public OData dialect of the Central Bank
of Brazil's open-data service for annual market expectations (median
statistic only).  Pagination follows server-driven ``@odata.nextLink``
when present and falls back to ``$skip``/``$top`` paging, for at most
``_MAX_PAGES`` pages per indicator; transient failures (an ``OSError``
from the transport or a 5xx status) are retried with exponential backoff.
All tests run against recorded payloads through the injectable
``transport`` callable, never the live service.

Market data arrives as CSV only: header row, first column ``date`` as
YYYY-MM-DD, remaining columns point-decimal reals (the grammar is pinned
above ``_read_table``).  An empty cell means "no observation for that
series on that date" (series keep independent calendars); any non-empty
cell that does not parse rejects the row, fatally in strict mode.  A
file's newlines are counted first, to size a date array and a value matrix
with a row per line, so rows stay in file order.  Records come one physical
line at a time if no line holds a '"', else from the csv module, which only
normalises them.  In each block of 1024, those with k commas are read in one
``np.loadtxt`` call; only the records that fail it are split into cells.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import logging
import math
import re
import time
import urllib.parse
from contextlib import suppress
from dataclasses import asdict, dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import FetchError, ParseError, SchemaError
from .series import DailySeries, Frame, TradingDate, _frozen

log = logging.getLogger(__name__)

INDICATORS = ("IPCA", "Selic", "PIB", "Primario", "Nominal")
HORIZONS = (0, 1, 2, 3)

# Query names used by the open-data service for each indicator.
INDICATOR_QUERY_NAMES: dict[str, str] = {
    "IPCA": "IPCA",
    "Selic": "Selic",
    "PIB": "PIB Total",
    "Primario": "Resultado primário",
    "Nominal": "Resultado nominal",
}

DEFAULT_ENDPOINT = (
    "https://olinda.bcb.gov.br/olinda/servico/Expectativas/"
    "versao/v1/odata/ExpectativasMercadoAnuais"
)

_MAX_PAGES = 10_000  # pages one indicator's query may take
_BACKOFF_S = 0.5  # the first retry's wait; each later one doubles it

MARKET_COLUMNS = ("DI5Y", "CDS", "DXY", "CRB", "VIX", "UST10", "SURPRISE")

__all__ = [
    "INDICATORS",
    "HORIZONS",
    "MARKET_COLUMNS",
    "DEFAULT_ENDPOINT",
    "FocusRecord",
    "FocusPanel",
    "LoadReport",
    "MarketDataset",
    "horizon_column",
    "fetch_focus",
    "reshape_horizons",
    "load_market_csv",
    "write_market_csv",
    "frame_to_csv",
    "read_frame_csv",
    "write_focus_panel_csv",
    "read_focus_panel_csv",
]


def horizon_column(indicator: str, k: int) -> str:
    """Column name for an indicator's expectation k calendar years ahead."""
    return f"{indicator}_year" if k == 0 else f"{indicator}_year_{k}"


# The 20 horizon columns, indicator-major, nearest horizon first.
HORIZON_COLUMNS = tuple(horizon_column(ind, k) for ind in INDICATORS for k in HORIZONS)


@dataclass(frozen=True)
class FocusRecord:
    survey_date: TradingDate
    indicator: str
    reference_year: int
    median: float


@dataclass(frozen=True)
class FocusPanel:
    """Unique (survey_date, indicator, reference_year) -> median expectations."""

    records: tuple[FocusRecord, ...]

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.records, key=lambda r: (r.survey_date, r.indicator, r.reference_year))
        )
        object.__setattr__(self, "records", ordered)
        seen = set()
        for r in ordered:
            key = (r.survey_date, r.indicator, r.reference_year)
            if key in seen:
                raise SchemaError(f"duplicate panel cell {key}")
            seen.add(key)
            if r.reference_year < r.survey_date.year:
                raise SchemaError(
                    f"reference year {r.reference_year} precedes survey date "
                    f"{r.survey_date}"
                )

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class LoadReport:
    """Counts accumulated across ingestion steps, emitted as JSON."""

    fetched: int = 0
    deduplicated: int = 0
    dropped_dates: int = 0
    rejected_rows: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MarketDataset:
    """Named daily series, one per market variable, independent calendars."""

    series: tuple[DailySeries, ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.series]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate series names in dataset: {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.series)

    def __getitem__(self, name: str) -> DailySeries:
        for s in self.series:
            if s.name == name:
                return s
        raise SchemaError(f"no series '{name}' in dataset {list(self.names)}")


# ---------------------------------------------------------------------------
# Expectations API client
# ---------------------------------------------------------------------------

Transport = Callable[[str], tuple[int, bytes]]


def _urllib_transport(url: str) -> tuple[int, bytes]:
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=60) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:  # an OSError, but the server did answer
        with exc:
            return exc.code, exc.read()


def _fetch_page(
    url: str,
    transport: Transport,
    max_attempts: int,
    sleep: Callable[[float], None],
) -> dict:
    last_status: int | None = None
    last_exc: OSError | None = None
    for attempt in range(max_attempts):
        if attempt:
            sleep(_BACKOFF_S * 2 ** (attempt - 1))
        try:
            status, body = transport(url)
        except OSError as exc:  # connectivity problems are transient
            last_exc, last_status = exc, None
            continue
        if status >= 500:
            last_status, last_exc = status, None
            continue
        if status != 200:
            raise FetchError(f"GET {url} returned status {status}")
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise ParseError(f"GET {url}: response is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or not isinstance(payload.get("value"), list):
            raise ParseError(f"GET {url}: payload lacks a 'value' record list")
        return payload
    detail = f"status {last_status}" if last_status is not None else f"error {last_exc}"
    raise FetchError(
        f"GET {url} failed after {max_attempts} attempts (last: {detail})"
    )


def _parse_record(item: object, reverse_names: Mapping[str, str]) -> FocusRecord:
    if not isinstance(item, dict):
        raise ParseError(f"malformed expectations record (not an object): {item!r}")
    try:
        raw_ind = item["Indicador"]
        raw_date = item["Data"]
        raw_ref = item["DataReferencia"]
        raw_median = item["Mediana"]
    except KeyError as exc:
        raise ParseError(f"malformed expectations record, missing {exc}: {item!r}") from exc
    if raw_ind not in reverse_names:
        raise ParseError(f"unknown indicator {raw_ind!r} in record: {item!r}")
    try:
        survey_date = _read_date(str(raw_date))
        reference_year = _read_year(str(raw_ref))
        if isinstance(raw_median, bool) or not isinstance(raw_median, (str, int, float)):
            raise ValueError(f"median {raw_median!r} is neither a JSON number nor a string")
        # a JSON number is read through its repr, which spells a finite float
        # in the real grammar and round-trips it exactly
        median = _read_real(raw_median if isinstance(raw_median, str) else repr(raw_median))
    except ValueError as exc:
        raise ParseError(f"malformed expectations record ({exc}): {item!r}") from exc
    return FocusRecord(survey_date, reverse_names[raw_ind], reference_year, median)


def fetch_focus(
    indicators: Sequence[str],
    date_range: tuple[TradingDate, TradingDate],
    endpoint: str = DEFAULT_ENDPOINT,
    *,
    transport: Transport | None = None,
    page_size: int = 10_000,
    max_attempts: int = 4,
    sleep: Callable[[float], None] = time.sleep,
    report: LoadReport | None = None,
) -> FocusPanel:
    """Fetch median annual expectations per (date, indicator, reference year).

    Parameters
    ----------
    indicators
        Subset of :data:`INDICATORS` to request.
    date_range
        Inclusive (start, end) survey-date window; must be non-empty.
    endpoint
        Base resource URL of the OData service.
    transport
        ``url -> (status, body)`` callable; defaults to a plain HTTP GET.
        Tests inject recorded payloads here.  A transport reports a
        connection failure by raising ``OSError`` (``ConnectionError``,
        ``TimeoutError`` and ``urllib.error.URLError`` all are); that and a
        5xx status are retried with exponential backoff, up to
        ``max_attempts`` requests.  Any other exception propagates at once.
    report
        Optional counter sink for fetched / deduplicated records.

    Duplicate (date, indicator, year) cells keep the last occurrence and
    log a warning.  Paging that returns to a URL already requested for the
    same indicator, or runs past ``_MAX_PAGES``, raises ``FetchError``.  The
    merged panel is sorted by date, indicator and reference year, so the
    result is deterministic for fixed server data.
    """
    start, end = date_range
    if start > end:
        raise FetchError(f"empty date range {start}..{end}")
    unknown = [i for i in indicators if i not in INDICATOR_QUERY_NAMES]
    if unknown:
        raise SchemaError(f"unknown indicators {unknown}; expected from {INDICATORS}")
    transport = transport or _urllib_transport
    reverse_names = {v: k for k, v in INDICATOR_QUERY_NAMES.items()}

    cells: dict[tuple[TradingDate, str, int], FocusRecord] = {}
    duplicates = 0
    fetched = 0
    for indicator in indicators:
        query_name = INDICATOR_QUERY_NAMES[indicator].replace("'", "''")
        flt = (
            f"Indicador eq '{query_name}' and "
            f"Data ge '{start.isoformat()}' and Data le '{end.isoformat()}'"
        )
        params = {
            "$filter": flt,
            "$select": "Indicador,Data,DataReferencia,Mediana",
            "$orderby": "Data,DataReferencia",
            "$format": "json",
            "$top": str(page_size),
        }
        skip = 0
        url: str | None = f"{endpoint}?{urllib.parse.urlencode(params)}"
        requested: set[str] = set()
        while url is not None:
            if url in requested:
                raise FetchError(f"pagination for {indicator} returns to {url}")
            if len(requested) == _MAX_PAGES:
                raise FetchError(f"pagination for {indicator} runs past {_MAX_PAGES} pages")
            requested.add(url)
            payload = _fetch_page(url, transport, max_attempts, sleep)
            items = payload["value"]
            for item in items:
                record = _parse_record(item, reverse_names)
                key = (record.survey_date, record.indicator, record.reference_year)
                if key in cells:
                    duplicates += 1
                    log.warning("duplicate expectations cell %s, keeping last", key)
                cells[key] = record
                fetched += 1
            next_link = payload.get("@odata.nextLink")
            if next_link:
                url = str(next_link)
            elif len(items) == page_size:
                skip += page_size
                url = f"{endpoint}?{urllib.parse.urlencode({**params, '$skip': str(skip)})}"
            else:
                url = None
    if report is not None:
        report.fetched += fetched
        report.deduplicated += duplicates
    return FocusPanel(tuple(cells.values()))


def reshape_horizons(panel: FocusPanel, report: LoadReport | None = None) -> Frame:
    """Pivot a panel into the 20 horizon columns, one row per complete date.

    A survey date qualifies only if every indicator has a median for the
    reference years ``year(date) + k`` for k in 0..3; incomplete dates are
    dropped and counted in ``report.dropped_dates``.
    """
    if not panel.records:
        raise ParseError("reshape_horizons: empty panel")
    by_date: dict[TradingDate, dict[tuple[str, int], float]] = {}
    for r in panel.records:
        by_date.setdefault(r.survey_date, {})[(r.indicator, r.reference_year)] = r.median
    dates: list[TradingDate] = []
    rows: list[list[float]] = []
    dropped = 0
    for d in sorted(by_date):
        cells = by_date[d]
        try:
            row = [cells[(ind, d.year + k)] for ind in INDICATORS for k in HORIZONS]
        except KeyError:
            dropped += 1
            continue
        dates.append(d)
        rows.append(row)
    if report is not None:
        report.dropped_dates += dropped
    data = np.array(rows) if rows else np.empty((0, len(HORIZON_COLUMNS)))
    return Frame(tuple(dates), HORIZON_COLUMNS, data)


# ---------------------------------------------------------------------------
# CSV contracts
# ---------------------------------------------------------------------------


# Every data row of a market or frame CSV follows one grammar, the same on
# every Python version:
#
#   date   YYYY-MM-DD naming a real calendar day (years 0001-9999);
#   value  a point-decimal real: optional sign, ASCII digits with at most one
#          decimal point, optional exponent -- so not "nan", "inf", "1_000",
#          "12,50" or non-ASCII digits;
#   empty  a cell of only spaces or tabs: no observation.
#
# Spaces and tabs around a cell are ignored.  CSV quoting is accepted: a
# quoted cell loses its quotes and then follows the same grammar, so
# '"12.50"' reads as 12.5 and '"12,50"' is rejected.

_REAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_YEAR = re.compile(r"[0-9]{4}")
# Every character a valid data line may contain.  In lines made of these
# alone, float() and np.loadtxt accept a cell exactly when it matches _REAL.
# A newline, which a quoted cell may hold, is not one of them.
_DATA_CHARS = b"0123456789eE+-. \t,"
_EMPTY_CELL = re.compile(r",[ \t]*(?=,|$)", re.MULTILINE)
# Python 3.10's csv module rejects NUL, which later versions read as an
# ordinary character, so NUL passes through it as \x01 "n" and \x01 itself
# as \x01 "s".
_CSV_ESCAPE = str.maketrans({"\x00": "\x01n", "\x01": "\x01s"})
# Plain runs to cut to "x," or "x": the csv module finds the same record bounds.
_PLAIN_RUN = re.compile(r'[^"\r\n]*(,)|[^",\r\n]+')
_FIRST_DAY, _LAST_DAY = np.datetime64("0001-01-01"), np.datetime64("9999-12-31")
# Rows parsed or formatted at a time, which bounds the transient strings.
_BLOCK_ROWS = 1024


class _RowError(ValueError):
    """Why one record is rejected, with its date when that parsed."""

    def __init__(self, message: str, date: np.datetime64 | None = None):
        super().__init__(message)
        self.date = date


def _to_dates(texts: Sequence[str]) -> np.ndarray:
    """Each text as ``datetime64[D]``; NaT where it is not a YYYY-MM-DD day."""
    try:
        dates = np.array(texts, dtype="datetime64[D]")
    except ValueError:
        dates = np.array([_one_date(t) for t in texts], dtype="datetime64[D]")
    # numpy also reads forms such as 20150113 or 2015-01-13T10; only a text
    # that is its date's own YYYY-MM-DD spelling is a date here
    exact = np.datetime_as_string(dates) == np.array(texts, dtype=str)
    ok = exact & (dates >= _FIRST_DAY) & (dates <= _LAST_DAY)
    return np.where(ok, dates, np.datetime64("NaT"))


def _foreign(text: str) -> bool:
    """Whether the text holds a character outside ``_DATA_CHARS``."""
    return bool(text.encode("utf-8").translate(None, _DATA_CHARS))


def _read_date(text: str) -> dt.date:
    """One YYYY-MM-DD cell as a ``datetime.date``; ValueError otherwise."""
    date = _to_dates([text.strip(" \t")])[0]
    if np.isnat(date):
        raise ValueError(f"cannot parse date {text!r} as YYYY-MM-DD")
    return date.item()


def _read_real(text: str) -> float:
    """One point-decimal real cell with a finite value; ValueError otherwise."""
    cell = text.strip(" \t")
    if not _REAL.fullmatch(cell):
        raise ValueError(f"cannot parse {text!r} as a point-decimal real")
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _read_year(text: str) -> int:
    """A reference year: four ASCII digits, spaces and tabs around ignored."""
    if not _YEAR.fullmatch(text.strip(" \t")):
        raise ValueError(f"cannot parse year {text!r} as four digits")
    return int(text)


def _one_date(text: str) -> np.datetime64:
    try:
        return np.datetime64(text, "D")
    except ValueError:
        return np.datetime64("NaT")


def _parse_row(cells: Sequence[str], names: Sequence[str]) -> tuple[np.datetime64, list[float]]:
    """One record checked cell by cell: (date, values), NaN for empty cells."""
    if len(cells) != len(names) + 1:
        raise _RowError(f"expected {len(names) + 1} cells, got {len(cells)}")
    date = _to_dates([cells[0].strip(" \t")])[0]
    if np.isnat(date):
        raise _RowError(f"cannot parse date {cells[0]!r} as ISO-8601")
    values = []
    for name, raw in zip(names, cells[1:]):
        if not raw.strip(" \t"):
            values.append(math.nan)
            continue
        try:
            values.append(_read_real(raw))
        except ValueError as exc:
            raise _RowError(f"column '{name}': {exc}", date) from None
    return date, values


def _to_rows(lines: list[str], k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Each line's date and k reals (NaN if empty); NaT for a line to refuse.

    None if a line is blank, is not k + 1 cells or has a cell that is not a
    real.  ``np.loadtxt`` rejects an empty cell too, so only then are empty
    cells filled with "nan", which the grammar does not have, and the lines
    read again.  A line is refused if a real is infinite or its date is not
    YYYY-MM-DD, and a date cell that fills its 16-character field may go on.
    """
    if not any(lines):  # loadtxt warns that it read no data
        return None
    form = dict(dtype=[("date", "U16"), ("values", "f8", (k,))], delimiter=",", ndmin=1)
    try:
        rows = np.loadtxt(lines, **form)
    except ValueError:
        try:
            rows = np.loadtxt(_EMPTY_CELL.sub(",nan", "\n".join(lines)).split("\n"), **form)
        except ValueError:
            return None
    if len(rows) != len(lines):
        return None
    dates = _to_dates(np.char.strip(rows["date"], " \t"))
    cut = np.char.str_len(rows["date"]) == 16
    dates[cut | np.isinf(rows["values"]).any(axis=1)] = np.datetime64("NaT")
    return dates, rows["values"]


def _records(lines: Iterable[str]) -> Iterator[tuple[int, list[str] | csv.Error]]:
    """Each record the csv module reads from ``lines``, after how many lines.

    A quoted cell may hold line breaks, so a record can span several lines.
    A record the csv module refuses (a cell over its field size limit) comes
    as the ``csv.Error``, and reading goes on after its last line, where a
    fresh reader ends it once its runs of plain characters are cut short.
    """
    lines, taken = iter(lines), []  # taken: the physical lines of this record

    def fed():
        for line in lines:
            taken.append(line)
            yield line.translate(_CSV_ESCAPE) if "\x00" in line or "\x01" in line else line

    reader, before = csv.reader(fed()), 0
    while True:
        try:
            rec = [c.replace("\x01n", "\x00").replace("\x01s", "\x01") for c in next(reader)]
        except StopIteration:
            return
        except csv.Error as exc:
            rec = exc
            shortened = (_PLAIN_RUN.sub(r"x\1", line) for line in chain(taken[:], fed()))
            with suppress(csv.Error):  # unless even the shortened record is too long
                next(csv.reader(shortened))
        yield before, rec
        before += len(taken)
        taken.clear()


def _blocks(fh: TextIO, quoted: bool) -> Iterator[tuple]:
    """Blocks of data records: first physical line numbers, lines, cells, rejected.

    The header, line 1, was read before.  If the file holds no '"', a record
    is one physical line, blank or not, split into cells only when it fails
    a column check (``cells`` is None).  Otherwise the csv module reads every
    record, a record's line is its cells joined by commas, blank records are
    left out and refused ones are rejected.
    """
    if not quoted:
        no = 1
        while chunk := list(islice(fh, _BLOCK_ROWS)):
            lines = "".join(chunk).removesuffix("\n").split("\n")
            yield range(no + 1, no + 1 + len(lines)), lines, None, []
            no += len(chunk)
        return
    records = _records(fh)
    while chunk := list(islice(records, _BLOCK_ROWS)):
        refused = [(2 + at, f"unreadable record ({rec})", None)
                   for at, rec in chunk if isinstance(rec, csv.Error)]
        block = [(2 + at, rec) for at, rec in chunk
                 if isinstance(rec, list) and "".join(rec).strip(" \t")]
        cells = [rec for _, rec in block]
        yield [n for n, _ in block], list(map(",".join, cells)), cells, refused


def _parse_block(nos, lines, cells, rejected, names, dates, values):
    """Write each accepted record to row ``no - 2`` of ``dates`` and ``values``.

    Returns ``rejected`` plus each rejected record's (line, message, date).
    Records with k commas and only ``_DATA_CHARS`` are read in one
    ``np.loadtxt`` call; the others and those it fails are taken apart cell
    by cell, which also words their messages.  A blank line is skipped.
    """
    k = len(names)
    suspect = np.array(list(map(str.count, lines, repeat(","))), dtype=int) != k
    if _foreign("".join(lines)):
        suspect |= np.array(list(map(_foreign, lines)), dtype=bool)
    if cells is not None:  # a quoted cell may hold a comma
        suspect |= np.array([len(rec) != k + 1 for rec in cells], dtype=bool)
    fast = np.flatnonzero(~suspect)
    at = np.asarray(nos, np.int64) - 2
    rows = _to_rows([lines[i] for i in fast], k)
    if rows is not None:
        dates[at[fast]], values[at[fast]] = rows
    for i in np.flatnonzero(np.isnat(dates[at])).tolist():
        if cells is None and not lines[i].strip(" \t,"):
            continue
        try:
            dates[at[i]], values[at[i]] = _parse_row(
                lines[i].split(",") if cells is None else cells[i], names)
        except _RowError as exc:
            rejected.append((nos[i], str(exc), exc.date))
    return rejected


def _read_table(
    path: Path | str,
    columns: Sequence[str] | None,
    strict: bool,
    report: LoadReport | None,
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Parse a date-indexed CSV into (column names, dates, values).

    ``columns`` are the expected value columns, or None to take them from
    the header.  Dates come back sorted; ``values`` has one column per name
    and NaN for empty cells.  A row that breaks the grammar, or repeats the
    date of an earlier accepted row, is rejected: fatally in strict mode,
    otherwise counted and logged.  Blank lines are skipped.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"file not found: {path}")
    with path.open(encoding="utf-8") as fh:  # universal newlines, as csv reads them
        first = fh.readline()
        header = next(_records([first]))[1] if first else None
        if isinstance(header, csv.Error):
            raise ParseError(f"{path}: line 1: unreadable header ({header})")
        if columns is None:
            if not header or header[0].strip() != "date":
                raise SchemaError(f"{path}: first header column must be 'date', got {header}")
            names = tuple(h.strip() for h in header[1:])
        else:
            names = tuple(columns)
            if header is None:
                raise ParseError(f"{path}: empty file")
            if [h.strip() for h in header] != ["date", *names]:
                raise SchemaError(
                    f"{path}: header {header} does not match expected {['date', *names]}"
                )
        # a row per line after the header; an accepted record fills its line's row
        start, chunks = fh.tell(), iter(lambda: fh.read(1 << 20), "")
        counts = [(text.count("\n"), '"' in text) for text in chunks]
        values = np.empty((sum(n for n, _ in counts) + 1, len(names)))
        dates = np.full(len(values), np.datetime64("NaT", "D"))
        rejected = []
        fh.seek(start)
        for block in _blocks(fh, any(quoted for _, quoted in counts)):
            rejected += _parse_block(*block, names, dates, values)

    nos = np.flatnonzero(~np.isnat(dates)) + 2  # accepted rows, in file order
    dates = dates[nos - 2]
    # the first accepted row of each date wins, as if read line by line
    unique, first = np.unique(dates, return_index=True)
    repeat = np.ones(len(dates), dtype=bool)
    repeat[first] = False
    errors = [(no, f"duplicate date {d}") for no, d in zip(nos[repeat].tolist(), dates[repeat])]
    for no, message, date in rejected:
        if date is not None:  # its date was read before its cells failed
            at = int(np.searchsorted(unique, date))
            if at < len(unique) and unique[at] == date and nos[first[at]] < no:
                message = f"duplicate date {date}"
        errors.append((no, message))
    errors.sort()
    if errors and strict:
        no, message = errors[0]
        raise ParseError(f"{path}: line {no}: {message}")
    for no, message in errors:
        log.warning("%s: rejected row: %s", path, f"line {no}: {message}")
    if report is not None:
        report.rejected_rows += len(errors)
    rows = nos[first] - 2
    # a sorted file without repeated dates or gaps keeps its first rows in place
    values = values[:len(rows)] if np.array_equal(rows, np.arange(len(rows))) else values[rows]
    return names, _frozen(unique), _frozen(values)


def load_market_csv(
    path: Path | str,
    columns: Sequence[str] = MARKET_COLUMNS,
    *,
    strict: bool = True,
    report: LoadReport | None = None,
) -> MarketDataset:
    """Load a market CSV into one series per column.

    The header must be exactly ``date`` followed by ``columns``.  Rows are
    sorted by date on load; unparseable cells reject the whole row (an
    error in strict mode, a counted warning otherwise); empty cells simply
    omit that date from the affected series.
    """
    names, dates, values = _read_table(path, columns, strict, report)
    series = []
    for j, name in enumerate(names):
        present = ~np.isnan(values[:, j])
        series.append(DailySeries(name, _frozen(dates[present]), _frozen(values[present, j])))
    return MarketDataset(tuple(series))


def _write_columns_csv(
    path: Path | str,
    names: Sequence[str],
    dates: np.ndarray,
    data: np.ndarray,
    cell: str = "{!r}",
) -> None:
    """Write ``date`` and ``names`` as the header, then one row per date.

    ``data`` has one column per name.  Every value goes through the format
    field ``cell``: the default ``repr`` round-trips floats exactly, and
    ``"{:.4f}"`` gives the 4-decimal report files.  NaN is written as an
    empty cell, the missing observation.
    """
    row = "{}" + f",{cell}" * len(names) + "\n"
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["date", *names])
        for lo in range(0, len(dates), _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            days = np.datetime_as_string(dates[block]).tolist()
            text = "".join(map(row.format, days, *data[block].T.tolist()))
            fh.write(text.replace("nan", ""))


def _write_json(path: Path | str, payload: dict) -> None:
    """``payload`` as 2-space indented JSON with a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_market_csv(dataset: MarketDataset, path: Path | str) -> None:
    """Serialize a dataset to the market CSV contract (exact float round trip)."""
    dates = np.unique(
        np.concatenate([np.empty(0, "datetime64[D]"), *(s.dates for s in dataset.series)])
    )
    data = np.full((len(dates), len(dataset.series)), np.nan)
    for j, s in enumerate(dataset.series):
        data[np.searchsorted(dates, s.dates), j] = s.values
    _write_columns_csv(path, dataset.names, dates, data)


def frame_to_csv(frame: Frame, path: Path | str) -> None:
    """Write a frame as date + point-decimal columns (exact float round trip)."""
    _write_columns_csv(path, frame.names, frame.dates, frame.data)


def read_frame_csv(path: Path | str, *, strict: bool = True,
                   report: LoadReport | None = None) -> Frame:
    """Read a frame written by :func:`frame_to_csv` (all cells required)."""
    names, dates, values = _read_table(path, None, strict, report)
    gaps = np.flatnonzero(np.isnan(values).any(axis=1))
    if gaps.size:
        raise ParseError(
            f"{path}: missing cell on {dates[gaps[0]]}; frame files allow no gaps"
        )
    return Frame(dates, names, values)


def write_focus_panel_csv(panel: FocusPanel, path: Path | str) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["survey_date", "indicator", "reference_year", "median"])
        for r in panel.records:
            writer.writerow(
                [r.survey_date.isoformat(), r.indicator, r.reference_year,
                 repr(float(r.median))]
            )


def read_focus_panel_csv(path: Path | str) -> FocusPanel:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"file not found: {path}")
    records = []
    with path.open(newline="", encoding="utf-8") as fh:
        rows = _records(fh)
        header = next(rows, (0, None))[1]
        if header != ["survey_date", "indicator", "reference_year", "median"]:
            raise SchemaError(f"{path}: unexpected panel header {header}")
        for before, raw in rows:
            if isinstance(raw, csv.Error):
                raise ParseError(f"{path}: line {before + 1}: unreadable record ({raw})")
            if not raw or all(not c.strip() for c in raw):
                continue
            try:
                records.append(
                    FocusRecord(
                        _read_date(raw[0]),
                        raw[1].strip(),
                        _read_year(raw[2]),
                        _read_real(raw[3]),
                    )
                )
            except (IndexError, ValueError) as exc:
                raise ParseError(f"{path}: line {before + 1}: {exc}") from exc
    for r in records:
        if r.indicator not in INDICATORS:
            raise SchemaError(f"{path}: unknown indicator '{r.indicator}'")
    return FocusPanel(tuple(records))
