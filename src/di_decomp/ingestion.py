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
cell that does not parse is an error naming its line.  A record is one
physical line, cut into cells at every comma; there is no quoting.  A
file's newlines are counted first, to size a date array and a value matrix
with a row per line, so rows stay in file order.  In each block of 1024
lines, those with k commas are read in one ``np.loadtxt`` call; only the
lines that fail it are split into cells, up to the first that is refused.
"""

from __future__ import annotations

import datetime as dt
import json
import logging
import math
import re
import time
import urllib.parse
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import FetchError, ParseError, SchemaError
from .series import DailySeries, Frame, _frozen

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
_MAX_ATTEMPTS = 4  # requests per page, the first included
_BACKOFF_S = 0.5  # the first retry's wait; each later one doubles it

MARKET_COLUMNS = ("DI5Y", "CDS", "DXY", "CRB", "VIX", "UST10", "SURPRISE")

__all__ = [
    "INDICATORS",
    "HORIZONS",
    "MARKET_COLUMNS",
    "DEFAULT_ENDPOINT",
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


_Cell = tuple[dt.date, str, int]  # (survey_date, indicator, reference_year)
FocusPanel = dict[_Cell, float]  # each cell's median expectation


@dataclass
class LoadReport:
    """What a fetch and its reshape counted, emitted as load_report.json."""

    fetched: int = 0
    deduplicated: int = 0
    dropped_dates: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


MarketDataset = dict[str, DailySeries]  # each market column's series, on its own calendar


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


def _fetch_page(url: str, transport: Transport, sleep: Callable[[float], None]) -> dict:
    last_status: int | None = None
    last_exc: OSError | None = None
    for attempt in range(_MAX_ATTEMPTS):
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
    raise FetchError(f"GET {url} failed after {_MAX_ATTEMPTS} attempts (last: {detail})")


def _parse_record(item: object, reverse_names: Mapping[str, str]) -> tuple[_Cell, float]:
    """One OData record as its panel cell and median."""
    if not isinstance(item, dict):
        raise ParseError(f"malformed expectations record (not an object): {_shown(item)}")
    try:
        raw_ind = item["Indicador"]
        raw_date = item["Data"]
        raw_ref = item["DataReferencia"]
        raw_median = item["Mediana"]
    except KeyError as exc:
        raise ParseError(f"malformed expectations record, missing {exc}: {_shown(item)}") from exc
    if raw_ind not in reverse_names:
        raise ParseError(f"unknown indicator {_shown(raw_ind)} in record: {_shown(item)}")
    try:
        survey_date = _read_date(str(raw_date))
        reference_year = _read_year(str(raw_ref))
        if isinstance(raw_median, bool) or not isinstance(raw_median, (str, int, float)):
            raise ValueError(f"median {_shown(raw_median)} is neither a JSON number nor a string")
        # a JSON number is read through its repr, which spells a finite float
        # in the real grammar and round-trips it exactly
        median = _read_real(raw_median if isinstance(raw_median, str) else repr(raw_median))
    except ValueError as exc:
        raise ParseError(f"malformed expectations record ({exc}): {_shown(item)}") from exc
    if reference_year < survey_date.year:
        raise SchemaError(f"reference year {reference_year} precedes survey date {survey_date}")
    return (survey_date, reverse_names[raw_ind], reference_year), median


def fetch_focus(
    indicators: Sequence[str],
    date_range: tuple[dt.date, dt.date],
    endpoint: str = DEFAULT_ENDPOINT,
    *,
    transport: Transport | None = None,
    page_size: int = 10_000,
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
        ``_MAX_ATTEMPTS`` (4) requests.  Any other exception propagates at once.
    report
        Optional counter sink for fetched / deduplicated records.

    Duplicate (date, indicator, year) cells keep the last occurrence and
    log a warning.  A record whose reference year precedes its survey date
    is a ``SchemaError`` as soon as it is read.  Paging that returns to a
    URL already requested for the same indicator, or runs past
    ``_MAX_PAGES``, raises ``FetchError``.
    """
    start, end = date_range
    if start > end:
        raise FetchError(f"empty date range {start}..{end}")
    unknown = [i for i in indicators if i not in INDICATOR_QUERY_NAMES]
    if unknown:
        raise SchemaError(f"unknown indicators {unknown}; expected from {INDICATORS}")
    transport = transport or _urllib_transport
    reverse_names = {v: k for k, v in INDICATOR_QUERY_NAMES.items()}

    cells: FocusPanel = {}
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
            payload = _fetch_page(url, transport, sleep)
            items = payload["value"]
            for item in items:
                key, median = _parse_record(item, reverse_names)
                if key in cells:
                    duplicates += 1
                    log.warning("duplicate expectations cell %s, keeping last", key)
                cells[key] = median
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
    return cells


def reshape_horizons(panel: FocusPanel, report: LoadReport | None = None) -> Frame:
    """Pivot a panel into the 20 horizon columns, one row per complete date.

    A survey date qualifies only if every indicator has a median for the
    reference years ``year(date) + k`` for k in 0..3; incomplete dates are
    dropped, counted in ``report.dropped_dates`` and logged as one warning.
    """
    if not panel:
        raise ParseError("reshape_horizons: empty panel")
    dates: list[dt.date] = []
    rows: list[list[float]] = []
    dropped = 0
    for d in sorted({d for d, _, _ in panel}):
        try:
            row = [panel[(d, ind, d.year + k)] for ind in INDICATORS for k in HORIZONS]
        except KeyError:
            dropped += 1
            continue
        dates.append(d)
        rows.append(row)
    if dropped:
        log.warning("dropped %d incomplete survey dates", dropped)
    if report is not None:
        report.dropped_dates += dropped
    data = np.array(rows) if rows else np.empty((0, len(HORIZON_COLUMNS)))
    return Frame(tuple(dates), HORIZON_COLUMNS, data)


# ---------------------------------------------------------------------------
# CSV contracts
# ---------------------------------------------------------------------------


# Every data row of a market or frame CSV follows one grammar, the same on
# every Python version.  A record is one physical line, cut into cells at
# every comma; there is no quoting, so '"12.50"' is a cell outside the
# grammar and a comma always ends a cell.
#
#   date   YYYY-MM-DD naming a real calendar day (years 0001-9999);
#   value  a point-decimal real: optional sign, ASCII digits with at most one
#          decimal point, optional exponent -- so not "nan", "inf", "1_000",
#          '"12.50"' or non-ASCII digits;
#   empty  a cell of only spaces or tabs: no observation.
#
# Spaces and tabs around a cell are ignored.

# A run of digits matches in one way only, so a cell that fails takes time
# linear in its length.
_REAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_YEAR = re.compile(r"[0-9]{4}")
# Every character a valid data line may contain.  In lines made of these
# alone, float() and np.loadtxt accept a cell exactly when it matches _REAL.
_DATA_CHARS = b"0123456789eE+-. \t,"
_EMPTY_CELL = re.compile(r",[ \t]*(?=,|$)", re.MULTILINE)
# Rows parsed or formatted at a time, which bounds the transient strings.
_BLOCK_ROWS = 1024
_SHOWN_CHARS = 40  # characters of a long cell or record that a message echoes


class _RowError(ValueError):
    """Why one record is rejected, with its date when that parsed."""

    def __init__(self, message: str, date: np.datetime64 | None = None):
        super().__init__(message)
        self.date = date


def _to_dates(texts: Sequence[str]) -> np.ndarray:
    """Each text as ``datetime64[D]``; NaT where it is not a YYYY-MM-DD day of years 1-9999."""
    ten = np.fromiter(map(len, texts), int, len(texts)) == 10  # numpy drops a trailing NUL
    codes = np.array(texts, "U10").view(np.uint32).reshape(-1, 10).astype(np.int64) - ord("0")
    digits = np.delete(codes, [4, 7], axis=1)
    ok = ten & ((0 <= digits) & (digits <= 9)).all(axis=1)
    ok &= (codes[:, [4, 7]] == ord("-") - ord("0")).all(axis=1)
    ymd = digits @ 10 ** np.arange(7, -1, -1)  # the digits as one YYYYMMDD number
    month = ymd // 100 % 100
    first = (12 * (ymd // 10000 - 1970) + month - 1).astype("datetime64[M]")
    days = first.astype("datetime64[D]") + (ymd % 100 - 1)
    ok &= (ymd >= 10000) & (1 <= month) & (month <= 12) & (days.astype("datetime64[M]") == first)
    return np.where(ok, days, np.datetime64("NaT", "D"))


def _foreign(text: str) -> bool:
    """Whether the text holds a character outside ``_DATA_CHARS``."""
    return bool(text.encode("utf-8").translate(None, _DATA_CHARS))


def _shown(value: object) -> str:
    """``repr(value)`` for a message; a long value is cut to a prefix and its length."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _SHOWN_CHARS:
        return repr(value)
    return f"{text[:_SHOWN_CHARS]!r}... ({len(text)} characters)"


def _read_date(text: str) -> dt.date:
    """One YYYY-MM-DD cell as a ``datetime.date``; ValueError otherwise."""
    date = _to_dates([text.strip(" \t")])[0]
    if np.isnat(date):
        raise ValueError(f"cannot parse date {_shown(text)} as YYYY-MM-DD")
    return date.item()


def _read_real(text: str) -> float:
    """One point-decimal real cell with a finite value; ValueError otherwise."""
    cell = text.strip(" \t")
    if not _REAL.fullmatch(cell):
        raise ValueError(f"cannot parse {_shown(text)} as a point-decimal real")
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {_shown(text)}")
    return value


def _read_year(text: str) -> int:
    """A reference year: four ASCII digits, spaces and tabs around ignored."""
    if not _YEAR.fullmatch(text.strip(" \t")):
        raise ValueError(f"cannot parse year {_shown(text)} as four digits")
    return int(text)


def _parse_row(cells: Sequence[str], names: Sequence[str]) -> tuple[np.datetime64, list[float]]:
    """One record checked cell by cell: (date, values), NaN for empty cells."""
    if len(cells) != len(names) + 1:
        raise _RowError(f"expected {len(names) + 1} cells, got {len(cells)}")
    try:
        date = np.datetime64(_read_date(cells[0]), "D")
    except ValueError as exc:
        raise _RowError(str(exc)) from None
    values = []
    for name, raw in zip(names, cells[1:]):
        try:
            values.append(_read_real(raw) if raw.strip(" \t") else math.nan)
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


def _parse_block(lines, names, dates, values):
    """Write each accepted line to its row of ``dates`` and ``values``, a row per line.

    Returns the first refused line's (index in ``lines``, message, date), or
    None.  Lines with k commas and only ``_DATA_CHARS`` are read in one
    ``np.loadtxt`` call; the others and those it fails are split at every
    comma and taken apart cell by cell, up to the first that is refused,
    which also words its message.  A blank line is skipped.
    """
    k = len(names)
    suspect = np.array(list(map(str.count, lines, repeat(","))), dtype=int) != k
    if _foreign("".join(lines)):
        suspect |= np.array(list(map(_foreign, lines)), dtype=bool)
    fast = np.flatnonzero(~suspect)
    rows = _to_rows([lines[i] for i in fast], k)
    if rows is not None:
        dates[fast], values[fast] = rows
    for i in np.flatnonzero(np.isnat(dates)).tolist():
        if not lines[i].strip(" \t,"):
            continue
        try:
            dates[i], values[i] = _parse_row(lines[i].split(","), names)
        except _RowError as exc:
            return i, str(exc), exc.date
    return None


@contextmanager
def _open_text(path: Path) -> Iterator[TextIO]:
    """``path`` read as UTF-8 with universal newlines; a missing file or a
    byte outside UTF-8 is a ParseError."""
    if not path.exists():
        raise ParseError(f"file not found: {path}")
    try:
        with path.open(encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ParseError(f"{path}: not UTF-8 text (byte {byte:#04x}: {exc.reason})") from exc


def _read_table(
    path: Path | str, columns: Sequence[str] | None
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Parse a date-indexed CSV into (column names, dates, values).

    ``columns`` are the expected value columns, or None to take them from
    the header.  Dates come back sorted; ``values`` has one column per name
    and NaN for empty cells.  A row that breaks the grammar, or repeats the
    date of an earlier accepted row, is a ParseError naming the earliest
    such line.  Blank lines are skipped.
    """
    path = Path(path)
    with _open_text(path) as fh:
        first = fh.readline()
        header = first.removesuffix("\n").split(",")
        if columns is None:
            if header[0].strip(" \t") != "date":
                raise SchemaError(f"{path}: first header column must be 'date', got {header}")
            names = tuple(h.strip(" \t") for h in header[1:])
        else:
            names = tuple(columns)
            if not first:
                raise ParseError(f"{path}: empty file")
            if [h.strip(" \t") for h in header] != ["date", *names]:
                raise SchemaError(
                    f"{path}: header {header} does not match expected {['date', *names]}"
                )
        # a row per line after the header; an accepted line fills its row
        start, chunks = fh.tell(), iter(lambda: fh.read(1 << 20), "")
        values = np.empty((sum(text.count("\n") for text in chunks) + 1, len(names)))
        dates = np.full(len(values), np.datetime64("NaT", "D"))
        refused, lo = None, 0
        fh.seek(start)
        while chunk := list(islice(fh, _BLOCK_ROWS)):
            lines = "".join(chunk).removesuffix("\n").split("\n")
            block = slice(lo, lo + len(lines))
            refused = _parse_block(lines, names, dates[block], values[block])
            if refused is not None:  # no later line can hold the earliest error
                break
            lo += len(lines)

    nos = np.flatnonzero(~np.isnat(dates)) + 2  # accepted rows, in file order
    dates = dates[nos - 2]
    # the first accepted row of each date wins, as if read line by line
    unique, first = np.unique(dates, return_index=True)
    repeat = np.ones(len(dates), dtype=bool)
    repeat[first] = False
    errors = [(no, f"duplicate date {d}") for no, d in zip(nos[repeat].tolist(), dates[repeat])]
    if refused is not None:
        i, message, date = refused
        no = lo + i + 2
        if date is not None:  # its date was read before its cells failed
            at = int(np.searchsorted(unique, date))
            if at < len(unique) and unique[at] == date and nos[first[at]] < no:
                message = f"duplicate date {date}"
        errors.append((no, message))
    if errors:
        no, message = min(errors)
        raise ParseError(f"{path}: line {no}: {message}")
    rows = nos[first] - 2
    # a sorted file without repeated dates or gaps keeps its first rows in place
    values = values[:len(rows)] if np.array_equal(rows, np.arange(len(rows))) else values[rows]
    return names, _frozen(unique), _frozen(values)


def load_market_csv(path: Path | str, columns: Sequence[str] = MARKET_COLUMNS) -> MarketDataset:
    """Load a market CSV into one series per column, keyed by its name.

    The header must be exactly ``date`` followed by ``columns``, which may
    not repeat a name.  Rows are sorted by date on load; a cell that does
    not parse is an error naming its line; empty cells simply omit that
    date from the affected series.
    """
    if len(set(columns)) != len(columns):
        raise SchemaError(f"duplicate series names in dataset: {list(columns)}")
    names, dates, values = _read_table(path, columns)
    market: MarketDataset = {}
    for j, name in enumerate(names):
        present = ~np.isnan(values[:, j])
        market[name] = DailySeries(name, _frozen(dates[present]), _frozen(values[present, j]))
    return market


def _columns_csv(
    names: Sequence[str],
    dates: np.ndarray,
    data: np.ndarray,
    cell: str = "{!r}",
) -> str:
    """CSV text: ``date`` and ``names`` as the header, then one row per date.

    ``data`` has one column per name.  Every value goes through the format
    field ``cell``: the default ``repr`` round-trips floats exactly, and
    ``"{:.4f}"`` gives the 4-decimal report files.  NaN is written as an
    empty cell, the missing observation.  A name holding a comma or a line
    break would not read back, so it is a SchemaError.
    """
    if any(sep in name for name in names for sep in ",\n\r"):
        raise SchemaError(f"a column name holds a comma or line break: {list(names)}")
    row = "{}" + f",{cell}" * len(names) + "\n"
    blocks = [",".join(["date", *names]) + "\n"]
    for lo in range(0, len(dates), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        days = np.datetime_as_string(dates[block]).tolist()
        blocks.append("".join(map(row.format, days, *data[block].T.tolist())).replace("nan", ""))
    return "".join(blocks)


def _json_text(payload: dict) -> str:
    """``payload`` as 2-space indented JSON with a final newline."""
    return json.dumps(payload, indent=2) + "\n"


def _write_text(path: Path | str, text: str) -> None:
    """``text`` as the UTF-8 file ``path``, its newlines written as they are."""
    Path(path).write_text(text, encoding="utf-8", newline="")


def write_market_csv(market: MarketDataset, path: Path | str) -> None:
    """Serialize a market set to the market CSV contract (exact float round
    trip); its keys, in insertion order, are the header after ``date``."""
    dates = np.unique(np.concatenate([np.empty(0, "datetime64[D]"),
                                      *(s.dates for s in market.values())]))
    data = np.full((len(dates), len(market)), np.nan)
    for j, s in enumerate(market.values()):
        data[np.searchsorted(dates, s.dates), j] = s.values
    _write_text(path, _columns_csv(list(market), dates, data))


def frame_to_csv(frame: Frame, path: Path | str) -> None:
    """Write a frame as date + point-decimal columns (exact float round trip)."""
    _write_text(path, _columns_csv(frame.names, frame.dates, frame.data))


def read_frame_csv(path: Path | str) -> Frame:
    """Read a frame written by :func:`frame_to_csv` (all cells required)."""
    names, dates, values = _read_table(path, None)
    gaps = np.flatnonzero(np.isnan(values).any(axis=1))
    if gaps.size:
        raise ParseError(
            f"{path}: missing cell on {dates[gaps[0]]}; frame files allow no gaps"
        )
    return Frame(dates, names, values)


def _panel_csv(panel: FocusPanel) -> str:
    """A focus panel's CSV text, one record per line, sorted by date, indicator and year."""
    return "survey_date,indicator,reference_year,median\n" + "".join(
        f"{d.isoformat()},{ind},{year},{float(median)!r}\n"
        for (d, ind, year), median in sorted(panel.items())
    )


def write_focus_panel_csv(panel: FocusPanel, path: Path | str) -> None:
    _write_text(path, _panel_csv(panel))


def read_focus_panel_csv(path: Path | str) -> FocusPanel:
    """Read a panel written by :func:`write_focus_panel_csv`; a bad record is an
    error naming its line."""
    path = Path(path)
    lines: dict[_Cell, int] = {}  # each cell's line
    panel: FocusPanel = {}
    with _open_text(path) as fh:
        header = fh.readline().removesuffix("\n").split(",")
        if header != ["survey_date", "indicator", "reference_year", "median"]:
            raise SchemaError(f"{path}: unexpected panel header {header}")
        for no, line in enumerate(fh, start=2):
            if not line.strip(" \t,\n"):  # only spaces, tabs and commas: a blank line
                continue
            raw = line.removesuffix("\n").split(",")
            if len(raw) != 4:
                raise ParseError(f"{path}: line {no}: expected 4 cells, got {len(raw)}")
            try:
                key = (_read_date(raw[0]), raw[1].strip(" \t"), _read_year(raw[2]))
                median = _read_real(raw[3])
            except ValueError as exc:
                raise ParseError(f"{path}: line {no}: {exc}") from exc
            date, indicator, year = key
            if indicator not in INDICATORS:
                raise SchemaError(f"{path}: line {no}: unknown indicator {_shown(indicator)}")
            if key in lines:
                raise SchemaError(f"{path}: line {no}: duplicate panel cell "
                                  f"{','.join(map(str, key))} (first on line {lines[key]})")
            if year < date.year:
                raise SchemaError(f"{path}: line {no}: reference year {year} "
                                  f"precedes survey date {date}")
            lines[key] = no
            panel[key] = median
    return panel
