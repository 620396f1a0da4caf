"""The pinned CSV input grammar, table-driven.

A record is one physical line, cut into cells at every comma; there is no
quoting.  Dates are YYYY-MM-DD calendar days and values point-decimal reals
in ASCII digits; an empty cell is a missing observation.  Every rejected
cell below is an error naming its line, and the lines before it are read,
on every supported Python version (``date.fromisoformat`` and ``float``
alone would accept some of them, and which ones depends on the version).
Config dates and reals follow the same grammar, and config counts are plain
ASCII digits, whether they come from an INI file, the environment or a CLI
flag.
"""

import datetime as dt
import re
import time

import numpy as np
import pytest

from di_decomp import Frame, ingestion, load_market_csv
from di_decomp.cli import main
from di_decomp.errors import ConfigError, ParseError, SchemaError
from di_decomp.ingestion import frame_to_csv, read_focus_panel_csv, read_frame_csv
from di_decomp.pipeline import load_config

GOOD_ROW = "2015-01-14,12.60\n"

# (bad date cell, value cell) pairs: only the date breaks the grammar
REJECTED_DATES = [
    "20150113",  # ISO basic format (Python 3.11 fromisoformat accepts it)
    "2015-W03-2",  # ISO week date (likewise)
    "2015-02-30",  # no such day
    "2015-1-13",  # unpadded month
    "2015-01-13T00:00",  # a timestamp, not a date
    "0000-01-01",  # year zero
    "١٢٠١-01-13",  # Arabic-Indic digits
    "2015-01-131",  # a date and more, which a fixed-width text field could cut
    "2015-01-13 1",
    "2015-01-13      1",  # its first 16 characters are a padded date
]

REJECTED_VALUES = [
    "1_000",  # float() accepts digit grouping
    "١٢٫٥",  # Arabic-Indic digits and decimal separator
    "١٢",  # Arabic-Indic digits, which float() accepts
    "nan",
    "NaN",
    "inf",
    "-Infinity",
    "1e999",  # overflows to infinity
    '"12,50"',  # a quoted decimal comma: two cells with a quote each
    '"12.5\n"',  # a quote does not carry a cell over a line break
    "12.5.1",
    "0x10",
    "1e",
    ".",
]

ACCEPTED = [
    # (data row, expected DI5Y value or None for a missing observation)
    ("2015-01-13, 12.50 \n", 12.5),
    (" 2015-01-13 ,12.50\n", 12.5),
    ("   2015-01-13 \t ,12.50\n", 12.5),  # fills a 16-character field
    ("2015-01-13,\t12.50\t\n", 12.5),
    ("2015-01-13,+.5\n", 0.5),
    ("2015-01-13,-.5\n", -0.5),
    ("2015-01-13,1e-3\n", 0.001),
    ("2015-01-13,1.5E+2\n", 150.0),
    ("2015-01-13,7.\n", 7.0),
    ("2015-01-13,12.50\r\n", 12.5),
    ("2015-01-13,\n", None),
    ("2015-01-13,   \n", None),
]


def _market(tmp_path, row):
    path = tmp_path / "m.csv"
    path.write_bytes(("date,DI5Y\n" + row + GOOD_ROW).encode("utf-8"))
    return path


def _assert_rejected(path, message="", rows=1):
    """Lines 2 to ``rows + 1`` are each refused in turn, the first with
    ``message``; once they are blanked, the good row after them reads."""
    lines = path.read_text(encoding="utf-8").split("\n")
    for no in range(2, rows + 2):
        expected = f"line {no}: {message if no == 2 else ''}"
        with pytest.raises(ParseError, match=re.escape(expected)):
            load_market_csv(path, columns=("DI5Y",))
        lines[no - 1] = ""  # a blank line keeps the numbers of the lines after it
        path.write_text("\n".join(lines), encoding="utf-8")
    series = load_market_csv(path, columns=("DI5Y",))["DI5Y"]
    assert [str(d) for d in series.dates] == ["2015-01-14"]
    np.testing.assert_array_equal(series.values, [12.6])


@pytest.mark.parametrize("date", REJECTED_DATES)
def test_rejected_date(tmp_path, date):
    _assert_rejected(_market(tmp_path, f"{date},12.50\n"))


@pytest.mark.parametrize("value", REJECTED_VALUES)
def test_rejected_value(tmp_path, value):
    # each physical line of a value holding a line break is a rejected record
    _assert_rejected(_market(tmp_path, f"2015-01-13,{value}\n"), rows=1 + value.count("\n"))


def test_unquoted_decimal_comma_is_a_cell_count_error(tmp_path):
    path = _market(tmp_path, "2015-01-13,12,50\n")
    with pytest.raises(ParseError, match="line 2: expected 2 cells, got 3"):
        load_market_csv(path, columns=("DI5Y",))
    _assert_rejected(path)


@pytest.mark.parametrize("row, expected", ACCEPTED)
def test_accepted(tmp_path, row, expected):
    series = load_market_csv(_market(tmp_path, row), columns=("DI5Y",))["DI5Y"]
    if expected is None:
        assert [str(d) for d in series.dates] == ["2015-01-14"]
    else:
        assert [str(d) for d in series.dates] == ["2015-01-13", "2015-01-14"]
        assert series.values[0] == expected


def test_crlf_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"date,DI5Y\r\n2015-01-13,12.50\r\n\r\n2015-01-14,12.60\r\n")
    series = load_market_csv(path, columns=("DI5Y",))["DI5Y"]
    np.testing.assert_array_equal(series.values, [12.5, 12.6])


def test_messages_name_the_column_and_cell(tmp_path):
    path = _market(tmp_path, "2015-01-13,nan\n")
    with pytest.raises(ParseError, match=r"line 2: column 'DI5Y': cannot parse 'nan'"):
        load_market_csv(path, columns=("DI5Y",))
    path = _market(tmp_path, "2015-01-13,1e999\n")
    with pytest.raises(ParseError, match=r"line 2: column 'DI5Y': non-finite value '1e999'"):
        load_market_csv(path, columns=("DI5Y",))
    # a data row's date has the config dates' check and wording
    for date in ("2015-02-30", "20150113"):
        path = _market(tmp_path, f"{date},1\n")
        message = f"line 2: cannot parse date '{date}' as YYYY-MM-DD$"
        with pytest.raises(ParseError, match=message):
            load_market_csv(path, columns=("DI5Y",))
        with pytest.raises(ConfigError, match=f"cannot parse date '{date}' as YYYY-MM-DD"):
            load_config(None, env={}, overrides={("sample", "end"): date})



def test_line_numbers_count_physical_lines(tmp_path):
    # each physical line is a record: a quote does not carry a cell over a
    # line break, so lines 2, 3 and 4 are each rejected under their own
    # number, each once the lines before it are blanked
    path = tmp_path / "m.csv"
    lines = ["date,DI5Y", '2015-01-13,"12.5', '"', "2015-01-14,x", ""]
    for no, message in [
        (2, "column 'DI5Y': cannot parse '\"12.5' as a point-decimal real"),
        (3, "expected 2 cells, got 1"),
        (4, "column 'DI5Y': cannot parse 'x' as a point-decimal real"),
    ]:
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{path}: line {no}: {message}") + "$"):
            load_market_csv(path, columns=("DI5Y",))
        lines[no - 1] = ""


# There is no CSV quoting: a quoted cell is a cell outside the grammar.
QUOTED_ROWS = {
    "value": ('2015-01-13,"12.50"\n', "column 'DI5Y': cannot parse '\"12.50\"'"),
    "date": ('"2015-01-13","12.50"\n', "cannot parse date '\"2015-01-13\"'"),
    "empty": ('2015-01-13,""\n', "column 'DI5Y': cannot parse '\"\"'"),  # not an empty cell
}


@pytest.mark.parametrize("case", sorted(QUOTED_ROWS))
def test_quoted_cell_is_rejected(tmp_path, case):
    row, message = QUOTED_ROWS[case]
    _assert_rejected(_market(tmp_path, row), message)


@pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
def test_column_name_that_would_not_read_back_is_refused(tmp_path, name):
    frame = Frame([dt.date(2015, 1, 13)], [name], np.array([[1.0]]))
    with pytest.raises(SchemaError, match="holds a comma or line break"):
        frame_to_csv(frame, tmp_path / "frame.csv")
    assert not (tmp_path / "frame.csv").exists()


def test_quoted_header_does_not_match(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text('"date","DI5Y"\n' + GOOD_ROW, encoding="utf-8")
    with pytest.raises(SchemaError, match="does not match expected"):
        load_market_csv(path, columns=("DI5Y",))


# Spaces and tabs around a header cell are ignored; no other whitespace is.
@pytest.mark.parametrize("pad", ["\x0b", "\x0c", "　"], ids=["vt", "ff", "ideographic"])
def test_header_cells_strip_spaces_and_tabs_only(tmp_path, pad):
    market, frame = tmp_path / "m.csv", tmp_path / "f.csv"
    market.write_text(f"date,DI5Y{pad}\n" + GOOD_ROW, encoding="utf-8")
    with pytest.raises(SchemaError, match="does not match expected"):
        load_market_csv(market, columns=("DI5Y",))
    frame.write_text(f"{pad}date,A\n" + GOOD_ROW, encoding="utf-8")
    with pytest.raises(SchemaError, match="first header column must be 'date'"):
        read_frame_csv(frame)
    frame.write_text(f"date,A{pad}\n" + GOOD_ROW, encoding="utf-8")
    assert read_frame_csv(frame).names == (f"A{pad}",)

    market.write_text("date ,\tDI5Y \n" + GOOD_ROW, encoding="utf-8")
    assert list(load_market_csv(market, columns=("DI5Y",))) == ["DI5Y"]
    frame.write_text(" \tdate, A\t\n" + GOOD_ROW, encoding="utf-8")
    assert read_frame_csv(frame).names == ("A",)


# A NUL is a foreign character like any other, quoted or not.
NUL_ROWS = {
    "value": ("2015-01-13,2\x00\n", "column 'DI5Y': cannot parse '2\\x00'"),
    "quoted-value": ('2015-01-13,"2\x00"\n', "column 'DI5Y': cannot parse '\"2\\x00\"'"),
    "after-control": ("2015-01-13,2\x01\x00\n", "column 'DI5Y': cannot parse '2\\x01\\x00'"),
    "quoted-date": ('"2015-01-13\x00",2\n', "cannot parse date '\"2015-01-13\\x00\"'"),
}


@pytest.mark.parametrize("case", sorted(NUL_ROWS))
def test_nul_is_rejected_as_a_cell(tmp_path, case):
    row, message = NUL_ROWS[case]
    _assert_rejected(_market(tmp_path, row), message)


# A long cell, with or without a '"', is one rejected row at its own line,
# and the lines after it are still read.  Matching it against the real
# grammar takes time linear in its length.  A message echoes only its first
# 40 characters and its length, so it stays short.
def bounded(cell):
    return f"{cell[:40]!r}... ({len(cell)} characters)"


LONG_CELLS = {
    "digits": "1" * 200_000 + "x",
    "quoted": '"' + "1" * 200_000 + '"',
    "stray quote": "1" * 200_000 + 'x"y',
}


@pytest.mark.parametrize("cell", LONG_CELLS.values(), ids=LONG_CELLS.keys())
def test_long_cell_is_one_rejected_row_at_its_line(tmp_path, cell):
    path = tmp_path / "frame.csv"
    lines = ["date,x", "2015-01-12,0", f"2015-01-13,{cell}", "2015-01-14,1", "2015-01-15,2", ""]
    path.write_text("\n".join(lines), encoding="utf-8")
    message = f"line 3: column 'x': cannot parse {bounded(cell)} as a point-decimal real"
    started = time.perf_counter()
    with pytest.raises(ParseError, match=re.escape(message) + "$") as err:
        read_frame_csv(path)
    assert time.perf_counter() - started < 2.0
    assert len(str(err.value)) < 300
    lines[2] = ""  # the lines after it are records of their own
    path.write_text("\n".join(lines), encoding="utf-8")
    frame = read_frame_csv(path)
    assert [str(d) for d in frame.dates] == ["2015-01-12", "2015-01-14", "2015-01-15"]
    assert frame.data.ravel().tolist() == [0.0, 1.0, 2.0]


# A long market cell, a value or a date, gives a short message naming its
# line and, for a value, its column.
LONG_MARKET_ROWS = {
    "value": ("2015-01-13,{}\n", "1" * 200_000 + "x",
              "line 2: column 'DI5Y': cannot parse {} as a point-decimal real"),
    "date": ("{},12.50\n", "1" * 50_000, "line 2: cannot parse date {} as YYYY-MM-DD"),
}


@pytest.mark.parametrize("case", sorted(LONG_MARKET_ROWS))
def test_long_market_cell_message_is_bounded(tmp_path, case):
    row, cell, message = LONG_MARKET_ROWS[case]
    path = _market(tmp_path, row.format(cell))
    message = message.format(bounded(cell))
    with pytest.raises(ParseError) as err:
        load_market_csv(path, columns=("DI5Y",))
    assert str(err.value).endswith(message) and len(str(err.value)) < 300


def _refused_then_rest(path, text, message, dates):
    """``text`` fails at line 2 with ``message``; with line 2 blanked, the
    lines after it read as ``dates`` and the values 1, 2, ...."""
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}: line 2: {message}") + "$") as err:
        read_frame_csv(path)
    assert len(str(err.value)) < 300
    path.write_text("date,x\n\n" + text.split("\n", 2)[2], encoding="utf-8")
    frame = read_frame_csv(path)
    assert [str(d) for d in frame.dates] == dates
    assert frame.data.ravel().tolist() == list(map(float, range(1, len(dates) + 1)))


# A '"' that opens a cell and is never closed no longer carries its record
# over line breaks: the record is one rejected row, and the lines after it,
# which a quoting reader would have taken into it, are records of their own.
UNCLOSED_QUOTE_CELL = '"' + "1" * 200_000


def test_refused_record_spanning_lines_is_one_rejected_row(tmp_path):
    _refused_then_rest(
        tmp_path / "frame.csv",
        f"date,x\n2015-01-13,{UNCLOSED_QUOTE_CELL}\n2015-01-14,1\n2015-01-16,2\n",
        f"column 'x': cannot parse {bounded(UNCLOSED_QUOTE_CELL)} as a point-decimal real",
        ["2015-01-14", "2015-01-16"],
    )


# A long cell with a '"' inside it ends at its line.
STRAY_QUOTE_CELL = "1" * 200_000 + 'x"y'
STRAY_QUOTE_RECORD = f"2015-01-13,{STRAY_QUOTE_CELL}\n"
AFTER_STRAY_QUOTE = "2015-01-14,1\n2015-01-15,2\n2015-01-16,3\n2015-01-17,4\n"


def test_refused_record_with_a_stray_quote_ends_at_its_line(tmp_path):
    _refused_then_rest(
        tmp_path / "frame.csv",
        "date,x\n" + STRAY_QUOTE_RECORD + AFTER_STRAY_QUOTE,
        f"column 'x': cannot parse {bounded(STRAY_QUOTE_CELL)} as a point-decimal real",
        ["2015-01-14", "2015-01-15", "2015-01-16", "2015-01-17"],
    )


def test_refused_record_with_a_stray_quote_fails_strict_at_its_line(tmp_path):
    path = tmp_path / "frame.csv"
    text = "date,x\n" + STRAY_QUOTE_RECORD + AFTER_STRAY_QUOTE + "2015-01-18,x\n"
    path.write_text(text, encoding="utf-8")
    message = f"line 2: column 'x': cannot parse {bounded(STRAY_QUOTE_CELL)}"
    with pytest.raises(ParseError, match=re.escape(message)):
        read_frame_csv(path)
    path.write_text("date,x\n\n" + text.split("\n", 2)[2], encoding="utf-8")
    with pytest.raises(ParseError, match="line 7: column 'x': cannot parse 'x'"):
        read_frame_csv(path)  # the next refused record


# A block of 1024 lines is read in one np.loadtxt call.  A record that fails
# it is the only one taken apart cell by cell; a blank line is skipped.
BLOCK_LINES = [f"{day},{i}.5,-{i}" for i, day in enumerate(
    np.datetime_as_string(np.datetime64("2015-01-01") + np.arange(1024)).tolist())]


@pytest.fixture
def cell_reads(monkeypatch):
    """The records ``_parse_row`` takes apart cell by cell."""
    calls, parse_row = [], ingestion._parse_row
    monkeypatch.setattr(ingestion, "_parse_row", lambda *a: calls.append(a) or parse_row(*a))
    return calls


@pytest.mark.parametrize("line_500, rows, reads", [
    (BLOCK_LINES[499], 1024, 0),
    (BLOCK_LINES[499] + ",7", None, 1),  # an extra cell: refused at line 501
    ("", 1023, 0),
], ids=["clean", "extra cell", "blank line"])
def test_only_a_failing_record_is_read_cell_by_cell(tmp_path, cell_reads, line_500, rows, reads):
    assert ingestion._BLOCK_ROWS == len(BLOCK_LINES)
    path = tmp_path / "frame.csv"
    lines = [*BLOCK_LINES[:499], line_500, *BLOCK_LINES[500:]]
    path.write_text("date,x,y\n" + "\n".join(lines) + "\n", encoding="utf-8")
    if rows is None:
        with pytest.raises(ParseError, match="line 501: expected 3 cells, got 4$"):
            read_frame_csv(path)
        assert len(cell_reads) == reads
        return
    frame = read_frame_csv(path)
    assert (len(frame.dates), len(cell_reads)) == (rows, reads)
    assert frame.data[:3].tolist() == [[0.5, -0.0], [1.5, -1.0], [2.5, -2.0]]


def test_all_blank_block_gives_no_rows_and_no_warning(tmp_path, cell_reads):
    path = tmp_path / "frame.csv"
    path.write_text("date,x\n" + "\n" * 2 * ingestion._BLOCK_ROWS, encoding="utf-8")
    frame = read_frame_csv(path)  # a warning fails the test suite
    assert len(frame.dates) == 0 and cell_reads == []


def test_padded_dates_are_not_read_cell_by_cell(tmp_path, cell_reads):
    path = tmp_path / "frame.csv"
    lines = [f" \t{line[:10]} {line[10:]}" for line in BLOCK_LINES]
    path.write_text("date,x,y\n" + "\n".join(lines) + "\n", encoding="utf-8")
    frame = read_frame_csv(path)
    assert (len(frame.dates), len(cell_reads)) == (1024, 0)
    assert frame.data[:2].tolist() == [[0.5, -0.0], [1.5, -1.0]]


# A median holding a NUL or 200,000 characters, quoted or not, is a cell
# outside the grammar.
@pytest.mark.parametrize("quoted", [False, True])
def test_panel_cells_over_the_field_limit_or_with_nul_are_rejected(tmp_path, quoted):
    path = tmp_path / "panel.csv"
    head = "survey_date,indicator,reference_year,median\n2015-01-13,IPCA,2016,6.25\n"
    for median in ("6\x005", LONG_CELLS["digits"]):
        cell = f'"{median}"' if quoted else median
        path.write_text(head + f"2015-01-13,IPCA,2015,{cell}\n", encoding="utf-8")
        shown = repr(cell) if len(cell) <= 40 else bounded(cell)
        message = f"line 3: cannot parse {shown} as a point-decimal real"
        with pytest.raises(ParseError, match=re.escape(message)):
            read_focus_panel_csv(path)


# The focus panel CSV: the median follows the real grammar above and must be
# finite; the reference year is four ASCII digits.
REJECTED_PANEL_CELLS = [
    ("2015", "1_000"),
    ("2015", "nan"),
    ("2015", "inf"),
    ("2_015", "6.5"),
    ("٢٠١٥", "6.5"),  # Arabic-Indic digits, which int() accepts
]


@pytest.mark.parametrize("year, median", REJECTED_PANEL_CELLS)
def test_rejected_panel_cells(tmp_path, year, median):
    path = tmp_path / "panel.csv"
    path.write_text(
        "survey_date,indicator,reference_year,median\n"
        f"2015-01-13,IPCA,2016,6.25\n2015-01-13,IPCA,{year},{median}\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match="line 3: "):
        read_focus_panel_csv(path)


def test_accepted_panel_cells(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "survey_date,indicator,reference_year,median\n"
        "2015-01-13,IPCA, 2015 ,+.5e1\n",
        encoding="utf-8",
    )
    assert read_focus_panel_csv(path) == {(dt.date(2015, 1, 13), "IPCA", 2015): 5.0}


PANEL_HEADER = "survey_date,indicator,reference_year,median\n"


def test_panel_indicator_is_stripped_of_spaces_and_tabs_only(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(PANEL_HEADER + "2015-01-13, \tIPCA\t,2015,6.25\n"
                    "2015-01-13,\u3000IPCA\x0b,2016,5.5\n", encoding="utf-8")
    shown = repr("\u3000IPCA\x0b")
    with pytest.raises(SchemaError, match=re.escape(f"{path}: line 3: unknown indicator {shown}")):
        read_focus_panel_csv(path)


def test_panel_blank_line_is_spaces_tabs_and_commas_only(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(PANEL_HEADER + " ,\t,,\n\f,\f,\f,\f\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}: line 3: cannot parse date '\\x0c'")):
        read_focus_panel_csv(path)


def test_unknown_panel_indicator_names_its_line(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(PANEL_HEADER + "2015-01-13,IPCA,2015,6.25\n2015-01-13,CPI,2015,5.0\n",
                    encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(f"{path}: line 3: unknown indicator 'CPI'")):
        read_focus_panel_csv(path)


@pytest.mark.parametrize("rows, message", [
    ("2015-01-13,IPCA,2015,6.25\n2015-01-13,IPCA,2016,6.0\n2015-01-13, IPCA ,2015,6.5\n",
     "line 4: duplicate panel cell 2015-01-13,IPCA,2015 (first on line 2)"),
    ("2015-01-13,IPCA,2015,6.25\n2015-01-13,IPCA,2014,6.25\n",
     "line 3: reference year 2014 precedes survey date 2015-01-13"),
], ids=["duplicate", "past-year"])
def test_panel_cell_error_names_the_file(tmp_path, rows, message):
    path = tmp_path / "panel.csv"
    path.write_text(PANEL_HEADER + rows, encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(f"{path}: {message}")):
        read_focus_panel_csv(path)


def test_crlf_panel_file_reads_as_the_lf_file(tmp_path):
    text = ("survey_date,indicator,reference_year,median\n"
            "2015-01-13,IPCA,2015,6.25\n\n2015-01-13,Selic,2016,11.5\n")
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes(text.encode("utf-8"))
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    panel = read_focus_panel_csv(lf)
    assert len(panel) == 2
    assert read_focus_panel_csv(crlf) == panel


# Config dates: each key with the subcommand and flag that set it.
CONFIG_DATE_KEYS = {
    "sample.start": ("run", "--start"),
    "sample.end": ("run", "--end"),
    "fetch.start": ("fetch-focus", "--fetch-start"),
}


@pytest.mark.parametrize("source", ["ini", "env", "flag"])
@pytest.mark.parametrize("key", sorted(CONFIG_DATE_KEYS))
@pytest.mark.parametrize("date", ["20150113", "2015-W03-2", "2015-02-30"])
def test_rejected_config_date(tmp_path, monkeypatch, capsys, source, key, date):
    def offline(url):
        raise AssertionError(f"fetch-focus reached the network: {url}")

    # a date that slipped through would make fetch-focus fetch
    monkeypatch.setattr(ingestion, "_urllib_transport", offline)
    command, flag = CONFIG_DATE_KEYS[key]
    section, name = key.split(".")
    argv = [command, "--out", str(tmp_path / "out")]
    if source == "ini":
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\n{name} = {date}\n", encoding="utf-8")
        argv += ["--config", str(ini)]
    elif source == "env":
        monkeypatch.setenv(f"DI_DECOMP_{section.upper()}_{name.upper()}", date)
    else:
        argv += [flag, date]
    assert main(argv) == 2
    assert (f"bad value for {key}: cannot parse date {date!r} as YYYY-MM-DD"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


# Fixture counts: each key with the flag that sets it.
CONFIG_COUNT_KEYS = {"fixture.n": "--n", "fixture.seed": "--seed"}


@pytest.mark.parametrize("source", ["ini", "env", "flag"])
@pytest.mark.parametrize("key", sorted(CONFIG_COUNT_KEYS))
@pytest.mark.parametrize(
    "value",
    [
        "2_741",  # int() accepts digit grouping
        "١٠",  # Arabic-Indic digits, which int() accepts
        "-5",  # a negative seed reached numpy and crashed
        "+5",
        "1e3",
        "12.0",
    ],
)
def test_rejected_config_count(tmp_path, monkeypatch, capsys, source, key, value):
    section, name = key.split(".")
    argv = ["fixture", "--out", str(tmp_path / "out")]
    if source == "ini":
        ini = tmp_path / "fixture.ini"
        ini.write_text(f"[{section}]\n{name} = {value}\n", encoding="utf-8")
        argv += ["--config", str(ini)]
    elif source == "env":
        monkeypatch.setenv(f"DI_DECOMP_{section.upper()}_{name.upper()}", value)
    else:
        argv += [CONFIG_COUNT_KEYS[key], value]
    assert main(argv) == 2
    assert (f"bad value for {key}: expected ASCII digits 0-9, got {value!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cell", ["0.00_1", "nan", "\u30000.001", ""])
def test_rejected_betas_cell(cell):
    env = {"DI_DECOMP_FIXTURE_BETAS": f"{cell},0.01,0.05,300"}
    with pytest.raises(ConfigError, match="bad value for fixture.betas"):
        load_config(None, env=env)


def test_accepted_config_values():
    env = {
        "DI_DECOMP_FIXTURE_BETAS": " 1e-3, .01 ,5E-2,300",
        "DI_DECOMP_SAMPLE_START": "2015-01-13",
        "DI_DECOMP_FIXTURE_N": " 2741\t",
        "DI_DECOMP_FIXTURE_SEED": "010",
    }
    config = load_config(None, env=env)
    assert config.fixture_betas == (0.001, 0.01, 0.05, 300.0)
    assert str(config.start) == "2015-01-13"
    assert (config.fixture_n, config.seed) == (2741, 10)
