"""The pinned CSV input grammar, table-driven.

Dates are YYYY-MM-DD calendar days and values point-decimal reals in ASCII
digits; an empty cell is a missing observation.  Every rejected cell below
is an error in strict mode and one counted row in lenient mode, on every
supported Python version (``date.fromisoformat`` and ``float`` alone would
accept some of them, and which ones depends on the version).  Config dates
and reals follow the same grammar, and config counts are plain ASCII
digits, whether they come from an INI file, the environment or a CLI flag.
"""

import csv
import logging
import re

import numpy as np
import pytest

from di_decomp import LoadReport, ingestion, load_market_csv
from di_decomp.cli import main
from di_decomp.errors import ConfigError, ParseError
from di_decomp.ingestion import read_focus_panel_csv, read_frame_csv
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
    '"12,50"',  # decimal comma, quoted so it stays one cell
    '"12.5\n"',  # a quoted newline is not a space or tab
    "12.5.1",
    "0x10",
    "1e",
    ".",
]

ACCEPTED = [
    # (data row, expected DI5Y value or None for a missing observation)
    ("2015-01-13, 12.50 \n", 12.5),
    (" 2015-01-13 ,12.50\n", 12.5),
    ("2015-01-13,\t12.50\t\n", 12.5),
    ("2015-01-13,+.5\n", 0.5),
    ("2015-01-13,-.5\n", -0.5),
    ("2015-01-13,1e-3\n", 0.001),
    ("2015-01-13,1.5E+2\n", 150.0),
    ("2015-01-13,7.\n", 7.0),
    ("2015-01-13,12.50\r\n", 12.5),
    ('2015-01-13,"12.50"\n', 12.5),  # quoted cells stay accepted
    ('"2015-01-13","12.50"\n', 12.5),
    ("2015-01-13,\n", None),
    ("2015-01-13,   \n", None),
]


def _market(tmp_path, row):
    path = tmp_path / "m.csv"
    path.write_bytes(("date,DI5Y\n" + row + GOOD_ROW).encode("utf-8"))
    return path


def _assert_rejected(path):
    with pytest.raises(ParseError, match="line 2"):
        load_market_csv(path, columns=("DI5Y",))
    report = LoadReport()
    series = load_market_csv(path, columns=("DI5Y",), strict=False, report=report)["DI5Y"]
    assert report.rejected_rows == 1
    assert [str(d) for d in series.dates] == ["2015-01-14"]
    np.testing.assert_array_equal(series.values, [12.6])


@pytest.mark.parametrize("date", REJECTED_DATES)
def test_rejected_date(tmp_path, date):
    _assert_rejected(_market(tmp_path, f"{date},12.50\n"))


@pytest.mark.parametrize("value", REJECTED_VALUES)
def test_rejected_value(tmp_path, value):
    _assert_rejected(_market(tmp_path, f"2015-01-13,{value}\n"))


def test_unquoted_decimal_comma_is_a_cell_count_error(tmp_path):
    path = _market(tmp_path, "2015-01-13,12,50\n")
    with pytest.raises(ParseError, match="line 2: expected 2 cells, got 3"):
        load_market_csv(path, columns=("DI5Y",))
    _assert_rejected(path)


@pytest.mark.parametrize("row, expected", ACCEPTED)
def test_accepted(tmp_path, row, expected):
    report = LoadReport()
    series = load_market_csv(
        _market(tmp_path, row), columns=("DI5Y",), strict=False, report=report
    )["DI5Y"]
    assert report.rejected_rows == 0
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
    path = _market(tmp_path, "2015-02-30,1\n")
    with pytest.raises(ParseError, match=r"line 2: cannot parse date '2015-02-30'"):
        load_market_csv(path, columns=("DI5Y",))



def test_line_numbers_count_physical_lines(tmp_path, caplog):
    # the first record's quoted line break spans lines 2 and 3; strict mode
    # stops there, lenient mode also names the bad cell on line 4
    path = tmp_path / "m.csv"
    path.write_bytes(b'date,DI5Y\n2015-01-13,"12.5\n"\n2015-01-14,x\n')
    with pytest.raises(ParseError, match="line 2: "):
        load_market_csv(path, columns=("DI5Y",))
    with caplog.at_level(logging.WARNING, logger="di_decomp.ingestion"):
        load_market_csv(path, columns=("DI5Y",), strict=False)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2
    assert messages[0].endswith("line 2: column 'DI5Y': cannot parse '12.5\\n' as a point-decimal real")
    assert messages[1].endswith("line 4: column 'DI5Y': cannot parse 'x' as a point-decimal real")


# A NUL is a foreign character like any other.  Python 3.10's csv module
# raises on it where later versions read it as part of the cell, so the
# quoted-file case also runs with a csv reader that refuses NUL the 3.10 way.
NUL_ROWS = [
    ("2015-01-13,2\x00\n", "column 'DI5Y': cannot parse '2\\x00'"),
    ('2015-01-13,"2\x00"\n', "column 'DI5Y': cannot parse '2\\x00'"),
    ('"2015-01-13",2\x01\x00\n', "column 'DI5Y': cannot parse '2\\x01\\x00'"),
    ('"2015-01-13\x00",2\n', "cannot parse date '2015-01-13\\x00'"),
]


_CSV_READER = csv.reader


def _csv_reader_refusing_nul(lines, *args, **kwargs):
    def checked():
        for line in lines:
            if "\x00" in line:
                raise csv.Error("line contains NUL")
            yield line
    return _CSV_READER(checked(), *args, **kwargs)


@pytest.mark.parametrize("refuse_nul", [False, True])
@pytest.mark.parametrize("row, message", NUL_ROWS)
def test_nul_is_rejected_as_a_cell(tmp_path, monkeypatch, row, message, refuse_nul):
    if refuse_nul:
        monkeypatch.setattr(ingestion.csv, "reader", _csv_reader_refusing_nul)
    path = _market(tmp_path, row)
    with pytest.raises(ParseError, match="line 2: " + re.escape(message)):
        load_market_csv(path, columns=("DI5Y",))
    _assert_rejected(path)


# The csv module refuses a cell over its field size limit (131072 characters
# by default).  That record is one rejected row like any other, and reading
# goes on after the line that closes its quotes.
BIG_CELL = '"' + "1" * 200_000 + '"'


def test_cell_over_the_csv_field_limit_is_a_rejected_row(tmp_path):
    path = _market(tmp_path, f"2015-01-13,{BIG_CELL}\n")
    with pytest.raises(ParseError, match=r"line 2: unreadable record \(field larger"):
        load_market_csv(path, columns=("DI5Y",))
    _assert_rejected(path)
    path = tmp_path / "frame.csv"
    path.write_text(f"date,x\n{GOOD_ROW}2015-01-15,{BIG_CELL}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"line 3: unreadable record \(field larger"):
        read_frame_csv(path)
    report = LoadReport()
    frame = read_frame_csv(path, strict=False, report=report)
    assert report.rejected_rows == 1
    assert [str(d) for d in frame.dates] == ["2015-01-14"]
    path.write_text(f"date,{BIG_CELL}\n{GOOD_ROW}", encoding="utf-8")
    with pytest.raises(ParseError, match=r"line 1: unreadable header \(field larger"):
        read_frame_csv(path, strict=False)


# A refused cell that runs over several lines: the lines inside its quotes
# belong to the refused record, even where one looks like a data row.
SPANNING_RECORD = '2015-01-13,"' + "1" * 200_000 + '\n2015-01-15,7\n8"\n'
AFTER_SPANNING_RECORD = '2015-01-14,1\n2015-01-16,"2"\n'


def test_refused_record_spanning_lines_is_one_rejected_row(tmp_path, caplog):
    path = tmp_path / "frame.csv"
    path.write_text("date,x\n" + SPANNING_RECORD + AFTER_SPANNING_RECORD, encoding="utf-8")
    report = LoadReport()
    with caplog.at_level(logging.WARNING, logger="di_decomp.ingestion"):
        frame = read_frame_csv(path, strict=False, report=report)
    assert report.rejected_rows == 1
    assert [r.getMessage().split(": ", 2)[2] for r in caplog.records] == [
        "line 2: unreadable record (field larger than field limit (131072))"
    ]
    assert [str(d) for d in frame.dates] == ["2015-01-14", "2015-01-16"]
    assert frame.data.ravel().tolist() == [1.0, 2.0]


def test_refused_record_spanning_lines_fails_strict_at_its_first_line(tmp_path):
    path = tmp_path / "frame.csv"
    path.write_text("date,x\n2015-01-12,0\n" + SPANNING_RECORD + "2015-01-14,x\n",
                    encoding="utf-8")
    with pytest.raises(ParseError, match=r"line 3: unreadable record \(field larger"):
        read_frame_csv(path)
    report = LoadReport()
    frame = read_frame_csv(path, strict=False, report=report)
    assert report.rejected_rows == 2  # the spanning record and line 6
    assert [str(d) for d in frame.dates] == ["2015-01-12"]


@pytest.mark.parametrize("refuse_nul", [False, True])
def test_panel_cells_over_the_field_limit_or_with_nul_are_rejected(
    tmp_path, monkeypatch, refuse_nul
):
    if refuse_nul:
        monkeypatch.setattr(ingestion.csv, "reader", _csv_reader_refusing_nul)
    path = tmp_path / "panel.csv"
    head = "survey_date,indicator,reference_year,median\n2015-01-13,IPCA,2016,6.25\n"
    path.write_text(head + "2015-01-13,IPCA,2015,6\x005\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape("line 3: cannot parse '6\\x005'")):
        read_focus_panel_csv(path)
    path.write_text(head + f"2015-01-13,IPCA,2015,{BIG_CELL}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"line 3: unreadable record \(field larger"):
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
    (record,) = read_focus_panel_csv(path).records
    assert (record.reference_year, record.median) == (2015, 5.0)


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
    assert f"bad value for {key}: {date!r}" in capsys.readouterr().err
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
    assert f"bad value for {key}: {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cut", ["0.00_1", "nan"])
def test_rejected_significance_cut(cut):
    env = {"DI_DECOMP_REPORT_SIGNIFICANCE_CUTS": f"{cut},0.01,0.05"}
    with pytest.raises(ConfigError, match="bad value for report.significance_cuts"):
        load_config(None, env=env)


def test_accepted_config_values():
    env = {
        "DI_DECOMP_REPORT_SIGNIFICANCE_CUTS": " 1e-3, .01 ,5E-2",
        "DI_DECOMP_SAMPLE_START": "2015-01-13",
        "DI_DECOMP_FIXTURE_N": " 2741\t",
        "DI_DECOMP_FIXTURE_SEED": "010",
    }
    config = load_config(None, env=env)
    assert config.significance_cuts == (0.001, 0.01, 0.05)
    assert str(config.start) == "2015-01-13"
    assert (config.fixture_n, config.seed) == (2741, 10)
