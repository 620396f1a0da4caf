"""Property tests: CSV round trips and the date-index operations.

Calendars are drawn from 1900-2100, so many dates lie before 1970, where
``datetime64[D]`` day numbers are negative.
"""

import csv
import datetime as dt
import io
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import di_decomp.ingestion as ingestion
from di_decomp import DailySeries, Frame, LoadReport, MarketDataset, inner_join
from di_decomp.ingestion import frame_to_csv, load_market_csv, read_frame_csv, write_market_csv

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

days = st.dates(min_value=dt.date(1900, 1, 1), max_value=dt.date(2100, 12, 31))
calendars = st.lists(days, max_size=30, unique=True).map(sorted)
reals = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789", min_size=1, max_size=8)


@st.composite
def series_sets(draw, min_series=1):
    """Uniquely named series on partly overlapping calendars."""
    pool = draw(st.lists(days, min_size=1, max_size=40, unique=True))
    labels = draw(st.lists(names, min_size=min_series, max_size=5, unique=True))
    out = []
    for label in labels:
        dates = sorted(draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True)))
        values = draw(st.lists(reals, min_size=len(dates), max_size=len(dates)))
        out.append(DailySeries(label, dates, np.array(values, dtype=float)))
    return out


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY_SETTINGS
@given(
    dates=calendars,
    labels=st.lists(names, max_size=4, unique=True),
    data=st.data(),
)
def test_frame_csv_round_trip_is_exact(tmp_path_factory, dates, labels, data):
    values = data.draw(
        st.lists(st.lists(reals, min_size=len(labels), max_size=len(labels)),
                 min_size=len(dates), max_size=len(dates))
    )
    frame = Frame(dates, labels, np.array(values, dtype=float).reshape(len(dates), len(labels)))
    path = tmp_path_factory.mktemp("frame") / "f.csv"
    frame_to_csv(frame, path)
    back = read_frame_csv(path)
    assert back.names == frame.names
    assert back.dates.tolist() == dates
    assert _same_bits(back.data, frame.data)


@PROPERTY_SETTINGS
@given(series=series_sets())
def test_market_csv_round_trip_is_exact(tmp_path_factory, series):
    path = tmp_path_factory.mktemp("market") / "m.csv"
    write_market_csv(MarketDataset(tuple(series)), path)
    back = load_market_csv(path, columns=[s.name for s in series])
    for s in series:
        np.testing.assert_array_equal(back[s.name].dates, s.dates)
        assert _same_bits(back[s.name].values, s.values)


@PROPERTY_SETTINGS
@given(series=series_sets())
def test_inner_join_matches_set_oracle(series):
    frame = inner_join(series)
    common = set(series[0].dates.tolist())
    for s in series[1:]:
        common &= set(s.dates.tolist())
    expected_dates = sorted(common)
    assert frame.dates.tolist() == expected_dates
    assert frame.names == tuple(s.name for s in series)
    for s in series:
        lookup = dict(zip(s.dates.tolist(), s.values.tolist()))
        assert _same_bits(frame.column(s.name), [lookup[d] for d in expected_dates])


bounds = st.one_of(st.none(), days, days.map(np.datetime64))


@PROPERTY_SETTINGS
@given(series=series_sets(), start=bounds, end=bounds)
def test_window_matches_filter_oracle(series, start, end):
    lo = None if start is None else np.datetime64(start, "D").item()
    hi = None if end is None else np.datetime64(end, "D").item()

    def inside(d):
        return (lo is None or d >= lo) and (hi is None or d <= hi)

    for s in series:
        w = s.window(start, end)
        kept = [(d, v) for d, v in zip(s.dates.tolist(), s.values.tolist()) if inside(d)]
        assert w.dates.tolist() == [d for d, _ in kept]
        assert _same_bits(w.values, [v for _, v in kept])
    frame = inner_join(series)
    fw = frame.window(start, end)
    assert fw.dates.tolist() == [d for d in frame.dates.tolist() if inside(d)]
    assert _same_bits(fw.data, frame.data[[inside(d) for d in frame.dates.tolist()]])


CELLS = ["1.5", " 2 ", "", "+.5", "1e-3", "1.2.3", "x", "nan", "1e999", '"4"', '"4,5"',
         '"4\n"']
ROW_DATES = ["2015-01-13", "2015-01-14", "1950-06-30", "2015-02-30", "bad", ""]


def _reference_load(text, names):
    """The same grammar read line by line: the loop the column-wise parser replaces.

    Returns each column's (dates, values) and the rejection messages.
    """
    accepted, errors = {}, []
    for no, cells in enumerate(csv.reader(io.StringIO(text)), start=1):
        if no == 1 or not any(c.strip(" \t") for c in cells):
            continue
        try:
            date, values = ingestion._parse_row(cells, names)
            if date in accepted:
                raise ingestion._RowError(f"duplicate date {date}")
        except ingestion._RowError as exc:
            duplicate = exc.date is not None and exc.date in accepted
            errors.append(f"line {no}: " + (f"duplicate date {exc.date}" if duplicate else str(exc)))
            continue
        accepted[date] = values
    columns = []
    for j in range(len(names)):
        kept = [(d, v[j]) for d, v in sorted(accepted.items()) if not math.isnan(v[j])]
        columns.append(([d.item() for d, _ in kept], np.array([v for _, v in kept]).tobytes()))
    return columns, errors


@PROPERTY_SETTINGS
@given(
    rows=st.lists(
        st.one_of(
            st.just(""),
            st.tuples(st.sampled_from(ROW_DATES), st.lists(st.sampled_from(CELLS),
                                                           min_size=1, max_size=3)),
        ),
        max_size=12,
    ),
    block=st.sampled_from([1, 2, 3, 8192]),
)
def test_lenient_parse_matches_line_by_line_reference(tmp_path_factory, rows, block):
    """Rejections, duplicates and warnings come out as if read line by line,
    whatever the block size."""
    names = ("A", "B")
    lines = ["date,A,B"] + [r if r == "" else ",".join([r[0], *r[1]]) for r in rows]
    text = "\n".join(lines) + "\n"
    path = tmp_path_factory.mktemp("blocks") / "m.csv"
    path.write_text(text, encoding="utf-8")

    report, records = LoadReport(), []
    handler = logging.Handler()
    handler.emit = records.append
    log = logging.getLogger("di_decomp.ingestion")
    log.addHandler(handler)
    mp = pytest.MonkeyPatch()
    mp.setattr(ingestion, "_BLOCK_ROWS", block)
    try:
        dataset = load_market_csv(path, columns=names, strict=False, report=report)
    finally:
        mp.undo()
        log.removeHandler(handler)

    columns, errors = _reference_load(text, names)
    assert [(s.dates.tolist(), s.values.tobytes()) for s in dataset.series] == columns
    assert report.rejected_rows == len(errors)
    assert [r.getMessage() for r in records] == [f"{path}: rejected row: {e}" for e in errors]
