"""Property tests: CSV round trips, the date-index operations, OLS, the PLS1
factor, the CDS split and the contribution accounting.

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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import di_decomp.ingestion as ingestion
from di_decomp import (
    DailySeries,
    Frame,
    LoadReport,
    MarketDataset,
    accumulate,
    contributions,
    inner_join,
    macro_factor,
    ols_fit,
    pls1_fit,
    split_cds,
    validate_cumulative,
)
from di_decomp.decomposition import (
    CONTRIBUTION_COLUMNS,
    CUMULATIVE_COLUMNS,
    fit_decomposition_frame,
    join_decomposition_inputs,
)
from di_decomp.errors import SingularDesignError
from di_decomp.ingestion import frame_to_csv, load_market_csv, read_frame_csv, write_market_csv

from oracles import normal_equations_ols

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

    Returns each column's (dates, values) and the rejection messages, which
    name the physical line a record starts on.
    """
    accepted, errors = {}, []
    reader = csv.reader(io.StringIO(text))
    start = 1
    for cells in reader:
        no, start = start, reader.line_num + 1
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


def _trading_days(n):
    return [dt.date(2015, 1, 13) + dt.timedelta(days=i) for i in range(n)]


# Designs come from a drawn seed: Gaussian columns with drawn scales and
# offsets are well conditioned, where drawn floats would mostly be degenerate.
designs = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "extra_rows": st.integers(2, 40),
    "scales": st.lists(st.floats(0.1, 10.0), max_size=4),
    "offset": st.floats(-5.0, 5.0),
})


def _design(d):
    rng = np.random.default_rng(d["seed"])
    k = len(d["scales"])
    n = k + 1 + d["extra_rows"]
    x = rng.standard_normal((n, k)) * d["scales"] + d["offset"]
    y = x @ rng.standard_normal(k) + 3.0 + rng.standard_normal(n)
    return y, x


@PROPERTY_SETTINGS
@given(d=designs)
def test_ols_matches_normal_equations(d):
    y, x = _design(d)
    n, k = x.shape
    design = np.column_stack([np.ones(n), x])
    assume(np.linalg.cond(design) < 1e4)  # normal equations lose cond**2
    fit = ols_fit(y, Frame(_trading_days(n), [f"x{j}" for j in range(k)], x))
    oracle = normal_equations_ols(y, design)
    tol = 1e-7 * (1.0 + np.abs(oracle["beta"]).max())
    np.testing.assert_allclose(fit.coefficients, oracle["beta"], rtol=1e-7, atol=tol)
    np.testing.assert_allclose(fit.stderr, oracle["stderr"], rtol=1e-7, atol=tol)
    np.testing.assert_allclose(fit.fitted, oracle["fitted"], rtol=1e-7,
                               atol=1e-7 * (1.0 + np.abs(y).max()))


@PROPERTY_SETTINGS
@given(
    d=designs.filter(lambda d: d["scales"]),
    column=st.integers(0, 3),
    factor=st.sampled_from([1.0, -1.0, 2.0, 0.5, -3.0, 0.25, 7.5]),
)
def test_duplicated_or_rescaled_column_is_named(d, column, factor):
    y, x = _design(d)
    n, k = x.shape
    column %= k
    x = np.column_stack([x, factor * x[:, column]])
    names = [f"x{j}" for j in range(k)] + ["copy"]
    with pytest.raises(SingularDesignError) as exc_info:
        ols_fit(y, Frame(_trading_days(n), names, x))
    message = str(exc_info.value)
    assert f"'x{column}'" in message and "'copy'" in message


@PROPERTY_SETTINGS
@given(
    core=st.lists(days, min_size=8, max_size=40, unique=True),
    extras=st.lists(st.lists(days, max_size=10, unique=True), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_accounting_identities_on_partly_overlapping_calendars(core, extras, seed):
    """Each input has the shared dates plus its own; the decomposition runs on
    the intersection, and every daily and cumulative row adds up."""
    rng = np.random.default_rng(seed)
    calendars = [sorted(set(core) | set(own)) for own in extras]
    inputs = [
        DailySeries(name, cal, rng.standard_normal(len(cal)) * scale)
        for name, cal, scale in zip(("d", "m", "dom", "glob"), calendars,
                                    (13.0, 1.2, 0.02, 0.009))
    ]
    joined = join_decomposition_inputs(*inputs)
    assert joined.dates.tolist() == sorted(set.intersection(*map(set, calendars)))
    try:
        model = fit_decomposition_frame(joined)
    except SingularDesignError:
        assume(False)
    c = contributions(model, joined)
    assert c.names == CONTRIBUTION_COLUMNS
    np.testing.assert_array_equal(c.dates, joined.dates)
    gap = np.abs(c.data[:, 0] - c.data[:, 1:].sum(axis=1))
    assert gap.max() <= 1e-9 * (1.0 + np.abs(c.data).max())
    cum = accumulate(c)
    assert cum.names == CUMULATIVE_COLUMNS
    validate_cumulative(cum)
    np.testing.assert_allclose(cum.data[-1], c.data.sum(axis=0), rtol=1e-9, atol=1e-9)


@PROPERTY_SETTINGS
@given(
    core=st.lists(days, min_size=10, max_size=40, unique=True),
    extras=st.lists(st.lists(days, max_size=10, unique=True), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_cds_split_adds_up_and_is_orthogonal_on_partly_overlapping_calendars(
    core, extras, seed
):
    """CDS and the four regressors each have the shared dates plus their own.
    On the joined dates glob + dom is CDS, and dom has zero mean and is
    orthogonal to every regressor."""
    rng = np.random.default_rng(seed)
    calendars = [sorted(set(core) | set(own)) for own in extras]
    cds, *regressors = [
        DailySeries(f"s{i}", cal, rng.standard_normal(len(cal)) * scale)
        for i, (cal, scale) in enumerate(zip(calendars, (0.02, 0.004, 0.008, 0.06, 0.05)))
    ]
    _, parts = split_cds(cds, *regressors)
    joined = inner_join([cds, *regressors])
    assert joined.dates.tolist() == sorted(set.intersection(*map(set, calendars)))
    np.testing.assert_array_equal(parts.glob.dates, joined.dates)
    np.testing.assert_array_equal(parts.dom.dates, joined.dates)
    y, x, dom = joined.data[:, 0], joined.data[:, 1:], parts.dom.values
    np.testing.assert_allclose(parts.glob.values + dom, y, rtol=0, atol=1e-12 * np.abs(y).max())
    scale = np.linalg.norm(y) * np.sqrt(len(y))
    assert abs(dom.mean()) <= 1e-12 * scale
    assert np.all(np.abs(x.T @ dom) <= 1e-12 * scale * np.linalg.norm(x, axis=0))


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 60),
    k=st.integers(1, 6),
    data=st.data(),
)
def test_pls1_factor_ignores_column_order_and_positive_scale(seed, n, k, data):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k)) * rng.uniform(0.1, 10.0, k) + rng.uniform(-5.0, 5.0, k)
    y = x @ rng.standard_normal(k) + rng.standard_normal(n)
    dates, names = _trading_days(n), [f"x{j}" for j in range(k)]
    base_x = Frame(dates, names, x)
    base = pls1_fit(base_x, y)
    factor = macro_factor(base, base_x).values

    order = data.draw(st.permutations(range(k)))
    permuted_x = Frame(dates, [names[j] for j in order], x[:, order])
    permuted = pls1_fit(permuted_x, y)
    np.testing.assert_allclose(permuted.weights, base.weights[order], rtol=0, atol=1e-10)
    np.testing.assert_allclose(macro_factor(permuted, permuted_x).values, factor,
                               rtol=0, atol=1e-10)

    scales = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k))
    scaled_x = Frame(dates, names, x * np.array(scales))
    scaled = pls1_fit(scaled_x, y)
    np.testing.assert_allclose(scaled.weights, base.weights, rtol=0, atol=1e-10)
    np.testing.assert_allclose(macro_factor(scaled, scaled_x).values, factor,
                               rtol=0, atol=1e-10)
