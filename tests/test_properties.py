"""Property tests: the date grammar, CSV round trips, the date-index
operations, OLS, the PLS1 factor, the CDS split and the contribution
accounting.

Calendars are drawn from 1900-2100, so many dates lie before 1970, where
``datetime64[D]`` day numbers are negative.
"""

import datetime as dt
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import di_decomp.ingestion as ingestion
from di_decomp import (
    DailySeries,
    Frame,
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
from di_decomp.errors import ParseError, SingularDesignError
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


def _date_oracle(text):
    """The YYYY-MM-DD grammar spelled out: the pattern, then a real ``datetime.date``."""
    if not re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        return None
    try:
        return dt.date(int(text[:4]), int(text[5:7]), int(text[8:]))
    except ValueError:  # no such day, or year 0000
        return None


# digits, the dash, characters numpy's own date parser takes or skips, and a
# non-ASCII digit (ARABIC-INDIC DIGIT THREE)
DATE_CHARS = "0123456789-T \t\x00+\u0663"
date_like = st.builds(
    "{:04d}-{:02d}-{:02d}".format,
    st.one_of(st.sampled_from([0, 1, 1900, 2000, 2023, 2024, 9999]), st.integers(0, 9999)),
    st.integers(0, 13),
    st.integers(0, 32),
)


@st.composite
def near_dates(draw):
    """A YYYY-MM-DD spelling with one character replaced, one inserted, or none."""
    text = draw(date_like)
    at, char = draw(st.integers(0, len(text))), draw(st.sampled_from(DATE_CHARS))
    return draw(st.sampled_from([text, text[:at] + char + text[at + 1:],
                                 text[:at] + char + text[at:]]))


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.one_of(near_dates(), st.text(DATE_CHARS, max_size=12)), max_size=20))
@example(texts=["0000-01-01", "0001-01-01", "9999-12-31", "2024-02-29", "2023-02-29",
                "1900-02-29", "2000-02-29", "2015-01-13\x00", "2015-01-13T10", "20150113",
                "+2015-01-13", "2015-01-1\u0663"])
def test_to_dates_matches_the_grammar_oracle(texts):
    """As a list, as ``_read_date`` and ``_parse_row`` pass it, and as the
    ``U16`` array ``np.loadtxt`` gives, which has dropped trailing NULs."""
    for given_texts in (texts, np.array(texts, dtype="U16")):
        got = ingestion._to_dates(given_texts)
        expected = [_date_oracle(str(t)) for t in given_texts]
        assert [None if np.isnat(d) else d.item() for d in got] == expected


# The real grammar as a second, separately written pattern.  It backtracks
# over every split of a digit run, so only short texts are drawn.
REAL_REFERENCE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text("0123456789.eE+- x", max_size=12),
                      st.from_regex(REAL_REFERENCE, fullmatch=True)))
def test_real_pattern_matches_the_reference_pattern(text):
    assert bool(ingestion._REAL.fullmatch(text)) == bool(REAL_REFERENCE.fullmatch(text))


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
    write_market_csv({s.name: s for s in series}, path)
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


# The quoted cells are outside the grammar, which has no quoting.
CELLS = ["1.5", " 2 ", "", "+.5", "1e-3", "1.2.3", "x", "nan", "1e999", '"4"', '"4,5"',
         '"4\n"']
ROW_DATES = ["2015-01-13", "2015-01-14", "1950-06-30", "2015-02-30", "bad", ""]


def _reference_load(text, names):
    """The same grammar read line by line: the loop the column-wise parser replaces.

    Each physical line is a record, cut into cells at every comma, so a
    quoted cell is rejected.  Returns each column's (dates, values) and
    None, or None and the first rejection's message, which names its line.
    """
    accepted = {}
    for no, line in enumerate(text.removesuffix("\n").split("\n"), start=1):
        cells = line.split(",")
        if no == 1 or not any(c.strip(" \t") for c in cells):
            continue
        try:
            date, values = ingestion._parse_row(cells, names)
            if date in accepted:
                raise ingestion._RowError(f"duplicate date {date}")
        except ingestion._RowError as exc:
            duplicate = exc.date is not None and exc.date in accepted
            return None, f"line {no}: " + (f"duplicate date {exc.date}" if duplicate else str(exc))
        accepted[date] = values
    columns = []
    for j in range(len(names)):
        kept = [(d, v[j]) for d, v in sorted(accepted.items()) if not math.isnan(v[j])]
        columns.append(([d.item() for d, _ in kept], np.array([v for _, v in kept]).tobytes()))
    return columns, None


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
def test_strict_parse_matches_line_by_line_reference(tmp_path_factory, rows, block):
    """The columns, or the first rejection or duplicate, come out as if read
    line by line, whatever the block size."""
    names = ("A", "B")
    lines = ["date,A,B"] + [r if r == "" else ",".join([r[0], *r[1]]) for r in rows]
    text = "\n".join(lines) + "\n"
    path = tmp_path_factory.mktemp("blocks") / "m.csv"
    path.write_text(text, encoding="utf-8")

    columns, error = _reference_load(text, names)
    mp = pytest.MonkeyPatch()
    mp.setattr(ingestion, "_BLOCK_ROWS", block)
    try:
        if error is not None:
            with pytest.raises(ParseError, match=re.escape(f"{path}: {error}") + "$"):
                load_market_csv(path, columns=names)
            return
        dataset = load_market_csv(path, columns=names)
    finally:
        mp.undo()
    assert [(s.dates.tolist(), s.values.tobytes()) for s in dataset.values()] == columns


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
