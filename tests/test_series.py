"""Tests for daily series containers and the standard transforms."""

import dataclasses
import datetime as dt
import pickle
import tracemalloc

import numpy as np
import pytest

from di_decomp import (
    DailySeries,
    Frame,
    VarianceShares,
    diff,
    inner_join,
    log_return,
    ols_fit,
    pls1_fit,
    standardize,
    to_bps_change,
)
from di_decomp.errors import (
    DegenerateColumnError,
    DomainError,
    InsufficientDataError,
    SchemaError,
)

# ln(1.1) from a 40-digit arbitrary-precision evaluation (mpmath)
LN_1_1 = 0.09531017980432486


def days(n, start=dt.date(2020, 1, 1)):
    return tuple(start + dt.timedelta(days=i) for i in range(n))


def series(values, name="s", start=dt.date(2020, 1, 1)):
    return DailySeries(name, days(len(values), start), np.asarray(values, dtype=float))


class TestDailySeries:
    def test_rejects_duplicate_dates(self):
        d = dt.date(2020, 1, 1)
        with pytest.raises(SchemaError):
            DailySeries("s", (d, d), np.array([1.0, 2.0]))

    def test_rejects_unsorted_dates(self):
        d1, d2 = dt.date(2020, 1, 2), dt.date(2020, 1, 1)
        with pytest.raises(SchemaError):
            DailySeries("s", (d1, d2), np.array([1.0, 2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            series([1.0, np.nan])
        with pytest.raises(DomainError):
            series([1.0, np.inf])

    def test_values_are_immutable(self):
        s = series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_window(self):
        s = series([1.0, 2.0, 3.0, 4.0])
        w = s.window(start=s.dates[1], end=s.dates[2])
        np.testing.assert_array_equal(w.dates, s.dates[1:3])
        np.testing.assert_array_equal(w.values, [2.0, 3.0])


class TestLogReturn:
    def test_constant_series_gives_zeros(self):
        out = log_return(series([100.0, 100.0, 100.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0])

    def test_ten_percent_move(self):
        out = log_return(series([100.0, 110.0]))
        assert out.values[0] == pytest.approx(LN_1_1, abs=1e-15)

    def test_zero_value_is_domain_error_naming_date(self):
        s = series([100.0, 0.0, 90.0])
        with pytest.raises(DomainError, match="2020-01-02"):
            log_return(s)

    def test_negative_value_is_domain_error(self):
        with pytest.raises(DomainError):
            log_return(series([100.0, -1.0]))

    def test_single_point_insufficient(self):
        with pytest.raises(InsufficientDataError):
            log_return(series([100.0]))

    def test_dated_at_later_observation_and_gaps_ignored(self):
        dates = (dt.date(2020, 1, 1), dt.date(2020, 1, 2), dt.date(2020, 1, 10))
        s = DailySeries("s", dates, np.array([100.0, 110.0, 121.0]))
        out = log_return(s)
        assert out.dates.tolist() == list(dates[1:])
        np.testing.assert_allclose(out.values, [LN_1_1, LN_1_1], atol=1e-15)


class TestDiff:
    def test_constant_series(self):
        np.testing.assert_array_equal(diff(series([5.0, 5.0, 5.0])).values, [0.0, 0.0])

    def test_policy_rate_step(self):
        assert diff(series([13.85, 13.00])).values[0] == pytest.approx(-0.85)

    def test_single_point_errors(self):
        with pytest.raises(InsufficientDataError):
            diff(series([5.0]))


class TestToBpsChange:
    def test_ten_bps_up(self):
        np.testing.assert_allclose(to_bps_change(series([13.25, 13.35])).values, [10.0])

    def test_flat(self):
        np.testing.assert_array_equal(to_bps_change(series([10.0, 10.0])).values, [0.0])

    def test_fifty_bps_down(self):
        np.testing.assert_allclose(to_bps_change(series([12.00, 11.50])).values, [-50.0])


class TestInnerJoin:
    def test_identical_dates(self):
        a = series([1.0, 2.0, 3.0], "a")
        b = series([4.0, 5.0, 6.0], "b")
        f = inner_join([a, b])
        assert f.names == ("a", "b")
        assert f.n_rows == 3

    def test_partial_overlap(self):
        a = series([1.0, 2.0, 3.0], "a", dt.date(2020, 1, 1))
        b = series([4.0, 5.0, 6.0], "b", dt.date(2020, 1, 2))
        f = inner_join([a, b])
        assert f.dates.tolist() == list(days(2, dt.date(2020, 1, 2)))
        np.testing.assert_array_equal(f.column("a"), [2.0, 3.0])
        np.testing.assert_array_equal(f.column("b"), [4.0, 5.0])

    def test_disjoint_dates_give_empty_frame(self):
        a = series([1.0], "a", dt.date(2020, 1, 1))
        b = series([2.0], "b", dt.date(2021, 1, 1))
        f = inner_join([a, b])
        assert f.n_rows == 0
        assert f.names == ("a", "b")

    def test_duplicate_names_rejected(self):
        a = series([1.0, 2.0], "x")
        with pytest.raises(SchemaError, match="duplicate"):
            inner_join([a, a])

    def test_empty_input_rejected(self):
        with pytest.raises(InsufficientDataError):
            inner_join([])

    def test_order_insensitive(self):
        rng = np.random.default_rng(7)
        base = dt.date(2020, 1, 1)
        all_days = days(40, base)
        built = []
        for i in range(4):
            keep = sorted(rng.choice(40, size=25, replace=False))
            built.append(
                DailySeries(f"s{i}", tuple(all_days[k] for k in keep), rng.standard_normal(25))
            )
        f1 = inner_join(built)
        f2 = inner_join(built[::-1])
        np.testing.assert_array_equal(f1.dates, f2.dates)
        for s in built:
            np.testing.assert_array_equal(f1.column(s.name), f2.column(s.name))


class TestStandardize:
    def test_symmetric_column(self):
        f = Frame.from_columns(days(3), {"x": [1.0, 2.0, 3.0]})
        z, params = standardize(f)
        np.testing.assert_allclose(z.column("x"), [-1.0, 0.0, 1.0], atol=1e-14)
        assert params.means[0] == pytest.approx(2.0)
        assert params.stds[0] == pytest.approx(1.0)

    def test_constant_column_rejected_by_name(self):
        f = Frame.from_columns(days(3), {"flat": [5.0, 5.0, 5.0], "x": [1.0, 2.0, 4.0]})
        with pytest.raises(DegenerateColumnError, match="flat"):
            standardize(f)

    def test_idempotent_within_tolerance(self):
        rng = np.random.default_rng(3)
        f = Frame.from_columns(days(50), {"x": rng.standard_normal(50)})
        z1, _ = standardize(f)
        z2, _ = standardize(z1)
        np.testing.assert_allclose(z2.data, z1.data, atol=1e-12)

    def test_output_moments(self):
        rng = np.random.default_rng(11)
        f = Frame.from_columns(
            days(200),
            {"a": rng.normal(50.0, 3.0, 200), "b": rng.normal(-2.0, 0.01, 200)},
        )
        z, _ = standardize(f)
        assert np.all(np.abs(z.data.mean(axis=0)) < 1e-12)
        assert np.all(np.abs(z.data.std(axis=0, ddof=1) - 1.0) < 1e-12)

    def test_round_trip_via_params(self):
        rng = np.random.default_rng(5)
        f = Frame.from_columns(
            days(100), {"a": rng.normal(10, 2, 100), "b": rng.normal(0, 5, 100)}
        )
        z, params = standardize(f)
        back = params.inverse(z)
        np.testing.assert_allclose(back.data, f.data, atol=1e-10)

    def test_too_few_rows(self):
        f = Frame.from_columns(days(1), {"x": [1.0]})
        with pytest.raises(InsufficientDataError):
            standardize(f)


class TestProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_log_return_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.uniform(-0.2, 0.2, size=30)
        levels = np.exp(np.concatenate([[0.0], np.cumsum(d)]))
        out = log_return(series(levels))
        np.testing.assert_allclose(out.values, d, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_diff_cumsum_round_trip(self, seed):
        rng = np.random.default_rng(100 + seed)
        s = rng.normal(0, 3, size=40)
        out = diff(series(np.cumsum(s)))
        np.testing.assert_allclose(out.values, s[1:], atol=1e-12)

    def test_outputs_contain_no_nan(self):
        rng = np.random.default_rng(42)
        s = series(np.abs(rng.normal(100, 5, 60)) + 1.0)
        for out in (log_return(s), diff(s), to_bps_change(s)):
            assert np.all(np.isfinite(out.values))


class TestFrame:
    @pytest.mark.parametrize("shape", [(6,), (3, 2)], ids=["one-dimensional", "transposed"])
    def test_data_must_be_dates_by_columns(self, shape):
        with pytest.raises(SchemaError, match=r"data shape .* does not match 2 dates x 3 columns"):
            Frame(days(2), ("a", "b", "c"), np.zeros(shape))


def _containers():
    """One of each frozen dataclass that holds arrays."""
    frame = Frame(days(6), ("a", "b"), [[1.0, 2.0], [2.0, 1.0], [4.0, 3.0],
                                        [3.0, 5.0], [6.0, 4.0], [5.0, 7.0]])
    y = np.array([1.0, 0.5, 2.0, 2.5, 3.0, 4.5])
    shares = VarianceShares(("macro", "global"), [0.25, 0.75], [[1.0, 0.1], [0.1, 1.0]])
    return [series([1.0, 2.0, 4.0]), frame, standardize(frame)[1], ols_fit(y, frame),
            pls1_fit(frame, y), shares]


def _assert_same(back, value):
    """``back`` equals ``value`` field by field; each array is read-only and
    kept uncopied when ``back``'s fields build the container again."""
    rebuilt = type(back)(*(getattr(back, f.name) for f in dataclasses.fields(back)))
    for f in dataclasses.fields(value):
        got, want = getattr(back, f.name), getattr(value, f.name)
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype and not got.flags.writeable, f.name
            assert getattr(rebuilt, f.name) is got, f.name
        elif dataclasses.is_dataclass(want):
            _assert_same(got, want)
        else:
            assert got == want, f.name


class TestSharing:
    """Containers hold each array once: views of frozen arrays are kept,
    anything a caller could still write is copied."""

    def frame(self):
        data = np.arange(30, dtype=float).reshape(10, 3)
        return Frame(days(10), ("a", "b", "c"), data)

    def test_window_series_and_column_share_the_frame_memory(self):
        f = self.frame()
        window = f.window(dt.date(2020, 1, 3), dt.date(2020, 1, 7))
        assert np.shares_memory(window.data, f.data)
        assert np.shares_memory(window.dates, f.dates)
        s = f.series("b")
        assert np.shares_memory(s.values, f.data)
        assert np.shares_memory(s.dates, f.dates)
        assert np.shares_memory(s.window(end=dt.date(2020, 1, 5)).values, f.data)
        assert np.shares_memory(f.column("c"), f.data)

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        base = np.arange(10, dtype=float)
        view = base[:]
        view.setflags(write=False)
        s = DailySeries("s", days(10), view)
        base2 = np.arange(20, dtype=float)
        view2 = base2.reshape(10, 2)
        view2.setflags(write=False)
        f = Frame(days(10), ("a", "b"), view2)
        base[:] = -1.0
        base2[:] = -1.0
        np.testing.assert_array_equal(s.values, np.arange(10.0))
        np.testing.assert_array_equal(f.data, np.arange(20.0).reshape(10, 2))

    def test_writeable_input_is_copied_and_frozen(self):
        values = np.arange(5, dtype=float)
        s = DailySeries("s", days(5), values)
        values[0] = 99.0
        assert s.values[0] == 0.0
        assert not s.values.flags.writeable

    @pytest.mark.parametrize("protocol", [2, 4, pickle.HIGHEST_PROTOCOL])
    def test_unpickled_series_is_read_only_and_held_once(self, protocol):
        s = pickle.loads(pickle.dumps(DailySeries("s", days(5), np.arange(5.0)), protocol))
        assert s.name == "s" and s.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert s.dates.tolist() == list(days(5))
        assert not s.dates.flags.writeable and not s.values.flags.writeable
        window = s.window(dt.date(2020, 1, 2))
        assert np.shares_memory(window.values, s.values)
        assert np.shares_memory(window.dates, s.dates)
        # every container comes back equal, read-only, and kept by its constructor
        for value in _containers():
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value)
            _assert_same(back, value)

    def test_unpickling_runs_the_constructor_checks(self):
        data = np.arange(3.0).reshape(3, 1)
        pickled = pickle.dumps(Frame(days(3), ("a",), data), 4)
        tampered = pickled.replace(data.tobytes(), np.array([0.0, np.inf, 2.0]).tobytes())
        with pytest.raises(DomainError, match="non-finite"):
            pickle.loads(tampered)

    def test_inner_join_on_one_calendar_allocates_about_its_output(self):
        n, k = 20000, 21
        dates = np.arange(np.datetime64("1950-01-01"), np.datetime64("1950-01-01") + n)
        dates.setflags(write=False)
        rng = np.random.default_rng(3)
        inputs = []
        for j in range(k):
            values = rng.standard_normal(n)
            values.setflags(write=False)
            inputs.append(DailySeries(f"s{j}", dates, values))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            joined = inner_join(inputs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert joined.data.nbytes == n * k * 8
        assert peak <= 1.5 * joined.data.nbytes
        for j, s in enumerate(inputs):
            np.testing.assert_array_equal(joined.data[:, j], s.values)
