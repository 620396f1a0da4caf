"""Calendar-aligned daily series, frames, and the standard transforms.

Dates are end-of-day stamps with no timezone.  Every date index is stored as
a sorted, read-only ``datetime64[D]`` array; constructors also accept any
sequence of ``datetime.date``, and ``dates.tolist()`` gives the dates back
as ``datetime.date`` objects.  Series sit on irregular business-day
calendars; differences and log returns always span consecutive *available*
observations, with no adjustment for calendar gaps.  All containers are
immutable after construction and every operation is a pure function, so
values can be shared freely across threads.

Arrays are held once.  A constructor keeps, uncopied, an array that nothing
can write: a read-only array that owns its memory, or a view of one such as
a window or column of another container.  It copies any other array.
Functions that allocate a result freeze it with ``_frozen`` to hand it over.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateColumnError,
    DomainError,
    InsufficientDataError,
    SchemaError,
)

TradingDate = dt.date

__all__ = [
    "TradingDate",
    "date_index",
    "DailySeries",
    "Frame",
    "StandardizationParams",
    "log_return",
    "diff",
    "to_bps_change",
    "inner_join",
    "standardize",
]


def _shared(values, dtype: str) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array, uncopied if nothing can write it."""
    if type(values) is np.ndarray and values.dtype == dtype and not values.flags.writeable:
        owner = values if values.base is None else values.base
        if type(owner) is np.ndarray and owner.flags.owndata and not owner.flags.writeable:
            return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Freeze an array its caller has just allocated, so a constructor keeps it."""
    if isinstance(arr.base, np.ndarray):  # a fancy-index result's fresh buffer
        arr.base.setflags(write=False)
    arr.setflags(write=False)
    return arr


def date_index(dates: Iterable[TradingDate] | np.ndarray) -> np.ndarray:
    """A date sequence as a read-only ``datetime64[D]`` array, uncopied if frozen."""
    arr = _shared(dates, "datetime64[D]")
    if arr.ndim != 1:
        raise SchemaError(f"dates must be 1-dimensional, got shape {arr.shape}")
    return arr


def _check_dates(dates: np.ndarray, context: str) -> None:
    bad = np.flatnonzero(~(np.diff(dates) > np.timedelta64(0, "D")))
    if bad.size:
        a, b = dates[bad[0]], dates[bad[0] + 1]
        raise SchemaError(
            f"{context}: dates must be strictly increasing, got {a} then {b}"
        )


def _window_slice(
    dates: np.ndarray, start: TradingDate | None, end: TradingDate | None
) -> slice:
    """Positions of the dates in the closed interval [start, end]."""
    lo = 0 if start is None else int(np.searchsorted(dates, np.datetime64(start, "D")))
    hi = (
        len(dates) if end is None
        else int(np.searchsorted(dates, np.datetime64(end, "D"), side="right"))
    )
    return slice(lo, max(lo, hi))


@dataclass(frozen=True, eq=False)
class DailySeries:
    """A named, date-indexed sequence of finite float observations.

    Dates are strictly increasing with no duplicates; values contain no
    NaN or infinity.
    """

    name: str
    dates: np.ndarray  # datetime64[D], read-only
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", date_index(self.dates))
        object.__setattr__(self, "values", _shared(self.values, "float64"))
        if self.values.ndim != 1:
            raise SchemaError(f"series '{self.name}': values must be 1-dimensional")
        if len(self.dates) != len(self.values):
            raise SchemaError(
                f"series '{self.name}': {len(self.dates)} dates vs "
                f"{len(self.values)} values"
            )
        _check_dates(self.dates, f"series '{self.name}'")
        if self.values.size and not np.all(np.isfinite(self.values)):
            bad = int(np.flatnonzero(~np.isfinite(self.values))[0])
            raise DomainError(
                f"series '{self.name}': non-finite value at {self.dates[bad]}"
            )

    def __len__(self) -> int:
        return len(self.dates)

    def with_name(self, name: str) -> "DailySeries":
        return dataclasses.replace(self, name=name)

    def window(
        self, start: TradingDate | None = None, end: TradingDate | None = None
    ) -> "DailySeries":
        """Restrict to dates in the closed interval [start, end].

        Bounds may be ``datetime.date`` or ``numpy.datetime64`` values.
        """
        keep = _window_slice(self.dates, start, end)
        return DailySeries(self.name, self.dates[keep], self.values[keep])


@dataclass(frozen=True, eq=False)
class Frame:
    """Named columns of equal length on a shared, strictly increasing date index."""

    dates: np.ndarray  # datetime64[D], read-only
    names: tuple[str, ...]
    data: np.ndarray  # shape (n_rows, n_cols)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", date_index(self.dates))
        object.__setattr__(self, "names", tuple(self.names))
        arr = _shared(self.data, "float64")
        if arr.ndim != 2:
            arr = _frozen(arr.reshape(len(self.dates), len(self.names)))
        object.__setattr__(self, "data", arr)
        if len(set(self.names)) != len(self.names):
            dupes = sorted({n for n in self.names if self.names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        if arr.shape != (len(self.dates), len(self.names)):
            raise SchemaError(
                f"data shape {arr.shape} does not match "
                f"{len(self.dates)} dates x {len(self.names)} columns"
            )
        _check_dates(self.dates, "frame")
        if arr.size and not np.all(np.isfinite(arr)):
            raise DomainError("frame contains non-finite values")

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    def index(self, name: str) -> int:
        if name not in self.names:
            raise SchemaError(f"no column '{name}' in frame {list(self.names)}")
        return self.names.index(name)

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.index(name)]

    def series(self, name: str) -> DailySeries:
        return DailySeries(name, self.dates, self.column(name))

    def select(self, names: Sequence[str]) -> "Frame":
        idx = [self.index(n) for n in names]
        # a column-major copy: the matrix kernels' rounding depends on layout,
        # so a strided view here would change the fitted factor's last bits
        return Frame(self.dates, tuple(names), _frozen(self.data[:, idx]))

    def window(
        self, start: TradingDate | None = None, end: TradingDate | None = None
    ) -> "Frame":
        """Restrict to dates in the closed interval [start, end]."""
        keep = _window_slice(self.dates, start, end)
        return Frame(self.dates[keep], self.names, self.data[keep])

    @classmethod
    def from_columns(
        cls, dates: Sequence[TradingDate], columns: Mapping[str, Sequence[float]]
    ) -> "Frame":
        names = tuple(columns)
        if names:
            data = np.column_stack([np.asarray(columns[n], dtype=float) for n in names])
        else:
            data = np.empty((len(dates), 0))
        return cls(dates, names, data)


@dataclass(frozen=True, eq=False)
class StandardizationParams:
    """Per-column sample mean and sample standard deviation (n-1 denominator)."""

    names: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "means", _shared(self.means, "float64"))
        object.__setattr__(self, "stds", _shared(self.stds, "float64"))
        if np.any(self.stds <= 0.0):
            bad = self.names[int(np.flatnonzero(self.stds <= 0.0)[0])]
            raise DegenerateColumnError(f"column '{bad}': standard deviation not > 0")

    def _check_schema(self, frame: Frame) -> None:
        if frame.names != self.names:
            raise SchemaError(
                f"frame columns {list(frame.names)} do not match "
                f"standardization columns {list(self.names)}"
            )

    def transform(self, frame: Frame) -> Frame:
        """Apply the stored (x - mean) / std to a frame with matching columns."""
        self._check_schema(frame)
        z = frame.data - self.means
        z /= self.stds
        return Frame(frame.dates, frame.names, _frozen(z))

    def inverse(self, frame: Frame) -> Frame:
        """Undo :meth:`transform`: x = z * std + mean."""
        self._check_schema(frame)
        return Frame(frame.dates, frame.names, _frozen(frame.data * self.stds + self.means))


def _require_points(s: DailySeries, n: int, op: str) -> None:
    if len(s) < n:
        raise InsufficientDataError(
            f"{op}: series '{s.name}' has {len(s)} points, needs at least {n}"
        )


def log_return(s: DailySeries) -> DailySeries:
    """Log returns over consecutive available observations.

    The return for each pair of consecutive observations is dated at the
    later one, so the output has one fewer point than the input.  All input
    values must be strictly positive.
    """
    _require_points(s, 2, "log_return")
    if np.any(s.values <= 0.0):
        bad = int(np.flatnonzero(s.values <= 0.0)[0])
        raise DomainError(
            f"log_return: non-positive value {s.values[bad]} at {s.dates[bad]} "
            f"in series '{s.name}'"
        )
    return DailySeries(s.name, s.dates[1:], _frozen(np.diff(np.log(s.values))))


def diff(s: DailySeries) -> DailySeries:
    """First differences over consecutive available observations, dated at the later one."""
    _require_points(s, 2, "diff")
    return DailySeries(s.name, s.dates[1:], _frozen(np.diff(s.values)))


def to_bps_change(s: DailySeries) -> DailySeries:
    """Daily change of a percent-quoted series, in basis points.

    A move from 13.25 to 13.35 (percentage points) is +10 bps.
    """
    d = diff(s)
    return DailySeries(s.name, d.dates, _frozen(d.values * 100.0))


def inner_join(series: Sequence[DailySeries]) -> Frame:
    """Align one or more uniquely named series on the dates every one has.

    The frame has one column per series, in order.  A disjoint calendar
    yields an empty (0-row) frame, not an error.
    """
    if not series:
        raise InsufficientDataError("inner_join: need at least one series")
    names = [s.name for s in series]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise SchemaError(f"inner_join: duplicate series names: {dupes}")
    common = series[0].dates
    for s in series[1:]:
        if np.array_equal(s.dates, common):
            continue
        # both indexes are sorted and unique: keep the dates s also has
        at = np.searchsorted(s.dates, common)
        hit = at < len(s)
        hit[hit] = s.dates[at[hit]] == common[hit]
        common = common[hit]
    data = np.empty((len(common), len(series)))
    for j, s in enumerate(series):
        same = np.array_equal(s.dates, common)
        data[:, j] = s.values if same else s.values[np.searchsorted(s.dates, common)]
    return Frame(common, tuple(names), _frozen(data))


def standardize(frame: Frame) -> tuple[Frame, StandardizationParams]:
    """Scale every column to zero mean and unit sample standard deviation.

    Returns the standardized frame together with the per-column parameters
    needed to reproduce or invert the scaling.  A column with zero sample
    variance cannot be standardized and raises ``DegenerateColumnError``.
    """
    if frame.n_rows < 2:
        raise InsufficientDataError(
            f"standardize: need at least 2 rows, got {frame.n_rows}"
        )
    means = frame.data.mean(axis=0)
    stds = frame.data.std(axis=0, ddof=1)
    zero = np.flatnonzero(stds == 0.0)
    if zero.size:
        raise DegenerateColumnError(
            f"column '{frame.names[int(zero[0])]}' has zero sample variance"
        )
    z = frame.data - means
    z /= stds
    # second de-meaning pass keeps |mean| at machine precision even for
    # large-offset columns
    z -= z.mean(axis=0)
    return Frame(frame.dates, frame.names, _frozen(z)), StandardizationParams(
        frame.names, means, stds
    )
