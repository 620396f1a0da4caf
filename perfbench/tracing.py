"""Spans and counts recorded from outside di_decomp, at its import boundaries.

The tracer replaces module attributes (the names one module imported from
another) and two methods with wrappers that open a span, call through and
close it.  Spans are kept in memory as ``[layer, name, start, end, parent]``
and written out when the run ends.  A layer's self time is its spans'
durations minus the time their child spans cover.

Only the standard library is imported here, so the CLI bootstrap can load
this module before it times ``import di_decomp``.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter
from time import perf_counter

LAYERS = (
    "startup", "cli", "pipeline", "ingestion", "series",
    "pls", "cds", "regression", "decomposition", "svg_chart",
)

def _read_rows(result) -> int:
    if hasattr(result, "n_rows"):  # Frame
        return result.n_rows
    if hasattr(result, "series"):  # MarketDataset: one row per distinct date
        return len({d for s in result.series for d in s.dates})
    return len(result)  # FocusPanel


def _count_read(counts, args, kwargs, result, report_before):
    counts["ingestion.read_bytes"] += os.path.getsize(args[0])
    counts["ingestion.rows_read"] += _read_rows(result)
    report = kwargs.get("report")
    if report is not None:
        counts["ingestion.rows_rejected"] += report.rejected_rows - report_before


def _count_write(counts, args, kwargs, result, report_before):
    counts["ingestion.write_bytes"] += os.path.getsize(args[1])


def _count_svg(counts, args, kwargs, result, report_before):
    counts["svg_chart.bytes"] += os.path.getsize(args[1])


def _count_join(counts, args, kwargs, result, report_before):
    series = args[0]
    counts["series.join_rows_in"] += sum(len(s) for s in series)
    counts["series.join_rows_kept"] += result.n_rows * len(series)


def _count_window(counts, args, kwargs, result, report_before):
    counts["series.window_calls"] += 1


def _count_ols(counts, args, kwargs, result, report_before):
    counts["regression.ols_calls"] += 1


def _count_pvalue(counts, args, kwargs, result, report_before):
    counts["regression.pvalue_calls"] += 1


_PIPE = "di_decomp.pipeline"

# (module, attribute, layer, counter).  A module attribute is the name as the
# importing module sees it, so each layer is timed where another calls it.
TARGETS = (
    ("di_decomp.cli", "run_pipeline", "pipeline", None),
    (_PIPE, "run_pipeline", "pipeline", None),
    (_PIPE, "run_build_factors", "pipeline", None),
    (_PIPE, "run_split_cds", "pipeline", None),
    (_PIPE, "run_decompose", "pipeline", None),
    (_PIPE, "load_market_csv", "ingestion", _count_read),
    (_PIPE, "read_frame_csv", "ingestion", _count_read),
    (_PIPE, "read_focus_panel_csv", "ingestion", _count_read),
    (_PIPE, "fetch_focus", "ingestion", None),
    (_PIPE, "reshape_horizons", "ingestion", None),
    (_PIPE, "frame_to_csv", "ingestion", _count_write),
    (_PIPE, "write_focus_panel_csv", "ingestion", _count_write),
    (_PIPE, "diff", "series", None),
    (_PIPE, "inner_join", "series", _count_join),
    (_PIPE, "log_return", "series", None),
    (_PIPE, "to_bps_change", "series", None),
    (_PIPE, "pls1_fit", "pls", None),
    (_PIPE, "macro_factor", "pls", None),
    (_PIPE, "split_cds", "cds", None),
    (_PIPE, "accumulate", "decomposition", None),
    (_PIPE, "contributions", "decomposition", None),
    (_PIPE, "fit_decomposition_frame", "decomposition", None),
    (_PIPE, "join_decomposition_inputs", "decomposition", None),
    (_PIPE, "variance_shares", "decomposition", None),
    (_PIPE, "emit_svg", "svg_chart", _count_svg),
    ("di_decomp.cds", "inner_join", "series", _count_join),
    ("di_decomp.cds", "ols_fit", "regression", _count_ols),
    ("di_decomp.decomposition", "inner_join", "series", _count_join),
    ("di_decomp.decomposition", "ols_fit", "regression", _count_ols),
    ("di_decomp.regression", "student_t_two_sided_p", "regression", _count_pvalue),
    ("di_decomp.series.DailySeries", "window", "series", _count_window),
    ("di_decomp.series.Frame", "window", "series", _count_window),
    # the package namespace, which the rolling refit and its set-up call
    ("di_decomp", "load_market_csv", "ingestion", _count_read),
    ("di_decomp.ingestion", "read_frame_csv", "ingestion", _count_read),
    ("di_decomp", "diff", "series", None),
    ("di_decomp", "log_return", "series", None),
    ("di_decomp", "to_bps_change", "series", None),
    ("di_decomp", "inner_join", "series", _count_join),
    ("di_decomp", "pls1_fit", "pls", None),
    ("di_decomp", "macro_factor", "pls", None),
    ("di_decomp", "split_cds", "cds", None),
    ("di_decomp", "fit_decomposition", "decomposition", None),
    ("di_decomp", "contributions", "decomposition", None),
    ("di_decomp", "accumulate", "decomposition", None),
    ("di_decomp", "variance_shares", "decomposition", None),
)


class MissingTargetError(RuntimeError):
    """A wrapped name no longer exists, so its layer would silently vanish."""


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """In-memory spans and counts; ``install`` patches every target."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        self.counts[layer + ".calls"] += 1
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, layer: str, name: str, count=None):
        tracer = self

        def traced(*args, **kwargs):
            report = kwargs.get("report")
            before = report.rejected_rows if report is not None else 0
            index = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                count(tracer.counts, args, kwargs, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for path, attr, layer, count in TARGETS:
            owner = _resolve(path)
            original = owner.__dict__.get(attr)
            if original is None:
                self.uninstall()
                raise MissingTargetError(
                    f"traced name {path}.{attr} is missing; update TARGETS in "
                    f"perfbench/tracing.py so layer '{layer}' stays measured"
                )
            name = f"{path.rpartition('.')[2]}.{attr}"
            setattr(owner, attr, self.wrap(original, layer, name, count))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def merge(self, spans: list[list], counts: dict, parent: int) -> None:
        """Adopt spans a child process recorded, under span ``parent``.

        ``perf_counter`` reads the system-wide monotonic clock on Linux, so
        the child's timestamps line up with this process's.
        """
        offset = len(self.spans)
        for layer, name, start, end, p in spans:
            self.spans.append([layer, name, start, end, parent if p < 0 else p + offset])
        self.counts.update(counts)


def self_times(spans: list[list]) -> list[tuple[int, str, float]]:
    """(root index, layer, self seconds) for every span.

    Parents are always recorded before their children, so one pass finds
    each span's root and a second subtracts child time from the parent.
    """
    covered = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (_, _, start, end, parent) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            covered[parent] += end - start
    return [
        (root[i], layer, (end - start) - covered[i])
        for i, (layer, _, start, end, _) in enumerate(spans)
    ]
