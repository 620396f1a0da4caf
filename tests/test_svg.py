"""Tests for the SVG chart emitter."""

import datetime as dt
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from di_decomp import Frame
from di_decomp.errors import InsufficientDataError, NumericalError
from di_decomp.svg_chart import SERIES_STYLE, emit_svg


def balanced_cumulative(n, seed=0):
    rng = np.random.default_rng(seed)
    parts = {
        name: np.cumsum(rng.standard_normal(n))
        for name, *_ in SERIES_STYLE
        if name != "di5y_change_cum"
    }
    total = sum(parts.values())
    return Frame.from_columns(
        tuple(dt.date(2015, 1, 13) + dt.timedelta(days=i) for i in range(n)),
        {"di5y_change_cum": total, **parts},
    )


class TestEmitSvg:
    def test_two_row_frame_is_well_formed_with_six_series(self, tmp_path):
        path = tmp_path / "chart.svg"
        emit_svg(balanced_cumulative(2), path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        ids = {p.get("id") for p in polylines}
        assert ids == {f"series-{name}" for name, *_ in SERIES_STYLE}
        assert len(ids) == 6

    def test_inconsistent_accounting_is_rejected_before_render(self, tmp_path):
        cum = balanced_cumulative(5)
        data = cum.data.copy()
        data[:, cum.names.index("di5y_change_cum")] += 1.0
        broken = Frame(cum.dates, cum.names, data)
        path = tmp_path / "chart.svg"
        with pytest.raises(NumericalError):
            emit_svg(broken, path)
        assert not path.exists()

    def test_single_row_rejected(self, tmp_path):
        with pytest.raises(InsufficientDataError):
            emit_svg(balanced_cumulative(1), tmp_path / "chart.svg")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_svg(balanced_cumulative(3), tmp_path / "missing_dir" / "chart.svg")

    def test_deterministic_bytes(self, tmp_path):
        cum = balanced_cumulative(50, seed=3)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(cum, a)
        emit_svg(cum, b)
        assert a.read_bytes() == b.read_bytes()

    def test_legend_labels_present(self, tmp_path):
        path = tmp_path / "chart.svg"
        emit_svg(balanced_cumulative(10), path)
        text = path.read_text(encoding="utf-8")
        for _, label, _, _ in SERIES_STYLE:
            assert label in text
