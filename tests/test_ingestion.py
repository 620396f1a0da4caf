"""Tests for the expectations client, the panel reshape, and CSV contracts."""

import datetime as dt
import http.server
import json
import logging
import socket
import sys
import threading

import numpy as np
import pytest

from di_decomp import (
    DailySeries,
    FocusPanel,
    FocusRecord,
    LoadReport,
    MarketDataset,
    fetch_focus,
    ingestion,
    load_market_csv,
    reshape_horizons,
)
from di_decomp.errors import FetchError, ParseError, SchemaError
from di_decomp.ingestion import (
    HORIZON_COLUMNS,
    frame_to_csv,
    read_frame_csv,
    read_focus_panel_csv,
    write_focus_panel_csv,
    write_market_csv,
)

D0 = dt.date(2004, 1, 2)
PAGE_A = "https://example.test/page-a"
PAGE_B = "https://example.test/page-b"


def record(indicator, date, ref_year, median):
    return {
        "Indicador": indicator,
        "Data": date,
        "DataReferencia": str(ref_year),
        "Mediana": median,
    }


# First survey date of the recorded sample: IPCA medians for the current
# year and the three following years.
FIRST_ROW_RECORDS = [
    record("IPCA", "2004-01-02", 2004, 6.00),
    record("IPCA", "2004-01-02", 2005, 5.00),
    record("IPCA", "2004-01-02", 2006, 4.50),
    record("IPCA", "2004-01-02", 2007, 4.00),
]


class RecordedTransport:
    """Serves recorded JSON pages keyed by requested indicator filter."""

    def __init__(self, pages_by_indicator, fail_first=0, fail_status=503):
        self.pages = pages_by_indicator
        self.fail_first = fail_first
        self.fail_status = fail_status
        self.calls = []

    def __call__(self, url):
        self.calls.append(url)
        if self.fail_first > 0:
            self.fail_first -= 1
            return self.fail_status, b"unavailable"
        for key, pages in self.pages.items():
            if f"Indicador+eq+%27{key}%27" in url or f"Indicador eq '{key}'" in url:
                page_index = url.count("$skip") and int(url.split("%24skip=")[-1]) or 0
                for page in pages:
                    if page["skip"] == page_index:
                        return 200, json.dumps(page["payload"]).encode()
                return 200, json.dumps({"value": []}).encode()
        return 200, json.dumps({"value": []}).encode()


def single_page_transport(records):
    return RecordedTransport({"IPCA": [{"skip": 0, "payload": {"value": records}}]})


class TestFetchFocus:
    def test_recorded_first_row(self):
        report = LoadReport()
        panel = fetch_focus(
            ["IPCA"],
            (D0, dt.date(2004, 1, 2)),
            transport=single_page_transport(FIRST_ROW_RECORDS),
            report=report,
        )
        assert len(panel) == 4
        assert report.fetched == 4
        first = panel.records[0]
        assert (first.survey_date, first.indicator, first.reference_year) == (D0, "IPCA", 2004)
        assert first.median == 6.00

    def test_single_record_panel(self):
        panel = fetch_focus(
            ["IPCA"],
            (D0, D0),
            transport=single_page_transport([record("IPCA", "2004-01-02", 2004, 6.00)]),
        )
        assert len(panel) == 1
        assert panel.records[0].median == 6.00

    def test_empty_response_gives_empty_panel(self):
        panel = fetch_focus(["IPCA"], (D0, D0), transport=single_page_transport([]))
        assert len(panel) == 0

    def test_duplicate_cells_keep_last_and_warn(self, caplog):
        records = [
            record("IPCA", "2004-01-02", 2004, 6.00),
            record("IPCA", "2004-01-02", 2004, 6.25),
        ]
        report = LoadReport()
        with caplog.at_level(logging.WARNING):
            panel = fetch_focus(
                ["IPCA"], (D0, D0),
                transport=single_page_transport(records), report=report,
            )
        assert len(panel) == 1
        assert panel.records[0].median == 6.25
        assert report.deduplicated == 1
        assert any("duplicate" in r.message for r in caplog.records)

    def test_malformed_record_is_parse_error(self):
        bad = [{"Indicador": "IPCA", "Data": "2004-01-02"}]  # missing fields
        with pytest.raises(ParseError, match="missing"):
            fetch_focus(["IPCA"], (D0, D0), transport=single_page_transport(bad))

    def test_null_median_is_parse_error(self):
        bad = [record("IPCA", "2004-01-02", 2004, None)]
        with pytest.raises(ParseError):
            fetch_focus(["IPCA"], (D0, D0), transport=single_page_transport(bad))

    @pytest.mark.parametrize(
        "bad",
        [
            record("IPCA", "20040102", 2004, 6.0),  # ISO basic date
            record("IPCA", "2004-01-02", 2004, "1_0"),  # digit grouping
            record("IPCA", "2004-01-02", 2004, "nan"),
            record("IPCA", "2004-01-02", 2004, True),  # a JSON boolean is not a number
            record("IPCA", "2004-01-02", "2_004", 6.0),
            record("IPCA", "2004-01-02", "\u0662\u0660\u0660\u0664", 6.0),  # Arabic-Indic
        ],
    )
    def test_record_outside_the_grammar_is_parse_error(self, bad):
        with pytest.raises(ParseError, match="malformed expectations record"):
            fetch_focus(["IPCA"], (D0, D0), transport=single_page_transport([bad]))

    def test_median_as_json_number_or_real_string(self):
        records = [
            record("IPCA", "2004-01-02", 2004, 6),
            record("IPCA", "2004-01-02", 2005, 5.25),
            record("IPCA", "2004-01-02", 2006, " 4.5e0 "),
        ]
        panel = fetch_focus(["IPCA"], (D0, D0), transport=single_page_transport(records))
        assert [r.median for r in panel.records] == [6.0, 5.25, 4.5]

    def test_non_json_payload_is_parse_error(self):
        with pytest.raises(ParseError, match="JSON"):
            fetch_focus(["IPCA"], (D0, D0), transport=lambda url: (200, b"<html>oops"))

    def test_pagination_via_next_link(self):
        page2 = {"value": [record("IPCA", "2004-01-05", 2004, 6.10)]}
        page1 = {
            "value": [record("IPCA", "2004-01-02", 2004, 6.00)],
            "@odata.nextLink": "https://example.test/page2",
        }

        def transport(url):
            if url == "https://example.test/page2":
                return 200, json.dumps(page2).encode()
            return 200, json.dumps(page1).encode()

        panel = fetch_focus(["IPCA"], (D0, dt.date(2004, 1, 5)), transport=transport)
        assert len(panel) == 2

    @pytest.mark.parametrize(
        "links",
        [
            {PAGE_A: PAGE_A},  # a page that links to itself
            {PAGE_A: PAGE_B, PAGE_B: PAGE_A},  # A -> B -> A
        ],
    )
    def test_pagination_cycle_is_fetch_error(self, links):
        calls = []

        def transport(url):
            calls.append(url)
            if len(calls) > 10:
                raise AssertionError("pagination did not stop")
            # the first page, the query URL, links to page A
            payload = {"value": [], "@odata.nextLink": links.get(url, PAGE_A)}
            return 200, json.dumps(payload).encode()

        with pytest.raises(FetchError, match=f"IPCA.*{PAGE_A}"):
            fetch_focus(["IPCA"], (D0, D0), transport=transport, sleep=lambda s: None)
        assert len(calls) == len(links) + 1  # each page requested once

    def test_pagination_via_skip_top(self):
        first = [record("IPCA", "2004-01-02", 2004 + i, 6.0 - i) for i in range(2)]
        second = [record("IPCA", "2004-01-02", 2006, 4.5)]

        def transport(url):
            if "%24skip=2" in url:
                return 200, json.dumps({"value": second}).encode()
            return 200, json.dumps({"value": first}).encode()

        panel = fetch_focus(
            ["IPCA"], (D0, D0), transport=transport, page_size=2
        )
        assert len(panel) == 3

    def test_skip_paging_stops_at_the_page_bound(self, monkeypatch):
        monkeypatch.setattr(ingestion, "_MAX_PAGES", 3)
        calls = []

        def transport(url):  # every page full, each at a new $skip offset
            calls.append(url)
            if len(calls) > 2 * ingestion._MAX_PAGES:
                raise AssertionError("pagination did not stop")
            return 200, json.dumps({"value": [record("IPCA", "2004-01-02", 2004, 6.0)]}).encode()

        with pytest.raises(FetchError, match="pagination for IPCA runs past 3 pages"):
            fetch_focus(["IPCA"], (D0, D0), transport=transport, page_size=1)
        assert len(calls) == 3

    def test_transient_failures_are_retried(self):
        transport = RecordedTransport(
            {"IPCA": [{"skip": 0, "payload": {"value": FIRST_ROW_RECORDS}}]},
            fail_first=2,
        )
        sleeps = []
        panel = fetch_focus(
            ["IPCA"], (D0, D0),
            transport=transport, sleep=sleeps.append,
        )
        assert len(panel) == 4
        assert len(sleeps) == 2
        assert sleeps == sorted(sleeps)  # exponential backoff grows

    def test_persistent_failure_raises_fetch_error_with_url(self):
        transport = RecordedTransport({}, fail_first=99)
        with pytest.raises(FetchError, match="status 503"):
            fetch_focus(
                ["IPCA"], (D0, D0),
                transport=transport, sleep=lambda s: None,
            )
        assert len(transport.calls) == 4  # >= 3 attempts

    def test_connection_error_is_retried_then_fetch_error(self):
        calls, sleeps = [], []

        def transport(url):
            calls.append(url)
            raise ConnectionError("connection refused")

        with pytest.raises(FetchError, match="failed after 3 attempts.*connection refused"):
            fetch_focus(["IPCA"], (D0, D0), transport=transport,
                        max_attempts=3, sleep=sleeps.append)
        assert len(calls) == 3
        assert len(sleeps) == 2

    def test_non_connection_error_propagates_without_retry(self):
        calls, sleeps = [], []

        def transport(url):
            calls.append(url)
            raise TypeError("transport bug")

        with pytest.raises(TypeError, match="transport bug"):
            fetch_focus(["IPCA"], (D0, D0), transport=transport, sleep=sleeps.append)
        assert len(calls) == 1
        assert sleeps == []

    def test_client_error_is_immediate(self):
        calls = []

        def transport(url):
            calls.append(url)
            return 404, b"not here"

        with pytest.raises(FetchError, match="404"):
            fetch_focus(["IPCA"], (D0, D0), transport=transport)
        assert len(calls) == 1

    def test_idempotent_for_fixed_payload(self):
        t = single_page_transport(FIRST_ROW_RECORDS)
        a = fetch_focus(["IPCA"], (D0, D0), transport=t)
        b = fetch_focus(["IPCA"], (D0, D0), transport=t)
        assert a == b

    def test_unknown_indicator_rejected(self):
        with pytest.raises(SchemaError):
            fetch_focus(["CPI"], (D0, D0), transport=single_page_transport([]))

    def test_empty_date_range_rejected(self):
        with pytest.raises(FetchError):
            fetch_focus(["IPCA"], (D0, dt.date(2003, 1, 1)),
                        transport=single_page_transport([]))


@pytest.fixture
def loopback():
    """An HTTP server on 127.0.0.1 answering each GET with the next queued reply.

    Yields (endpoint, replies, paths): queue (status, body) pairs on
    ``replies``; ``paths`` collects the requested paths.
    """
    replies, paths = [], []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            paths.append(self.path)
            status, body = replies.pop(0)
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/odata", replies, paths
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestDefaultTransport:
    """The standard-library transport against a loopback server."""

    @pytest.fixture(autouse=True)
    def no_requests(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "requests", raising=False)
        yield
        assert "requests" not in sys.modules

    def test_ok_page_parses(self, loopback):
        endpoint, replies, paths = loopback
        replies.append((200, json.dumps({"value": FIRST_ROW_RECORDS}).encode()))
        panel = fetch_focus(["IPCA"], (D0, D0), endpoint, sleep=lambda s: None)
        assert [r.median for r in panel.records] == [6.0, 5.0, 4.5, 4.0]
        assert len(paths) == 1 and "Indicador+eq+%27IPCA%27" in paths[0]

    def test_server_error_is_retried(self, loopback):
        endpoint, replies, paths = loopback
        replies += [(503, b"busy"), (200, json.dumps({"value": FIRST_ROW_RECORDS}).encode())]
        sleeps = []
        panel = fetch_focus(["IPCA"], (D0, D0), endpoint, sleep=sleeps.append)
        assert len(panel) == 4
        assert len(paths) == 2 and len(sleeps) == 1

    def test_client_error_is_one_request(self, loopback):
        endpoint, replies, paths = loopback
        replies.append((404, b"not here"))
        with pytest.raises(FetchError, match="returned status 404"):
            fetch_focus(["IPCA"], (D0, D0), endpoint, sleep=lambda s: None)
        assert len(paths) == 1

    def test_closed_port_is_retried_then_fetch_error(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        sleeps = []
        with pytest.raises(FetchError, match="failed after 3 attempts"):
            fetch_focus(["IPCA"], (D0, D0), f"http://127.0.0.1:{port}/odata",
                        max_attempts=3, sleep=sleeps.append)
        assert len(sleeps) == 2


def full_panel_for(date, values_by_indicator):
    records = []
    for ind, values in values_by_indicator.items():
        for k, v in enumerate(values):
            records.append(FocusRecord(date, ind, date.year + k, v))
    return records


class TestReshapeHorizons:
    def test_first_survey_date_row(self):
        records = full_panel_for(
            D0,
            {
                "IPCA": (6.00, 5.00, 4.50, 4.00),
                "Selic": (13.85, 13.00, 12.00, 11.50),
                "PIB": (3.66, 3.66, 3.66, 3.66),
                "Primario": (4.25, 4.25, 4.00, 3.75),
                "Nominal": (-3.00, -2.35, -2.50, -2.20),
            },
        )
        frame = reshape_horizons(FocusPanel(tuple(records)))
        assert frame.names == HORIZON_COLUMNS
        assert frame.dates.tolist() == [D0]
        for col, expected in (
            ("IPCA_year", 6.00), ("IPCA_year_1", 5.00),
            ("IPCA_year_2", 4.50), ("IPCA_year_3", 4.00),
        ):
            assert frame.column(col)[0] == expected

    def test_late_sample_policy_rate_row(self):
        d = dt.date(2025, 12, 18)
        records = full_panel_for(
            d,
            {
                "IPCA": (4.35, 4.09, 3.80, 3.50),
                "Selic": (15.00, 12.00, 10.50, 9.50),
                "PIB": (1.80, 1.80, 1.80, 1.80),
                "Primario": (-0.50, -0.60, -0.40, -0.12),
                "Nominal": (-8.43, -8.66, -7.84, -7.20),
            },
        )
        frame = reshape_horizons(FocusPanel(tuple(records)))
        np.testing.assert_allclose(
            [frame.column(f"Selic_year{'' if k == 0 else f'_{k}'}")[0] for k in range(4)],
            [15.00, 12.00, 10.50, 9.50],
        )

    def test_incomplete_date_dropped_and_counted(self):
        complete = full_panel_for(
            D0, {ind: (1.0, 2.0, 3.0, 4.0) for ind in
                 ("IPCA", "Selic", "PIB", "Primario", "Nominal")}
        )
        partial = full_panel_for(
            dt.date(2004, 1, 5),
            {ind: (1.0, 2.0, 3.0, 4.0) for ind in
             ("IPCA", "Selic", "PIB", "Primario", "Nominal")},
        )
        partial = [r for r in partial if not (r.indicator == "PIB" and r.reference_year == 2007)]
        report = LoadReport()
        frame = reshape_horizons(FocusPanel(tuple(complete + partial)), report)
        assert frame.dates.tolist() == [D0]
        assert report.dropped_dates == 1

    def test_empty_panel_rejected(self):
        with pytest.raises(ParseError):
            reshape_horizons(FocusPanel(()))


class TestMarketCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "date,DI5Y\n2015-01-13,12.50\n2015-01-14,12.60\n", encoding="utf-8"
        )
        dataset = load_market_csv(path, columns=("DI5Y",))
        s = dataset["DI5Y"]
        assert len(s) == 2
        np.testing.assert_allclose(s.values, [12.50, 12.60])

    def test_comma_decimal_rejected_in_strict_mode(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text('date,DI5Y\n2015-01-13,"12,50"\n', encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_market_csv(path, columns=("DI5Y",))

    def test_lenient_mode_counts_rejections(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            'date,DI5Y\n2015-01-13,"12,50"\n2015-01-14,12.60\n', encoding="utf-8"
        )
        report = LoadReport()
        dataset = load_market_csv(path, columns=("DI5Y",), strict=False, report=report)
        assert report.rejected_rows == 1
        assert len(dataset["DI5Y"]) == 1

    def test_unsorted_rows_are_sorted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "date,DI5Y\n2015-01-14,12.60\n2015-01-13,12.50\n", encoding="utf-8"
        )
        s = load_market_csv(path, columns=("DI5Y",))["DI5Y"]
        assert s.dates[0] == dt.date(2015, 1, 13)
        np.testing.assert_allclose(s.values, [12.50, 12.60])

    def test_header_mismatch_is_schema_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("date,WRONG\n2015-01-13,12.50\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_market_csv(path, columns=("DI5Y",))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_market_csv(tmp_path / "absent.csv", columns=("DI5Y",))

    def test_duplicate_date_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "date,DI5Y\n2015-01-13,12.50\n2015-01-13,12.60\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="duplicate date"):
            load_market_csv(path, columns=("DI5Y",))

    def test_repeated_date_is_reported_before_a_bad_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "date,DI5Y\n2015-01-13,12.50\n2015-01-13,oops\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="line 3: duplicate date 2015-01-13"):
            load_market_csv(path, columns=("DI5Y",))

    def test_rejected_row_does_not_claim_its_date(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "date,DI5Y\n2015-01-13,oops\n2015-01-13,12.50\n2015-01-13,12.60\n",
            encoding="utf-8",
        )
        report = LoadReport()
        s = load_market_csv(path, columns=("DI5Y",), strict=False, report=report)["DI5Y"]
        assert report.rejected_rows == 2
        np.testing.assert_array_equal(s.values, [12.50])

    def test_empty_cells_mean_missing_observation(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "date,DI5Y,CDS\n2015-01-13,12.50,\n2015-01-14,12.60,180.0\n",
            encoding="utf-8",
        )
        dataset = load_market_csv(path, columns=("DI5Y", "CDS"))
        assert len(dataset["DI5Y"]) == 2
        assert len(dataset["CDS"]) == 1
        assert dataset["CDS"].dates[0] == dt.date(2015, 1, 14)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(7))
        a = DailySeries("DI5Y", dates, rng.standard_normal(7) * 1e-3 + 12.0)
        b = DailySeries("CDS", dates[2:], rng.standard_normal(5) * 7.3 + 180.0)
        dataset = MarketDataset((a, b))
        path = tmp_path / "m.csv"
        write_market_csv(dataset, path)
        back = load_market_csv(path, columns=("DI5Y", "CDS"))
        np.testing.assert_array_equal(back["DI5Y"].values, a.values)
        np.testing.assert_array_equal(back["CDS"].values, b.values)
        np.testing.assert_array_equal(back["CDS"].dates, b.dates)

    def test_frame_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        dates = tuple(dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(5))
        from di_decomp import Frame

        frame = Frame.from_columns(
            dates, {"a": rng.standard_normal(5), "b": rng.standard_normal(5)}
        )
        path = tmp_path / "f.csv"
        frame_to_csv(frame, path)
        back = read_frame_csv(path)
        assert back.names == frame.names
        np.testing.assert_array_equal(back.data, frame.data)

    def test_focus_panel_csv_round_trip(self, tmp_path):
        panel = FocusPanel(
            tuple(
                FocusRecord(D0, ind, 2004 + k, float(k) + 1.5)
                for ind in ("IPCA", "Selic")
                for k in range(4)
            )
        )
        path = tmp_path / "panel.csv"
        write_focus_panel_csv(panel, path)
        assert read_focus_panel_csv(path) == panel
