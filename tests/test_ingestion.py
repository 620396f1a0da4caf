"""Tests for the expectations client, the panel reshape, and CSV contracts."""

import datetime as dt
import http.server
import json
import logging
import re
import socket
import sys
import threading

import numpy as np
import pytest

from di_decomp import (
    DailySeries,
    LoadReport,
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
        assert min(panel) == (D0, "IPCA", 2004)
        assert panel[(D0, "IPCA", 2004)] == 6.00

    def test_single_record_panel(self):
        panel = fetch_focus(
            ["IPCA"],
            (D0, D0),
            transport=single_page_transport([record("IPCA", "2004-01-02", 2004, 6.00)]),
        )
        assert panel == {(D0, "IPCA", 2004): 6.00}

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
        assert panel == {(D0, "IPCA", 2004): 6.25}
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
            record("IPCA", "2004-01-02", 2004, "1" * 200_000 + "x"),  # a long digit run
        ],
    )
    def test_record_outside_the_grammar_is_parse_error(self, bad):
        with pytest.raises(ParseError, match="malformed expectations record"):
            fetch_focus(["IPCA"], (D0, D0), transport=single_page_transport([bad]))

    # a message echoes a long cell or record by its first characters and length
    @pytest.mark.parametrize(
        "bad",
        [
            record("IPCA", "2004-01-02", 2004, "1" * 100_000),  # overflows to infinity
            record("IPCA", "2004-01-02", 2004, "x" * 100_000),
            record("x" * 100_000, "2004-01-02", 2004, 6.0),  # an unknown indicator
        ],
        ids=["digits", "letters", "indicator"],
    )
    def test_long_record_gives_a_bounded_message(self, bad):
        with pytest.raises(ParseError, match=r"\(1000\d\d characters\)") as err:
            fetch_focus(["IPCA"], (D0, D0), transport=single_page_transport([bad]))
        assert len(str(err.value)) < 300

    def test_median_as_json_number_or_real_string(self):
        records = [
            record("IPCA", "2004-01-02", 2004, 6),
            record("IPCA", "2004-01-02", 2005, 5.25),
            record("IPCA", "2004-01-02", 2006, " 4.5e0 "),
        ]
        panel = fetch_focus(["IPCA"], (D0, D0), transport=single_page_transport(records))
        assert [panel[k] for k in sorted(panel)] == [6.0, 5.25, 4.5]

    def test_non_json_payload_is_parse_error(self):
        with pytest.raises(ParseError, match="JSON"):
            fetch_focus(["IPCA"], (D0, D0), transport=lambda url: (200, b"<html>oops"))

    @pytest.mark.parametrize("payload", [[], {}, {"value": {}}, {"items": []}])
    def test_payload_without_a_value_list_is_parse_error(self, payload):
        with pytest.raises(ParseError, match="payload lacks a 'value' record list"):
            fetch_focus(["IPCA"], (D0, D0),
                        transport=lambda url: (200, json.dumps(payload).encode()))

    @pytest.mark.parametrize("item", [["IPCA", "2004-01-02", "2004", 6.0], "IPCA", None])
    def test_record_that_is_not_an_object_is_parse_error(self, item):
        with pytest.raises(ParseError, match="malformed expectations record \\(not an object\\)"):
            fetch_focus(["IPCA"], (D0, D0), transport=single_page_transport([item]))

    def test_past_reference_year_fails_before_the_next_query(self):
        ipca = [record("IPCA", "2004-01-02", 2003, 6.0)]
        selic = [record("Selic", "2004-01-02", 2004, 16.5)]
        transport = RecordedTransport({
            "IPCA": [{"skip": 0, "payload": {"value": ipca}}],
            "Selic": [{"skip": 0, "payload": {"value": selic}}],
        })
        message = "^reference year 2003 precedes survey date 2004-01-02$"
        with pytest.raises(SchemaError, match=message):
            fetch_focus(["IPCA", "Selic"], (D0, D0), transport=transport)
        assert len(transport.calls) == 1 and "%27IPCA%27" in transport.calls[0]

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

        with pytest.raises(FetchError, match="failed after 4 attempts.*connection refused"):
            fetch_focus(["IPCA"], (D0, D0), transport=transport, sleep=sleeps.append)
        assert len(calls) == 4
        assert sleeps == [0.5, 1.0, 2.0]

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
        assert [panel[k] for k in sorted(panel)] == [6.0, 5.0, 4.5, 4.0]
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
        with pytest.raises(FetchError, match="failed after 4 attempts"):
            fetch_focus(["IPCA"], (D0, D0), f"http://127.0.0.1:{port}/odata",
                        sleep=sleeps.append)
        assert len(sleeps) == 3


def full_panel_for(date, values_by_indicator):
    return {
        (date, ind, date.year + k): v
        for ind, values in values_by_indicator.items()
        for k, v in enumerate(values)
    }


class TestReshapeHorizons:
    def test_first_survey_date_row(self):
        panel = full_panel_for(
            D0,
            {
                "IPCA": (6.00, 5.00, 4.50, 4.00),
                "Selic": (13.85, 13.00, 12.00, 11.50),
                "PIB": (3.66, 3.66, 3.66, 3.66),
                "Primario": (4.25, 4.25, 4.00, 3.75),
                "Nominal": (-3.00, -2.35, -2.50, -2.20),
            },
        )
        frame = reshape_horizons(panel)
        assert frame.names == HORIZON_COLUMNS
        assert frame.dates.tolist() == [D0]
        for col, expected in (
            ("IPCA_year", 6.00), ("IPCA_year_1", 5.00),
            ("IPCA_year_2", 4.50), ("IPCA_year_3", 4.00),
        ):
            assert frame.column(col)[0] == expected

    def test_late_sample_policy_rate_row(self):
        d = dt.date(2025, 12, 18)
        panel = full_panel_for(
            d,
            {
                "IPCA": (4.35, 4.09, 3.80, 3.50),
                "Selic": (15.00, 12.00, 10.50, 9.50),
                "PIB": (1.80, 1.80, 1.80, 1.80),
                "Primario": (-0.50, -0.60, -0.40, -0.12),
                "Nominal": (-8.43, -8.66, -7.84, -7.20),
            },
        )
        frame = reshape_horizons(panel)
        np.testing.assert_allclose(
            [frame.column(f"Selic_year{'' if k == 0 else f'_{k}'}")[0] for k in range(4)],
            [15.00, 12.00, 10.50, 9.50],
        )

    def test_incomplete_date_dropped_and_counted(self, caplog):
        complete = full_panel_for(
            D0, {ind: (1.0, 2.0, 3.0, 4.0) for ind in
                 ("IPCA", "Selic", "PIB", "Primario", "Nominal")}
        )
        partial = full_panel_for(
            dt.date(2004, 1, 5),
            {ind: (1.0, 2.0, 3.0, 4.0) for ind in
             ("IPCA", "Selic", "PIB", "Primario", "Nominal")},
        )
        del partial[(dt.date(2004, 1, 5), "PIB", 2007)]
        report = LoadReport()
        with caplog.at_level(logging.WARNING, logger="di_decomp.ingestion"):
            frame = reshape_horizons({**complete, **partial}, report)
        assert frame.dates.tolist() == [D0]
        assert report.dropped_dates == 1
        assert [r.getMessage() for r in caplog.records] == ["dropped 1 incomplete survey dates"]

    def test_empty_panel_rejected(self):
        with pytest.raises(ParseError):
            reshape_horizons({})


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

    def test_dataset_names_are_unique_and_looked_up(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("date,DI5Y,DI5Y\n2015-01-13,12.50,12.60\n", encoding="utf-8")
        message = "duplicate series names in dataset: ['DI5Y', 'DI5Y']"
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_market_csv(path, columns=("DI5Y", "DI5Y"))
        path.write_text("date,DI5Y\n2015-01-13,12.50\n", encoding="utf-8")
        with pytest.raises(KeyError, match="CDS"):
            load_market_csv(path, columns=("DI5Y",))["CDS"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_market_csv(tmp_path / "absent.csv", columns=("DI5Y",))

    # (reader, file text, error, message after the path)
    REFUSED_FILES = {
        "empty-market": (load_market_csv, "", ParseError, "empty file"),
        "frame-gap": (read_frame_csv, "date,a,b\n2015-01-13,1.0,\n", ParseError,
                      "missing cell on 2015-01-13; frame files allow no gaps"),
        "frame-header": (read_frame_csv, "day,a\n2015-01-13,1.0\n", SchemaError,
                         "first header column must be 'date', got ['day', 'a']"),
        "panel-header": (read_focus_panel_csv, "survey_date,indicator,year,median\n",
                         SchemaError, "unexpected panel header"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED_FILES))
    def test_refused_file_is_an_error_naming_it(self, tmp_path, case):
        read, text, error, message = self.REFUSED_FILES[case]
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error, match=re.escape(f"{path}: {message}")):
            read(path)

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
        lines = ["date,DI5Y", "2015-01-13,oops", "2015-01-13,12.50", "2015-01-13,12.60", ""]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: column 'DI5Y': cannot parse 'oops'"):
            load_market_csv(path, columns=("DI5Y",))
        lines[1] = ""
        path.write_text("\n".join(lines), encoding="utf-8")
        # line 3 holds the date, so line 4 repeats it
        with pytest.raises(ParseError, match="line 4: duplicate date 2015-01-13$"):
            load_market_csv(path, columns=("DI5Y",))

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
        dataset = {"DI5Y": a, "CDS": b}
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
        cells = [
            ((d, ind, d.year + k), float(k) + 1.5)
            for d in (D0, dt.date(2004, 1, 5))
            for ind in ("IPCA", "Selic")
            for k in range(4)
        ]
        panel = dict(reversed(cells))  # the writer sorts
        path = tmp_path / "panel.csv"
        write_focus_panel_csv(panel, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["survey_date,indicator,reference_year,median"] + [
            f"{d},{ind},{year},{median!r}" for (d, ind, year), median in cells
        ]
        assert read_focus_panel_csv(path) == panel

    @pytest.mark.parametrize("row", ["2015-01-13,IPCA,2015", "2015-01-13,IPCA,2015,5.0,junk"])
    def test_focus_panel_record_needs_four_cells(self, tmp_path, row):
        path = tmp_path / "panel.csv"
        path.write_text(f"survey_date,indicator,reference_year,median\n{row}\n", encoding="utf-8")
        cells = row.count(",") + 1
        with pytest.raises(ParseError, match=f"panel.csv: line 2: expected 4 cells, got {cells}$"):
            read_focus_panel_csv(path)
