"""Integration tests: configuration layering, full runs, determinism, errors."""

import csv
import datetime as dt
import fcntl
import json
import os
import signal
import subprocess
import sys
import tracemalloc
import urllib.parse
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from di_decomp import DailySeries, Frame
from di_decomp import pipeline
from di_decomp.errors import ConfigError, DataError, InsufficientDataError, StageError
from di_decomp.fixture import (
    DEFAULT_FIXTURE_SEED,
    EXPECTATIONS_FILE,
    MARKET_FILE,
    generate_fixture,
)
from di_decomp.ingestion import (
    HORIZON_COLUMNS,
    INDICATOR_QUERY_NAMES,
    MarketDataset,
    frame_to_csv,
    write_market_csv,
)
from di_decomp.pipeline import (
    CDS_MODEL_FILE,
    COMPONENTS_FILE,
    CONTRIBUTIONS_FILE,
    CUMULATIVE_FILE,
    EXPECTATIONS_OUT_FILE,
    FACTOR_FILE,
    FOCUS_PANEL_FILE,
    LOAD_REPORT_FILE,
    MODELS_FILE,
    PLS_MODEL_FILE,
    REPORT_FILE,
    SVG_FILE,
    PipelineConfig,
    load_config,
    run_build_factors,
    run_decompose,
    run_fetch_focus,
    run_pipeline,
    run_split_cds,
)

OUTPUT_FILES = (CONTRIBUTIONS_FILE, CUMULATIVE_FILE, MODELS_FILE, REPORT_FILE, SVG_FILE)
STAGE_OUTPUTS = {*OUTPUT_FILES, FACTOR_FILE, COMPONENTS_FILE, PLS_MODEL_FILE, CDS_MODEL_FILE}


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    """The bundled synthetic dataset plus one full pipeline run over it."""
    root = tmp_path_factory.mktemp("bundled")
    truth = generate_fixture(DEFAULT_FIXTURE_SEED, 2741, path=root / "fixture")
    config = PipelineConfig(
        market_csv=root / "fixture" / MARKET_FILE,
        expectations_csv=root / "fixture" / EXPECTATIONS_FILE,
        out_dir=root / "out",
    )
    report = run_pipeline(config)
    return {"truth": truth, "config": config, "report": report, "root": root}


class TestBundledFixtureRun:
    def test_observation_count(self, bundled):
        assert bundled["report"]["sample"]["n_observations"] == 2741

    def test_betas_within_three_standard_errors(self, bundled):
        truth = bundled["truth"]
        for row in bundled["report"]["regression"]["coefficients"]:
            true = truth["true_betas"][row["name"]]
            se = truth["analytic_stderr"][row["name"]]
            assert abs(row["estimate"] - true) < 3.0 * se, row["name"]

    def test_r_squared_near_target(self, bundled):
        assert bundled["report"]["regression"]["r_squared"] == pytest.approx(
            bundled["truth"]["target_r_squared"], abs=0.05
        )

    def test_variance_shares_match_magnitudes(self, bundled):
        shares = bundled["report"]["variance_shares"]["shares"]
        assert shares["macro"] == pytest.approx(0.01, abs=0.05)
        assert shares["riscobr"] == pytest.approx(0.83, abs=0.05)
        assert shares["global"] == pytest.approx(0.16, abs=0.05)

    def test_std_dev_table_matches_construction_targets(self, bundled):
        std = bundled["report"]["std_dev_bps"]
        truth = bundled["truth"]
        targets = {
            "macro": truth["contribution_std_targets_bps"]["macro"],
            "riscobr": truth["contribution_std_targets_bps"]["riscobr"],
            "global": truth["contribution_std_targets_bps"]["global"],
            "d_di5y": truth["d_di5y_std_target_bps"],
            "residual": truth["noise_std_bps"],
        }
        for key, target in targets.items():
            assert std[key] == pytest.approx(target, rel=0.10), key

    def test_fitted_variance_ratio_tracks_r_squared(self, bundled):
        std = bundled["report"]["std_dev_bps"]
        r2 = bundled["report"]["regression"]["r_squared"]
        assert std["fitted"] <= std["d_di5y"]
        ratio = std["fitted"] ** 2 / std["d_di5y"] ** 2
        assert ratio == pytest.approx(r2, rel=0.02)

    def test_contributions_csv_round_trip_identity(self, bundled):
        path = bundled["config"].out_dir / CONTRIBUTIONS_FILE
        with path.open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == bundled["report"]["sample"]["n_observations"]
        for row in rows:
            total = (
                float(row["const_bps"])
                + float(row["macro_bps"])
                + float(row["riscobr_bps"])
                + float(row["global_bps"])
                + float(row["residual_bps"])
            )
            # 4-decimal rounding bounds the reconstruction gap
            assert abs(total - float(row["d_di5y_bps"])) < 1e-3

    def test_cumulative_csv_final_row_adds_up(self, bundled):
        path = bundled["config"].out_dir / CUMULATIVE_FILE
        with path.open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        last = rows[-1]
        parts = sum(
            float(last[k])
            for k in ("const_cum", "macro_cum", "riscobr_cum", "global_cum", "residual_cum")
        )
        assert abs(parts - float(last["di5y_change_cum"])) < 1e-3
        # intercept-OLS property: the cumulative residual closes near zero
        assert abs(float(last["residual_cum"])) < 1.0

    def test_svg_is_well_formed(self, bundled):
        root = ET.parse(bundled["config"].out_dir / SVG_FILE).getroot()
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 6

    def test_models_json_has_all_three_blocks(self, bundled):
        models = json.loads(
            (bundled["config"].out_dir / MODELS_FILE).read_text(encoding="utf-8")
        )
        assert set(models) == {"pls", "cds_split", "decomposition"}
        assert len(models["pls"]["weights"]) == len(models["pls"]["columns"])
        assert abs(np.linalg.norm(models["pls"]["weights"]) - 1.0) < 1e-12
        assert tuple(models["cds_split"]["gamma"]) == ("DXY", "CRB", "VIX", "UST10")

    def test_report_counts_match_files(self, bundled):
        report_json = json.loads(
            (bundled["config"].out_dir / REPORT_FILE).read_text(encoding="utf-8")
        )
        assert report_json["sample"]["n_observations"] == bundled["report"]["sample"]["n_observations"]
        assert report_json["version"]

    def test_rerun_is_byte_identical(self, bundled):
        out = bundled["config"].out_dir
        before = {name: (out / name).read_bytes() for name in OUTPUT_FILES}
        rerun = run_pipeline(bundled["config"])
        assert rerun["sample"]["n_observations"] == bundled["report"]["sample"]["n_observations"]
        for name in OUTPUT_FILES:
            assert (out / name).read_bytes() == before[name], name

    def test_lock_removed_after_run(self, bundled):
        assert {p.name for p in bundled["config"].out_dir.iterdir()} == STAGE_OUTPUTS

    def test_sample_window_restricts_decomposition_join(self, bundled, tmp_path):
        full = bundled["report"]["sample"]
        start = dt.date.fromisoformat(full["start"]) + dt.timedelta(days=365)
        end = dt.date.fromisoformat(full["end"]) - dt.timedelta(days=365)
        config = PipelineConfig(
            market_csv=bundled["config"].market_csv,
            expectations_csv=bundled["config"].expectations_csv,
            out_dir=tmp_path / "windowed",
            start=start,
            end=end,
        )
        sample = run_pipeline(config)["sample"]
        assert dt.date.fromisoformat(sample["start"]) >= start
        assert dt.date.fromisoformat(sample["end"]) <= end
        assert sample["n_observations"] < full["n_observations"]


class _Stop(Exception):
    """Ends a run at the point a test has measured."""


def test_factor_design_peaks_near_its_own_bytes(bundled, tmp_path, monkeypatch):
    """From the transformed inputs to ``pls1_fit``, memory peaks at <= 1.5x the design."""
    seen = {}
    transform = pipeline._transform_market

    def transform_then_reset(market, end):
        seen["market"] = market  # held here, so dropping it frees nothing
        result = transform(market, end)
        tracemalloc.reset_peak()
        seen["before"] = tracemalloc.get_traced_memory()[0]
        return result

    def fit(x, y):
        seen["peak"] = tracemalloc.get_traced_memory()[1] - seen["before"]
        seen["shape"], seen["bytes"] = x.data.shape, x.data.nbytes
        raise _Stop

    monkeypatch.setattr(pipeline, "_transform_market", transform_then_reset)
    monkeypatch.setattr(pipeline, "pls1_fit", fit)
    config = PipelineConfig(
        market_csv=bundled["config"].market_csv,
        expectations_csv=bundled["config"].expectations_csv,
        out_dir=tmp_path / "out",
    )
    tracemalloc.start()
    try:
        with pytest.raises(StageError, match="factors"):
            run_pipeline(config)
    finally:
        tracemalloc.stop()
    assert seen["shape"][1] == len(HORIZON_COLUMNS) + 1
    assert seen["bytes"] == seen["shape"][0] * seen["shape"][1] * 8
    assert seen["peak"] <= 1.5 * seen["bytes"]


class TestFocusPanelSource:
    def test_panel_cache_reproduces_horizon_csv_run(self, tmp_path):
        """A cached panel and the reshaped horizon CSV drive identical factors."""
        from di_decomp.ingestion import (
            FocusPanel,
            FocusRecord,
            INDICATORS,
            read_frame_csv,
            write_focus_panel_csv,
        )

        fixture_dir = tmp_path / "fx"
        generate_fixture(6, 300, path=fixture_dir)
        horizon = read_frame_csv(fixture_dir / EXPECTATIONS_FILE)
        records = []
        for i, d in enumerate(horizon.dates.tolist()):
            for ind in INDICATORS:
                for k in range(4):
                    col = f"{ind}_year" if k == 0 else f"{ind}_year_{k}"
                    records.append(
                        FocusRecord(d, ind, d.year + k, float(horizon.column(col)[i]))
                    )
        panel_path = tmp_path / "panel.csv"
        write_focus_panel_csv(FocusPanel(tuple(records)), panel_path)

        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_build_factors(
            PipelineConfig(
                market_csv=fixture_dir / MARKET_FILE,
                expectations_csv=fixture_dir / EXPECTATIONS_FILE,
                out_dir=out_a,
            )
        )
        run_build_factors(
            PipelineConfig(
                market_csv=fixture_dir / MARKET_FILE,
                focus_panel_csv=panel_path,
                out_dir=out_b,
            )
        )
        assert (out_a / FACTOR_FILE).read_bytes() == (out_b / FACTOR_FILE).read_bytes()


class TestStagedEquivalence:
    def test_staged_run_reproduces_full_run(self, tmp_path):
        fixture_dir = tmp_path / "fx"
        generate_fixture(5, 400, path=fixture_dir)
        base = dict(
            market_csv=fixture_dir / MARKET_FILE,
            expectations_csv=fixture_dir / EXPECTATIONS_FILE,
        )
        full_out = tmp_path / "full"
        run_pipeline(PipelineConfig(**base, out_dir=full_out))

        staged_out = tmp_path / "staged"
        staged = PipelineConfig(**base, out_dir=staged_out)
        run_build_factors(staged)
        run_split_cds(staged)
        run_decompose(staged)

        for name in (CONTRIBUTIONS_FILE, CUMULATIVE_FILE, MODELS_FILE, SVG_FILE,
                     FACTOR_FILE, COMPONENTS_FILE):
            assert (staged_out / name).read_bytes() == (full_out / name).read_bytes(), name


def business_days(start, n):
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return tuple(out)


DATES_A = business_days(dt.date(2020, 1, 1), 40)
DATES_B = business_days(dt.date(2021, 1, 1), 40)


def write_disjoint_market(tmp_path, expectation_dates=DATES_A):
    """DI5Y/SURPRISE and the CDS block live on disjoint calendars."""
    rng = np.random.default_rng(0)
    dates_a, dates_b = DATES_A, DATES_B
    series = [
        DailySeries("DI5Y", dates_a, 12.0 + np.cumsum(rng.standard_normal(40)) * 0.01),
        DailySeries("CDS", dates_b, 180.0 * np.exp(np.cumsum(rng.standard_normal(40)) * 0.01)),
        DailySeries("DXY", dates_b, 95.0 * np.exp(np.cumsum(rng.standard_normal(40)) * 0.004)),
        DailySeries("CRB", dates_b, 200.0 * np.exp(np.cumsum(rng.standard_normal(40)) * 0.008)),
        DailySeries("VIX", dates_b, 18.0 * np.exp(np.cumsum(rng.standard_normal(40)) * 0.05)),
        DailySeries("UST10", dates_b, 2.2 + np.cumsum(rng.standard_normal(40)) * 0.05),
        DailySeries("SURPRISE", dates_a, np.cumsum(rng.standard_normal(40)) * 0.15),
    ]
    market_path = tmp_path / "market.csv"
    write_market_csv(MarketDataset(tuple(series)), market_path)

    n = len(expectation_dates)
    levels = {
        col: 5.0 + np.cumsum(rng.standard_normal(n)) * 0.03 for col in HORIZON_COLUMNS
    }
    expectations_path = tmp_path / "expectations.csv"
    frame_to_csv(Frame.from_columns(expectation_dates, levels), expectations_path)
    return market_path, expectations_path


def _small_run(tmp_path) -> PipelineConfig:
    """A config over a small fixture, with ``tmp_path / "out"`` as output directory."""
    fixture_dir = tmp_path / "fx"
    generate_fixture(5, 300, path=fixture_dir)
    return PipelineConfig(
        market_csv=fixture_dir / MARKET_FILE,
        expectations_csv=fixture_dir / EXPECTATIONS_FILE,
        out_dir=tmp_path / "out",
    )


# A CLI run whose chart writer writes part of the chart, says so on stdout
# and then stalls, so that the run can be killed while it emits.
_STALLED_RUN = """
import sys, time
from di_decomp import cli, pipeline

def stalled(cum, path):
    path.write_text("<svg", encoding="utf-8")
    print("emitting", flush=True)
    time.sleep(120)

pipeline.emit_svg = stalled
cli.main(sys.argv[1:])
"""


def _kill_mid_emit(config: PipelineConfig) -> None:
    """Run the CLI over ``config`` in a subprocess and SIGKILL it while it emits."""
    src = str(Path(pipeline.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["run", "--market", str(config.market_csv),
            "--expectations", str(config.expectations_csv), "--out", str(config.out_dir)]
    with subprocess.Popen([sys.executable, "-c", _STALLED_RUN, *argv],
                          env=env, stdout=subprocess.PIPE, text=True) as run:
        try:
            assert run.stdout.readline() == "emitting\n"
            with pytest.raises(ConfigError, match="locked"):  # held by the other process
                run_split_cds(config)
        finally:
            run.kill()
            run.wait(timeout=60)
    assert run.returncode == -signal.SIGKILL


class TestPipelineErrors:
    def test_empty_decomposition_join_reports_stage_and_ranges(self, tmp_path):
        market, expectations = write_disjoint_market(tmp_path)
        config = PipelineConfig(
            market_csv=market, expectations_csv=expectations, out_dir=tmp_path / "out"
        )
        with pytest.raises(StageError, match="decompose") as exc_info:
            run_pipeline(config)
        cause = exc_info.value.cause
        assert isinstance(cause, DataError)
        assert "0 rows" in str(cause)
        assert "d_di5y_bps" in str(cause)  # per-input diagnostics

    def test_empty_factor_join_reports_each_input_range(self, tmp_path):
        market, expectations = write_disjoint_market(tmp_path, expectation_dates=DATES_B)
        config = PipelineConfig(
            market_csv=market, expectations_csv=expectations, out_dir=tmp_path / "out"
        )
        with pytest.raises(StageError, match="factors") as exc_info:
            run_build_factors(config)
        cause = exc_info.value.cause
        assert isinstance(cause, DataError)
        a, b = (f"{dates[1]}..{dates[-1]} (39 points)" for dates in (DATES_A, DATES_B))
        detail = [f"{col}: {b}" for col in HORIZON_COLUMNS]
        detail += [f"SURPRISE_diff: {a}", f"d_di5y_bps: {a}"]
        assert str(cause) == f"factor estimation join produced 0 rows ({'; '.join(detail)})"

    @pytest.mark.parametrize("rows", [0, 1])
    def test_expectations_of_fewer_than_two_rows_are_insufficient(self, tmp_path, rows):
        market, expectations = write_disjoint_market(tmp_path, expectation_dates=DATES_A[:rows])
        config = PipelineConfig(
            market_csv=market, expectations_csv=expectations, out_dir=tmp_path / "out"
        )
        with pytest.raises(StageError, match="factors") as exc_info:
            run_pipeline(config)
        cause = exc_info.value.cause
        assert isinstance(cause, InsufficientDataError)
        assert str(cause) == f"diff: series 'IPCA_year' has {rows} points, needs at least 2"

    def test_no_market_source_is_config_error(self, tmp_path):
        config = PipelineConfig(out_dir=tmp_path / "out")
        with pytest.raises(StageError) as exc_info:
            run_pipeline(config)
        assert isinstance(exc_info.value.cause, ConfigError)

    def test_locked_output_directory(self, tmp_path):
        fixture_dir = tmp_path / "fx"
        generate_fixture(5, 300, path=fixture_dir)
        out = tmp_path / "out"
        out.mkdir()
        config = PipelineConfig(
            market_csv=fixture_dir / MARKET_FILE,
            expectations_csv=fixture_dir / EXPECTATIONS_FILE,
            out_dir=out,
        )
        held = os.open(out, os.O_RDONLY)  # a second open file conflicts in this process too
        try:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(ConfigError, match="locked"):
                run_pipeline(config)
        finally:
            os.close(held)
        assert list(out.iterdir()) == []

    def test_stale_lock_file_does_not_block_a_run(self, tmp_path):
        """The lock file older versions left behind is just another file."""
        config = _small_run(tmp_path)
        config.out_dir.mkdir()
        (config.out_dir / ".di-decomp.lock").touch()
        run_pipeline(config)
        names = {p.name for p in config.out_dir.iterdir()}
        assert names == STAGE_OUTPUTS | {".di-decomp.lock"}

    def test_failed_emit_removes_partial_outputs(self, tmp_path):
        fixture_dir = tmp_path / "fx"
        generate_fixture(5, 300, path=fixture_dir)
        out = tmp_path / "out"
        out.mkdir()
        (out / SVG_FILE).mkdir()  # writing the chart will fail
        config = PipelineConfig(
            market_csv=fixture_dir / MARKET_FILE,
            expectations_csv=fixture_dir / EXPECTATIONS_FILE,
            out_dir=out,
        )
        with pytest.raises(StageError, match="emit"):
            run_pipeline(config)
        assert [p.name for p in out.iterdir()] == [SVG_FILE]  # the test's own directory

    def test_failed_rerun_keeps_previous_outputs(self, tmp_path, monkeypatch):
        fixture_dir = tmp_path / "fx"
        generate_fixture(5, 300, path=fixture_dir)
        out = tmp_path / "out"
        config = PipelineConfig(
            market_csv=fixture_dir / MARKET_FILE,
            expectations_csv=fixture_dir / EXPECTATIONS_FILE,
            out_dir=out,
        )
        run_pipeline(config)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before) == 9

        def disk_full(cum, path):
            path.write_text("<svg", encoding="utf-8")  # a partial chart
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "emit_svg", disk_full)
        with pytest.raises(StageError, match="emit"):
            run_pipeline(config)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_sigkill_mid_emit_keeps_previous_outputs(self, tmp_path):
        config = _small_run(tmp_path)
        run_pipeline(config)
        before = {p.name: p.read_bytes() for p in config.out_dir.iterdir()}
        _kill_mid_emit(config)
        left = {p.name: p.read_bytes() for p in config.out_dir.iterdir()}
        assert left[".decomposition.svg.tmp"] == b"<svg"  # killed mid-emit
        assert {name: left[name] for name in before} == before
        run_pipeline(config)  # no manual unlock or clean-up first
        assert {p.name: p.read_bytes() for p in config.out_dir.iterdir()} == before

    def test_stage_after_a_killed_run_removes_its_temporary_files(self, tmp_path):
        config = _small_run(tmp_path)
        run_pipeline(config)
        _kill_mid_emit(config)
        assert ".contributions.csv.tmp" in {p.name for p in config.out_dir.iterdir()}
        run_split_cds(config)  # writes two of the files the killed run was writing
        assert {p.name for p in config.out_dir.iterdir()} == STAGE_OUTPUTS

    @pytest.mark.parametrize("entry", [
        run_pipeline, run_fetch_focus, run_build_factors, run_split_cds, run_decompose,
    ])
    def test_every_entry_point_validates_its_config(self, tmp_path, entry):
        config = PipelineConfig(start=dt.date(2022, 1, 1), end=dt.date(2021, 1, 1),
                                out_dir=tmp_path / "out")
        with pytest.raises(ConfigError, match="precede"):
            entry(config)
        assert not config.out_dir.exists()


class TestConfigLayering:
    def test_file_env_flags_precedence(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[data]\nmarket_csv = file_market.csv\n\n"
            "[sample]\nstart = 2015-01-13\nend = 2020-01-01\n\n"
            "[output]\ndir = file_out\nstrict = true\n",
            encoding="utf-8",
        )
        env = {
            "DI_DECOMP_SAMPLE_END": "2021-06-30",
            "DI_DECOMP_OUTPUT_DIR": "env_out",
        }
        overrides = {("output", "dir"): "flag_out"}
        config = load_config(ini, env=env, overrides=overrides)
        assert str(config.market_csv) == "file_market.csv"  # from file
        assert config.end == dt.date(2021, 6, 30)  # env beats file
        assert str(config.out_dir) == "flag_out"  # flag beats env
        assert config.start == dt.date(2015, 1, 13)

    def test_unknown_section_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[nope]\nkey = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="nope"):
            load_config(ini, env={})

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[sample]\nmiddle = 2020-01-01\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="sample.middle"):
            load_config(ini, env={})

    def test_bad_date_rejected(self):
        with pytest.raises(ConfigError, match="YYYY-MM-DD"):
            load_config(None, env={"DI_DECOMP_SAMPLE_START": "13/01/2015"})

    def test_start_after_end_rejected(self):
        env = {
            "DI_DECOMP_SAMPLE_START": "2022-01-01",
            "DI_DECOMP_SAMPLE_END": "2021-01-01",
        }
        with pytest.raises(ConfigError, match="precede"):
            load_config(None, env=env)

    def test_unrecognized_env_override_rejected(self):
        with pytest.raises(ConfigError, match="DI_DECOMP_TYPO"):
            load_config(None, env={"DI_DECOMP_TYPO": "x"})

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini", env={})


def focus_transport():
    """Recorded one-date payloads for all five indicators."""
    by_query_name = {}
    values = {
        "IPCA": (6.00, 5.00, 4.50, 4.00),
        "Selic": (13.85, 13.00, 12.00, 11.50),
        "PIB": (3.66, 3.66, 3.66, 3.66),
        "Primario": (4.25, 4.25, 4.00, 3.75),
        "Nominal": (-3.00, -2.35, -2.50, -2.20),
    }
    for indicator, quads in values.items():
        query = INDICATOR_QUERY_NAMES[indicator]
        by_query_name[query] = [
            {
                "Indicador": query,
                "Data": "2004-01-02",
                "DataReferencia": str(2004 + k),
                "Mediana": quads[k],
            }
            for k in range(4)
        ]

    def transport(url):
        query = urllib.parse.urlparse(url).query
        flt = urllib.parse.parse_qs(query)["$filter"][0]
        for name, records in by_query_name.items():
            if f"Indicador eq '{name}'" in flt:
                return 200, json.dumps({"value": records}).encode()
        return 200, json.dumps({"value": []}).encode()

    return transport


class TestFetchFocusStage:
    def test_emits_panel_expectations_and_load_report(self, tmp_path):
        config = PipelineConfig(
            out_dir=tmp_path / "out",
            fetch_enabled=True,
            end=dt.date(2004, 1, 2),
        )
        report = run_fetch_focus(config, transport=focus_transport())
        assert report.fetched == 20
        out = tmp_path / "out"
        assert (out / FOCUS_PANEL_FILE).exists()
        assert (out / EXPECTATIONS_OUT_FILE).exists()
        load_report = json.loads((out / LOAD_REPORT_FILE).read_text(encoding="utf-8"))
        assert load_report["fetched"] == 20
        # the reshaped row carries the recorded medians
        text = (out / EXPECTATIONS_OUT_FILE).read_text(encoding="utf-8")
        header, row = text.strip().splitlines()
        assert header.split(",")[:2] == ["date", "IPCA_year"]
        assert row.split(",")[0] == "2004-01-02"
        assert float(row.split(",")[1]) == 6.00
