"""Integration tests: configuration layering, full runs, determinism, errors."""

import csv
import datetime as dt
import errno
import fcntl
import json
import logging
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import urllib.parse
import xml.etree.ElementTree as ET
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

from di_decomp import DailySeries, Frame
from di_decomp import cli, pipeline
from di_decomp.errors import (
    ConfigError,
    DataError,
    DomainError,
    InsufficientDataError,
    ParseError,
    SchemaError,
    StageError,
    exit_code_for,
)
from di_decomp.fixture import (
    DEFAULT_FIXTURE_SEED,
    EXPECTATIONS_FILE,
    MARKET_FILE,
    generate_fixture,
)
from di_decomp.ingestion import (
    HORIZON_COLUMNS,
    INDICATOR_QUERY_NAMES,
    INDICATORS,
    MARKET_COLUMNS,
    FocusPanel,
    frame_to_csv,
    horizon_column,
    _open_table,
    _read_whole,
    read_frame_csv,
    write_focus_panel_csv,
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

    def transform_then_reset(market, end, columns):
        seen["market"] = market  # held here, so dropping it frees nothing
        result = transform(market, end, columns)
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


def write_panel_of(horizon_csv: Path, panel_csv: Path) -> None:
    """Write the focus panel whose reshape is the horizon CSV's frame."""
    horizon = read_frame_csv(horizon_csv)
    panel: FocusPanel = {}
    for i, d in enumerate(horizon.dates.tolist()):
        for ind in INDICATORS:
            for k in range(4):
                panel[(d, ind, d.year + k)] = float(horizon.column(horizon_column(ind, k))[i])
    write_focus_panel_csv(panel, panel_csv)


class TestFocusPanelSource:
    def test_panel_cache_reproduces_horizon_csv_run(self, tmp_path):
        """A panel and the reshaped horizon CSV, each as data.expectations_csv,
        write the same files; report.json differs only in the echoed output directory."""
        fixture_dir = tmp_path / "fx"
        generate_fixture(6, 300, path=fixture_dir)
        panel_path = tmp_path / "panel.csv"
        write_panel_of(fixture_dir / EXPECTATIONS_FILE, panel_path)

        outputs = []
        for expectations in (fixture_dir / EXPECTATIONS_FILE, panel_path):
            out = tmp_path / expectations.stem
            run_pipeline(PipelineConfig(market_csv=fixture_dir / MARKET_FILE,
                                        expectations_csv=expectations, out_dir=out))
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != REPORT_FILE})
            report = json.loads((out / REPORT_FILE).read_text(encoding="utf-8"))
            assert report["config"].pop("out_dir") == str(out)
            outputs[-1][REPORT_FILE] = report
        assert len(outputs[0]) == 9
        assert outputs[0] == outputs[1]


class TestStagedEquivalence:
    # the horizon CSV's cases keep their plain ids
    @pytest.mark.parametrize("source, window", [
        (source, window) for source in ("horizon", "panel") for window in (
            {}, {"start": dt.date(2015, 3, 2), "end": dt.date(2016, 1, 29)})
    ], ids=["no-window", "window", "panel-no-window", "panel-window"])
    def test_staged_run_reproduces_full_run(self, tmp_path, source, window):
        """Every file matches; report.json differs only in the echoed output directory."""
        fixture_dir = tmp_path / "fx"
        generate_fixture(5, 400, path=fixture_dir)
        expectations = fixture_dir / EXPECTATIONS_FILE
        if source == "panel":
            expectations = tmp_path / "panel.csv"
            write_panel_of(fixture_dir / EXPECTATIONS_FILE, expectations)
        base = dict(
            market_csv=fixture_dir / MARKET_FILE,
            expectations_csv=expectations,
            **window,
        )
        full_out = tmp_path / "full"
        run_pipeline(PipelineConfig(**base, out_dir=full_out))

        staged_out = tmp_path / "staged"
        staged = PipelineConfig(**base, out_dir=staged_out)
        run_build_factors(staged)
        run_split_cds(staged)
        run_decompose(staged)

        assert {p.name for p in staged_out.iterdir()} == STAGE_OUTPUTS
        for name in sorted(STAGE_OUTPUTS - {REPORT_FILE}):
            assert (staged_out / name).read_bytes() == (full_out / name).read_bytes(), name
        reports = []
        for out in (full_out, staged_out):
            report = json.loads((out / REPORT_FILE).read_text(encoding="utf-8"))
            assert report["config"].pop("out_dir") == str(out)
            reports.append(report)
        assert reports[0] == reports[1]


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
    write_market_csv({s.name: s for s in series}, market_path)

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


# A CLI run whose file writer writes part of the chart, says so on stdout
# and then stalls, so that the run can be killed while it emits.
_STALLED_RUN = """
import sys, time
from di_decomp import cli, pipeline

write = pipeline._write_text

def stalled(path, text):
    if path.name != ".decomposition.svg.tmp":
        return write(path, text)
    path.write_text("<svg", encoding="utf-8")
    print("emitting", flush=True)
    time.sleep(120)

pipeline._write_text = stalled
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

    @pytest.mark.parametrize("entry", [run_pipeline, run_decompose], ids=["run", "decompose"])
    def test_failed_emit_removes_partial_outputs(self, tmp_path, entry):
        fixture_dir = tmp_path / "fx"
        generate_fixture(5, 300, path=fixture_dir)
        out = tmp_path / "out"
        config = PipelineConfig(
            market_csv=fixture_dir / MARKET_FILE,
            expectations_csv=fixture_dir / EXPECTATIONS_FILE,
            out_dir=out,
        )
        if entry is run_decompose:  # its stage files stay
            run_build_factors(config)
            run_split_cds(config)
        out.mkdir(exist_ok=True)
        before = {p.name for p in out.iterdir()}
        (out / SVG_FILE).mkdir()  # writing the chart will fail
        with pytest.raises(StageError) as err:
            entry(config)
        assert err.value.stage == "emit"
        assert {p.name for p in out.iterdir()} == before | {SVG_FILE}  # the test's own directory

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

        write = pipeline._write_text

        def disk_full(path, text):
            if path.name != f".{SVG_FILE}.tmp":
                return write(path, text)
            path.write_text("<svg", encoding="utf-8")  # a partial chart
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "_write_text", disk_full)
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


# Each failure with the step it is reported under, its cause and the commands
# that meet it: a step's label does not depend on the command that runs it.
# Each command transforms only the market columns it reads, so the others
# succeed.
STEP_FAILURES = {
    "unparsable-market-row": ("ingest", ParseError,
                              ("run", "build-factors", "split-cds", "decompose")),
    "non-positive-cds": ("transform", DomainError, ("run", "split-cds")),
    "no-macro-factor-file": ("ingest", ParseError, ("decompose",)),
    "one-di5y-observation": ("transform", InsufficientDataError,
                             ("run", "build-factors", "decompose")),
}
ENTRY_POINTS = {"run": run_pipeline, "build-factors": run_build_factors,
                "split-cds": run_split_cds, "decompose": run_decompose}


@pytest.mark.parametrize("failure, command", [
    (failure, command) for failure in STEP_FAILURES for command in ENTRY_POINTS
])
def test_each_failure_is_reported_under_its_step(tmp_path, failure, command):
    config = _small_run(tmp_path)
    run_build_factors(config)  # the stage files decompose reads
    run_split_cds(config)
    header, *lines = config.market_csv.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines]
    names = header.split(",")
    di5y, cds = names.index("DI5Y"), names.index("CDS")
    if failure == "unparsable-market-row":
        rows[5][di5y] = "x"
    elif failure == "non-positive-cds":
        rows[-5][cds] = "0"
    elif failure == "one-di5y-observation":
        for row in rows[1:]:
            row[di5y] = ""
    else:
        (config.out_dir / FACTOR_FILE).unlink()
    config.market_csv.write_text("\n".join([header, *map(",".join, rows)]) + "\n",
                                 encoding="utf-8")
    label, cause, commands = STEP_FAILURES[failure]
    if command not in commands:
        ENTRY_POINTS[command](config)
        return
    with pytest.raises(StageError) as err:
        ENTRY_POINTS[command](config)
    assert (err.value.stage, type(err.value.cause)) == (label, cause)
    assert str(err.value).startswith(f"stage '{err.value.stage}' failed: ")


# ---------------------------------------------------------------------------
# The forked child: a stage parses the second half of each input table and
# formats about half of its files in a child process
# ---------------------------------------------------------------------------


def _assert_no_child_left() -> None:
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_by_process(in_child, here):
    """A stand-in that calls ``in_child`` in a forked child and ``here`` in this process."""
    pid = os.getpid()
    return lambda *args: (here if os.getpid() == pid else in_child)(*args)


def _break_market(config: PipelineConfig, how: str) -> PipelineConfig:
    if how == "no-market-source":
        return PipelineConfig(expectations_csv=config.expectations_csv, out_dir=config.out_dir)
    header, *lines = config.market_csv.read_text(encoding="utf-8").splitlines()
    if how == "bad-cell":
        lines[5] = lines[5].replace(",", ",x", 1)
    else:  # a column name misspelt
        header = header.replace("DI5Y", "DI5", 1)
    config.market_csv.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    return config


def _run_argv(config: PipelineConfig) -> list[str]:
    argv = ["run", "--expectations", str(config.expectations_csv), "--out", str(config.out_dir)]
    return argv + (["--market", str(config.market_csv)] if config.market_csv else [])


class TestForkedChild:
    @pytest.mark.parametrize("how, cause", [
        ("bad-cell", ParseError), ("bad-header", SchemaError), ("no-market-source", ConfigError),
    ])
    def test_market_error_reaches_the_user_as_if_read_here(self, tmp_path, how, cause, capsys):
        config = _break_market(_small_run(tmp_path), how)
        with pytest.raises(cause) as here:  # what this process raises reading it
            table, make = pipeline._market_input(config)
            make(table, *_read_whole(table))
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "ingest"
        assert (type(err.value.cause), str(err.value.cause)) == (cause, str(here.value))
        assert cli.main(_run_argv(config)) == exit_code_for(here.value)
        assert capsys.readouterr().err == f"error: stage 'ingest' failed: {here.value}\n"
        _assert_no_child_left()

    def test_market_error_wins_over_expectations_error(self, tmp_path):
        config = _break_market(_small_run(tmp_path), "bad-cell")
        config.expectations_csv.write_text("date,x\n2015-01-13,y\n", encoding="utf-8")
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert str(err.value.cause).startswith(f"{config.market_csv}: line 7: ")
        _assert_no_child_left()

    def test_expectations_error_reaps_the_child(self, tmp_path):
        config = _small_run(tmp_path)
        config.expectations_csv.write_text("date,x\n2015-01-13,y\n", encoding="utf-8")
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert (err.value.stage, type(err.value.cause)) == ("ingest", ParseError)
        assert str(err.value.cause).startswith(f"{config.expectations_csv}: line 2: ")
        _assert_no_child_left()

    # An expectations error waits for the market's verdict instead, which
    # the two tests above check.
    @pytest.mark.parametrize("step, failure", [
        ("ingest", KeyboardInterrupt), ("emit", KeyboardInterrupt), ("emit", OSError),
    ])
    def test_failure_here_kills_the_working_child(self, tmp_path, monkeypatch, step, failure):
        """The child would work for a minute; the stage unwinds at once and reaps it."""
        def stall(*args):
            time.sleep(60)

        def fail(*args):
            raise failure("failed here")

        if step == "ingest":
            monkeypatch.setattr(pipeline, "_read_tails", _split_by_process(stall, fail))
            monkeypatch.setattr(pipeline, "_read_part", fail)
        else:  # each process formats at least one CSV or the chart
            for name in ("_columns_csv", "render_svg"):
                monkeypatch.setattr(pipeline, name, _split_by_process(stall, fail))
        start = time.monotonic()
        with pytest.raises(StageError if failure is OSError else failure) as err:
            run_pipeline(_small_run(tmp_path))
        assert time.monotonic() - start < 30
        if failure is OSError:
            assert (err.value.stage, str(err.value.cause)) == (step, "failed here")
        _assert_no_child_left()

    @pytest.mark.parametrize("step", ["ingest", "emit"])
    def test_child_killed_before_it_answers(self, tmp_path, monkeypatch, step):
        def die(*args):
            os.kill(os.getpid(), signal.SIGKILL)

        def not_here(*args):
            raise AssertionError("the child's work ran in this process")

        if step == "ingest":
            monkeypatch.setattr(pipeline, "_read_tails", _split_by_process(die, not_here))
        else:
            real = pipeline._columns_csv
            monkeypatch.setattr(pipeline, "_columns_csv", _split_by_process(die, real))
        with pytest.raises(StageError) as err:
            run_pipeline(_small_run(tmp_path))
        assert (err.value.stage, type(err.value.cause)) == (step, ChildProcessError)
        assert str(err.value) == (f"stage '{step}' failed: "
                                  "the forked child was killed by SIGKILL before it answered")
        _assert_no_child_left()

    def test_fork_refused_at_ingest_writes_nothing(self, tmp_path, monkeypatch, capsys):
        config = _small_run(tmp_path)

        def refuse():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", refuse)
        fds = len(os.listdir("/proc/self/fd"))
        assert cli.main(_run_argv(config)) == 3
        assert capsys.readouterr().err.startswith("error: stage 'ingest' failed: ")
        assert list(config.out_dir.iterdir()) == []
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_fork_refused_at_emit_keeps_the_previous_files(self, tmp_path, monkeypatch, capsys):
        config = _small_run(tmp_path)
        run_pipeline(config)
        before = {p.name: p.read_bytes() for p in config.out_dir.iterdir()}
        forks, fork = [], os.fork

        def refuse_the_second():
            forks.append(None)
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", refuse_the_second)
        assert cli.main(_run_argv(config)) == 3
        assert capsys.readouterr().err.startswith("error: stage 'emit' failed: ")
        assert len(before) == 9
        assert {p.name: p.read_bytes() for p in config.out_dir.iterdir()} == before
        _assert_no_child_left()

    def test_answer_that_cannot_be_pickled(self, tmp_path):
        """The child exits without an answer; the parent says so and reaps it."""
        lock = os.open(tmp_path, os.O_RDONLY)
        try:
            with pipeline._forked(lock, lambda: (lambda: None)) as answer:
                message = "the forked child exited with status 1 before it answered"
                with pytest.raises(ChildProcessError, match=f"^{message}$"):
                    answer()
        finally:
            os.close(lock)
        _assert_no_child_left()

    def test_each_child_logs_its_cpu_and_peak_memory(self, tmp_path, caplog):
        with caplog.at_level(logging.DEBUG, logger="di_decomp.pipeline"):
            run_pipeline(_small_run(tmp_path))
        costs = [r.getMessage() for r in caplog.records if r.name == "di_decomp.pipeline"]
        assert len(costs) == 2  # the ingest's child and the emit's
        for message in costs:
            assert re.fullmatch(r"forked child \d+: \d+\.\d{3} s CPU, \d+ KiB peak resident",
                                message)


# ---------------------------------------------------------------------------
# A stage reads each input table in two halves, cut at the first line start at
# or after the byte midpoint of its data; the errors come out as if each file
# were read whole, in turn
# ---------------------------------------------------------------------------


def _break_lines(path: Path, *nos: int, how=lambda line: line.replace(b",", b",x", 1)) -> int:
    """Break the lines ``nos`` of a CSV (1 is its header; -1 its last line);
    returns the number of its last line."""
    lines = path.read_bytes().splitlines()
    for no in nos:
        lines[no - 1 if no > 0 else no] = how(lines[no - 1 if no > 0 else no])
    path.write_bytes(b"\n".join(lines) + b"\n")
    return len(lines)


def _after_cut(path: Path, no: int, columns=None) -> bool:
    """Whether line ``no`` of a CSV starts after the cut a stage makes in it."""
    start = sum(len(line) + 1 for line in path.read_bytes().splitlines()[:no - 1])
    return start >= pipeline._cut(_open_table(path, columns))


def _run_error(config: PipelineConfig) -> str:
    with pytest.raises(StageError) as err:
        run_pipeline(config)
    assert err.value.stage == "ingest"
    _assert_no_child_left()
    return str(err.value.cause)


class TestInputHalves:
    def test_errors_in_both_halves_name_the_head_line(self, tmp_path):
        config = _small_run(tmp_path)
        last = _break_lines(config.expectations_csv, 3, -1)
        assert not _after_cut(config.expectations_csv, 3)
        assert _after_cut(config.expectations_csv, last)
        assert _run_error(config).startswith(f"{config.expectations_csv}: line 3: ")

    def test_tail_row_repeating_a_head_date_is_named(self, tmp_path):
        config = _small_run(tmp_path)
        lines = config.expectations_csv.read_bytes().splitlines()
        date = lines[1].split(b",")[0]
        last = _break_lines(config.expectations_csv, -1,
                            how=lambda line: date + line[len(date):])
        assert _after_cut(config.expectations_csv, last)
        assert _run_error(config) == (f"{config.expectations_csv}: line {last}: "
                                      f"duplicate date {date.decode()}")

    def test_byte_outside_utf8_in_the_tail_wins_over_a_head_line(self, tmp_path):
        config = _small_run(tmp_path)
        _break_lines(config.expectations_csv, 3)
        last = _break_lines(config.expectations_csv, -1, how=lambda line: line + b"\xff")
        assert _after_cut(config.expectations_csv, last)
        assert _run_error(config) == (f"{config.expectations_csv}: "
                                      "not UTF-8 text (byte 0xff: invalid start byte)")

    def test_market_tail_wins_over_the_expectations_head(self, tmp_path):
        config = _small_run(tmp_path)
        last = _break_lines(config.market_csv, -1)
        _break_lines(config.expectations_csv, 3)
        assert _after_cut(config.market_csv, last, MARKET_COLUMNS)
        assert _run_error(config).startswith(f"{config.market_csv}: line {last}: ")


# A CLI run whose forked child, reading the second halves of the input files,
# prints its pid and waits until its parent has died and the file named first
# exists.
_CHILD_STALLED_RUN = """
import os, sys, time
from di_decomp import cli, pipeline

load = pipeline._read_tails

def stalled(*args):
    parent = os.getppid()
    print(os.getpid(), flush=True)
    deadline = time.monotonic() + 60
    while os.getppid() == parent or not os.path.exists(sys.argv[1]):
        if time.monotonic() > deadline:
            break
        time.sleep(0.01)
    return load(*args)

pipeline._read_tails = stalled
cli.main(sys.argv[2:])
"""


def test_killed_run_frees_the_directory_and_its_child_exits(tmp_path):
    """SIGKILL the run alone: the next run is accepted while the child still
    works, and the child exits once its answer meets the broken pipe."""
    config = _small_run(tmp_path)
    go = tmp_path / "go"
    src = str(Path(pipeline.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", _CHILD_STALLED_RUN, str(go), *_run_argv(config)]
    # in a session of its own, so the process group holds the run and its child
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as run:
        try:
            child = int(run.stdout.readline())
            run.kill()
            assert run.wait(timeout=60) == -signal.SIGKILL
            os.kill(child, 0)  # still working
            run_pipeline(config)  # the directory is not locked
            go.touch()
            assert run.stdout.read() == ""  # the child has exited: its stdout is closed
        finally:
            with suppress(ProcessLookupError):
                os.killpg(run.pid, signal.SIGKILL)
    assert {p.name for p in config.out_dir.iterdir()} == STAGE_OUTPUTS


def readme_ini() -> str:
    """The INI example in README.md."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


class TestConfigLayering:
    def test_long_config_value_message_is_bounded(self):
        with pytest.raises(ConfigError, match=r"^bad value for sample\.end: cannot parse date "
                           r"'1{40}'\.\.\. \(100000 characters\) as YYYY-MM-DD$") as err:
            load_config(None, env={"DI_DECOMP_SAMPLE_END": "1" * 100_000})
        assert len(str(err.value)) < 300

    @pytest.mark.parametrize("key, value", [
        ("sample.start", "01/13/2015"), ("fixture.r2", "0.00_1"), ("fixture.n", "2_741"),
    ], ids=["date", "real", "count"])
    def test_bad_value_is_shown_once(self, key, value):
        section, name = key.split(".")
        with pytest.raises(ConfigError, match=f"^bad value for {key}: ") as err:
            load_config(None, env={f"DI_DECOMP_{section.upper()}_{name.upper()}": value})
        assert str(err.value).count(repr(value)) == 1

    def test_readme_ini_with_a_trailing_comment_shows_the_value_once(self, tmp_path):
        text = readme_ini()
        assert "start = 2015-01-13\n" in text
        ini = tmp_path / "run.ini"
        ini.write_text(text.replace("start = 2015-01-13\n",
                                    "start = 2015-01-13      # first decomposition date\n"),
                       encoding="utf-8")
        with pytest.raises(ConfigError, match="^bad value for sample.start: ") as err:
            load_config(ini, env={})
        assert str(err.value).count("2015-01-13") == 1

    def test_readme_ini_example_loads(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(readme_ini(), encoding="utf-8")
        config = load_config(ini, env={})
        assert config.expectations_csv == Path("data/expectations.csv")
        assert (config.start, config.end) == (dt.date(2015, 1, 13), dt.date(2025, 12, 12))

    def test_file_env_flags_precedence(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[data]\nmarket_csv = file_market.csv\n\n"
            "[sample]\nstart = 2015-01-13\nend = 2020-01-01\n\n"
            "[output]\ndir = file_out\n",
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

    @pytest.mark.parametrize("section, key, value", [
        ("data", "market_csv", "m%20.csv"),
        ("fetch", "endpoint", "https://example.test/odata/Expectativas%28x%29?a=%(b)s"),
    ], ids=["path", "endpoint"])
    def test_percent_is_literal_in_every_source(self, tmp_path, section, key, value):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        from_file = load_config(ini, env={})
        from_env = load_config(None, env={f"DI_DECOMP_{section.upper()}_{key.upper()}": value})
        from_flag = load_config(None, env={}, overrides={(section, key): value})
        assert from_file == from_env == from_flag
        assert str(from_file.market_csv if key == "market_csv" else from_file.endpoint) == value

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\ndir = elsewhere\n",
        "[DEFAULT]\ndir = elsewhere\n\n[output]\n",
        "[DEFAULT]\nstart = 2015-01-13\n\n[sample]\n\n[data]\nmarket_csv = m.csv\n",
    ], ids=["alone", "beside-output", "beside-sample-and-data"])
    def test_default_section_is_an_unknown_section(self, tmp_path, text):
        ini = tmp_path / "run.ini"
        ini.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^unknown config section \[DEFAULT\] in "):
            load_config(ini, env={})

    @pytest.mark.parametrize("text, message", [
        ("[sample]\nend = 2020%\n", "bad value for sample.end: "),
        ("[DEFAULT]\ndir = elsewhere\n", "unknown config section [DEFAULT] in "),
    ], ids=["percent", "default-section"])
    def test_config_file_error_through_the_cli(self, tmp_path, capsys, text, message):
        ini = tmp_path / "run.ini"
        ini.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(ini), "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.err.startswith(f"error: {message}")
        assert "Traceback" not in printed.out + printed.err
        assert not out.exists()


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
    return recorded_transport(by_query_name)


def recorded_transport(by_query_name):
    """One page per indicator: its recorded OData records, whatever the dates asked."""

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

    def test_reference_year_before_the_survey_date_fails_the_ingest(self, tmp_path):
        ipca = INDICATOR_QUERY_NAMES["IPCA"]
        record = {"Indicador": ipca, "Data": "2004-01-02", "DataReferencia": "2003",
                  "Mediana": 6.0}
        config = PipelineConfig(out_dir=tmp_path / "out", end=dt.date(2004, 1, 2))
        with pytest.raises(StageError) as err:
            run_fetch_focus(config, transport=recorded_transport({ipca: [record]}))
        assert (err.value.stage, exit_code_for(err.value)) == ("ingest", 3)
        assert str(err.value.cause) == "reference year 2003 precedes survey date 2004-01-02"
        assert list((tmp_path / "out").iterdir()) == []

    def test_fetched_expectations_reproduce_the_fixture_run(self, tmp_path):
        """fetch-focus writes the fixture's own expectations.csv, which a run then reads."""
        fixture_dir = tmp_path / "fx"
        generate_fixture(6, 300, path=fixture_dir)
        horizon = read_frame_csv(fixture_dir / EXPECTATIONS_FILE)
        by_query_name = {INDICATOR_QUERY_NAMES[ind]: [] for ind in INDICATORS}
        for i, d in enumerate(horizon.dates.tolist()):
            for ind in INDICATORS:
                for k in range(4):
                    by_query_name[INDICATOR_QUERY_NAMES[ind]].append({
                        "Indicador": INDICATOR_QUERY_NAMES[ind],
                        "Data": d.isoformat(),
                        "DataReferencia": str(d.year + k),
                        "Mediana": float(horizon.column(horizon_column(ind, k))[i]),
                    })
        fetched = tmp_path / "fetched"
        config = PipelineConfig(out_dir=fetched, fetch_start=horizon.dates[0].item(),
                                end=horizon.dates[-1].item())
        report = run_fetch_focus(config, transport=recorded_transport(by_query_name))
        assert report.fetched == horizon.n_rows * len(HORIZON_COLUMNS)
        assert (fetched / EXPECTATIONS_OUT_FILE).read_bytes() == (
            fixture_dir / EXPECTATIONS_FILE).read_bytes()

        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for expectations, out in ((fixture_dir / EXPECTATIONS_FILE, out_a),
                                  (fetched / EXPECTATIONS_OUT_FILE, out_b)):
            run_build_factors(PipelineConfig(market_csv=fixture_dir / MARKET_FILE,
                                             expectations_csv=expectations, out_dir=out))
        assert (out_a / FACTOR_FILE).read_bytes() == (out_b / FACTOR_FILE).read_bytes()
