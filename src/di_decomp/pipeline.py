"""Pipeline orchestration, configuration, and report emission.

The full run is a fixed sequence of stages: ingest -> transform -> factors
-> cds-split -> decompose -> emit.  Every stage is also callable on its own
through the CLI, consuming the previous stage's emitted files, so a run can
be resumed and audited piecewise.

Configuration is layered: an INI-style file provides base values,
``DI_DECOMP_<SECTION>_<KEY>`` environment variables override the file, and
CLI flags override both.  Sections and keys:

    [data]     market_csv, expectations_csv, focus_panel_csv,
               factor_csv, components_csv
    [fetch]    enabled, endpoint, indicators, start
    [sample]   start, end
    [factors]  columns
    [report]   significance_cuts
    [output]   dir, strict
    [fixture]  seed, n, r2, betas

Outputs are deterministic: identical inputs, configuration and software
version produce byte-identical files.  A lock file gives each run exclusive
ownership of its output directory, and partially written outputs are
removed if a stage fails.
"""

from __future__ import annotations

import configparser
import datetime as dt
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .cds import CdsComponents, CdsSplitModel, DOMESTIC_NAME, GLOBAL_NAME, split_cds
from .decomposition import (
    ContributionFrame,
    CumulativeFrame,
    DEFAULT_SIGNIFICANCE_CUTS,
    DecompositionModel,
    TARGET_NAME,
    accumulate,
    contributions,
    fit_decomposition_frame,
    join_decomposition_inputs,
    variance_shares,
)
from .errors import ConfigError, DataError, StageError
from .fixture import DEFAULT_BETAS, DEFAULT_FIXTURE_SEED, DEFAULT_N, DEFAULT_R2
from .ingestion import (
    DEFAULT_ENDPOINT,
    HORIZON_COLUMNS,
    INDICATORS,
    LoadReport,
    MarketDataset,
    fetch_focus,
    frame_to_csv,
    load_market_csv,
    read_focus_panel_csv,
    read_frame_csv,
    reshape_horizons,
    _write_columns_csv,
    write_focus_panel_csv,
)
from .pls import FACTOR_NAME, PlsModel, macro_factor, pls1_fit
from .series import DailySeries, Frame, TradingDate, diff, inner_join, log_return, to_bps_change
from .svg_chart import emit_svg

SURPRISE_DIFF_NAME = "SURPRISE_diff"
DEFAULT_FACTOR_COLUMNS = HORIZON_COLUMNS + (SURPRISE_DIFF_NAME,)

CONTRIBUTIONS_FILE = "contributions.csv"
CUMULATIVE_FILE = "cumulative.csv"
MODELS_FILE = "models.json"
REPORT_FILE = "report.json"
SVG_FILE = "decomposition.svg"
FACTOR_FILE = "macro_factor.csv"
COMPONENTS_FILE = "cds_components.csv"
PLS_MODEL_FILE = "pls_model.json"
CDS_MODEL_FILE = "cds_model.json"
FOCUS_PANEL_FILE = "focus_panel.csv"
EXPECTATIONS_OUT_FILE = "expectations.csv"
LOAD_REPORT_FILE = "load_report.json"
LOCK_FILE = ".di-decomp.lock"

_ENV_PREFIX = "DI_DECOMP_"
_SECTIONS = ("data", "fetch", "sample", "factors", "report", "output", "fixture")

__all__ = [
    "PipelineConfig",
    "RunReport",
    "run_pipeline",
    "run_fetch_focus",
    "run_build_factors",
    "run_split_cds",
    "run_decompose",
    "SURPRISE_DIFF_NAME",
    "DEFAULT_FACTOR_COLUMNS",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _parse_bool(raw: str, context: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{context}: expected a boolean, got {raw!r}")


def _parse_date(raw: str, context: str) -> dt.date:
    try:
        return dt.date.fromisoformat(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{context}: expected YYYY-MM-DD, got {raw!r}") from exc


def _parse_list(raw: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in raw.split(",") if item.strip())


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved run configuration; all paths are as given, not resolved."""

    market_csv: Path | None = None
    expectations_csv: Path | None = None
    focus_panel_csv: Path | None = None
    factor_csv: Path | None = None
    components_csv: Path | None = None
    fetch_enabled: bool = False
    endpoint: str = DEFAULT_ENDPOINT
    indicators: tuple[str, ...] = INDICATORS
    fetch_start: dt.date = dt.date(2004, 1, 1)
    start: dt.date | None = None
    end: dt.date | None = None
    factor_columns: tuple[str, ...] = DEFAULT_FACTOR_COLUMNS
    significance_cuts: tuple[float, float, float] = DEFAULT_SIGNIFICANCE_CUTS
    out_dir: Path = Path("out")
    strict: bool = True
    seed: int = DEFAULT_FIXTURE_SEED
    fixture_n: int = DEFAULT_N
    fixture_r2: float = DEFAULT_R2
    fixture_betas: tuple[float, float, float, float] = DEFAULT_BETAS

    def validate(self) -> None:
        if self.start is not None and self.end is not None and self.start >= self.end:
            raise ConfigError(f"sample start {self.start} must precede end {self.end}")
        allowed = set(HORIZON_COLUMNS) | {SURPRISE_DIFF_NAME}
        bad = [c for c in self.factor_columns if c not in allowed]
        if bad:
            raise ConfigError(
                f"factor columns {bad} are not horizon columns or '{SURPRISE_DIFF_NAME}'"
            )
        if not self.factor_columns:
            raise ConfigError("factor column selection is empty")
        cuts = self.significance_cuts
        if len(cuts) != 3 or not (0.0 < cuts[0] < cuts[1] < cuts[2] < 1.0):
            raise ConfigError(
                f"significance cuts must be three increasing values in (0,1), got {cuts}"
            )
        unknown = [i for i in self.indicators if i not in INDICATORS]
        if unknown:
            raise ConfigError(f"unknown indicators {unknown}")

    def echo(self) -> dict:
        """Configuration snapshot for the run report."""
        return {
            "market_csv": str(self.market_csv) if self.market_csv else None,
            "expectations_csv": str(self.expectations_csv) if self.expectations_csv else None,
            "focus_panel_csv": str(self.focus_panel_csv) if self.focus_panel_csv else None,
            "factor_csv": str(self.factor_csv) if self.factor_csv else None,
            "components_csv": str(self.components_csv) if self.components_csv else None,
            "fetch_enabled": self.fetch_enabled,
            "endpoint": self.endpoint,
            "indicators": list(self.indicators),
            "fetch_start": self.fetch_start.isoformat(),
            "start": self.start.isoformat() if self.start else None,
            "end": self.end.isoformat() if self.end else None,
            "factor_columns": list(self.factor_columns),
            "significance_cuts": list(self.significance_cuts),
            "out_dir": str(self.out_dir),
            "strict": self.strict,
        }


_KEY_PARSERS = {
    ("data", "market_csv"): ("market_csv", Path),
    ("data", "expectations_csv"): ("expectations_csv", Path),
    ("data", "focus_panel_csv"): ("focus_panel_csv", Path),
    ("data", "factor_csv"): ("factor_csv", Path),
    ("data", "components_csv"): ("components_csv", Path),
    ("fetch", "enabled"): ("fetch_enabled", lambda v: _parse_bool(v, "fetch.enabled")),
    ("fetch", "endpoint"): ("endpoint", str),
    ("fetch", "indicators"): ("indicators", _parse_list),
    ("fetch", "start"): ("fetch_start", lambda v: _parse_date(v, "fetch.start")),
    ("sample", "start"): ("start", lambda v: _parse_date(v, "sample.start")),
    ("sample", "end"): ("end", lambda v: _parse_date(v, "sample.end")),
    ("factors", "columns"): ("factor_columns", _parse_list),
    ("report", "significance_cuts"): (
        "significance_cuts",
        lambda v: tuple(float(x) for x in _parse_list(v)),
    ),
    ("output", "dir"): ("out_dir", Path),
    ("output", "strict"): ("strict", lambda v: _parse_bool(v, "output.strict")),
    ("fixture", "seed"): ("seed", int),
    ("fixture", "n"): ("fixture_n", int),
    ("fixture", "r2"): ("fixture_r2", float),
    ("fixture", "betas"): (
        "fixture_betas",
        lambda v: tuple(float(x) for x in _parse_list(v)),
    ),
}


def load_config(
    config_file: Path | str | None = None,
    env: Mapping[str, str] | None = None,
    overrides: Mapping[tuple[str, str], str] | None = None,
) -> PipelineConfig:
    """Layer file, environment, and explicit overrides into a validated config."""
    values: dict[tuple[str, str], str] = {}

    if config_file is not None:
        path = Path(config_file)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}] in {path}")
            for key, val in parser.items(section):
                values[(section, key)] = val

    env = os.environ if env is None else env
    for name in sorted(env):
        if not name.startswith(_ENV_PREFIX):
            continue
        rest = name[len(_ENV_PREFIX):].lower()
        section, _, key = rest.partition("_")
        if section not in _SECTIONS or not key:
            raise ConfigError(f"unrecognized environment override {name}")
        values[(section, key)] = env[name]

    if overrides:
        values.update(overrides)

    config = PipelineConfig()
    for (section, key), raw in values.items():
        if (section, key) not in _KEY_PARSERS:
            raise ConfigError(f"unknown config key {section}.{key}")
        attr, parse = _KEY_PARSERS[(section, key)]
        try:
            config = replace(config, **{attr: parse(raw)})
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Run report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """Everything the run emits into report.json, plus the echoed config."""

    sample_start: TradingDate
    sample_end: TradingDate
    n_observations: int
    regression: dict
    std_dev_bps: dict
    variance_shares: dict
    counts: dict
    config: dict
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "sample": {
                "start": self.sample_start.isoformat(),
                "end": self.sample_end.isoformat(),
                "n_observations": self.n_observations,
            },
            "regression": self.regression,
            "std_dev_bps": self.std_dev_bps,
            "variance_shares": self.variance_shares,
            "counts": self.counts,
            "version": self.version,
            "config": self.config,
        }


# ---------------------------------------------------------------------------
# Stage helpers
# ---------------------------------------------------------------------------


class _OutputTracker:
    """Tracks emitted files so a failed run leaves no partial outputs."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.written.append(p)
        return p

    def cleanup(self) -> None:
        for p in self.written:
            try:
                p.unlink()
            except OSError:
                pass


class _Lock:
    def __init__(self, out_dir: Path):
        self.path = out_dir / LOCK_FILE

    def __enter__(self) -> "_Lock":
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(
                f"output directory is locked by another run: {self.path}"
            ) from None
        os.close(fd)
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


def _series_range(s: DailySeries) -> str:
    if len(s) == 0:
        return f"{s.name}: empty"
    return f"{s.name}: {s.dates[0]}..{s.dates[-1]} ({len(s)} points)"


def _load_expectations(config: PipelineConfig, report: LoadReport) -> Frame:
    if config.expectations_csv is not None:
        frame = read_frame_csv(config.expectations_csv, strict=config.strict, report=report)
        return frame
    if config.focus_panel_csv is not None:
        panel = read_focus_panel_csv(config.focus_panel_csv)
        report.fetched += len(panel)
        return reshape_horizons(panel, report)
    if config.fetch_enabled:
        end = config.end or dt.date.today()
        panel = fetch_focus(
            config.indicators, (config.fetch_start, end), config.endpoint, report=report
        )
        return reshape_horizons(panel, report)
    raise ConfigError(
        "no expectations source: set data.expectations_csv, data.focus_panel_csv, "
        "or fetch.enabled"
    )


def _require_market(config: PipelineConfig) -> Path:
    if config.market_csv is None:
        raise ConfigError("no market data source: set data.market_csv")
    return config.market_csv


@dataclass(frozen=True)
class _Transformed:
    d_di5y: DailySeries
    cds_ret: DailySeries
    dxy_ret: DailySeries
    crb_ret: DailySeries
    vix_ret: DailySeries
    ust10_diff: DailySeries
    surprise_diff: DailySeries


def _transform_market(market: MarketDataset, end: dt.date | None) -> _Transformed:
    """Daily transforms over the full available history up to ``end``."""
    def upto(name: str) -> DailySeries:
        return market[name].window(end=end)

    return _Transformed(
        d_di5y=to_bps_change(upto("DI5Y")).with_name(TARGET_NAME),
        cds_ret=log_return(upto("CDS")),
        dxy_ret=log_return(upto("DXY")),
        crb_ret=log_return(upto("CRB")),
        vix_ret=log_return(upto("VIX")),
        ust10_diff=diff(upto("UST10")),
        surprise_diff=diff(upto("SURPRISE")).with_name(SURPRISE_DIFF_NAME),
    )


def _expectation_diffs(expectations: Frame, columns: Sequence[str],
                       end: dt.date | None) -> list[DailySeries]:
    series = []
    for col in columns:
        if col == SURPRISE_DIFF_NAME:
            continue
        series.append(diff(expectations.series(col).window(end=end)))
    return series


def _build_factor(
    transformed: _Transformed, expectations: Frame, config: PipelineConfig
) -> tuple[PlsModel, DailySeries]:
    """Fit the supervised factor on the intersection of inputs and the target."""
    x_series = _expectation_diffs(expectations, config.factor_columns, config.end)
    if SURPRISE_DIFF_NAME in config.factor_columns:
        x_series.append(transformed.surprise_diff)
    joined = inner_join(x_series + [transformed.d_di5y])
    if joined.n_rows == 0:
        detail = "; ".join(_series_range(s) for s in x_series + [transformed.d_di5y])
        raise DataError(f"factor estimation join produced 0 rows ({detail})")
    x_frame = joined.select([s.name for s in x_series])
    model = pls1_fit(x_frame, joined.column(TARGET_NAME))
    return model, macro_factor(model, x_frame)


def _decompose(
    d_di5y: DailySeries,
    factor: DailySeries,
    components: CdsComponents,
    config: PipelineConfig,
) -> tuple[DecompositionModel, Frame, ContributionFrame, CumulativeFrame]:
    joined = join_decomposition_inputs(
        d_di5y, factor, components.dom, components.glob
    ).window(config.start, config.end)
    if joined.n_rows == 0:
        detail = "; ".join(
            _series_range(s)
            for s in (d_di5y, factor, components.dom, components.glob)
        )
        raise DataError(f"decomposition join produced 0 rows ({detail})")
    model = fit_decomposition_frame(joined)
    contribs = contributions(model, joined)
    cum = accumulate(contribs)
    return model, joined, contribs, cum


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


CONTRIBUTION_COLUMNS = (
    "d_di5y_bps", "const_bps", "macro_bps", "riscobr_bps", "global_bps", "residual_bps",
)
CUMULATIVE_COLUMNS = (
    "di5y_change_cum", "const_cum", "macro_cum", "riscobr_cum", "global_cum", "residual_cum",
)


def _write_contributions_csv(path: Path, c: ContributionFrame) -> None:
    data = np.column_stack([c.d_di5y, c.const, c.macro_contrib, c.riscobr_contrib,
                            c.global_contrib, c.residual])
    _write_columns_csv(path, CONTRIBUTION_COLUMNS, c.dates, data, "{:.4f}")


def _write_cumulative_csv(path: Path, c: CumulativeFrame) -> None:
    data = np.column_stack([getattr(c, name) for name in CUMULATIVE_COLUMNS])
    _write_columns_csv(path, CUMULATIVE_COLUMNS, c.dates, data, "{:.4f}")


def _std_dev_table(c: ContributionFrame, fit_fitted: np.ndarray) -> dict:
    return {
        "d_di5y": float(np.std(c.d_di5y, ddof=1)),
        "macro": float(np.std(c.macro_contrib, ddof=1)),
        "riscobr": float(np.std(c.riscobr_contrib, ddof=1)),
        "global": float(np.std(c.global_contrib, ddof=1)),
        "residual": float(np.std(c.residual, ddof=1)),
        "fitted": float(np.std(fit_fitted, ddof=1)),
    }


def _build_report(
    config: PipelineConfig,
    model: DecompositionModel,
    contribs: ContributionFrame,
    counts: LoadReport,
) -> RunReport:
    shares = variance_shares(contribs)
    return RunReport(
        sample_start=contribs.dates[0].item(),
        sample_end=contribs.dates[-1].item(),
        n_observations=contribs.n_rows,
        regression=model.to_dict(config.significance_cuts),
        std_dev_bps=_std_dev_table(contribs, model.fit.fitted),
        variance_shares=shares.to_dict(),
        counts=counts.to_dict(),
        config=config.echo(),
    )


def _factor_frame(factor: DailySeries) -> Frame:
    return Frame(factor.dates, (FACTOR_NAME,), factor.values.reshape(-1, 1))


def _components_frame(components: CdsComponents) -> Frame:
    return Frame(
        components.glob.dates,
        (GLOBAL_NAME, DOMESTIC_NAME),
        np.column_stack([components.glob.values, components.dom.values]),
    )


# ---------------------------------------------------------------------------
# Public stage entry points
# ---------------------------------------------------------------------------


def _prepare_out_dir(config: PipelineConfig) -> Path:
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def run_fetch_focus(config: PipelineConfig, transport=None) -> LoadReport:
    """Fetch expectations, emit focus_panel.csv + expectations.csv + load_report.json.

    ``transport`` is forwarded to :func:`di_decomp.ingestion.fetch_focus`;
    tests inject recorded payloads there.
    """
    out = _prepare_out_dir(config)
    report = LoadReport()
    with _Lock(out):
        tracker = _OutputTracker(out)
        try:
            end = config.end or dt.date.today()
            panel = fetch_focus(
                config.indicators,
                (config.fetch_start, end),
                config.endpoint,
                transport=transport,
                report=report,
            )
            horizon = reshape_horizons(panel, report)
            write_focus_panel_csv(panel, tracker.path(FOCUS_PANEL_FILE))
            frame_to_csv(horizon, tracker.path(EXPECTATIONS_OUT_FILE))
            report.write(tracker.path(LOAD_REPORT_FILE))
        except Exception as exc:
            tracker.cleanup()
            if isinstance(exc, StageError):
                raise
            raise StageError("fetch-focus", exc) from exc
    return report


def run_build_factors(config: PipelineConfig) -> PlsModel:
    """Build the macro factor, emit macro_factor.csv + pls_model.json."""
    out = _prepare_out_dir(config)
    report = LoadReport()
    with _Lock(out):
        tracker = _OutputTracker(out)
        try:
            market = load_market_csv(
                _require_market(config), strict=config.strict, report=report
            )
            expectations = _load_expectations(config, report)
            transformed = _transform_market(market, config.end)
            model, factor = _build_factor(transformed, expectations, config)
            frame_to_csv(_factor_frame(factor), tracker.path(FACTOR_FILE))
            _write_json(tracker.path(PLS_MODEL_FILE), model.to_dict())
        except Exception as exc:
            tracker.cleanup()
            if isinstance(exc, StageError):
                raise
            raise StageError("factors", exc) from exc
    return model


def run_split_cds(config: PipelineConfig) -> CdsSplitModel:
    """Split CDS moves, emit cds_components.csv + cds_model.json."""
    out = _prepare_out_dir(config)
    report = LoadReport()
    with _Lock(out):
        tracker = _OutputTracker(out)
        try:
            market = load_market_csv(
                _require_market(config), strict=config.strict, report=report
            )
            t = _transform_market(market, config.end)
            model, components = split_cds(
                t.cds_ret, t.dxy_ret, t.crb_ret, t.vix_ret, t.ust10_diff
            )
            frame_to_csv(_components_frame(components), tracker.path(COMPONENTS_FILE))
            _write_json(tracker.path(CDS_MODEL_FILE), model.to_dict())
        except Exception as exc:
            tracker.cleanup()
            if isinstance(exc, StageError):
                raise
            raise StageError("cds-split", exc) from exc
    return model


def _emit_final(
    tracker: _OutputTracker,
    config: PipelineConfig,
    model: DecompositionModel,
    contribs: ContributionFrame,
    cum: CumulativeFrame,
    counts: LoadReport,
    models_payload: dict,
) -> RunReport:
    run_report = _build_report(config, model, contribs, counts)
    _write_contributions_csv(tracker.path(CONTRIBUTIONS_FILE), contribs)
    _write_cumulative_csv(tracker.path(CUMULATIVE_FILE), cum)
    _write_json(tracker.path(MODELS_FILE), models_payload)
    _write_json(tracker.path(REPORT_FILE), run_report.to_dict())
    emit_svg(cum, tracker.path(SVG_FILE))
    return run_report


def run_decompose(config: PipelineConfig) -> RunReport:
    """Final regression and report emission from previously emitted stage files."""
    out = _prepare_out_dir(config)
    counts = LoadReport()
    with _Lock(out):
        tracker = _OutputTracker(out)
        try:
            market = load_market_csv(
                _require_market(config), strict=config.strict, report=counts
            )
            d_di5y = to_bps_change(market["DI5Y"].window(end=config.end)).with_name(TARGET_NAME)

            factor_path = config.factor_csv or out / FACTOR_FILE
            comp_path = config.components_csv or out / COMPONENTS_FILE
            factor = read_frame_csv(factor_path).series(FACTOR_NAME)
            comp_frame = read_frame_csv(comp_path)
            components = CdsComponents(
                glob=comp_frame.series(GLOBAL_NAME), dom=comp_frame.series(DOMESTIC_NAME)
            )

            model, _, contribs, cum = _decompose(d_di5y, factor, components, config)

            models_payload = {"pls": None, "cds_split": None,
                              "decomposition": model.to_dict(config.significance_cuts)}
            for key, name in (("pls", PLS_MODEL_FILE), ("cds_split", CDS_MODEL_FILE)):
                side = (
                    Path(factor_path).parent / name if key == "pls"
                    else Path(comp_path).parent / name
                )
                if side.exists():
                    models_payload[key] = json.loads(side.read_text(encoding="utf-8"))
            return _emit_final(tracker, config, model, contribs, cum, counts, models_payload)
        except Exception as exc:
            tracker.cleanup()
            if isinstance(exc, StageError):
                raise
            raise StageError("decompose", exc) from exc


def run_pipeline(config: PipelineConfig) -> RunReport:
    """Run every stage in memory and emit the full set of output files.

    Emits contributions.csv, cumulative.csv, models.json, report.json and
    decomposition.svg into the configured output directory.  Reruns with
    identical inputs and configuration produce byte-identical files.
    """
    config.validate()
    out = _prepare_out_dir(config)
    counts = LoadReport()
    with _Lock(out):
        tracker = _OutputTracker(out)
        stage = "ingest"
        try:
            market = load_market_csv(
                _require_market(config), strict=config.strict, report=counts
            )
            expectations = _load_expectations(config, counts)

            stage = "transform"
            transformed = _transform_market(market, config.end)

            stage = "factors"
            pls_model, factor = _build_factor(transformed, expectations, config)

            stage = "cds-split"
            cds_model, components = split_cds(
                transformed.cds_ret,
                transformed.dxy_ret,
                transformed.crb_ret,
                transformed.vix_ret,
                transformed.ust10_diff,
            )

            stage = "decompose"
            model, _, contribs, cum = _decompose(
                transformed.d_di5y, factor, components, config
            )

            stage = "emit"
            frame_to_csv(_factor_frame(factor), tracker.path(FACTOR_FILE))
            _write_json(tracker.path(PLS_MODEL_FILE), pls_model.to_dict())
            frame_to_csv(_components_frame(components), tracker.path(COMPONENTS_FILE))
            _write_json(tracker.path(CDS_MODEL_FILE), cds_model.to_dict())
            models_payload = {
                "pls": pls_model.to_dict(),
                "cds_split": cds_model.to_dict(),
                "decomposition": model.to_dict(config.significance_cuts),
            }
            return _emit_final(
                tracker, config, model, contribs, cum, counts, models_payload
            )
        except Exception as exc:
            tracker.cleanup()
            if isinstance(exc, StageError):
                raise
            raise StageError(stage, exc) from exc
