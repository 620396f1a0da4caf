"""Pipeline orchestration, configuration, and report emission.

The full run is a fixed sequence of stages: ingest -> transform -> factors
-> cds-split -> decompose -> emit.  Every stage is also callable on its own
through the CLI, consuming the previous stage's emitted files, so a run can
be resumed and audited piecewise.

Configuration is layered: an INI-style file provides base values,
``DI_DECOMP_<SECTION>_<KEY>`` environment variables override the file, and
CLI flags override both.  Each setting's section, key and parser are
declared once, on its ``PipelineConfig`` field.

Outputs are deterministic: identical inputs, configuration and software
version produce byte-identical files.  A stage holds a ``flock`` on its
output directory, which ends with its process, even a killed one, and its
files replace the previous run's only once the whole stage has succeeded.
"""

from __future__ import annotations

import configparser
import datetime as dt
import fcntl
import json
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .cds import CdsComponents, CdsSplitModel, DOMESTIC_NAME, GLOBAL_NAME, split_cds
from .cds import REGRESSOR_ORDER
from .decomposition import (
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
    FocusPanel,
    LoadReport,
    MarketDataset,
    fetch_focus,
    frame_to_csv,
    load_market_csv,
    read_focus_panel_csv,
    read_frame_csv,
    reshape_horizons,
    _read_date,
    _read_real,
    _write_columns_csv,
    _write_json,
    write_focus_panel_csv,
)
from .pls import FACTOR_NAME, PlsModel, macro_factor, pls1_fit
from .series import DailySeries, Frame, diff, inner_join, log_return, to_bps_change
from .series import _frozen, _require_points
from .svg_chart import emit_svg

SURPRISE_DIFF_NAME = "SURPRISE_diff"

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
# every file a stage writes, each first as ".{name}.tmp"
_STAGE_FILES = (CONTRIBUTIONS_FILE, CUMULATIVE_FILE, MODELS_FILE, REPORT_FILE, SVG_FILE,
                FACTOR_FILE, COMPONENTS_FILE, PLS_MODEL_FILE, CDS_MODEL_FILE,
                FOCUS_PANEL_FILE, EXPECTATIONS_OUT_FILE, LOAD_REPORT_FILE)
_GATHER_ROWS = 256  # factor design rows gathered at a time: bounds the temporaries

_ENV_PREFIX = "DI_DECOMP_"

__all__ = [
    "PipelineConfig",
    "run_pipeline",
    "run_fetch_focus",
    "run_build_factors",
    "run_split_cds",
    "run_decompose",
    "SURPRISE_DIFF_NAME",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# A setting's parser takes the raw text and raises ValueError on a bad value.
# Dates and reals follow the input grammar of the data files; counts are
# plain ASCII digits.


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _count(raw: str) -> int:
    """A non-negative integer in ASCII digits; spaces and tabs around ignored."""
    text = raw.strip(" \t")
    if not (text.isascii() and text.isdigit()):
        raise ValueError("expected ASCII digits 0-9")
    return int(text)


def _reals(raw: str) -> tuple[float, ...]:
    return tuple(_read_real(item.strip()) for item in raw.split(",") if item.strip())


def _setting(section: str, key: str, parse: Callable[[str], object], default):
    """A config field, set by ``key`` in ``[section]`` through ``parse``."""
    return field(default=default, metadata={"key": (section, key), "parse": parse})


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved run configuration; all paths are as given, not resolved."""

    market_csv: Path | None = _setting("data", "market_csv", Path, None)
    expectations_csv: Path | None = _setting("data", "expectations_csv", Path, None)
    focus_panel_csv: Path | None = _setting("data", "focus_panel_csv", Path, None)
    factor_csv: Path | None = _setting("data", "factor_csv", Path, None)
    components_csv: Path | None = _setting("data", "components_csv", Path, None)
    fetch_enabled: bool = _setting("fetch", "enabled", _bool, False)
    endpoint: str = _setting("fetch", "endpoint", str, DEFAULT_ENDPOINT)
    fetch_start: dt.date = _setting("fetch", "start", _read_date, dt.date(2004, 1, 1))
    start: dt.date | None = _setting("sample", "start", _read_date, None)
    end: dt.date | None = _setting("sample", "end", _read_date, None)
    out_dir: Path = _setting("output", "dir", Path, Path("out"))
    strict: bool = _setting("output", "strict", _bool, True)
    # the [fixture] settings are used only by the fixture command
    seed: int = _setting("fixture", "seed", _count, DEFAULT_FIXTURE_SEED)
    fixture_n: int = _setting("fixture", "n", _count, DEFAULT_N)
    fixture_r2: float = _setting("fixture", "r2", _read_real, DEFAULT_R2)
    fixture_betas: tuple[float, float, float, float] = _setting(
        "fixture", "betas", _reals, DEFAULT_BETAS
    )

    def validate(self) -> None:
        if self.start is not None and self.end is not None and self.start >= self.end:
            raise ConfigError(f"sample start {self.start} must precede end {self.end}")

    def echo(self) -> dict:
        """Configuration snapshot for the run report, without the [fixture] settings."""

        def plain(value):
            if isinstance(value, tuple):
                return list(value)
            if isinstance(value, dt.date):
                return value.isoformat()
            return str(value) if isinstance(value, Path) else value

        return {
            f.name: plain(getattr(self, f.name))
            for f in fields(self)
            if f.metadata["key"][0] != "fixture"
        }


_SETTINGS = {f.metadata["key"]: f for f in fields(PipelineConfig)}
_SECTIONS = {section for section, _ in _SETTINGS}


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

    settings = {}
    for (section, key), raw in values.items():
        if (section, key) not in _SETTINGS:
            raise ConfigError(f"unknown config key {section}.{key}")
        setting = _SETTINGS[(section, key)]
        try:
            settings[setting.name] = setting.metadata["parse"](raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc
    config = PipelineConfig(**settings)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Stage helpers
# ---------------------------------------------------------------------------


class _Stage:
    """One stage run in its output directory: the label and the files written."""

    def __init__(self, out_dir: Path, label: str):
        self.out_dir = out_dir
        self.label = label  # the label a failure is reported under
        self.written: list[tuple[Path, Path]] = []  # (temporary, final) paths

    def temp(self, name: str) -> Path:
        return self.out_dir / f".{name}.tmp"

    def path(self, name: str) -> Path:
        """A temporary path for ``name``, moved into place if the stage succeeds."""
        temp = self.temp(name)
        self.written.append((temp, self.out_dir / name))
        return temp


@contextmanager
def _stage(config: PipelineConfig, label: str) -> Iterator[_Stage]:
    """Run a stage with exclusive ownership of the output directory.

    An invalid config, failing to create the directory, or finding it
    locked raises ``ConfigError`` as is.  Files are written under temporary
    names, after those a killed run left are removed, and renamed into place
    once the stage succeeds.  Any other failure removes the temporary files
    and those renamed so far, and is re-raised as a ``StageError`` under the
    stage's current label.
    """
    config.validate()
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        lock = os.open(out, os.O_RDONLY)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError as exc:
        os.close(lock)
        if isinstance(exc, BlockingIOError):
            raise ConfigError(f"output directory is locked by another run: {out}") from None
        raise
    stage = _Stage(out, label)
    renamed: list[Path] = []
    try:
        for name in _STAGE_FILES:
            stage.temp(name).unlink(missing_ok=True)
        yield stage
        for temp, final in stage.written:
            os.replace(temp, final)
            renamed.append(final)
    except Exception as exc:
        for p in renamed + [temp for temp, _ in stage.written]:
            with suppress(OSError):
                p.unlink()
        raise StageError(stage.label, exc) from exc
    finally:
        os.close(lock)


def _joined(n_rows: int, what: str, inputs: Sequence[tuple[str, np.ndarray]]) -> None:
    """A DataError naming each (name, dates) input's range if a join kept no rows."""
    if n_rows == 0:
        detail = "; ".join(
            f"{name}: {dates[0]}..{dates[-1]} ({len(dates)} points)"
            if len(dates) else f"{name}: empty"
            for name, dates in inputs
        )
        raise DataError(f"{what} join produced 0 rows ({detail})")


def _fetch(config: PipelineConfig, report: LoadReport, transport=None) -> FocusPanel:
    end = config.end or dt.date.today()
    return fetch_focus(
        INDICATORS, (config.fetch_start, end), config.endpoint,
        transport=transport, report=report,
    )


def _load_expectations(config: PipelineConfig, report: LoadReport) -> Frame:
    if config.expectations_csv is not None:
        return read_frame_csv(config.expectations_csv, strict=config.strict, report=report)
    if config.focus_panel_csv is not None:
        panel = read_focus_panel_csv(config.focus_panel_csv)
        report.fetched += len(panel)
        return reshape_horizons(panel, report)
    if config.fetch_enabled:
        return reshape_horizons(_fetch(config, report), report)
    raise ConfigError(
        "no expectations source: set data.expectations_csv, data.focus_panel_csv, "
        "or fetch.enabled"
    )


def _load_market(config: PipelineConfig, report: LoadReport) -> MarketDataset:
    if config.market_csv is None:
        raise ConfigError("no market data source: set data.market_csv")
    return load_market_csv(config.market_csv, strict=config.strict, report=report)


def _target(market: MarketDataset, end: dt.date | None) -> DailySeries:
    """Daily DI5Y changes in bps up to ``end``: every regression's target."""
    return to_bps_change(market["DI5Y"].window(end=end)).with_name(TARGET_NAME)


def _transform_market(market: MarketDataset, end: dt.date | None) -> MarketDataset:
    """Daily transforms over the full available history up to ``end``."""
    # each on its own calendar: a frame's inner join would drop the factor fit's pre-CDS days
    def upto(name: str) -> DailySeries:
        return market[name].window(end=end)

    return MarketDataset((
        _target(market, end),
        *(log_return(upto(name)) for name in ("CDS", "DXY", "CRB", "VIX")),
        diff(upto("UST10")),
        diff(upto("SURPRISE")).with_name(SURPRISE_DIFF_NAME),
    ))


def _factor_design(
    transformed: MarketDataset, expectations: Frame, end: dt.date | None
) -> tuple[Frame, np.ndarray]:
    """The factor's regressors and target on the dates every input has.

    The regressors are the twenty horizon columns' daily changes followed by
    ``SURPRISE_diff``.  Each change, ``col[pos] - col[pos-1]`` as ``diff``
    makes it, goes straight into one column-major matrix (the layout the
    fit's rounding was pinned with), a bounded block of rows at a time.
    """
    cols = [expectations.index(c) for c in HORIZON_COLUMNS]
    level = expectations.window(end=end)
    _require_points(level.series(HORIZON_COLUMNS[0]), 2, "diff")  # the check diff makes
    surprise, target = transformed[SURPRISE_DIFF_NAME], transformed[TARGET_NAME]
    tail = inner_join([surprise, target])
    at = np.searchsorted(level.dates, tail.dates)
    keep = (at > 0) & (at < level.n_rows)  # a day's change needs the day before it
    keep[keep] = level.dates[at[keep]] == tail.dates[keep]
    dates, at = _frozen(tail.dates[keep]), at[keep]
    _joined(len(dates), "factor estimation", [(c, level.dates[1:]) for c in HORIZON_COLUMNS]
            + [(s.name, s.dates) for s in (surprise, target)])
    x = np.empty((len(dates), len(cols) + 1), order="F")
    for lo in range(0, len(at), _GATHER_ROWS):
        pos = at[lo:lo + _GATHER_ROWS, None]
        np.subtract(level.data[pos, cols], level.data[pos - 1, cols],
                    out=x[lo:lo + len(pos), :len(cols)])
    x[:, len(cols):] = tail.data[keep, :-1]
    names, y = (*HORIZON_COLUMNS, SURPRISE_DIFF_NAME), tail.data[keep, -1]
    del tail, at  # freed before the frame's checks allocate
    return Frame(dates, names, _frozen(x)), y


def _split_cds(t: MarketDataset) -> tuple[CdsSplitModel, CdsComponents]:
    return split_cds(t["CDS"], *(t[n] for n in REGRESSOR_ORDER))


def _decompose(
    d_di5y: DailySeries,
    factor: DailySeries,
    components: CdsComponents,
    config: PipelineConfig,
) -> tuple[DecompositionModel, Frame, Frame]:
    """The final regression with its contribution and cumulative frames."""
    inputs = (d_di5y, factor, components.dom, components.glob)
    joined = join_decomposition_inputs(*inputs).window(config.start, config.end)
    _joined(joined.n_rows, "decomposition", [(s.name, s.dates) for s in inputs])
    model = fit_decomposition_frame(joined)
    contribs = contributions(model, joined)
    return model, contribs, accumulate(contribs)


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------


def _std_dev_table(c: Frame, fit_fitted: np.ndarray) -> dict:
    table = {
        label: float(np.std(c.column(name), ddof=1))
        for label, name in (
            ("d_di5y", TARGET_NAME), ("macro", "macro_bps"), ("riscobr", "riscobr_bps"),
            ("global", "global_bps"), ("residual", "residual_bps"),
        )
    }
    table["fitted"] = float(np.std(fit_fitted, ddof=1))
    return table


def _build_report(
    config: PipelineConfig,
    model: DecompositionModel,
    contribs: Frame,
    counts: LoadReport,
) -> dict:
    """The content of report.json, with the echoed config."""
    return {
        "sample": {
            "start": contribs.dates[0].item().isoformat(),
            "end": contribs.dates[-1].item().isoformat(),
            "n_observations": contribs.n_rows,
        },
        "regression": model.to_dict(),
        "std_dev_bps": _std_dev_table(contribs, model.fit.fitted),
        "variance_shares": variance_shares(contribs).to_dict(),
        "counts": counts.to_dict(),
        "version": __version__,
        "config": config.echo(),
    }


def _emit_factor(stage: _Stage, model: PlsModel, factor: DailySeries) -> None:
    """macro_factor.csv and pls_model.json."""
    frame_to_csv(
        Frame(factor.dates, (FACTOR_NAME,), factor.values.reshape(-1, 1)),
        stage.path(FACTOR_FILE),
    )
    _write_json(stage.path(PLS_MODEL_FILE), model.to_dict())


def _emit_cds(stage: _Stage, model: CdsSplitModel, components: CdsComponents) -> None:
    """cds_components.csv and cds_model.json."""
    data = np.column_stack([components.glob.values, components.dom.values])
    frame = Frame(components.glob.dates, (GLOBAL_NAME, DOMESTIC_NAME), data)
    frame_to_csv(frame, stage.path(COMPONENTS_FILE))
    _write_json(stage.path(CDS_MODEL_FILE), model.to_dict())


def _emit_final(
    stage: _Stage,
    config: PipelineConfig,
    model: DecompositionModel,
    contribs: Frame,
    cum: Frame,
    counts: LoadReport,
    models_payload: dict,
) -> dict:
    report = _build_report(config, model, contribs, counts)
    for name, frame in ((CONTRIBUTIONS_FILE, contribs), (CUMULATIVE_FILE, cum)):
        _write_columns_csv(stage.path(name), frame.names, frame.dates, frame.data, "{:.4f}")
    _write_json(stage.path(MODELS_FILE), models_payload)
    _write_json(stage.path(REPORT_FILE), report)
    emit_svg(cum, stage.path(SVG_FILE))
    return report


# ---------------------------------------------------------------------------
# Public stage entry points
# ---------------------------------------------------------------------------


def run_fetch_focus(config: PipelineConfig, transport=None) -> LoadReport:
    """Fetch expectations, emit focus_panel.csv + expectations.csv + load_report.json.

    ``transport`` is forwarded to :func:`di_decomp.ingestion.fetch_focus`;
    tests inject recorded payloads there.
    """
    report = LoadReport()
    with _stage(config, "fetch-focus") as stage:
        panel = _fetch(config, report, transport)
        horizon = reshape_horizons(panel, report)
        write_focus_panel_csv(panel, stage.path(FOCUS_PANEL_FILE))
        frame_to_csv(horizon, stage.path(EXPECTATIONS_OUT_FILE))
        _write_json(stage.path(LOAD_REPORT_FILE), report.to_dict())
    return report


def run_build_factors(config: PipelineConfig) -> PlsModel:
    """Build the macro factor, emit macro_factor.csv + pls_model.json."""
    report = LoadReport()
    with _stage(config, "factors") as stage:
        market = _load_market(config, report)
        expectations = _load_expectations(config, report)
        transformed = _transform_market(market, config.end)
        del market  # the transforms hold every value the later stages use
        x, y = _factor_design(transformed, expectations, config.end)
        del expectations  # the design holds every value the fit needs
        model = pls1_fit(x, y)
        _emit_factor(stage, model, macro_factor(model, x))
    return model


def run_split_cds(config: PipelineConfig) -> CdsSplitModel:
    """Split CDS moves, emit cds_components.csv + cds_model.json."""
    report = LoadReport()
    with _stage(config, "cds-split") as stage:
        market = _load_market(config, report)
        model, components = _split_cds(_transform_market(market, config.end))
        _emit_cds(stage, model, components)
    return model


def run_decompose(config: PipelineConfig) -> dict:
    """Final regression from previously emitted stage files; returns report.json's content."""
    counts = LoadReport()
    with _stage(config, "decompose") as stage:
        d_di5y = _target(_load_market(config, counts), config.end)

        factor_path = Path(config.factor_csv or stage.out_dir / FACTOR_FILE)
        comp_path = Path(config.components_csv or stage.out_dir / COMPONENTS_FILE)
        factor = read_frame_csv(factor_path).series(FACTOR_NAME)
        comp_frame = read_frame_csv(comp_path)
        components = CdsComponents(
            glob=comp_frame.series(GLOBAL_NAME), dom=comp_frame.series(DOMESTIC_NAME)
        )

        model, contribs, cum = _decompose(d_di5y, factor, components, config)

        models_payload = {"pls": None, "cds_split": None, "decomposition": model.to_dict()}
        for key, side in (("pls", factor_path.parent / PLS_MODEL_FILE),
                          ("cds_split", comp_path.parent / CDS_MODEL_FILE)):
            if side.exists():
                models_payload[key] = json.loads(side.read_text(encoding="utf-8"))
        return _emit_final(stage, config, model, contribs, cum, counts, models_payload)


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage in memory and emit the full set of output files.

    Emits contributions.csv, cumulative.csv, models.json, report.json and
    decomposition.svg into the configured output directory, and returns
    report.json's content.  Reruns with identical inputs and configuration
    produce byte-identical files.
    """
    counts = LoadReport()
    with _stage(config, "ingest") as stage:
        market = _load_market(config, counts)
        expectations = _load_expectations(config, counts)

        stage.label = "transform"
        transformed = _transform_market(market, config.end)
        del market  # the transforms hold every value the later stages use

        stage.label = "factors"
        x, y = _factor_design(transformed, expectations, config.end)
        del expectations  # the design holds every value the fit needs
        pls_model = pls1_fit(x, y)
        factor = macro_factor(pls_model, x)
        del x, y

        stage.label = "cds-split"
        cds_model, components = _split_cds(transformed)

        stage.label = "decompose"
        model, contribs, cum = _decompose(transformed[TARGET_NAME], factor, components, config)

        stage.label = "emit"
        _emit_factor(stage, pls_model, factor)
        _emit_cds(stage, cds_model, components)
        models_payload = {
            "pls": pls_model.to_dict(),
            "cds_split": cds_model.to_dict(),
            "decomposition": model.to_dict(),
        }
        return _emit_final(stage, config, model, contribs, cum, counts, models_payload)
