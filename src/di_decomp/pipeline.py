"""Pipeline orchestration, configuration, and report emission.

The full run is a fixed sequence of stages: ingest -> transform -> factors
-> cds-split -> decompose -> emit.  Every stage is also callable on its own
through the CLI, consuming the previous stage's emitted files, so a run can
be resumed and audited piecewise.

Each stage has one body, which emits its files for the output directory:
``_factors`` macro_factor.csv and pls_model.json, ``_split``
cds_components.csv and cds_model.json, and ``_final`` contributions.csv,
cumulative.csv, models.json, report.json and decomposition.svg.  ``run``
calls all three, ``build-factors``, ``split-cds`` and ``decompose`` one each;
``decompose`` reads the first four files, all required, from that directory.
``fetch-focus`` writes focus_panel.csv, expectations.csv and load_report.json.
It is the only stage that fetches: every other stage reads its inputs from
files, and ``data.expectations_csv`` takes either CSV it wrote (the header
decides), so fetched data reach a decomposition only through those files.

Configuration is layered: an INI-style file provides base values,
``DI_DECOMP_<SECTION>_<KEY>`` environment variables override the file, and
CLI flags override both.  Each setting's section, key and parser are
declared once, on its ``PipelineConfig`` field.

Outputs are deterministic: identical inputs, configuration and software
version produce byte-identical files.  A stage holds a ``flock`` on its
output directory, which ends with its process, even a killed one, and its
files replace the previous run's only once the whole stage has succeeded.

A stage uses a second core through one helper, ``_forked``: a forked child
parses the second half of every market or frame CSV the stage reads while
the stage parses the first halves, and formats about half of the files'
text at the end of every stage.  Only the
stage's own process holds the lock and writes in the output directory; the
child sends back what it made over a pipe, and makes no BLAS or LAPACK call.
"""

from __future__ import annotations

import configparser
import datetime as dt
import fcntl
import json
import logging
import os
import pickle
import signal
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .cds import CdsSplitModel, DOMESTIC_NAME, GLOBAL_NAME, split_cds
from .cds import REGRESSOR_ORDER
from .decomposition import (
    CONTRIBUTION_COLUMNS,
    TARGET_NAME,
    accumulate,
    contributions,
    fit_decomposition_frame,
    join_decomposition_inputs,
    variance_shares,
)
from .errors import ConfigError, DataError, ParseError, StageError
from .fixture import DEFAULT_BETAS, DEFAULT_FIXTURE_SEED, DEFAULT_N, DEFAULT_R2
from .ingestion import (
    DEFAULT_ENDPOINT,
    HORIZON_COLUMNS,
    INDICATORS,
    LoadReport,
    MARKET_COLUMNS,
    MarketDataset,
    fetch_focus,
    read_focus_panel_csv,
    reshape_horizons,
    _Table,
    _columns_csv,
    _cut,
    _frame,
    _json_text,
    _market,
    _merge,
    _open_table,
    _open_text,
    _panel_csv,
    _read_date,
    _read_part,
    _read_real,
    _shown,
    _write_text,
)
from .pls import FACTOR_NAME, PlsModel, macro_factor, pls1_fit
from .series import DailySeries, Frame, diff, inner_join, log_return, to_bps_change
from .series import _frozen, _require_points
from .svg_chart import render_svg

# perfbench/tracing.py wraps these readers and file writers under this module's
# names; the stages read tables in halves, and format text with _columns_csv,
# _panel_csv and render_svg, instead.
from .ingestion import frame_to_csv, load_market_csv, read_frame_csv  # noqa: F401
from .ingestion import write_focus_panel_csv  # noqa: F401
from .svg_chart import emit_svg  # noqa: F401

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

log = logging.getLogger(__name__)

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

# A setting's parser takes the raw text and raises ValueError on a bad value,
# quoting it once.  Dates and reals follow the input grammar of the data
# files; counts are plain ASCII digits.


def _count(raw: str) -> int:
    """A non-negative integer in ASCII digits; spaces and tabs around ignored."""
    text = raw.strip(" \t")
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII digits 0-9, got {_shown(raw)}")
    return int(text)


def _reals(raw: str) -> tuple[float, ...]:
    return tuple(map(_read_real, raw.split(",")))


def _setting(section: str, key: str, parse: Callable[[str], object], default):
    """A config field, set by ``key`` in ``[section]`` through ``parse``."""
    return field(default=default, metadata={"key": (section, key), "parse": parse})


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved run configuration; all paths are as given, not resolved."""

    market_csv: Path | None = _setting("data", "market_csv", Path, None)
    expectations_csv: Path | None = _setting("data", "expectations_csv", Path, None)
    endpoint: str = _setting("fetch", "endpoint", str, DEFAULT_ENDPOINT)
    fetch_start: dt.date = _setting("fetch", "start", _read_date, dt.date(2004, 1, 1))
    start: dt.date | None = _setting("sample", "start", _read_date, None)
    end: dt.date | None = _setting("sample", "end", _read_date, None)
    out_dir: Path = _setting("output", "dir", Path, Path("out"))
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
        """The settings the final regression reads, for the run report; ``run``
        and ``decompose`` read the same ones."""
        echoed = {name: getattr(self, name) for name in ("market_csv", "start", "end", "out_dir")}
        return {name: None if value is None else str(value) for name, value in echoed.items()}


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
        # values are literal, as from every source, and [DEFAULT] is an unknown section
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            with path.open(encoding="utf-8") as fh:  # read() would skip an unreadable file
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
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
            raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
    config = PipelineConfig(**settings)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Stage helpers
# ---------------------------------------------------------------------------


class _Stage:
    """One stage run in its output directory: its lock, its current step and
    the files it writes."""

    def __init__(self, out_dir: Path, lock: int):
        self.out_dir = out_dir
        self.lock = lock  # the flock descriptor, which a forked child closes first
        self.label = "ingest"  # the step a failure is reported under, set by each step
        self.files: list[tuple[str, int, Callable[[], str]]] = []  # (name, cells, text)

    def temp(self, name: str) -> Path:
        return self.out_dir / f".{name}.tmp"

    def emit(self, name: str, cells: int, text: Callable[[], str]) -> None:
        """Write ``text()`` as file ``name`` once every step has run; ``cells``,
        the values it formats, weighs the work."""
        self.files.append((name, cells, text))

    def emit_frame(self, name: str, frame: Frame, cell: str = "{!r}") -> None:
        """Write ``frame`` as the CSV file ``name``, each value formatted by ``cell``."""
        self.emit(name, _cells(frame),
                  lambda: _columns_csv(frame.names, frame.dates, frame.data, cell))

    def emit_json(self, name: str, payload: dict) -> None:
        self.emit(name, 1, lambda: _json_text(payload))


def _cells(frame: Frame) -> int:
    """The cells of ``frame`` as a table: a date and its values per row."""
    return frame.n_rows * (len(frame.names) + 1)


@contextmanager
def _forked(lock: int, work: Callable[[], object]) -> Iterator[Callable[[], object]]:
    """Run ``work`` in a forked child while the ``with`` block runs here.

    The child closes ``lock`` first, so only this process holds the stage's
    lock, and writes nothing but one pickled answer into a pipe:
    ``(True, value)`` with what ``work`` returned, or ``(False, exc)`` with
    what it raised.  The block gets a function that reads the answer, reaps
    the child, and returns the value or raises the exception here; a child
    that dies without an answer is a ``ChildProcessError`` naming its signal
    or status.  Leaving the block before that kills the child and reaps it.
    Reaping logs the child's CPU time and peak memory at DEBUG.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the child: it never returns
        try:
            os.close(lock)
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                try:
                    answer = (True, work())
                except BaseException as exc:  # the parent raises it
                    answer = (False, exc)
                pickle.dump(answer, pipe, pickle.HIGHEST_PROTOCOL)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_end)
    pipe = open(read_end, "rb")
    reaped = False

    def reap() -> int:
        nonlocal reaped
        _, status, usage = os.wait4(pid, 0)
        reaped = True
        log.debug("forked child %d: %.3f s CPU, %d KiB peak resident", pid,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
        return os.waitstatus_to_exitcode(status)

    def answer():
        with pipe:  # read before reaping, or a full pipe stalls the child
            try:
                ok, value = pickle.load(pipe)
            except EOFError:  # the child died without an answer
                ok, value = False, None
        code = reap()
        if ok:
            return value
        how = (f"was killed by {signal.Signals(-code).name}" if code < 0
               else f"exited with status {code}")
        raise value or ChildProcessError(f"the forked child {how} before it answered")

    try:
        yield answer
    finally:
        if not reaped:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            reap()


def _write_files(stage: _Stage) -> None:
    """Format the stage's files in two groups of near-equal cells, the second
    in a forked child, and write each here under its temporary name.

    Largest first, each file joins the group with fewer cells so far.
    """
    groups: tuple[list, list] = ([], [])
    cells = [0, 0]
    for name, n, text in sorted(stage.files, key=lambda file: -file[1]):
        lighter = cells.index(min(cells))
        groups[lighter].append((name, text))
        cells[lighter] += n
    mine, theirs = groups
    with _forked(stage.lock, lambda: [(name, text()) for name, text in theirs]) as texts:
        for name, text in mine:
            _write_text(stage.temp(name), text())
        for name, text in texts():
            _write_text(stage.temp(name), text)


@contextmanager
def _stage(config: PipelineConfig) -> Iterator[_Stage]:
    """Run a stage with exclusive ownership of the output directory.

    An invalid config, failing to create the directory, or finding it
    locked raises ``ConfigError`` as is.  After the temporary files a
    killed run left are removed, the steps run; then, as the ``emit`` step,
    the files they emitted are written under temporary names and renamed
    into place.  Any other failure removes the temporary files and those
    renamed so far, and is re-raised as a ``StageError`` under the label of
    the step that failed.
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
    stage = _Stage(out, lock)
    renamed: list[Path] = []
    try:
        for name in _STAGE_FILES:
            stage.temp(name).unlink(missing_ok=True)
        yield stage
        stage.label = "emit"
        _write_files(stage)
        for name, *_ in stage.files:
            os.replace(stage.temp(name), out / name)
            renamed.append(out / name)
    except Exception as exc:
        for p in renamed + [stage.temp(name) for name, *_ in stage.files]:
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


# An input file of a stage, opened: (table, make), a CSV table read in two
# halves and made into its value by make(table, dates, values), or (None,
# read), a file this process reads whole with read().
_Input = tuple[_Table | None, Callable]


def _market_input(config: PipelineConfig) -> _Input:
    if config.market_csv is None:
        raise ConfigError("no market data source: set data.market_csv")
    return _open_table(config.market_csv, MARKET_COLUMNS), _market


def _expectations_input(config: PipelineConfig) -> _Input:
    """A horizon CSV, or a focus panel CSV, read whole, if its header says so."""
    path = config.expectations_csv
    if path is None:
        raise ConfigError("no expectations source: set data.expectations_csv")
    with _open_text(Path(path)) as fh:
        if not fh.readline().startswith("survey_date,"):  # the panel header's first cell
            return _open_table(path, None), _frame
    return None, lambda: reshape_horizons(read_focus_panel_csv(path))


def _read_tails(halves: Sequence[tuple[_Table | None, int]]) -> list:
    """What the forked child reads: each table's lines from its cut on, as
    ``_read_part`` gives them (no rows if the cut is the end of the file);
    None for a file read whole."""
    return [_read_part(table, cut, table.size) if table else None for table, cut in halves]


def _read_inputs(stage: _Stage, inputs: Sequence[Callable[[], _Input]]) -> list:
    """Each input's value, read with both cores as if the files were read in turn.

    Each input first opens its file, which checks its header.  A table is
    cut at the first line start at or after the byte midpoint of its data:
    this process parses the lines before the cut, and one forked child those
    after it, for every table at once.  A file read whole is read here, in
    its turn.  Each table's halves are then merged in file order.  The first
    input whose opening, reading or merge fails raises, once the inputs
    before it are read, so an earlier file's error wins.
    """
    opened, failure = [], None
    for open_input in inputs:
        try:
            opened.append(open_input())
        except Exception as exc:
            failure = exc
            break
    if not opened:
        raise failure
    halves = [(table, table and _cut(table)) for table, _ in opened]
    with _forked(stage.lock, lambda: _read_tails(halves)) as answer:
        heads = []
        for (table, read), (_, cut) in zip(opened, halves):
            try:
                heads.append(read() if table is None else _read_part(table, table.start, cut))
            except Exception as exc:  # the inputs before it are still read
                failure = exc
                break
        tails = answer()
    values = []
    for i, (table, make) in enumerate(opened[:len(heads)]):
        head, tail = heads[i], tails[i]
        heads[i] = tails[i] = None  # each part dropped once its table is merged
        values.append(head if table is None else make(table, *_merge(table, [head, tail])))
    if failure is not None:
        raise failure
    return values


# The market columns each fit reads; a stage transforms only those its fits read.
_FACTOR_COLUMNS = ("DI5Y", "SURPRISE")
_CDS_COLUMNS = ("CDS", *REGRESSOR_ORDER)


def _transform_market(
    market: MarketDataset, end: dt.date | None, columns: Sequence[str]
) -> MarketDataset:
    """Each of ``columns``' daily moves over its full history up to ``end``.

    DI5Y becomes the target in bps and SURPRISE ``SURPRISE_diff``; UST10 is
    differenced and the other columns are log returns.
    """
    # each on its own calendar: a frame's inner join would drop the factor fit's pre-CDS days
    def moves(name: str) -> DailySeries:
        series = market[name].window(end=end)
        if name == "DI5Y":
            return to_bps_change(series).with_name(TARGET_NAME)
        if name == "SURPRISE":
            return diff(series).with_name(SURPRISE_DIFF_NAME)
        return diff(series) if name == "UST10" else log_return(series)

    return {s.name: s for s in map(moves, columns)}


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


# ---------------------------------------------------------------------------
# Stage bodies: each runs once, under `run` and under its own command
# ---------------------------------------------------------------------------


def _std_dev_table(c: Frame, fit_fitted: np.ndarray) -> dict:
    table = {  # by contribution column, less "_bps"; the constant has no spread
        name.removesuffix("_bps"): float(np.std(c.column(name), ddof=1))
        for name in CONTRIBUTION_COLUMNS[:1] + CONTRIBUTION_COLUMNS[2:]
    }
    table["fitted"] = float(np.std(fit_fitted, ddof=1))
    return table


def _factors(
    stage: _Stage, config: PipelineConfig, columns: Sequence[str]
) -> tuple[MarketDataset, PlsModel, DailySeries]:
    """Load the inputs, transform the market ``columns`` (the factor's and any
    a later step reads), fit the macro factor and emit its files.

    Emits macro_factor.csv and pls_model.json, and returns the transformed
    market set, the model and the factor.
    """
    market, expectations = _read_inputs(
        stage, [lambda: _market_input(config), lambda: _expectations_input(config)]
    )

    stage.label = "transform"
    transformed = _transform_market(market, config.end, columns)
    del market  # the transforms hold every value the later stages use

    stage.label = "factors"
    x, y = _factor_design(transformed, expectations, config.end)
    del expectations  # the design holds every value the fit needs
    model = pls1_fit(x, y)
    factor = macro_factor(model, x)
    del x, y
    stage.emit_frame(FACTOR_FILE, Frame(factor.dates, (FACTOR_NAME,), factor.values.reshape(-1, 1)))
    stage.emit_json(PLS_MODEL_FILE, model.to_dict())
    return transformed, model, factor


def _split(stage: _Stage, transformed: MarketDataset) -> tuple[CdsSplitModel, Frame]:
    """Split CDS moves; emit cds_components.csv (the returned frame) and cds_model.json."""
    stage.label = "cds-split"
    model, components = split_cds(transformed["CDS"], *(transformed[n] for n in REGRESSOR_ORDER))
    data = np.column_stack([components.glob.values, components.dom.values])
    frame = Frame(components.glob.dates, (GLOBAL_NAME, DOMESTIC_NAME), data)
    stage.emit_frame(COMPONENTS_FILE, frame)
    stage.emit_json(CDS_MODEL_FILE, model.to_dict())
    return model, frame


def _final(
    stage: _Stage,
    config: PipelineConfig,
    d_di5y: DailySeries,
    factor: DailySeries,
    components: Frame,
    models_payload: dict,
) -> dict:
    """The final regression with its contributions and cumulative sums.

    ``components`` is the frame in cds_components.csv.  Emits contributions.csv,
    cumulative.csv, models.json (``models_payload`` and the decomposition),
    report.json and decomposition.svg, and returns report.json's content.
    """
    stage.label = "decompose"
    inputs = (d_di5y, factor, components.series(DOMESTIC_NAME), components.series(GLOBAL_NAME))
    joined = join_decomposition_inputs(*inputs).window(config.start, config.end)
    _joined(joined.n_rows, "decomposition", [(s.name, s.dates) for s in inputs])
    model = fit_decomposition_frame(joined)
    contribs = contributions(model, joined)
    cum = accumulate(contribs)

    stage.label = "emit"
    report = {
        "sample": {
            "start": contribs.dates[0].item().isoformat(),
            "end": contribs.dates[-1].item().isoformat(),
            "n_observations": contribs.n_rows,
        },
        "regression": model.to_dict(),
        "std_dev_bps": _std_dev_table(contribs, model.fit.fitted),
        "variance_shares": variance_shares(contribs).to_dict(),
        "version": __version__,
        "config": config.echo(),
    }
    stage.emit_frame(CONTRIBUTIONS_FILE, contribs, "{:.4f}")
    stage.emit_frame(CUMULATIVE_FILE, cum, "{:.4f}")
    stage.emit_json(MODELS_FILE, {**models_payload, "decomposition": model.to_dict()})
    stage.emit_json(REPORT_FILE, report)
    stage.emit(SVG_FILE, _cells(cum), lambda: render_svg(cum))  # an x and six y per row
    return report


# ---------------------------------------------------------------------------
# Public stage entry points
# ---------------------------------------------------------------------------


def run_fetch_focus(config: PipelineConfig, transport=None) -> LoadReport:
    """Fetch expectations, emit focus_panel.csv + expectations.csv + load_report.json.

    ``transport`` is forwarded to :func:`di_decomp.ingestion.fetch_focus`;
    tests inject recorded payloads there.  A fetch start after the end (by
    default today) is a ConfigError before the output directory is made.
    """
    end = config.end or dt.date.today()
    if config.fetch_start > end:
        raise ConfigError(f"fetch start {config.fetch_start} is after end {end}")
    counts = LoadReport()
    with _stage(config) as stage:
        panel = fetch_focus(INDICATORS, (config.fetch_start, end),
                            config.endpoint, transport=transport, report=counts)
        horizon = reshape_horizons(panel, counts)
        stage.emit(FOCUS_PANEL_FILE, 4 * len(panel), lambda: _panel_csv(panel))
        stage.emit_frame(EXPECTATIONS_OUT_FILE, horizon)
        stage.emit_json(LOAD_REPORT_FILE, counts.to_dict())
    return counts


def run_build_factors(config: PipelineConfig) -> PlsModel:
    """Build the macro factor, emit macro_factor.csv + pls_model.json."""
    with _stage(config) as stage:
        return _factors(stage, config, _FACTOR_COLUMNS)[1]


def run_split_cds(config: PipelineConfig) -> CdsSplitModel:
    """Split CDS moves, emit cds_components.csv + cds_model.json."""
    with _stage(config) as stage:
        [market] = _read_inputs(stage, [lambda: _market_input(config)])
        stage.label = "transform"
        return _split(stage, _transform_market(market, config.end, _CDS_COLUMNS))[0]


def run_decompose(config: PipelineConfig) -> dict:
    """Final regression from the four stage files in the output directory, all
    required; returns report.json's content."""
    with _stage(config) as stage:
        market, factor, components = _read_inputs(stage, [
            lambda: _market_input(config),
            *(lambda name=name: (_open_table(stage.out_dir / name, None), _frame)
              for name in (FACTOR_FILE, COMPONENTS_FILE)),
        ])
        factor = factor.series(FACTOR_NAME)
        models_payload = {}
        for key, name in (("pls", PLS_MODEL_FILE), ("cds_split", CDS_MODEL_FILE)):
            with _open_text(stage.out_dir / name) as fh:
                try:
                    models_payload[key] = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"{fh.name}: not valid JSON ({exc})") from exc
            if not isinstance(models_payload[key], dict):
                raise ParseError(f"{fh.name}: not a JSON object")
        stage.label = "transform"
        d_di5y = _transform_market(market, config.end, ("DI5Y",))[TARGET_NAME]
        del market  # the target holds every market value the regression uses
        return _final(stage, config, d_di5y, factor, components, models_payload)


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage in memory, write all nine output files, return report.json's content.

    Reruns with identical inputs and configuration produce byte-identical files.
    """
    with _stage(config) as stage:
        transformed, pls_model, factor = _factors(stage, config, MARKET_COLUMNS)
        cds_model, components = _split(stage, transformed)
        models_payload = {"pls": pls_model.to_dict(), "cds_split": cds_model.to_dict()}
        return _final(stage, config, transformed[TARGET_NAME], factor, components, models_payload)
