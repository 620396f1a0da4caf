"""Benchmark worker: one process, one client, ops run back to back.

Usage (started by run.py, which speaks to it over stdin/stdout):

    python perfbench/worker.py --workload NAME --fixture DIR --src DIR --work DIR [--trace]

The worker imports di_decomp, does the workload's one-time set-up and
prints a ``ready`` line.  It then reads one command: ``quit``, or ``run``
with a number of seconds, and answers with the op samples.  Every op's
outputs are checked outside its timed region.
"""

import sys
from time import perf_counter

# Timed first, before anything else is imported, so the module count and
# the time are those of `import di_decomp` in a bare interpreter.
_modules_before = len(sys.modules)
_t0 = perf_counter()
import di_decomp  # noqa: E402

IMPORT_S = perf_counter() - _t0
MODULES_LOADED = len(sys.modules) - _modules_before

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from di_decomp import ingestion, pipeline  # noqa: E402
from di_decomp.errors import NumericalError  # noqa: E402
from tracing import LAYERS, Tracer, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent

HASHED_FILES = ("contributions.csv", "cumulative.csv", "decomposition.svg")
# Each of the six columns is rounded to 4 decimals, so a row's total and the
# sum of its five parts may differ by up to 6 * 0.5e-4 bps.
IDENTITY_TOL_BPS = 6 * 0.5e-4 + 1e-6
# The macro factor is itself estimated, so its beta misses the truth by more
# than the analytic standard error alone; 6 SEs is never reached by chance.
BETA_SE_MULTIPLE = 6.0

CLI_TIMEOUT_S = 120
REFIT_WINDOW = 504
REFIT_STEP = 5
READ_FUNCS = ("load_market_csv", "read_frame_csv", "read_focus_panel_csv")
WRITE_FUNCS = ("frame_to_csv", "write_focus_panel_csv")


class CheckError(Exception):
    """An op's outputs are wrong."""


class OpError(Exception):
    """An op raised or exited non-zero; ``args[0]`` is its (wall, cpu, root)."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_identity(path: Path, n_rows: int) -> None:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        count = 0
        for row in reader:
            total, *parts = (float(v) for v in row[1:])
            if abs(total - sum(parts)) > IDENTITY_TOL_BPS:
                raise CheckError(f"{path.name}: row {row[0]} does not add up: {row}")
            count += 1
    if count != n_rows:
        raise CheckError(f"{path.name}: {count} rows, expected {n_rows}")


def check_outputs(out: Path, truth: dict, digests: dict) -> None:
    """The output files of one op are consistent, on target and unchanged."""
    for name in ("contributions.csv", "cumulative.csv"):
        _check_identity(out / name, truth["n"])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    for row in report["regression"]["coefficients"]:
        true = truth["true_betas"][row["name"]]
        se = truth["analytic_stderr"][row["name"]]
        if not abs(row["estimate"] - true) <= BETA_SE_MULTIPLE * se:
            raise CheckError(
                f"report.json: {row['name']} = {row['estimate']} is more than "
                f"{BETA_SE_MULTIPLE} SE from the true {true}"
            )
    for name in HASHED_FILES:
        digest = _sha256(out / name)
        if digests.setdefault(name, digest) != digest:
            raise CheckError(f"{name}: sha256 differs from the run's first op")


class FileWorkload:
    """Ops that write the output files into a fresh directory each."""

    sweep = 1
    cold = False

    def __init__(self, fixture: Path, work: Path):
        self.market = fixture / "market.csv"
        self.expectations = fixture / "expectations.csv"
        self.truth = json.loads((fixture / "fixture_truth.json").read_text(encoding="utf-8"))
        self.work = work
        # One name for every op, emptied before each: report.json echoes the
        # path, and its size must not change with the op number.
        self.out = work / "op"
        self.digests: dict[str, str] = {}

    def fresh_config(self):
        shutil.rmtree(self.out, ignore_errors=True)
        return pipeline.load_config(overrides={
            ("data", "market_csv"): str(self.market),
            ("data", "expectations_csv"): str(self.expectations),
            ("output", "dir"): str(self.out),
        })

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir())

    def check(self, i: int) -> None:
        check_outputs(self.out, self.truth, self.digests)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliPaper(FileWorkload):
    """A cold `python -m di_decomp.cli run` subprocess per op."""

    cold = True

    def op(self, i: int, tracer: Tracer | None):
        shutil.rmtree(self.out, ignore_errors=True)
        args = ["run", "--market", str(self.market), "--expectations",
                str(self.expectations), "--out", str(self.out)]
        spans = self.work / "spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "di_decomp.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "bootstrap.py"), str(spans), *args]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        root = tracer.open("op", "cli_paper") if tracer else -1
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        wall = perf_counter() - t0
        if tracer:
            tracer.close(root)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        if proc.returncode != 0:
            raise OpError((wall, cpu, root), f"exit code {proc.returncode}: "
                          f"{err.decode()[-400:]}")
        if tracer:
            recorded = json.loads(spans.read_text(encoding="utf-8"))
            spans.unlink()
            tracer.merge(recorded["spans"], recorded["counts"], root)
        return wall, cpu, root

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _timed(tracer: Tracer | None, name: str, fn):
    root = tracer.open("op", name) if tracer else -1
    c0 = time.process_time()
    t0 = perf_counter()
    try:
        fn()
        error = None
    except Exception as exc:  # timed like any op, then reported as failed
        error = exc
    wall = perf_counter() - t0
    cpu = time.process_time() - c0
    if tracer:
        tracer.close(root)
    if error is not None:
        raise OpError((wall, cpu, root), f"{type(error).__name__}: {error}") from error
    return wall, cpu, root


class PipelineStress(FileWorkload):
    """One in-process `run_pipeline` call per op."""

    def op(self, i: int, tracer: Tracer | None):
        config = self.fresh_config()
        return _timed(tracer, "pipeline_stress", lambda: pipeline.run_pipeline(config))


class StagedResume(FileWorkload):
    """The three stage runners, resuming from each other's files, per op."""

    def op(self, i: int, tracer: Tracer | None):
        config = self.fresh_config()

        def stages():
            pipeline.run_build_factors(config)
            pipeline.run_split_cds(config)
            pipeline.run_decompose(config)

        return _timed(tracer, "staged_resume", stages)


class RollingRefit:
    """Refit one 504-row window per op, stepping 5 rows; a sweep covers all."""

    cold = False

    def __init__(self, fixture: Path, work: Path):
        dd = di_decomp
        market = dd.load_market_csv(fixture / "market.csv")
        expectations = ingestion.read_frame_csv(fixture / "expectations.csv")
        target = dd.to_bps_change(market["DI5Y"]).with_name(pipeline.TARGET_NAME)
        x = [dd.diff(expectations.series(c)) for c in pipeline.HORIZON_COLUMNS]
        x.append(dd.diff(market["SURPRISE"]).with_name(pipeline.SURPRISE_DIFF_NAME))
        cds = [dd.log_return(market[c]) for c in ("CDS", "DXY", "CRB", "VIX")]
        cds.append(dd.diff(market["UST10"]))
        # every input on the decomposition calendar, so a window is one slice
        self.inputs = dd.inner_join([target, *x, *cds])
        self.target = target.name
        self.x = [s.name for s in x]
        self.cds = [s.name for s in cds]
        dates = self.inputs.dates
        self.windows = [
            (dates[k], dates[k + REFIT_WINDOW - 1])
            for k in range(0, len(dates) - REFIT_WINDOW + 1, REFIT_STEP)
        ]
        self.sweep = len(self.windows)
        self.result = None
        self.hash = hashlib.sha256()
        self.sweep_digest = None

    def refit(self, start, end):
        dd = di_decomp
        inputs = self.inputs.window(start, end)
        x = inputs.select(self.x)
        pls = dd.pls1_fit(x, inputs.column(self.target))
        factor = dd.macro_factor(pls, x)
        cds, components = dd.split_cds(*(inputs.series(c) for c in self.cds))
        target = inputs.series(self.target)
        model = dd.fit_decomposition(target, factor, components.dom, components.glob)
        frame = dd.inner_join([target, factor, components.dom, components.glob])
        contribs = dd.contributions(model, frame)
        cum = dd.accumulate(contribs)
        shares = dd.variance_shares(contribs)
        self.result = (pls, cds, model, cum, shares)

    def bytes_written(self) -> int:
        return 0

    def op(self, i: int, tracer: Tracer | None):
        start, end = self.windows[i % self.sweep]
        return _timed(tracer, "rolling_refit", lambda: self.refit(start, end))

    def check(self, i: int) -> None:
        pls, cds, model, cum, shares = self.result
        try:
            di_decomp.validate_cumulative(cum)
        except NumericalError as exc:
            raise CheckError(f"window {i}: {exc}") from exc
        if cum.n_rows != REFIT_WINDOW:
            raise CheckError(f"window {i}: {cum.n_rows} rows, expected {REFIT_WINDOW}")
        for arr in (pls.weights, cds.fit.coefficients, model.fit.coefficients,
                    model.fit.p_values, shares.shares):
            if not np.all(np.isfinite(arr)):
                raise CheckError(f"window {i}: non-finite estimate")
            self.hash.update(np.ascontiguousarray(arr).tobytes())
        if (i + 1) % self.sweep == 0:
            digest = self.hash.hexdigest()
            self.hash = hashlib.sha256()
            if self.sweep_digest is None:
                self.sweep_digest = digest
            elif digest != self.sweep_digest:
                raise CheckError(f"sweep ending at op {i}: coefficient digest changed")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {
    "cli_paper": CliPaper,
    "pipeline_stress": PipelineStress,
    "staged_resume": StagedResume,
    "rolling_refit": RollingRefit,
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "di_decomp": di_decomp.__file__,
    }


def _layer_summary(tracer: Tracer, roots: list[int]) -> dict:
    """Per-op means over the traced ops; the read rate also covers set-up."""
    n = len(roots)
    in_ops = set(roots)
    self_s = Counter()
    read_s = write_s = read_all = 0.0
    for i, (root, layer, seconds) in enumerate(self_times(tracer.spans)):
        func = tracer.spans[i][1].rpartition(".")[2]
        if func in READ_FUNCS:
            read_all += seconds
        if root not in in_ops:
            continue
        self_s[layer] += seconds
        if func in READ_FUNCS:
            read_s += seconds
        elif func in WRITE_FUNCS:
            write_s += seconds
    rows = tracer.counts["ingestion.rows_read"]
    return {
        "ops": n,
        "mean_wall_s": sum(tracer.spans[i][3] - tracer.spans[i][2] for i in roots) / n,
        "self_s": {layer: s / n for layer, s in self_s.items()},
        "ingestion.read_s": read_s / n,
        "ingestion.write_s": write_s / n,
        "ingestion.read_us_per_row": 1e6 * read_all / rows if rows else 0.0,
    }


def _layer_bytes(tracer: Tracer) -> int:
    """Bytes written so far through the ingestion and svg_chart wrappers."""
    return tracer.counts["ingestion.write_bytes"] + tracer.counts["svg_chart.bytes"]


def _layer_counts(counts: Counter) -> Counter:
    return Counter({k: v for k, v in counts.items() if k.split(".")[0] in LAYERS})


def run(workload, seconds: float, tracer: Tracer | None) -> dict:
    """Ops back to back for at most ``seconds``.

    With a tracer, sweeps alternate untraced and traced, starting untraced,
    and the run lasts until at least one traced sweep is complete.  A sweep
    is one op, or every window for the rolling refit.
    """
    walls, cpus, traced_walls, roots = [], [], [], []
    errors: list[str] = []
    failed = 0
    sweep_counts: list[Counter] = []
    start = perf_counter()
    i = 0
    while True:
        sweep, pos = divmod(i, workload.sweep)
        traced = tracer is not None and sweep % 2 == 1
        if tracer is not None and pos == 0:
            if traced:
                tracer.install()
                before = Counter(tracer.counts)
            else:
                tracer.uninstall()
        op_start = perf_counter()
        if traced:
            layer_bytes = _layer_bytes(tracer)
        try:
            wall, cpu, root = workload.op(i, tracer if traced else None)
            error = None
        except OpError as exc:
            (wall, cpu, root), error = exc.args
        if traced:
            traced_walls.append(wall)
            roots.append(root)
        else:
            walls.append(wall)
            cpus.append(cpu)
        if error is None:
            try:
                if traced:  # what neither ingestion nor svg_chart wrote
                    layer_bytes = _layer_bytes(tracer) - layer_bytes
                    tracer.counts["pipeline.write_bytes"] += workload.bytes_written() - layer_bytes
                workload.check(i)
            except (CheckError, OSError, ValueError, KeyError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {i}: {error}")
        i += 1
        if traced and i % workload.sweep == 0:
            sweep_counts.append(_layer_counts(tracer.counts - before))
        # Start no op that would end past the deadline, judging by the last.
        now = perf_counter()
        if now - start + (now - op_start) > seconds and (tracer is None or sweep_counts):
            break
    result = {
        "walls": walls,
        "cpus": cpus,
        "attempted": i,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = {
            "layers": _layer_summary(tracer, roots),
            "traced_wall_s": statistics.median(traced_walls),
            "untraced_wall_s": statistics.median(walls),
            "sweep_counts": [dict(c) for c in sweep_counts],
            "spans": tracer.spans,
        }
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--fixture", required=True, type=Path)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    package = Path(di_decomp.__file__).resolve()
    if args.src.resolve() not in package.parents:
        raise SystemExit(f"di_decomp was imported from {package}, not from {args.src}")
    # Protocol lines only on the real stdout; anything the program prints
    # goes to stderr.
    protocol, sys.stdout = sys.stdout, sys.stderr

    def send(message: dict) -> None:
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    args.work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        root = tracer.open("setup", args.workload)
    workload = WORKLOADS[args.workload](args.fixture, args.work)
    setup_counts = Counter()
    if tracer is not None:
        tracer.close(root)
        setup_counts = _layer_counts(tracer.counts)
        if not workload.cold:
            setup_counts["startup.modules_loaded"] = MODULES_LOADED
    send({"ready": True, "import_s": IMPORT_S, "modules_loaded": MODULES_LOADED,
          "env": environment()})

    command = json.loads(sys.stdin.readline() or '{"cmd": "quit"}')
    if command["cmd"] == "run":
        result = run(workload, command["seconds"], tracer)
        result["setup_counts"] = dict(setup_counts)
        send(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
