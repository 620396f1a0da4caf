"""di-decomp benchmark: four workloads timed end to end, and per layer when traced.

One workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, untraced and traced, with a summary table; this also
rewrites BENCHMARK.json from the definitions below:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from anywhere inside a checkout; the checkout's own ``src/`` is
measured.  Inputs come from ``di-decomp fixture --seed N`` and are cached
under ``.perfbench_work/`` in the checkout, with every other file a run
leaves.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads, metrics and the first baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# name -> (fixture n, why).  All four run with --all or --workload; only the
# STEADY ones are in BENCHMARK.json.  On a shared 2-core host the medians of
# staged_resume and rolling_refit moved by 21-27% between 25 s runs (quartile
# spread over ten), above the 0.25 bound, so the time a full comparison may
# take goes to running the other two for 50 s each.  See README.md.
WORKLOADS = {
    "cli_paper": (2741, "cold `di-decomp run` subprocess per op at paper size: "
                  "the only workload paying import and interpreter start on every op"),
    "pipeline_stress": (40000, "warm run_pipeline at n=40000: ingestion, series and "
                        "emit dominate, kernels under 3%, so kernel-only changes predict no change"),
    "staged_resume": (2741, "warm build-factors, split-cds, decompose chain: three market "
                      "parses and the stage-file round trip through read_frame_csv"),
    "rolling_refit": (2741, "warm refits of 504-row windows with no parse, emit or import "
                      "on the clock: the only workload where the numeric layers are visible"),
}

STEADY = ("cli_paper", "pipeline_stress")

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("wall_s_tail", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)

# name, unit, better.  Only metrics both STEADY workloads produce; a time
# that reads 0 on every run of a workload tells nothing, so cli.self_s (0
# outside cli_paper) and the remainder are printed and saved, not listed.
PER_LAYER = (
    ("startup.import_s", "s", "lower"),
    ("startup.modules_loaded", "count", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.write_bytes", "count", "lower"),
    ("ingestion.read_s", "s", "lower"),
    ("ingestion.read_us_per_row", "us", "lower"),
    ("ingestion.read_bytes", "count", "lower"),
    ("ingestion.rows_read", "count", "lower"),
    ("ingestion.rows_rejected", "count", "lower"),
    ("ingestion.write_s", "s", "lower"),
    ("ingestion.write_bytes", "count", "lower"),
    ("series.self_s", "s", "lower"),
    ("series.calls", "count", "lower"),
    ("series.window_calls", "count", "lower"),
    ("series.join_rows_in", "count", "lower"),
    ("series.join_rows_kept", "count", "higher"),
    ("pls.self_s", "s", "lower"),
    ("pls.calls", "count", "lower"),
    ("cds.self_s", "s", "lower"),
    ("cds.calls", "count", "lower"),
    ("regression.self_s", "s", "lower"),
    ("regression.calls", "count", "lower"),
    ("regression.ols_calls", "count", "lower"),
    ("regression.pvalue_calls", "count", "lower"),
    ("decomposition.self_s", "s", "lower"),
    ("decomposition.calls", "count", "lower"),
    ("svg_chart.self_s", "s", "lower"),
    ("svg_chart.bytes", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
UNITS.update({"failed_ops_ratio": "ratio", "cli.self_s": "s", "trace.remainder_s": "s"})

RUN_SECONDS = 50
SETUP_REPEATS = 3
MAX_FIXTURES = 6
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n][1]} for n in STEADY],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONHOME", None)
    return env


def ensure_fixture(seed: int, n: int) -> tuple[Path, float | None]:
    """The seeded fixture, generated once per (seed, n); returns its
    generation time, or None when it came from the cache."""
    fixtures = WORK / "fixtures"
    path = fixtures / f"n{n}-seed{seed}"
    if (path / "fixture_truth.json").is_file():
        path.touch()
        return path, None
    tmp = fixtures / f".tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-m", "di_decomp.cli", "fixture", "--seed", str(seed),
         "--n", str(n), "--out", str(tmp)],
        env=_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    elapsed = perf_counter() - t0
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    cached = sorted(fixtures.glob("n*-seed*"), key=lambda p: p.stat().st_mtime)
    for old in cached[:-MAX_FIXTURES]:
        shutil.rmtree(old, ignore_errors=True)
    return path, elapsed


def _read_message(proc: subprocess.Popen, timeout: float) -> dict:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise BenchError(f"worker sent nothing for {timeout:.0f} s")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"worker exited with code {proc.wait()} before answering")
    return json.loads(line)


def _send(proc: subprocess.Popen, message: dict) -> None:
    proc.stdin.write(json.dumps(message) + "\n")
    proc.stdin.flush()


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_worker(workload: str, fixture: Path, seconds: float, trace: bool) -> dict:
    """Launch the worker SETUP_REPEATS times, timing launch to ready; the
    last launch runs the ops."""
    # Paths relative to the checkout, so the output files, and the byte
    # counts taken of them, do not depend on where the checkout lies.
    work = WORK / "out" / workload
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--fixture", str(fixture.relative_to(ROOT)), "--src", str(SRC),
           "--work", str(work.relative_to(ROOT))]
    if trace:
        cmd.append("--trace")
    setups = []
    for k in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True, env=_env(), cwd=ROOT)
        try:
            ready = _read_message(proc, WORKER_TIMEOUT_S)
            setups.append(perf_counter() - t0)
            if k < SETUP_REPEATS - 1:
                _send(proc, {"cmd": "quit"})
                proc.wait(timeout=WORKER_TIMEOUT_S)
                continue
            _send(proc, {"cmd": "run", "seconds": seconds})
            result = _read_message(proc, seconds + WORKER_TIMEOUT_S)
            proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            _stop(proc)
            shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result.update(ready=ready, setups=setups)
    return result


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; the maximum (percentile 100) when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def end_to_end(result: dict) -> tuple[dict, dict]:
    walls, cpus = result["walls"], result["cpus"]
    tail_s, tail_pct = tail(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_s,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(result["setups"]),
    }
    notes = {
        "wall_s": f"median of {len(walls)} ops",
        "wall_s_tail": f"p{tail_pct:.1f} of {len(walls)} ops",
        "cpu_s": f"median of {len(cpus)} ops",
        "peak_rss_mb": "peak RSS of the process doing the work",
        "setup_s": f"median of {len(result['setups'])} worker launches",
    }
    return metrics, notes


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(workload: str, seed: int, counts: dict) -> list[str]:
    """Counts must repeat exactly for the same code and seed; the first run
    of each records them under .perfbench_work/counts/."""
    path = WORK / "counts" / f"{workload}-seed{seed}-{source_digest()}.json"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
        return []
    recorded = json.loads(path.read_text())
    return [
        f"{k}: {recorded.get(k, 0)} recorded, {counts.get(k, 0)} now"
        for k in sorted(set(recorded) | set(counts)) if recorded.get(k, 0) != counts.get(k, 0)
    ]


def per_layer(result: dict, workload: str, seed: int) -> tuple[dict, dict, list[str]]:
    trace = result["trace"]
    layers = trace["layers"]
    self_s = layers["self_s"]
    sweeps = [Counter(c) for c in trace["sweep_counts"]]
    problems = [f"traced sweep {i} counts differ from the first"
                for i, c in enumerate(sweeps) if c != sweeps[0]]
    counts = Counter(result["setup_counts"])
    counts.update(sweeps[0])
    problems += check_counts(workload, seed, dict(counts))
    metrics = {
        "startup.import_s": self_s.get("startup", result["ready"]["import_s"]),
        "startup.modules_loaded": counts["startup.modules_loaded"],
        "ingestion.read_s": layers["ingestion.read_s"],
        "ingestion.read_us_per_row": layers["ingestion.read_us_per_row"],
        "ingestion.write_s": layers["ingestion.write_s"],
        "trace.overhead_s": trace["traced_wall_s"] - trace["untraced_wall_s"],
    }
    for name, unit, _ in PER_LAYER:
        layer, _, what = name.partition(".")
        if what == "self_s":
            metrics[name] = self_s.get(layer, 0.0)
        elif unit == "count" and name not in metrics:
            metrics[name] = counts[name]
    extra = {"cli.self_s": self_s.get("cli", 0.0), "trace.remainder_s": self_s.get("op", 0.0)}
    shares = {
        layer: self_s.get(layer, 0.0) / layers["mean_wall_s"]
        for layer in (*LAYERS, "op")
    }
    return metrics, {"extra": extra, "shares": shares, "ops": layers["ops"],
                     "mean_wall_s": layers["mean_wall_s"]}, problems


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    fixture, fixture_s = ensure_fixture(seed, WORKLOADS[workload][0])
    result = run_worker(workload, fixture, seconds, trace)
    attempted, failed = result["attempted"], result["failed"]
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "fixture_n": WORKLOADS[workload][0],
        "fixture_generation_s": fixture_s,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **result["ready"]["env"],
        "errors": result["errors"],
    }
    out = {"attempted": attempted, "failed": failed, "info": info,
           "failed_ops_ratio": failed / attempted}
    if trace:
        metrics, detail, problems = per_layer(result, workload, seed)
        out.update(metrics=metrics, trace=detail, problems=problems)
        spans_path = WORK / "traces" / f"{workload}-seed{seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(result["trace"]["spans"]))
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, notes = end_to_end(result)
        out.update(metrics=metrics, notes=notes, problems=[])
    out["correct"] = failed == 0 and not out["problems"]
    return out


def print_run(out: dict) -> None:
    info = out["info"]
    print(f"workload {info['workload']}  seed {info['seed']}  "
          f"ops {out['attempted']}  failed {out['failed']}")
    notes = out.get("notes", {})
    for name, value in out["metrics"].items():
        print(f"  {name:<26} {value:>14.6g} {UNITS[name]:<6} {notes.get(name, '')}")
    print(f"  {'failed_ops_ratio':<26} {out['failed_ops_ratio']:>14.6g} ratio  "
          f"{out['failed']} of {out['attempted']} ops")
    if "trace" in out:
        detail = out["trace"]
        for name, value in detail["extra"].items():
            print(f"  {name:<26} {value:>14.6g} {UNITS[name]:<6} (not in BENCHMARK.json)")
        print(f"  shares of a traced op ({detail['ops']} ops, "
              f"mean {detail['mean_wall_s']:.6g} s):")
        for layer, share in detail["shares"].items():
            label = "remainder" if layer == "op" else layer
            print(f"    {label:<14} {100 * share:6.2f}%")
    for line in info["errors"] + out["problems"]:
        print(f"  ! {line}")
    print("  env " + json.dumps({k: v for k, v in info.items() if k != "errors"}))


def run_all(seed: int, seconds: float) -> int:
    report = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            out = run_workload(workload, seed, seconds, trace)
            print_run(out)
            report[f"{workload}/{'trace' if trace else 'e2e'}"] = out
    print(f"\nend to end, seed {seed}, {seconds:g} s per run:")
    names = [name for name, *_ in END_TO_END] + ["failed_ops_ratio"]
    print(f"  {'workload':<16} {'ops':>6} " + " ".join(
        f"{name + ' (' + UNITS[name] + ')':>22}" for name in names))
    for workload in WORKLOADS:
        out = report[f"{workload}/e2e"]
        values = [out["metrics"][name] for name in names[:-1]] + [out["failed_ops_ratio"]]
        print(f"  {workload:<16} {out['attempted']:>6} "
              + " ".join(f"{value:>22.6g}" for value in values))
    path = WORK / f"report-seed{seed}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"report written to {path.relative_to(ROOT)}; BENCHMARK.json rewritten")
    return 0 if all(out["correct"] for out in report.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "di_decomp" / "__init__.py").is_file():
        print(f"error: no di_decomp sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            parser.error("give --workload NAME or --all")
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_run(out)
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in out["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
