"""Command-line interface.

Subcommands mirror the pipeline stages:

    di-decomp run           full pipeline: ingest -> factor -> split -> decompose
    di-decomp fetch-focus   expectations fetch + horizon reshape
    di-decomp build-factors macro factor estimation
    di-decomp split-cds     CDS global/domestic split
    di-decomp decompose     final regression from stage files
    di-decomp fixture       seeded synthetic dataset + ground-truth sidecar

Each takes ``--config``, ``--out`` and only the flags it reads (``_COMMANDS``).
Only ``fetch-focus`` fetches; a run reads either file it wrote through
``--expectations``.  ``decompose`` reads its stage files from ``--out``.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import sys
from collections import deque
from pathlib import Path
from typing import Sequence

from .decomposition import CUMULATIVE_COLUMNS
from .errors import DiDecompError, exit_code_for
from .fixture import generate_fixture
from .pipeline import (
    CUMULATIVE_FILE,
    load_config,
    run_build_factors,
    run_decompose,
    run_fetch_focus,
    run_pipeline,
    run_split_cds,
)

# Each flag once: its dest, metavar and help.  Every flag that sets a config
# key has that key, "section.key", as its dest.
_FLAGS = {
    "--market": ("data.market_csv", "CSV", "market data CSV"),
    "--expectations": ("data.expectations_csv", "CSV", "horizon or focus panel CSV"),
    "--endpoint": ("fetch.endpoint", "URL", "expectations API endpoint"),
    "--fetch-start": ("fetch.start", "YYYY-MM-DD", "first survey date"),
    "--start": ("sample.start", "YYYY-MM-DD", "sample start (inclusive)"),
    "--end": ("sample.end", "YYYY-MM-DD", "sample end (inclusive)"),
    "--seed": ("fixture.seed", "SEED", "RNG seed"),
    "--n": ("fixture.n", "N", "decomposition window size"),
    "--r2": ("fixture.r2", "R2", "target R-squared"),
    "--betas": ("fixture.betas", "B0,BM,BD,BG", "generating coefficients"),
}

# Each command: its help and the flags it reads besides --config and --out.
_COMMANDS = {
    "run": ("full pipeline", "--market --expectations --start --end"),
    "fetch-focus": ("fetch expectations and reshape", "--endpoint --fetch-start --end"),
    "build-factors": ("estimate the macro factor", "--market --expectations --end"),
    "split-cds": ("split CDS into global and domestic parts", "--market --end"),
    "decompose": ("final regression from stage files", "--market --start --end"),
    "fixture": ("generate a synthetic dataset", "--seed --n --r2 --betas"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="di-decomp",
        description="Decompose daily 5-year DI futures changes into bps contributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", metavar="PATH", help="INI configuration file")
        p.add_argument("--out", dest="output.dir", metavar="DIR", help="output directory")
        for flag in flags.split():
            dest, metavar, flag_help = _FLAGS[flag]
            p.add_argument(flag, dest=dest, metavar=metavar, help=flag_help)
    return parser


def _print_report(report: dict, out_dir) -> None:
    sample, regression = report["sample"], report["regression"]
    print(f"sample {sample['start']}..{sample['end']}, {sample['n_observations']} observations")
    print("coefficients:")
    for row in regression["coefficients"]:
        print(
            f"  {row['name']:<14} {row['estimate']:>12.6f}   "
            f"(p = {row['p_value']:.4g}, {row['significance']})"
        )
    print(
        f"R-squared {regression['r_squared']:.6f} "
        f"(adjusted {regression['adj_r_squared']:.6f})"
    )
    shares = report["variance_shares"]["shares"]
    print(
        "explained-variance shares: "
        + ", ".join(f"{k} {100 * v:.2f}%" for k, v in shares.items())
    )
    # the written file's last record, whose cells follow CUMULATIVE_COLUMNS,
    # rounded to 4 decimals there and to 1 here, sign always shown
    with (Path(out_dir) / CUMULATIVE_FILE).open(encoding="utf-8") as fh:
        total, *parts = map(float, deque(fh, maxlen=1)[0].split(",")[1:])
    print(f"final cumulative change {total:+.1f} bps = " + " + ".join(
        f"{name.removesuffix('_cum')} {value:+.1f}"
        for name, value in zip(CUMULATIVE_COLUMNS[1:], parts)))


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        tuple(dest.split(".")): value
        for dest, value in vars(args).items()
        if "." in dest and value is not None
    }
    try:
        config = load_config(args.config, overrides=overrides)
        if args.command == "fixture":
            truth = generate_fixture(config.seed, config.fixture_n, config.fixture_betas,
                                     config.fixture_r2, config.out_dir)
            print(
                f"fixture written to {config.out_dir} "
                f"(seed {truth['seed']}, n {truth['n']})"
            )
            return 0
        if args.command in ("run", "decompose"):
            run = run_pipeline if args.command == "run" else run_decompose
            _print_report(run(config), config.out_dir)
        elif args.command == "fetch-focus":
            load_report = run_fetch_focus(config)
            print(
                f"fetched {load_report.fetched} records "
                f"({load_report.deduplicated} deduplicated, "
                f"{load_report.dropped_dates} incomplete dates dropped)"
            )
        elif args.command == "build-factors":
            model = run_build_factors(config)
            print(f"macro factor fitted on {len(model.column_names)} columns")
        else:
            model = run_split_cds(config)
            gammas = ", ".join(f"{k} {v:.4f}" for k, v in model.gamma.items())
            print(f"CDS split fitted: alpha {model.alpha:.6f}, {gammas}")
        print(f"outputs written to {config.out_dir}")
    except (DiDecompError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
