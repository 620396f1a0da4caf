"""Command-line interface.

Subcommands mirror the pipeline stages:

    di-decomp run           full pipeline: ingest -> factor -> split -> decompose
    di-decomp fetch-focus   expectations fetch + horizon reshape
    di-decomp build-factors macro factor estimation
    di-decomp split-cds     CDS global/domestic split
    di-decomp decompose     final regression from stage files
    di-decomp fixture       seeded synthetic dataset + ground-truth sidecar

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import sys
from collections import deque
from pathlib import Path
from typing import Sequence

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

# Every flag that sets a config key has that key, "section.key", as its dest.


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="INI configuration file")
    p.add_argument("--out", dest="output.dir", metavar="DIR", help="output directory")
    p.add_argument("--start", dest="sample.start", metavar="YYYY-MM-DD",
                   help="sample start (inclusive)")
    p.add_argument("--end", dest="sample.end", metavar="YYYY-MM-DD",
                   help="sample end (inclusive)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="output.strict", action="store_const", const="true",
                      help="fail on any bad input row")
    mode.add_argument("--lenient", dest="output.strict", action="store_const", const="false",
                      help="skip and count bad input rows")


def _add_market(p: argparse.ArgumentParser) -> None:
    p.add_argument("--market", dest="data.market_csv", metavar="CSV", help="market data CSV")


def _add_endpoint(p: argparse.ArgumentParser) -> None:
    p.add_argument("--endpoint", dest="fetch.endpoint", metavar="URL",
                   help="expectations API endpoint")


def _add_data(p: argparse.ArgumentParser) -> None:
    _add_market(p)
    p.add_argument("--expectations", dest="data.expectations_csv", metavar="CSV",
                   help="horizon-format expectations CSV")
    p.add_argument("--focus-panel", dest="data.focus_panel_csv", metavar="CSV",
                   help="cached expectations panel CSV")
    p.add_argument("--fetch", dest="fetch.enabled", action="store_const", const="true",
                   help="fetch expectations from the API")
    _add_endpoint(p)
    p.add_argument("--columns", dest="factors.columns", metavar="LIST",
                   help="comma-separated factor columns")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="di-decomp",
        description="Decompose daily 5-year DI futures changes into bps contributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline")
    _add_common(p_run)
    _add_data(p_run)

    p_fetch = sub.add_parser("fetch-focus", help="fetch expectations and reshape")
    _add_common(p_fetch)
    _add_endpoint(p_fetch)
    p_fetch.add_argument("--fetch-start", dest="fetch.start", metavar="YYYY-MM-DD",
                         help="first survey date")
    p_fetch.add_argument("--indicators", dest="fetch.indicators", metavar="LIST",
                         help="comma-separated indicators")

    p_factors = sub.add_parser("build-factors", help="estimate the macro factor")
    _add_common(p_factors)
    _add_data(p_factors)

    p_split = sub.add_parser("split-cds", help="split CDS into global and domestic parts")
    _add_common(p_split)
    _add_market(p_split)

    p_dec = sub.add_parser("decompose", help="final regression from stage files")
    _add_common(p_dec)
    _add_market(p_dec)
    p_dec.add_argument("--factor", dest="data.factor_csv", metavar="CSV",
                       help="macro factor stage file")
    p_dec.add_argument("--components", dest="data.components_csv", metavar="CSV",
                       help="CDS components stage file")

    p_fx = sub.add_parser("fixture", help="generate a synthetic dataset")
    _add_common(p_fx)
    p_fx.add_argument("--seed", dest="fixture.seed", metavar="SEED", help="RNG seed")
    p_fx.add_argument("--n", dest="fixture.n", metavar="N", help="decomposition window size")
    p_fx.add_argument("--r2", dest="fixture.r2", metavar="R2", help="target R-squared")
    p_fx.add_argument("--betas", dest="fixture.betas", metavar="B0,BM,BD,BG",
                      help="generating coefficients")

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
        f"{label} {value:+.1f}"
        for label, value in zip(("const", "macro", "riscobr", "global", "residual"), parts)))


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
            truth = generate_fixture(
                config.seed,
                config.fixture_n,
                config.fixture_betas,
                config.fixture_r2,
                config.out_dir,
            )
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
    except DiDecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
