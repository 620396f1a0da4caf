#!/usr/bin/env python3
"""The full pipeline on a generated synthetic dataset.

Generates the seeded fixture (market CSV + expectations CSV + ground-truth
sidecar), runs every stage, and compares the recovered coefficients against
the generating ones in standard-error units.  Also shows where each output
file lands.  Equivalent CLI:

    di-decomp fixture --seed 10 --n 2741 --out work/fixture
    di-decomp run --market work/fixture/market.csv \\
        --expectations work/fixture/expectations.csv --out work/out
"""

import json
import tempfile
from pathlib import Path

from di_decomp import generate_fixture
from di_decomp.fixture import DEFAULT_FIXTURE_SEED
from di_decomp.pipeline import PipelineConfig, run_pipeline

work = Path(tempfile.mkdtemp(prefix="di_decomp_demo_"))
fixture_dir = work / "fixture"
out_dir = work / "out"

truth = generate_fixture(DEFAULT_FIXTURE_SEED, 2741, path=fixture_dir)
print("fixture written to", fixture_dir)
print("generating betas:", truth["true_betas"])

config = PipelineConfig(
    market_csv=fixture_dir / "market.csv",
    expectations_csv=fixture_dir / "expectations.csv",
    out_dir=out_dir,
)
report = run_pipeline(config)

sample = report["sample"]
print(f"\nsample {sample['start']}..{sample['end']}, "
      f"{sample['n_observations']} observations")
print(f"{'name':<14} {'estimate':>12} {'true':>12} {'gap/se':>8}")
for row in report["regression"]["coefficients"]:
    true = truth["true_betas"][row["name"]]
    se = truth["analytic_stderr"][row["name"]]
    print(f"{row['name']:<14} {row['estimate']:>12.6f} {true:>12.6f} "
          f"{(row['estimate'] - true) / se:>+8.2f}")
print("R-squared:", round(report["regression"]["r_squared"], 6),
      "target:", truth["target_r_squared"])

print("\nvariance shares:", {k: round(v, 4)
                             for k, v in report["variance_shares"]["shares"].items()})
print("std devs (bps):", {k: round(v, 4) for k, v in report["std_dev_bps"].items()})

print("\noutput files:")
for path in sorted(out_dir.iterdir()):
    print(f"  {path.name:<22} {path.stat().st_size:>8} bytes")

models = json.loads((out_dir / "models.json").read_text())
print("\nfactor columns:", len(models["pls"]["columns"]),
      "| CDS gammas:", models["cds_split"]["gamma"])
print("open", out_dir / "decomposition.svg", "to see the cumulative chart")
