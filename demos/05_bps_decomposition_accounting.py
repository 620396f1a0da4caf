#!/usr/bin/env python3
"""From factors to basis points: contributions, cumulatives, variance shares.

Regresses a synthetic daily rate change on three factor series, converts
each slope times its factor into a daily bps contribution, accumulates the
paths, and verifies the accounting identities that make the decomposition
add up row by row.
"""

import datetime as dt

import numpy as np

from di_decomp import (
    DailySeries,
    accumulate,
    contributions,
    fit_decomposition,
    validate_cumulative,
    variance_shares,
)
from di_decomp.decomposition import join_decomposition_inputs

rng = np.random.default_rng(23)
n = 1500
dates = tuple(dt.date(2015, 1, 13) + dt.timedelta(days=i) for i in range(n))

macro = rng.standard_normal(n) * 1.2
dom = rng.standard_normal(n) * 0.019
glob = rng.standard_normal(n) * 0.009
d_di5y = 0.05 + 0.64 * macro + 339.0 * dom + 326.0 * glob + rng.standard_normal(n) * 13.3

series = (
    DailySeries("d_di5y", dates, d_di5y),
    DailySeries("macro", dates, macro),
    DailySeries("dom", dates, dom),
    DailySeries("glob", dates, glob),
)
model = fit_decomposition(*series)
print("betas:", [round(float(b), 4) for b in model.fit.coefficients])
print("R-squared:", round(model.fit.r_squared, 4))

joined = join_decomposition_inputs(*series)
c = contributions(model, joined)

# per-day identity: change = const + macro + riscobr + global + residual,
# the six columns of the contribution frame in order
change, *parts = (c.column(name) for name in c.names)
gap = np.max(np.abs(change - sum(parts)))
print("max per-day identity gap (bps):", gap)

print("\ndaily standard deviations (bps):")
for label, name in (
    ("change", "d_di5y_bps"), ("macro", "macro_bps"),
    ("riscobr", "riscobr_bps"), ("global", "global_bps"),
    ("residual", "residual_bps"),
):
    print(f"  {label:<9} {np.std(c.column(name), ddof=1):7.4f}")

cum = accumulate(c)
validate_cumulative(cum)  # raises if any cumulative row fails to add up
print("\nfinal cumulative change: "
      f"{cum.column('di5y_change_cum')[-1]:+.1f} bps "
      f"(residual path closes at {cum.column('residual_cum')[-1]:+.4f})")

shares = variance_shares(c)
print("\nexplained-variance shares:")
for label, share in zip(shares.labels, shares.shares):
    print(f"  {label:<9} {100 * share:6.2f}%")
print("contribution correlations (should be near zero off-diagonal):")
print(np.round(shares.correlations, 3))
