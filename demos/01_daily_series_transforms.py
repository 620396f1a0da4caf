#!/usr/bin/env python3
"""Daily series, calendar joins, and the standard transforms.

Walks through the series toolkit: building date-indexed series, taking log
returns and simple differences over an irregular business calendar,
converting percent quotes to basis-point changes, aligning series on common
dates, and standardizing a frame.
"""

import datetime as dt

import numpy as np

from di_decomp import (
    DailySeries,
    diff,
    inner_join,
    log_return,
    standardize,
    to_bps_change,
)

# A five-day rate series quoted in percent.  Note the gap over the weekend:
# differences always span consecutive *available* observations.
dates = (
    dt.date(2024, 3, 1),   # Friday
    dt.date(2024, 3, 4),   # Monday
    dt.date(2024, 3, 5),
    dt.date(2024, 3, 6),
    dt.date(2024, 3, 7),
)
rate = DailySeries("DI5Y", dates, np.array([11.80, 11.95, 11.90, 12.10, 12.02]))

print("rate levels (%):", rate.values)
print("daily change (bps):", to_bps_change(rate).values)
# 11.80 -> 11.95 is +15 bps; the change is dated at the later observation
print("change dates:", [d.isoformat() for d in to_bps_change(rate).dates.tolist()])

# Price-like series use log returns instead of differences.
cds = DailySeries("CDS", dates, np.array([155.0, 158.0, 157.0, 163.0, 161.0]))
print("\nCDS log returns:", np.round(log_return(cds).values, 5))

# A series on a different calendar: the join keeps only shared dates.
ust10 = DailySeries(
    "UST10",
    (dt.date(2024, 3, 4), dt.date(2024, 3, 5), dt.date(2024, 3, 6), dt.date(2024, 3, 8)),
    np.array([4.22, 4.18, 4.10, 4.09]),
)
joined = inner_join([diff(cds), diff(ust10)])
print("\njoined rows:", joined.n_rows, "on", [d.isoformat() for d in joined.dates.tolist()])

# Standardization returns the parameters needed to reproduce or undo it.
z, params = standardize(joined)
print("\nstandardized column means:", z.data.mean(axis=0))
print("standardized column stds: ", z.data.std(axis=0, ddof=1))
print("stored means:", params.means, " stds:", params.stds)
back = params.inverse(z)
print("round-trip max error:", np.max(np.abs(back.data - joined.data)))
