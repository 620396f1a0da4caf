"""Split of sovereign CDS daily moves into global and domestic parts.

The CDS series (already in log returns) is regressed with intercept on four
external-conditions regressors: dollar-index, commodity-index and
equity-volatility log returns plus the simple difference of the 10-year US
yield.  Fitted values are the global component, residuals the domestic
component; by construction they add back to the CDS series exactly on the
joined dates and the domestic part is orthogonal to every regressor.

The caller supplies already-transformed series; this module does no
return/difference computation of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InsufficientDataError
from .regression import OlsFit, ols_fit
from .series import DailySeries, inner_join

REGRESSOR_ORDER = ("DXY", "CRB", "VIX", "UST10")
GLOBAL_NAME = "cds_glob"
DOMESTIC_NAME = "cds_dom"

__all__ = [
    "CdsSplitModel",
    "CdsComponents",
    "split_cds",
    "REGRESSOR_ORDER",
    "GLOBAL_NAME",
    "DOMESTIC_NAME",
]


@dataclass(frozen=True)
class CdsSplitModel:
    """The full fit, with its intercept and the four external-conditions coefficients."""

    fit: OlsFit

    @property
    def alpha(self) -> float:
        return self.fit.coefficient("const")

    @property
    def gamma(self) -> dict[str, float]:
        """Coefficients keyed in REGRESSOR_ORDER."""
        return {name: self.fit.coefficient(name) for name in REGRESSOR_ORDER}

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "gamma": dict(self.gamma),
            "stderr": dict(zip(self.fit.column_names, (float(v) for v in self.fit.stderr))),
            "t_statistics": dict(zip(self.fit.column_names, (float(v) for v in self.fit.t_statistics))),
            "p_values": dict(zip(self.fit.column_names, (float(v) for v in self.fit.p_values))),
            "r_squared": self.fit.r_squared,
            "adj_r_squared": self.fit.adj_r_squared,
            "n_observations": self.fit.n_observations,
        }


@dataclass(frozen=True)
class CdsComponents:
    """Global (fitted) and domestic (residual) components on the joined dates."""

    glob: DailySeries
    dom: DailySeries


def split_cds(
    cds: DailySeries,
    dxy: DailySeries,
    crb: DailySeries,
    vix: DailySeries,
    ust10: DailySeries,
) -> tuple[CdsSplitModel, CdsComponents]:
    """Regress CDS moves on external conditions and split fitted vs residual.

    All five inputs are aligned on the intersection of their dates; more
    than 5 joined observations are required to identify the five
    parameters.  Regressors enter in the fixed order DXY, CRB, VIX, UST10
    regardless of the input series' own names.
    """
    renamed = [
        cds.with_name("CDS"),
        dxy.with_name("DXY"),
        crb.with_name("CRB"),
        vix.with_name("VIX"),
        ust10.with_name("UST10"),
    ]
    joined = inner_join(renamed)
    if joined.n_rows <= 5:
        raise InsufficientDataError(
            f"split_cds: joined sample has {joined.n_rows} rows, needs more than 5"
        )
    X = joined.select(list(REGRESSOR_ORDER))
    y = joined.column("CDS")
    fit = ols_fit(y, X)
    model = CdsSplitModel(fit)
    components = CdsComponents(
        glob=DailySeries(GLOBAL_NAME, joined.dates, fit.fitted),
        dom=DailySeries(DOMESTIC_NAME, joined.dates, fit.residuals),
    )
    return model, components
