"""Conversion of the three factors into daily bps contributions.

The daily change of the 5-year rate (in basis points) is regressed with
intercept on the macro factor and the two CDS components.  Each slope times
its factor is that block's daily contribution; the residual closes the
per-day identity exactly:

    d_di5y = const + macro + riscobr + global + residual

Running sums of every column give the cumulative decomposition, whose rows
satisfy the same identity.  Variance shares of the explained part use the
plain variance ratio of the three contributions, which is a good
approximation when the contributions are nearly uncorrelated; the pairwise
correlation matrix is always reported next to the shares so that
approximation can be judged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateColumnError, InsufficientDataError, NumericalError, SchemaError
from .pls import FACTOR_NAME
from .cds import DOMESTIC_NAME, GLOBAL_NAME
from .regression import OlsFit, ols_fit
from .series import DailySeries, Frame, date_index, inner_join

TARGET_NAME = "d_di5y_bps"
FACTOR_ORDER = (FACTOR_NAME, DOMESTIC_NAME, GLOBAL_NAME)
CONTRIBUTION_LABELS = ("macro", "riscobr", "global")

DEFAULT_SIGNIFICANCE_CUTS = (0.001, 0.01, 0.05)

__all__ = [
    "DecompositionModel",
    "ContributionFrame",
    "CumulativeFrame",
    "VarianceShares",
    "fit_decomposition",
    "contributions",
    "accumulate",
    "variance_shares",
    "significance_label",
    "row_sum_gap",
    "validate_cumulative",
    "TARGET_NAME",
    "FACTOR_ORDER",
    "CONTRIBUTION_LABELS",
    "DEFAULT_SIGNIFICANCE_CUTS",
]


def significance_label(
    p_value: float, cuts: Sequence[float] = DEFAULT_SIGNIFICANCE_CUTS
) -> str:
    """Label a p-value: highly significant / significant / weak / not significant."""
    high, sig, weak = cuts
    if p_value < high:
        return "Highly Significant"
    if p_value < sig:
        return "Significant"
    if p_value < weak:
        return "Weak"
    return "Not significant"


@dataclass(frozen=True)
class DecompositionModel:
    """Intercept (bps/day) and the three bps-per-factor-unit slopes."""

    beta0: float
    beta_macro: float
    beta_dom: float
    beta_glob: float
    fit: OlsFit

    def report_rows(
        self, cuts: Sequence[float] = DEFAULT_SIGNIFICANCE_CUTS
    ) -> list[dict]:
        """Coefficient table: estimate, stderr, t, p, significance per row."""
        rows = []
        for name in self.fit.column_names:
            i = self.fit.column_names.index(name)
            p = float(self.fit.p_values[i])
            rows.append(
                {
                    "name": name,
                    "estimate": float(self.fit.coefficients[i]),
                    "stderr": float(self.fit.stderr[i]),
                    "t_statistic": float(self.fit.t_statistics[i]),
                    "p_value": p,
                    "significance": significance_label(p, cuts),
                }
            )
        return rows

    def to_dict(self, cuts: Sequence[float] = DEFAULT_SIGNIFICANCE_CUTS) -> dict:
        return {
            "coefficients": self.report_rows(cuts),
            "r_squared": self.fit.r_squared,
            "adj_r_squared": self.fit.adj_r_squared,
            "n_observations": self.fit.n_observations,
        }


@dataclass(frozen=True, eq=False)
class ContributionFrame:
    """Per-day bps attribution; every row satisfies the additive identity."""

    dates: np.ndarray  # datetime64[D], read-only
    d_di5y: np.ndarray
    const: np.ndarray
    macro_contrib: np.ndarray
    riscobr_contrib: np.ndarray
    global_contrib: np.ndarray
    residual: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", date_index(self.dates))
        for field in ("d_di5y", "const", "macro_contrib", "riscobr_contrib",
                      "global_contrib", "residual"):
            arr = np.asarray(getattr(self, field), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, field, arr)

    @property
    def n_rows(self) -> int:
        return len(self.dates)


@dataclass(frozen=True, eq=False)
class CumulativeFrame:
    """Running sums of the contribution columns."""

    dates: np.ndarray  # datetime64[D], read-only
    di5y_change_cum: np.ndarray
    const_cum: np.ndarray
    macro_cum: np.ndarray
    riscobr_cum: np.ndarray
    global_cum: np.ndarray
    residual_cum: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", date_index(self.dates))
        for field in ("di5y_change_cum", "const_cum", "macro_cum",
                      "riscobr_cum", "global_cum", "residual_cum"):
            arr = np.asarray(getattr(self, field), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, field, arr)

    @property
    def n_rows(self) -> int:
        return len(self.dates)


@dataclass(frozen=True, eq=False)
class VarianceShares:
    """Explained-variance split of the three contributions, with correlations."""

    labels: tuple[str, ...]
    shares: np.ndarray
    correlations: np.ndarray

    def __post_init__(self) -> None:
        for field in ("shares", "correlations"):
            arr = np.asarray(getattr(self, field), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, field, arr)

    def to_dict(self) -> dict:
        return {
            "shares": dict(zip(self.labels, (float(v) for v in self.shares))),
            "correlation_labels": list(self.labels),
            "correlation_matrix": [[float(v) for v in row] for row in self.correlations],
        }


def fit_decomposition(
    d_di5y: DailySeries,
    macro: DailySeries,
    cds_dom: DailySeries,
    cds_glob: DailySeries,
) -> DecompositionModel:
    """OLS of the daily bps change on the three factor series.

    Inputs are aligned on the intersection of their dates; the regression
    always includes an intercept.
    """
    joined = join_decomposition_inputs(d_di5y, macro, cds_dom, cds_glob)
    return fit_decomposition_frame(joined)


def join_decomposition_inputs(
    d_di5y: DailySeries,
    macro: DailySeries,
    cds_dom: DailySeries,
    cds_glob: DailySeries,
) -> Frame:
    """Inner join of the four inputs under the canonical column names."""
    return inner_join(
        [
            d_di5y.with_name(TARGET_NAME),
            macro.with_name(FACTOR_NAME),
            cds_dom.with_name(DOMESTIC_NAME),
            cds_glob.with_name(GLOBAL_NAME),
        ]
    )


def fit_decomposition_frame(joined: Frame) -> DecompositionModel:
    for name in (TARGET_NAME,) + FACTOR_ORDER:
        if name not in joined.names:
            raise SchemaError(f"joined frame lacks column '{name}'")
    if joined.n_rows == 0:
        raise InsufficientDataError("fit_decomposition: joined sample is empty")
    fit = ols_fit(joined.column(TARGET_NAME), joined.select(list(FACTOR_ORDER)))
    return DecompositionModel(
        beta0=float(fit.coefficients[0]),
        beta_macro=float(fit.coefficient(FACTOR_NAME)),
        beta_dom=float(fit.coefficient(DOMESTIC_NAME)),
        beta_glob=float(fit.coefficient(GLOBAL_NAME)),
        fit=fit,
    )


def contributions(model: DecompositionModel, joined: Frame) -> ContributionFrame:
    """Per-day bps contributions of each block, residual closing the identity.

    ``joined`` must contain the target column and the three factor columns
    (canonical names, as produced by :func:`join_decomposition_inputs`).
    """
    for name in (TARGET_NAME,) + FACTOR_ORDER:
        if name not in joined.names:
            raise SchemaError(f"contributions: joined frame lacks column '{name}'")
    d = joined.column(TARGET_NAME)
    macro = model.beta_macro * joined.column(FACTOR_NAME)
    riscobr = model.beta_dom * joined.column(DOMESTIC_NAME)
    glob = model.beta_glob * joined.column(GLOBAL_NAME)
    const = np.full(joined.n_rows, model.beta0)
    residual = d - (const + macro + riscobr + glob)
    return ContributionFrame(
        dates=joined.dates,
        d_di5y=d,
        const=const,
        macro_contrib=macro,
        riscobr_contrib=riscobr,
        global_contrib=glob,
        residual=residual,
    )


def accumulate(c: ContributionFrame) -> CumulativeFrame:
    """Running sums of every contribution column, starting at the first row."""
    if c.n_rows == 0:
        raise InsufficientDataError("accumulate: empty contribution frame")
    return CumulativeFrame(
        dates=c.dates,
        di5y_change_cum=np.cumsum(c.d_di5y),
        const_cum=np.cumsum(c.const),
        macro_cum=np.cumsum(c.macro_contrib),
        riscobr_cum=np.cumsum(c.riscobr_contrib),
        global_cum=np.cumsum(c.global_contrib),
        residual_cum=np.cumsum(c.residual),
    )


def variance_shares(c: ContributionFrame) -> VarianceShares:
    """Share of each block in the variance of the explained (non-constant) part.

    share_i = Var(contribution_i) / sum_j Var(contribution_j) over the three
    factor contributions; the constant and the residual are excluded.  The
    pairwise correlation matrix of the contributions is reported alongside
    (entries involving a zero-variance contribution are set to 0).
    """
    if c.n_rows < 2:
        raise InsufficientDataError(
            f"variance_shares: need >= 2 rows, got {c.n_rows}"
        )
    cols = [c.macro_contrib, c.riscobr_contrib, c.global_contrib]
    variances = np.array([col.var(ddof=1) for col in cols])
    total = float(variances.sum())
    if total == 0.0:
        raise DegenerateColumnError("variance_shares: all contributions are zero")
    shares = variances / total
    corr = np.eye(3)
    for i in range(3):
        for j in range(i + 1, 3):
            si = float(np.sqrt(variances[i]))
            sj = float(np.sqrt(variances[j]))
            if si == 0.0 or sj == 0.0:
                val = 0.0
            else:
                a = cols[i] - cols[i].mean()
                b = cols[j] - cols[j].mean()
                val = float(a @ b) / ((c.n_rows - 1) * si * sj)
            corr[i, j] = corr[j, i] = val
    return VarianceShares(labels=CONTRIBUTION_LABELS, shares=shares, correlations=corr)


def row_sum_gap(total: float, components: Sequence[float]) -> float:
    """Absolute gap between a cumulative total and the sum of its components."""
    return abs(float(total) - float(np.sum(np.asarray(components, dtype=float))))


def validate_cumulative(cum: CumulativeFrame, tol: float = 1e-6) -> None:
    """Check the additive identity on every cumulative row.

    Raises ``NumericalError`` with the worst offending row if any gap
    exceeds ``tol`` (in bps).
    """
    parts = (
        cum.const_cum + cum.macro_cum + cum.riscobr_cum
        + cum.global_cum + cum.residual_cum
    )
    gaps = np.abs(cum.di5y_change_cum - parts)
    worst = int(np.argmax(gaps))
    if gaps[worst] > tol:
        raise NumericalError(
            f"cumulative identity violated by {gaps[worst]:.3e} bps "
            f"at {cum.dates[worst]} (tolerance {tol:.1e})"
        )
