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

import numpy as np

from .errors import DegenerateColumnError, InsufficientDataError, NumericalError, SchemaError
from .pls import FACTOR_NAME
from .cds import DOMESTIC_NAME, GLOBAL_NAME
from .regression import OlsFit, ols_fit
from .series import DailySeries, Frame, _Container, _frozen, _shared, inner_join

TARGET_NAME = "d_di5y_bps"
FACTOR_ORDER = (FACTOR_NAME, DOMESTIC_NAME, GLOBAL_NAME)
CONTRIBUTION_LABELS = ("macro", "riscobr", "global")
# Every row of a contribution frame, and of its running sums, satisfies
# first column = sum of the other five.
CONTRIBUTION_COLUMNS = (
    TARGET_NAME, "const_bps", "macro_bps", "riscobr_bps", "global_bps", "residual_bps",
)
CUMULATIVE_COLUMNS = (
    "di5y_change_cum", "const_cum", "macro_cum", "riscobr_cum", "global_cum", "residual_cum",
)
EXPLAINED_COLUMNS = CONTRIBUTION_COLUMNS[2:5]  # in CONTRIBUTION_LABELS order

DEFAULT_SIGNIFICANCE_CUTS = (0.001, 0.01, 0.05)
CUMULATIVE_TOL = 1e-6  # bps a cumulative row may miss its identity by

__all__ = [
    "DecompositionModel",
    "VarianceShares",
    "fit_decomposition",
    "contributions",
    "accumulate",
    "variance_shares",
    "significance_label",
    "validate_cumulative",
    "TARGET_NAME",
    "FACTOR_ORDER",
    "CONTRIBUTION_LABELS",
    "CONTRIBUTION_COLUMNS",
    "CUMULATIVE_COLUMNS",
    "DEFAULT_SIGNIFICANCE_CUTS",
]


def significance_label(p_value: float) -> str:
    """Label a p-value: highly significant / significant / weak / not significant."""
    high, sig, weak = DEFAULT_SIGNIFICANCE_CUTS
    if p_value < high:
        return "Highly Significant"
    if p_value < sig:
        return "Significant"
    if p_value < weak:
        return "Weak"
    return "Not significant"


@dataclass(frozen=True)
class DecompositionModel:
    """The final regression: intercept (bps/day) and the three bps-per-factor-unit slopes."""

    fit: OlsFit

    def to_dict(self) -> dict:
        """The coefficient table (estimate, stderr, t, p, significance) and fit sizes."""
        fit = self.fit
        return {
            "coefficients": [
                {"name": name, "estimate": float(beta), "stderr": float(se),
                 "t_statistic": float(t), "p_value": float(p),
                 "significance": significance_label(float(p))}
                for name, beta, se, t, p in zip(fit.column_names, fit.coefficients,
                                                fit.stderr, fit.t_statistics, fit.p_values)
            ],
            "r_squared": self.fit.r_squared,
            "adj_r_squared": self.fit.adj_r_squared,
            "n_observations": self.fit.n_observations,
        }


@dataclass(frozen=True, eq=False)
class VarianceShares(_Container):
    """Explained-variance split of the three contributions, with correlations."""

    labels: tuple[str, ...]
    shares: np.ndarray
    correlations: np.ndarray

    def __post_init__(self) -> None:
        for field in ("shares", "correlations"):
            object.__setattr__(self, field, _shared(getattr(self, field), "float64"))

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
    y, X = joined.column(TARGET_NAME), joined.select(FACTOR_ORDER)
    if joined.n_rows == 0:
        raise InsufficientDataError("fit_decomposition: joined sample is empty")
    return DecompositionModel(ols_fit(y, X))


def contributions(model: DecompositionModel, joined: Frame) -> Frame:
    """Per-day bps contributions of each block, residual closing the identity.

    ``joined`` must contain the target column and the three factor columns
    (canonical names, as produced by :func:`join_decomposition_inputs`).
    The result has the columns :data:`CONTRIBUTION_COLUMNS`.
    """
    fit = model.fit
    d = joined.column(TARGET_NAME)
    macro = fit.coefficient(FACTOR_NAME) * joined.column(FACTOR_NAME)
    riscobr = fit.coefficient(DOMESTIC_NAME) * joined.column(DOMESTIC_NAME)
    glob = fit.coefficient(GLOBAL_NAME) * joined.column(GLOBAL_NAME)
    const = np.full(joined.n_rows, fit.coefficient("const"))
    residual = d - (const + macro + riscobr + glob)
    return Frame(
        joined.dates,
        CONTRIBUTION_COLUMNS,
        np.column_stack([d, const, macro, riscobr, glob, residual]),
    )


def accumulate(c: Frame) -> Frame:
    """Running sums of every contribution column, starting at the first row.

    The result has the columns :data:`CUMULATIVE_COLUMNS`, in the same order.
    """
    if c.names != CONTRIBUTION_COLUMNS:
        raise SchemaError(
            f"accumulate: expected columns {list(CONTRIBUTION_COLUMNS)}, got {list(c.names)}"
        )
    if c.n_rows == 0:
        raise InsufficientDataError("accumulate: empty contribution frame")
    return Frame(c.dates, CUMULATIVE_COLUMNS, np.cumsum(c.data, axis=0))


def variance_shares(c: Frame) -> VarianceShares:
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
    cov = np.cov(c.select(EXPLAINED_COLUMNS).data, rowvar=False)
    variances = np.diag(cov)
    total = float(variances.sum())
    if total == 0.0:
        raise DegenerateColumnError("variance_shares: all contributions are zero")
    scale = np.outer(np.sqrt(variances), np.sqrt(variances))
    corr = np.divide(cov, scale, out=np.zeros_like(cov), where=scale > 0.0)
    np.fill_diagonal(corr, 1.0)
    return VarianceShares(
        labels=CONTRIBUTION_LABELS, shares=_frozen(variances / total), correlations=_frozen(corr)
    )


def validate_cumulative(cum: Frame) -> None:
    """Check the additive identity on every cumulative row.

    Raises ``NumericalError`` with the worst offending row if any gap
    exceeds ``CUMULATIVE_TOL`` (in bps).
    """
    parts = cum.select(CUMULATIVE_COLUMNS[1:]).data.sum(axis=1)
    gaps = np.abs(cum.column(CUMULATIVE_COLUMNS[0]) - parts)
    worst = int(np.argmax(gaps))
    if gaps[worst] > CUMULATIVE_TOL:
        raise NumericalError(
            f"cumulative identity violated by {gaps[worst]:.3e} bps "
            f"at {cum.dates[worst]} (tolerance {CUMULATIVE_TOL:.1e})"
        )
