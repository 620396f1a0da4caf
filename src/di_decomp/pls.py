"""Supervised one-component factor extraction (PLS1, single component).

The weight vector is the closed-form single-component partial least squares
solution: the unit vector maximizing the sample covariance between the
projected, standardized regressors and the target.  The projected factor is
then sign-anchored so it correlates non-negatively with the target, and
finally rescaled to zero mean and unit sample standard deviation over the
estimation window.  No deflation, no further components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTargetError, InsufficientDataError
from .series import DailySeries, Frame, StandardizationParams, _frozen, _shared, standardize

FACTOR_NAME = "macro_factor"

__all__ = ["PlsModel", "pls1_fit", "anchor_sign", "macro_factor", "FACTOR_NAME"]


@dataclass(frozen=True, eq=False)
class PlsModel:
    """Frozen single-component PLS projection.

    ``weights`` has unit Euclidean norm and one entry per input column;
    ``sign`` is +1 or -1 depending on whether anchoring flipped the factor;
    ``factor_mean``/``factor_std`` are the post-anchor location and scale
    removed from the projected factor.
    """

    column_names: tuple[str, ...]
    weights: np.ndarray
    input_params: StandardizationParams
    sign: int
    factor_mean: float
    factor_std: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _shared(self.weights, "float64"))
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if not self.factor_std > 0.0:
            raise DegenerateTargetError("factor standard deviation must be > 0")

    def to_dict(self) -> dict:
        return {
            "columns": list(self.column_names),
            "weights": [float(v) for v in self.weights],
            "input_means": [float(v) for v in self.input_params.means],
            "input_stds": [float(v) for v in self.input_params.stds],
            "sign": self.sign,
            "factor_mean": self.factor_mean,
            "factor_std": self.factor_std,
        }


def anchor_sign(f: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """Flip ``f`` if it correlates negatively with ``y``.

    Returns the (possibly negated) factor and the applied sign.  An exactly
    zero correlation is left unflipped.
    """
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(f) != len(y) or len(f) < 2:
        raise InsufficientDataError(
            f"anchor_sign: need two equal-length vectors of >= 2 points, "
            f"got {len(f)} and {len(y)}"
        )
    fc, yc = f - f.mean(), y - y.mean()
    if np.einsum("i,i", fc, fc) == 0.0 or np.einsum("i,i", yc, yc) == 0.0:
        raise DegenerateTargetError("correlation undefined for a constant vector")
    # the correlation has the sign of the centred cross-product
    sign = -1 if float(np.einsum("i,i", fc, yc)) < 0.0 else 1
    return sign * f, sign


def pls1_fit(X: Frame, y: np.ndarray) -> PlsModel:
    """Fit the one-component PLS factor of ``y`` on the columns of ``X``.

    The returned model captures the column standardization of ``X``, the
    unit weight vector proportional to X_std' (y - mean(y)), the anchoring
    sign, and the final factor normalization, so it can be re-applied to
    new data with :func:`macro_factor`.
    """
    y = np.asarray(y, dtype=float)
    if X.n_rows != len(y) or X.n_rows < 3:
        raise InsufficientDataError(
            f"pls1_fit: need matching X rows and y length of >= 3, "
            f"got {X.n_rows} rows and {len(y)} targets"
        )
    if np.std(y) == 0.0:
        raise DegenerateTargetError("pls1_fit: target is constant")
    x_std, params = standardize(X)
    cov = np.einsum("ij,i", x_std.data, y - y.mean())
    norm = float(np.linalg.norm(cov))
    if norm == 0.0:
        raise DegenerateTargetError(
            "pls1_fit: target has zero sample covariance with every column"
        )
    w = cov / norm
    raw = np.einsum("ij,j", x_std.data, w)  # einsum, not BLAS: same bits on any thread count
    anchored, sign = anchor_sign(raw, y)
    std = float(anchored.std(ddof=1))
    if std == 0.0:
        raise DegenerateTargetError("pls1_fit: projected factor is constant")
    return PlsModel(
        column_names=X.names,
        weights=_frozen(w),
        input_params=params,
        sign=sign,
        factor_mean=float(anchored.mean()),
        factor_std=std,
    )


def macro_factor(model: PlsModel, X_new: Frame) -> DailySeries:
    """Apply a fitted model to new rows and return the normalized factor.

    ``X_new`` must carry exactly the model's columns in the model's order.
    On the estimation window itself the output has zero mean and unit
    sample standard deviation.
    """
    z = model.input_params.transform(X_new)  # schema-checked
    f = model.sign * np.einsum("ij,j", z.data, model.weights)
    out = (f - model.factor_mean) / model.factor_std
    return DailySeries(FACTOR_NAME, X_new.dates, out)
