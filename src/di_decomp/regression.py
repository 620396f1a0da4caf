"""Ordinary least squares with classical (homoskedastic) inference.

The solver is QR-based for conditioning, and the design is factored once:
rank is screened with an SVD of the small triangular factor R, and anything
at or below ``RANK_RTOL`` times the largest singular value is treated as
rank deficient.  Two-sided p-values come from the Student-t distribution
evaluated through the regularized incomplete beta function, not a normal
approximation, so small-sample fits report correct tails.  The incomplete
beta is computed here with the standard library's ``math`` module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, NumericalError, SingularDesignError
from .series import Frame, _frozen, _shared

RANK_RTOL = 1e-10
# Continued fraction: smallest magnitude a Lentz denominator may take, the
# step from 1 (two units in the last place) that ends the sum, and a term
# bound far above the ~75 terms any dof needs.
_CF_TINY = 1e-300
_CF_EPS = 4e-16
_CF_MAX_TERMS = 1000

__all__ = ["OlsFit", "ols_fit", "student_t_two_sided_p"]


@dataclass(frozen=True, eq=False)
class OlsFit:
    """Coefficients and inference statistics of one OLS estimation.

    ``coefficients`` is ordered intercept-first; ``column_names`` carries
    the matching labels ("const" for the intercept).
    """

    column_names: tuple[str, ...]
    coefficients: np.ndarray
    stderr: np.ndarray
    t_statistics: np.ndarray
    p_values: np.ndarray
    r_squared: float
    adj_r_squared: float
    fitted: np.ndarray
    residuals: np.ndarray
    n_observations: int
    dof_residual: int

    def __post_init__(self) -> None:
        for field in ("coefficients", "stderr", "t_statistics", "p_values",
                      "fitted", "residuals"):
            object.__setattr__(self, field, _shared(getattr(self, field), "float64"))

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.column_names.index(name)])

    def p_value(self, name: str) -> float:
        return float(self.p_values[self.column_names.index(name)])


def student_t_two_sided_p(t: float, dof: int) -> float:
    """Two-sided tail probability 2*P(T >= |t|) for T ~ Student-t(dof).

    Evaluated as the regularized incomplete beta function
    I_{dof/(dof+t^2)}(dof/2, 1/2); absolute accuracy is better than 1e-10.
    """
    if dof < 1:
        raise InsufficientDataError(f"student_t_two_sided_p: dof must be >= 1, got {dof}")
    if not np.isfinite(t):
        raise ValueError(f"student_t_two_sided_p: t must be finite, got {t}")
    t2 = float(t) * float(t)
    if t2 == 0.0:
        return 1.0
    a = dof / 2.0
    # x = dof/(dof+t^2) and y = 1 - x, each formed without a subtraction
    x = 1.0 / (1.0 + t2 / dof)
    y = 1.0 / (1.0 + dof / t2)
    # ln(x^a y^(1/2) / B(a, 1/2)), with B(a, 1/2) = sqrt(pi) Gamma(a) / Gamma(a + 1/2)
    log_front = (-a * math.log1p(t2 / dof) - 0.5 * math.log1p(dof / t2)
                 - 0.5 * math.log(math.pi) + _log_gamma_half_ratio(a))
    front = math.exp(log_front)
    # from dof 10 on, the complementary fraction needs 5-11 terms below
    # |t| = 2.5, within 3e-13, where the direct one needs up to 65
    if x < (a + 1.0) / (a + 2.5) and (dof < 10 or t2 >= 6.25):
        return front * _beta_cf(a, 0.5, x, y) / a
    # I_x(a, 1/2) = 1 - I_y(1/2, a), whose fraction converges fast here
    return 1.0 - 2.0 * front * _beta_cf(0.5, a, y, x)


def _log_gamma_half_ratio(a: float) -> float:
    """ln(Gamma(a + 1/2) / Gamma(a)) for a >= 1/2, to about 1e-15 absolute.

    A difference of two ``lgamma`` values loses about eps * a ln(a): 2e-11
    at a = 50000.  From a = 15 on, the asymptotic series in Bernoulli
    numbers B_2..B_10 is used instead; its first omitted term is below 5e-16
    there.
    """
    if a < 15.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    tail = 1 / 8 - r * (1 / 192 - r * (1 / 640 - r * (17 / 14336 - r * (31 / 18432))))
    return 0.5 * math.log(a) - tail / a


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """The continued-fraction factor of I_x(a, b), where y = 1 - x.

    I_x(a, b) = x^a y^b / (a B(a, b)) * _beta_cf(a, b, x, y) converges
    quickly for x < (a + 1) / (a + b + 2).  The fraction is
    1 / (1 + d1 / (1 + d2 / (1 + ...))) with
    d_{2m+1} = -(a+m)(a+b+m) x / ((a+2m)(a+2m+1)) and
    d_{2m} = m(b-m) x / ((a+2m-1)(a+2m)).  For large a and x near the bound,
    1 + d_{2m+1} is a difference of two numbers near 1, which costs the
    plain fraction up to eps * a (8e-12 at dof 100000).  So its even
    contraction is evaluated instead, 1 - d1 / D with
    D = W_0 + V_1 / (W_1 + V_2 / (W_2 + ...)),
    W_m = (1 + d_{2m+1}) + d_{2m+2} and V_m = -d_{2m} d_{2m+1}, where
    1 + d_{2m+1} is written in x and y with no difference for b <= 1.  D is
    summed by the modified Lentz method.
    """

    def w(m: int) -> float:
        p = a + 2 * m
        return (y + x * (a * (2 * m + 1 - b) + m * (3 * m + 2 - b)) / (p * (p + 1))
                + (m + 1) * (b - m - 1) * x / ((p + 1) * (p + 2)))

    f = w(0) or _CF_TINY
    c, d = f, 0.0
    for m in range(1, _CF_MAX_TERMS):
        p = a + 2 * m
        v = (m * (b - m) * x / ((p - 1) * p)) * ((a + m) * (a + b + m) * x / (p * (p + 1)))
        wm = w(m)
        d = wm + v * d
        c = wm + v / c
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        step = c * d
        f *= step
        if abs(step - 1.0) <= _CF_EPS:
            return 1.0 + (a + b) * x / ((a + 1.0) * f)
    raise NumericalError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _dependent_columns(names: tuple[str, ...], svals: np.ndarray,
                       vt: np.ndarray) -> list[str]:
    """Columns with significant weight in the near-null space of the design."""
    cutoff = RANK_RTOL * svals[0]
    null_rows = vt[svals <= cutoff, :]
    weight = np.max(np.abs(null_rows), axis=0)
    involved = weight > 0.1 * weight.max()
    return [names[i] for i in np.flatnonzero(involved)]


def ols_fit(y: np.ndarray, X: Frame) -> OlsFit:
    """Fit y on a constant and the columns of ``X`` by ordinary least squares.

    Parameters
    ----------
    y
        Response vector, same length as the frame's rows.
    X
        Regressor frame without a constant column; the constant, labelled
        "const", is always prepended.

    Returns
    -------
    OlsFit
        Point estimates with classical standard errors, t statistics,
        two-sided p-values, (adjusted) R-squared, fitted values and
        residuals.

    Raises
    ------
    InsufficientDataError
        If there are not strictly more rows than estimated parameters.
    SingularDesignError
        If the design matrix is rank deficient; the message names the
        involved columns.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or len(y) != X.n_rows:
        raise InsufficientDataError(
            f"ols_fit: y has length {y.shape} but design has {X.n_rows} rows"
        )
    design = np.column_stack([np.ones(X.n_rows), X.data])
    names = ("const",) + X.names
    n, p = design.shape
    if n <= p:
        raise InsufficientDataError(
            f"ols_fit: {n} observations cannot identify {p} parameters"
        )

    q, r = np.linalg.qr(design)
    # design = QR with orthonormal Q, so R has the design's singular values
    # and right singular vectors
    _, svals, vt = np.linalg.svd(r)
    if svals[-1] <= RANK_RTOL * svals[0]:
        cols = _dependent_columns(names, svals, vt)
        raise SingularDesignError(
            f"design matrix is rank deficient; dependent columns: {cols}"
        )

    beta = np.linalg.solve(r, np.einsum("ij,i", q, y))
    fitted = np.einsum("ij,j", design, beta)  # einsum, not BLAS: same bits on any thread count
    residuals = y - fitted

    dof = n - p
    rss = float(np.einsum("i,i", residuals, residuals))
    sigma2 = rss / dof
    r_inv = np.linalg.solve(r, np.eye(p))
    xtx_inv_diag = np.sum(r_inv * r_inv, axis=1)
    stderr = np.sqrt(sigma2 * xtx_inv_diag)

    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.divide(beta, stderr, out=np.zeros_like(beta), where=stderr > 0.0)
        exact = (stderr == 0.0) & (beta != 0.0)
        t_stats[exact] = np.inf * np.sign(beta[exact])
    p_vals = np.array([student_t_two_sided_p(t, dof) if np.isfinite(t) else 0.0
                       for t in t_stats])

    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = min(1.0, max(0.0, 1.0 - rss / tss)) if tss > 0.0 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * ((n - 1) / dof)

    return OlsFit(
        column_names=names,
        coefficients=_frozen(beta),
        stderr=_frozen(stderr),
        t_statistics=_frozen(t_stats),
        p_values=_frozen(p_vals),
        r_squared=r2,
        adj_r_squared=adj_r2,
        fitted=_frozen(fitted),
        residuals=_frozen(residuals),
        n_observations=n,
        dof_residual=dof,
    )
