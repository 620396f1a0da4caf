"""Independent oracles used to freeze expected values and cross-check results.

Everything here deliberately avoids the code paths under test: the t-tail
probability integrates the density by adaptive quadrature instead of using
the incomplete beta function, or evaluates mpmath's hypergeometric incomplete
beta at 120 digits instead of a double-precision continued fraction, OLS
inference goes through explicit normal equations instead of QR, and the
best-covariance search samples random unit vectors instead of using the
closed form.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate


def quad_t_two_sided_p(t: float, dof: int) -> float:
    """Two-sided Student-t tail via adaptive quadrature of the density."""
    log_norm = (
        math.lgamma((dof + 1) / 2.0)
        - math.lgamma(dof / 2.0)
        - 0.5 * math.log(dof * math.pi)
    )

    def density(x: float) -> float:
        return math.exp(log_norm - ((dof + 1) / 2.0) * math.log1p(x * x / dof))

    tail, _ = integrate.quad(density, abs(t), np.inf)
    return 2.0 * tail


def mp_t_two_sided_p(t: float, dof: int) -> float:
    """Two-sided Student-t tail I_x(dof/2, 1/2), x = dof/(dof+t^2), in mpmath.

    The float ``t`` is taken exactly and x is formed at 120 decimal digits.
    The tail is integrated directly from 0 to x, never as one minus the
    complementary integral, so a tail far below 1e-100 keeps its digits.
    """
    with mpmath.workdps(120):
        t2 = mpmath.mpf(t) ** 2
        x = dof / (dof + t2)
        return float(mpmath.betainc(mpmath.mpf(dof) / 2, 0.5, 0, x, regularized=True))


def normal_equations_ols(y: np.ndarray, design: np.ndarray) -> dict:
    """Textbook OLS through (X'X)^-1 X'y with classical standard errors."""
    y = np.asarray(y, dtype=float)
    design = np.asarray(design, dtype=float)
    n, p = design.shape
    xtx_inv = np.linalg.inv(design.T @ design)
    beta = xtx_inv @ design.T @ y
    fitted = design @ beta
    residuals = y - fitted
    dof = n - p
    sigma2 = float(residuals @ residuals) / dof
    stderr = np.sqrt(sigma2 * np.diag(xtx_inv))
    t_stats = beta / stderr
    p_values = np.array([quad_t_two_sided_p(t, dof) for t in t_stats])
    return {
        "beta": beta,
        "stderr": stderr,
        "t": t_stats,
        "p": p_values,
        "fitted": fitted,
        "residuals": residuals,
        "dof": dof,
    }


def best_random_unit_cov(
    x_std: np.ndarray, y: np.ndarray, n_draws: int, rng: np.random.Generator,
    chunk: int = 10_000,
) -> tuple[float, np.ndarray]:
    """Largest |sample Cov(Xw, y)| over ``n_draws`` random unit vectors w.

    The covariance of each candidate factor is evaluated directly from the
    projected series, not from any closed form.  Draws are processed in
    chunks to bound memory.
    """
    n, k = x_std.shape
    yc = y - y.mean()
    best_cov = -1.0
    best_w = np.zeros(k)
    remaining = n_draws
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        w = rng.standard_normal((m, k))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        factors = x_std @ w.T  # (n, m)
        covs = yc @ (factors - factors.mean(axis=0)) / (n - 1)
        idx = int(np.argmax(np.abs(covs)))
        if abs(covs[idx]) > best_cov:
            best_cov = float(abs(covs[idx]))
            best_w = w[idx]
    return best_cov, best_w


def sample_cov(a: np.ndarray, b: np.ndarray) -> float:
    return float((a - a.mean()) @ (b - b.mean())) / (len(a) - 1)
