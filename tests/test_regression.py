"""Tests for the OLS kernel and the Student-t tail probability."""

import datetime as dt
import math

import numpy as np
import pytest

from di_decomp import Frame, OlsFit, ols_fit, student_t_two_sided_p
from di_decomp.errors import InsufficientDataError, SingularDesignError

from oracles import mp_t_two_sided_p, normal_equations_ols, quad_t_two_sided_p


def frame(columns, n=None):
    n = n if n is not None else len(next(iter(columns.values())))
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(n))
    return Frame.from_columns(dates, columns)


# Fixed 10-point dataset: x demeaned, y nearly uncorrelated with it.
# Expected values frozen from the normal-equations + quadrature oracle.
X10 = np.array([-4.5, -3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5, 4.5])
Y10 = np.array([2.1, 1.3, 2.9, 0.7, 2.4, 1.8, 2.6, 0.9, 2.2, 1.6])
ORACLE_10 = {
    "beta": (1.85, -0.01878787878787877),
    "stderr": (0.24279309061108978, 0.08452970419163572),
    "t": (7.61965670169487, -0.2222636287154764),
    "p": (6.189994432730838e-05, 0.8296779187867377),
}


class TestOlsFit:
    def test_noiseless_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = ols_fit(1.0 + 2.0 * x, frame({"x": x}))
        np.testing.assert_allclose(fit.coefficients, [1.0, 2.0], atol=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-9)

    def test_frozen_oracle_values_on_fixed_dataset(self):
        fit = ols_fit(Y10, frame({"x": X10}))
        np.testing.assert_allclose(fit.coefficients, ORACLE_10["beta"], atol=1e-8)
        np.testing.assert_allclose(fit.stderr, ORACLE_10["stderr"], atol=1e-8)
        np.testing.assert_allclose(fit.t_statistics, ORACLE_10["t"], atol=1e-8)
        np.testing.assert_allclose(fit.p_values, ORACLE_10["p"], atol=1e-8)

    def test_matches_live_oracle_on_fixed_dataset(self):
        fit = ols_fit(Y10, frame({"x": X10}))
        oracle = normal_equations_ols(Y10, np.column_stack([np.ones(10), X10]))
        np.testing.assert_allclose(fit.coefficients, oracle["beta"], atol=1e-8)
        np.testing.assert_allclose(fit.stderr, oracle["stderr"], atol=1e-8)
        np.testing.assert_allclose(fit.t_statistics, oracle["t"], atol=1e-8)
        np.testing.assert_allclose(fit.p_values, oracle["p"], atol=1e-8)

    def test_intercept_only_constant_y(self):
        fit = ols_fit(np.full(6, 3.25), frame({}, n=6))
        assert fit.coefficients[0] == pytest.approx(3.25)
        assert fit.r_squared == 0.0
        assert fit.column_names == ("const",)

    def test_fitted_plus_residuals_reconstructs_y(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(30)
        fit = ols_fit(y, frame({"x": rng.standard_normal(30)}))
        np.testing.assert_allclose(fit.fitted + fit.residuals, y, atol=1e-12)
        assert abs(fit.residuals.sum()) < 1e-8 * 30 * y.std()

    def test_rank_deficiency_names_columns(self):
        x = np.arange(12.0)
        with pytest.raises(SingularDesignError, match="x2"):
            ols_fit(np.sin(x), frame({"x1": x, "x2": 2.0 * x, "x3": np.cos(x)}))

    @pytest.mark.parametrize("names", [["a"], ["a", "b"]])
    def test_all_zero_design_without_intercept_is_singular(self, names):
        # every singular value is 0, so the rank screen must include equality
        zeros = frame({name: np.zeros(6) for name in names})
        with pytest.raises(SingularDesignError) as exc_info:
            ols_fit(np.arange(6.0), zeros, intercept=False)
        assert str(names) in str(exc_info.value)

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            ols_fit(np.array([1.0, 2.0]), frame({"x": [0.0, 1.0]}))

    def test_length_mismatch(self):
        with pytest.raises(InsufficientDataError):
            ols_fit(np.ones(5), frame({"x": [0.0, 1.0, 2.0]}))

    def test_keeps_its_own_arrays(self):
        """A caller's array stays writeable, and later writes to it do not show."""
        fields = ("coefficients", "stderr", "t_statistics", "p_values", "fitted", "residuals")
        owned, base = np.arange(2.0), np.arange(10.0)
        arrays = dict(zip(fields, [owned] + [base[2 * i:2 * i + 2] for i in range(5)]))
        fit = OlsFit(column_names=("a", "b"), r_squared=0.5, adj_r_squared=0.4,
                     n_observations=4, dof_residual=2, **arrays)
        assert owned.flags.writeable and base.flags.writeable
        owned[:], base[:] = -1.0, -1.0
        np.testing.assert_array_equal(fit.coefficients, [0.0, 1.0])
        np.testing.assert_array_equal(fit.residuals, [8.0, 9.0])
        assert not any(getattr(fit, f).flags.writeable for f in fields)


class TestOlsProperties:
    @pytest.mark.parametrize("seed", range(4))
    def test_residual_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        cols = {f"x{i}": rng.standard_normal(60) for i in range(3)}
        f = frame(cols)
        fit = ols_fit(rng.standard_normal(60), f)
        for name in f.names:
            col = f.column(name)
            assert abs(col @ fit.residuals) / np.linalg.norm(col) < 1e-8

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        f = frame({"a": rng.standard_normal(40), "b": rng.standard_normal(40)})
        y = rng.standard_normal(40)
        base, scaled = ols_fit(y, f), ols_fit(10.0 * y, f)
        np.testing.assert_allclose(scaled.coefficients, 10.0 * base.coefficients, rtol=1e-10)
        np.testing.assert_allclose(scaled.stderr, 10.0 * base.stderr, rtol=1e-10)
        np.testing.assert_allclose(scaled.fitted, 10.0 * base.fitted, rtol=1e-10)
        np.testing.assert_allclose(scaled.t_statistics, base.t_statistics, rtol=1e-10)
        np.testing.assert_allclose(scaled.p_values, base.p_values, atol=1e-10)
        assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-10)

    def test_adding_regressor_never_decreases_r_squared(self):
        rng = np.random.default_rng(17)
        cols = {f"x{i}": rng.standard_normal(50) for i in range(4)}
        y = rng.standard_normal(50)
        r2 = [
            ols_fit(y, frame({k: cols[k] for k in list(cols)[: i + 1]})).r_squared
            for i in range(4)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(r2, r2[1:]))

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_coefficient_recovery(self, seed):
        rng = np.random.default_rng(200 + seed)
        f = frame({f"x{i}": rng.standard_normal(45) for i in range(3)})
        beta = rng.uniform(-5, 5, size=4)
        y = beta[0] + f.data @ beta[1:]
        fit = ols_fit(y, f)
        np.testing.assert_allclose(fit.coefficients, beta, rtol=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_adj_r_squared_below_r_squared(self):
        rng = np.random.default_rng(23)
        f = frame({"a": rng.standard_normal(25), "b": rng.standard_normal(25)})
        fit = ols_fit(rng.standard_normal(25), f)
        assert fit.adj_r_squared <= fit.r_squared
        assert 0.0 <= fit.r_squared <= 1.0

    def test_no_intercept_fit(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        fit = ols_fit(2.0 * x, frame({"x": x}), intercept=False)
        assert fit.column_names == ("x",)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(31)
        noisy = ols_fit(rng.standard_normal(30), frame({"x": rng.standard_normal(30)}),
                        intercept=False)
        assert 0.0 <= noisy.r_squared <= 1.0
        assert noisy.adj_r_squared <= noisy.r_squared


class TestStudentT:
    def test_zero_statistic(self):
        for dof in (1, 5, 100):
            assert student_t_two_sided_p(0.0, dof) == pytest.approx(1.0)

    def test_cauchy_quartile(self):
        assert student_t_two_sided_p(1.0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_frozen_quadrature_value(self):
        # quadrature of the t density, frozen: 2 * P(T >= 2), 10 dof
        assert student_t_two_sided_p(2.0, 10) == pytest.approx(
            0.07338803477074, abs=1e-8
        )

    @pytest.mark.parametrize("t,dof", [(0.7, 3), (2.5, 12), (4.0, 30), (1.3, 1)])
    def test_matches_quadrature_oracle(self, t, dof):
        assert student_t_two_sided_p(t, dof) == pytest.approx(
            quad_t_two_sided_p(t, dof), abs=1e-10
        )

    def test_zero_dof_rejected(self):
        with pytest.raises(InsufficientDataError):
            student_t_two_sided_p(1.0, 0)

    def test_non_finite_t_rejected(self):
        with pytest.raises(ValueError):
            student_t_two_sided_p(float("nan"), 5)

    def test_monotone_in_abs_t(self):
        grid = [student_t_two_sided_p(t, 8) for t in np.linspace(0.0, 6.0, 25)]
        assert all(b < a for a, b in zip(grid, grid[1:]))
        assert all(0.0 <= p <= 1.0 for p in grid)


# High-precision grid: dof 29-31 straddle the switch from lgamma differences
# to the asymptotic series (a = 15); |t| 1.7-2 sits at the switch between
# the direct and the complementary fraction for large dof; (1.5e-4, 58943) is
# a near-1 tail that scipy 1.17.1 betainc misses by 4.7e-9 relative.
HP_DOFS = (1, 2, 3, 5, 10, 29, 30, 31, 100, 1000, 2737, 10000, 58943, 100000)
HP_ABS_T = (1e-6, 1.5e-4, 0.01, 0.5, 1.0, 1.7, 1.75, 1.8, 2.0, 3.0, 5.0, 10.0, 27.01, 80.0)
# (t, dof) whose two-sided tail lies between 1e-300 and 1e-100
DEEP_TAILS = ((27.01, 2737), (80.0, 140), (61.06, 491), (25.0, 10000), (30.0, 100000))


class TestStudentTHighPrecision:
    @pytest.mark.parametrize("dof", HP_DOFS)
    def test_matches_mpmath(self, dof):
        for abs_t in HP_ABS_T:
            if dof / 2 * math.log1p(abs_t**2 / dof) > 800:
                # the tail is far below the smallest double, so both sides
                # are 0, and the oracle needs seconds to say so
                assert student_t_two_sided_p(abs_t, dof) == 0.0
                continue
            expected = mp_t_two_sided_p(abs_t, dof)
            for t in (abs_t, -abs_t):
                assert student_t_two_sided_p(t, dof) == pytest.approx(
                    expected, rel=1e-11, abs=1e-15
                ), (t, dof)

    @pytest.mark.parametrize("t,dof", DEEP_TAILS)
    def test_deep_tail_keeps_relative_accuracy(self, t, dof):
        expected = mp_t_two_sided_p(t, dof)
        assert 1e-300 < expected < 1e-100
        assert student_t_two_sided_p(t, dof) == pytest.approx(expected, rel=1e-11, abs=0.0)
