"""Tests for the contribution accounting and its cumulative identities."""

import datetime as dt

import numpy as np
import pytest

from di_decomp import (
    DailySeries,
    Frame,
    VarianceShares,
    accumulate,
    contributions,
    fit_decomposition,
    significance_label,
    validate_cumulative,
    variance_shares,
)
from di_decomp.decomposition import (
    CONTRIBUTION_COLUMNS,
    join_decomposition_inputs,
)
from di_decomp.errors import (
    DegenerateColumnError,
    InsufficientDataError,
    NumericalError,
    SchemaError,
)


def days(n, start=dt.date(2015, 1, 13)):
    return tuple(start + dt.timedelta(days=i) for i in range(n))


def make_series(name, values, start=dt.date(2015, 1, 13)):
    return DailySeries(name, days(len(values), start), np.asarray(values, dtype=float))


TRUE_BETAS = (0.051434, 0.635428, 339.045202, 325.577999)


def synthetic_inputs(n=2741, seed=10, noise_std=13.3107):
    """Factor series scaled like the production magnitudes plus noise."""
    rng = np.random.default_rng(seed)
    macro = rng.standard_normal(n) * 1.2168
    dom = rng.standard_normal(n) * (6.5172 / TRUE_BETAS[2])
    glob = rng.standard_normal(n) * (2.8679 / TRUE_BETAS[3])
    eps = rng.standard_normal(n) * noise_std
    y = (
        TRUE_BETAS[0]
        + TRUE_BETAS[1] * macro
        + TRUE_BETAS[2] * dom
        + TRUE_BETAS[3] * glob
        + eps
    )
    return (
        make_series("d", y),
        make_series("m", macro),
        make_series("dom", dom),
        make_series("glob", glob),
    )


class TestFitDecomposition:
    def test_recovery_within_three_standard_errors(self):
        d, m, dom, glob = synthetic_inputs()
        model = fit_decomposition(d, m, dom, glob)
        fit = model.fit
        for est, se, true in zip(fit.coefficients, fit.stderr, TRUE_BETAS):
            assert abs(est - true) < 3.0 * se
        assert fit.r_squared == pytest.approx(0.22, abs=0.05)

    def test_noiseless_exact_recovery(self):
        d, m, dom, glob = synthetic_inputs(n=500, noise_std=0.0)
        model = fit_decomposition(d, m, dom, glob)
        np.testing.assert_allclose(
            model.fit.coefficients, TRUE_BETAS, rtol=1e-9
        )
        assert model.fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_report_shape(self):
        d, m, dom, glob = synthetic_inputs(n=400)
        report = fit_decomposition(d, m, dom, glob).to_dict()
        names = [row["name"] for row in report["coefficients"]]
        assert names == ["const", "macro_factor", "cds_dom", "cds_glob"]
        for row in report["coefficients"]:
            assert {"estimate", "stderr", "t_statistic", "p_value", "significance"} <= set(row)
        assert report["n_observations"] == 400
        assert 0.0 <= report["r_squared"] <= 1.0
        assert report["adj_r_squared"] <= report["r_squared"]

    def test_disjoint_calendars_rejected(self):
        d, m, dom, glob = synthetic_inputs(n=50)
        later = make_series("glob", glob.values, start=dt.date(2016, 1, 13))
        with pytest.raises(InsufficientDataError, match="joined sample is empty"):
            fit_decomposition(d, m, dom, later)

    def test_swapping_dom_and_glob_swaps_betas_only(self):
        d, m, dom, glob = synthetic_inputs(n=600, seed=3)
        a = fit_decomposition(d, m, dom, glob)
        b = fit_decomposition(d, m, glob.with_name("dom"), dom.with_name("glob"))
        beta_a, beta_b = a.fit.coefficient, b.fit.coefficient
        assert beta_a("cds_dom") == pytest.approx(beta_b("cds_glob"), abs=1e-12)
        assert beta_a("cds_glob") == pytest.approx(beta_b("cds_dom"), abs=1e-12)
        assert beta_a("const") == pytest.approx(beta_b("const"), abs=1e-12)
        assert beta_a("macro_factor") == pytest.approx(beta_b("macro_factor"), abs=1e-12)


class TestSignificanceLabels:
    @pytest.mark.parametrize(
        "p,label",
        [
            (0.8393, "Not significant"),
            (0.0023, "Significant"),
            (1.07e-130, "Highly Significant"),
            (5.18e-29, "Highly Significant"),
            (0.03, "Weak"),
        ],
    )
    def test_labels(self, p, label):
        assert significance_label(p) == label


class TestContributions:
    def test_zero_factor_day_leaves_residual(self):
        d = make_series("d", [5.0, 2.0, -1.0])
        zero = [0.0, 0.0, 0.0]
        model = fit_decomposition(*synthetic_inputs(n=100, seed=8))
        joined = join_decomposition_inputs(
            d, make_series("m", zero), make_series("dm", zero), make_series("g", zero)
        )
        c = contributions(model, joined)
        np.testing.assert_allclose(
            c.column("residual_bps"),
            c.column("d_di5y_bps") - model.fit.coefficient("const"),
            atol=1e-12,
        )

    def test_daily_identity_on_training_data(self):
        inputs = synthetic_inputs(n=800, seed=4)
        model = fit_decomposition(*inputs)
        c = contributions(model, join_decomposition_inputs(*inputs))
        recomposed = sum(c.column(name) for name in CONTRIBUTION_COLUMNS[1:])
        np.testing.assert_allclose(recomposed, c.column("d_di5y_bps"), atol=1e-9)

    def test_schema_error_on_missing_column(self):
        inputs = synthetic_inputs(n=100)
        model = fit_decomposition(*inputs)
        joined = join_decomposition_inputs(*inputs)
        broken = joined.select([n for n in joined.names if n != "cds_dom"])
        with pytest.raises(SchemaError):
            contributions(model, broken)


class TestAccumulate:
    def test_single_row_equals_itself(self):
        inputs = synthetic_inputs(n=100, seed=6)
        model = fit_decomposition(*inputs)
        joined = join_decomposition_inputs(*inputs)
        c = contributions(model, joined)
        one = Frame(c.dates[:1], c.names, c.data[:1])
        cum = accumulate(one)
        assert cum.column("di5y_change_cum")[0] == c.column("d_di5y_bps")[0]
        assert cum.column("residual_cum")[0] == c.column("residual_bps")[0]

    def test_cumulative_identity_and_const_linearity(self):
        inputs = synthetic_inputs(n=1200, seed=9)
        model = fit_decomposition(*inputs)
        c = contributions(model, join_decomposition_inputs(*inputs))
        cum = accumulate(c)
        validate_cumulative(cum)
        expected_const = model.fit.coefficient("const") * np.arange(1, cum.n_rows + 1)
        np.testing.assert_allclose(cum.column("const_cum"), expected_const, atol=1e-9)

    def test_final_cumulative_residual_near_zero_on_training_data(self):
        inputs = synthetic_inputs(n=1500, seed=12)
        model = fit_decomposition(*inputs)
        c = contributions(model, join_decomposition_inputs(*inputs))
        cum = accumulate(c)
        bound = 1e-6 * cum.n_rows * np.std(c.column("d_di5y_bps"))
        assert abs(cum.column("residual_cum")[-1]) < bound

    def test_peak_snapshot_row_sum(self):
        components = (9.0010, 18.6477, 189.4902, 19.6635, 212.1975)
        assert abs(449.0 - sum(components)) < 0.01

    def test_trough_snapshot_row_sum(self):
        components = (71.6478, 27.7586, -36.9119, -14.2008, -850.2938)
        assert abs(-802.0 - sum(components)) < 0.01

    def test_end_of_sample_snapshot_row_sum(self):
        components = (140.9811, 10.7171, -13.3540, -130.8443)
        assert abs(7.5 - sum(components)) < 0.01

    def test_validate_cumulative_raises_on_gap(self):
        n = 4
        # d_di5y_bps is one, every part zero: the identity is deliberately broken
        data = np.zeros((n, len(CONTRIBUTION_COLUMNS)))
        data[:, 0] = 1.0
        cum = accumulate(Frame(days(n), CONTRIBUTION_COLUMNS, data))
        with pytest.raises(NumericalError, match="cumulative identity"):
            validate_cumulative(cum)

    def test_frame_without_contribution_columns_rejected(self):
        inputs = synthetic_inputs(n=100, seed=6)
        with pytest.raises(SchemaError, match="accumulate"):
            accumulate(join_decomposition_inputs(*inputs))

    def test_empty_frame_rejected(self):
        empty = Frame((), CONTRIBUTION_COLUMNS, np.empty((0, len(CONTRIBUTION_COLUMNS))))
        with pytest.raises(InsufficientDataError):
            accumulate(empty)


def contribution_frame_from(macro, riscobr, glob):
    n = len(macro)
    macro = np.asarray(macro, dtype=float)
    riscobr = np.asarray(riscobr, dtype=float)
    glob = np.asarray(glob, dtype=float)
    total = macro + riscobr + glob
    return Frame(
        days(n),
        CONTRIBUTION_COLUMNS,
        np.column_stack([total, np.zeros(n), macro, riscobr, glob, np.zeros(n)]),
    )


class TestVarianceShares:
    def test_single_nonzero_contribution_takes_full_share(self):
        c = contribution_frame_from([1.0, -1.0, 2.0, 0.5], np.zeros(4), np.zeros(4))
        shares = variance_shares(c)
        np.testing.assert_allclose(shares.shares, [1.0, 0.0, 0.0])

    def test_orthogonal_variance_ratio(self):
        # exactly orthogonal patterns with sample variances 1, 4, 16
        base = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        alt = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        third = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
        scale = np.sqrt(8 / 7.0)  # unit sample variance for +/-1 patterns
        c = contribution_frame_from(
            base / scale * 1.0, alt / scale * 2.0, third / scale * 4.0
        )
        shares = variance_shares(c)
        np.testing.assert_allclose(shares.shares, [1 / 21.0, 4 / 21.0, 16 / 21.0], atol=1e-9)
        off_diag = shares.correlations[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off_diag, 0.0, atol=1e-12)

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(13)
        c = contribution_frame_from(
            rng.standard_normal(300), rng.standard_normal(300) * 3, rng.standard_normal(300)
        )
        shares = variance_shares(c)
        assert shares.shares.sum() == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_contributions_rejected(self):
        c = contribution_frame_from(np.zeros(10), np.zeros(10), np.zeros(10))
        with pytest.raises(DegenerateColumnError):
            variance_shares(c)

    def test_two_rows_minimum(self):
        c = contribution_frame_from([1.0], [2.0], [3.0])
        with pytest.raises(InsufficientDataError):
            variance_shares(c)

    def test_keeps_its_own_arrays(self):
        """A caller's array stays writeable, and later writes to it do not show."""
        owned, base = np.eye(3), np.arange(6.0)
        shares = VarianceShares(("macro", "riscobr", "global"), base[:3], owned)
        assert owned.flags.writeable and base.flags.writeable
        owned[:], base[:] = -1.0, -1.0
        np.testing.assert_array_equal(shares.shares, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(shares.correlations, np.eye(3))
        assert not (shares.shares.flags.writeable or shares.correlations.flags.writeable)
