"""Tests for the supervised single-component factor extraction."""

import datetime as dt

import numpy as np
import pytest

from di_decomp import (
    Frame,
    PlsModel,
    StandardizationParams,
    anchor_sign,
    macro_factor,
    pls1_fit,
    standardize,
)
from di_decomp.errors import (
    DegenerateColumnError,
    DegenerateTargetError,
    InsufficientDataError,
    SchemaError,
)

from oracles import best_random_unit_cov, sample_cov


def frame(columns):
    n = len(next(iter(columns.values())))
    dates = tuple(dt.date(2018, 1, 1) + dt.timedelta(days=i) for i in range(n))
    return Frame.from_columns(dates, columns)


def orthonormal_standardized_frame(n, k, seed):
    """Columns with zero mean, unit sample std, exactly uncorrelated."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, k))
    raw -= raw.mean(axis=0)
    # QR of demeaned columns: orthogonal and mean-zero; rescale to unit std
    q, _ = np.linalg.qr(raw)
    cols = q - q.mean(axis=0)
    cols /= cols.std(axis=0, ddof=1)
    return frame({f"x{i}": cols[:, i] for i in range(k)})


class TestPls1Fit:
    def test_single_column_factor_is_standardized_column(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, 120)
        y = 0.5 * x + rng.standard_normal(120)
        f = frame({"x": x})
        model = pls1_fit(f, y)
        np.testing.assert_allclose(np.abs(model.weights), [1.0], atol=1e-12)
        factor = macro_factor(model, f)
        z, _ = standardize(f)
        np.testing.assert_allclose(
            np.abs(factor.values), np.abs(z.column("x")), atol=1e-10
        )

    def test_only_relevant_column_gets_weight(self):
        rng = np.random.default_rng(12)
        n = 1000
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        y = x1 + 0.1 * rng.standard_normal(n)
        model = pls1_fit(frame({"x1": x1, "x2": x2}), y)
        assert abs(abs(model.weights[0]) - 1.0) < 0.05
        assert abs(model.weights[1]) < 0.05

    def test_noiseless_weights_on_orthonormal_columns(self):
        f = orthonormal_standardized_frame(200, 2, seed=4)
        y = f.data @ np.array([0.6, 0.8])
        model = pls1_fit(f, y)
        np.testing.assert_allclose(model.weights, [0.6, 0.8], atol=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_closed_form_equals_normalized_cross_covariance(self, seed):
        rng = np.random.default_rng(300 + seed)
        f = frame({f"x{i}": rng.standard_normal(80) for i in range(5)})
        y = rng.standard_normal(80)
        model = pls1_fit(f, y)
        z, _ = standardize(f)
        expected = z.data.T @ (y - y.mean())
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(model.weights, expected, atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_beats_random_unit_vectors(self, seed):
        rng = np.random.default_rng(400 + seed)
        f = frame({f"x{i}": rng.standard_normal(150) for i in range(4)})
        y = f.column("x0") + 0.5 * rng.standard_normal(150)
        model = pls1_fit(f, y)
        z, _ = standardize(f)
        achieved = abs(sample_cov(z.data @ model.weights, y))
        best_random, _ = best_random_unit_cov(z.data, y, 100_000, rng)
        assert achieved >= best_random - 1e-12

    def test_constant_target_rejected(self):
        f = frame({"x": np.arange(10.0)})
        with pytest.raises(DegenerateTargetError):
            pls1_fit(f, np.full(10, 2.0))

    @pytest.mark.parametrize("rows, targets", [(2, 2), (10, 9)])
    def test_short_or_mismatched_input_rejected(self, rows, targets):
        f = frame({"x": np.arange(float(rows))})
        with pytest.raises(InsufficientDataError, match=f"got {rows} rows and {targets} targets"):
            pls1_fit(f, np.arange(float(targets)) % 3)

    def test_target_without_covariance_rejected(self):
        f = frame({"x": np.array([1.0, -1.0, 1.0, -1.0])})
        with pytest.raises(DegenerateTargetError, match="zero sample covariance"):
            pls1_fit(f, np.array([1.0, 1.0, -1.0, -1.0]))

    def test_degenerate_column_propagates(self):
        f = frame({"flat": np.full(10, 1.0), "x": np.arange(10.0)})
        with pytest.raises(DegenerateColumnError, match="flat"):
            pls1_fit(f, np.arange(10.0))

    def test_weight_norm_is_one(self):
        rng = np.random.default_rng(77)
        f = frame({f"x{i}": rng.standard_normal(50) for i in range(8)})
        model = pls1_fit(f, rng.standard_normal(50))
        assert np.linalg.norm(model.weights) == pytest.approx(1.0, abs=1e-12)


class TestAnchorSign:
    def test_negative_correlation_flips(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(200)
        f = -0.7 * y + 0.3 * rng.standard_normal(200)
        anchored, sign = anchor_sign(f, y)
        assert sign == -1
        np.testing.assert_array_equal(anchored, -f)

    def test_positive_correlation_unchanged(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(200)
        f = 0.7 * y + 0.3 * rng.standard_normal(200)
        anchored, sign = anchor_sign(f, y)
        assert sign == 1
        np.testing.assert_array_equal(anchored, f)

    def test_exactly_zero_correlation_does_not_flip(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        f = np.array([1.0, 1.0, -1.0, -1.0])
        assert float(np.dot(f - f.mean(), y - y.mean())) == 0.0
        anchored, sign = anchor_sign(f, y)
        assert sign == 1
        np.testing.assert_array_equal(anchored, f)

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateTargetError):
            anchor_sign(np.full(5, 1.0), np.arange(5.0))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(InsufficientDataError, match="got 5 and 4"):
            anchor_sign(np.arange(5.0), np.arange(4.0))


class TestMacroFactor:
    def test_training_window_is_normalized_and_anchored(self):
        rng = np.random.default_rng(21)
        f = frame({f"x{i}": rng.standard_normal(300) for i in range(6)})
        y = f.column("x1") - 0.5 * f.column("x2") + rng.standard_normal(300)
        model = pls1_fit(f, y)
        factor = macro_factor(model, f)
        assert factor.values.mean() == pytest.approx(0.0, abs=1e-10)
        assert factor.values.std(ddof=1) == pytest.approx(1.0, abs=1e-10)
        corr = np.corrcoef(factor.values, y)[0, 1]
        assert corr >= 0.0

    def test_row_of_column_means_maps_to_shifted_zero(self):
        rng = np.random.default_rng(31)
        f = frame({"a": rng.normal(4, 2, 50), "b": rng.normal(-1, 3, 50)})
        y = f.column("a") + rng.standard_normal(50)
        model = pls1_fit(f, y)
        mean_row = Frame(
            (dt.date(2030, 1, 1),), f.names, f.data.mean(axis=0).reshape(1, -1)
        )
        out = macro_factor(model, mean_row)
        expected = (0.0 - model.factor_mean) / model.factor_std
        assert out.values[0] == pytest.approx(expected, abs=1e-12)

    def test_y_negation_antisymmetry(self):
        rng = np.random.default_rng(41)
        f = frame({f"x{i}": rng.standard_normal(150) for i in range(4)})
        y = f.column("x0") + 0.4 * rng.standard_normal(150)
        factor_pos = macro_factor(pls1_fit(f, y), f)
        factor_neg = macro_factor(pls1_fit(f, -y), f)
        np.testing.assert_allclose(factor_neg.values, -factor_pos.values, atol=1e-10)

    def test_column_scaling_invariance(self):
        rng = np.random.default_rng(51)
        cols = {f"x{i}": rng.standard_normal(100) for i in range(3)}
        y = cols["x0"] + 0.3 * rng.standard_normal(100)
        base = macro_factor(pls1_fit(frame(cols), y), frame(cols))
        scaled_cols = dict(cols)
        scaled_cols["x1"] = 1000.0 * scaled_cols["x1"]
        scaled = macro_factor(pls1_fit(frame(scaled_cols), y), frame(scaled_cols))
        np.testing.assert_allclose(scaled.values, base.values, atol=1e-10)

    def test_column_mismatch_is_schema_error(self):
        rng = np.random.default_rng(61)
        f = frame({"a": rng.standard_normal(30), "b": rng.standard_normal(30)})
        model = pls1_fit(f, f.column("a"))
        wrong = frame({"b": rng.standard_normal(30), "a": rng.standard_normal(30)})
        with pytest.raises(SchemaError):
            macro_factor(model, wrong)



def test_model_keeps_its_own_weights():
    """A caller's array stays writeable, and later writes to it do not show."""
    params = StandardizationParams(("a", "b"), [0.0, 0.0], [1.0, 1.0])
    owned, base = np.array([0.6, 0.8]), np.array([0.6, 0.8, 9.0])
    models = [PlsModel(("a", "b"), w, params, 1, 0.0, 1.0) for w in (owned, base[:2])]
    assert owned.flags.writeable and base.flags.writeable
    owned[:], base[:] = -1.0, -1.0
    for model in models:
        np.testing.assert_array_equal(model.weights, [0.6, 0.8])
        assert not model.weights.flags.writeable
