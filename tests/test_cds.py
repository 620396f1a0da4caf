"""Tests for the CDS global/domestic split."""

import datetime as dt

import numpy as np
import pytest

from di_decomp import DailySeries, split_cds
from di_decomp.errors import InsufficientDataError


def days(n, start=dt.date(2015, 1, 13)):
    return tuple(start + dt.timedelta(days=i) for i in range(n))


def make_inputs(n, seed, cds_fn=None):
    """Four regressor series plus a CDS series built by ``cds_fn``."""
    rng = np.random.default_rng(seed)
    dates = days(n)
    x = {
        "dxy": rng.standard_normal(n) * 0.004,
        "crb": rng.standard_normal(n) * 0.008,
        "vix": rng.standard_normal(n) * 0.05,
        "ust10": rng.standard_normal(n) * 0.05,
    }
    if cds_fn is None:
        cds_vals = rng.standard_normal(n) * 0.02
    else:
        cds_vals = cds_fn(x, rng)
    series = {k: DailySeries(k, dates, v) for k, v in x.items()}
    cds = DailySeries("cds", dates, cds_vals)
    return cds, series


def run_split(cds, series):
    return split_cds(cds, series["dxy"], series["crb"], series["vix"], series["ust10"])


class TestSplitCds:
    def test_noiseless_linear_cds_has_zero_domestic_part(self):
        def linear(x, rng):
            return 0.001 + 1.5 * x["dxy"] - 0.6 * x["crb"] + 0.1 * x["vix"] + 0.05 * x["ust10"]

        cds, series = make_inputs(500, seed=0, cds_fn=linear)
        model, comp = run_split(cds, series)
        assert np.max(np.abs(comp.dom.values)) < 1e-9
        np.testing.assert_allclose(comp.glob.values, cds.values, atol=1e-9)
        assert model.alpha == pytest.approx(0.001, abs=1e-9)
        assert model.gamma["DXY"] == pytest.approx(1.5, abs=1e-9)

    def test_exact_additivity(self):
        cds, series = make_inputs(300, seed=1)
        _, comp = run_split(cds, series)
        np.testing.assert_allclose(
            comp.glob.values + comp.dom.values, cds.values, atol=1e-12
        )

    def test_domestic_orthogonal_to_regressors_with_zero_mean(self):
        cds, series = make_inputs(400, seed=2)
        _, comp = run_split(cds, series)
        assert abs(comp.dom.values.mean()) < 1e-12
        for s in series.values():
            corr = np.corrcoef(comp.dom.values, s.values)[0, 1]
            assert abs(corr) < 1e-8

    def test_independent_cds_leaves_variance_domestic(self):
        """Monte-Carlo: unrelated CDS keeps its variance in the domestic part
        and the external coefficients stay insignificant at 5% almost always."""
        n_seeds = 100
        ratio_ok = 0
        insignificant = {name: 0 for name in ("DXY", "CRB", "VIX", "UST10")}
        for seed in range(n_seeds):
            cds, series = make_inputs(2000, seed=1000 + seed)
            model, comp = run_split(cds, series)
            if comp.dom.values.var(ddof=1) / cds.values.var(ddof=1) > 0.95:
                ratio_ok += 1
            for name in insignificant:
                if model.fit.p_value(name) > 0.05:
                    insignificant[name] += 1
        assert ratio_ok >= 0.9 * n_seeds
        for name, count in insignificant.items():
            assert count >= 0.9 * n_seeds, f"{name} significant too often ({count})"

    def test_dates_are_inner_join_of_inputs(self):
        cds, series = make_inputs(50, seed=3)
        shifted = DailySeries(
            "dxy", days(50, dt.date(2015, 1, 15)), np.asarray(series["dxy"].values)
        )
        _, comp = run_split(cds, {**series, "dxy": shifted})
        expected = sorted(set(cds.dates.tolist()) & set(shifted.dates.tolist()))
        assert comp.glob.dates.tolist() == expected
        assert comp.dom.dates.tolist() == expected

    def test_permuting_regressors_only_relabels(self):
        cds, series = make_inputs(200, seed=4)
        model_a, comp_a = split_cds(
            cds, series["dxy"], series["crb"], series["vix"], series["ust10"]
        )
        model_b, comp_b = split_cds(
            cds, series["ust10"], series["vix"], series["crb"], series["dxy"]
        )
        np.testing.assert_allclose(comp_a.glob.values, comp_b.glob.values, atol=1e-10)
        np.testing.assert_allclose(comp_a.dom.values, comp_b.dom.values, atol=1e-10)
        assert model_a.gamma["DXY"] == pytest.approx(model_b.gamma["UST10"], abs=1e-12)
        assert model_a.gamma["CRB"] == pytest.approx(model_b.gamma["VIX"], abs=1e-12)

    def test_too_few_joined_rows(self):
        cds, series = make_inputs(5, seed=5)
        with pytest.raises(InsufficientDataError):
            run_split(cds, series)

    def test_gamma_order_is_fixed(self):
        cds, series = make_inputs(100, seed=6)
        model, _ = run_split(cds, series)
        assert tuple(model.gamma) == ("DXY", "CRB", "VIX", "UST10")
