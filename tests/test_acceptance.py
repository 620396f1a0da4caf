"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import datetime as dt
import json
import time

import numpy as np
import pytest

from di_decomp import (
    DailySeries,
    Frame,
    accumulate,
    anchor_sign,
    contributions,
    fetch_focus,
    load_market_csv,
    macro_factor,
    ols_fit,
    pls1_fit,
    reshape_horizons,
    split_cds,
    standardize,
    validate_cumulative,
)
from di_decomp.decomposition import fit_decomposition_frame, join_decomposition_inputs
from di_decomp.errors import ParseError
from di_decomp.fixture import (
    DEFAULT_FIXTURE_SEED,
    EXPECTATIONS_FILE,
    MARKET_FILE,
    generate_fixture,
)
from di_decomp.pipeline import (
    CONTRIBUTIONS_FILE,
    CUMULATIVE_FILE,
    MODELS_FILE,
    REPORT_FILE,
    SVG_FILE,
    PipelineConfig,
    run_pipeline,
)

from oracles import best_random_unit_cov, normal_equations_ols, sample_cov


def _ok(number: int, name: str) -> None:
    print(f"[ACCEPTANCE] {number}. {name}: PASS")


def _days(n, start=dt.date(2015, 1, 13)):
    return tuple(start + dt.timedelta(days=i) for i in range(n))


@pytest.fixture(scope="module")
def bundled_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    started = time.monotonic()
    truth = generate_fixture(DEFAULT_FIXTURE_SEED, 2741, path=root / "fixture")
    config = PipelineConfig(
        market_csv=root / "fixture" / MARKET_FILE,
        expectations_csv=root / "fixture" / EXPECTATIONS_FILE,
        out_dir=root / "out",
    )
    report = run_pipeline(config)
    elapsed = time.monotonic() - started
    return {"truth": truth, "config": config, "report": report, "elapsed": elapsed}


def test_criterion_1_accounting_identities():
    """100 seeded datasets: daily and cumulative identities hold everywhere."""
    started = time.monotonic()
    n = 500
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dates = _days(n)
        factors = [rng.standard_normal(n) * s for s in (1.2, 0.02, 0.009)]
        y = (
            0.05
            + 0.6 * factors[0]
            + 340.0 * factors[1]
            + 320.0 * factors[2]
            + rng.standard_normal(n) * 13.0
        )
        joined = join_decomposition_inputs(
            DailySeries("d", dates, y),
            DailySeries("m", dates, factors[0]),
            DailySeries("dm", dates, factors[1]),
            DailySeries("g", dates, factors[2]),
        )
        model = fit_decomposition_frame(joined)
        c = contributions(model, joined)
        d_di5y = c.column("d_di5y_bps")
        recomposed = (
            c.column("const_bps") + c.column("macro_bps") + c.column("riscobr_bps")
            + c.column("global_bps") + c.column("residual_bps")
        )
        assert np.max(np.abs(recomposed - d_di5y)) < 1e-9
        cum = accumulate(c)
        validate_cumulative(cum)
        assert abs(cum.column("residual_cum")[-1]) < 1e-6 * n * np.std(d_di5y)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"
    _ok(1, f"accounting identity suite (100 seeds, {elapsed:.1f}s)")


def test_criterion_2_ols_oracle_equivalence():
    """OLS inference matches explicit normal equations + quadrature t-CDF."""
    x = np.array([-4.5, -3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5, 4.5])
    y = np.array([2.1, 1.3, 2.9, 0.7, 2.4, 1.8, 2.6, 0.9, 2.2, 1.6])
    frame = Frame.from_columns(_days(10), {"x": x})
    fit = ols_fit(y, frame)
    oracle = normal_equations_ols(y, np.column_stack([np.ones(10), x]))
    np.testing.assert_allclose(fit.coefficients, oracle["beta"], atol=1e-8)
    np.testing.assert_allclose(fit.stderr, oracle["stderr"], atol=1e-8)
    np.testing.assert_allclose(fit.t_statistics, oracle["t"], atol=1e-8)
    np.testing.assert_allclose(fit.p_values, oracle["p"], atol=1e-8)

    noiseless = ols_fit(1.0 + 2.0 * x, frame)
    np.testing.assert_allclose(noiseless.coefficients, [1.0, 2.0], atol=1e-9)
    np.testing.assert_allclose(noiseless.residuals, 0.0, atol=1e-9)
    _ok(2, "OLS oracle equivalence (1e-8) and noiseless recovery (1e-9)")


def test_criterion_3_pls_oracle_equivalence():
    """Closed-form weights; best of 1e5 random unit vectors; sign anchoring."""
    for seed in range(20):
        rng = np.random.default_rng(10_000 + seed)
        n, k = 200, 5
        cols = {f"x{i}": rng.standard_normal(n) for i in range(k)}
        frame = Frame.from_columns(_days(n), cols)
        y = frame.column("x0") + 0.5 * rng.standard_normal(n)

        model = pls1_fit(frame, y)
        z, _ = standardize(frame)
        closed_form = z.data.T @ (y - y.mean())
        closed_form /= np.linalg.norm(closed_form)
        np.testing.assert_allclose(model.weights, closed_form, atol=1e-10)

        achieved = abs(sample_cov(z.data @ model.weights, y))
        best_random, _ = best_random_unit_cov(z.data, y, 100_000, rng)
        assert achieved >= best_random - 1e-12

        factor = macro_factor(model, frame)
        assert np.corrcoef(factor.values, y)[0, 1] >= 0.0
        anchored, _ = anchor_sign(factor.values, y)
        np.testing.assert_array_equal(anchored, factor.values)

        negated = macro_factor(pls1_fit(frame, -y), frame)
        np.testing.assert_allclose(negated.values, -factor.values, atol=1e-10)
    _ok(3, "PLS closed form, 1e5-draw brute force, anchoring, antisymmetry (20 seeds)")


def test_criterion_4_cds_split_properties():
    """Additivity, residual orthogonality, noiseless-linear degeneracy."""
    rng = np.random.default_rng(99)
    n = 800
    dates = _days(n)
    x = {
        "dxy": rng.standard_normal(n) * 0.004,
        "crb": rng.standard_normal(n) * 0.008,
        "vix": rng.standard_normal(n) * 0.05,
        "ust10": rng.standard_normal(n) * 0.05,
    }
    cds_noisy = 1.4 * x["dxy"] - 0.5 * x["crb"] + 0.09 * x["vix"] + rng.standard_normal(n) * 0.02
    series = {k: DailySeries(k, dates, v) for k, v in x.items()}
    _, comp = split_cds(
        DailySeries("cds", dates, cds_noisy),
        series["dxy"], series["crb"], series["vix"], series["ust10"],
    )
    assert np.max(np.abs(comp.glob.values + comp.dom.values - cds_noisy)) < 1e-12
    for v in x.values():
        assert abs(np.corrcoef(comp.dom.values, v)[0, 1]) < 1e-8

    cds_linear = 0.001 + 1.4 * x["dxy"] - 0.5 * x["crb"] + 0.09 * x["vix"] + 0.05 * x["ust10"]
    _, comp_exact = split_cds(
        DailySeries("cds", dates, cds_linear),
        series["dxy"], series["crb"], series["vix"], series["ust10"],
    )
    assert np.max(np.abs(comp_exact.dom.values)) < 1e-9
    _ok(4, "CDS split additivity (1e-12), orthogonality (1e-8), noiseless dom (1e-9)")


def test_criterion_5_fixture_recovery(bundled_run):
    """Bundled fixture: betas within 3 analytic SEs, R2 and shares on target."""
    truth, report = bundled_run["truth"], bundled_run["report"]
    assert report["sample"]["n_observations"] == 2741
    for row in report["regression"]["coefficients"]:
        true = truth["true_betas"][row["name"]]
        se = truth["analytic_stderr"][row["name"]]
        assert abs(row["estimate"] - true) < 3.0 * se, row["name"]
    assert abs(report["regression"]["r_squared"] - 0.2245) < 0.05
    shares = report["variance_shares"]["shares"]
    for label, target in (("macro", 0.01), ("riscobr", 0.83), ("global", 0.16)):
        assert abs(shares[label] - target) < 0.05, label
    assert bundled_run["elapsed"] < 30.0
    _ok(
        5,
        f"fixture recovery (n=2741, R2 {report['regression']['r_squared']:.4f}, "
        f"{bundled_run['elapsed']:.1f}s)",
    )


def test_criterion_6_cumulative_snapshot_sums():
    """Data-free row-sum checks of the published cumulative snapshots."""
    assert abs(449.0 - sum((9.0010, 18.6477, 189.4902, 19.6635, 212.1975))) < 0.01
    assert abs(-802.0 - sum((71.6478, 27.7586, -36.9119, -14.2008, -850.2938))) < 0.01
    assert abs(7.5 - sum((140.9811, 10.7171, -13.3540, -130.8443))) < 0.01
    _ok(6, "cumulative snapshot row sums (+449.0, -802.0, +7.5 within 0.01)")


def test_criterion_7_determinism(bundled_run):
    """A rerun with identical inputs and config is byte-identical."""
    out = bundled_run["config"].out_dir
    names = (CONTRIBUTIONS_FILE, CUMULATIVE_FILE, MODELS_FILE, REPORT_FILE, SVG_FILE)
    before = {name: (out / name).read_bytes() for name in names}
    run_pipeline(bundled_run["config"])
    for name in names:
        assert (out / name).read_bytes() == before[name], name
    _ok(7, "byte-identical rerun (CSV, JSON, SVG)")


def test_criterion_8_ingestion_recorded_fixture(tmp_path):
    """Recorded fetch reproduces the first survey row; error paths hold."""
    medians = {
        "IPCA": (6.00, 5.00, 4.50, 4.00),
        "Selic": (13.85, 13.00, 12.00, 11.50),
        "PIB": (3.66, 3.66, 3.66, 3.66),
        "Primario": (4.25, 4.25, 4.00, 3.75),
        "Nominal": (-3.00, -2.35, -2.50, -2.20),
    }
    from di_decomp.ingestion import INDICATOR_QUERY_NAMES

    def transport(url):
        import urllib.parse

        flt = urllib.parse.parse_qs(urllib.parse.urlparse(url).query)["$filter"][0]
        for indicator, quads in medians.items():
            if f"Indicador eq '{INDICATOR_QUERY_NAMES[indicator]}'" in flt:
                records = [
                    {
                        "Indicador": INDICATOR_QUERY_NAMES[indicator],
                        "Data": "2004-01-02",
                        "DataReferencia": str(2004 + k),
                        "Mediana": quads[k],
                    }
                    for k in range(4)
                ]
                return 200, json.dumps({"value": records}).encode()
        return 200, json.dumps({"value": []}).encode()

    panel = fetch_focus(
        ("IPCA", "Selic", "PIB", "Primario", "Nominal"),
        (dt.date(2004, 1, 2), dt.date(2004, 1, 2)),
        transport=transport,
    )
    frame = reshape_horizons(panel)
    assert frame.dates.tolist() == [dt.date(2004, 1, 2)]
    assert frame.column("IPCA_year")[0] == 6.00
    assert frame.column("IPCA_year_1")[0] == 5.00
    assert frame.column("IPCA_year_2")[0] == 4.50
    assert frame.column("IPCA_year_3")[0] == 4.00

    with pytest.raises(ParseError):
        fetch_focus(
            ("IPCA",), (dt.date(2004, 1, 2), dt.date(2004, 1, 2)),
            transport=lambda url: (200, b'{"value": [{"Indicador": "IPCA"}]}'),
        )

    bad_csv = tmp_path / "m.csv"
    bad_csv.write_text('date,DI5Y\n2015-01-13,"12,50"\n', encoding="utf-8")
    with pytest.raises(ParseError):
        load_market_csv(bad_csv, columns=("DI5Y",))
    _ok(8, "recorded fetch reproduces first survey row; error paths raise")
