"""Tests for the command-line interface and its exit codes."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import di_decomp
from di_decomp import DailySeries
from di_decomp.cli import build_parser, main
from di_decomp.errors import ConfigError
from di_decomp.fixture import DEFAULT_FIXTURE_SEED, EXPECTATIONS_FILE, MARKET_FILE, TRUTH_FILE
from di_decomp.ingestion import MarketDataset, write_market_csv
from di_decomp.pipeline import (
    COMPONENTS_FILE,
    CONTRIBUTIONS_FILE,
    CUMULATIVE_FILE,
    FACTOR_FILE,
    MODELS_FILE,
    REPORT_FILE,
    SVG_FILE,
    load_config,
)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fixture")
    rc = main(["fixture", "--seed", "5", "--n", "400", "--out", str(root)])
    assert rc == 0
    return root


def run_args(fixture_dir, out_dir, *extra):
    return [
        "run",
        "--market", str(fixture_dir / MARKET_FILE),
        "--expectations", str(fixture_dir / EXPECTATIONS_FILE),
        "--out", str(out_dir),
        *extra,
    ]


class TestFixtureCommand:
    def test_writes_all_files(self, fixture_dir):
        for name in (MARKET_FILE, EXPECTATIONS_FILE, TRUTH_FILE):
            assert (fixture_dir / name).exists()

    def test_small_n_is_config_error(self, tmp_path, capsys):
        rc = main(["fixture", "--n", "10", "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestRunCommand:
    def test_full_run_writes_outputs_and_summary(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(run_args(fixture_dir, out))
        assert rc == 0
        for name in (CONTRIBUTIONS_FILE, CUMULATIVE_FILE, MODELS_FILE, REPORT_FILE, SVG_FILE):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "observations" in stdout
        assert "final cumulative change" in stdout
        assert "R-squared" in stdout

    def test_config_file_with_flag_override(self, fixture_dir, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[data]\n"
            f"market_csv = {fixture_dir / MARKET_FILE}\n"
            f"expectations_csv = {fixture_dir / EXPECTATIONS_FILE}\n"
            "[output]\n"
            f"dir = {tmp_path / 'ignored'}\n",
            encoding="utf-8",
        )
        out = tmp_path / "real_out"
        rc = main(["run", "--config", str(ini), "--out", str(out)])
        assert rc == 0
        assert (out / REPORT_FILE).exists()
        assert not (tmp_path / "ignored").exists()

    def test_missing_market_is_config_error(self, tmp_path):
        rc = main(["run", "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_bad_date_flag_is_config_error(self, fixture_dir, tmp_path):
        rc = main(run_args(fixture_dir, tmp_path / "out", "--start", "01/13/2015"))
        assert rc == 2

    def test_unparseable_market_is_data_error(self, tmp_path, capsys):
        market = tmp_path / "market.csv"
        market.write_text('date,DI5Y\n2015-01-13,"12,50"\n', encoding="utf-8")
        rc = main(
            [
                "run",
                "--market", str(market),
                "--expectations", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 3

    def test_singular_design_is_numerical_error(self, fixture_dir, tmp_path, capsys):
        # rebuild the market file with CRB an exact multiple of DXY
        from di_decomp.ingestion import load_market_csv

        dataset = load_market_csv(fixture_dir / MARKET_FILE)
        dxy = dataset["DXY"]
        clone = DailySeries("CRB", dxy.dates, 2.0 * np.asarray(dxy.values))
        datum = MarketDataset(
            tuple(clone if s.name == "CRB" else s for s in dataset.series)
        )
        market = tmp_path / "market.csv"
        write_market_csv(datum, market)
        rc = main(
            [
                "run",
                "--market", str(market),
                "--expectations", str(fixture_dir / EXPECTATIONS_FILE),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 4
        assert "rank deficient" in capsys.readouterr().err


class TestStagedCommands:
    def test_build_split_decompose_sequence(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "staged"
        common = [
            "--market", str(fixture_dir / MARKET_FILE),
            "--out", str(out),
        ]
        rc = main(
            ["build-factors", *common, "--expectations", str(fixture_dir / EXPECTATIONS_FILE)]
        )
        assert rc == 0
        assert (out / FACTOR_FILE).exists()

        rc = main(["split-cds", *common])
        assert rc == 0
        assert (out / COMPONENTS_FILE).exists()

        rc = main(["decompose", *common])
        assert rc == 0
        assert (out / CONTRIBUTIONS_FILE).exists()
        assert "final cumulative change" in capsys.readouterr().out

    def test_decompose_without_stage_files_is_data_error(self, fixture_dir, tmp_path):
        rc = main(
            [
                "decompose",
                "--market", str(fixture_dir / MARKET_FILE),
                "--out", str(tmp_path / "fresh"),
            ]
        )
        assert rc == 3


# The model specification is fixed, so each former way to set it is refused:
# (command, INI text, environment, extra flags, what the error names).
REMOVED_SETTINGS = {
    "ini-factors": ("run", "[factors]\ncolumns = IPCA_year\n", {}, [], "[factors]"),
    "ini-report": ("run", "[report]\nsignificance_cuts = 0.01,0.05,0.1\n", {}, [],
                   "[report]"),
    "env-indicators": ("fetch-focus", None, {"DI_DECOMP_FETCH_INDICATORS": "IPCA"}, [],
                       "fetch.indicators"),
    "flag-indicators": ("fetch-focus", None, {}, ["--indicators", "IPCA"], "--indicators"),
    "flag-columns": ("run", None, {}, ["--columns", "IPCA_year"], "--columns"),
}


@pytest.mark.parametrize("case", sorted(REMOVED_SETTINGS))
def test_removed_setting_is_config_error(tmp_path, monkeypatch, capsys, case):
    command, ini_text, env, flags, named = REMOVED_SETTINGS[case]
    argv = [command, "--out", str(tmp_path / "out"), *flags]
    if ini_text is not None:
        ini = tmp_path / "run.ini"
        ini.write_text(ini_text, encoding="utf-8")
        argv += ["--config", str(ini)]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse refuses an unknown flag itself
        rc = exc.code
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestFlags:
    def test_every_flag_sets_a_config_key(self):
        parser = build_parser()
        (subparsers,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        for command, sub in subparsers.choices.items():
            for action in sub._actions:
                if action.dest in ("help", "config"):
                    continue
                key = tuple(action.dest.split("."))
                assert len(key) == 2, (command, action.dest)
                if action.const is not None:  # --strict, --lenient, --fetch
                    load_config(None, env={}, overrides={key: action.const})
                    continue
                try:
                    load_config(None, env={}, overrides={key: "?"})
                except ConfigError as exc:
                    assert not str(exc).startswith("unknown config key"), (command, key)


# The summaries printed for the default fixture (seed 10, n=2741).
REPORT_STDOUT = """\
sample 2015-01-14..2025-07-16, 2741 observations
coefficients:
  const              0.174000   (p = 0.4952, Not significant)
  macro_factor       0.667655   (p = 0.001401, Significant)
  cds_dom          357.791109   (p = 1.182e-142, Highly Significant)
  cds_glob         300.294824   (p = 1.241e-25, Highly Significant)
R-squared 0.237642 (adjusted 0.236806)
explained-variance shares: macro 1.20%, riscobr 85.67%, global 13.13%
final cumulative change +1190.2 bps = const +476.9 + macro -10.6 + riscobr +0.0 \
+ global +723.9 + residual +0.0
outputs written to OUT
"""


class TestDefaultFixtureStdout:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """The --market and --expectations flags of the default fixture."""
        root = tmp_path_factory.mktemp("default_fixture")
        seed = str(DEFAULT_FIXTURE_SEED)
        assert main(["fixture", "--seed", seed, "--n", "2741", "--out", str(root)]) == 0
        return (["--market", str(root / MARKET_FILE)],
                ["--expectations", str(root / EXPECTATIONS_FILE)])

    def stdout(self, capsys, out, *argv):
        assert main([*argv, "--out", str(out)]) == 0
        return capsys.readouterr().out.replace(str(out), "OUT")

    def test_run(self, inputs, tmp_path, capsys):
        market, expectations = inputs
        assert self.stdout(capsys, tmp_path, "run", *market, *expectations) == REPORT_STDOUT

    def test_staged_decompose(self, inputs, tmp_path, capsys):
        market, expectations = inputs
        assert self.stdout(capsys, tmp_path, "build-factors", *market, *expectations) == (
            "macro factor fitted on 21 columns\noutputs written to OUT\n"
        )
        assert self.stdout(capsys, tmp_path, "split-cds", *market) == (
            "CDS split fitted: alpha 0.000727, DXY 1.3217, CRB -0.6593, VIX 0.0888, "
            "UST10 0.0443\noutputs written to OUT\n"
        )
        assert self.stdout(capsys, tmp_path, "decompose", *market) == REPORT_STDOUT


def test_cli_import_loads_no_scipy_or_xml_sax():
    # a fresh interpreter: this one has scipy loaded by the test oracles
    src = str(Path(di_decomp.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import di_decomp.cli, sys; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'xml.sax'))))"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits products over its threads from about 10000 rows on
    fixture, out = tmp_path / "fx", tmp_path / "out"
    assert main(["fixture", "--seed", "1", "--n", "20000", "--out", str(fixture)]) == 0
    src = str(Path(di_decomp.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    runs = []
    for threads in ("1", "4"):
        subprocess.run([sys.executable, "-m", "di_decomp.cli", *run_args(fixture, out)],
                       env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True,
                       check=True)
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(runs[0]) == 9
    assert runs[0] == runs[1]
