"""Tests for the command-line interface and its exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import di_decomp
from di_decomp import DailySeries, ingestion
from di_decomp.cli import build_parser, main
from di_decomp.errors import ConfigError
from di_decomp.fixture import DEFAULT_FIXTURE_SEED, EXPECTATIONS_FILE, MARKET_FILE, TRUTH_FILE
from di_decomp.ingestion import (
    read_focus_panel_csv,
    read_frame_csv,
    write_market_csv,
)
from di_decomp.pipeline import (
    CDS_MODEL_FILE,
    COMPONENTS_FILE,
    CONTRIBUTIONS_FILE,
    CUMULATIVE_FILE,
    EXPECTATIONS_OUT_FILE,
    FACTOR_FILE,
    FOCUS_PANEL_FILE,
    LOAD_REPORT_FILE,
    MODELS_FILE,
    PLS_MODEL_FILE,
    REPORT_FILE,
    SVG_FILE,
    load_config,
)
from test_pipeline import focus_transport


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

    def test_missing_expectations_is_config_error(self, fixture_dir, tmp_path, capsys):
        rc = main(["run", "--market", str(fixture_dir / MARKET_FILE),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "no expectations source: set data.expectations_csv" in capsys.readouterr().err

    def test_bad_date_flag_is_config_error(self, fixture_dir, tmp_path):
        rc = main(run_args(fixture_dir, tmp_path / "out", "--start", "01/13/2015"))
        assert rc == 2

    def test_uncreatable_out_dir_is_config_error(self, fixture_dir, tmp_path, capsys):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        rc = main(run_args(fixture_dir, tmp_path / "afile" / "sub"))
        assert rc == 2
        assert "cannot create output directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert (tmp_path / "afile").read_text(encoding="utf-8") == ""

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
        market = tmp_path / "market.csv"
        write_market_csv({**dataset, "CRB": clone}, market)
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

    def test_staged_commands_write_the_files_of_run(self, fixture_dir, tmp_path):
        """Every file byte for byte; report.json but its echoed output directory."""
        run_out, staged = tmp_path / "run", tmp_path / "staged"
        assert main(run_args(fixture_dir, run_out)) == 0
        common = ["--market", str(fixture_dir / MARKET_FILE), "--out", str(staged)]
        expectations = ["--expectations", str(fixture_dir / EXPECTATIONS_FILE)]
        assert main(["build-factors", *common, *expectations]) == 0
        assert main(["split-cds", *common]) == 0
        assert main(["decompose", *common]) == 0
        outputs = []
        for out in (run_out, staged):
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            report = json.loads(files.pop(REPORT_FILE))
            assert report["config"].pop("out_dir") == str(out)
            outputs.append({**files, REPORT_FILE: report})
        assert len(outputs[0]) == 9
        assert outputs[0] == outputs[1]

    def test_fetch_focus_writes_its_three_files(self, tmp_path, monkeypatch, capsys):
        """Recorded payloads stand in for the network at the default transport."""
        monkeypatch.setattr(ingestion, "_urllib_transport", focus_transport())
        out = tmp_path / "fetched"
        argv = ["fetch-focus", "--fetch-start", "2004-01-01", "--end", "2004-01-02"]
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "fetched 20 records (0 deduplicated, 0 incomplete dates dropped)",
            f"outputs written to {out}",
        ]
        assert {p.name for p in out.iterdir()} == {
            FOCUS_PANEL_FILE, EXPECTATIONS_OUT_FILE, LOAD_REPORT_FILE}
        assert json.loads((out / LOAD_REPORT_FILE).read_text(encoding="utf-8")) == {
            "fetched": 20, "deduplicated": 0, "dropped_dates": 0}
        panel = read_focus_panel_csv(out / FOCUS_PANEL_FILE)
        assert len(panel) == 20
        horizon = read_frame_csv(out / EXPECTATIONS_OUT_FILE)
        assert horizon.n_rows == 1 and horizon.column("IPCA_year")[0] == 6.00

    def test_inverted_fetch_range_is_config_error(self, tmp_path, offline, capsys):
        out = tmp_path / "fetched"
        argv = ["fetch-focus", "--fetch-start", "2020-01-01", "--end", "2019-01-01"]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: fetch start 2020-01-01 is after end 2019-01-01\n")
        assert not out.exists()

    def test_one_day_fetch_range_is_valid(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingestion, "_urllib_transport", focus_transport())
        argv = ["fetch-focus", "--fetch-start", "2004-01-02", "--end", "2004-01-02"]
        assert main([*argv, "--out", str(tmp_path / "fetched")]) == 0

    def test_decompose_without_stage_files_is_data_error(self, fixture_dir, tmp_path):
        rc = main(
            [
                "decompose",
                "--market", str(fixture_dir / MARKET_FILE),
                "--out", str(tmp_path / "fresh"),
            ]
        )
        assert rc == 3


class TestUnreadableFiles:
    """A file that cannot be read as UTF-8 text is an error naming it."""

    @pytest.mark.parametrize("kind", ["directory", "not-utf-8", "not-ini"])
    def test_config_file_is_config_error(self, fixture_dir, tmp_path, capsys, kind):
        ini = tmp_path / "run.ini"
        if kind == "directory":
            ini.mkdir()  # configparser.read would skip it and run on defaults
        elif kind == "not-utf-8":
            ini.write_bytes(b"[output]\ndir = out\n# caf\xe9\n")
        else:
            ini.write_text("dir = out\n", encoding="utf-8")  # a key before any section
        rc = main(run_args(fixture_dir, tmp_path / "out", "--config", str(ini)))
        assert rc == 2
        verb = "parse" if kind == "not-ini" else "read"
        assert f"cannot {verb} config file {ini}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["market", "expectations", "focus-panel"])
    def test_data_file_not_utf8_is_data_error(self, fixture_dir, tmp_path, capsys, source):
        inputs = {"market": fixture_dir / MARKET_FILE,
                  "expectations": fixture_dir / EXPECTATIONS_FILE}
        bad = tmp_path / "bad.csv"
        if source == "focus-panel":  # a panel goes through --expectations too
            bad.write_bytes(b"survey_date,indicator,reference_year,median\n"
                            b"2015-01-13,IPCA,2015,5\xff.0\n")
            inputs["expectations"] = bad
        else:
            bad.write_bytes(inputs[source].read_bytes() + b"2099-01-05,1\xff.0\n")
            inputs[source] = bad
        argv = ["run", *(a for flag, path in inputs.items() for a in (f"--{flag}", str(path)))]
        rc = main([*argv, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert f"{bad}: not UTF-8 text (byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (b'{\n  "sign', "PATH: not valid JSON (Unterminated string"),
        (b'{"sign": 1, "note": "caf\xff"}\n', "PATH: not UTF-8 text (byte 0xff"),
        (None, "file not found: PATH"),
        (b"[1, 2]\n", "PATH: not a JSON object"),
        (b"null\n", "PATH: not a JSON object"),
        (b'"x"\n', "PATH: not a JSON object"),
    ], ids=["truncated", "not-utf-8", "missing", "array", "null", "string"])
    @pytest.mark.parametrize("name", [PLS_MODEL_FILE, CDS_MODEL_FILE])
    def test_stage_model_file_is_data_error(self, fixture_dir, tmp_path, capsys, name,
                                            content, message):
        out = tmp_path / "staged"
        common = ["--market", str(fixture_dir / MARKET_FILE), "--out", str(out)]
        expectations = ["--expectations", str(fixture_dir / EXPECTATIONS_FILE)]
        assert main(["build-factors", *common, *expectations]) == 0
        assert main(["split-cds", *common]) == 0
        if content is None:
            (out / name).unlink()
        else:
            (out / name).write_bytes(content)
        assert main(["decompose", *common]) == 3
        assert message.replace("PATH", str(out / name)) in capsys.readouterr().err


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
    # expectations reach a run only through a file: fetch-focus writes it
    "ini-fetch-enabled": ("run", "[fetch]\nenabled = true\n", {}, [], "fetch.enabled"),
    "env-fetch-enabled": ("run", None, {"DI_DECOMP_FETCH_ENABLED": "true"}, [],
                          "fetch.enabled"),
    "flag-fetch": ("run", None, {}, ["--fetch"], "--fetch"),
    # each input is named once: --expectations reads a focus panel too, and
    # decompose reads its stage files from --out
    "ini-focus-panel": ("run", "[data]\nfocus_panel_csv = p.csv\n", {}, [],
                        "data.focus_panel_csv"),
    "env-focus-panel": ("run", None, {"DI_DECOMP_DATA_FOCUS_PANEL_CSV": "p.csv"}, [],
                        "data.focus_panel_csv"),
    "flag-focus-panel": ("run", None, {}, ["--focus-panel", "p.csv"], "--focus-panel"),
    "ini-factor": ("decompose", "[data]\nfactor_csv = f.csv\n", {}, [], "data.factor_csv"),
    "env-factor": ("decompose", None, {"DI_DECOMP_DATA_FACTOR_CSV": "f.csv"}, [],
                   "data.factor_csv"),
    "flag-factor": ("decompose", None, {}, ["--factor", "f.csv"], "--factor"),
    "ini-components": ("decompose", "[data]\ncomponents_csv = c.csv\n", {}, [],
                       "data.components_csv"),
    "env-components": ("decompose", None, {"DI_DECOMP_DATA_COMPONENTS_CSV": "c.csv"}, [],
                       "data.components_csv"),
    "flag-components": ("decompose", None, {}, ["--components", "c.csv"], "--components"),
    # every input is read strictly: a rejected row is always an error
    "ini-strict": ("run", "[output]\nstrict = false\n", {}, [], "output.strict"),
    "env-strict": ("run", None, {"DI_DECOMP_OUTPUT_STRICT": "false"}, [], "output.strict"),
}


@pytest.fixture
def offline(monkeypatch):
    """A fetch-focus that a refused flag failed to stop cannot reach the network."""
    def transport(url):
        raise AssertionError(f"fetch-focus reached the network: {url}")

    monkeypatch.setattr(ingestion, "_urllib_transport", transport)


@pytest.mark.parametrize("case", sorted(REMOVED_SETTINGS))
def test_removed_setting_is_config_error(tmp_path, monkeypatch, capsys, offline, case):
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


# The flags each command reads besides --config and --out.
COMMAND_FLAGS = {
    "run": {"--market", "--expectations", "--start", "--end"},
    "build-factors": {"--market", "--expectations", "--end"},
    "split-cds": {"--market", "--end"},
    "decompose": {"--market", "--start", "--end"},
    "fetch-focus": {"--endpoint", "--fetch-start", "--end"},
    "fixture": {"--seed", "--n", "--r2", "--betas"},
}

# Flags that a command does not read, each with a value where it would take one.
REMOVED_FLAGS = [
    ("run", "--fetch"), ("run", "--endpoint", "https://example.test"),
    ("build-factors", "--fetch"), ("build-factors", "--endpoint", "https://example.test"),
    ("build-factors", "--start", "2015-01-13"),
    ("split-cds", "--start", "2015-01-13"),
    ("fetch-focus", "--start", "2015-01-13"), ("fetch-focus", "--strict"),
    ("fetch-focus", "--lenient"),
    ("fixture", "--start", "2015-01-13"), ("fixture", "--end", "2025-01-13"),
    ("fixture", "--strict"), ("fixture", "--lenient"),
    # no command skips bad input rows
    *((command, mode) for command in ("run", "build-factors", "split-cds", "decompose")
      for mode in ("--strict", "--lenient")),
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=[" ".join(a[:2]) for a in REMOVED_FLAGS])
def test_removed_flag_is_refused(tmp_path, capsys, offline, argv):
    command, *flag = argv
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path / "out"), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def parser_flags():
    """Each command of ``build_parser()`` with its flags, --help aside."""
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        command: {f for a in sub._actions for f in a.option_strings} - {"-h", "--help"}
        for command, sub in subparsers.choices.items()
    }


class TestFlags:
    def test_each_command_takes_exactly_its_flags(self):
        commands = parser_flags()
        assert commands.keys() == COMMAND_FLAGS.keys()
        slots = 0
        for command, flags in commands.items():
            assert flags == {"--config", "--out"} | COMMAND_FLAGS[command], command
            slots += len(flags)
        assert slots == 31

    def test_readme_synopsis_lists_each_commands_flags(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
        synopsis, legend = block.split("\n\n")
        flag = r"--[a-z0-9-]+"
        groups = {name: set(re.findall(flag, text))
                  for name, text in re.findall(r"^([A-Z]+):(.*)$", legend, re.M)}
        listed = {}
        for entry in re.split(r"\n(?=di-decomp )", synopsis.strip()):
            listed[entry.split()[1]] = set(re.findall(flag, entry)).union(
                *(groups[name] for name in re.findall(r"\[([A-Z]+)\]", entry)))
        assert listed == parser_flags()

    def test_abbreviated_flag_is_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--mark", "m.csv", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mark m.csv" in capsys.readouterr().err

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
