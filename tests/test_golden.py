"""Golden-output guard: the bundled fixture's outputs keep pinned contents.

The byte-identical-rerun criterion only compares a run with another run of
the same code, so a refactor that changes output bytes would still pass it.
This test pins the sha256 of the CSV and SVG outputs for the default
fixture (seed 10, n=2741) and compares the JSON outputs numerically at a
relative tolerance of 1e-12, because their last bits may differ between
BLAS builds.  Entries that are zero up to rounding (the orthogonal CDS
components' correlation, ~5e-16) are compared with an absolute floor of
1e-12 instead.

A cold ``python -m di_decomp.cli run`` on the default fixture must write
the same five pinned files: that is a fresh interpreter forking its
stages' children, the path a user's run takes.

``golden/stress_fixture.json`` pins the same five digests at seed 1,
n=20000.  A change of rounding order can move the last bits of a ``{!r}``
cell there and not at n=2741: one stacked-right-hand-side solve in
``ols_fit`` kept every n=2741 digest and changed ``cds_components.csv``.

To re-pin after an intended output change, regenerate the JSON files from
a run of the new code and say why in the change log.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from di_decomp.fixture import EXPECTATIONS_FILE, MARKET_FILE, generate_fixture
from di_decomp.pipeline import MODELS_FILE, REPORT_FILE, PipelineConfig, run_pipeline

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "default_fixture.json").read_text(encoding="utf-8"))
STRESS = json.loads((GOLDEN_DIR / "stress_fixture.json").read_text(encoding="utf-8"))
# report.json echoes input and output paths, which differ per run
PATH_KEYS = ("market_csv", "out_dir")


def _run(root, fixture):
    generate_fixture(fixture["seed"], fixture["n"], path=root / "fixture")
    config = PipelineConfig(
        market_csv=root / "fixture" / MARKET_FILE,
        expectations_csv=root / "fixture" / EXPECTATIONS_FILE,
        out_dir=root / "out",
    )
    run_pipeline(config)
    return root / "out"


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("golden"), GOLDEN["fixture"])


@pytest.fixture(scope="module")
def cli_run(golden_run):
    """The CLI run as a subprocess over ``golden_run``'s fixture files."""
    fixture, out = golden_run.parent / "fixture", golden_run.parent / "cli"
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-m", "di_decomp.cli", "run",
                    "--market", str(fixture / MARKET_FILE),
                    "--expectations", str(fixture / EXPECTATIONS_FILE), "--out", str(out)],
                   env=env, check=True, capture_output=True)
    return out


@pytest.fixture(scope="module")
def stress_run(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("stress"), STRESS["fixture"])


def _assert_close(actual, expected, where="$"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), where
        for key in expected:
            _assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-12, abs=1e-12), where
    else:
        assert actual == expected, where


@pytest.mark.parametrize("name", sorted(GOLDEN["sha256"]))
def test_output_digest(golden_run, name):
    digest = hashlib.sha256((golden_run / name).read_bytes()).hexdigest()
    assert digest == GOLDEN["sha256"][name], name


@pytest.mark.parametrize("name", sorted(GOLDEN["sha256"]))
def test_cli_output_digest(cli_run, name):
    digest = hashlib.sha256((cli_run / name).read_bytes()).hexdigest()
    assert digest == GOLDEN["sha256"][name], name


@pytest.mark.parametrize("name", sorted(STRESS["sha256"]))
def test_stress_output_digest(stress_run, name):
    digest = hashlib.sha256((stress_run / name).read_bytes()).hexdigest()
    assert digest == STRESS["sha256"][name], name


def test_models_json(golden_run):
    models = json.loads((golden_run / MODELS_FILE).read_text(encoding="utf-8"))
    _assert_close(models, GOLDEN["models"])


def test_report_json(golden_run):
    report = json.loads((golden_run / REPORT_FILE).read_text(encoding="utf-8"))
    report["config"] = {k: v for k, v in report["config"].items() if k not in PATH_KEYS}
    _assert_close(report, GOLDEN["report"])
