"""Tests for the synthetic dataset generator."""

import json

import numpy as np
import pytest

from di_decomp.errors import ConfigError
from di_decomp.fixture import (
    EXPECTATIONS_FILE,
    MARKET_FILE,
    TRUTH_FILE,
    generate_fixture,
)
from di_decomp.pipeline import PipelineConfig, run_pipeline


def config_for(fixture_dir, out_dir):
    return PipelineConfig(
        market_csv=fixture_dir / MARKET_FILE,
        expectations_csv=fixture_dir / EXPECTATIONS_FILE,
        out_dir=out_dir,
    )


class TestGenerateFixture:
    def test_same_seed_gives_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_fixture(7, 300, path=a)
        generate_fixture(7, 300, path=b)
        for name in (MARKET_FILE, EXPECTATIONS_FILE, TRUTH_FILE):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_fixture(7, 300, path=a)
        generate_fixture(8, 300, path=b)
        assert (a / MARKET_FILE).read_bytes() != (b / MARKET_FILE).read_bytes()

    def test_sidecar_contents(self, tmp_path):
        truth = generate_fixture(3, 250, path=tmp_path)
        on_disk = json.loads((tmp_path / TRUTH_FILE).read_text(encoding="utf-8"))
        assert on_disk == truth
        assert set(truth["true_betas"]) == {"const", "macro_factor", "cds_dom", "cds_glob"}
        assert all(v > 0 for v in truth["analytic_stderr"].values())
        assert truth["noise_std_bps"] > 0

    def test_invalid_targets_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_fixture(1, 50, path=tmp_path)  # n too small
        with pytest.raises(ConfigError):
            generate_fixture(1, 200, target_r2=1.5, path=tmp_path)
        with pytest.raises(ConfigError):
            generate_fixture(1, 200, target_betas=(0.0, 0.0, 1.0, 1.0), path=tmp_path)
        with pytest.raises(ConfigError, match="need 4 betas"):
            generate_fixture(1, 200, target_betas=(0.0, 1.0, 1.0), path=tmp_path)

    def test_vanishing_noise_gives_near_exact_recovery(self, tmp_path):
        truth = generate_fixture(2, 2000, target_r2=0.9999, path=tmp_path / "fx")
        report = run_pipeline(config_for(tmp_path / "fx", tmp_path / "out"))
        estimates = {
            row["name"]: row["estimate"]
            for row in report["regression"]["coefficients"]
        }
        true_vec = np.array([truth["true_betas"][k] for k in estimates])
        est_vec = np.array(list(estimates.values()))
        rel_error = np.linalg.norm(est_vec - true_vec) / np.linalg.norm(true_vec)
        assert rel_error < 1e-3
        assert report["regression"]["r_squared"] > 0.999
