"""Checks on the test configuration and on rules the whole package keeps."""

import dataclasses
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np

import di_decomp
from di_decomp.series import _Container

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def test_failing_property_test_is_reported_as_a_failure(tmp_path):
    """A falsified ``@given`` test fails like any other, under the warning filters."""
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_negative(x):\n"
        "    assert x < 0\n",
        encoding="utf-8",
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr


def test_every_container_of_arrays_unpickles_through_the_shared_rule():
    """A dataclass with an array field rebuilds through its constructor and
    freezes its arrays when unpickled, so none can come back writable."""
    holders = set()
    for info in pkgutil.iter_modules(di_decomp.__path__, "di_decomp."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == info.name
                    and dataclasses.is_dataclass(cls)
                    and np.ndarray in typing.get_type_hints(cls).values()):
                holders.add(cls.__name__)
                assert issubclass(cls, _Container), cls.__name__
                assert cls.__reduce__ is _Container.__reduce__, cls.__name__
    assert holders >= {"DailySeries", "Frame", "StandardizationParams", "OlsFit",
                       "PlsModel", "VarianceShares"}


def test_every_traced_name_is_wrapped_and_restored():
    """The benchmark's tracer finds every name it wraps, and puts each back."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # the standard library only
    names = [(tracing._resolve(path), attr) for path, attr, _, _ in tracing.TARGETS]
    originals = [vars(owner).get(attr) for owner, attr in names]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (owner, attr), original in zip(names, originals):
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    assert [vars(owner).get(attr) for owner, attr in names] == originals
