"""The declared runtime dependencies match the one kernel implementation."""
import re
from pathlib import Path

import pytest

import permcover


def test_single_numpy_backend():
    assert permcover.BACKEND == "numpy"


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(path.read_text())["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps]
    assert names == ["numpy"]


def test_only_the_cli_reads_the_environment():
    # run settings are resolved once, when the CLI parses its arguments
    src = Path(__file__).resolve().parents[1] / "src" / "permcover"
    readers = sorted(path.name for path in src.glob("*.py") if "os.environ" in path.read_text())
    assert readers == ["cli.py"]


def test_every_export_resolves_once():
    assert len(set(permcover.__all__)) == len(permcover.__all__)
    assert [name for name in permcover.__all__ if not hasattr(permcover, name)] == []
