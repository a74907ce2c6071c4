"""The declared runtime dependencies match the one kernel implementation."""
import ast
import fnmatch
import re
import subprocess
import sys
from pathlib import Path

import pytest

import permcover

SRC = Path(__file__).resolve().parents[1] / "src" / "permcover"


def test_single_numpy_backend():
    assert permcover.BACKEND == "numpy"


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(path.read_text())["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps]
    assert names == ["numpy"]


def _imported_modules(path: Path) -> set[str]:
    """Every module a source file imports, relative ones without their dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return names


def test_dual_checker_imports_no_solver_code():
    # the certificate checker must not lean on the search it certifies
    names = _imported_modules(SRC / "dual.py")
    tops = {name.removeprefix("permcover.").split(".")[0] for name in names}
    assert not tops & {"cover", "cache", "cli", "_kernels"}, names


def test_library_imports_no_scipy():
    # scipy only generates the dual table, inside tests/test_dual.py
    for path in SRC.glob("*.py"):
        assert not any(name.split(".")[0] == "scipy" for name in _imported_modules(path)), path


def test_dual_table_is_package_data_and_loads_lazily():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    globs = tomllib.loads(path.read_text())["tool"]["setuptools"]["package-data"]["permcover"]
    assert any(fnmatch.fnmatch("data/duals.json", glob) for glob in globs)
    # the benchmark's setup time covers `import permcover`, which must not read it
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import permcover; "
              "assert permcover.dual._shipped_tables.cache_info().currsize == 0")
    proc = subprocess.run([sys.executable, "-c", script, str(SRC.parent)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_reads_no_package_metadata():
    # the version is a literal that pyproject.toml reads, so a fresh
    # `import permcover` (the benchmark's setup time) scans no sys.path for
    # installed distributions
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(path.read_text())
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "permcover.__version__"}
    assert re.fullmatch(r"\d+\.\d+\.\d+", permcover.__version__)
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import permcover; "
              "assert 'importlib.metadata' not in sys.modules, 'importlib.metadata'")
    proc = subprocess.run([sys.executable, "-c", script, str(SRC.parent)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_only_the_cli_reads_the_environment():
    # run settings are resolved once, when the CLI parses its arguments
    readers = sorted(path.name for path in SRC.glob("*.py") if "os.environ" in path.read_text())
    assert readers == ["cli.py"]


def test_every_export_resolves_once():
    assert len(set(permcover.__all__)) == len(permcover.__all__)
    assert [name for name in permcover.__all__ if not hasattr(permcover, name)] == []


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import of ``source`` and never read.

    Imports from ``__future__`` and lines marked ``# noqa: F401`` (names
    kept for outside code that looks them up on the module) are skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(name)
    return unused


def test_no_unused_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
    # the check itself catches a stray import
    assert unused_imports("import dataclasses\nimport os\nos.sep\n") == ["dataclasses"]
