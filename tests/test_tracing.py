"""The benchmark's span tracer still finds every name it patches."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_against_src():
    # perfbench/tracing.py wraps permcover functions by module and name, so
    # a renamed or deleted one breaks `--trace 1`.  A subprocess keeps the
    # patches out of the other tests.
    script = (
        "import sys; sys.path[:0] = sys.argv[1:3]; "
        "import permcover, tracing; "
        "assert permcover.__file__.startswith(sys.argv[1]), permcover.__file__; "
        "tracing.install()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
