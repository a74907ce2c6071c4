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


def test_tracer_counts_exact_branches():
    # The benchmark's `cover.exact_branches` counts pattern_row calls made
    # directly by exact_min_cover, one per branch; a solver that stops
    # reading rows that way would zero the metric without failing a run.
    script = (
        "import sys; sys.path[:0] = sys.argv[1:3]; "
        "import tracing; tracer = tracing.install(); "
        "from permcover.cli import dispatch\n"
        "with tracer.job(0):\n"
        "    code = dispatch(['--quiet', 'solve', '--n', '3', '--lambda', '3', "
        "'--method', 'exact', '--no-cache'])\n"
        "assert code == 0, code\n"
        "assert tracer.counts['cover.exact_branches'] == 3672, tracer.counts\n"
        "assert any(s.name == '_kernels.greedy_select' for s in tracer.spans)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_times_the_pair_statistics_once_per_gap_job(tmp_path):
    # `kernels.joint_pair_counts_s` is the kernel's span.  A gap job builds
    # one graph and computes its pair statistics once, through the graph's
    # cached joint_count_matrix; a kernel split into helpers, or a caller
    # that bypassed the graph, would zero or inflate the metric without
    # failing a run.
    script = (
        "import sys; sys.path[:0] = sys.argv[1:3]; "
        "import tracing; tracer = tracing.install(); "
        "from permcover.cli import dispatch\n"
        "with tracer.job(0):\n"
        "    code = dispatch(['--quiet', 'gap', '--n', '5', '--K=0', '--trials', '256', "
        "'--seed', '1', '--out', sys.argv[3]])\n"
        "assert code == 0, code\n"
        "spans = [s for s in tracer.spans if s.name == '_kernels.joint_pair_counts']\n"
        "assert len(spans) == 1, spans\n"
        "assert spans[0].parent.name == 'graph.CoverageGraph.joint_count_matrix', spans[0]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path / "gap.json")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_sees_a_cache_hit_ranked_by_the_kernel(tmp_path):
    # A cache hit parses the stored `selected` list into one table that
    # `_kernels.lehmer_ranks` ranks, inside the load's span; a parser that
    # went back to the scalar `cover.rank` would count one
    # `perms.rank_calls` per cover (2267 here) without failing a run.
    script = (
        "import sys; sys.path[:0] = sys.argv[1:3]; "
        "import tracing; tracer = tracing.install(); "
        "from permcover.cli import dispatch\n"
        "argv = ['--quiet', '--cache-dir', sys.argv[3], 'solve', '--n', '7', "
        "'--method', 'alteration', '--seed', '1']\n"
        "assert dispatch(argv) == 0\n"
        "with tracer.job(0):\n"
        "    code = dispatch(argv)\n"
        "assert code == 0, code\n"
        "assert tracer.counts['cache.hits'] == 1, tracer.counts\n"
        "assert tracer.counts['perms.rank_calls'] == 0, tracer.counts\n"
        "assert any(s.name == '_kernels.lehmer_ranks' "
        "and s.parent.name == 'cache.load_certificate' for s in tracer.spans)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path / "cache")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
