"""permcover benchmark: real CLI jobs in a closed loop, with output checks.

    python3 perfbench/run.py --workload {sweep,gap,solve} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  One client drives `permcover.cli.dispatch`
in-process and issues the next job only when the previous one has
finished.  Jobs come in cycles (one job for `sweep`, four for `gap`, six
for `solve`); new cycles start until `--seconds` have passed, and the last
one is finished, so every run holds whole cycles.  Job seeds are drawn
from `--seed`.  Outputs are checked after the timed phase, so checking
costs no job time.

Why these workloads:
  sweep  the Monte Carlo hot path: RNG setup, sampling and counting on the
         threaded chunk path (--workers 2); no pair statistics, solver or
         cache.
  gap    the same Monte Carlo layer on one thread at one p, plus the pair
         statistics (dense joint-count matrix and histogram passes), which
         set the memory peak.
  solve  the combinatorial layers: branch and bound, greedy, patching,
         cache stores and hits, the n=6 audit and `perms.rank`; no Monte
         Carlo.

With `--trace 0` the last line of stdout carries the end-to-end metrics;
with `--trace 1` whole cycles alternate between traced and untraced, the
last line carries per-layer metrics (per traced job) and the spans are
written to `.perfbench/trace-<workload>.json`.  The lines before it give
the machine facts and the tail percentile with its sample count.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SETUP_N = 7  # the largest n any workload builds
TAIL_BEYOND = 10  # the tail percentile keeps this many jobs above it


@dataclass
class Job:
    argv: list[str]
    out: Path
    expect: Callable[[int, bytes], str | None]
    latency: float = 0.0
    code: int | None = None
    error: str | None = None
    traced: bool = False


def sweep_cycle(seeds, work, checker, n_cycle):
    s = seeds.randrange(2 ** 31)
    out = work / f"sweep-{n_cycle}.csv"
    argv = ["--quiet", "--workers", "2", "threshold", "--n", "7", "--pmin", "0.10",
            "--pmax", "0.21", "--steps", "4", "--trials", "512", "--seed", str(s),
            "--out", str(out)]
    return [Job(argv, out, lambda c, b: checker.sweep(c, b, s))]


def gap_cycle(seeds, work, checker, n_cycle):
    jobs = []
    for K in (-1.0, 0.0, 1.0, 2.0):
        s = seeds.randrange(2 ** 31)
        out = work / f"gap-{n_cycle}-{K:g}.json"
        argv = ["--quiet", "--workers", "1", "gap", "--n", "7", f"--K={K:g}",
                "--trials", "1024", "--seed", str(s), "--out", str(out)]
        jobs.append(Job(argv, out, lambda c, b, s=s, K=K: checker.gap(c, b, s, K)))
    return jobs


def solve_cycle(seeds, work, checker, n_cycle):
    s = seeds.randrange(2 ** 31)
    cache = ["--quiet", "--cache-dir", str(work / f"cache-{n_cycle}")]
    out = [work / f"solve-{n_cycle}-{i}.json" for i in range(6)]
    alteration = ["solve", "--n", "7", "--method", "alteration", "--seed", str(s)]
    return [
        Job(cache + ["solve", "--n", "4", "--method", "exact", "--no-cache",
                     "--out", str(out[0])], out[0],
            lambda c, b: checker.cover(c, b, 4, 1, "exact", None)),
        Job(cache + ["solve", "--n", "7", "--method", "greedy", "--no-cache",
                     "--out", str(out[1])], out[1],
            lambda c, b: checker.cover(c, b, 7, 1, "greedy", None)),
        Job(cache + alteration + ["--out", str(out[2])], out[2],
            lambda c, b: checker.cover(c, b, 7, 1, "alteration", s)),
        Job(cache + ["lambda", "--n", "7", "--lambda", "2", "--seed", str(s),
                     "--out", str(out[3])], out[3],
            lambda c, b: checker.cover(c, b, 7, 2, "lambda", s)),
        Job(cache + alteration + ["--out", str(out[4])], out[4],
            lambda c, b: checker.cover(c, b, 7, 1, "alteration", s)
            or checker.same_cover(c, b, out[2].read_bytes())),
        Job(["--quiet", "graph", "--n", "6", "--audit", "--out", str(out[5])], out[5],
            checker.audit),
    ]


WORKLOADS = {"sweep": sweep_cycle, "gap": gap_cycle, "solve": solve_cycle}


def measure_setup() -> float:
    """Seconds a fresh process takes to import permcover and build a graph."""
    code = (
        "import time; t0 = time.perf_counter(); import permcover; "
        f"permcover.build_graph({SETUP_N}); print(time.perf_counter() - t0)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_job(job: Job, dispatch, tracer, job_id: int):
    context = tracer.job(job_id) if job.traced else nullcontext()
    t0 = time.perf_counter()
    try:
        with context:
            job.code = dispatch(job.argv)
    except Exception as exc:  # a crashing job is a failed job; the loop goes on
        job.error = f"raised {exc!r}"
    job.latency = time.perf_counter() - t0


def check_job(job: Job):
    if job.error is None:
        try:
            job.error = job.expect(job.code, job.out.read_bytes())
        except Exception as exc:  # malformed output
            job.error = f"check raised {exc!r}"


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND jobs above it, and its value."""
    xs = sorted(latencies)
    if len(xs) <= TAIL_BEYOND:
        return 100.0, xs[-1]
    return 100.0 * (len(xs) - TAIL_BEYOND) / len(xs), xs[-1 - TAIL_BEYOND]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(jobs, wall, setup) -> dict:
    latencies = [j.latency for j in jobs]
    failed = sum(j.error is not None for j in jobs)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "jobs_per_s": metric(len(jobs) / wall, "1/s"),
        "job_s.p50": metric(statistics.median(latencies), "s"),
        "job_s.tail": metric(tail(latencies)[1], "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": metric((len(jobs) - failed) / len(jobs), "ratio"),
    }


LAYER_TIMES = (
    "graph.build_s", "graph.joint_matrix_s", "graph.audit_s",
    "kernels.lehmer_ranks_s", "kernels.count_uncovered_s",
    "kernels.joint_pair_counts_s", "kernels.greedy_select_s",
    "threshold.rng_s", "threshold.sample_s", "threshold.pairstats_s",
    "threshold.report_s",
    "cover.exact_s", "cover.greedy_s", "cover.alteration_s", "cover.lambda_s",
    "cover.verify_s", "cache.load_s", "cache.store_s", "perms.rank_s", "cli.self_s",
)
LAYER_COUNTS = (
    ("graph.build_calls", "count/job"), ("kernels.count_bytes", "bytes/job"),
    ("threshold.trials", "count/job"), ("cover.exact_branches", "count/job"),
    ("cache.hits", "count/job"), ("cache.misses", "count/job"),
    ("cache.quarantined", "count/job"), ("perms.rank_calls", "count/job"),
)


def per_layer(tracer, jobs) -> dict:
    busy, job_time, blocking = tracing.layer_totals(tracer)
    traced = [j.latency for j in jobs if j.traced]
    plain = [j.latency for j in jobs if not j.traced]
    n = len(traced)
    counts = tracer.counts
    out = {name: metric(busy[name] / n, "s/job") for name in LAYER_TIMES}
    out.update({name: metric(counts[name] / n, unit) for name, unit in LAYER_COUNTS})
    looked_up = counts["cache.hits"] + counts["cache.misses"]
    out["cache.hit_ratio"] = metric(counts["cache.hits"] / looked_up if looked_up else 0.0,
                                    "ratio")
    exact = busy["cover.exact_s"]
    out["cover.exact_branches_per_s"] = metric(
        counts["cover.exact_branches"] / exact if exact else 0.0, "1/s")
    out["trace.job_s"] = metric(job_time / n, "s/job")
    out["trace.blocking_share"] = metric(blocking / job_time, "ratio")
    out["trace.overhead_s"] = metric(
        statistics.median(traced) - statistics.median(plain) if plain else 0.0, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permcover" / "cli.py").is_file():
        print(f"perfbench: no permcover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import permcover
    from permcover.cli import dispatch
    from checks import Checker

    setup = [] if args.trace else [measure_setup() for _ in range(SETUP_SAMPLES)]
    tracer = tracing.install() if args.trace else None
    checker = Checker()
    make_cycle = WORKLOADS[args.workload]
    seeds = random.Random(args.seed)
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Warm-up: the first job of a cycle, with a seed the timed phase skips.
        run_job(make_cycle(seeds, work, checker, "warmup")[0], dispatch, tracer, -1)

        jobs: list[Job] = []
        start = time.perf_counter()
        n_cycle = 0
        while time.perf_counter() - start < args.seconds:
            for job in make_cycle(seeds, work, checker, n_cycle):
                job.traced = tracer is not None and n_cycle % 2 == 0
                run_job(job, dispatch, tracer, len(jobs))
                jobs.append(job)
            n_cycle += 1
        wall = time.perf_counter() - start

        for job in jobs:
            check_job(job)
        if args.workload == "sweep":
            # Payloads must be bit-identical for any --workers value.
            first = jobs[0]
            again = Job(first.argv[:], work / "sweep-workers1.csv", first.expect)
            again.argv[again.argv.index("--workers") + 1] = "1"
            again.argv[-1] = str(again.out)
            run_job(again, dispatch, tracer, -1)
            if first.error is None and (again.code != 0 or
                                        again.out.read_bytes() != first.out.read_bytes()):
                first.error = "--workers 1 output differs from --workers 2"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        metrics = per_layer(tracer, jobs)
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}.json")
    else:
        metrics = end_to_end(jobs, wall, setup)

    failed = [j for j in jobs if j.error is not None]
    for job in failed[:5]:
        print(f"FAILED {' '.join(job.argv[1:])}: {job.error}", file=sys.stderr)
    pct, value = tail([j.latency for j in jobs])
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "backend": permcover.BACKEND, "commit": git_commit(),
    }
    print(json.dumps({"machine": facts}))
    print(f"jobs={len(jobs)} failed={len(failed)} error_rate={len(failed) / len(jobs):.4f} "
          f"job_s.tail=p{pct:.1f} ({value:.4f} s) over {len(jobs)} jobs")
    print(json.dumps({"correct": not failed, "attempted": len(jobs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
