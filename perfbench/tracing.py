"""Span tracing installed on permcover from outside the package.

`install()` replaces the functions the CLI calls into each module with
wrappers that record a span (name, start, end, parent, job id, thread id)
while a job is open and call straight through otherwise.  A name is
patched where it is looked up: `cli` imports `build_graph` by name, so the
wrapper goes on `permcover.cli`; `threshold` reaches the counting kernel
through the `_kernels` module, so that wrapper goes on `_kernels`.

Layers are named after the package modules, with `_kernels` reported as
`kernels` because metric names must start with a letter.  A layer's time
is the self time of its spans (span duration minus the part covered by
child spans), summed over threads, so with `--workers 2` it is busy time.
"""
from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

JOB_SPAN = "cli.dispatch"


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    job: int
    thread: int


class Tracer:
    """Spans and counters for the jobs run under `job()`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.layer_of: dict[str, str] = {JOB_SPAN: "cli.self_s"}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._job: Span | None = None
        self._client: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def job(self, job_id: int):
        """Open the root span of one CLI job on the calling thread."""
        span = Span(JOB_SPAN, time.perf_counter(), 0.0, None, job_id,
                    threading.get_ident())
        stack = self._stack()
        stack.append(span)
        self._client = stack
        self._job = span
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self._job = None
            self.spans.append(span)

    def count(self, key: str, amount: int = 1):
        with self._lock:
            self.counts[key] += amount

    def wrap(self, owner, attr: str, layer: str, counts=None):
        """Record a span around every call of ``owner.attr`` inside a job.

        ``counts(args, kwargs, result)`` may return (counter, amount) pairs
        to add once the call returns.
        """
        fn = getattr(owner, attr)
        name = f"{fn.__module__.removeprefix('permcover.')}.{fn.__qualname__}"
        self.layer_of[name] = layer
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = tracer._job
            if job is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # A pool thread has no span of its own open: its parent is the
            # span the job's thread is blocked in.
            parent = stack[-1] if stack else tracer._client[-1]
            span = Span(name, time.perf_counter(), 0.0, parent, job.job,
                        threading.get_ident())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counts is not None:
                for key, amount in counts(args, kwargs, result):
                    tracer.count(key, amount)
            return result

        setattr(owner, attr, traced)

    def wrap_counter(self, owner, attr: str, key: str, inside: str | None = None):
        """Count calls of ``owner.attr`` inside a job (only those made
        directly from a span named ``inside``, when given), without a span."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._job is not None:
                stack = tracer._stack()
                if inside is None or (stack and stack[-1].name == inside):
                    tracer.count(key)
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def write(self, path):
        """Write every span as [name, start, end, parent index, job, thread]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s.name, s.start, s.end,
             None if s.parent is None else index[id(s.parent)], s.job, s.thread]
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}))


def install() -> Tracer:
    """Patch permcover's layer entry points and return the tracer."""
    from permcover import _kernels, cache, cli, cover, graph, threshold

    tracer = Tracer()
    span = tracer.wrap

    span(cli, "build_graph", "graph.build_s",
         lambda a, k, r: [("graph.build_calls", 1)])
    span(cli, "audit_joint_coverage", "graph.audit_s")
    span(graph.CoverageGraph, "joint_count_matrix", "graph.joint_matrix_s")
    span(_kernels, "lehmer_ranks", "kernels.lehmer_ranks_s")
    span(_kernels, "count_uncovered_chunk", "kernels.count_uncovered_s",
         lambda a, k, r: [("kernels.count_bytes", a[1].shape[0] * a[0].size)])
    span(_kernels, "joint_pair_counts", "kernels.joint_pair_counts_s")
    span(_kernels, "greedy_select", "kernels.greedy_select_s")

    span(cli, "threshold_sweep", "threshold.report_s")
    span(cli, "gap_experiment", "threshold.report_s")
    span(threshold, "run_uncovered_counts", "threshold.sample_s",
         lambda a, k, r: [("threshold.trials", int(r.sum()))])
    # Private, but it is the unit of work each pool thread runs: without it
    # the sampling a pool thread does would belong to no span.
    span(threshold, "_run_chunk", "threshold.sample_s")
    span(threshold, "trial_rng", "threshold.rng_s")
    span(threshold, "exact_variance", "threshold.pairstats_s")
    span(threshold, "stein_chen_raw", "threshold.pairstats_s")

    span(cli, "exact_min_cover", "cover.exact_s")
    span(cli, "greedy_cover", "cover.greedy_s")
    span(cover, "greedy_cover", "cover.greedy_s")  # exact_min_cover's incumbent
    span(cli, "alteration_cover", "cover.alteration_s")
    span(cli, "lambda_cover", "cover.lambda_s")
    span(cli, "verify_cover", "cover.verify_s")
    span(cache, "verify_cover", "cover.verify_s")

    span(cli, "load_certificate", "cache.load_s",
         lambda a, k, r: [("cache.misses" if r is None else "cache.hits", 1)])
    span(cli, "store_certificate", "cache.store_s")
    tracer.wrap_counter(cache, "_quarantine", "cache.quarantined")

    span(graph, "rank", "perms.rank_s", lambda a, k, r: [("perms.rank_calls", 1)])
    span(cover, "rank", "perms.rank_s", lambda a, k, r: [("perms.rank_calls", 1)])

    tracer.wrap_counter(graph.CoverageGraph, "pattern_row", "cover.exact_branches",
                        inside="cover.exact_min_cover")
    return tracer


def _covered(spans) -> float:
    """Length of the union of the spans' intervals."""
    total, reach = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end > reach:
            total += s.end - max(s.start, reach)
            reach = s.end
    return total


def layer_totals(tracer: Tracer) -> tuple[Counter, float, float]:
    """Self time per layer, job time and blocking-path time, all summed.

    The blocking path of a job is what its own thread did: the self time of
    each span on that thread, plus the wall time it spent waiting on spans
    run by pool threads.  It adds up to the job time when every span nests
    inside its parent.
    """
    children = defaultdict(list)
    for s in tracer.spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    job_thread = {s.job: s.thread for s in tracer.spans if s.parent is None}
    busy: Counter = Counter()
    job_time = blocking = 0.0
    for s in tracer.spans:
        kids = children[id(s)]
        own = (s.end - s.start) - _covered(kids)
        busy[tracer.layer_of[s.name]] += own
        if s.parent is None:
            job_time += s.end - s.start
        if s.thread == job_thread[s.job]:
            blocking += own + _covered([k for k in kids if k.thread != s.thread])
    return busy, job_time, blocking
