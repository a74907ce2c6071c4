"""Command-line entry point: one binary, verb subcommands.

Verbs: solve, lambda (alias for solve --method lambda), graph, threshold,
gap, bounds.  Human-readable summaries go to stdout (suppress with
--quiet); machine payloads go to --out as JSON envelopes or CSV.

One exit path: a verb's handler computes and returns a `Result`; only
`dispatch` times it, writes the output, prints the summary and returns the
exit code: 0 success; 1 verification/audit violation (output still
written); 2 usage error, from argparse or else "invalid arguments: ...";
3 resource limit exceeded.

Configuration precedence: flags > environment (PERMCOVER_CACHE,
PERMCOVER_MAX_N, PERMCOVER_WORKERS) > built-in defaults.  The parser is
built once and never changed; `_settle` fills each setting its flag left
unset after every parse, and nothing else reads the variables: a bad value
is a usage error before any work.  `dispatch` changes no process-wide state
but the held graphs.

Graphs: the handlers get each coverage graph from `_graph`, which keeps
one per n for the process, so repeat in-process jobs, concurrent ones
too, build a graph and its pair statistics once.

Envelope layout: the scientific payload is reproducible bit-for-bit from
the echoed config (same seeds, any worker count); volatile run facts
(timestamp, wall time, worker count, numpy version) live in a separate
"execution" block so payload comparisons stay byte-stable.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .cache import (
    DEFAULT_CACHE_DIR,
    best_known_size,
    load_certificate,
    store_certificate,
)
from .cover import (
    METHODS,
    alteration_cover,
    alteration_upper_bound,
    alteration_upper_bound_loose,
    check_lam,
    exact_min_cover,
    greedy_cover,
    lambda_cover,
    multicover_upper_bound,
    pigeonhole_lower_bound,
    verify_cover,
)
from .errors import ResourceLimitError
from .graph import DEFAULT_MAX_N, CoverageGraph, audit_joint_coverage, build_graph
from .threshold import (
    MAX_WORKERS,
    critical_window_p,
    gap_experiment,
    p_for_mean,
    threshold_boundaries,
    threshold_sweep,
)


def _workers(text: str) -> int:
    """argparse type for --workers: an integer in [1, MAX_WORKERS]."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"workers must be an integer >= 1, got {text!r}")
    if value > MAX_WORKERS:
        raise argparse.ArgumentTypeError(f"workers must be at most {MAX_WORKERS}, got {text!r}")
    return value


def _positive_finite(name: str):
    """argparse type: a positive, finite float, called ``name`` in errors."""
    def number(text: str) -> float:
        value = float(text)
        if not 0 < value < math.inf:  # also rejects NaN
            raise argparse.ArgumentTypeError(f"{name} must be positive and finite, got {text}")
        return value
    return number


class Result(NamedTuple):
    """What a handler hands back to `dispatch`, which times, writes and exits."""

    config: dict  # the echoed configuration
    output: dict | list[dict]  # an envelope's payload, or CSV rows
    notes: list[str]  # the envelope's warnings, or CSV comment lines
    summary: list[str]  # stdout lines, the last of which `dispatch` ends with the time
    code: int = 0
    error: str = ""  # the stderr line of an exit 1


def _write(args, result: Result, wall_ms: float):
    """Write ``result`` to --out, if given, as an envelope around a payload
    dict or as CSV led by a version line, the config and the notes.  The
    text is built either way, so a NaN or Infinity is an error without
    --out too; an --out that cannot be written is a usage error."""
    config, output = result.config, result.output
    if isinstance(output, dict):
        envelope = {
            "tool": "permcover",
            "version": __version__,
            "subcommand": config["subcommand"],
            "config": config,
            "execution": {
                "created_utc": datetime.now(timezone.utc).isoformat(),
                "wall_time_ms": wall_ms,
                "workers": args.workers,
                "numpy": np.__version__,
            },
            "warnings": result.notes,
            "payload": output,
        }
        # allow_nan=False: a NaN or Infinity is not JSON and must not reach a payload
        text = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)
    else:
        lines = [
            f"# permcover {__version__} {config['subcommand']}",
            "# config: " + json.dumps(config, sort_keys=True, allow_nan=False),
            *(f"# {c}" for c in result.notes),
            ",".join(output[0]),
        ]
        for row in output:
            lines.append(",".join(_csv_cell(row[col]) for col in output[0]))
        text = "\n".join(lines)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Subcommand handlers

_GRAPHS: dict[int, CoverageGraph] = {}  # one per n, kept for the process
_GRAPHS_LOCK = threading.Lock()  # so concurrent first jobs at one n build once


def _graph(n: int, max_n: int) -> CoverageGraph:
    """The graph for n, built once; past ``max_n``, `build_graph` still raises."""
    with _GRAPHS_LOCK:
        if n > max_n or n not in _GRAPHS:
            _GRAPHS[n] = build_graph(n, max_n=max_n)  # by name: the tracer wraps it
        return _GRAPHS[n]


def _cmd_solve(args) -> Result:
    method = args.method
    lam = args.lam
    if method == "lambda" and lam < 2:
        raise ValueError("solve --method lambda requires --lambda >= 2")
    if method == "alteration" and lam != 1:
        raise ValueError("alteration builds multiplicity-1 covers")
    check_lam(args.n, lam)
    if method in ("alteration", "lambda") and args.seed is None:
        raise ValueError(f"--method {method} requires --seed")
    if method in ("exact", "greedy") and args.initial_size is not None:
        raise ValueError(f"--method {method} takes no --initial-size")
    seed = args.seed if method in ("alteration", "lambda") else None

    g = _graph(args.n, args.max_n)
    notes: list[str] = []
    summary: list[str] = []

    # A request with its own initial size neither reads nor writes the
    # cache: the key names only the method's default.
    use_cache = not args.no_cache and args.initial_size is None
    cert = None
    deficient = 0  # load_certificate serves only covers it has just verified against g
    if use_cache:
        cert = load_certificate(args.cache_dir, g, lam, method, seed, notes)
        if cert is not None:
            summary.append(f"cache hit: {args.cache_dir}")

    if cert is None:
        if method == "exact":
            cert = exact_min_cover(g, lam, time_budget=args.budget)
        elif method == "greedy":
            cert = greedy_cover(g, lam)
        elif method == "alteration":
            cert = alteration_cover(g, seed, initial_size=args.initial_size)
        else:
            cert = lambda_cover(g, lam, seed, draws=args.initial_size)
        deficient = len(verify_cover(g, cert.selected, lam).deficiencies)
        # store_certificate keeps an exact result only when its dual proves it
        if use_cache and not deficient:
            try:
                store_certificate(args.cache_dir, cert)
            except OSError as exc:  # the cover is verified: report it, uncached
                notes.append(f"could not store the certificate in {args.cache_dir}: "
                             f"{exc.strerror or exc}")

    config = {
        "subcommand": "solve",
        "n": args.n,
        "lambda": lam,
        "method": method,
        "seed": seed,
        "budget_seconds": args.budget if method == "exact" else None,
        "initial_size": args.initial_size,
    }
    payload = cert.to_json_dict()
    payload["verified"] = not deficient
    summary.append(
        f"solve n={cert.n} lambda={cert.lam} method={cert.method}: size={cert.size} "
        f"status={cert.status} lower_bound={cert.lower_bound} verified={not deficient}"
    )
    failed = f"verification FAILED: {deficient} deficient patterns" if deficient else ""
    return Result(config, payload, notes, summary, 1 if deficient else 0, failed)


def _cmd_graph(args) -> Result:
    g = _graph(args.n, args.max_n)
    # Build-time identity checks (cover counts, succession identity,
    # double counts) are enforced during construction; reaching here means
    # they hold.
    identity = {
        "covers_per_pattern": g.n * g.n + 1,
        "pattern_count": g.n_patterns,
        "cover_count": g.n_covers,
        "succession_total": int(g.succ_counts.sum()),
        "incidence_total": int(np.count_nonzero(g.pattern_rows < g.n_patterns)),
    }
    payload: dict = {"n": g.n, "identity": identity}
    config = {
        "subcommand": "graph",
        "n": args.n,
        "audit": args.audit,
    }
    if not args.audit:
        return Result(config, payload, [], [f"graph n={g.n}: built, identities hold"])
    payload.update(audit_joint_coverage(g))
    summary = (
        f"graph n={g.n}: max_J={payload['max_J']} max_C={payload['max_C']} "
        f"four_cover_pairs={payload['four_cover_pair_count']} "
        f"adjacent_swap_iff_holds={payload['adjacent_swap_iff_holds']} "
        f"violations={len(payload['violations'])}"
    )
    return Result(config, payload, [], [summary], 1 if payload["violations"] else 0)


def _cmd_threshold(args) -> Result:
    g = _graph(args.n, args.max_n)
    p_zero, p_one = threshold_boundaries(g.n, args.omega) if g.n >= 2 else (None, None)
    grid = np.linspace(args.pmin, args.pmax, args.steps)
    rows = threshold_sweep(g, grid, args.trials, args.seed, workers=args.workers)
    config = {
        "subcommand": "threshold",
        "n": args.n,
        "pmin": args.pmin,
        "pmax": args.pmax,
        "steps": args.steps,
        "trials": args.trials,
        "seed": args.seed,
        "omega": args.omega,
    }
    comments = [
        f"p_zero(omega={args.omega})={_csv_cell(p_zero)}",
        f"p_one(omega={args.omega})={_csv_cell(p_one)}",
    ]
    boundaries = (
        f"; boundaries p_zero={p_zero:.6f} p_one={p_one:.6f}" if p_zero is not None else ""
    )
    summary = (
        f"threshold n={g.n}: {args.steps} points x {args.trials} trials; "
        f"phat {rows[0]['phat']:.4f} -> {rows[-1]['phat']:.4f}{boundaries}"
    )
    return Result(config, rows, comments, [summary])


def _cmd_gap(args) -> Result:
    g = _graph(args.n, args.max_n)
    if args.K is not None:
        p = critical_window_p(args.n, args.K)
    elif args.lambda_target is not None:
        p = p_for_mean(args.n, args.lambda_target)
    else:
        p = args.p
    report = gap_experiment(
        g,
        p,
        args.trials,
        args.seed,
        K_nominal=args.K,
        workers=args.workers,
    )
    notes = report.pop("warnings")  # the envelope's, not the payload's
    config = {
        "subcommand": "gap",
        "n": args.n,
        "K": args.K,
        "lambda_target": args.lambda_target,
        "p": args.p,
        "trials": args.trials,
        "seed": args.seed,
    }
    summary = (
        f"gap n={g.n} p={p:.6f}: lambda_exact={report['lambda_exact']:.4f} "
        f"empirical_mean={report['empirical_mean']:.4f} tv={report['tv_to_poisson']:.4f} "
        f"cover_prob={report['cover_probability']['estimate']:.4f}"
    )
    return Result(config, report, notes, [summary])


def _cmd_bounds(args) -> Result:
    if args.n_max < args.n_min:
        raise ValueError("--n-min..--n-max must be a non-empty range")
    lam = args.lam
    check_lam(args.n_min, lam)  # n^2+1 grows with n: the smallest n binds
    rows, notes = [], []
    for n in range(args.n_min, args.n_max + 1):
        try:
            row = {
                "n": n,
                "lambda": lam,
                "pigeonhole_lower": pigeonhole_lower_bound(n, lam),
                "alteration_upper": alteration_upper_bound(n) if n >= 2 else None,
                "alteration_upper_n2": alteration_upper_bound_loose(n) if n >= 2 else None,
                "multicover_upper": (
                    multicover_upper_bound(n, lam) if lam >= 2 and n >= 3 else None
                ),
            }
        except OverflowError:  # (n+1)!/(n^2+1) from n = 172 on
            row = None
        if row is None or math.inf in row.values():
            raise ValueError(f"the bounds at n={n} exceed the largest float")
        known = best_known_size(args.cache_dir, n, lam, lambda n: _graph(n, args.max_n), notes)
        row["best_known_size"] = None if known is None else known[0]
        row["best_known_status"] = None if known is None else known[1]
        rows.append(row)
    config = {
        "subcommand": "bounds",
        "n_min": args.n_min,
        "n_max": args.n_max,
        "lambda": lam,
    }
    summary = []
    for row in rows:
        line = f"n={row['n']}: lower={row['pigeonhole_lower']}"
        if row["alteration_upper"] is not None:
            line += f" alteration_upper={row['alteration_upper']:.2f}"
        if row["best_known_size"] is not None:
            line += f" best_known={row['best_known_size']} ({row['best_known_status']})"
        summary.append(line)
    return Result(config, rows, notes, summary)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permcover",
        description="Covers of S_n by (n+1)-permutations: exact and randomized "
        "constructions, joint-coverage audits, and coverage-threshold Monte Carlo.",
    )
    parser.add_argument("--version", action="version", version=f"permcover {__version__}")
    parser.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    # None when absent: `_settle` fills these three from the environment
    parser.add_argument("--workers", type=_workers,
                        help=f"worker threads for Monte Carlo, 1..{MAX_WORKERS} "
                        "(default: PERMCOVER_WORKERS or 1)")
    parser.add_argument("--cache-dir",
                        help="certificate cache directory (default: PERMCOVER_CACHE or ./permcover-cache)")
    parser.add_argument("--max-n", type=int,
                        help=f"enumeration limit (default: PERMCOVER_MAX_N or {DEFAULT_MAX_N})")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # lambda is solve with its method fixed: both take these arguments
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--n", type=int, required=True)
    shared.add_argument("--lambda", dest="lam", type=int, default=1)
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument("--initial-size", type=int, default=None,
                        help="override the randomized constructions' initial sample size")
    shared.add_argument("--no-cache", action="store_true")
    shared.add_argument("--out", default=None, help="write the result envelope JSON here")

    solve = sub.add_parser("solve", parents=[shared], help="build or prove a cover certificate")
    solve.add_argument("--method", choices=METHODS, required=True)
    solve.add_argument("--budget", type=_positive_finite("time_budget"), default=60.0,
                       help="time budget in seconds for --method exact")
    solve.set_defaults(handler=_cmd_solve)

    lam = sub.add_parser("lambda", parents=[shared], help="shorthand for solve --method lambda")
    lam.set_defaults(handler=_cmd_solve, method="lambda")

    graph = sub.add_parser("graph", help="build the coverage graph and audit it")
    graph.add_argument("--n", type=int, required=True)
    graph.add_argument("--audit", action="store_true",
                       help="run the joint-coverage audit over all pattern pairs "
                       "(any n up to the enumeration limit)")
    graph.add_argument("--out", default=None)
    graph.set_defaults(handler=_cmd_graph)

    threshold = sub.add_parser("threshold", help="coverage-probability sweep over p")
    threshold.add_argument("--n", type=int, required=True)
    threshold.add_argument("--pmin", type=float, required=True)
    threshold.add_argument("--pmax", type=float, required=True)
    threshold.add_argument("--steps", type=int, required=True)
    threshold.add_argument("--trials", type=int, required=True)
    threshold.add_argument("--seed", type=int, required=True)
    threshold.add_argument("--omega", type=_positive_finite("omega"), default=2.0,
                           help="slack for the annotated analytic boundaries")
    threshold.add_argument("--out", default=None, help="write the sweep CSV here")
    threshold.set_defaults(handler=_cmd_threshold)

    gap = sub.add_parser("gap", help="distribution of the uncovered count at one p")
    gap.add_argument("--n", type=int, required=True)
    pick = gap.add_mutually_exclusive_group(required=True)
    pick.add_argument("--K", type=float, default=None,
                      help="critical-window offset (larger K = smaller p)")
    pick.add_argument("--lambda-target", type=float, default=None,
                      help="choose p so the exact mean uncovered count equals this")
    pick.add_argument("--p", type=float, default=None, help="selection probability directly")
    gap.add_argument("--trials", type=int, required=True)
    gap.add_argument("--seed", type=int, required=True)
    gap.add_argument("--out", default=None)
    gap.set_defaults(handler=_cmd_gap)

    bounds = sub.add_parser("bounds", help="analytic bound table across n")
    bounds.add_argument("--n-min", type=int, default=1)
    bounds.add_argument("--n-max", type=int, required=True)
    bounds.add_argument("--lambda", dest="lam", type=int, default=1)
    bounds.add_argument("--out", default=None)
    bounds.set_defaults(handler=_cmd_bounds)

    return parser


_PARSER = build_parser()


def _settle(args):
    """Fill each setting its flag left unset from its variable, read now,
    else from its default; a bad variable is a usage error naming it."""
    for flag, name, convert, default in (
        ("--workers", "PERMCOVER_WORKERS", _workers, 1),
        ("--cache-dir", "PERMCOVER_CACHE", str, DEFAULT_CACHE_DIR),
        ("--max-n", "PERMCOVER_MAX_N", int, DEFAULT_MAX_N),
    ):
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is not None:
            continue
        text = os.environ.get(name, "").strip()
        try:
            setattr(args, dest, convert(text) if text else default)
        except argparse.ArgumentTypeError as exc:
            _PARSER.error(f"argument {flag}: {exc} (from {name})")
        except ValueError:  # worded as argparse words it
            _PARSER.error(f"argument {flag}: invalid {convert.__name__} value: {text!r} "
                          f"(from {name})")
    return args


def dispatch(argv) -> int:
    try:
        args = _settle(_PARSER.parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        result = args.handler(args)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        _write(args, result, wall_ms)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:  # the last line ends with the run's time
        wrote = [f"wrote {args.out}"] if args.out else []
        print(*wrote, *result.summary, sep="\n", end=f" ({wall_ms:.0f} ms)\n")
    if result.error:
        print(result.error, file=sys.stderr)
    return result.code


def main():  # pragma: no cover - thin wrapper
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
