"""Command-line entry point: one binary, verb subcommands.

Verbs: solve, lambda (alias for solve --method lambda), graph, threshold,
gap, bounds.  Human-readable summaries go to stdout (suppress with
--quiet); machine payloads go to --out as JSON envelopes or CSV.

Exit codes: 0 success; 1 verification/audit violation; 2 usage error;
3 resource limit exceeded.

Configuration precedence: flags > environment (PERMCOVER_CACHE,
PERMCOVER_MAX_N, PERMCOVER_WORKERS) > built-in defaults.

Envelope layout: the scientific payload is reproducible bit-for-bit from
the echoed config (same seeds, any worker count); volatile run facts
(timestamp, wall time, worker count) live in a separate "execution"
block so payload comparisons stay byte-stable.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .cache import (
    DEFAULT_CACHE_DIR,
    best_known_size,
    load_certificate,
    store_certificate,
)
from .cover import (
    BoundTable,
    alteration_cover,
    exact_min_cover,
    greedy_cover,
    lambda_cover,
    verify_cover,
)
from .errors import ResourceLimitError
from .graph import audit_joint_coverage, build_graph
from .threshold import (
    critical_window_p,
    gap_experiment,
    p_for_mean,
    threshold_sweep,
)

_METHODS = ("exact", "greedy", "alteration", "lambda")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else default


def _resolve_workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    return max(1, _env_int("PERMCOVER_WORKERS", 1))


def _resolve_cache_dir(args) -> Path:
    if args.cache_dir is not None:
        return Path(args.cache_dir)
    env = os.environ.get("PERMCOVER_CACHE", "").strip()
    return Path(env) if env else Path(DEFAULT_CACHE_DIR)


def _say(args, message: str):
    if not args.quiet:
        print(message)


def _write_envelope(args, out_path, subcommand: str, config: dict, payload: dict,
                    warnings_list: list[str], wall_ms: float, workers: int):
    envelope = {
        "tool": "permcover",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "execution": {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "wall_time_ms": wall_ms,
            "workers": workers,
        },
        "warnings": warnings_list,
        "payload": payload,
    }
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text)
        _say(args, f"wrote {out_path}")
    return envelope


def _write_csv(args, out_path, header: tuple[str, ...], rows: list[dict],
               comments: list[str]):
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_csv_cell(row[col]) for col in header))
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
        _say(args, f"wrote {out_path}")
    return text


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_solve(args) -> int:
    method = args.method
    lam = args.lam
    if method == "lambda" and lam < 2:
        print("solve --method lambda requires --lambda >= 2", file=sys.stderr)
        return 2
    if method in ("alteration", "lambda") and args.seed is None:
        print(f"--method {method} requires --seed", file=sys.stderr)
        return 2
    seed = args.seed if method in ("alteration", "lambda") else None

    t0 = time.perf_counter()
    g = build_graph(args.n, max_n=args.max_n)
    cache_dir = _resolve_cache_dir(args)
    notes: list[str] = []

    cert = None
    if not args.no_cache:
        import warnings as _warnings

        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            cert = load_certificate(cache_dir, g, lam, method, seed)
        for w in caught:
            notes.append(str(w.message))
        if cert is not None:
            _say(args, f"cache hit: {cache_dir}")

    if cert is None:
        if method == "exact":
            cert = exact_min_cover(g, lam, time_budget=args.budget)
        elif method == "greedy":
            cert = greedy_cover(g, lam)
        elif method == "alteration":
            if lam != 1:
                print("alteration builds multiplicity-1 covers", file=sys.stderr)
                return 2
            cert = alteration_cover(g, seed, initial_size=args.initial_size)
        else:
            cert = lambda_cover(g, lam, seed, draws=args.initial_size)
        if not args.no_cache:
            store_certificate(cache_dir, cert)

    result = verify_cover(g, cert.selection_bitmap(), lam)
    wall_ms = (time.perf_counter() - t0) * 1000.0

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
    payload["verified"] = result.ok
    _write_envelope(args, args.out, "solve", config, payload, notes, wall_ms,
                    _resolve_workers(args))
    _say(
        args,
        f"solve n={cert.n} lambda={cert.lam} method={cert.method}: size={cert.size} "
        f"status={cert.status} lower_bound={cert.lower_bound} verified={result.ok}",
    )
    if not result.ok:
        print(
            f"verification FAILED: {len(result.deficiencies)} deficient patterns",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_graph(args) -> int:
    t0 = time.perf_counter()
    g = build_graph(args.n, max_n=args.max_n)
    # Build-time identity checks (cover counts, succession identity,
    # double counts) are enforced during construction; reaching here means
    # they hold.
    identity = {
        "covers_per_pattern": g.n * g.n + 1,
        "pattern_count": g.n_patterns,
        "cover_count": g.n_covers,
        "succession_total": int(g.succ_counts.sum()),
        "incidence_total": int(g.pattern_indptr[-1]),
    }
    payload: dict = {"n": g.n, "identity": identity}
    violating = False
    if args.audit:
        report = audit_joint_coverage(g)
        payload.update(report.to_payload())
        violating = bool(report.violations) or not report.bounds_ok
    wall_ms = (time.perf_counter() - t0) * 1000.0
    config = {
        "subcommand": "graph",
        "n": args.n,
        "audit": args.audit,
    }
    _write_envelope(args, args.out, "graph", config, payload, [], wall_ms,
                    _resolve_workers(args))
    if args.audit:
        _say(
            args,
            f"graph n={g.n}: max_J={payload['max_J']} max_C={payload['max_C']} "
            f"four_cover_pairs={payload['four_cover_pair_count']} "
            f"adjacent_swap_iff_holds={payload['adjacent_swap_iff_holds']} "
            f"violations={len(payload['violations'])}",
        )
    else:
        _say(args, f"graph n={g.n}: built, identities hold")
    return 1 if violating else 0


def _cmd_threshold(args) -> int:
    t0 = time.perf_counter()
    g = build_graph(args.n, max_n=args.max_n)
    grid = np.linspace(args.pmin, args.pmax, args.steps)
    report = threshold_sweep(
        g,
        grid,
        args.trials,
        args.seed,
        omega_ref=args.omega,
        workers=_resolve_workers(args),
    )
    wall_ms = (time.perf_counter() - t0) * 1000.0
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
        f"permcover {__version__} threshold",
        "config: " + json.dumps(config, sort_keys=True),
        f"p_zero(omega={args.omega})={_csv_cell(report.p_zero)}",
        f"p_one(omega={args.omega})={_csv_cell(report.p_one)}",
    ]
    _write_csv(args, args.out, report.CSV_COLUMNS, report.to_rows(), comments)
    boundaries = (
        f"; boundaries p_zero={report.p_zero:.6f} p_one={report.p_one:.6f}"
        if report.p_zero is not None
        else ""
    )
    _say(
        args,
        f"threshold n={g.n}: {args.steps} points x {args.trials} trials; "
        f"phat {report.rows[0].phat:.4f} -> {report.rows[-1].phat:.4f}"
        f"{boundaries} ({wall_ms:.0f} ms)",
    )
    return 0


def _cmd_gap(args) -> int:
    t0 = time.perf_counter()
    g = build_graph(args.n, max_n=args.max_n)
    if args.K is not None:
        p = critical_window_p(args.n, args.K)
        k_nominal = args.K
    elif args.lambda_target is not None:
        p = p_for_mean(args.n, args.lambda_target)
        k_nominal = None
    else:
        p = args.p
        k_nominal = None
    report = gap_experiment(
        g,
        p,
        args.trials,
        args.seed,
        K_nominal=k_nominal,
        workers=_resolve_workers(args),
    )
    wall_ms = (time.perf_counter() - t0) * 1000.0
    config = {
        "subcommand": "gap",
        "n": args.n,
        "K": args.K,
        "lambda_target": args.lambda_target,
        "p": args.p,
        "trials": args.trials,
        "seed": args.seed,
    }
    _write_envelope(args, args.out, "gap", config, report.to_payload(),
                    report.warnings, wall_ms, _resolve_workers(args))
    _say(
        args,
        f"gap n={g.n} p={p:.6f}: lambda_exact={report.lambda_exact:.4f} "
        f"empirical_mean={report.empirical_mean:.4f} tv={report.tv_to_poisson:.4f} "
        f"cover_prob={report.cover_probability.estimate:.4f} ({wall_ms:.0f} ms)",
    )
    return 0


def _cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    cache_dir = _resolve_cache_dir(args)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        table = BoundTable.evaluate(n, args.lam)
        known = best_known_size(cache_dir, n, args.lam)
        rows.append(
            {
                "n": n,
                "lambda": args.lam,
                "pigeonhole_lower": table.pigeonhole_lower,
                "alteration_upper": table.alteration_upper,
                "alteration_upper_n2": table.alteration_upper_n2,
                "multicover_upper": table.multicover_upper,
                "best_known_size": None if known is None else known[0],
                "best_known_status": None if known is None else known[1],
            }
        )
    wall_ms = (time.perf_counter() - t0) * 1000.0
    config = {
        "subcommand": "bounds",
        "n_min": args.n_min,
        "n_max": args.n_max,
        "lambda": args.lam,
    }
    header = (
        "n",
        "lambda",
        "pigeonhole_lower",
        "alteration_upper",
        "alteration_upper_n2",
        "multicover_upper",
        "best_known_size",
        "best_known_status",
    )
    comments = [
        f"permcover {__version__} bounds",
        "config: " + json.dumps(config, sort_keys=True),
    ]
    _write_csv(args, args.out, header, rows, comments)
    for row in rows:
        _say(
            args,
            f"n={row['n']}: lower={row['pigeonhole_lower']}"
            + (
                f" alteration_upper={row['alteration_upper']:.2f}"
                if row["alteration_upper"] is not None
                else ""
            )
            + (
                f" best_known={row['best_known_size']} ({row['best_known_status']})"
                if row["best_known_size"] is not None
                else ""
            ),
        )
    _say(args, f"bounds evaluated in {wall_ms:.0f} ms")
    return 0


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
    parser.add_argument("--workers", type=int, default=None,
                        help="worker threads for Monte Carlo (default: PERMCOVER_WORKERS or 1)")
    parser.add_argument("--cache-dir", default=None,
                        help="certificate cache directory (default: PERMCOVER_CACHE or ./permcover-cache)")
    parser.add_argument("--max-n", type=int, default=None,
                        help="override the enumeration limit (default: PERMCOVER_MAX_N or 8)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    solve = sub.add_parser("solve", help="build or prove a cover certificate")
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--lambda", dest="lam", type=int, default=1)
    solve.add_argument("--method", choices=_METHODS, required=True)
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--budget", type=float, default=60.0,
                       help="time budget in seconds for --method exact")
    solve.add_argument("--initial-size", type=int, default=None,
                       help="override the randomized constructions' initial sample size")
    solve.add_argument("--no-cache", action="store_true")
    solve.add_argument("--out", default=None, help="write the result envelope JSON here")
    solve.set_defaults(handler=_cmd_solve)

    lam = sub.add_parser("lambda", help="shorthand for solve --method lambda")
    lam.add_argument("--n", type=int, required=True)
    lam.add_argument("--lambda", dest="lam", type=int, required=True)
    lam.add_argument("--seed", type=int, required=True)
    lam.add_argument("--initial-size", type=int, default=None)
    lam.add_argument("--no-cache", action="store_true")
    lam.add_argument("--out", default=None)
    lam.set_defaults(handler=_cmd_solve, method="lambda", budget=60.0)

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
    threshold.add_argument("--omega", type=float, default=2.0,
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


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2


def main():  # pragma: no cover - thin wrapper
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
