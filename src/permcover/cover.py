"""Constructing and certifying covers of S_n by subsets of S_{n+1}.

A cover is a set A of (n+1)-permutations such that every n-permutation is
a one-letter-deletion pattern of at least one (more generally, at least
lambda) member of A.  This module provides the analytic bounds, a
deterministic greedy baseline, the two randomized constructions
(random-then-patch at multiplicity 1, and with-replacement sampling plus
patching for multiplicity >= 2), and an exact branch-and-bound solver for
the minimum cover size.

Natural log everywhere.
"""
from __future__ import annotations

import dataclasses
import time
from math import ceil, exp, factorial, lgamma, log

import numpy as np

from . import _kernels
from .graph import CoverageGraph, PermSetBitmap, covers_per_pattern, selection_flags
from .perms import format_perm, unrank, parse_perm, rank


# ---------------------------------------------------------------------------
# Analytic bounds


def pigeonhole_lower_bound(n: int, lam: int = 1) -> int:
    """ceil(lam * n! / (n+1)): each cover handles at most n+1 patterns."""
    if n < 1 or lam < 1:
        raise ValueError("need n >= 1 and lam >= 1")
    return -(-lam * factorial(n) // (n + 1))


def alteration_upper_bound(n: int) -> float:
    """Random-selection-plus-patching bound on the minimum cover size.

    ((n+1)!/(n^2+1)) * (1 + log((n^2+1)/(n+1))), the optimized form of
    Y + n! exp(-Y (n^2+1)/(n+1)!).
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    k = covers_per_pattern(n)
    return factorial(n + 1) / k * (1.0 + log(k / (n + 1)))


def alteration_upper_bound_loose(n: int) -> float:
    """Same bound with the n^2 normalization of the prefactor.

    The asymptotic statement divides by n^2 rather than n^2+1; both
    normalizations are reported side by side in the bounds table.
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    k = covers_per_pattern(n)
    return factorial(n + 1) / (n * n) * (1.0 + log(k / (n + 1)))


def alteration_default_initial_size(n: int) -> int:
    """Optimizing initial sample size Y for the random-then-patch build."""
    if n < 2:
        raise ValueError("defined for n >= 2")
    k = covers_per_pattern(n)
    return round(factorial(n + 1) / k * log(k / (n + 1)))


def multicover_upper_bound(n: int, lam: int) -> float:
    """Bound on the minimum lambda-cover size for lam >= 2.

    ((n+1)!/(n^2+1)) * (log n + (lam-1) log log n + lam/(lam-1)!); the
    final term is the explicit patching cost that asymptotic statements
    absorb into O(1).  Needs n >= 3 so that log log n > 0.
    """
    if lam < 2:
        raise ValueError("multicover bound is for lam >= 2")
    if n < 3:
        raise ValueError("needs n >= 3 (log log n must be positive)")
    k = covers_per_pattern(n)
    return factorial(n + 1) / k * (
        log(n) + (lam - 1) * log(log(n)) + lam / factorial(lam - 1)
    )


def multicover_default_draws(n: int, lam: int) -> int:
    """With-replacement draw count Y for the lambda-cover construction."""
    if lam < 2:
        raise ValueError("lam >= 2 required")
    if n < 3:
        raise ValueError("needs n >= 3 (log log n must be positive)")
    k = covers_per_pattern(n)
    return round(factorial(n + 1) / k * (log(n) + (lam - 1) * log(log(n))))


def expected_uncovered_without_replacement(n: int, draws: int) -> float:
    """Exact expected number of uncovered patterns after sampling ``draws``
    distinct (n+1)-permutations uniformly.

    n! * C((n+1)! - n^2 - 1, Y) / C((n+1)!, Y), evaluated in log space via
    log-gamma (relative error well under 1e-9 at supported sizes).
    """
    m = factorial(n + 1)
    k = covers_per_pattern(n)
    if not 0 <= draws <= m:
        raise ValueError(f"draws must be in 0..{m}")
    if draws > m - k:
        return 0.0
    log_ratio = (
        lgamma(m - k + 1)
        + lgamma(m - draws + 1)
        - lgamma(m + 1)
        - lgamma(m - k - draws + 1)
    )
    return exp(lgamma(n + 1) + log_ratio)


# ---------------------------------------------------------------------------
# Certificates and verification


@dataclasses.dataclass
class VerifyResult:
    ok: bool
    deficiencies: list[tuple[int, int]]  # (pattern rank, coverage count), rank-sorted


def verify_cover(g: CoverageGraph, sel, lam: int = 1) -> VerifyResult:
    """Count each pattern's selected covers; ok iff all counts >= lam."""
    if lam < 1:
        raise ValueError("lam must be >= 1")
    flags = selection_flags(g, sel)
    counts = flags[g.cover_ranks].sum(axis=1)
    short = np.flatnonzero(counts < lam)
    return VerifyResult(
        ok=short.size == 0,
        deficiencies=[(int(p), int(counts[p])) for p in short],
    )


@dataclasses.dataclass
class CoverCertificate:
    """A selected subset of S_{n+1} with its provenance and status.

    status is "optimal" (solver-proved minimum), "feasible" (verifies but
    not proved minimal), or "infeasible-budget" (solver interrupted with
    no verified incumbent; never produced by the constructions here since
    greedy always completes).
    """

    n: int
    lam: int
    method: str
    status: str
    selected: tuple[int, ...]  # cover ranks, sorted ascending
    lower_bound: int
    seed: int | None = None
    wall_time_ms: float = 0.0
    initial_size: int | None = None  # randomized constructions: initial Y

    @property
    def size(self) -> int:
        return len(self.selected)

    def selection_bitmap(self) -> PermSetBitmap:
        return PermSetBitmap.from_indices(self.n + 1, self.selected)

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "lambda": self.lam,
            "method": self.method,
            "status": self.status,
            "size": self.size,
            "lower_bound": self.lower_bound,
            "selected": [format_perm(unrank(self.n + 1, r).values) for r in self.selected],
            "seed": self.seed,
            "wall_time_ms": self.wall_time_ms,
        }
        if self.initial_size is not None:
            out["initial_size"] = self.initial_size
        return out

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CoverCertificate":
        n = int(doc["n"])
        ranks = tuple(sorted(rank(parse_perm(s)) for s in doc["selected"]))
        return cls(
            n=n,
            lam=int(doc["lambda"]),
            method=str(doc["method"]),
            status=str(doc["status"]),
            selected=ranks,
            lower_bound=int(doc["lower_bound"]),
            seed=None if doc.get("seed") is None else int(doc["seed"]),
            wall_time_ms=float(doc.get("wall_time_ms", 0.0)),
            initial_size=None if doc.get("initial_size") is None else int(doc["initial_size"]),
        )


# ---------------------------------------------------------------------------
# Constructions


def greedy_cover(g: CoverageGraph, lam: int = 1) -> CoverCertificate:
    """Deterministic max-residual-coverage greedy (ties to lowest rank)."""
    _check_lam(g, lam)
    t0 = time.perf_counter()
    picks, remaining = _kernels.greedy_select(
        g.pattern_indptr, g.pattern_data, g.n_patterns, lam
    )
    if remaining:
        raise RuntimeError("greedy could not complete the cover")  # unreachable for valid lam
    return CoverCertificate(
        n=g.n,
        lam=lam,
        method="greedy",
        status="feasible",
        selected=tuple(sorted(int(r) for r in picks)),
        lower_bound=pigeonhole_lower_bound(g.n, lam),
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
    )


def _check_lam(g: CoverageGraph, lam: int):
    if lam < 1:
        raise ValueError("lam must be >= 1")
    if lam > covers_per_pattern(g.n):
        raise ValueError(
            f"lam={lam} impossible: each pattern has only {covers_per_pattern(g.n)} covers"
        )


def _patch_uncovered(g: CoverageGraph, flags: np.ndarray, lam: int) -> int:
    """Add covers until every pattern reaches multiplicity lam.

    Patterns are visited in rank order; a still-deficient pattern gets its
    lowest-rank unselected covers.  Updates ``flags`` in place and returns
    the number of additions.  Deterministic.
    """
    counts = flags[g.cover_ranks].sum(axis=1)
    added = 0
    for p in np.flatnonzero(counts < lam):
        while counts[p] < lam:
            row = g.cover_ranks[p]
            fresh = row[~flags[row]]
            r = int(fresh[0])  # rows are rank-sorted, so this is lowest-rank
            flags[r] = True
            added += 1
            counts[g.pattern_row(r)] += 1
    return added


def alteration_cover(
    g: CoverageGraph, seed: int, initial_size: int | None = None
) -> CoverCertificate:
    """Randomized cover: uniform distinct sample, then deterministic patching.

    Samples ``initial_size`` distinct (n+1)-permutations (default: the
    bound-optimizing size), then covers each still-uncovered pattern with
    its lowest-rank unselected cover, in pattern-rank order.
    """
    t0 = time.perf_counter()
    y = alteration_default_initial_size(g.n) if initial_size is None else int(initial_size)
    if not 0 <= y <= g.n_covers:
        raise ValueError(f"initial_size must be in 0..{g.n_covers}")
    rng = np.random.default_rng(seed)
    flags = np.zeros(g.n_covers, dtype=bool)
    if y:
        flags[rng.choice(g.n_covers, size=y, replace=False, shuffle=False)] = True
    _patch_uncovered(g, flags, 1)
    cert = CoverCertificate(
        n=g.n,
        lam=1,
        method="alteration",
        status="feasible",
        selected=tuple(int(r) for r in np.flatnonzero(flags)),
        lower_bound=pigeonhole_lower_bound(g.n, 1),
        seed=seed,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        initial_size=y,
    )
    return cert


def lambda_cover(
    g: CoverageGraph, lam: int, seed: int, draws: int | None = None
) -> CoverCertificate:
    """Multiplicity-lam cover: with-replacement sampling plus patching.

    Draws ``draws`` ranks with replacement (default: the log n +
    (lam-1) log log n prescription); duplicate draws collapse into the
    selected set, and both the draw count and the distinct size are kept.
    Patterns below multiplicity lam are then topped up lowest-rank-first.
    """
    if lam < 2:
        raise ValueError("lambda_cover requires lam >= 2 (use alteration/greedy at lam=1)")
    _check_lam(g, lam)
    if g.n < 3:
        raise ValueError("lambda_cover requires n >= 3 (log log n must be positive)")
    t0 = time.perf_counter()
    y = multicover_default_draws(g.n, lam) if draws is None else int(draws)
    if y < 0:
        raise ValueError("draws must be >= 0")
    rng = np.random.default_rng(seed)
    flags = np.zeros(g.n_covers, dtype=bool)
    if y:
        flags[rng.integers(0, g.n_covers, size=y)] = True
    _patch_uncovered(g, flags, lam)
    return CoverCertificate(
        n=g.n,
        lam=lam,
        method="lambda",
        status="feasible",
        selected=tuple(int(r) for r in np.flatnonzero(flags)),
        lower_bound=pigeonhole_lower_bound(g.n, lam),
        seed=seed,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        initial_size=y,
    )


# ---------------------------------------------------------------------------
# Exact minimum cover (branch and bound)


def exact_min_cover(
    g: CoverageGraph, lam: int = 1, time_budget: float = 60.0
) -> CoverCertificate:
    """Branch-and-bound set multicover.

    Branches on the most-deficient lowest-rank pattern, trying each of its
    unselected covers in rank order; prunes with
    size + ceil(total deficiency / best residual gain) against the
    incumbent (initially greedy).  Single-threaded and deterministic: the
    proved optimal size never depends on timing, and the witness is the
    deterministic first optimum found under this branching order.

    Exhausting the search proves optimality (status "optimal", and
    lower_bound == size).  Running out of budget keeps the best incumbent
    (status "feasible", lower_bound from the pigeonhole count).
    """
    if time_budget <= 0:
        raise ValueError("time_budget must be positive")
    _check_lam(g, lam)
    t0 = time.perf_counter()
    deadline = t0 + time_budget

    seed_cert = greedy_cover(g, lam)
    best = list(seed_cert.selected)
    best_size = len(best)
    floor = pigeonhole_lower_bound(g.n, lam)

    indptr, data = g.pattern_indptr, g.pattern_data
    cover_rows = g.cover_ranks
    n_covers = g.n_covers
    counts = np.zeros(g.n_patterns, dtype=np.int64)
    selected_flags = np.zeros(n_covers, dtype=bool)
    chosen: list[int] = []
    timed_out = False
    nodes = 0

    def residual_gains():
        deficient = counts < lam
        gains = np.add.reduceat(deficient[data].astype(np.int32), indptr[:-1])
        gains[selected_flags] = 0
        return gains

    def dfs(deficiency: int):
        nonlocal best, best_size, timed_out, nodes
        if timed_out or best_size == floor:
            return
        nodes += 1
        if nodes % 256 == 0 and time.perf_counter() > deadline:
            timed_out = True
            return
        if deficiency == 0:
            if len(chosen) < best_size:
                best = sorted(chosen)
                best_size = len(best)
            return
        gains = residual_gains()
        max_gain = int(gains.max())
        if max_gain == 0:
            return
        bound = len(chosen) + ceil(deficiency / max_gain)
        if bound >= best_size:
            return
        shortfall = lam - counts
        worst = int(np.flatnonzero(shortfall == shortfall.max())[0])
        for r in cover_rows[worst]:
            r = int(r)
            if selected_flags[r]:
                continue
            row = g.pattern_row(r)
            helped = row[counts[row] < lam]
            selected_flags[r] = True
            counts[row] += 1
            chosen.append(r)
            dfs(deficiency - helped.size)
            chosen.pop()
            counts[row] -= 1
            selected_flags[r] = False
            if timed_out:
                return

    dfs(g.n_patterns * lam)

    optimal = not timed_out
    return CoverCertificate(
        n=g.n,
        lam=lam,
        method="exact",
        status="optimal" if optimal else "feasible",
        selected=tuple(best),
        lower_bound=best_size if optimal else floor,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
    )


def exhaustive_min_cover_size(g: CoverageGraph, start_k: int | None = None) -> int:
    """Minimum cover size by plain subset enumeration (independent oracle).

    Probes k = start_k, start_k+1, ... with an exhaustive combination
    search over the boolean incidence matrix.  Exponential; intended for
    desk-scale cross-checks of the branch-and-bound solver (n <= 4).
    """
    pat_bool = np.zeros((g.n_covers, g.n_patterns), dtype=bool)
    for r in range(g.n_covers):
        pat_bool[r, g.pattern_row(r)] = True
    max_gain = g.n + 1
    k = pigeonhole_lower_bound(g.n, 1) if start_k is None else start_k
    while True:
        if _kernels.subset_cover_exists(pat_bool, k, max_gain):
            return k
        k += 1


# ---------------------------------------------------------------------------
# Bounds table


@dataclasses.dataclass
class BoundTable:
    """Analytic quantities for one n (and multiplicity lam where defined)."""

    n: int
    lam: int
    pigeonhole_lower: int
    alteration_upper: float | None
    alteration_upper_n2: float | None
    multicover_upper: float | None

    @classmethod
    def evaluate(cls, n: int, lam: int = 1) -> "BoundTable":
        return cls(
            n=n,
            lam=lam,
            pigeonhole_lower=pigeonhole_lower_bound(n, lam),
            alteration_upper=alteration_upper_bound(n) if n >= 2 else None,
            alteration_upper_n2=alteration_upper_bound_loose(n) if n >= 2 else None,
            multicover_upper=(
                multicover_upper_bound(n, lam) if lam >= 2 and n >= 3 else None
            ),
        )

    def expected_uncovered(self, draws: int) -> float:
        return expected_uncovered_without_replacement(self.n, draws)
