"""Constructing and certifying covers of S_n by subsets of S_{n+1}.

A cover is a set A of (n+1)-permutations such that every n-permutation is
a one-letter-deletion pattern of at least one (more generally, at least
lambda) member of A.  This module provides the analytic bounds, a
deterministic greedy baseline, the two randomized constructions
(random-then-patch at multiplicity 1, and with-replacement sampling plus
patching for multiplicity >= 2), and an exact branch-and-bound solver for
the minimum cover size.  A certificate's ``selected`` covers are
serialized and parsed as whole arrays (``format_selected`` and
``parse_selected``), never one rank at a time.

Natural log everywhere.
"""
from __future__ import annotations

import dataclasses
import time
from math import exp, factorial, lgamma, log

import numpy as np

from . import _kernels
from .dual import checked_dual, shipped_dual
from .graph import CoverageGraph, covers_per_pattern, selection_flags
# `rank` is no longer called here, but the per-layer tracer
# (perfbench/tracing.py) wraps `cover.rank` by name.
from .perms import parse_perm, rank  # noqa: F401


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


def default_initial_size(method: str, n: int, lam: int) -> int | None:
    """The initial sample size ``method`` uses when none is given."""
    if method == "alteration":
        return alteration_default_initial_size(n)
    return multicover_default_draws(n, lam) if method == "lambda" else None


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

METHODS = ("exact", "greedy", "alteration", "lambda")


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


@dataclasses.dataclass(frozen=True)
class CoverCertificate:
    """A selected subset of S_{n+1} with the request that produced it.

    Everything else is derived.  ``optimal`` is True only when the exact
    search completed: status "optimal" with lower_bound == size, and the
    serialized form carries the LP dual for n (``permcover.dual``).  Any other
    cover is "feasible" with the pigeonhole lower bound.
    """

    n: int
    lam: int
    method: str
    selected: tuple[int, ...]  # cover ranks, sorted ascending
    seed: int | None = None
    initial_size: int | None = None  # randomized constructions: initial Y
    optimal: bool = False

    @property
    def size(self) -> int:
        return len(self.selected)

    @property
    def status(self) -> str:
        return "optimal" if self.optimal else "feasible"

    @property
    def lower_bound(self) -> int:
        return self.size if self.optimal else pigeonhole_lower_bound(self.n, self.lam)

    @property
    def certified(self) -> bool:
        """Optimal, and the bound of the dual for n equals the size, so the
        dual alone proves it.  The table is read, not checked, here: every
        optimal certificate comes from a search or a cache load that checked
        it against the graph."""
        return self.optimal and shipped_dual(self.n).lower_bound(self.lam) == self.size

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "lambda": self.lam,
            "method": self.method,
            "status": self.status,
            "size": self.size,
            "lower_bound": self.lower_bound,
            "selected": format_selected(self.n, self.selected),
            "seed": self.seed,
        }
        if self.initial_size is not None:
            out["initial_size"] = self.initial_size
        if self.optimal:
            out["dual"] = shipped_dual(self.n).to_json_dict()
        return out


def format_selected(n: int, ranks) -> list[str]:
    """The (n+1)-permutations of the given ranks, serialized as
    ``perms.format_perm`` does, in order.

    All ranks are unranked at once into a digit table
    (``_kernels.lehmer_unrank``); while n+1 <= 9 the table is decoded as
    one ASCII string and sliced, and from n+1 = 10 on each row is joined
    with commas.  Raises ValueError on a rank outside 0..(n+1)!-1.
    """
    length = n + 1
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size and not (ranks.min() >= 0 and ranks.max() < factorial(length)):
        raise ValueError(f"ranks must be in 0..{factorial(length) - 1} for length {length}")
    table = _kernels.lehmer_unrank(ranks, length)
    if length > 9:
        return [",".join(map(str, row)) for row in table.tolist()]
    text = (table + ord("0")).tobytes().decode("ascii")
    return [text[i : i + length] for i in range(0, len(text), length)]


def parse_selected(n: int, selected) -> tuple[int, ...]:
    """Sorted ranks of a serialized ``selected`` list of (n+1)-permutations.

    While n+1 <= 9, a list whose every entry is a string of exactly n+1
    ASCII digits, the form ``format_selected`` writes, is read in one pass:
    the joined text's bytes are the digit table.  Any other list is parsed
    entry by entry (``perms.parse_perm``, so either serialized form), so
    it accepts and rejects exactly what that does.  The permutation
    property and duplicates are then checked on one (k, n+1) table, which
    ``_kernels.lehmer_ranks`` ranks.  Raises ValueError on an entry that
    is not an (n+1)-permutation or that repeats an earlier one.
    """
    length, selected = n + 1, list(selected)
    canonical = length <= 9 and all(isinstance(s, str) and len(s) == length for s in selected)
    text = "".join(selected) if canonical else ""
    if text.isascii() and text.isdigit():  # so every character is one of 0-9
        table = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, length) - ord("0")
    else:
        rows = [parse_perm(s) for s in selected]
        try:
            table = np.array(rows, dtype=np.int64).reshape(len(rows), length)
        except ValueError:  # ragged, or every row of another length
            raise ValueError(f"selected permutations must have length {length}") from None
        except OverflowError:  # an entry past int64
            raise ValueError(f"selected entries must be permutations of 1..{length}") from None
    if (np.sort(table, axis=1) != np.arange(1, length + 1)).any():
        raise ValueError(f"selected entries must be permutations of 1..{length}")
    ranks = np.sort(_kernels.lehmer_ranks(table))
    if (ranks[1:] == ranks[:-1]).any():
        raise ValueError("duplicate selected permutation")
    return tuple(ranks.tolist())


# ---------------------------------------------------------------------------
# Constructions


def greedy_cover(g: CoverageGraph, lam: int = 1) -> CoverCertificate:
    """Deterministic max-residual-coverage greedy (ties to lowest rank)."""
    check_lam(g.n, lam)
    picks, remaining = _kernels.greedy_select(g.pattern_rows, g.cover_ranks, lam)
    if remaining:
        raise RuntimeError("greedy could not complete the cover")  # unreachable for valid lam
    return CoverCertificate(g.n, lam, "greedy", tuple(np.sort(picks).tolist()))


def check_lam(n: int, lam: int):
    """Raise ValueError unless 1 <= lam <= n^2 + 1, the covers of one pattern."""
    if lam < 1:
        raise ValueError("lam must be >= 1")
    if lam > covers_per_pattern(n):
        raise ValueError(
            f"lam={lam} impossible: each pattern has only {covers_per_pattern(n)} covers"
        )


def _patch_uncovered(g: CoverageGraph, picks: np.ndarray, lam: int) -> tuple[int, ...]:
    """Select ``picks``, then add covers until every pattern reaches
    multiplicity lam; returns the selected ranks, sorted.

    Patterns are visited in rank order; a still-deficient pattern gets its
    lowest-rank unselected covers.  Deterministic.  The first counts are
    one array pass; the visits then run on a bytearray of flags and a list
    of counts, reading one cover row and one pattern row per step, since a
    step touches at most n^2+1 entries and numpy's per-call cost would
    dominate it.  The counts list has a slot for the pattern rows' padding
    sentinel n!, which no visit reads.
    """
    flags = selection_flags(g, picks)
    counts = flags[g.cover_ranks].sum(axis=1)
    short = np.flatnonzero(counts < lam).tolist()
    chosen, counts = bytearray(flags.tobytes()), counts.tolist() + [0]
    for p in short:
        need = lam - counts[p]
        # rows are rank-sorted, so the first unselected are lowest-rank;
        # each one raises counts[p] by exactly one
        for r in g.cover_ranks[p].tolist():
            if need <= 0:
                break
            if not chosen[r]:
                chosen[r] = 1
                need -= 1
                for q in g.pattern_rows[r].tolist():
                    counts[q] += 1
    return tuple(np.flatnonzero(np.frombuffer(chosen, dtype=bool)).tolist())


def alteration_cover(
    g: CoverageGraph, seed: int, initial_size: int | None = None
) -> CoverCertificate:
    """Randomized cover: uniform distinct sample, then deterministic patching.

    Samples ``initial_size`` distinct (n+1)-permutations (default: the
    bound-optimizing size), then covers each still-uncovered pattern with
    its lowest-rank unselected cover, in pattern-rank order.
    """
    y = alteration_default_initial_size(g.n) if initial_size is None else int(initial_size)
    if not 0 <= y <= g.n_covers:
        raise ValueError(f"initial_size must be in 0..{g.n_covers}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(g.n_covers, size=y, replace=False, shuffle=False)
    selected = _patch_uncovered(g, picks, 1)
    return CoverCertificate(g.n, 1, "alteration", selected, seed, initial_size=y)


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
    check_lam(g.n, lam)
    if g.n < 3:
        raise ValueError("lambda_cover requires n >= 3 (log log n must be positive)")
    y = multicover_default_draws(g.n, lam) if draws is None else int(draws)
    if y < 0:
        raise ValueError("draws must be >= 0")
    picks = np.random.default_rng(seed).integers(0, g.n_covers, size=y)
    selected = _patch_uncovered(g, picks, lam)
    return CoverCertificate(g.n, lam, "lambda", selected, seed, initial_size=y)


# ---------------------------------------------------------------------------
# Exact minimum cover (branch and bound)


def exact_min_cover(
    g: CoverageGraph, lam: int = 1, time_budget: float = 60.0
) -> CoverCertificate:
    """Branch-and-bound set multicover.

    Branches on the most-deficient lowest-rank pattern, trying each of its
    unselected covers in rank order, against the incumbent (initially
    greedy).  Two bounds prune a node: size + ceil(total deficiency / best
    residual gain), and size + ceil(W / D) with W = sum_p w_p (lam -
    count_p)^+ under the LP dual (w, D) of ``permcover.dual``, checked
    against ``g``, since no cover can lower W by more than D.  Once the
    incumbent meets the dual bound ceil(lam sum(w) / D), which is never
    below the pigeonhole count, the search stops: it enters no node and
    unwinds the path without trying any ancestor's remaining candidates.
    Neither bound cuts off a cover smaller than the incumbent, so the
    incumbents, and the witness, are those an unpruned search finds.

    The search is one loop over an explicit path with a step per chosen
    cover, so its depth is bounded only by the cover size.  The residual
    gains and W are kept incrementally: choosing a cover subtracts one
    from every cover of each pattern it brings to multiplicity lam (a
    sparse np.subtract.at) and lowers W by the weights of the patterns it
    helps; its step keeps what undoing that needs, so no node recounts.
    Single-threaded and deterministic: the proved optimal size never
    depends on timing, and the witness is the deterministic first optimum
    found under this branching order.

    Exhausting the search proves optimality (status "optimal", and
    lower_bound == size).  Running out of budget keeps the best incumbent
    (status "feasible", lower_bound from the pigeonhole count).
    """
    if not time_budget > 0:  # also rejects NaN
        raise ValueError("time_budget must be positive")
    check_lam(g.n, lam)
    deadline = time.perf_counter() + time_budget

    dual = checked_dual(g)
    weights, denominator = dual.weights, dual.denominator
    best = list(greedy_cover(g, lam).selected)
    floor = dual.lower_bound(lam)

    cover_rows = g.cover_ranks
    counts = np.zeros(g.n_patterns, dtype=np.int64)
    # gains[r]: still-deficient patterns of cover r, minus `chosen_offset`
    # while r is chosen.  A gain is at most n+1, so a chosen cover's is
    # negative and never the maximum.
    gains = (g.n + 1) - g.succ_counts.astype(np.int64)
    chosen_offset = g.n + 2
    # load is W, the weighted deficiency, in units of 1/denominator
    deficiency, load = g.n_patterns * lam, lam * int(weights.sum())
    path = []
    todo = None  # the current node's untried candidates; None on entering it
    timed_out = False
    nodes = 0
    while True:
        if todo is None:  # entering a node
            todo = ()
            if not timed_out and len(best) != floor:
                nodes += 1
                if nodes % 256 == 0 and time.perf_counter() > deadline:
                    timed_out = True
                elif deficiency == 0:
                    if len(path) < len(best):
                        best = sorted(step[0] for step in path)
                elif (len(path) + -(-load // denominator) < len(best)
                      and len(path) + -(-deficiency // int(gains.max())) < len(best)):
                    # lowest rank among the largest shortfalls
                    todo = iter(cover_rows[counts.argmin()].tolist())
        for r in todo:
            if gains[r] >= 0:  # not already chosen
                break
        else:  # the node is done: undo the step that led to it
            if not path:
                break
            r, row, reached, lowered, deficiency, load, todo = path.pop()
            np.add.at(gains, lowered, 1)
            gains[r] += chosen_offset
            counts[row] = reached - 1
            if timed_out or len(best) == floor:
                todo = ()
            continue
        row = g.pattern_row(r)
        reached = counts[row] + 1
        counts[row] = reached
        helped = row[reached <= lam]
        # patterns of one cover share covers: subtract.at keeps the repeats
        lowered = cover_rows[row[reached == lam]].ravel()
        np.subtract.at(gains, lowered, 1)
        gains[r] -= chosen_offset
        path.append((r, row, reached, lowered, deficiency, load, todo))
        deficiency -= helped.size
        load -= int(weights[helped].sum())
        todo = None

    return CoverCertificate(g.n, lam, "exact", tuple(best), optimal=not timed_out)
