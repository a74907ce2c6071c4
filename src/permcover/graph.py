"""Bipartite incidence between S_n patterns and S_{n+1} covers.

The graph stores both adjacency directions densely, indexed by
lexicographic rank: ``cover_ranks[p]`` lists the n^2+1 ranks of covers of
pattern p, and row r of the padded table ``pattern_rows`` lists the
distinct patterns of cover r in ascending order, followed by
``succ_counts[r]`` copies of the sentinel n!.  ``cover_ranks`` is intp and
column-major, so it indexes without a cast and the counting kernel reads
each of its columns contiguously.  These arrays are read-only after build;
the pair statistics are computed on first use and then cached.

One recursion yields S_{n+1} with the rank of every one-letter deletion
(``_kernels.perms_and_deletions``).  Deleting at two adjacent positions
whose values differ by exactly 1 gives the same pattern, so one per run is
kept and the others become the sentinel; each row is sorted in place, and
one stable sort of the whole table gives the covers of each pattern.  The
build checks that no cover lists a pattern twice and that every pattern
has exactly n^2+1 covers.
"""
from __future__ import annotations

from math import factorial
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import ResourceLimitError
# `rank` is no longer called here, but the per-layer tracer
# (perfbench/tracing.py) wraps `graph.rank` by name.
from .perms import rank, unrank  # noqa: F401

DEFAULT_MAX_N = 8
"""Largest pattern length n for full enumeration of S_{n+1} by default.

Memory and build time grow like (n+1)! * (n+1); n=8, all 362880
permutations of length 9, builds in ~0.2 s at a ~111 MB peak (Python 3.11,
numpy 2.4, 2 cores).  The pair statistics then take ~0.18 s in blocks of
512 patterns and do not raise that peak.  Override
with build_graph's ``max_n`` (the CLI's --max-n or PERMCOVER_MAX_N).
"""

# Counterexamples of each kind that an audit lists.
_MAX_REPORTED = 20


def covers_per_pattern(n: int) -> int:
    """Number of (n+1)-permutations containing a fixed n-pattern: n^2 + 1."""
    return n * n + 1


class PairStats(NamedTuple):
    """Joint coverage over ordered pairs of distinct patterns."""

    n_pairs: np.ndarray  # [c]: ordered pairs sharing exactly c covers ([0] = 0)
    partners: np.ndarray  # [p]: patterns sharing at least one cover with p
    four_cover_pairs: np.ndarray  # (k, 2) rank pairs a < b sharing 4 covers, sorted


class CoverageGraph:
    """Read-only incidence between ranked S_n and ranked S_{n+1}."""

    def __init__(self, n, cover_ranks, pattern_rows, succ_counts):
        self.n = n
        self.n_patterns = factorial(n)
        self.n_covers = factorial(n + 1)
        self.cover_ranks = cover_ranks
        self.pattern_rows = pattern_rows
        self.succ_counts = succ_counts
        for arr in (cover_ranks, pattern_rows, succ_counts):
            arr.flags.writeable = False  # the queries hand out views of these
        self._pair_stats = None

    # -- queries ------------------------------------------------------------

    def _check_pattern_rank(self, p: int):
        if not 0 <= p < self.n_patterns:
            raise ValueError(f"pattern rank {p} out of range 0..{self.n_patterns - 1}")

    def _check_cover_rank(self, r: int):
        if not 0 <= r < self.n_covers:
            raise ValueError(f"cover rank {r} out of range 0..{self.n_covers - 1}")

    def covers_of(self, p: int) -> np.ndarray:
        """Sorted ranks of the n^2+1 (n+1)-permutations containing pattern p."""
        self._check_pattern_rank(p)
        return self.cover_ranks[p]

    def pattern_row(self, r: int) -> np.ndarray:
        """Sorted ranks of the distinct one-letter-deletion patterns of cover r."""
        self._check_cover_rank(r)
        return self.pattern_rows[r, : self.n + 1 - self.succ_counts[r]]

    def joint_covers(self, p: int, p2: int) -> np.ndarray:
        """Sorted ranks of the covers containing both patterns; equals
        covers_of(p) when p == p2."""
        self._check_pattern_rank(p)
        self._check_pattern_rank(p2)
        if p == p2:
            return self.covers_of(p)
        return np.intersect1d(self.cover_ranks[p], self.cover_ranks[p2], assume_unique=True)

    def co_coverable(self, p: int) -> np.ndarray:
        """Sorted ranks of the patterns p' != p sharing at least one cover with p.

        Computed as the union of the pattern rows of p's covers, minus p
        itself and the sentinel; its size is ``joint_count_matrix().partners[p]``.
        """
        self._check_pattern_rank(p)
        partners = np.unique(self.pattern_rows[self.cover_ranks[p]])
        return partners[(partners != p) & (partners != self.n_patterns)]

    def joint_count_matrix(self) -> PairStats:
        """The sparse joint-coverage summary (PairStats), built once and cached.

        It replaced a dense (n!, n!) matrix of joint-cover counts; the name
        is kept because the per-layer tracer wraps this method by name.
        """
        if self._pair_stats is None:
            self._pair_stats = PairStats(*_kernels.joint_pair_counts(
                self.cover_ranks, self.pattern_rows
            ))
        return self._pair_stats


def selection_flags(g: CoverageGraph, sel) -> np.ndarray:
    """A selection of covers as a boolean mask over the ranks of S_{n+1}.

    ``sel`` is a boolean mask of length (n+1)!, or any other array-like
    read as the selected ranks (possibly empty), which must be integers:
    ranks of any other dtype raise ValueError rather than being truncated.
    """
    arr = np.asarray(sel)
    if arr.dtype == bool:
        if arr.shape != (g.n_covers,):
            raise ValueError(f"expected {g.n_covers} selection flags")
        return arr
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"selected ranks must be integers, not {arr.dtype}")
    ranks = arr.astype(np.intp, copy=False)
    if ranks.size and (ranks.min() < 0 or ranks.max() >= g.n_covers):
        raise ValueError(f"rank out of range 0..{g.n_covers - 1} for S_{g.n + 1}")
    flags = np.zeros(g.n_covers, dtype=bool)
    flags[ranks] = True
    return flags


def build_graph(n: int, *, max_n: int = DEFAULT_MAX_N) -> CoverageGraph:
    """Materialize the coverage graph for S_n vs S_{n+1}.

    Raises ResourceLimitError when n exceeds ``max_n``; no environment
    variable is read.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > max_n:
        raise ResourceLimitError(
            f"n={n} exceeds the enumeration limit {max_n} "
            "(raise with max_n=, or --max-n / PERMCOVER_MAX_N on the command line)"
        )

    perms_next, dels = _kernels.perms_and_deletions(n + 1)
    n_patterns = factorial(n)

    succ_pairs = np.abs(np.diff(perms_next.astype(np.int16), axis=1)) == 1
    succ_counts = succ_pairs.sum(axis=1).astype(np.uint8)

    # Deleting position i or i+1 across a succession yields the same
    # pattern; keep the rightmost deletion of each run.  The dropped ones
    # become the sentinel n!, which sorts to the end of its row.
    dels[:, :-1][succ_pairs] = n_patterns
    pattern_rows = dels.astype(np.int32)
    del dels
    pattern_rows.sort(axis=1)
    left, right = pattern_rows[:, :-1], pattern_rows[:, 1:]
    if np.any((left == right) & (left < n_patterns)):
        raise RuntimeError("duplicate pattern in a cover's deletion list")

    per_pattern = covers_per_pattern(n)
    cover_counts = np.bincount(pattern_rows.ravel(), minlength=n_patterns)[:n_patterns]
    if not np.all(cover_counts == per_pattern):
        raise RuntimeError(f"cover counts are not uniformly {per_pattern} at n={n}")
    # numpy radix-sorts keys of 16 bits or fewer, which covers n <= 8; the
    # sentinels sort last and are cut off, and flat index // (n+1) is the cover
    keys = pattern_rows.astype(np.min_scalar_type(n_patterns)).ravel()
    by_pattern = np.argsort(keys, kind="stable")[: n_patterns * per_pattern]
    del keys
    by_pattern //= n + 1
    cover_ranks = np.asfortranarray(by_pattern.reshape(n_patterns, per_pattern))

    return CoverageGraph(n, cover_ranks, pattern_rows, succ_counts)


# ---------------------------------------------------------------------------
# Joint-coverage audit


def _adjacent_swap_pairs(n: int):
    """Unordered rank pairs differing by one swap of adjacent positions.

    Each pair a < b is the int64 key ``a * n! + b``, so key order is
    lexicographic pair order.  Returns two sorted arrays of distinct keys:
    all such pairs, and the subset whose swapped values also differ by
    exactly 1.  They are the two readings of "adjacent swap" that the
    audit checks independently.
    """
    perms = _kernels.perms_and_deletions(n)[0]
    size = perms.shape[0]
    swaps = np.arange(n - 1)
    # swapped[a, i] is perms[a] with positions i and i+1 exchanged
    swapped = np.repeat(perms[:, None, :], n - 1, axis=1)
    swapped[:, swaps, swaps] = perms[:, swaps + 1]
    swapped[:, swaps, swaps + 1] = perms[:, swaps]
    other = _kernels.lehmer_ranks(swapped.reshape(-1, n)).reshape(size, n - 1)
    ranks = np.arange(size, dtype=np.int64)[:, None]
    keys = ranks * size + other
    lower = ranks < other  # each unordered pair once
    consecutive = np.abs(np.diff(perms.astype(np.int16), axis=1)) == 1
    return np.sort(keys[lower]), np.sort(keys[lower & consecutive])


def audit_joint_coverage(g: CoverageGraph) -> dict:
    """Audit the pairwise joint-coverage structure of the graph, returning
    the audit keys of the ``graph --audit`` payload.

    Exhaustive over all ordered pattern pairs, from the graph's sparse pair
    statistics.  Checks, and reports violations of:

    - every pair shares at most 4 covers,
    - every pattern has at most n^3 co-coverable partners,
    - the pairs sharing exactly 4 covers are exactly the adjacent-position
      -swap pairs, under at least one of the two "adjacent" readings.
    """
    n = g.n
    stats = g.joint_count_matrix()
    max_c = int(np.flatnonzero(stats.n_pairs).max(initial=0))
    max_j = int(stats.partners.max())
    argmax_j = int(np.argmax(stats.partners))
    four_pairs = stats.four_cover_pairs.astype(np.int64)
    four_keys = four_pairs[:, 0] * g.n_patterns + four_pairs[:, 1]

    violations: list[dict] = []
    if max_c > 4:
        violations.append({"kind": "pair_cover_count_exceeds_4", "max_C": max_c})
    if max_j > n ** 3:
        violations.append({"kind": "joint_partner_count_exceeds_n3", "max_J": max_j})

    position_keys, value_keys = _adjacent_swap_pairs(n)
    iff_pos = np.array_equal(four_keys, position_keys)
    iff_val = np.array_equal(four_keys, value_keys)
    holds = iff_pos or iff_val

    if not holds:
        extra = np.setdiff1d(four_keys, position_keys, assume_unique=True)
        for key in extra[:_MAX_REPORTED].tolist():
            a, b = divmod(key, g.n_patterns)
            violations.append(
                {
                    "kind": "four_cover_pair_not_adjacent_position_swap",
                    "pair": [str(unrank(n, a)), str(unrank(n, b))],
                }
            )
        missing = np.setdiff1d(position_keys, four_keys, assume_unique=True)
        for key in missing[:_MAX_REPORTED].tolist():
            a, b = divmod(key, g.n_patterns)
            violations.append(
                {
                    "kind": "adjacent_position_swap_without_4_covers",
                    "pair": [str(unrank(n, a)), str(unrank(n, b))],
                    "shared_covers": int(g.joint_covers(a, b).size),
                }
            )

    return {
        "n": n,
        # every audit covers all pairs; the payload keeps both keys
        "exhaustive": True,
        "sample_size": None,
        "max_J": max_j,
        "argmax_J": str(unrank(n, argmax_j)),
        "max_C": max_c,
        "four_cover_pair_count": len(four_pairs),
        "adjacent_swap_iff_holds": holds,
        "iff_adjacent_positions": iff_pos,
        "iff_adjacent_values": iff_val,
        "violations": violations,
    }
