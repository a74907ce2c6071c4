"""Bipartite incidence between S_n patterns and S_{n+1} covers.

The graph stores both adjacency directions densely, indexed by
lexicographic rank: ``cover_ranks[p]`` lists the n^2+1 ranks of covers of
pattern p, and a CSR pair (``pattern_indptr``, ``pattern_data``) lists the
distinct patterns each cover contains.  Everything is immutable after
build and safe for shared concurrent reads.

Construction enumerates S_{n+1} once and takes all one-letter deletions,
which fills both directions in a single pass.  Deleting at two adjacent
positions whose values differ by exactly 1 gives the same pattern, so one
representative per such run is kept; the build verifies the resulting
per-cover pattern lists are duplicate-free and that every pattern ends up
with exactly n^2+1 covers, failing loudly otherwise.
"""
from __future__ import annotations

import dataclasses
import os
from math import factorial
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import ResourceLimitError
# `rank` is no longer called here, but the per-layer tracer
# (perfbench/tracing.py) wraps `graph.rank` by name.
from .perms import Permutation, rank, unrank  # noqa: F401

DEFAULT_MAX_N = 8
"""Largest pattern length n for full enumeration of S_{n+1} by default.

Memory and build time grow like (n+1)! * (n+1); n=8 means ranking all
362880 permutations of length 9.  Override with PERMCOVER_MAX_N or the
``max_n`` argument.
"""


def max_enumeration_n() -> int:
    env = os.environ.get("PERMCOVER_MAX_N", "").strip()
    if env:
        return int(env)
    return DEFAULT_MAX_N


def covers_per_pattern(n: int) -> int:
    """Number of (n+1)-permutations containing a fixed n-pattern: n^2 + 1."""
    return n * n + 1


class PermSetBitmap:
    """Set of permutations of one length, as packed 64-bit membership words.

    Membership is indexed by lexicographic rank.  Instances behave as
    immutable values: set operations return new bitmaps.
    """

    __slots__ = ("level", "size", "words")

    def __init__(self, level: int, words: np.ndarray):
        self.level = level
        self.size = factorial(level)
        self.words = words

    @classmethod
    def empty(cls, level: int) -> "PermSetBitmap":
        n_words = (factorial(level) + 63) // 64
        return cls(level, np.zeros(n_words, dtype=np.uint64))

    @classmethod
    def full(cls, level: int) -> "PermSetBitmap":
        out = cls.empty(level)
        out.words[:] = np.uint64(0xFFFFFFFFFFFFFFFF)
        out._mask_tail()
        return out

    @classmethod
    def from_indices(cls, level: int, indices) -> "PermSetBitmap":
        out = cls.empty(level)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= out.size:
                raise ValueError(
                    f"rank out of range 0..{out.size - 1} for level {level}"
                )
            np.bitwise_or.at(
                out.words,
                idx >> 6,
                np.left_shift(np.uint64(1), (idx & 63).astype(np.uint64)),
            )
        return out

    @classmethod
    def from_bool(cls, level: int, mask: np.ndarray) -> "PermSetBitmap":
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (factorial(level),):
            raise ValueError(f"expected {factorial(level)} flags for level {level}")
        return cls.from_indices(level, np.flatnonzero(mask))

    def _mask_tail(self):
        tail = self.size & 63
        if tail:
            self.words[-1] &= (np.uint64(1) << np.uint64(tail)) - np.uint64(1)

    def cardinality(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def __len__(self) -> int:
        return self.cardinality()

    def __contains__(self, rank: int) -> bool:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range 0..{self.size - 1}")
        return bool((self.words[rank >> 6] >> np.uint64(rank & 63)) & np.uint64(1))

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.to_bool())

    def to_bool(self) -> np.ndarray:
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return bits[: self.size].astype(bool)

    def __and__(self, other: "PermSetBitmap") -> "PermSetBitmap":
        self._check_same_universe(other)
        return PermSetBitmap(self.level, self.words & other.words)

    def __or__(self, other: "PermSetBitmap") -> "PermSetBitmap":
        self._check_same_universe(other)
        return PermSetBitmap(self.level, self.words | other.words)

    def __sub__(self, other: "PermSetBitmap") -> "PermSetBitmap":
        self._check_same_universe(other)
        return PermSetBitmap(self.level, self.words & ~other.words)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermSetBitmap):
            return NotImplemented
        return self.level == other.level and bool(np.array_equal(self.words, other.words))

    def __repr__(self) -> str:
        return f"PermSetBitmap(level={self.level}, cardinality={self.cardinality()})"

    def _check_same_universe(self, other: "PermSetBitmap"):
        if self.level != other.level:
            raise ValueError(
                f"universe mismatch: level {self.level} vs {other.level}"
            )


class PairStats(NamedTuple):
    """Joint coverage over ordered pairs of distinct patterns."""

    n_pairs: np.ndarray  # [c]: ordered pairs sharing exactly c covers ([0] = 0)
    partners: np.ndarray  # [p]: patterns sharing at least one cover with p
    four_cover_pairs: np.ndarray  # (k, 2) rank pairs a < b sharing 4 covers, sorted


class CoverageGraph:
    """Immutable incidence between ranked S_n and ranked S_{n+1}."""

    def __init__(self, n, cover_ranks, pattern_indptr, pattern_data, succ_counts):
        self.n = n
        self.n_patterns = factorial(n)
        self.n_covers = factorial(n + 1)
        self.cover_ranks = cover_ranks
        self.pattern_indptr = pattern_indptr
        self.pattern_data = pattern_data
        self.succ_counts = succ_counts
        self._pair_stats = None

    # -- queries ------------------------------------------------------------

    def _check_pattern_rank(self, p: int):
        if not 0 <= p < self.n_patterns:
            raise ValueError(f"pattern rank {p} out of range 0..{self.n_patterns - 1}")

    def _check_cover_rank(self, r: int):
        if not 0 <= r < self.n_covers:
            raise ValueError(f"cover rank {r} out of range 0..{self.n_covers - 1}")

    def covers_of(self, p: int) -> PermSetBitmap:
        """All (n+1)-permutations containing pattern rank p (n^2+1 of them)."""
        self._check_pattern_rank(p)
        return PermSetBitmap.from_indices(self.n + 1, self.cover_ranks[p])

    def patterns_of(self, r: int) -> PermSetBitmap:
        """Distinct one-letter-deletion patterns of cover rank r."""
        self._check_cover_rank(r)
        row = self.pattern_data[self.pattern_indptr[r] : self.pattern_indptr[r + 1]]
        return PermSetBitmap.from_indices(self.n, row)

    def pattern_row(self, r: int) -> np.ndarray:
        self._check_cover_rank(r)
        return self.pattern_data[self.pattern_indptr[r] : self.pattern_indptr[r + 1]]

    def joint_covers(self, p: int, p2: int) -> PermSetBitmap:
        """Covers containing both patterns; equals covers_of(p) when p == p2."""
        self._check_pattern_rank(p)
        self._check_pattern_rank(p2)
        if p == p2:
            return self.covers_of(p)
        return self.covers_of(p) & self.covers_of(p2)

    def co_coverable(self, p: int) -> PermSetBitmap:
        """Patterns p' != p sharing at least one cover with p.

        Computed as the union of the pattern lists of p's covers, minus p
        itself; its size is ``joint_count_matrix().partners[p]``.
        """
        self._check_pattern_rank(p)
        rows = [self.pattern_row(int(r)) for r in self.cover_ranks[p]]
        partners = np.unique(np.concatenate(rows))
        partners = partners[partners != p]
        return PermSetBitmap.from_indices(self.n, partners)

    def joint_count_matrix(self) -> PairStats:
        """The sparse joint-coverage summary (PairStats), built once and cached.

        It replaced a dense (n!, n!) matrix of joint-cover counts; the name
        is kept because the per-layer tracer wraps this method by name.
        """
        if self._pair_stats is None:
            self._pair_stats = PairStats(*_kernels.joint_pair_counts(
                self.cover_ranks, self.pattern_indptr, self.pattern_data
            ))
        return self._pair_stats

    def pattern_perm(self, p: int) -> Permutation:
        return unrank(self.n, p)

    def cover_perm(self, r: int) -> Permutation:
        return unrank(self.n + 1, r)


def selection_flags(g: CoverageGraph, sel) -> np.ndarray:
    """A selection of covers as a boolean mask over the ranks of S_{n+1}.

    ``sel`` is a PermSetBitmap over S_{n+1}, a boolean mask of length
    (n+1)!, or any other array-like read as the selected ranks.
    """
    if isinstance(sel, PermSetBitmap):
        if sel.level != g.n + 1:
            raise ValueError(
                f"selection universe is S_{sel.level}, graph covers need S_{g.n + 1}"
            )
        return sel.to_bool()
    arr = np.asarray(sel)
    if arr.dtype == bool:
        if arr.shape != (g.n_covers,):
            raise ValueError(f"expected {g.n_covers} selection flags")
        return arr
    return PermSetBitmap.from_indices(g.n + 1, arr).to_bool()


def build_graph(n: int, *, max_n: int | None = None) -> CoverageGraph:
    """Materialize the coverage graph for S_n vs S_{n+1}.

    Raises ResourceLimitError above the configured enumeration maximum
    (default 8, env PERMCOVER_MAX_N).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    limit = max_n if max_n is not None else max_enumeration_n()
    if n > limit:
        raise ResourceLimitError(
            f"n={n} exceeds the enumeration limit {limit} "
            "(raise via PERMCOVER_MAX_N or the max_n argument)"
        )

    m = n + 1
    perms_next = _kernels.all_perms(m)
    n_covers = perms_next.shape[0]

    steps = np.abs(perms_next[:, 1:].astype(np.int16) - perms_next[:, :-1].astype(np.int16))
    succ_pairs = steps == 1
    succ_counts = succ_pairs.sum(axis=1).astype(np.uint8)

    # Deleting position i or i+1 across a succession yields the same
    # pattern; keep the rightmost deletion of each run.
    keep = np.ones((n_covers, m), dtype=bool)
    keep[:, :-1] = ~succ_pairs

    weights = _kernels.lehmer_weights(n)
    deletion_ranks = np.empty((n_covers, m), dtype=np.int64)
    for i in range(m):
        sub = np.delete(perms_next, i, axis=1)
        deletion_ranks[:, i] = _kernels.lehmer_ranks(sub, weights)

    counts_per_row = keep.sum(axis=1)
    row_ids = np.repeat(np.arange(n_covers, dtype=np.int64), counts_per_row)
    kept = deletion_ranks[keep]
    order = np.lexsort((kept, row_ids))
    pattern_data = kept[order].astype(np.int32)
    pattern_rows = row_ids  # unchanged by the within-row sort

    same_row = pattern_rows[1:] == pattern_rows[:-1]
    if np.any(same_row & (pattern_data[1:] == pattern_data[:-1])):
        raise RuntimeError("duplicate pattern in a cover's deletion list")

    pattern_indptr = np.zeros(n_covers + 1, dtype=np.int64)
    np.cumsum(counts_per_row, out=pattern_indptr[1:])

    n_patterns = factorial(n)
    per_pattern = covers_per_pattern(n)
    occurrences = np.bincount(pattern_data, minlength=n_patterns)
    if occurrences.shape[0] != n_patterns or not np.all(occurrences == per_pattern):
        raise RuntimeError(
            f"cover counts are not uniformly {per_pattern} at n={n}"
        )
    by_pattern = np.argsort(pattern_data, kind="stable")
    cover_ranks = pattern_rows[by_pattern].reshape(n_patterns, per_pattern).astype(np.int32)

    return CoverageGraph(n, cover_ranks, pattern_indptr, pattern_data, succ_counts)


# ---------------------------------------------------------------------------
# Joint-coverage audit


@dataclasses.dataclass
class JointReport:
    """Summary of pairwise joint coverage over all ordered pattern pairs."""

    n: int
    max_J: int
    argmax_J: str
    max_C: int
    four_cover_pairs: list[tuple[int, int]]
    iff_adjacent_positions: bool
    iff_adjacent_values: bool
    adjacent_swap_iff_holds: bool
    bounds_ok: bool
    violations: list[dict]

    exhaustive = True  # every audit covers all pairs; the payload keeps the key

    @property
    def four_cover_pair_count(self) -> int:
        return len(self.four_cover_pairs)

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "exhaustive": self.exhaustive,
            "sample_size": None,
            "max_J": self.max_J,
            "argmax_J": self.argmax_J,
            "max_C": self.max_C,
            "four_cover_pair_count": self.four_cover_pair_count,
            "adjacent_swap_iff_holds": self.adjacent_swap_iff_holds,
            "iff_adjacent_positions": self.iff_adjacent_positions,
            "iff_adjacent_values": self.iff_adjacent_values,
            "violations": self.violations,
        }


def _adjacent_swap_pairs(n: int):
    """Unordered rank pairs differing by one swap of adjacent positions.

    Returns (all such pairs, the subset whose swapped values also differ
    by exactly 1).  The two sets are the two readings of "adjacent swap"
    that the audit checks independently.
    """
    perms = _kernels.all_perms(n)
    weights = _kernels.lehmer_weights(n)
    ranks = np.arange(perms.shape[0])
    position_pairs = set()
    value_pairs = set()
    for i in range(n - 1):
        swapped = perms.copy()
        swapped[:, [i, i + 1]] = perms[:, [i + 1, i]]
        other = _kernels.lehmer_ranks(swapped, weights)
        lower = ranks < other  # each unordered pair once
        pairs = list(zip(ranks[lower].tolist(), other[lower].tolist()))
        position_pairs.update(pairs)
        step = np.abs(perms[:, i].astype(np.int16) - perms[:, i + 1])[lower]
        value_pairs.update(pair for pair, s in zip(pairs, step.tolist()) if s == 1)
    return position_pairs, value_pairs


def audit_joint_coverage(g: CoverageGraph, *, max_reported: int = 20) -> JointReport:
    """Audit the pairwise joint-coverage structure of the graph.

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
    four_pairs = list(map(tuple, stats.four_cover_pairs.tolist()))
    four_set = set(four_pairs)

    violations: list[dict] = []
    if max_c > 4:
        violations.append({"kind": "pair_cover_count_exceeds_4", "max_C": max_c})
    if max_j > n ** 3:
        violations.append({"kind": "joint_partner_count_exceeds_n3", "max_J": max_j})

    position_pairs, value_pairs = _adjacent_swap_pairs(n)
    iff_pos = four_set == position_pairs
    iff_val = four_set == value_pairs
    holds = iff_pos or iff_val

    if not holds:
        for pair in sorted(four_set - position_pairs)[:max_reported]:
            violations.append(
                {
                    "kind": "four_cover_pair_not_adjacent_position_swap",
                    "pair": [str(g.pattern_perm(pair[0])), str(g.pattern_perm(pair[1]))],
                }
            )
        for pair in sorted(position_pairs - four_set)[:max_reported]:
            violations.append(
                {
                    "kind": "adjacent_position_swap_without_4_covers",
                    "pair": [str(g.pattern_perm(pair[0])), str(g.pattern_perm(pair[1]))],
                    "shared_covers": int(
                        (g.covers_of(pair[0]) & g.covers_of(pair[1])).cardinality()
                    ),
                }
            )

    return JointReport(
        n=n,
        max_J=max_j,
        argmax_J=str(g.pattern_perm(argmax_j)),
        max_C=max_c,
        four_cover_pairs=four_pairs,
        iff_adjacent_positions=iff_pos,
        iff_adjacent_values=iff_val,
        adjacent_swap_iff_holds=holds,
        bounds_ok=(max_c <= 4 and max_j <= n ** 3),
        violations=violations,
    )
