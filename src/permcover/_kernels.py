"""Hot numeric kernels, vectorized with numpy.

All kernels are exact integer computations, and randomness is generated
outside them and passed in as arrays, so their outputs are a pure
function of their inputs.  Callers look them up as ``_kernels.<name>``
at call time, so a wrapper installed on the module attribute (the
per-layer tracer in ``perfbench/tracing.py`` does this) sees every call.
"""
from __future__ import annotations

from math import factorial

import numpy as np

BACKEND = "numpy"  # the one kernel implementation; reported in run facts


# ---------------------------------------------------------------------------
# perms_and_deletions: every permutation of 1..length in lexicographic order,
# one per row of `perms` (uint8), and in `dels` (int64) the lexicographic
# rank in S_{length-1} of each one-letter deletion: dels[r, i] ranks
# perms[r] with position i removed and the rest standardized.
#
# Built for k = 1..length from the arrays (P, D) of length k-1.  Block
# v = 1..k of S_k holds the rows [v, s + (s >= v)] for s in S_{k-1}, in
# s's order.  Deleting position 0 leaves s, whose rank is the row's offset
# in its block.  Deleting position i >= 1 leaves the first letter
# v - [s_{i-1} < v] followed by std(s without position i-1), so its rank is
#     (v - 1 - [s_{i-1} < v]) * (k-2)! + D[s, i-1].
# Each level is whole-block array arithmetic, O(k! * k) in all.  The rank
# product is computed in int64 by `dtype=`: its uint8 operand times a small
# integer would otherwise stay uint8 under numpy 1.x value-based casting and
# wrap from k = 7 on, before `out=` ever sees it.


def perms_and_deletions(length: int):
    perms = np.zeros((1, 0), dtype=np.uint8)
    dels = np.zeros((1, 0), dtype=np.int64)
    for k in range(1, length + 1):
        v = np.arange(1, k + 1, dtype=np.uint8)[:, None, None]
        below = perms < v
        nxt = np.empty((k, perms.shape[0], k), dtype=np.uint8)
        nxt[:, :, 0] = v[:, :, 0]
        np.add(perms, ~below, out=nxt[:, :, 1:])
        ranks = np.empty(nxt.shape, dtype=np.int64)
        ranks[:, :, 0] = np.arange(perms.shape[0])
        np.multiply(v - 1 - below, factorial(max(k - 2, 0)), out=ranks[:, :, 1:], dtype=np.int64)
        ranks[:, :, 1:] += dels
        perms, dels = nxt.reshape(-1, k), ranks.reshape(-1, k)
    return perms, dels


# ---------------------------------------------------------------------------
# lehmer_ranks: lexicographic rank of every row of a matrix of distinct values
# (only relative order matters, so deleted subsequences rank correctly
# without being standardized first).  Position i carries the mixed-radix
# weight (length-1-i)!.


def lehmer_ranks(mat: np.ndarray) -> np.ndarray:
    rows, length = mat.shape
    out = np.zeros(rows, dtype=np.int64)
    for i in range(length - 1):
        smaller = (mat[:, i + 1 :] < mat[:, i : i + 1]).sum(axis=1)
        out += smaller.astype(np.int64) * factorial(length - 1 - i)
    return out


# ---------------------------------------------------------------------------
# lehmer_unrank: the inverse of lehmer_ranks, every rank in 0..length!-1 to
# its permutation of 1..length, one uint8 row each.  The Lehmer digits come
# out of one mixed-radix pass from the last position, radix length - i at
# position i.  The rows are then built from the right: digit d at position
# i is the value's rank among positions i.. (0-based), so the entries after
# it that are >= d shift up by one.


def lehmer_unrank(ranks: np.ndarray, length: int) -> np.ndarray:
    rest = np.asarray(ranks, dtype=np.int64)
    out = np.empty((rest.size, length), dtype=np.uint8)
    for i in range(length - 1, -1, -1):
        rest, digit = np.divmod(rest, length - i)
        out[:, i] = digit
        after = out[:, i + 1 :]
        after += after >= out[:, i : i + 1]
    out += 1
    return out


# ---------------------------------------------------------------------------
# count_uncovered_chunk: for a batch of independent random selections over
# S_{n+1}, count how many patterns have no selected cover.  This is the
# Monte Carlo inner loop, bit-sliced (Biham, FSE 1997): the trials of a
# batch are bit lanes, so one OR over a row of words serves 64 trials.
#
# cover_ranks is the (n!, n^2+1) table of covering ranks per pattern.
# words is (ceil(trials/64), (n+1)!) uint64, one row per block of 64
# trials: bit t of words[b, c] is set when trial 64*b + t selects cover c.
# The n^2+1 cover columns of every pattern are gathered and OR-ed
# together, and the inverted (blocks, n!) accumulator has a set bit
# exactly where a pattern is left uncovered by that trial.  The output is
# the exact integer count per trial, length `trials`; lanes at or past
# `trials` are dropped, whatever their bits.


def count_uncovered_chunk(cover_ranks: np.ndarray, words: np.ndarray,
                          trials: int) -> np.ndarray:
    blocks, n_patterns = words.shape[0], cover_ranks.shape[0]
    acc = words.take(cover_ranks[:, 0], axis=1)
    for j in range(1, cover_ranks.shape[1]):
        np.bitwise_or(acc, words.take(cover_ranks[:, j], axis=1), out=acc)
    np.invert(acc, out=acc)
    # little-endian bytes on any host, so byte k holds lanes 8k..8k+7
    lanes = acc.astype("<u8", copy=False).view(np.uint8).reshape(blocks, n_patterns, 8)
    bits = np.unpackbits(lanes, axis=2, bitorder="little")  # (blocks, n!, 64)
    return bits.sum(axis=1, dtype=np.int64).ravel()[:trials]


# ---------------------------------------------------------------------------
# joint_pair_counts: how many covers each ordered pair of distinct patterns
# shares, summarised without a dense (n!)^2 matrix.  pattern_rows is the
# graph's padded ((n+1)!, n+1) table: each cover's distinct patterns in
# ascending order, then the sentinel n!.  For each pattern p the rows of its
# n^2+1 covers are gathered into one row, in the smallest unsigned dtype
# of at least 16 bits that holds n! (uint16 up to n = 8; numpy 2.4 sorts
# uint8 rows ~20x slower), and sorted in place.  A run of value v of
# length c then says that v shares exactly c covers with p, because a
# cover lists each pattern once.  Two runs are not pairs: p's own, exactly
# n^2+1 long (the build checks that), and the sentinel's, as long as the
# row's padding; both are taken out analytically.
#
# The runs are summarised by shifted equality compares, never listed: the
# count of i with row[i] == row[i+k] is T_k, the sum of max(0, L-k) over
# the runs, whose second differences T_{c-1} - 2 T_c + T_{c+1} count the
# runs of length exactly c.  The shifts stop at the first k where only p's
# own run and the sentinel's are left, k = 4 on every real graph.  The
# number of runs in a row is its length minus its count at k = 1, so the
# partners are that minus p's run and the sentinel's.  A run of exactly 4
# starts at an i whose entry 3 on is equal and whose entries before and
# 4 on are not.  Both reads wrap around the row, onto its last or first
# entry; for a value above p that entry could equal it only if the whole
# row did, and p's own smaller run is in the row.
# Patterns are processed in blocks of _PAIR_BLOCK rows: a block at n = 8
# is a 0.6 MB row table plus bool masks of half that, far inside the
# build's own transients.  So the pair statistics leave a fresh process's
# post-build peak unchanged at n = 7 (38.5 MB) and n = 8 (110.6 MB), where
# int64 tables listing every run would raise it by ~18 MB at n = 7.  They
# take ~0.015 s at n = 7 and ~0.18 s at n = 8 (ru_maxrss and wall time,
# Python 3.11, numpy 2.4, 2 cores).
# Returns (n_pairs, partners, four_pairs), all int64: n_pairs[c] is the
# number of ordered pairs sharing exactly c >= 1 covers (n_pairs[0] = 0),
# partners[p] the number of patterns sharing at least one cover with p,
# and four_pairs the (k, 2) rank pairs a < b sharing exactly 4 covers, in
# lexicographic order.


_PAIR_BLOCK = 512


def joint_pair_counts(cover_ranks: np.ndarray, pattern_rows: np.ndarray):
    n_patterns, per_pattern = cover_ranks.shape
    width = per_pattern * pattern_rows.shape[1]
    dtype = np.promote_types(np.min_scalar_type(n_patterns), np.uint16)
    tails = np.zeros(per_pattern + 2, dtype=np.int64)  # T_k of the pair runs
    partners = np.empty(n_patterns, dtype=np.int64)
    four_pairs = []
    for lo in range(0, n_patterns, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, n_patterns)
        rows = hi - lo
        lists = pattern_rows.take(cover_ranks[lo:hi], axis=0).astype(dtype).reshape(rows, width)
        lists.sort(axis=1)
        pad = np.count_nonzero(lists == n_patterns, axis=1)
        tails[0] += rows * (width - per_pattern) - pad.sum()
        for k in range(1, per_pattern + 1):
            same = lists[:, k:] == lists[:, :-k]
            if k == 1:
                per_row = np.count_nonzero(same, axis=1)
                partners[lo:hi] = width - per_row - 1 - (pad > 0)
                equal = per_row.sum()
            else:
                equal = np.count_nonzero(same)
            tail = equal - rows * (per_pattern - k) - np.maximum(pad - k, 0).sum()
            tails[k] += tail
            if tail == 0:
                break
        head = lists[:, :-3]
        owner = np.arange(lo, hi, dtype=dtype)[:, None]
        four_on = (lists[:, 3:] == head) & (head > owner) & (head < n_patterns)
        r, i = np.divmod(np.flatnonzero(four_on), width - 3)
        value = lists[r, i]
        exact = (lists[r, i - 1] != value) & (lists[r, (i + 4) % width] != value)
        four_pairs.append(np.column_stack((r[exact] + lo, value[exact])))
    n_pairs = np.zeros(per_pattern + 1, dtype=np.int64)
    n_pairs[1:] = tails[:-2] - 2 * tails[1:-1] + tails[2:]
    return n_pairs, partners, np.concatenate(four_pairs)


# ---------------------------------------------------------------------------
# greedy_select: max-residual-coverage greedy multicover.  Each step picks
# the cover helping the most still-deficient patterns, lowest rank on ties,
# until every pattern is covered at least `lam` times.  Returns the picked
# ranks in selection order plus the unmet deficiency (0 on success).
#
# pattern_rows is the graph's padded table (see joint_pair_counts); a
# picked row is sliced to its length, its count of non-sentinel entries.
# The gains are state, kept incrementally (Minoux 1978): gains[r] is the
# number of still-deficient patterns in cover r's row, initially its
# length.  A pattern leaves the deficient set once, when a pick brings its
# multiplicity to `lam`; then each of its covers (its cover_ranks row)
# loses one.  The patterns finishing in one pick share covers, so the
# decrement is one bincount rather than a fancy-index `-=`, which would
# drop repeats.  A picked cover's gain is set to -(n! + 1); gains only
# fall, and an unpicked one never below 0, so it never again wins
# np.argmax, which breaks ties to the lowest rank.


def greedy_select(pattern_rows, cover_ranks, lam):
    n_covers = pattern_rows.shape[0]
    n_patterns = cover_ranks.shape[0]
    counts = np.zeros(n_patterns, dtype=np.int64)
    lengths = np.count_nonzero(pattern_rows < n_patterns, axis=1)
    gains = lengths.copy()
    remaining = n_patterns * lam
    picks = []
    while remaining > 0:
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            break
        picks.append(best)
        row = pattern_rows[best, : lengths[best]]
        reached = counts[row] + 1
        counts[row] = reached
        remaining -= int(np.count_nonzero(reached <= lam))
        done = row[reached == lam]
        gains -= np.bincount(cover_ranks[done].ravel(), minlength=n_covers)
        gains[best] = -n_patterns - 1
    return np.array(picks, dtype=np.int64), int(remaining)
