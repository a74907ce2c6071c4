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
# product is computed in int64 by `dtype=`: under NEP 50 (numpy >= 2) its
# uint8 operand times a Python int stays uint8, so without it the product
# wraps before `out=` sees it (uint8 3 times 120 gives 104) or raises
# OverflowError once the factorial leaves uint8 (times 720).


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
# cover_ranks is the graph's (n!, n^2+1) table of covering ranks per
# pattern, intp and column-major: each step gathers one of its columns, and
# `take` reads that contiguous run as its index without a cast.
# words is (ceil(trials/64), (n+1)!) uint64, one row per block of 64
# trials: bit t of words[b, c] is set when trial 64*b + t selects cover c.
# The n^2+1 cover columns of every pattern are gathered and OR-ed
# together, and the inverted (blocks, n!) accumulator has a set bit
# exactly where a pattern is left uncovered by that trial.  A zero word
# adds nothing to any lane's count, so each block row unpacks and sums
# only its nonzero words: near the coverage threshold that is 50 to a few
# thousand of n! = 5040 at n = 7, and the count takes ~0.05 ms instead of
# ~1.1 ms per 256-trial chunk; with every word nonzero it costs the same.
# The output is the exact integer count per trial, length `trials`; lanes
# at or past `trials` are dropped, whatever their bits.


def count_uncovered_chunk(cover_ranks: np.ndarray, words: np.ndarray,
                          trials: int) -> np.ndarray:
    columns = cover_ranks.T
    acc = words.take(columns[0], axis=1)
    for column in columns[1:]:
        np.bitwise_or(acc, words.take(column, axis=1), out=acc)
    np.invert(acc, out=acc)
    out = np.empty((acc.shape[0], 64), dtype=np.int64)
    for block, row in enumerate(acc):
        # little-endian bytes on any host, so byte k holds lanes 8k..8k+7
        live = row[row != 0].astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        bits = np.unpackbits(live, axis=1, bitorder="little")  # (nonzero words, 64)
        out[block] = bits.sum(axis=0, dtype=np.int64)
    return out.ravel()[:trials]


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
# pattern_rows is the graph's padded table (see joint_pair_counts).  The
# multiplicities are a Python list, since a pick touches at most n+1 of
# them: a numpy call per pick costs more than the work it does.  The list
# has one more slot, for the sentinel n!, which starts above `lam` and so
# never counts as deficient.
# The gains are state, kept incrementally (Minoux 1978): gains[r] is the
# number of still-deficient patterns in cover r's row, initially its
# length.  A pattern leaves the deficient set once, when a pick brings its
# multiplicity to `lam`; then each of its covers (its cover_ranks row)
# loses one.  The patterns finishing in one pick share covers, so the
# decrement is np.subtract.at, which keeps the repeats that a fancy-index
# `-=` would drop.  A picked cover's gain is set to -(n! + 1), below any
# unpicked one, which never falls below 0.
#
# The maximum is found without a scan per pick.  A gain is an integer in
# 0..n+1 and never rises, so the maximum `top` never rises either.  The
# bucket of covers whose gain equals `top` is listed once, in rank order,
# and walked: an entry whose gain has since fallen is skipped, and the
# first that still has gain `top` is exactly np.argmax's pick, the lowest
# rank of maximum gain.  Every entry before it in the bucket has fallen
# below `top` or been picked, and no cover outside the bucket can reach
# `top`.  When the walk ends no gain equals `top`, so the search goes on
# one lower; the bucket is listed at most n+2 times, once per value.
# Picking stops at top 0: no cover helps a deficient pattern.  At n = 7
# this took the kernel from 18.4 to 7.6 ms at lam = 1 (Python 3.11,
# numpy 2.4, 2 cores).


def greedy_select(pattern_rows, cover_ranks, lam):
    n_patterns = cover_ranks.shape[0]
    counts = [0] * n_patterns + [lam + 1]
    gains = np.count_nonzero(pattern_rows < n_patterns, axis=1)
    remaining = n_patterns * lam
    picks = []
    top = int(gains.max())
    while remaining > 0 and top > 0:
        for best in np.flatnonzero(gains == top).tolist():
            if gains[best] != top:
                continue
            picks.append(best)
            done = []
            for p in pattern_rows[best].tolist():
                reached = counts[p] + 1
                counts[p] = reached
                if reached <= lam:
                    remaining -= 1
                    if reached == lam:
                        done.append(p)
            if done:
                np.subtract.at(gains, cover_ranks[done], 1)
            gains[best] = -n_patterns - 1
            if remaining == 0:
                break
        else:
            top -= 1
    return np.array(picks, dtype=np.int64), remaining
