"""Hot numeric kernels, vectorized with numpy.

All kernels are exact integer computations, and randomness is generated
outside them and passed in as arrays, so their outputs are a pure
function of their inputs.  Callers look them up as ``_kernels.<name>``
at call time, so a wrapper installed on the module attribute (the
per-layer tracer in ``perfbench/tracing.py`` does this) sees every call.
"""
from __future__ import annotations

import itertools
from math import factorial

import numpy as np

BACKEND = "numpy"  # the one kernel implementation; reported in run facts


def all_perms(length: int) -> np.ndarray:
    """All permutations of 1..length in lexicographic order, one per row."""
    return np.array(
        list(itertools.permutations(range(1, length + 1))), dtype=np.uint8
    )


def lehmer_weights(length: int) -> np.ndarray:
    """Mixed-radix weights for ranking: weights[i] = (length-1-i)!."""
    return np.array([factorial(length - 1 - i) for i in range(length)], dtype=np.int64)


# ---------------------------------------------------------------------------
# lehmer_ranks: lexicographic rank of every row of a matrix of distinct values
# (only relative order matters, so deleted subsequences rank correctly
# without being standardized first).


def lehmer_ranks(mat: np.ndarray, weights: np.ndarray) -> np.ndarray:
    rows, length = mat.shape
    out = np.zeros(rows, dtype=np.int64)
    for i in range(length - 1):
        smaller = (mat[:, i + 1 :] < mat[:, i : i + 1]).sum(axis=1)
        out += smaller.astype(np.int64) * weights[i]
    return out


# ---------------------------------------------------------------------------
# count_uncovered_chunk: for a batch of independent random selections over
# S_{n+1}, count how many patterns have no selected cover.  This is the
# Monte Carlo inner loop, bit-sliced (Biham, FSE 1997): the trials of a
# batch are bit positions, so one OR over a row of words serves 64 trials.
#
# cover_ranks is the (n!, n^2+1) table of covering ranks per pattern.
# packed is (ceil(trials/8), (n+1)!) uint8: bit t % 8 of row t // 8 is set
# when trial t selects that cover; bits at or past `trials` must be zero.
# The rows are transposed once into one row of uint64 words per cover, the
# n^2+1 cover rows of every pattern are OR-ed together, and the inverted
# accumulator has a set bit exactly where a pattern is left uncovered by
# that trial.  The output is the exact integer count per trial, length
# `trials`.


def count_uncovered_chunk(cover_ranks: np.ndarray, packed: np.ndarray,
                          trials: int) -> np.ndarray:
    n_bytes, n_covers = packed.shape
    words = -(-n_bytes // 8)
    by_cover = np.zeros((n_covers, 8 * words), dtype=np.uint8)
    by_cover[:, :n_bytes] = packed.T
    rows = by_cover.view(np.uint64)
    acc = rows.take(cover_ranks[:, 0], axis=0)
    for j in range(1, cover_ranks.shape[1]):
        np.bitwise_or(acc, rows.take(cover_ranks[:, j], axis=0), out=acc)
    np.invert(acc, out=acc)
    bits = np.unpackbits(acc.view(np.uint8), axis=1, count=trials, bitorder="little")
    return bits.sum(axis=0, dtype=np.int64)


# ---------------------------------------------------------------------------
# joint_pair_counts: how many covers each ordered pair of distinct patterns
# shares, summarised without a dense (n!)^2 matrix.  For each pattern p the
# pattern lists of its n^2+1 covers (padded to a common width) are gathered
# into one row and sorted; a run of value v != p of length c then says that
# v shares exactly c covers with p, because a cover lists each pattern once.
# Patterns are processed in blocks of _PAIR_BLOCK rows, which bounds the
# transient: at n=8 the kernel then peaks below the graph build (~205 MB),
# where one unblocked pass peaks at ~790 MB.
# Returns (n_pairs, partners, four_pairs): n_pairs[c] is the number of
# ordered pairs sharing exactly c >= 1 covers (n_pairs[0] = 0), partners[p]
# the number of patterns sharing at least one cover with p, and four_pairs
# the (k, 2) rank pairs a < b sharing exactly 4 covers, in lexicographic
# order.


_PAIR_BLOCK = 2048


def joint_pair_counts(cover_ranks: np.ndarray, indptr: np.ndarray, data: np.ndarray):
    n_patterns, per_pattern = cover_ranks.shape
    n_covers = indptr.shape[0] - 1
    lengths = np.diff(indptr)
    padded = np.full((n_covers, int(lengths.max())), n_patterns, dtype=data.dtype)
    padded[np.repeat(np.arange(n_covers), lengths),
           np.arange(data.shape[0]) - np.repeat(indptr[:-1], lengths)] = data
    n_pairs = np.zeros(per_pattern + 1, dtype=np.int64)
    partners = np.zeros(n_patterns, dtype=np.int64)
    four_pairs = []
    for lo in range(0, n_patterns, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, n_patterns)
        lists = padded[cover_ranks[lo:hi]].reshape(hi - lo, -1)
        lists.sort(axis=1)
        starts = np.ones(lists.shape, dtype=bool)
        np.not_equal(lists[:, 1:], lists[:, :-1], out=starts[:, 1:])
        at = np.flatnonzero(starts)
        run = np.diff(at, append=lists.size)
        value = lists.ravel()[at]
        owner = at // lists.shape[1] + lo
        keep = (value != owner) & (value != n_patterns)
        run, value, owner = run[keep], value[keep], owner[keep]
        n_pairs += np.bincount(run, minlength=per_pattern + 1)
        partners[lo:hi] = np.bincount(owner - lo, minlength=hi - lo)
        four = (run == 4) & (value > owner)
        four_pairs.append(np.column_stack((owner[four], value[four])))
    return n_pairs, partners, np.concatenate(four_pairs)


# ---------------------------------------------------------------------------
# greedy_select: max-residual-coverage greedy multicover.  Each step picks
# the cover helping the most still-deficient patterns, lowest rank on ties,
# until every pattern is covered at least `lam` times.  Returns the picked
# ranks in selection order plus the unmet deficiency (0 on success).


def greedy_select(indptr, data, n_patterns, lam):
    n_covers = indptr.shape[0] - 1
    counts = np.zeros(n_patterns, dtype=np.int64)
    available = np.ones(n_covers, dtype=bool)
    deficient = np.ones(n_patterns, dtype=bool)
    remaining = n_patterns * lam
    picks = []
    starts = indptr[:-1]
    while remaining > 0:
        gains = np.add.reduceat(deficient[data].astype(np.int32), starts)
        gains[~available] = -1
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            break
        picks.append(best)
        available[best] = False
        row = data[indptr[best] : indptr[best + 1]]
        remaining -= int(np.count_nonzero(deficient[row]))
        counts[row] += 1
        deficient[row] = counts[row] < lam
    return np.array(picks, dtype=np.int64), int(remaining)


# ---------------------------------------------------------------------------
# subset_cover_exists: exhaustive search for a size-k subset of covers whose
# pattern sets union to everything.  Used as the independent oracle against
# the branch-and-bound solver: plain combination enumeration over pattern
# bitmasks, pruned only by (a) requiring every chosen set to add at least
# one new pattern and (b) the remaining-capacity count.  Both prunes are
# sound when k is probed in increasing order.


def subset_cover_exists(pat_bool: np.ndarray, k: int, max_gain: int) -> bool:
    if k < 0:
        raise ValueError("k must be >= 0")
    n_sets, n_patterns = pat_bool.shape
    full = (1 << n_patterns) - 1
    masks = []
    for r in range(n_sets):
        m = 0
        for q in np.flatnonzero(pat_bool[r]):
            m |= 1 << int(q)
        masks.append(m)

    def rec(start: int, acc: int, depth: int) -> bool:
        if acc == full:
            return True
        if depth == k:
            return False
        need = (full & ~acc).bit_count()
        if need > (k - depth) * max_gain:
            return False
        for i in range(start, n_sets - (k - depth) + 1):
            new = acc | masks[i]
            if new != acc and rec(i + 1, new, depth + 1):
                return True
        return False

    return rec(0, 0, 0)
