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
# joint_pair_counts: dense matrix of |{rho : rho covers both pi and pi'}|
# over all ordered pattern pairs, accumulated by walking every cover's
# pattern list.  Diagonal entries are left at zero (the diagonal is the
# plain cover count and is stored elsewhere).


def joint_pair_counts(indptr: np.ndarray, data: np.ndarray, n_patterns: int) -> np.ndarray:
    counts = np.zeros((n_patterns, n_patterns), dtype=np.uint8)
    lengths = np.diff(indptr)
    for k in np.unique(lengths):
        if k < 2:
            continue
        rows = np.flatnonzero(lengths == k)
        block = data[indptr[rows][:, None] + np.arange(k)]
        iu, ju = np.triu_indices(int(k), 1)
        a = block[:, iu].ravel()
        b = block[:, ju].ravel()
        np.add.at(counts, (a, b), 1)
        np.add.at(counts, (b, a), 1)
    return counts


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
