"""Monte Carlo engine for the random-selection coverage model.

The model: every permutation in S_{n+1} is selected independently with
probability p; X counts the n-patterns left with no selected cover.  This
module estimates coverage probabilities across p (the zero-one threshold
sits at the log n / n scale), runs the critical-window distributional
experiment, and evaluates the exact mean/variance of X, the Stein-Chen
Poisson-approximation bound, and empirical total-variation distances.

Reproducibility contract: trials run in blocks of 64, one trial per bit
lane of a uint64 word, and block b's randomness is a pure function of
(master_seed, b, stream): the raw 64-bit words of one SFC64 stream seeded
by ``SeedSequence(master_seed, spawn_key=(stream, b))`` (see
``trial_rng``), read with ``random_raw`` and no ``Generator`` method.  The
key is injective while b < 2**32, so a run holds at most 2**38 trials.  The
draw order within a block is fixed (see ``_bernoulli_words``),
so results are bit-identical for any worker count or chunk schedule, and
the first t trials of a run do not depend on how many trials follow them;
aggregation is integer-count based.  Trials parallelize freely over a
shared read-only graph.

Each cover is selected by comparing a uniform random binary fraction with
the binary expansion of the double p, digit by digit, 64 lanes at a time:
exactly Bernoulli(p) for that double (Knuth and Yao, "The complexity of
nonuniform random number generation", 1976).
"""
from __future__ import annotations

import dataclasses
import sys
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from math import exp, factorial, inf, lgamma, log, log1p, sqrt, pi

import numpy as np

from . import _kernels
from .graph import CoverageGraph, covers_per_pattern, selection_flags

Z95 = 1.959963984540054

# Poisson mass the truncated reference may leave out (see poisson_k_max).
_POISSON_TAIL_TOL = 1e-12

# Trials per chunk, the unit of work a pool thread runs: four 64-trial
# blocks.  It must stay a multiple of 64, so a chunk never splits a block
# and the chunk size never changes which stream a trial's lane comes from.
_CHUNK_TRIALS = 256

# Most trials in one run: 2**32 blocks of 64, the blocks whose spawn key
# (see trial_rng) is injective.
_MAX_TRIALS = 2**38

# Rounds in which every cover draws a word, before only the covers with an
# undecided lane do (see _bernoulli_words).  Part of the draw order.
_DENSE_ROUNDS = 8


# ---------------------------------------------------------------------------
# Randomness and sampling


def trial_rng(master_seed: int, block: int, stream: int = 0) -> np.random.Generator:
    """Seeded generator for one block of 64 trials.

    SFC64 seeded by ``SeedSequence(master_seed, spawn_key=(stream, block))``:
    the hashed seed sequence makes blocks and streams independent, and the
    generator is identical no matter which worker runs the block (Salmon
    et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011; O'Neill,
    "PCG", 2014).  SeedSequence writes each key entry as its 32-bit words,
    so the key is injective while block < 2**32: past that,
    (stream=2**32 + 1, block=7) and (stream=1, block=1 + 7 * 2**32) collide,
    which ``run_uncovered_counts`` rules out by its trial limit.  Trials
    64*block .. 64*block + 63 are the bit lanes of the block's sample, which
    reads only the bit generator's raw 64-bit words
    (``bit_generator.random_raw``).  It replaced a Philox stream keyed by
    (master_seed, block), so a seed no longer reproduces that stream's
    Monte Carlo output.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=(stream, block))
    return np.random.Generator(np.random.SFC64(seq))


def _bernoulli_words(m: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """m uint64 words of independent Bernoulli(p) bits, exact for the double p:
    bit t of word c says whether lane t selects cover c.

    Each lane selects its cover when a uniform fraction 0.u_1 u_2 ... falls
    below p = 0.b_1 ... b_e, whose e binary digits come from
    ``p.as_integer_ratio()``.  Round i reads one raw word per cover: a lane
    still undecided is selected where the word's bit is 0 and b_i is 1,
    dropped where it is 1 and b_i is 0, and stays undecided where they
    agree; a lane still undecided after digit e is dropped.  Draw order:
    in rounds 1.._DENSE_ROUNDS every cover draws one word, in rank order;
    in each later round only the covers with an undecided lane do, in rank
    order, and sampling ends when none is left or the digits run out.  All
    64 lanes are always sampled, so the draws never depend on how many of
    them a caller keeps.  p = 0 and p = 1 draw nothing.
    """
    if p == 1.0:
        return np.full(m, 2**64 - 1, dtype=np.uint64)
    num, den = float(p).as_integer_ratio()
    digits = den.bit_length() - 1  # den = 2**digits, and p = 0 has no digits
    raw = rng.bit_generator.random_raw
    selected = np.zeros(m, dtype=np.uint64)
    undecided = np.full(m, 2**64 - 1, dtype=np.uint64)
    for i in range(min(digits, _DENSE_ROUNDS)):
        r = raw(m)
        if num >> (digits - 1 - i) & 1:
            r &= undecided  # the lanes that stay undecided
            undecided ^= r  # the lanes whose bit is 0
            selected |= undecided
            undecided = r
        else:
            undecided &= ~r
    covers = np.flatnonzero(undecided)
    undecided = undecided[covers]
    for i in range(_DENSE_ROUNDS, digits):
        if not covers.size:
            break
        r = raw(covers.size)
        if num >> (digits - 1 - i) & 1:
            r &= undecided
            selected[covers] |= undecided ^ r
            undecided = r
        else:
            undecided &= ~r
        left = np.flatnonzero(undecided)
        covers, undecided = covers[left], undecided[left]
    return selected


def sample_selection(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """One random selection over S_{n+1}, each rank kept with probability p,
    as the sorted selected ranks: lane 0 of the block sampler on ``rng``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return np.flatnonzero(_bernoulli_words(factorial(n + 1), p, rng) & np.uint64(1))


def count_uncovered(g: CoverageGraph, sel) -> int:
    """Number of patterns with no selected cover under the given selection:
    a boolean mask over the ranks of S_{n+1}, or an array of selected ranks
    (see ``selection_flags``)."""
    words = selection_flags(g, sel).astype(np.uint64)[None, :]  # one trial: lane 0
    x = _kernels.count_uncovered_chunk(g.cover_ranks, words, 1)
    return int(x[0])


# ---------------------------------------------------------------------------
# Exact moments of X


def exact_mean(n: int, p: float) -> float:
    """E[X] = n! (1-p)^(n^2+1), in log space."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p == 0.0:
        return float(factorial(n))
    if p == 1.0:
        return 0.0
    return exp(lgamma(n + 1) + covers_per_pattern(n) * log1p(-p))


def exact_variance(g: CoverageGraph, p: float) -> float:
    """Exact Var(X) under the independent-selection model.

    Var(X) = n! q(1-q) + sum over ordered pattern pairs sharing c >= 1
    covers of ((1-p)^(2(n^2+1)-c) - q^2), with q = (1-p)^(n^2+1); pairs
    with disjoint cover sets contribute nothing.  The pair counts N_c come
    from the graph's cached sparse pair statistics.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    k = covers_per_pattern(g.n)
    q = (1.0 - p) ** k
    hist = g.joint_count_matrix().n_pairs
    var = factorial(g.n) * q * (1.0 - q)
    for c in range(1, hist.shape[0]):
        n_pairs = int(hist[c])
        if n_pairs:
            var += n_pairs * ((1.0 - p) ** (2 * k - c) - q * q)
    return var


def stein_chen_raw(g: CoverageGraph, p: float) -> float:
    """V(X)/E(X) - 1 + 2(1-p)^(n^2+1), computed in a cancellation-free form.

    The ratio is expanded so the p -> 1 limit (E(X) -> 0) stays finite:
    V/E - 1 = -q + (1/n!) * sum_c N_c ((1-p)^(n^2+1-c) - q).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    k = covers_per_pattern(g.n)
    q = (1.0 - p) ** k
    hist = g.joint_count_matrix().n_pairs
    ratio_minus_one = -q
    nfact = factorial(g.n)
    for c in range(1, hist.shape[0]):
        n_pairs = int(hist[c])
        if n_pairs:
            ratio_minus_one += n_pairs * ((1.0 - p) ** (k - c) - q) / nfact
    return ratio_minus_one + 2.0 * q


def stein_chen_bound(g: CoverageGraph, p: float) -> float:
    """Poisson-approximation total-variation bound, clamped at zero."""
    return max(0.0, stein_chen_raw(g, p))


# ---------------------------------------------------------------------------
# Analytic threshold quantities


def threshold_boundaries(n: int, omega: float) -> tuple[float, float]:
    """Analytic (non-coverage, coverage) boundary selection probabilities.

    Below p_zero the random ensemble asymptotically fails to cover; above
    p_one it asymptotically covers.  omega, positive and finite, is the
    diverging slack.  Both are clamped to [0, 1], which the formulas leave
    at small n or large omega.  p_one - p_zero is 2 omega / n^2 > 0, but at
    tiny omega rounding can leave p_zero an ulp above p_one, which is then
    raised to it.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 < omega < inf:  # also rejects NaN
        raise ValueError(f"omega must be positive and finite, got {omega}")
    ln = log(n)
    p_zero = (ln - 1.0 + 0.5 * ln / n - omega / n) / n
    p_one = max(ln / n - 1.0 / n + ln / (2.0 * n * n) + omega / (n * n), p_zero)
    return min(max(p_zero, 0.0), 1.0), min(max(p_one, 0.0), 1.0)


def critical_window_p(n: int, K: float) -> float:
    """Selection probability at offset K inside the critical window:
    (log n - 1 + (log n)/(2n) - K/n) / n.  Decreasing in K."""
    p = (log(n) - 1.0 + 0.5 * log(n) / n - K / n) / n
    if not 0.0 < p < 1.0:
        raise ValueError(f"window offset K={K} gives p={p} outside (0, 1)")
    return p


def p_for_mean(n: int, mean_target: float) -> float:
    """The unique p in [0, 1) with E[X] = mean_target, by bisection.

    Monotone bisection on exact_mean to absolute tolerance 1e-12.
    """
    nfact = factorial(n)
    if not 0.0 < mean_target <= nfact:
        raise ValueError(f"mean target must be in (0, {nfact}]")
    if mean_target == nfact:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if exact_mean(n, mid) > mean_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Distribution helpers


def _poisson_start(lam: float) -> tuple[int, float]:
    """The first k whose Poisson term is a normal double, and that term, by bisection
    in log space: exp(-lam) underflows above lam ~ 708, and terms rise to k = floor(lam)."""
    if not exp(-lam) < sys.float_info.min:
        return 0, exp(-lam)

    def term(k: int) -> float:
        return exp(k * log(lam) - lam - lgamma(k + 1))

    k = bisect_left(range(int(lam) + 1), True, key=lambda k: term(k) >= sys.float_info.min)
    return k, term(k)


def poisson_pmf(lam: float, k_max: int) -> tuple[np.ndarray, float]:
    """Poisson probabilities for k = 0..k_max plus the truncated tail mass.

    Stable multiplicative recurrence from the first normal term (earlier
    terms are 0); no renormalization (the discarded tail is returned so
    callers can account for it).
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    out = np.zeros(k_max + 1, dtype=float)
    k0, term = _poisson_start(lam)
    for k in range(k0, k_max + 1):
        out[k] = term
        term = term * lam / (k + 1)
    return out, max(0.0, 1.0 - float(out.sum()))


def poisson_k_max(lam: float) -> int:
    """Smallest k_max whose truncated Poisson tail is below _POISSON_TAIL_TOL.

    Past the mode the tail is also bounded by term * lam / (k + 1 - lam),
    since at large lam the summed terms' rounding can exceed the tolerance."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    k, term = _poisson_start(lam)
    cum = term
    while 1.0 - cum > _POISSON_TAIL_TOL:
        if k + 1 > lam and term * lam / (k + 1 - lam) <= _POISSON_TAIL_TOL:
            break
        k += 1
        term *= lam / k
        cum += term
    return k


def _as_pmf_dict(pmf) -> dict[int, float]:
    if isinstance(pmf, dict):
        return {int(k): float(v) for k, v in pmf.items()}
    arr = np.asarray(pmf, dtype=float)
    return {k: float(v) for k, v in enumerate(arr)}


def tv_distance(pmf_a, pmf_b) -> float:
    """Total variation distance between two pmfs on the nonnegative
    integers: half the L1 distance over the union of supports."""
    a = _as_pmf_dict(pmf_a)
    b = _as_pmf_dict(pmf_b)
    for name, d in (("first", a), ("second", b)):
        total = sum(d.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{name} pmf sums to {total}, not 1")
        if any(v < 0 for v in d.values()):
            raise ValueError(f"{name} pmf has negative mass")
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (well-behaved at 0/1)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# Trial running


def _run_chunk(g: CoverageGraph, p: float, master_seed: int, stream: int,
               start: int, stop: int) -> np.ndarray:
    """Histogram of X over trials start..stop-1, with start a multiple of 64."""
    blocks = range(start // 64, -(-stop // 64))
    words = np.empty((len(blocks), g.n_covers), dtype=np.uint64)
    for row, b in zip(words, blocks):
        row[:] = _bernoulli_words(g.n_covers, p, trial_rng(master_seed, b, stream))
    x = _kernels.count_uncovered_chunk(g.cover_ranks, words, stop - start)
    return np.bincount(x, minlength=g.n_patterns + 1)


def run_uncovered_counts(
    g: CoverageGraph,
    p: float,
    trials: int,
    master_seed: int,
    *,
    stream: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """Histogram of X over ``trials`` independent selections.

    Returns integer counts indexed by X value (length n!+1).  The result
    depends only on (n, p, trials, master_seed, stream): chunks of whole
    64-trial blocks run on a pool of ``workers`` threads, but never change
    which generator a block uses, and the histogram sum is
    order-insensitive.  Thread i sums chunks i, i + workers, ... as they
    finish, so memory does not grow with the trial count.  At most 2**38
    trials, where the blocks' spawn keys stay distinct (see ``trial_rng``).
    """
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be in [1, 2**38], got {trials}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if not 0 <= master_seed < 2**64:
        raise ValueError("seed must be in [0, 2**64)")
    if not 0 <= stream < 2**64:
        raise ValueError("stream must be in [0, 2**64)")
    starts = range(0, trials, _CHUNK_TRIALS)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(
            lambda first: sum(
                _run_chunk(g, p, master_seed, stream, s, min(s + _CHUNK_TRIALS, trials))
                for s in starts[first::workers]
            ),
            range(min(workers, len(starts))),
        ))


# ---------------------------------------------------------------------------
# Reports


@dataclasses.dataclass
class CoverProbability:
    """P(a random selection covers S_n), with its Wilson 95% interval."""

    estimate: float
    ci_lo: float
    ci_hi: float
    covers: int
    trials: int

    @classmethod
    def from_histogram(cls, hist: np.ndarray) -> CoverProbability:
        """The estimate from a histogram of X: the trials with X = 0 cover."""
        covers, trials = int(hist[0]), int(hist.sum())
        return cls(covers / trials, *wilson_interval(covers, trials), covers, trials)


def threshold_sweep(
    g: CoverageGraph,
    p_grid,
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
) -> list[dict]:
    """Coverage-probability estimates along an ascending grid of p values,
    one row per grid point, keyed by CSV column.

    Each grid point runs as its own stream of the master seed.
    """
    grid = [float(p) for p in p_grid]
    if not grid or sorted(grid) != grid:
        raise ValueError("p_grid must be a non-empty ascending grid")
    if not all(0.0 <= p <= 1.0 for p in grid):  # also rejects NaN
        raise ValueError("p must be in [0, 1]")
    rows = []
    for i, p in enumerate(grid):
        est = CoverProbability.from_histogram(
            run_uncovered_counts(g, p, trials, master_seed, stream=i, workers=workers)
        )
        rows.append({
            "p": p,
            "covers": est.covers,
            "trials": est.trials,
            "phat": est.estimate,
            "ci_lo": est.ci_lo,
            "ci_hi": est.ci_hi,
            "lambda_exact": exact_mean(g.n, p),
        })
    return rows


def gap_experiment(
    g: CoverageGraph,
    p: float,
    trials: int,
    master_seed: int,
    *,
    K_nominal: float | None = None,
    workers: int = 1,
) -> dict:
    """Empirical law of X versus the Poisson reference with the exact mean,
    as the ``gap`` payload: a dict keyed by field name, with the pmf keyed
    by strings as JSON requires, plus the run's notes under ``warnings``,
    which the CLI moves to the envelope.

    The reference is Poisson(n!(1-p)^(n^2+1)) truncated where its tail
    drops below 1e-12; the whole empirical support is always enclosed, and
    half the truncated tail is added to the reported distance so the
    truncation can only overstate it.  Below 1000 trials the TV estimate
    is flagged as noisy rather than refused.
    """
    notes = []
    if trials < 1000:
        notes.append(
            f"tv_to_poisson from only {trials} trials; not a reliable distance estimate"
        )
    hist = run_uncovered_counts(g, p, trials, master_seed, workers=workers)
    observed = np.flatnonzero(hist)
    pmf = {int(k): int(hist[k]) / trials for k in observed}
    mean = float(sum(k * v for k, v in pmf.items()))
    if trials > 1:
        second = sum(hist[k] * (k - mean) ** 2 for k in observed)
        variance = float(second / (trials - 1))
    else:
        variance = 0.0

    lam = exact_mean(g.n, p)
    k_max = max(poisson_k_max(lam), int(observed.max()) if observed.size else 0)
    ref, tail = poisson_pmf(lam, k_max)
    tv = 0.5 * sum(abs(pmf.get(k, 0.0) - ref[k]) for k in range(k_max + 1)) + 0.5 * tail

    raw = stein_chen_raw(g, p)

    if K_nominal is not None:
        base = sqrt(2.0 * pi)
        ratio_dec = lam / (base * exp(-K_nominal))
        ratio_gro = lam / (base * exp(K_nominal))
    else:
        ratio_dec = ratio_gro = None

    return {
        "n": g.n,
        "p": p,
        "trials": trials,
        "master_seed": master_seed,
        "K_nominal": K_nominal,
        "lambda_exact": lam,
        "empirical_pmf": {str(k): v for k, v in pmf.items()},
        "empirical_mean": mean,
        "empirical_variance": variance,
        "tv_to_poisson": tv,
        "cover_probability": dataclasses.asdict(CoverProbability.from_histogram(hist)),
        "stein_chen_bound": max(0.0, raw),
        "stein_chen_raw": raw,
        "exact_variance": exact_variance(g, p),
        "mean_ratio_decaying": ratio_dec,  # lambda_exact / (sqrt(2 pi) e^{-K})
        "mean_ratio_growing": ratio_gro,  # lambda_exact / (sqrt(2 pi) e^{+K})
        "warnings": notes,
    }


def tv_standard_error(reference_pmf, trials: int) -> float:
    """Upper bound on the Monte Carlo standard error of an empirical TV.

    TV is half a sum of absolute deviations of binomial proportions; the
    L2 triangle inequality bounds its standard deviation by half the sum
    of the per-bin standard deviations sqrt(p_k(1-p_k)/trials).
    """
    ref = _as_pmf_dict(reference_pmf)
    return 0.5 * sum(sqrt(v * (1.0 - v) / trials) for v in ref.values())
