"""Monte Carlo engine for the random-selection coverage model.

The model: every permutation in S_{n+1} is selected independently with
probability p; X counts the n-patterns left with no selected cover.  This
module estimates coverage probabilities across p (the zero-one threshold
sits at the log n / n scale), runs the critical-window distributional
experiment, and evaluates the exact mean/variance of X, the Stein-Chen
Poisson-approximation bound, and empirical total-variation distances.

Reproducibility contract: each trial's randomness is a pure function of
(master_seed, trial_index, stream) through a counter-based Philox
generator, so results are bit-identical for any worker count or chunk
schedule; aggregation is integer-count based.  Trials parallelize freely
over a shared read-only graph.

Selections are sampled as a Binomial((n+1)!, p) count followed by a
uniform distinct subset of that size, which is equal in law to per-element
Bernoulli selection and cheaper at small p; the equivalence is covered by
a property test.
"""
from __future__ import annotations

import dataclasses
import warnings
from concurrent.futures import ThreadPoolExecutor
from math import exp, factorial, lgamma, log, log1p, sqrt, pi

import numpy as np

from . import _kernels
from .graph import CoverageGraph, PermSetBitmap, covers_per_pattern, selection_flags

Z95 = 1.959963984540054

# Trials per chunk: the batch width of one bit-sliced count (256 trials =
# 32 bytes = 4 words per cover).  RNG streams are keyed per trial, so the
# chunk size never changes which stream a trial uses, only the batching.
_CHUNK_TRIALS = 256


# ---------------------------------------------------------------------------
# Randomness and sampling


def trial_rng(master_seed: int, trial_index: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for one trial.

    Philox keyed by (master_seed, trial_index) with the stream id in the
    counter block: independent across trials and streams, and identical no
    matter which worker runs the trial.
    """
    key = np.array([master_seed, trial_index], dtype=np.uint64)
    counter = np.array([0, 0, 0, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _selected_ranks(m: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """The distinct ranks in 0..m-1 one trial selects (empty if none)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    k = int(rng.binomial(m, p))
    if not k:
        return np.empty(0, dtype=np.int64)
    return rng.choice(m, size=k, replace=False, shuffle=False)


def sample_selection(n: int, p: float, rng: np.random.Generator) -> PermSetBitmap:
    """One random selection over S_{n+1}: each rank kept with probability p."""
    return PermSetBitmap.from_indices(n + 1, _selected_ranks(factorial(n + 1), p, rng))


def count_uncovered(g: CoverageGraph, sel) -> int:
    """Number of patterns with no selected cover under the given selection:
    a bitmap over S_{n+1}, a boolean mask over its ranks, or an array of
    selected ranks (see ``selection_flags``)."""
    packed = selection_flags(g, sel).astype(np.uint8)[None, :]  # one trial: bit 0
    x = _kernels.count_uncovered_chunk(g.cover_ranks, packed, 1)
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
    p_one it asymptotically covers.  omega > 0 is the diverging slack.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if omega <= 0:
        raise ValueError("omega must be positive")
    ln = log(n)
    p_zero = (ln - 1.0 + 0.5 * ln / n - omega / n) / n
    p_one = ln / n - 1.0 / n + ln / (2.0 * n * n) + omega / (n * n)
    if p_zero >= p_one:
        warnings.warn(
            f"threshold boundaries inverted at n={n}, omega={omega}: "
            f"p_zero={p_zero} >= p_one={p_one}",
            stacklevel=2,
        )
    return p_zero, p_one


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


def poisson_pmf(lam: float, k_max: int) -> tuple[np.ndarray, float]:
    """Poisson probabilities for k = 0..k_max plus the truncated tail mass.

    Stable multiplicative recurrence; no renormalization (the discarded
    tail is returned so callers can account for it).
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    out = np.zeros(k_max + 1, dtype=float)
    out[0] = exp(-lam)
    for k in range(1, k_max + 1):
        out[k] = out[k - 1] * lam / k
    return out, max(0.0, 1.0 - float(out.sum()))


def poisson_k_max(lam: float, tail_tol: float = 1e-12) -> int:
    """Smallest k_max whose truncated Poisson tail is below tail_tol."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    term = exp(-lam)
    cum = term
    k = 0
    while 1.0 - cum > tail_tol:
        k += 1
        term *= lam / k
        cum += term
        if k > 10 * (lam + 50):  # pragma: no cover - unreachable safety stop
            break
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
    m = g.n_covers
    trials = stop - start
    packed = np.zeros((-(-trials // 8), m), dtype=np.uint8)
    for i, t in enumerate(range(start, stop)):
        rng = trial_rng(master_seed, t, stream)
        packed[i >> 3, _selected_ranks(m, p, rng)] |= np.uint8(1 << (i & 7))
    x = _kernels.count_uncovered_chunk(g.cover_ranks, packed, trials)
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
    depends only on (n, p, trials, master_seed, stream): chunking and
    worker count never change which generator a trial uses, and the
    histogram sum is order-insensitive.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    spans = [
        (s, min(s + _CHUNK_TRIALS, trials)) for s in range(0, trials, _CHUNK_TRIALS)
    ]
    if workers <= 1 or len(spans) == 1:
        parts = [_run_chunk(g, p, master_seed, stream, a, b) for a, b in spans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(lambda ab: _run_chunk(g, p, master_seed, stream, *ab), spans)
            )
    return np.sum(parts, axis=0)


# ---------------------------------------------------------------------------
# Reports


@dataclasses.dataclass
class CoverProbability:
    estimate: float
    ci_lo: float
    ci_hi: float
    covers: int
    trials: int


def mc_cover_probability(
    g: CoverageGraph,
    p: float,
    trials: int,
    master_seed: int,
    *,
    stream: int = 0,
    workers: int = 1,
) -> CoverProbability:
    """Monte Carlo estimate of P(random selection covers S_n), Wilson 95% CI."""
    hist = run_uncovered_counts(
        g, p, trials, master_seed, stream=stream, workers=workers
    )
    covers = int(hist[0])
    lo, hi = wilson_interval(covers, trials)
    return CoverProbability(covers / trials, lo, hi, covers, trials)


@dataclasses.dataclass
class SweepRow:
    p: float
    covers: int
    trials: int
    phat: float
    ci_lo: float
    ci_hi: float
    lambda_exact: float


@dataclasses.dataclass
class SweepReport:
    n: int
    trials: int
    master_seed: int
    rows: list[SweepRow]
    omega_ref: float
    p_zero: float | None
    p_one: float | None

    CSV_COLUMNS = ("p", "covers", "trials", "phat", "ci_lo", "ci_hi", "lambda_exact")

    def to_rows(self) -> list[dict]:
        return [dataclasses.asdict(r) for r in self.rows]


def threshold_sweep(
    g: CoverageGraph,
    p_grid,
    trials: int,
    master_seed: int,
    *,
    omega_ref: float = 2.0,
    workers: int = 1,
) -> SweepReport:
    """Coverage-probability estimates along an ascending grid of p values.

    Each grid point runs as its own stream of the master seed.  The
    analytic threshold boundaries at ``omega_ref`` are attached for
    reference when n >= 2.
    """
    grid = [float(p) for p in p_grid]
    if sorted(grid) != grid:
        raise ValueError("p_grid must be sorted ascending")
    rows = []
    for i, p in enumerate(grid):
        est = mc_cover_probability(
            g, p, trials, master_seed, stream=i, workers=workers
        )
        rows.append(
            SweepRow(
                p=p,
                covers=est.covers,
                trials=trials,
                phat=est.estimate,
                ci_lo=est.ci_lo,
                ci_hi=est.ci_hi,
                lambda_exact=exact_mean(g.n, p),
            )
        )
    if g.n >= 2:
        p_zero, p_one = threshold_boundaries(g.n, omega_ref)
    else:
        p_zero = p_one = None
    return SweepReport(
        n=g.n,
        trials=trials,
        master_seed=master_seed,
        rows=rows,
        omega_ref=omega_ref,
        p_zero=p_zero,
        p_one=p_one,
    )


@dataclasses.dataclass
class GapReport:
    """Distributional summary of X at one selection probability."""

    n: int
    p: float
    trials: int
    master_seed: int
    K_nominal: float | None
    lambda_exact: float
    empirical_pmf: dict[int, float]
    empirical_mean: float
    empirical_variance: float
    tv_to_poisson: float
    cover_probability: CoverProbability
    stein_chen: float
    stein_chen_raw: float
    exact_variance: float
    mean_ratio_decaying: float | None  # lambda_exact / (sqrt(2 pi) e^{-K})
    mean_ratio_growing: float | None  # lambda_exact / (sqrt(2 pi) e^{+K})
    warnings: list[str]

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "K_nominal": self.K_nominal,
            "lambda_exact": self.lambda_exact,
            "empirical_pmf": {str(k): v for k, v in sorted(self.empirical_pmf.items())},
            "empirical_mean": self.empirical_mean,
            "empirical_variance": self.empirical_variance,
            "tv_to_poisson": self.tv_to_poisson,
            "cover_probability": dataclasses.asdict(self.cover_probability),
            "stein_chen_bound": self.stein_chen,
            "stein_chen_raw": self.stein_chen_raw,
            "exact_variance": self.exact_variance,
            "mean_ratio_decaying": self.mean_ratio_decaying,
            "mean_ratio_growing": self.mean_ratio_growing,
            "warnings": self.warnings,
        }


def gap_experiment(
    g: CoverageGraph,
    p: float,
    trials: int,
    master_seed: int,
    *,
    K_nominal: float | None = None,
    workers: int = 1,
) -> GapReport:
    """Empirical law of X versus the Poisson reference with the exact mean.

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

    covers = int(hist[0])
    lo, hi = wilson_interval(covers, trials)
    cover_prob = CoverProbability(covers / trials, lo, hi, covers, trials)

    raw = stein_chen_raw(g, p)
    var_exact = exact_variance(g, p)

    if K_nominal is not None:
        base = sqrt(2.0 * pi)
        ratio_dec = lam / (base * exp(-K_nominal))
        ratio_gro = lam / (base * exp(K_nominal))
    else:
        ratio_dec = ratio_gro = None

    return GapReport(
        n=g.n,
        p=p,
        trials=trials,
        master_seed=master_seed,
        K_nominal=K_nominal,
        lambda_exact=lam,
        empirical_pmf=pmf,
        empirical_mean=mean,
        empirical_variance=variance,
        tv_to_poisson=tv,
        cover_probability=cover_prob,
        stein_chen=max(0.0, raw),
        stein_chen_raw=raw,
        exact_variance=var_exact,
        mean_ratio_decaying=ratio_dec,
        mean_ratio_growing=ratio_gro,
        warnings=notes,
    )


def tv_standard_error(reference_pmf, trials: int) -> float:
    """Upper bound on the Monte Carlo standard error of an empirical TV.

    TV is half a sum of absolute deviations of binomial proportions; the
    L2 triangle inequality bounds its standard deviation by half the sum
    of the per-bin standard deviations sqrt(p_k(1-p_k)/trials).
    """
    ref = _as_pmf_dict(reference_pmf)
    return 0.5 * sum(sqrt(v * (1.0 - v) / trials) for v in ref.values())
