import itertools
import threading
import warnings
import weakref
from math import exp, factorial, inf, lgamma, log, nan, sqrt

import numpy as np
import pytest

from permcover import _kernels, threshold
from permcover.cover import verify_cover
from permcover.graph import build_graph
from permcover.perms import Permutation, rank
from permcover.threshold import (
    CoverProbability,
    count_uncovered,
    critical_window_p,
    exact_mean,
    exact_variance,
    gap_experiment,
    p_for_mean,
    poisson_k_max,
    poisson_pmf,
    run_uncovered_counts,
    sample_selection,
    stein_chen_bound,
    stein_chen_raw,
    threshold_boundaries,
    threshold_sweep,
    trial_rng,
    tv_distance,
    tv_standard_error,
    wilson_interval,
)


def exhaustive_law(g, p):
    """Exact pmf of the uncovered count by enumerating all selections."""
    m = g.n_covers
    pmf = {}
    for bits in itertools.product((0, 1), repeat=m):
        sel = np.array(bits, dtype=bool)
        x = count_uncovered(g, sel)
        k = int(sel.sum())
        pmf[x] = pmf.get(x, 0.0) + p**k * (1 - p) ** (m - k)
    return pmf


def lgamma_poisson(lam, k_max):
    """Poisson terms for k = 0..k_max, each from its own log."""
    return np.array([exp(k * log(lam) - lam - lgamma(k + 1)) for k in range(k_max + 1)])


class TestTrialRng:
    def test_reproducible_and_distinct(self):
        a = trial_rng(42, 0).random(4)
        b = trial_rng(42, 0).random(4)
        c = trial_rng(42, 1).random(4)
        d = trial_rng(43, 0).random(4)
        e = trial_rng(42, 0, stream=1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
        assert not np.array_equal(a, e)

    def test_block_and_stream_are_not_interchangeable(self):
        for b, k in ((0, 1), (1, 0), (3, 7), (2**32 - 1, 5)):
            raw = [trial_rng(9, x, y).bit_generator.random_raw(4) for x, y in ((b, k), (k, b))]
            assert not np.array_equal(*raw)

    # A numpy release that changed SFC64 or SeedSequence would move every
    # Monte Carlo payload; this fails first, and names the generator.
    @pytest.mark.parametrize("seed, block, stream, words", [
        (0, 0, 0, [6436986145989974540, 15791485155117540672,
                   10798289216808124728, 1025074656175579623]),
        (2**64 - 1, 5, 3, [13914271677036645374, 6402671265990206820,
                           3613277721579739687, 14177027991636485693]),
    ])
    def test_first_raw_words_pinned(self, seed, block, stream, words):
        assert trial_rng(seed, block, stream).bit_generator.random_raw(4).tolist() == words

    def test_trials_past_the_key_range_rejected(self, graph, monkeypatch):
        # 2**38 trials are 2**32 blocks; one more block would need a block
        # key of two 32-bit words, where spawn keys can collide
        monkeypatch.setattr(threshold, "_run_chunk", None)  # sampling would fail
        with pytest.raises(ValueError, match="trials must be in"):
            run_uncovered_counts(graph(2), 0.5, 2**38 + 1, master_seed=0)


class TestSampling:
    def test_degenerate_probabilities(self):
        assert sample_selection(3, 0.0, trial_rng(0, 0)).size == 0
        assert sample_selection(3, 1.0, trial_rng(0, 0)).tolist() == list(range(24))

    def test_sorted_distinct_ranks(self):
        for t in range(50):
            sel = sample_selection(3, 0.4, trial_rng(3, t))
            assert sel.dtype == np.int64
            assert np.all(np.diff(sel) > 0)
            assert sel.size == 0 or (sel[0] >= 0 and sel[-1] < 24)

    def test_mean_cardinality(self):
        # Binomial(24, 1/2): mean 12, sd sqrt(6); 3 standard errors over 1e4 trials
        trials = 10_000
        total = sum(
            sample_selection(3, 0.5, trial_rng(7, t)).size
            for t in range(trials)
        )
        se = sqrt(24 * 0.25 / trials)
        assert abs(total / trials - 12.0) <= 3 * se

    def test_matches_direct_bernoulli_marginals(self):
        # lane 0 of the block sampler is per-element Bernoulli inclusion:
        # check every element's inclusion frequency
        trials = 4000
        m = 24
        counts = np.zeros(m)
        for t in range(trials):
            counts += np.bincount(sample_selection(3, 0.3, trial_rng(11, t)), minlength=m)
        se = sqrt(0.3 * 0.7 / trials)
        assert np.all(np.abs(counts / trials - 0.3) <= 4 * se)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            sample_selection(3, 1.5, trial_rng(0, 0))


class TestBlockSampler:
    """The exact lane-parallel Bernoulli sampler behind every trial."""

    @pytest.mark.parametrize("p", [0.1, 0.15, 0.5, 1 / 3])
    def test_per_cover_and_per_lane_frequencies(self, p):
        # 0.1, 0.15 and 1/3 have 52-55 binary digits, 0.5 has one
        m, blocks = 120, 200
        words = np.stack([threshold._bernoulli_words(m, p, trial_rng(5, b, 2))
                          for b in range(blocks)])
        flags = lane_flags(words, 64 * blocks)  # (trials, covers)
        per_cover = flags.mean(axis=0)
        assert np.all(np.abs(per_cover - p) <= 5 * sqrt(p * (1 - p) / (64 * blocks)))
        per_lane = flags.reshape(blocks, 64, m).mean(axis=(0, 2))
        assert np.all(np.abs(per_lane - p) <= 5 * sqrt(p * (1 - p) / (blocks * m)))
        assert abs(flags.mean() - p) <= 4 * sqrt(p * (1 - p) / flags.size)

    def test_digits_past_the_dense_rounds_count(self):
        # p = 1/16 - 2^-40 is 0.0000 followed by 36 ones in binary; a
        # sampler that stopped after the 8 dense rounds would select at
        # 15/256, 50 standard errors below p over these 10.3M lanes
        p = 1 / 16 - 2**-40
        words = np.stack([threshold._bernoulli_words(40320, p, trial_rng(2, b)) for b in range(4)])
        rate = int(np.bitwise_count(words).sum()) / (64 * words.size)
        assert abs(rate - p) <= 5 * sqrt(p * (1 - p) / (64 * words.size))

    @pytest.mark.parametrize("p, word", [(0.0, 0), (1.0, 2**64 - 1)])
    def test_degenerate_words_draw_nothing(self, p, word):
        rng = trial_rng(1, 0)
        words = threshold._bernoulli_words(50, p, rng)
        assert words.dtype == np.uint64
        assert words.tolist() == [word] * 50
        fresh = trial_rng(1, 0).bit_generator.random_raw(4)
        assert np.array_equal(rng.bit_generator.random_raw(4), fresh)

    @pytest.mark.parametrize("p, x", [(5e-324, 6), (1 - 2**-53, 0)])
    def test_extreme_doubles_end(self, graph, p, x):
        # a subnormal p has 1074 binary digits, 1 - 2^-53 has 53 ones; a
        # lane is selected with probability 2^-1074 and missed with 2^-53
        hist = run_uncovered_counts(graph(3), p, 1000, 4)
        assert hist[x] == 1000

    def test_trials_are_a_prefix_of_longer_runs(self, graph):
        # lanes past `trials` are sampled and then masked, so 700 trials
        # are lanes 0..699 of a 768-trial run with the same seed and stream
        g = graph(5)
        p, seed, stream = 0.12, 11, 3
        words = np.stack([threshold._bernoulli_words(g.n_covers, p, trial_rng(seed, b, stream))
                          for b in range(12)])
        x = _kernels.count_uncovered_chunk(g.cover_ranks, words, 768)
        assert np.array_equal(run_uncovered_counts(g, p, 768, seed, stream=stream),
                              np.bincount(x, minlength=g.n_patterns + 1))
        assert np.array_equal(run_uncovered_counts(g, p, 700, seed, stream=stream),
                              np.bincount(x[:700], minlength=g.n_patterns + 1))


class TestCountUncovered:
    def test_empty_and_full(self, graph):
        g = graph(3)
        assert count_uncovered(g, np.zeros(24, dtype=bool)) == 6
        assert count_uncovered(g, []) == 6
        assert count_uncovered(g, np.ones(24, dtype=bool)) == 0
        assert count_uncovered(g, np.arange(24)) == 0

    def test_known_cover_leaves_nothing(self, graph):
        g = graph(3)
        sel = [rank(Permutation.parse("1342")), rank(Permutation.parse("4213"))]
        assert count_uncovered(g, sel) == 0

    def test_universe_mismatch(self, graph):
        with pytest.raises(ValueError):
            count_uncovered(graph(3), np.ones(6, dtype=bool))

    def test_rank_array_read_as_ranks(self, graph):
        # an integer array as long as S_{n+1} still lists ranks, not flags,
        # exactly as verify_cover reads it
        g = graph(3)
        ranks = np.zeros(g.n_covers, dtype=np.int64)
        ranks[:2] = [5, 17]
        x = count_uncovered(g, ranks)
        assert x == len(verify_cover(g, ranks).deficiencies) == 2
        assert x == count_uncovered(g, [0, 5, 17])


def reference_uncovered(cover_ranks, flags):
    """Plain per-trial count: patterns with no selected cover, one trial per row."""
    n_patterns = cover_ranks.shape[0]
    return np.array(
        [n_patterns - np.count_nonzero(row[cover_ranks].any(axis=1)) for row in flags],
        dtype=np.int64,
    )


def lane_words(flags):
    """Block-major lane words: trial t's flags as bit t % 64 of row t // 64."""
    trials, m = flags.shape
    padded = np.zeros((-(-trials // 64) * 64, m), dtype=bool)
    padded[:trials] = flags
    octets = np.packbits(padded, axis=0, bitorder="little").reshape(-1, 8, m)
    return np.ascontiguousarray(octets.transpose(0, 2, 1)).view("<u8")[..., 0].astype(np.uint64)


def lane_flags(words, trials):
    """Inverse of lane_words: one row of cover flags per trial."""
    lanes = np.arange(trials)
    shifted = words[lanes // 64] >> (lanes % 64).astype(np.uint64)[:, None]
    return (shifted & np.uint64(1)).astype(bool)


class TestBitSlicedKernel:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_per_trial_reference(self, graph, n):
        g = graph(n)
        rng = np.random.default_rng(1000 + n)
        for trials in (1, 7, 8, 9, 63, 64, 65, 256):
            for p in (0.0, 0.05, 0.5, 1.0):
                flags = rng.random((trials, g.n_covers)) < p
                words = lane_words(flags)
                assert words.shape == ((trials + 63) // 64, g.n_covers)
                assert np.array_equal(lane_flags(words, trials), flags)
                x = _kernels.count_uncovered_chunk(g.cover_ranks, words, trials)
                assert x.shape == (trials,)
                assert np.array_equal(x, reference_uncovered(g.cover_ranks, flags)), (
                    trials, p)

    def test_strided_mask_view(self, graph):
        g = graph(4)
        mask = np.random.default_rng(5).random(2 * g.n_covers) < 0.1
        view = mask[::2]
        assert not view.flags.c_contiguous
        x = count_uncovered(g, view)
        assert x == count_uncovered(g, view.copy())
        assert x == reference_uncovered(g.cover_ranks, view[None, :])[0]

    def test_chunks_match_per_trial_sampling(self, graph):
        # two chunks, the second ending in a partial block: the sampling
        # path agrees with each trial rebuilt from its lane of its block's
        # words and counted alone
        g = graph(4)
        p, trials, seed, stream = 0.2, 300, 3, 1
        hist = run_uncovered_counts(g, p, trials, seed, stream=stream)
        words = np.stack([
            threshold._bernoulli_words(g.n_covers, p, trial_rng(seed, b, stream))
            for b in range(5)
        ])
        flags = lane_flags(words, trials)
        expected = np.bincount(
            reference_uncovered(g.cover_ranks, flags), minlength=g.n_patterns + 1
        )
        assert np.array_equal(hist, expected)
        # sample_selection is lane 0 of the same sampler
        for b in range(5):
            sel = sample_selection(4, p, trial_rng(seed, b, stream))
            assert np.array_equal(sel, np.flatnonzero(flags[64 * b]))


class TestGoldenHistograms:
    """Histograms pinned to literals: a change that moves payload bytes
    (RNG stream layout, draw order, counting) fails here."""

    def test_n6_three_chunks_partial_byte(self, graph):
        # 700 trials: chunks of 256, 256 and 188, the last block 60 lanes wide
        hist = run_uncovered_counts(graph(6), 0.15, 700, 7, stream=0)
        expected = np.zeros(721, dtype=np.int64)
        for x, c in {0: 116, 1: 226, 2: 176, 3: 96, 4: 51, 5: 20, 6: 11, 7: 2, 11: 2}.items():
            expected[x] = c
        assert np.array_equal(hist, expected)

    @pytest.mark.parametrize("p, x", [(0.0, 120), (1.0, 0)])
    def test_n5_degenerate(self, graph, p, x):
        hist = run_uncovered_counts(graph(5), p, 700, 7, stream=0)
        expected = np.zeros(121, dtype=np.int64)
        expected[x] = 700
        assert np.array_equal(hist, expected)


class TestExactMoments:
    def test_mean_examples(self):
        assert exact_mean(3, 0.0) == 6.0
        assert exact_mean(5, 1.0) == 0.0
        assert exact_mean(6, 0.1) == pytest.approx(720 * 0.9**37, rel=1e-12)
        assert exact_mean(6, 0.1) == pytest.approx(14.598402905, rel=1e-9)

    def test_variance_degenerate(self, graph):
        g = graph(3)
        assert exact_variance(g, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert exact_variance(g, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_variance_exhaustive_oracle_n2(self, graph):
        g = graph(2)
        for p in (0.1, 0.3, 0.6):
            law = exhaustive_law(g, p)
            mean = sum(k * w for k, w in law.items())
            var = sum((k - mean) ** 2 * w for k, w in law.items())
            assert exact_variance(g, p) == pytest.approx(var, rel=1e-12)
            assert exact_mean(2, p) == pytest.approx(mean, rel=1e-12)

    def test_variance_vs_monte_carlo_n3(self, graph):
        g = graph(3)
        p = 0.1
        trials = 100_000
        hist = run_uncovered_counts(g, p, trials, master_seed=5)
        ks = np.arange(hist.size)
        mean = float((ks * hist).sum()) / trials
        s2 = float((hist * (ks - mean) ** 2).sum()) / (trials - 1)
        # self-normalized check: sampling error of the sample variance via
        # the empirical fourth central moment
        m4 = float((hist * (ks - mean) ** 4).sum()) / trials
        se_var = sqrt(max(m4 - s2**2, 0.0) / trials)
        assert abs(s2 - exact_variance(g, p)) <= 3 * se_var

    # Recorded from the dense (n!)^2 pair-count matrix before the sparse
    # pair statistics replaced it: the gap workload's K values at n = 7.
    @pytest.mark.parametrize("K, var, raw", [
        (-1, 0.32849298969354157, 0.004241125182995843),
        (0, 1.1238974194494067, 0.012270138202904912),
        (1, 3.781944943458445, 0.0339538911089038),
        (2, 12.744345872632493, 0.08950219365808158),
    ])
    def test_golden_n7(self, K, var, raw, graph):
        g = graph(7)
        p = critical_window_p(7, K)
        assert exact_variance(g, p) == var
        assert stein_chen_raw(g, p) == raw

    def test_invalid_p(self, graph):
        with pytest.raises(ValueError):
            exact_mean(3, -0.1)
        with pytest.raises(ValueError):
            exact_variance(graph(3), 1.1)


class TestSteinChen:
    def test_limit_near_total_selection(self, graph):
        g = graph(3)
        assert stein_chen_raw(g, 1.0) == pytest.approx(0.0, abs=1e-12)
        p = 1 - 1e-4
        # bound collapses to ~2(1-p)^(n^2+1) as the mean vanishes
        assert stein_chen_raw(g, p) == pytest.approx(2 * (1 - p) ** 10, rel=0.05)
        assert stein_chen_bound(g, p) >= 0.0

    def test_raw_not_significantly_negative(self, graph):
        assert stein_chen_raw(graph(6), 0.15) >= -1e-9

    def test_bounds_measured_tv_n3(self, graph):
        g = graph(3)
        p = 0.1
        trials = 10_000
        report = gap_experiment(g, p, trials, master_seed=3)
        lam = exact_mean(3, p)
        ref, _ = poisson_pmf(lam, poisson_k_max(lam))
        se = tv_standard_error(ref, trials)
        assert report["tv_to_poisson"] <= stein_chen_bound(g, p) + 3 * se


class TestAnalyticThresholds:
    def test_boundaries_at_7(self):
        p_zero, p_one = threshold_boundaries(7, 1.0)
        assert p_zero == pytest.approx(0.1345780840390786, rel=1e-12)
        assert p_one == pytest.approx(0.1753944105696908, rel=1e-12)
        assert p_zero < p_one

    def test_boundaries_scale_like_log_n_over_n(self):
        ratios = []
        for n in (10, 100, 1000):
            _, p_one = threshold_boundaries(n, 1.0)
            ratios.append(p_one / (log(n) / n))
        assert ratios == sorted(ratios)
        assert abs(1 - ratios[-1]) < abs(1 - ratios[0])

    def test_boundaries_domain(self):
        with pytest.raises(ValueError):
            threshold_boundaries(1, 1.0)
        with pytest.raises(ValueError):
            threshold_boundaries(7, 0.0)

    def test_negative_p_zero_is_clamped_to_0(self):
        # the formula gives p_zero = -0.1283... at n = 3, omega = 2
        p_zero, p_one = threshold_boundaries(3, 2.0)
        assert p_zero == 0.0
        assert p_one == pytest.approx(0.3161270011487094, rel=1e-12)

    def test_p_one_above_1_is_clamped_to_1(self):
        # the formula gives p_one = 24.9... at n = 2, omega = 100
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the raw values are not inverted
            assert threshold_boundaries(2, 100.0) == (0.0, 1.0)

    def test_boundaries_are_ordered(self):
        # p_one - p_zero = 2 omega / n^2 can vanish in rounding at tiny omega
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in range(2, 51):
                for exponent in range(-30, 301):
                    p_zero, p_one = threshold_boundaries(n, 10.0 ** exponent)
                    assert p_zero <= p_one, (n, exponent)

    @pytest.mark.parametrize("omega", [inf, nan, -1.0])
    def test_boundaries_need_a_positive_finite_omega(self, omega):
        with pytest.raises(ValueError, match="omega must be positive"):
            threshold_boundaries(7, omega)

    def test_critical_window_examples(self):
        assert critical_window_p(7, 0.0) == pytest.approx(0.15498624730438468, rel=1e-12)
        assert critical_window_p(8, 0.0) == pytest.approx(0.15117582975435317, rel=1e-12)

    def test_critical_window_decreasing_in_K(self):
        values = [critical_window_p(7, k) for k in (-1.0, 0.0, 1.0, 2.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_critical_window_range_error(self):
        with pytest.raises(ValueError):
            critical_window_p(7, 10_000.0)

    def test_p_for_mean_examples(self):
        assert p_for_mean(5, float(factorial(5))) == 0.0
        closed_form = 1 - (1 / 5040) ** (1 / 50)
        assert p_for_mean(7, 1.0) == pytest.approx(closed_form, abs=1e-9)

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("target", [0.1, 1.0, 10.0])
    def test_p_for_mean_round_trip(self, n, target):
        p = p_for_mean(n, target)
        assert exact_mean(n, p) == pytest.approx(target, rel=1e-9)

    def test_p_for_mean_range_errors(self):
        with pytest.raises(ValueError):
            p_for_mean(3, 0.0)
        with pytest.raises(ValueError):
            p_for_mean(3, 7.0)


class TestDistributionHelpers:
    def test_poisson_degenerate(self):
        pmf, tail = poisson_pmf(0.0, 0)
        assert pmf.tolist() == [1.0]
        assert tail == 0.0

    def test_poisson_closed_form(self):
        pmf, _ = poisson_pmf(1.0, 5)
        assert pmf[0] == pytest.approx(exp(-1), rel=1e-12)
        assert pmf[3] == pytest.approx(exp(-1) / 6, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 14.6])
    def test_poisson_mass_accounting(self, lam):
        k_max = poisson_k_max(lam)
        pmf, tail = poisson_pmf(lam, k_max)
        assert tail < 1e-12
        assert float(pmf.sum()) + tail == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 700.0, 745.0, 800.0, 5000.0])
    def test_poisson_matches_log_space_terms(self, lam):
        # above lam ~ 708 exp(-lam) underflows; the reference must not
        k_max = poisson_k_max(lam)
        assert k_max < lam + 20 * sqrt(lam) + 50  # not the safety stop
        pmf, tail = poisson_pmf(lam, k_max)
        ref = lgamma_poisson(lam, k_max)
        np.testing.assert_allclose(pmf, ref, rtol=1e-9, atol=1e-300)
        assert tail == pytest.approx(max(0.0, 1.0 - float(ref.sum())), abs=1e-9)
        assert tail < 1e-11
        assert float(pmf.sum()) + tail == pytest.approx(1.0, abs=1e-11)
        assert float(np.arange(k_max + 1) @ pmf) == pytest.approx(lam, rel=1e-9)

    def test_poisson_start_far_beyond_k_max(self, monkeypatch):
        # every term up to k_max underflows; the start search must not walk
        # to the mode one term at a time
        calls = []

        def counting_lgamma(x):
            calls.append(x)
            return lgamma(x)

        monkeypatch.setattr(threshold, "lgamma", counting_lgamma)
        pmf, tail = poisson_pmf(1e7, 10)
        assert pmf.tolist() == [0.0] * 11
        assert tail == 1.0
        assert len(calls) < 64

    def test_tv_examples(self):
        assert tv_distance({0: 1.0}, {0: 1.0}) == 0.0
        assert tv_distance({0: 1.0}, {1: 1.0}) == 1.0
        assert tv_distance({0: 0.5, 1: 0.5}, {0: 1.0}) == pytest.approx(0.5)

    def test_tv_validation(self):
        with pytest.raises(ValueError):
            tv_distance({0: 0.9}, {0: 1.0})
        with pytest.raises(ValueError):
            tv_distance({0: 1.5, 1: -0.5}, {0: 1.0})

    def test_wilson_endpoints(self):
        lo, hi = wilson_interval(10, 10)
        assert hi == pytest.approx(1.0)
        assert 0.65 < lo < 1.0
        lo, hi = wilson_interval(0, 10)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < hi < 0.35


class TestMonteCarlo:
    def test_cover_probability_degenerate(self, graph):
        g = graph(3)
        full = CoverProbability.from_histogram(run_uncovered_counts(g, 1.0, 200, master_seed=0))
        assert full.estimate == 1.0 and full.ci_hi == pytest.approx(1.0)
        none = CoverProbability.from_histogram(run_uncovered_counts(g, 0.0, 200, master_seed=0))
        assert none.estimate == 0.0

    def test_cover_probability_near_poisson_heuristic(self, graph):
        # P(cover) should sit near exp(-E[X]) when the mean is moderate
        g = graph(6)
        p = p_for_mean(6, 0.5)
        est = CoverProbability.from_histogram(run_uncovered_counts(g, p, 10_000, master_seed=2))
        assert abs(est.estimate - exp(-0.5)) <= 0.10

    def test_per_pattern_uncovered_marginal(self, graph):
        # a fixed pattern is uncovered with probability (1-p)^(n^2+1)
        g = graph(3)
        p, trials, target_rank = 0.2, 10_000, 0
        row = g.cover_ranks[target_rank]
        misses = 0
        for t in range(trials):
            sel = sample_selection(3, p, trial_rng(21, t))
            if not np.isin(row, sel).any():
                misses += 1
        expected = (1 - p) ** 10
        se = sqrt(expected * (1 - expected) / trials)
        assert abs(misses / trials - expected) <= 3 * se

    def test_worker_count_invariance(self, graph):
        g = graph(4)
        base = run_uncovered_counts(g, 0.12, 700, master_seed=9, workers=1)
        for workers in (2, 3):
            assert np.array_equal(
                base, run_uncovered_counts(g, 0.12, 700, master_seed=9, workers=workers)
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_histograms_are_summed_as_they_finish(self, graph, monkeypatch, workers):
        # every histogram _run_chunk returns is counted while it is alive;
        # keeping each chunk's until the end would hold all 64 at once
        lock = threading.Lock()
        alive, peak = [0], [0]

        def release():
            with lock:
                alive[0] -= 1

        def counted(*args):
            hist = run_chunk(*args)
            with lock:
                alive[0] += 1
                peak[0] = max(peak[0], alive[0])
            weakref.finalize(hist, release)
            return hist

        run_chunk = threshold._run_chunk
        monkeypatch.setattr(threshold, "_run_chunk", counted)
        trials = 64 * threshold._CHUNK_TRIALS
        hist = run_uncovered_counts(graph(4), 0.1, trials, master_seed=3, workers=workers)
        assert hist.sum() == trials
        assert peak[0] <= 2 * workers

    def test_chunks_read_the_graphs_own_table(self, graph, monkeypatch):
        # the counting kernel gets g.cover_ranks itself, never a copy
        g = graph(4)
        tables = []

        def recorded(cover_ranks, words, trials):
            tables.append(cover_ranks)
            return count_chunk(cover_ranks, words, trials)

        count_chunk = _kernels.count_uncovered_chunk
        monkeypatch.setattr(_kernels, "count_uncovered_chunk", recorded)
        run_uncovered_counts(g, 0.1, 3 * threshold._CHUNK_TRIALS, master_seed=5, workers=2)
        assert len(tables) == 3
        assert all(table is g.cover_ranks for table in tables)

    def test_a_run_leaves_the_graph_as_built(self):
        # a Monte Carlo run adds no attribute, cache or array to the graph
        g = build_graph(5)

        def held_bytes():
            return sum(v.nbytes for v in vars(g).values() if isinstance(v, np.ndarray))

        before, nbytes = dict(vars(g)), held_bytes()
        run_uncovered_counts(g, 0.05, 2 * threshold._CHUNK_TRIALS, master_seed=1, workers=2)
        assert vars(g).keys() == before.keys()
        assert all(vars(g)[k] is v for k, v in before.items())
        assert held_bytes() == nbytes

    @pytest.mark.parametrize("stream", [-1, 2**64])
    def test_stream_out_of_range(self, graph, stream):
        with pytest.raises(ValueError, match="stream must be in"):
            run_uncovered_counts(graph(2), 0.5, 10, master_seed=0, stream=stream)
        for edge in (0, 2**64 - 1):
            assert run_uncovered_counts(graph(2), 0.5, 10, master_seed=0, stream=edge).sum() == 10

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, graph, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            run_uncovered_counts(graph(2), 0.5, 10, master_seed=seed)
        for edge in (0, 2**64 - 1):
            assert run_uncovered_counts(graph(2), 0.5, 10, master_seed=edge).sum() == 10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [0.05, 0.1, 0.2])
    def test_mean_calibration_small(self, n, p, graph):
        # end-to-end check of sampler, graph, and moment formulas at once
        g = graph(n)
        trials = 10_000
        hist = run_uncovered_counts(g, p, trials, master_seed=n)
        mean = float((np.arange(hist.size) * hist).sum()) / trials
        tol = 3 * sqrt(exact_variance(g, p) / trials)
        assert abs(mean - exact_mean(n, p)) <= tol


class TestSweep:
    def test_degenerate_grid(self, graph):
        rows = threshold_sweep(graph(3), [0.0, 1.0], 100, master_seed=0)
        assert rows[0]["phat"] == 0.0
        assert rows[-1]["phat"] == 1.0
        assert rows[0]["lambda_exact"] == 6.0

    def test_unsorted_grid_rejected(self, graph):
        with pytest.raises(ValueError):
            threshold_sweep(graph(3), [0.5, 0.1], 10, master_seed=0)

    def test_monotone_up_to_ci_overlap(self, graph):
        g = graph(5)
        p_zero, p_one = threshold_boundaries(5, 2.0)
        grid = np.linspace(max(p_zero, 0.01), p_one, 9)
        rows = threshold_sweep(g, grid, 500, master_seed=4)
        for a, b in zip(rows, rows[1:]):
            assert b["ci_hi"] >= a["ci_lo"]

    @pytest.mark.parametrize("grid", [[0.1, 1.5], [0.1, nan, 0.2]], ids=["above-1", "nan"])
    def test_grid_checked_before_sampling(self, graph, monkeypatch, grid):
        def sample(*args, **kwargs):
            raise AssertionError("sampled before the grid was checked")

        monkeypatch.setattr(threshold, "run_uncovered_counts", sample)
        with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
            threshold_sweep(graph(3), grid, 50, master_seed=0)


class TestGapExperiment:
    def test_tv_at_a_mean_beyond_exp_underflow(self, graph):
        # lambda = 5040 (1 - 1e-4)^50 ~ 5014.9, where exp(-lambda) is 0
        g = graph(7)
        report = gap_experiment(g, 1e-4, 1000, master_seed=0)
        lam = report["lambda_exact"]
        assert lam == pytest.approx(5014.86, abs=0.01)
        ref = lgamma_poisson(lam, int(lam + 40 * sqrt(lam)))
        emp = np.zeros(ref.size)
        for k, v in report["empirical_pmf"].items():
            emp[int(k)] = v
        expected = 0.5 * float(np.abs(emp - ref).sum()) + 0.5 * (1.0 - float(ref.sum()))
        assert report["tv_to_poisson"] == pytest.approx(expected, abs=1e-9)
        assert 0.5 < report["tv_to_poisson"] < 0.9

    def test_full_selection_is_delta_zero(self, graph):
        report = gap_experiment(graph(3), 1.0, 1500, master_seed=0)
        assert report["empirical_pmf"] == {"0": 1.0}
        assert report["tv_to_poisson"] == pytest.approx(0.0, abs=1e-12)
        assert report["lambda_exact"] == 0.0

    def test_exhaustive_oracle_n2(self, graph):
        g = graph(2)
        p = 0.3
        law = exhaustive_law(g, p)
        report = gap_experiment(g, p, 20_000, master_seed=1)
        assert tv_distance(report["empirical_pmf"], law) <= 0.02
        assert sum(report["empirical_pmf"].values()) == pytest.approx(1.0, abs=1e-12)

    def test_small_trials_flagged(self, graph):
        report = gap_experiment(graph(2), 0.3, 64, master_seed=0)
        assert any("trials" in w for w in report["warnings"])

    def test_payload_deterministic_across_workers(self, graph):
        g = graph(4)
        a = gap_experiment(g, 0.1, 600, master_seed=8, workers=1)
        b = gap_experiment(g, 0.1, 600, master_seed=8, workers=3)
        assert a == b

    def test_mean_ratio_reporting(self, graph):
        report = gap_experiment(graph(4), 0.1, 1200, master_seed=0, K_nominal=0.5)
        lam = report["lambda_exact"]
        assert report["mean_ratio_decaying"] == pytest.approx(
            lam / (sqrt(2 * np.pi) * exp(-0.5)), rel=1e-12
        )
        assert report["mean_ratio_growing"] == pytest.approx(
            lam / (sqrt(2 * np.pi) * exp(0.5)), rel=1e-12
        )

    def test_tv_decreases_along_regime(self, graph):
        # distance to the Poisson reference shrinks (up to slack) as p
        # grows through multiples of log n / n^2
        g = graph(6)
        base = log(6) / 36
        tvs = [
            gap_experiment(g, mult * base, 10_000, master_seed=6)["tv_to_poisson"]
            for mult in (2, 4, 8)
        ]
        assert tvs[1] <= tvs[0] + 0.02
        assert tvs[2] <= tvs[1] + 0.02
