import itertools
from math import exp, factorial, log, sqrt

import numpy as np
import pytest

from permcover import _kernels
from permcover.cover import verify_cover
from permcover.graph import PermSetBitmap
from permcover.perms import Permutation, rank
from permcover.threshold import (
    count_uncovered,
    critical_window_p,
    exact_mean,
    exact_variance,
    gap_experiment,
    mc_cover_probability,
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


class TestSampling:
    def test_degenerate_probabilities(self):
        assert sample_selection(3, 0.0, trial_rng(0, 0)).cardinality() == 0
        assert sample_selection(3, 1.0, trial_rng(0, 0)).cardinality() == 24

    def test_mean_cardinality(self):
        # Binomial(24, 1/2): mean 12, sd sqrt(6); 3 standard errors over 1e4 trials
        trials = 10_000
        total = sum(
            sample_selection(3, 0.5, trial_rng(7, t)).cardinality()
            for t in range(trials)
        )
        se = sqrt(24 * 0.25 / trials)
        assert abs(total / trials - 12.0) <= 3 * se

    def test_matches_direct_bernoulli_marginals(self):
        # binomial-count + uniform-subset realization must match per-element
        # Bernoulli inclusion: check every element's inclusion frequency
        trials = 4000
        m = 24
        counts = np.zeros(m)
        for t in range(trials):
            counts += sample_selection(3, 0.3, trial_rng(11, t)).to_bool()
        se = sqrt(0.3 * 0.7 / trials)
        assert np.all(np.abs(counts / trials - 0.3) <= 4 * se)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            sample_selection(3, 1.5, trial_rng(0, 0))


class TestCountUncovered:
    def test_empty_and_full(self, graph):
        g = graph(3)
        assert count_uncovered(g, PermSetBitmap.empty(4)) == 6
        assert count_uncovered(g, PermSetBitmap.full(4)) == 0

    def test_known_cover_leaves_nothing(self, graph):
        g = graph(3)
        sel = PermSetBitmap.from_indices(
            4, [rank(Permutation.parse("1342")), rank(Permutation.parse("4213"))]
        )
        assert count_uncovered(g, sel) == 0

    def test_universe_mismatch(self, graph):
        with pytest.raises(ValueError):
            count_uncovered(graph(3), PermSetBitmap.full(3))

    def test_rank_array_read_as_ranks(self, graph):
        # an integer array as long as S_{n+1} still lists ranks, not flags,
        # exactly as verify_cover reads it
        g = graph(3)
        ranks = np.zeros(g.n_covers, dtype=np.int64)
        ranks[:2] = [5, 17]
        x = count_uncovered(g, ranks)
        assert x == len(verify_cover(g, ranks).deficiencies) == 2
        assert x == count_uncovered(g, PermSetBitmap.from_indices(4, [0, 5, 17]))


def reference_uncovered(cover_ranks, flags):
    """Plain per-trial count: patterns with no selected cover, one trial per row."""
    n_patterns = cover_ranks.shape[0]
    return np.array(
        [n_patterns - np.count_nonzero(row[cover_ranks].any(axis=1)) for row in flags],
        dtype=np.int64,
    )


class TestBitSlicedKernel:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_per_trial_reference(self, graph, n):
        g = graph(n)
        rng = np.random.default_rng(1000 + n)
        for trials in (1, 7, 8, 9, 63, 64, 65, 256):
            for p in (0.0, 0.05, 0.5, 1.0):
                flags = rng.random((trials, g.n_covers)) < p
                # bit t % 8 of row t // 8 is trial t's flag
                packed = np.packbits(flags, axis=0, bitorder="little")
                assert packed.shape == ((trials + 7) // 8, g.n_covers)
                x = _kernels.count_uncovered_chunk(g.cover_ranks, packed, trials)
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
        # two chunks, the second ending in a partial byte: the packed
        # sampling path agrees with each trial's own selection counted alone
        g = graph(4)
        p, trials, seed, stream = 0.2, 300, 3, 1
        hist = run_uncovered_counts(g, p, trials, seed, stream=stream)
        flags = np.array([
            sample_selection(4, p, trial_rng(seed, t, stream)).to_bool()
            for t in range(trials)
        ])
        expected = np.bincount(
            reference_uncovered(g.cover_ranks, flags), minlength=g.n_patterns + 1
        )
        assert np.array_equal(hist, expected)


class TestGoldenHistograms:
    """Histograms pinned to literals: a change that moves payload bytes
    (RNG stream layout, sampling order, counting) fails here."""

    def test_n6_three_chunks_partial_byte(self, graph):
        hist = run_uncovered_counts(graph(6), 0.15, 700, 7, stream=0)
        expected = np.zeros(721, dtype=np.int64)
        for x, c in {0: 123, 1: 209, 2: 174, 3: 112, 4: 50, 5: 21, 6: 5, 7: 4, 8: 2}.items():
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
        assert report.tv_to_poisson <= stein_chen_bound(g, p) + 3 * se


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
        full = mc_cover_probability(g, 1.0, 200, master_seed=0)
        assert full.estimate == 1.0 and full.ci_hi == pytest.approx(1.0)
        none = mc_cover_probability(g, 0.0, 200, master_seed=0)
        assert none.estimate == 0.0

    def test_cover_probability_near_poisson_heuristic(self, graph):
        # P(cover) should sit near exp(-E[X]) when the mean is moderate
        g = graph(6)
        p = p_for_mean(6, 0.5)
        est = mc_cover_probability(g, p, 10_000, master_seed=2)
        assert abs(est.estimate - exp(-0.5)) <= 0.10

    def test_per_pattern_uncovered_marginal(self, graph):
        # a fixed pattern is uncovered with probability (1-p)^(n^2+1)
        g = graph(3)
        p, trials, target_rank = 0.2, 10_000, 0
        row = g.cover_ranks[target_rank]
        misses = 0
        for t in range(trials):
            sel = sample_selection(3, p, trial_rng(21, t))
            flags = sel.to_bool()
            if not flags[row].any():
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
        report = threshold_sweep(graph(3), [0.0, 1.0], 100, master_seed=0)
        assert report.rows[0].phat == 0.0
        assert report.rows[-1].phat == 1.0
        assert report.rows[0].lambda_exact == 6.0

    def test_unsorted_grid_rejected(self, graph):
        with pytest.raises(ValueError):
            threshold_sweep(graph(3), [0.5, 0.1], 10, master_seed=0)

    def test_monotone_up_to_ci_overlap(self, graph):
        g = graph(5)
        p_zero, p_one = threshold_boundaries(5, 2.0)
        grid = np.linspace(max(p_zero, 0.01), p_one, 9)
        report = threshold_sweep(g, grid, 500, master_seed=4)
        for a, b in zip(report.rows, report.rows[1:]):
            assert b.ci_hi >= a.ci_lo

    def test_boundaries_annotated(self, graph):
        report = threshold_sweep(graph(3), [0.1, 0.2], 50, master_seed=0)
        assert report.p_zero is not None and report.p_one is not None


class TestGapExperiment:
    def test_full_selection_is_delta_zero(self, graph):
        report = gap_experiment(graph(3), 1.0, 1500, master_seed=0)
        assert report.empirical_pmf == {0: 1.0}
        assert report.tv_to_poisson == pytest.approx(0.0, abs=1e-12)
        assert report.lambda_exact == 0.0

    def test_exhaustive_oracle_n2(self, graph):
        g = graph(2)
        p = 0.3
        law = exhaustive_law(g, p)
        report = gap_experiment(g, p, 20_000, master_seed=1)
        assert tv_distance(report.empirical_pmf, law) <= 0.02
        assert sum(report.empirical_pmf.values()) == pytest.approx(1.0, abs=1e-12)

    def test_small_trials_flagged(self, graph):
        report = gap_experiment(graph(2), 0.3, 64, master_seed=0)
        assert any("trials" in w for w in report.warnings)

    def test_payload_deterministic_across_workers(self, graph):
        g = graph(4)
        a = gap_experiment(g, 0.1, 600, master_seed=8, workers=1).to_payload()
        b = gap_experiment(g, 0.1, 600, master_seed=8, workers=3).to_payload()
        assert a == b

    def test_mean_ratio_reporting(self, graph):
        report = gap_experiment(graph(4), 0.1, 1200, master_seed=0, K_nominal=0.5)
        lam = report.lambda_exact
        assert report.mean_ratio_decaying == pytest.approx(
            lam / (sqrt(2 * np.pi) * exp(-0.5)), rel=1e-12
        )
        assert report.mean_ratio_growing == pytest.approx(
            lam / (sqrt(2 * np.pi) * exp(0.5)), rel=1e-12
        )

    def test_tv_decreases_along_regime(self, graph):
        # distance to the Poisson reference shrinks (up to slack) as p
        # grows through multiples of log n / n^2
        g = graph(6)
        base = log(6) / 36
        tvs = [
            gap_experiment(g, mult * base, 10_000, master_seed=6).tv_to_poisson
            for mult in (2, 4, 8)
        ]
        assert tvs[1] <= tvs[0] + 0.02
        assert tvs[2] <= tvs[1] + 0.02
