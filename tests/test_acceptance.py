"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criterion 4 is split in two: 4a checks the cardinality bounds
(at most 4 shared covers per pair, at most n^3 partners per pattern), and
4b checks the audit's verdict on the adjacent-swap "iff" characterization
against an independent brute force.  The iff itself is false at every
audited n; 4b passes when the audit says so and reports the same extra
pairs as the brute force, one of which has been verified by hand.

All randomized criteria pin master seeds; results are bit-identical for
any worker count (criterion 11).

The exact law of the uncovered count at n = 2, 3, 4, by inclusion-exclusion
over cover masks built from itertools alone, backs the Monte Carlo
criteria at small n: chi-square tests of sampled histograms against it,
`exact_variance` against its variance, and the coverage rate of the
sweep's Wilson intervals against its P(X = 0).
"""
import functools
import itertools
import time
from fractions import Fraction
from math import comb, exp, factorial, sqrt

import numpy as np
import pytest

from permcover.cover import (
    alteration_cover,
    alteration_upper_bound,
    exact_min_cover,
    greedy_cover,
    lambda_cover,
    pigeonhole_lower_bound,
    verify_cover,
)
from permcover.graph import audit_joint_coverage, covers_per_pattern
from permcover.perms import Permutation, rank
from permcover.threshold import (
    count_uncovered,
    critical_window_p,
    exact_mean,
    exact_variance,
    gap_experiment,
    p_for_mean,
    poisson_k_max,
    poisson_pmf,
    run_uncovered_counts,
    stein_chen_bound,
    threshold_sweep,
    tv_distance,
    tv_standard_error,
    wilson_interval,
)

SWEEP_SEED = 0
GAP_SEED = 0
CALIBRATION_SEED = 2026
EXHAUSTIVE_SEED = 1
WILSON_SEED = 95


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:>3} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


@pytest.fixture(scope="module")
def sweep_n7(graph):
    g = graph(7)
    grid = np.linspace(p_for_mean(7, 20.0), p_for_mean(7, 0.05), 21)
    return grid, threshold_sweep(g, grid, 2000, SWEEP_SEED, workers=1)


@pytest.fixture(scope="module")
def gap_n7(graph):
    g = graph(7)
    p = p_for_mean(7, 1.0)
    return p, gap_experiment(g, p, 20_000, GAP_SEED, workers=1)


def test_1_cover_count_identity_exhaustive(graph):
    t0 = time.perf_counter()
    for n in range(1, 7):
        g = graph(n)
        per = covers_per_pattern(n)
        for p in range(g.n_patterns):
            assert g.covers_of(p).size == per, (n, p)
    ok = report(1, "every pattern has exactly n^2+1 covers, n=1..6", True,
                f"{time.perf_counter() - t0:.1f}s")
    assert ok


def test_2_succession_identity_exhaustive(graph):
    t0 = time.perf_counter()
    for n in range(1, 7):
        g = graph(n)
        sizes = np.count_nonzero(g.pattern_rows < g.n_patterns, axis=1)
        expected = (n + 1) - g.succ_counts.astype(np.int64)
        assert np.array_equal(sizes, expected), n
        assert int(sizes.sum()) == factorial(n) * covers_per_pattern(n), n
        assert int(g.succ_counts.sum()) == 2 * n * factorial(n), n
    ok = report(2, "pattern counts are (n+1)-successions with exact aggregates", True,
                f"{time.perf_counter() - t0:.1f}s")
    assert ok


def test_3_known_minimum_cover_sizes(graph):
    t0 = time.perf_counter()
    for n, expected in [(1, 1), (2, 1), (3, 2)]:
        cert = exact_min_cover(graph(n), 1, time_budget=60)
        assert cert.status == "optimal" and cert.size == expected, (n, cert)
        assert verify_cover(graph(n), cert.selected, 1).ok

    g3 = graph(3)
    witness = [rank(Permutation.parse("1342")), rank(Permutation.parse("4213"))]
    assert verify_cover(g3, witness, 1).ok

    g4 = graph(4)
    greedy_size = greedy_cover(g4).size
    cert4 = exact_min_cover(g4, 1, time_budget=60)
    assert cert4.status == "optimal"
    assert 5 <= cert4.size <= greedy_size
    assert verify_cover(g4, cert4.selected, 1).ok

    # independent oracle, built from itertools alone: no 6 covers of S_4
    # suffice (so no fewer do) and some 7 do, so the optimum is 7
    assert [_oracle_min_cover_size(n) for n in (1, 2, 3)] == [1, 1, 2]
    k = 7
    assert not _oracle_cover_exists(4, k - 1) and _oracle_cover_exists(4, k)
    assert k == cert4.size

    ok = report(3, "minimum covers: 1, 1, 2 proved; n=4 optimum matches the itertools oracle",
                True, f"size(4)={cert4.size}, {time.perf_counter() - t0:.1f}s")
    assert ok


def test_4a_joint_coverage_bounds(graph):
    t0 = time.perf_counter()
    for n in (3, 4, 5):
        rep = audit_joint_coverage(graph(n))
        assert rep.exhaustive
        assert rep.max_C == 4, (n, rep.max_C)
        assert rep.max_J <= n**3, (n, rep.max_J)
    ok = report("4a", "all pattern pairs share at most 4 covers; partners <= n^3",
                True, f"{time.perf_counter() - t0:.1f}s")
    assert ok


def _brute_force_joint_coverage(n):
    """Independent brute force for criterion 4b, built from itertools alone.

    Covers of a pattern are made by inserting one new letter into it.
    Returns the patterns in lexicographic order (so list index = rank),
    the cover set of each, and three sets of unordered index pairs: those
    sharing exactly 4 covers, the adjacent-position swaps, and the
    adjacent-position swaps whose swapped values are consecutive.
    """
    pats = list(itertools.permutations(range(1, n + 1)))
    covers = []
    for p in pats:
        mine = set()
        for v in range(1, n + 2):
            shifted = [x + 1 if x >= v else x for x in p]
            for i in range(n + 1):
                mine.add(tuple(shifted[:i] + [v] + shifted[i:]))
        covers.append(mine)
    four = {
        (a, b) for a, b in itertools.combinations(range(len(pats)), 2)
        if len(covers[a] & covers[b]) == 4
    }
    index = {p: i for i, p in enumerate(pats)}
    positions, values = set(), set()
    for a, p in enumerate(pats):
        for i in range(n - 1):
            q = list(p)
            q[i], q[i + 1] = q[i + 1], q[i]
            pair = tuple(sorted((a, index[tuple(q)])))
            positions.add(pair)
            if abs(p[i] - p[i + 1]) == 1:
                values.add(pair)
    return pats, covers, four, positions, values


def _oracle_deletion_masks(n):
    """Pattern bitmask of each cover, built from itertools alone.

    Covers and patterns are listed by itertools.permutations, so list index
    = rank.  Bit p of masks[r] is set when deleting one letter of cover r
    and standardising leaves pattern p.
    """
    index = {p: i for i, p in enumerate(itertools.permutations(range(1, n + 1)))}
    masks = []
    for c in itertools.permutations(range(1, n + 2)):
        mask = 0
        for i in range(n + 1):
            mask |= 1 << index[tuple(x - (x > c[i]) for x in c[:i] + c[i + 1:])]
        masks.append(mask)
    return masks


def _oracle_cover_exists(n, k):
    """Whether some k covers together contain every pattern of S_n.

    Exhaustive: every solution holds a cover of the lowest still-uncovered
    pattern, so the search branches over those covers only.  It stops once
    more patterns are uncovered than k more covers, each containing at most
    n+1 patterns, can reach.
    """
    masks = _oracle_deletion_masks(n)
    containing = [[m for m in masks if m >> p & 1] for p in range(factorial(n))]

    def search(uncovered, k):
        if not uncovered:
            return True
        if uncovered.bit_count() > k * (n + 1):
            return False
        low = (uncovered & -uncovered).bit_length() - 1
        return any(search(uncovered & ~m, k - 1) for m in containing[low])

    return search((1 << factorial(n)) - 1, k)


def _oracle_min_cover_size(n):
    k = 0
    while not _oracle_cover_exists(n, k):
        k += 1
    return k


def _subset_unions(sets, words):
    """Row i is the union of the sets whose bits are set in i, as `words`
    uint64 words per row (bit r of the row is member r)."""
    out = np.zeros((1, words), dtype=np.uint64)
    for s in sets:
        row = np.array([s >> (64 * w) & (2**64 - 1) for w in range(words)], dtype=np.uint64)
        out = np.concatenate([out, out | row])
    return out


@functools.lru_cache(maxsize=None)
def _oracle_law_table(n):
    """H[u, j]: how many sets of u patterns of S_n have j covers in all.

    Built from itertools alone.  The patterns split in two halves; the
    cover unions of every subset of each half are tabulated as words, and
    each pair of subsets is OR-ed and counted with numpy.
    """
    masks = _oracle_deletion_masks(n)
    n_covers = len(masks)
    sets = [sum(1 << r for r, m in enumerate(masks) if m >> p & 1) for p in range(factorial(n))]
    words = -(-n_covers // 64)
    half = len(sets) // 2
    a, b = _subset_unions(sets[:half], words), _subset_unions(sets[half:], words)
    size_a = np.bitwise_count(np.arange(len(a)))[:, None].astype(np.int64)
    size_b = np.bitwise_count(np.arange(len(b)))[None, :].astype(np.int64)
    table = np.zeros((len(sets) + 1) * (n_covers + 1), dtype=np.int64)
    for lo in range(0, len(a), 256):
        rows = a[lo:lo + 256, None, :] | b[None, :, :]
        union = np.bitwise_count(rows).sum(axis=2, dtype=np.int64)
        u = size_a[lo:lo + 256] + size_b
        table += np.bincount((u * (n_covers + 1) + union).ravel(), minlength=table.size)
    return table.reshape(len(sets) + 1, n_covers + 1)


def _oracle_law(n, p):
    """P(X = k) for k = 0..n!, exactly, at the double p, where X counts the
    patterns with no selected cover when each cover is selected with
    probability p.

    Inclusion-exclusion over sets U of patterns: P(X = k) is the sum over
    |U| = u >= k of (-1)^(u-k) C(u, k) (1-p)^|N(U)|, with N(U) the union
    of U's covers.  The coefficient of each power of 1-p is an exact
    integer, and p is a dyadic rational, so the alternating sum is exact.
    """
    table = _oracle_law_table(n)
    n_patterns, n_covers = table.shape[0] - 1, table.shape[1] - 1
    u = range(n_patterns + 1)
    signed = np.array([[(-1) ** (v - k & 1) * comb(v, k) for v in u] for k in u], dtype=np.int64)
    coef = signed @ table  # |entries| <= 3^(n!) fits int64 up to n = 4
    # 1-p = a / 2^e, so (1-p)^j = a^j 2^(e(n_covers-j)) / 2^(e n_covers)
    a, den = (1 - Fraction(p)).as_integer_ratio()
    e = den.bit_length() - 1
    weights = [a**j << e * (n_covers - j) for j in range(n_covers + 1)]
    return [Fraction(sum(int(c) * w for c, w in zip(row, weights) if c), 1 << e * n_covers)
            for row in coef]


def _chi_square_bound(df, z=3.719):
    """Upper 1e-4 quantile of chi-square with df degrees of freedom, by the
    Wilson-Hilferty approximation (19.3 at df = 2, where the exact value
    is 18.4); z is the matching normal quantile."""
    return df * (1 - 2 / (9 * df) + z * sqrt(2 / (9 * df))) ** 3


def test_3_oracle_masks_match_insertion_covers():
    """The oracle's deletion-built masks agree with 4b's insertion-built
    cover sets: two itertools constructions that share no code."""
    for n in (3, 4):
        pats, covers = _brute_force_joint_coverage(n)[:2]
        masks = _oracle_deletion_masks(n)
        for r, c in enumerate(itertools.permutations(range(1, n + 2))):
            assert masks[r] == sum(1 << p for p in range(len(pats)) if c in covers[p]), (n, c)


def test_4b_adjacent_swap_iff_characterization(graph):
    """The audit decides the adjacent-swap "iff" as a brute force does.

    Criterion 4b asks whether the pairs sharing exactly 4 covers are
    exactly the adjacent swaps, reading "adjacent" as adjacent positions
    or as adjacent positions holding consecutive values.  The claim is
    false: the four-cover pairs strictly contain the position swaps, with
    4, 27 and 184 extra pairs at n = 3, 4, 5.  This test decides the
    criterion with a brute force that shares no code with the audit and
    requires the audit's verdict and its evidence to match it, so it fails
    if the audit misjudges the iff in either direction.  At n = 3 the
    extra pair (132, 213) was checked by hand: its 4 shared covers are
    1324, 2143, 2413, 3142.
    """
    t0 = time.perf_counter()
    expected_extras = {3: 4, 4: 27, 5: 184}
    for n in (3, 4, 5):
        pats, covers, four, positions, values = _brute_force_joint_coverage(n)
        rep = audit_joint_coverage(graph(n))
        assert rep.exhaustive, n

        assert set(map(tuple, rep.four_cover_pairs.tolist())) == four, n
        assert rep.four_cover_pair_count == len(four), n
        assert rep.iff_adjacent_positions == (four == positions), n
        assert rep.iff_adjacent_values == (four == values), n
        assert rep.adjacent_swap_iff_holds == (four in (positions, values)), n

        # the "if" direction holds: every position swap shares 4 covers
        assert positions <= four, n
        extras = four - positions
        assert len(extras) == expected_extras[n], (n, len(extras))

        words = ["".join(map(str, p)) for p in pats]
        extra_words = {(words[a], words[b]) for a, b in extras}
        reported = [tuple(v["pair"]) for v in rep.violations
                    if v["kind"] == "four_cover_pair_not_adjacent_position_swap"]
        assert reported, n
        assert set(reported) <= extra_words, (n, reported)
        assert not [v for v in rep.violations
                    if v["kind"] == "adjacent_position_swap_without_4_covers"], n
        print(f"  n={n}: four_cover_pairs={len(four)} position_swaps={len(positions)} "
              f"value_swaps={len(values)} extras={len(extras)} "
              f"first_reported={reported[:4]}")

        if n == 3:
            a, b = words.index("132"), words.index("213")
            assert ("132", "213") in extra_words
            assert ("132", "213") in reported
            shared = {"".join(map(str, c)) for c in covers[a] & covers[b]}
            assert shared == {"1324", "2143", "2413", "3142"}

    counts = "/".join(map(str, expected_extras.values()))
    ok = report("4b", "audit decides the adjacent-swap iff", True,
                f"false: {counts} extra pairs at n=3/4/5, matches brute force, "
                f"{time.perf_counter() - t0:.1f}s")
    assert ok


@pytest.mark.slow
def test_4_extended_audit_n6(graph):
    t0 = time.perf_counter()
    rep = audit_joint_coverage(graph(6))
    assert rep.exhaustive
    assert rep.max_C == 4
    assert rep.max_J <= 216
    ok = report("4+", "extended n=6 audit bounds", True,
                f"max_J={rep.max_J}, iff_holds={rep.adjacent_swap_iff_holds}, "
                f"{time.perf_counter() - t0:.1f}s")
    assert ok


def test_5_alteration_construction_beats_bound(graph):
    t0 = time.perf_counter()
    g = graph(6)
    bound = alteration_upper_bound(6)
    sizes = []
    for seed in range(100):
        cert = alteration_cover(g, seed)
        assert verify_cover(g, cert.selected, 1).ok, seed
        sizes.append(cert.size)
    assert min(sizes) <= bound
    ok = report(5, "100 random-then-patch covers verify; best beats the bound", True,
                f"min={min(sizes)} <= {bound:.1f}, {time.perf_counter() - t0:.1f}s")
    assert ok


def test_6_multicover_construction(graph):
    t0 = time.perf_counter()
    g = graph(6)
    for lam in (2, 3):
        floor = pigeonhole_lower_bound(6, lam)
        for seed in range(20):
            cert = lambda_cover(g, lam, seed)
            assert verify_cover(g, cert.selected, lam).ok, (lam, seed)
            assert cert.size >= floor, (lam, seed, cert.size)
    ok = report(6, "multiplicity-2 and -3 covers verify across 20 seeds each", True,
                f"{time.perf_counter() - t0:.1f}s")
    assert ok


def test_7_mean_calibration(graph):
    t0 = time.perf_counter()
    g = graph(6)
    trials = 10_000
    target = exact_mean(6, 0.1)
    hist = run_uncovered_counts(g, 0.1, trials, CALIBRATION_SEED)
    mean = float((np.arange(hist.size) * hist).sum()) / trials
    tol = 3 * sqrt(exact_variance(g, 0.1) / trials)
    assert target == pytest.approx(14.598402905, rel=1e-9)
    assert abs(mean - target) <= tol
    ok = report(7, "Monte Carlo mean of the uncovered count matches exactly", True,
                f"|{mean:.3f} - {target:.3f}| <= {tol:.3f}, {time.perf_counter() - t0:.1f}s")
    assert ok


def test_8_exhaustive_oracle_equivalence_n2(graph):
    t0 = time.perf_counter()
    g = graph(2)
    p = 0.3
    law = {}
    for bits in itertools.product((0, 1), repeat=6):
        sel = np.array(bits, dtype=bool)
        x = count_uncovered(g, sel)
        k = int(sel.sum())
        law[x] = law.get(x, 0.0) + p**k * (1 - p) ** (6 - k)
    trials = 100_000
    hist = run_uncovered_counts(g, p, trials, EXHAUSTIVE_SEED)
    empirical = {k: hist[k] / trials for k in range(hist.size) if hist[k]}
    tv = tv_distance(empirical, law)
    assert tv <= 0.01
    ok = report(8, "empirical law matches the 64-subset enumeration at n=2", True,
                f"tv={tv:.5f} <= 0.01, {time.perf_counter() - t0:.1f}s")
    assert ok


def test_9_threshold_shape(sweep_n7):
    t0 = time.perf_counter()
    grid, rep = sweep_n7
    rows = rep.rows
    assert exact_mean(7, float(grid[0])) == pytest.approx(20.0, rel=1e-9)
    assert exact_mean(7, float(grid[-1])) == pytest.approx(0.05, rel=1e-9)
    assert rows[0]["phat"] <= 0.05, rows[0]
    assert rows[-1]["phat"] >= 0.95, rows[-1]
    for a, b in zip(rows, rows[1:]):
        assert b["ci_hi"] >= a["ci_lo"], (a, b)
    ok = report(9, "coverage probability transitions and is monotone up to CI overlap",
                True,
                f"phat: {rows[0]['phat']:.3f} -> {rows[-1]['phat']:.3f}, "
                f"{time.perf_counter() - t0:.1f}s")
    assert ok


def test_10_poisson_gap(graph, gap_n7):
    t0 = time.perf_counter()
    p, rep = gap_n7
    g = graph(7)
    assert rep.lambda_exact == pytest.approx(1.0, rel=1e-9)
    assert p == pytest.approx(0.15676, abs=5e-6)
    assert rep.tv_to_poisson <= 0.10

    trials = rep.trials
    tol_mean = 3 * sqrt(exact_variance(g, p) / trials)
    assert abs(rep.empirical_mean - 1.0) <= tol_mean

    ref, _ = poisson_pmf(1.0, poisson_k_max(1.0))
    se = tv_standard_error(ref, trials)
    sc = stein_chen_bound(g, p)
    assert rep.tv_to_poisson <= sc + 3 * se
    ok = report(10, "law of the uncovered count is Poisson-close at mean 1", True,
                f"tv={rep.tv_to_poisson:.4f} <= 0.10 and <= {sc:.4f}+3*{se:.4f}, "
                f"{time.perf_counter() - t0:.1f}s")
    assert ok


def test_11_bit_identical_payloads_across_workers(graph, sweep_n7, gap_n7):
    t0 = time.perf_counter()
    g6, g7 = graph(6), graph(7)

    # constructions (criteria 5, 6): reruns are identical
    for seed in (0, 57):
        assert alteration_cover(g6, seed).selected == alteration_cover(g6, seed).selected
        assert lambda_cover(g6, 2, seed).selected == lambda_cover(g6, 2, seed).selected

    # mean calibration histogram (criterion 7)
    h1 = run_uncovered_counts(g6, 0.1, 10_000, CALIBRATION_SEED, workers=1)
    h3 = run_uncovered_counts(g6, 0.1, 10_000, CALIBRATION_SEED, workers=3)
    assert np.array_equal(h1, h3)

    # exhaustive-oracle experiment (criterion 8)
    e1 = run_uncovered_counts(graph(2), 0.3, 100_000, EXHAUSTIVE_SEED, workers=1)
    e4 = run_uncovered_counts(graph(2), 0.3, 100_000, EXHAUSTIVE_SEED, workers=4)
    assert np.array_equal(e1, e4)

    # threshold sweep payload (criterion 9)
    grid, base_sweep = sweep_n7
    other = threshold_sweep(g7, grid, 2000, SWEEP_SEED, workers=3)
    assert other.rows == base_sweep.rows

    # gap payload (criterion 10)
    p, base_gap = gap_n7
    other_gap = gap_experiment(g7, p, 20_000, GAP_SEED, workers=3)
    assert other_gap.to_payload() == base_gap.to_payload()

    ok = report(11, "different worker counts give bit-identical payloads", True,
                f"{time.perf_counter() - t0:.1f}s")
    assert ok


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_law_oracle_is_a_law_with_the_exact_mean(n):
    """The oracle sums to 1 and has mean n!(1-p)^(n^2+1), both exactly."""
    table = _oracle_law_table(n)
    assert table.sum() == 2 ** factorial(n)
    assert table[0].tolist() == [1] + [0] * factorial(n + 1)
    for p in (0.1, 0.3, 0.5, 1 / 3):
        law = _oracle_law(n, p)
        assert sum(law) == 1
        assert all(w >= 0 for w in law)
        mean = sum(k * w for k, w in enumerate(law))
        assert mean == factorial(n) * (1 - Fraction(p)) ** (n * n + 1)


def test_exact_law_oracle_matches_enumeration_n2():
    """At n = 2 the oracle equals the law over all 64 selections."""
    masks = _oracle_deletion_masks(2)
    p = Fraction(0.3)
    law = [Fraction(0)] * 3
    for bits in itertools.product((0, 1), repeat=6):
        covered = 0
        for m, b in zip(masks, bits):
            covered |= m if b else 0
        k = sum(bits)
        law[2 - covered.bit_count()] += p**k * (1 - p) ** (6 - k)
    assert _oracle_law(2, 0.3) == law


@pytest.mark.parametrize("n, p", [
    (2, 0.3), (2, 0.6),
    (3, 0.1), (3, 0.2),
    (4, 0.1), (4, critical_window_p(4, 0.0)), (4, 0.25),
])
def test_exact_law_chi_square(graph, n, p):
    """The sampled histogram of X fits the exact law (chi-square, tail bins
    pooled until each expects at least 5 trials, level 1e-4)."""
    trials = 100_000
    hist = run_uncovered_counts(graph(n), p, trials, EXHAUSTIVE_SEED)
    expected = [trials * float(w) for w in _oracle_law(n, p)]
    bins, observed, acc_e, acc_o = [], [], 0.0, 0
    for e, o in zip(expected, hist.tolist()):
        acc_e, acc_o = acc_e + e, acc_o + o
        if acc_e >= 5:
            bins.append(acc_e)
            observed.append(acc_o)
            acc_e, acc_o = 0.0, 0
    bins[-1] += acc_e
    observed[-1] += acc_o
    assert sum(observed) == trials
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, bins))
    df = len(bins) - 1
    assert df >= 2, bins
    assert chi2 <= _chi_square_bound(df), (chi2, df)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_variance_matches_exact_law(graph, n):
    for p in (0.05, 0.1, critical_window_p(4, 0.0), 0.3, 0.6):
        law = _oracle_law(n, p)
        mean = sum(k * w for k, w in enumerate(law))
        var = float(sum((k - mean) ** 2 * w for k, w in enumerate(law)))
        assert exact_variance(graph(n), p) == pytest.approx(var, rel=1e-12, abs=1e-12), p


def _exact_tv_to_poisson(n, p):
    """TV between the exact law of X and the Poisson law with its mean
    n!(1-p)^(n^2+1), computed with math alone; the Poisson mass past n!,
    where X has none, counts in full."""
    law = [float(w) for w in _oracle_law(n, p)]
    lam = factorial(n) * (1 - p) ** (n * n + 1)
    poisson = [exp(-lam) * lam**k / factorial(k) for k in range(len(law))]
    return 0.5 * (sum(abs(a - b) for a, b in zip(law, poisson)) + 1 - sum(poisson))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stein_chen_bound_holds_against_the_exact_law(graph, n):
    """The uncovered indicators are increasing in the non-selections, so
    they are positively related and the Stein-Chen bound holds (Barbour,
    Holst and Janson, "Poisson Approximation", 1992)."""
    for p in (0.02, 0.05, 0.1, critical_window_p(4, 0.0), 0.2, 0.3, 0.5, 0.8):
        assert stein_chen_bound(graph(n), p) >= _exact_tv_to_poisson(n, p), p


@pytest.mark.parametrize("n", [3, 4])
def test_gap_tv_matches_the_exact_tv(graph, n):
    """The sampled TV to Poisson estimates the exact one within 4 of its
    standard errors, taken over the exact law's bins."""
    p = p_for_mean(n, 1.0)
    trials = 20_000
    rep = gap_experiment(graph(n), p, trials, GAP_SEED)
    se = tv_standard_error([float(w) for w in _oracle_law(n, p)], trials)
    assert abs(rep.tv_to_poisson - _exact_tv_to_poisson(n, p)) <= 4 * se


def _wilson_coverage(pi, trials):
    """Exact probability that the Wilson interval of a Binomial(trials, pi)
    count contains pi."""
    return sum(comb(trials, s) * pi**s * (1 - pi) ** (trials - s)
               for s in range(trials + 1)
               if wilson_interval(s, trials)[0] <= pi <= wilson_interval(s, trials)[1])


def test_sweep_wilson_intervals_cover_the_exact_probability(graph):
    """The sweep's 95% Wilson intervals contain the exact P(X = 0) at n = 4
    about as often as they should.  Each grid point is its own stream, so a
    grid repeating each p gives independent intervals.  An interval of 64
    trials covers with probability c, exact from the binomial law (0.945
    to 0.948 at these p).  Per p the number that cover is within 4 binomial
    standard deviations of its expectation, and the pooled rate is within 4
    of the nominal 0.95."""
    trials, repeats = 64, 250
    ps = (critical_window_p(4, 0.0), 0.15, 0.2, 0.25)
    rows = threshold_sweep(graph(4), sorted(ps * repeats), trials, WILSON_SEED).rows
    covered = 0
    for p in ps:
        pi = float(_oracle_law(4, p)[0])
        c = _wilson_coverage(pi, trials)
        hits = sum(r["ci_lo"] <= pi <= r["ci_hi"] for r in rows if r["p"] == p)
        assert abs(hits - repeats * c) <= 4 * sqrt(repeats * c * (1 - c)), (p, pi, hits, c)
        covered += hits
    total = repeats * len(ps)
    assert abs(covered / total - 0.95) <= 4 * sqrt(0.95 * 0.05 / total), covered
