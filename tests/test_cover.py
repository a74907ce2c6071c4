import hashlib
import itertools
from fractions import Fraction
from math import comb, factorial, log

import numpy as np
import pytest

from permcover import _kernels, cover, perms
from permcover.cover import (
    CoverCertificate,
    _patch_uncovered,
    alteration_cover,
    alteration_default_initial_size,
    alteration_upper_bound,
    alteration_upper_bound_loose,
    exact_min_cover,
    expected_uncovered_without_replacement,
    format_selected,
    greedy_cover,
    lambda_cover,
    multicover_default_draws,
    multicover_upper_bound,
    parse_selected,
    pigeonhole_lower_bound,
    verify_cover,
)
from permcover.graph import CoverageGraph
from permcover.perms import Permutation, format_perm, rank, reverse, unrank


def ranks_of(*strings):
    return [rank(Permutation.parse(s)) for s in strings]


class TestBounds:
    def test_pigeonhole_examples(self):
        assert pigeonhole_lower_bound(3, 1) == 2
        assert pigeonhole_lower_bound(4, 1) == 5
        assert pigeonhole_lower_bound(1, 1) == 1
        assert pigeonhole_lower_bound(3, 2) == 3
        assert pigeonhole_lower_bound(6, 2) == 206
        assert pigeonhole_lower_bound(6, 3) == 309

    def test_pigeonhole_monotone_in_n(self):
        values = [pigeonhole_lower_bound(n, 1) for n in range(1, 11)]
        assert values == sorted(values)

    def test_alteration_upper_examples(self):
        assert alteration_upper_bound(3) == pytest.approx(
            (24 / 10) * (1 + log(10 / 4)), rel=1e-12
        )
        assert alteration_upper_bound(3) == pytest.approx(4.599, abs=5e-4)
        assert alteration_upper_bound(6) == pytest.approx(
            (5040 / 37) * (1 + log(37 / 7)), rel=1e-12
        )
        assert alteration_upper_bound(6) == pytest.approx(363.02, abs=0.01)

    def test_alteration_upper_dominates_lower(self):
        for n in range(2, 13):
            assert alteration_upper_bound(n) >= pigeonhole_lower_bound(n, 1)

    def test_loose_normalization_is_larger(self):
        for n in range(2, 10):
            assert alteration_upper_bound_loose(n) > alteration_upper_bound(n)

    def test_multicover_upper_examples(self):
        val = multicover_upper_bound(6, 2)
        assert val == pytest.approx((5040 / 37) * (log(6) + log(log(6)) + 2), rel=1e-12)
        assert val == pytest.approx(596.0, abs=0.2)
        assert multicover_upper_bound(3, 2) > 0

    def test_multicover_upper_lam_direction_verified_numerically(self):
        # Not monotone in lam at n=6: the explicit patching term lam/(lam-1)!
        # falls by 5/6 from lam=3 to lam=4, which beats the log log 6 ~ 0.583
        # gain, so the bound dips there before growing again.
        values = [multicover_upper_bound(6, lam) for lam in range(2, 6)]
        assert values[1] > values[0]
        assert values[2] < values[1]
        assert values[3] > values[2]
        # once log log n exceeds the worst-case term drop (5/6), the bound
        # is monotone in lam; n=12 is past that point
        values12 = [multicover_upper_bound(12, lam) for lam in range(2, 7)]
        assert all(b > a for a, b in zip(values12, values12[1:]))

    def test_multicover_domain_errors(self):
        with pytest.raises(ValueError):
            multicover_upper_bound(6, 1)
        with pytest.raises(ValueError):
            multicover_upper_bound(2, 2)


@pytest.mark.parametrize("call, message", [
    (lambda g: pigeonhole_lower_bound(0), "need n >= 1 and lam >= 1"),
    (lambda g: pigeonhole_lower_bound(3, 0), "need n >= 1 and lam >= 1"),
    (lambda g: alteration_upper_bound(1), "defined for n >= 2"),
    (lambda g: alteration_upper_bound_loose(1), "defined for n >= 2"),
    (lambda g: alteration_default_initial_size(1), "defined for n >= 2"),
    (lambda g: multicover_default_draws(4, 1), "lam >= 2 required"),
    (lambda g: multicover_default_draws(2, 2), "needs n >= 3"),
    (lambda g: verify_cover(g, [], 0), "lam must be >= 1"),
    (lambda g: alteration_cover(g, 0, initial_size=25), r"initial_size must be in 0\.\.24"),
    (lambda g: alteration_cover(g, 0, initial_size=-1), r"initial_size must be in 0\.\.24"),
    (lambda g: lambda_cover(g, 2, seed=0, draws=-1), "draws must be >= 0"),
], ids=["pigeonhole-n", "pigeonhole-lam", "alteration-bound", "alteration-bound-loose",
        "alteration-initial-size", "multicover-draws-lam", "multicover-draws-n",
        "verify-lam", "alteration-y-above", "alteration-y-below", "lambda-draws"])
def test_input_checks(graph, call, message):
    with pytest.raises(ValueError, match=message):
        call(graph(3))


class TestExpectedUncovered:
    def exact_fraction(self, n, draws):
        m = factorial(n + 1)
        k = n * n + 1
        return factorial(n) * Fraction(comb(m - k, draws), comb(m, draws))

    def test_examples(self):
        assert expected_uncovered_without_replacement(3, 0) == pytest.approx(6.0)
        assert expected_uncovered_without_replacement(3, 24) == 0.0
        assert expected_uncovered_without_replacement(3, 1) == pytest.approx(3.5)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_matches_exact_binomials(self, n):
        m = factorial(n + 1)
        for draws in {0, 1, 2, m // 100, m // 10, m // 2, m - n * n - 1, m}:
            draws = min(max(draws, 0), m)
            expected = float(self.exact_fraction(n, draws))
            assert expected_uncovered_without_replacement(n, draws) == pytest.approx(
                expected, rel=1e-9, abs=1e-300
            )

    def test_monotone_nonincreasing(self):
        values = [expected_uncovered_without_replacement(3, y) for y in range(25)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(6.0)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            expected_uncovered_without_replacement(3, -1)
        with pytest.raises(ValueError):
            expected_uncovered_without_replacement(3, 25)


class TestVerifyCover:
    def test_known_two_element_cover(self, graph):
        g = graph(3)
        sel = ranks_of("1342", "4213")
        assert verify_cover(g, sel, 1).ok

    def test_deficiency_list(self, graph):
        g = graph(3)
        sel = ranks_of("1342")
        result = verify_cover(g, sel, 1)
        assert not result.ok
        missing = {str(unrank(3, p)) for p, c in result.deficiencies}
        assert missing == {"213", "312", "321"}
        assert all(c == 0 for _, c in result.deficiencies)
        assert [p for p, _ in result.deficiencies] == sorted(
            p for p, _ in result.deficiencies
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_everything_selected_is_a_cover(self, n, graph):
        g = graph(n)
        assert verify_cover(g, range(g.n_covers), 1).ok

    def test_universe_mismatch(self, graph):
        # a mask over S_3 is not a selection of the covers in S_4
        with pytest.raises(ValueError, match="expected 24 selection flags"):
            verify_cover(graph(3), [True] * 6, 1)


class TestGreedy:
    def test_n3_exact_selection(self, graph):
        cert = greedy_cover(graph(3))
        assert cert.size == 3
        assert {str(unrank(4, r)) for r in cert.selected} == {"2413", "1234", "1432"}
        assert cert.status == "feasible"

    def test_n1(self, graph):
        assert greedy_cover(graph(1)).size == 1

    def test_n4_brackets(self, graph):
        g = graph(4)
        cert = greedy_cover(g)
        assert verify_cover(g, cert.selected, 1).ok
        assert pigeonhole_lower_bound(4, 1) <= cert.size <= alteration_upper_bound(4)

    def test_multiplicity(self, graph):
        g = graph(3)
        cert = greedy_cover(g, lam=2)
        assert verify_cover(g, cert.selected, 2).ok

    def test_lam_too_large(self, graph):
        with pytest.raises(ValueError):
            greedy_cover(graph(3), lam=11)  # each pattern has only 10 covers

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("lam", [1, 2, 3, pytest.param(None, id="full")])
    def test_incremental_gains_match_recompute(self, graph, n, lam):
        # the kernel keeps gains as state; the reference recounts every
        # cover's deficient patterns at every pick.  At n=1, lam=3 both
        # run out of covers and report the same unmet deficiency.  At
        # lam = n^2+1 ("full") every cover is picked, so the kernel's
        # bucket walk runs down through every gain to top 0.
        lam = n * n + 1 if lam is None else lam
        g = graph(n)
        picks, remaining = _kernels.greedy_select(g.pattern_rows, g.cover_ranks, lam)
        ref_picks, ref_remaining = recompute_greedy(g, lam)
        assert picks.tolist() == ref_picks
        assert remaining == ref_remaining == (1 if lam > n * n + 1 else 0)

    @pytest.mark.parametrize("lam, size, digest", [
        (1, 934, "a48439e160f9055018917bef3a9c4fba73247627764cc7beeb1a28839ad51711"),
        (2, 1782, "666d9e84b36cae1ca40eb56bd24943ca17146083dfbe946d5d925702d65a6e63"),
    ])
    def test_n7_picks_golden(self, graph, lam, size, digest):
        # picks in selection order, as little-endian int64
        g = graph(7)
        picks, remaining = _kernels.greedy_select(g.pattern_rows, g.cover_ranks, lam)
        assert remaining == 0 and picks.size == size
        assert hashlib.sha256(picks.astype("<i8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("lam, digest", [
        (1, "db4a13aa1c41b533944b669cd9e2fe23ac5be70acae72b2eba4919fb72230022"),
        (2, "01d508ba226afe5bc15f4e71c1821086d14eee83b98f603e4be7bfb7d0a60a9d"),
    ])
    def test_n7_cover_golden(self, graph, lam, digest):
        # the certificate's sorted covers, as native int64
        selected = np.array(greedy_cover(graph(7), lam).selected, dtype=np.int64)
        assert hashlib.sha256(selected.tobytes()).hexdigest() == digest


def recompute_greedy(g, lam):
    """Greedy multicover recounting every gain at each pick (reference)."""
    counts = np.zeros(g.n_patterns, dtype=np.int64)
    picked = np.zeros(g.n_covers, dtype=bool)
    remaining = g.n_patterns * lam
    picks = []
    while remaining > 0:
        deficient = counts < lam
        # the sentinel n! pads each row and is never deficient
        gains = np.append(deficient, False)[g.pattern_rows].sum(axis=1)
        gains[picked] = -1
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            break
        picks.append(best)
        picked[best] = True
        row = g.pattern_row(best)
        remaining -= int(np.count_nonzero(deficient[row]))
        counts[row] += 1
    return picks, remaining


def reference_patch(g, picks, lam):
    """cover._patch_uncovered with a numpy call per step (reference)."""
    flags = np.zeros(g.n_covers, dtype=bool)
    flags[picks] = True
    counts = flags[g.cover_ranks].sum(axis=1)
    for p in np.flatnonzero(counts < lam):
        while counts[p] < lam:
            row = g.cover_ranks[p]
            r = int(row[~flags[row]][0])  # rows are rank-sorted, so this is lowest-rank
            flags[r] = True
            counts[g.pattern_row(r)] += 1
    return tuple(np.flatnonzero(flags).tolist())


@pytest.mark.parametrize("n", range(1, 7))
def test_patch_matches_reference(graph, n):
    # every multiplicity the constructions use, up to n^2+1, where every
    # cover must be selected; pick sets with repeats, as lambda_cover draws
    g = graph(n)
    rng = np.random.default_rng(n)
    sparse = rng.integers(0, g.n_covers, size=max(2, g.n_covers // 40))
    dense = rng.integers(0, g.n_covers, size=g.n_covers)
    pick_sets = {
        "empty": np.zeros(0, dtype=np.int64),
        "sparse": np.concatenate([sparse, sparse[:2]]),
        "dense": dense,
    }
    for lam in sorted(lam for lam in {1, 2, 3, n * n + 1} if lam <= n * n + 1):
        for name, picks in pick_sets.items():
            got = _patch_uncovered(g, picks, lam)
            assert got == reference_patch(g, picks, lam), (lam, name)
            assert verify_cover(g, got, lam).ok


class TestAlteration:
    def test_zero_initial_is_pure_patching(self, graph):
        g = graph(3)
        cert = alteration_cover(g, seed=5, initial_size=0)
        assert verify_cover(g, cert.selected, 1).ok
        assert cert.size <= 6
        assert cert.initial_size == 0

    def test_full_initial_selects_everything(self, graph):
        cert = alteration_cover(graph(3), seed=5, initial_size=24)
        assert cert.size == 24

    def test_default_initial_size(self):
        assert alteration_default_initial_size(3) == round(2.4 * log(2.5))

    def test_deterministic_given_seed(self, graph):
        g = graph(4)
        a = alteration_cover(g, seed=9)
        b = alteration_cover(g, seed=9)
        assert a.selected == b.selected
        c = alteration_cover(g, seed=10)
        assert c.selected != a.selected  # different seed, different draw

    def test_verifies_across_seeds(self, graph):
        g = graph(4)
        for seed in range(10):
            cert = alteration_cover(g, seed=seed)
            assert verify_cover(g, cert.selected, 1).ok


class TestLambdaCover:
    def test_n3_lam2(self, graph):
        g = graph(3)
        cert = lambda_cover(g, 2, seed=7)
        assert verify_cover(g, cert.selected, 2).ok
        assert cert.size >= pigeonhole_lower_bound(3, 2) == 3
        assert cert.initial_size is not None

    def test_lam_equal_cover_count_forces_everything(self, graph):
        # at lam = n^2+1 every pattern needs all of its covers
        g = graph(3)
        cert = lambda_cover(g, 10, seed=0)
        assert cert.size == 24
        assert verify_cover(g, cert.selected, 10).ok

    def test_domain_errors(self, graph):
        with pytest.raises(ValueError):
            lambda_cover(graph(3), 1, seed=0)
        with pytest.raises(ValueError):
            lambda_cover(graph(3), 11, seed=0)
        with pytest.raises(ValueError):
            lambda_cover(graph(2), 2, seed=0)

    def test_deterministic_given_seed(self, graph):
        g = graph(4)
        assert lambda_cover(g, 2, seed=3).selected == lambda_cover(g, 2, seed=3).selected


class TestExactMinCover:
    def test_known_small_values(self, graph):
        for n, expected in [(1, 1), (2, 1), (3, 2)]:
            g = graph(n)
            cert = exact_min_cover(g, 1, time_budget=30)
            assert cert.status == "optimal"
            assert cert.size == expected
            assert cert.lower_bound == expected
            assert verify_cover(g, cert.selected, 1).ok

    def test_size_at_least_pigeonhole(self, graph):
        for n in (1, 2, 3):
            cert = exact_min_cover(graph(n), 1, time_budget=30)
            assert cert.size >= pigeonhole_lower_bound(n, 1)

    def test_dominated_by_other_constructions(self, graph):
        g = graph(3)
        exact = exact_min_cover(g, 1, time_budget=30)
        assert exact.size <= greedy_cover(g).size
        assert exact.size <= alteration_cover(g, seed=0).size

    def test_deterministic_size_and_witness(self, graph):
        g = graph(3)
        a = exact_min_cover(g, 1, time_budget=30)
        b = exact_min_cover(g, 1, time_budget=30)
        assert a.size == b.size and a.selected == b.selected

    def test_budget_exhaustion_keeps_incumbent(self, graph):
        # at n=5 greedy's 31 is above the dual bound 26, so the search runs
        g = graph(5)
        cert = exact_min_cover(g, 1, time_budget=1e-9)
        assert cert.status == "feasible"
        assert cert.lower_bound == pigeonhole_lower_bound(5, 1)
        assert verify_cover(g, cert.selected, 1).ok

    def test_deep_search_has_no_depth_limit(self, graph):
        # the search goes deeper than Python's default recursion limit of
        # 1000 frames, so it must not recurse once per chosen cover
        g = graph(6)
        cert = exact_min_cover(g, 17, time_budget=0.5)
        assert cert.status == "feasible"
        assert verify_cover(g, cert.selected, 17).ok

    def test_budget_must_be_positive(self, graph):
        with pytest.raises(ValueError):
            exact_min_cover(graph(3), 1, time_budget=0)

    def test_multicover_n2(self, graph):
        g = graph(2)
        cert = exact_min_cover(g, 2, time_budget=30)
        assert cert.status == "optimal"
        assert verify_cover(g, cert.selected, 2).ok
        assert cert.size >= pigeonhole_lower_bound(2, 2)

    def test_oracle_agrees_at_n3(self, graph):
        # itertools-only oracle: the patterns each permutation of S_4
        # contains, found by deleting one letter and standardising
        def patterns(c):
            return {tuple(x - (x > c[i]) for x in c[:i] + c[i + 1:]) for i in range(4)}

        every = set(itertools.permutations(range(1, 4)))
        covers = [patterns(c) for c in itertools.permutations(range(1, 5))]
        assert not any(c == every for c in covers)
        assert any(a | b == every for a, b in itertools.combinations(covers, 2))
        assert exact_min_cover(graph(3), 1, time_budget=30).size == 2

    def test_reversal_image_of_cover_verifies(self, graph):
        # coverage equivariance: reversing every member of a verifying
        # cover yields another verifying cover of the same size
        for n in (3, 4):
            g = graph(n)
            cert = greedy_cover(g)
            reversed_sel = [rank(reverse(unrank(n + 1, r))) for r in cert.selected]
            assert verify_cover(g, reversed_sel, 1).ok

    @pytest.mark.parametrize("n, lam, branches, witness", [
        (3, 1, 13, (2, 21)),
        (3, 2, 200, (2, 3, 20, 21)),
        (3, 3, 3639, (2, 3, 4, 15, 20, 21)),
        (4, 1, 0, (10, 32, 43, 66, 78, 83, 115)),  # greedy's 7 meets the dual bound
        (3, 4, 84577, (2, 3, 4, 11, 12, 15, 20, 21)),  # backtracks deeply
    ])
    def test_branch_counts_and_witness_pinned(self, graph, monkeypatch, n, lam,
                                              branches, witness):
        # every branch reads its cover's row through pattern_row exactly
        # once, which is how the benchmark's tracer counts branches
        calls = []
        row = CoverageGraph.pattern_row
        monkeypatch.setattr(CoverageGraph, "pattern_row",
                            lambda self, r: calls.append(r) or row(self, r))
        cert = exact_min_cover(graph(n), lam, time_budget=60)
        assert cert.status == "optimal"
        assert len(calls) == branches
        assert cert.selected == witness


def reference_parse_selected(n, selected):
    """cover.parse_selected with a parse_perm call per entry (reference)."""
    length = n + 1
    rows = [perms.parse_perm(s) for s in selected]
    try:
        table = np.array(rows, dtype=np.int64).reshape(len(rows), length)
    except ValueError:
        raise ValueError(f"selected permutations must have length {length}") from None
    except OverflowError:
        raise ValueError(f"selected entries must be permutations of 1..{length}") from None
    if (np.sort(table, axis=1) != np.arange(1, length + 1)).any():
        raise ValueError(f"selected entries must be permutations of 1..{length}")
    ranks = np.sort(_kernels.lehmer_ranks(table))
    if (ranks[1:] == ranks[:-1]).any():
        raise ValueError("duplicate selected permutation")
    return tuple(ranks.tolist())


class TestCertificateSerialization:
    def test_round_trip(self, graph):
        # a certificate is its request plus its selected covers; the
        # serialized status, size and bound are derived from those alone
        cert = exact_min_cover(graph(3), 1, time_budget=30)
        doc = cert.to_json_dict()
        back = CoverCertificate(3, 1, "exact", parse_selected(3, doc["selected"]),
                                optimal=True)
        assert back == cert
        assert back.to_json_dict() == doc
        assert (doc["status"], doc["size"], doc["lower_bound"]) == ("optimal", 2, 2)
        assert "wall_time_ms" not in doc

    def test_feasible_carries_the_pigeonhole_bound(self, graph):
        for cert in (greedy_cover(graph(4), 2), alteration_cover(graph(4), seed=1)):
            assert not cert.optimal and cert.status == "feasible"
            assert cert.lower_bound == pigeonhole_lower_bound(4, cert.lam) < cert.size

    def test_parse_selected_is_sorted_and_checked(self):
        # it accepts what perms.parse_perm accepts: either form, with
        # surrounding whitespace, and an empty list
        assert parse_selected(3, ["2413", "1234"]) == (0, rank(Permutation.parse("2413")))
        assert parse_selected(2, ["2,1,3"]) == (rank((2, 1, 3)),)
        assert parse_selected(3, [" 2413\n", "\t1,2,3,4 "]) == (0, rank((2, 4, 1, 3)))
        assert parse_selected(3, []) == ()
        for bad in (
            ["1234", "1234"],
            ["1234", "4,3,2,1", "1,2,3,4"],  # a duplicate across the two forms
            ["123"],
            ["1234", "123"],  # ragged
            ["1134"],
            ["0123"],  # values outside 1..4
            ["1,2,3,99999999999999999999"],  # past int64
            [""],
            ["12a4"],
        ):
            with pytest.raises(ValueError):
                parse_selected(3, bad)

    @pytest.mark.parametrize("n, selected", [
        (3, ["21343", "124"]),  # the joined text holds two permutations
        (3, ["2413", 1234]),  # not a string
        (3, ["\u0662\u0664\u0661\u0663", "1234"]),  # Arabic-Indic digits int() reads
        (3, [" 2413\n", "1234"]),
        (3, ["2,4,1,3", "1234"]),
        (3, ["2413", "1,234"]),  # n+1 characters, not all digits
        (3, ["12 4"]),
        (3, []),
        (9, ["10,1,2,3,4,5,6,7,8,9", "1,2,3,4,5,6,7,8,9,10"]),
        (9, ["1,2,3,4,5,6,7,8,9,10", "1,2,3,4,5,6,7,8,9,10"]),
    ])
    def test_parse_selected_matches_per_entry_parsing(self, n, selected):
        # every list behaves as under a parse_perm call per entry: the
        # same ranks, or the same exception type and message
        def outcome(parse):
            try:
                return parse(n, selected)
            except (ValueError, TypeError, AttributeError) as exc:
                return type(exc), str(exc)

        assert outcome(parse_selected) == outcome(reference_parse_selected)

    def test_cache_hit_parses_without_parse_perm(self, graph, tmp_path, monkeypatch):
        # a stored n = 7 cover is in the canonical digit form, which is read
        # as one table; a per-entry parse would call parse_perm 2267 times
        from permcover.cache import load_certificate, store_certificate

        g = graph(7)
        store_certificate(tmp_path, alteration_cover(g, 1))
        calls = []
        for module in (perms, cover):
            real = module.parse_perm
            monkeypatch.setattr(module, "parse_perm",
                                lambda s, real=real: calls.append(s) or real(s))
        cert = load_certificate(tmp_path, g, 1, "alteration", 1, [])
        assert cert is not None and cert.size == 2267
        assert calls == []

    def test_selected_serialized_as_strings(self, graph):
        cert = greedy_cover(graph(3))
        doc = cert.to_json_dict()
        assert doc["selected"] == ["1234", "1432", "2413"]
        assert doc["lambda"] == 1
        assert doc["size"] == 3

    @pytest.mark.parametrize("length", range(1, 8))
    def test_format_matches_scalar_unrank_every_rank(self, length):
        # the array unrank and the bulk formatting against the scalar pair
        ranks = range(factorial(length))
        want = [format_perm(unrank(length, r).values) for r in ranks]
        assert format_selected(length - 1, ranks) == want
        assert parse_selected(length - 1, want) == tuple(ranks)

    @pytest.mark.parametrize("length", [8, 9, 10])
    def test_format_matches_scalar_unrank_sampled(self, length):
        # length 10 is the first in the comma form; a certificate at n = 9
        # needs no graph to serialize
        rng = np.random.default_rng(length)
        ranks = np.unique(rng.integers(0, factorial(length), size=2000))
        ranks = tuple(sorted({0, factorial(length) - 1, *ranks.tolist()}))
        want = [format_perm(unrank(length, r).values) for r in ranks]
        doc = CoverCertificate(length - 1, 1, "greedy", ranks).to_json_dict()
        assert doc["selected"] == want
        assert ("," in want[0]) == (length >= 10)
        assert parse_selected(length - 1, want) == ranks

    def test_format_rejects_ranks_out_of_range(self):
        for bad in (-1, 24):
            with pytest.raises(ValueError):
                CoverCertificate(3, 1, "greedy", (bad,)).to_json_dict()

    @pytest.mark.parametrize("method, args, size, digest", [
        ("greedy", (), 934,
         "360ef80529d45a54a29234d4785a2601c3116dbe96bb5c3e8c6db126df2e1eba"),
        ("alteration", (1,), 2267,
         "99beefe2df25b973ea4f44ba2655e69cdd079bc4bf32366e6cb1077e22576f3d"),
        ("lambda", (2, 1), 3759,
         "aa675165782b4b9cd94f0b2fe970f548783ce0f9bce77f497db4f267f6798465"),
    ])
    def test_n7_selected_bytes_pinned(self, graph, method, args, size, digest):
        # sha256 of the newline-joined `selected` strings, recorded when
        # each entry was still formatted through the scalar unrank
        build = {"greedy": greedy_cover, "alteration": alteration_cover,
                 "lambda": lambda_cover}[method]
        selected = build(graph(7), *args).to_json_dict()["selected"]
        assert len(selected) == size
        assert hashlib.sha256("\n".join(selected).encode()).hexdigest() == digest
