from fractions import Fraction
from math import comb, factorial, log

import pytest

from permcover.cover import (
    BoundTable,
    CoverCertificate,
    alteration_cover,
    alteration_default_initial_size,
    alteration_upper_bound,
    alteration_upper_bound_loose,
    exact_min_cover,
    exhaustive_min_cover_size,
    expected_uncovered_without_replacement,
    greedy_cover,
    lambda_cover,
    multicover_upper_bound,
    pigeonhole_lower_bound,
    verify_cover,
)
from permcover.graph import PermSetBitmap
from permcover.perms import Permutation, rank, reverse, unrank


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
        sel = PermSetBitmap.from_indices(4, ranks_of("1342", "4213"))
        assert verify_cover(g, sel, 1).ok

    def test_deficiency_list(self, graph):
        g = graph(3)
        sel = PermSetBitmap.from_indices(4, ranks_of("1342"))
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
        assert verify_cover(g, PermSetBitmap.full(n + 1), 1).ok

    def test_universe_mismatch(self, graph):
        with pytest.raises(ValueError):
            verify_cover(graph(3), PermSetBitmap.full(3), 1)


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
        assert verify_cover(g, cert.selection_bitmap(), 1).ok
        assert pigeonhole_lower_bound(4, 1) <= cert.size <= alteration_upper_bound(4)

    def test_multiplicity(self, graph):
        g = graph(3)
        cert = greedy_cover(g, lam=2)
        assert verify_cover(g, cert.selection_bitmap(), 2).ok

    def test_lam_too_large(self, graph):
        with pytest.raises(ValueError):
            greedy_cover(graph(3), lam=11)  # each pattern has only 10 covers


class TestAlteration:
    def test_zero_initial_is_pure_patching(self, graph):
        g = graph(3)
        cert = alteration_cover(g, seed=5, initial_size=0)
        assert verify_cover(g, cert.selection_bitmap(), 1).ok
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
            assert verify_cover(g, cert.selection_bitmap(), 1).ok


class TestLambdaCover:
    def test_n3_lam2(self, graph):
        g = graph(3)
        cert = lambda_cover(g, 2, seed=7)
        assert verify_cover(g, cert.selection_bitmap(), 2).ok
        assert cert.size >= pigeonhole_lower_bound(3, 2) == 3
        assert cert.initial_size is not None

    def test_lam_equal_cover_count_forces_everything(self, graph):
        # at lam = n^2+1 every pattern needs all of its covers
        g = graph(3)
        cert = lambda_cover(g, 10, seed=0)
        assert cert.size == 24
        assert verify_cover(g, cert.selection_bitmap(), 10).ok

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
            assert verify_cover(g, cert.selection_bitmap(), 1).ok

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
        g = graph(4)
        cert = exact_min_cover(g, 1, time_budget=1e-9)
        assert cert.status == "feasible"
        assert cert.lower_bound == pigeonhole_lower_bound(4, 1)
        assert verify_cover(g, cert.selection_bitmap(), 1).ok

    def test_budget_must_be_positive(self, graph):
        with pytest.raises(ValueError):
            exact_min_cover(graph(3), 1, time_budget=0)

    def test_multicover_n2(self, graph):
        g = graph(2)
        cert = exact_min_cover(g, 2, time_budget=30)
        assert cert.status == "optimal"
        assert verify_cover(g, cert.selection_bitmap(), 2).ok
        assert cert.size >= pigeonhole_lower_bound(2, 2)

    def test_oracle_agrees_at_n3(self, graph):
        assert exhaustive_min_cover_size(graph(3)) == 2

    def test_reversal_image_of_cover_verifies(self, graph):
        # coverage equivariance: reversing every member of a verifying
        # cover yields another verifying cover of the same size
        for n in (3, 4):
            g = graph(n)
            cert = greedy_cover(g)
            reversed_sel = [rank(reverse(unrank(n + 1, r))) for r in cert.selected]
            assert verify_cover(
                g, PermSetBitmap.from_indices(n + 1, reversed_sel), 1
            ).ok


class TestCertificateSerialization:
    def test_round_trip(self, graph):
        cert = exact_min_cover(graph(3), 1, time_budget=30)
        doc = cert.to_json_dict()
        back = CoverCertificate.from_json_dict(doc)
        assert back.selected == cert.selected
        assert back.n == cert.n and back.lam == cert.lam
        assert back.status == cert.status and back.lower_bound == cert.lower_bound

    def test_selected_serialized_as_strings(self, graph):
        cert = greedy_cover(graph(3))
        doc = cert.to_json_dict()
        assert doc["selected"] == ["1234", "1432", "2413"]
        assert doc["lambda"] == 1
        assert doc["size"] == 3


class TestBoundTable:
    def test_n3_row(self):
        table = BoundTable.evaluate(3, 1)
        assert table.pigeonhole_lower == 2
        assert table.alteration_upper == pytest.approx(4.599, abs=5e-4)
        assert table.multicover_upper is None
        assert table.expected_uncovered(0) == pytest.approx(6.0)

    def test_n1_row(self):
        table = BoundTable.evaluate(1, 1)
        assert table.pigeonhole_lower == 1
        assert table.alteration_upper is None
