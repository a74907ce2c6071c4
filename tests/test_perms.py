import doctest
import itertools
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

import permcover.perms
from permcover.perms import (
    Permutation,
    complement,
    covers,
    delete_at,
    format_perm,
    inverse,
    parse_perm,
    rank,
    reverse,
    standardize,
    successions,
    symmetry,
    unrank,
)


def lex_oracle(n):
    """Independent rank oracle: position in the sorted tuple enumeration."""
    return {p: i for i, p in enumerate(itertools.permutations(range(1, n + 1)))}


class TestRankUnrank:
    def test_lex_first_is_identity(self):
        assert rank((1, 2, 3)) == 0
        assert str(unrank(3, 0)) == "123"

    def test_lex_last_is_reversal(self):
        assert rank((3, 2, 1)) == 5
        assert str(unrank(3, 5)) == "321"

    def test_rank_1342_mixed_radix_oracle(self):
        # Lehmer digits of 1342: 0, 1, 1, 0 -> 0*3! + 1*2! + 1*1! = 3
        assert rank((1, 3, 4, 2)) == 3
        assert lex_oracle(4)[(1, 3, 4, 2)] == 3
        assert unrank(4, 3).values == (1, 3, 4, 2)

    def test_unrank_enumerates_lex_order(self):
        perms = [unrank(4, r).values for r in range(24)]
        assert perms == sorted(perms)
        assert len(set(perms)) == 24
        assert perms == list(itertools.permutations(range(1, 5)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_round_trip_all_ranks(self, n):
        for r in range(factorial(n)):
            assert rank(unrank(n, r)) == r

    def test_rank_matches_oracle_exhaustively(self):
        for n in range(1, 7):
            oracle = lex_oracle(n)
            for p, r in oracle.items():
                assert rank(p) == r

    def test_unrank_range_errors(self):
        with pytest.raises(ValueError):
            unrank(3, 6)
        with pytest.raises(ValueError):
            unrank(3, -1)
        with pytest.raises(ValueError):
            unrank(0, 0)


class TestStandardize:
    def test_examples(self):
        assert standardize((4, 1, 2)).values == (3, 1, 2)
        assert standardize((1, 3, 2)).values == (1, 3, 2)
        # sort-based oracle: order statistics of (9, 2, 6, 5) are 4, 1, 3, 2
        assert standardize((9, 2, 6, 5)).values == (4, 1, 3, 2)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            standardize((1, 1, 2))

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=12, unique=True))
    def test_order_isomorphism_and_idempotence(self, seq):
        out = standardize(seq)
        n = len(seq)
        assert sorted(out.values) == list(range(1, n + 1))
        for i in range(n):
            for j in range(n):
                assert (out.values[i] < out.values[j]) == (seq[i] < seq[j])
        assert standardize(out.values) == out


class TestDeleteAt:
    def test_examples(self):
        p = Permutation.parse("1342")
        assert str(delete_at(p, 1)) == "231"
        assert str(delete_at(p, 4)) == "123"
        assert str(delete_at(Permutation.parse("12"), 2)) == "1"

    def test_range_errors(self):
        with pytest.raises(ValueError):
            delete_at(Permutation.parse("1342"), 0)
        with pytest.raises(ValueError):
            delete_at(Permutation.parse("1342"), 5)
        with pytest.raises(ValueError):
            delete_at(Permutation.parse("1"), 1)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_deletion_consistency_with_successions(self, n):
        # distinct one-letter deletions == n - successions, for all of S_n
        for vals in itertools.permutations(range(1, n + 1)):
            p = Permutation(vals)
            distinct = {delete_at(p, i) for i in range(1, n + 1)}
            assert len(distinct) == n - successions(p)


class TestSuccessions:
    def test_examples(self):
        assert successions(Permutation.parse("12345")) == 4
        assert successions(Permutation.parse("1342")) == 1
        assert successions(Permutation.parse("2413")) == 0
        assert successions(Permutation.parse("1")) == 0

    def test_total_over_s3(self):
        total = sum(successions(p) for p in itertools.permutations((1, 2, 3)))
        assert total == 2 * 2 * factorial(2)  # 2(n-1)(n-1)! at n=3


class TestSymmetry:
    def test_examples(self):
        assert str(symmetry(Permutation.parse("123"), "reverse")) == "321"
        assert str(symmetry(Permutation.parse("132"), "complement")) == "312"
        assert str(symmetry(Permutation.parse("2413"), "inverse")) == "3142"

    def test_inverse_position_of_value_oracle(self):
        p = Permutation.parse("2413")
        inv = inverse(p)
        for value in range(1, 5):
            assert p.values[inv.values[value - 1] - 1] == value

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            symmetry(Permutation.parse("123"), "rotate")

    @pytest.mark.parametrize("op", ["reverse", "complement", "inverse"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_involution_exhaustive(self, op, n):
        for vals in itertools.permutations(range(1, n + 1)):
            p = Permutation(vals)
            assert symmetry(symmetry(p, op), op) == p


class TestCovers:
    def test_examples(self):
        assert covers(Permutation.parse("1342"), Permutation.parse("123"))
        assert not covers(Permutation.parse("1234"), Permutation.parse("132"))
        assert covers(Permutation.parse("12"), Permutation.parse("1"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            covers(Permutation.parse("12345"), Permutation.parse("123"))
        with pytest.raises(ValueError):
            covers(Permutation.parse("123"), Permutation.parse("123"))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equivariance_exhaustive(self, n):
        ops = (reverse, complement, inverse)
        patterns = [Permutation(v) for v in itertools.permutations(range(1, n + 1))]
        hosts = [Permutation(v) for v in itertools.permutations(range(1, n + 2))]
        for rho in hosts:
            for pi in patterns:
                base = covers(rho, pi)
                for op in ops:
                    assert covers(op(rho), op(pi)) == base


class TestSerialization:
    def test_digit_form(self):
        assert format_perm((1, 3, 4, 2)) == "1342"
        assert parse_perm("1342") == (1, 3, 4, 2)

    def test_comma_form(self):
        vals = (10, 3, 1, 2, 4, 5, 6, 7, 8, 9)
        assert format_perm(vals) == "10,3,1,2,4,5,6,7,8,9"
        assert parse_perm("10,3,1,2,4,5,6,7,8,9") == vals
        # comma form accepted for short permutations too
        assert parse_perm("2,1,3") == (2, 1, 3)

    def test_round_trip_through_permutation(self):
        p = Permutation(tuple([10, 3, 1, 2, 4, 5, 6, 7, 8, 9]))
        assert Permutation.parse(str(p)) == p

    def test_invalid(self):
        with pytest.raises(ValueError):
            Permutation((1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1))
        with pytest.raises(ValueError):
            Permutation(())
        with pytest.raises(ValueError):
            parse_perm("")


@pytest.mark.parametrize("pos", [0, 4])
def test_getitem_position_out_of_range(pos):
    with pytest.raises(ValueError, match=r"position .* out of range 1\.\.3"):
        Permutation((2, 3, 1))[pos]


def test_doctests():
    result = doctest.testmod(permcover.perms)
    assert result.failed == 0
    assert result.attempted >= 15
