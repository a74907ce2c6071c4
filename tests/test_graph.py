import itertools
from math import factorial

import numpy as np
import pytest

from permcover import _kernels
from permcover.errors import ResourceLimitError
from permcover.graph import (
    PermSetBitmap,
    audit_joint_coverage,
    build_graph,
    covers_per_pattern,
)
from permcover.perms import (
    Permutation,
    complement,
    covers,
    inverse,
    rank,
    reverse,
    unrank,
)


def ranks_of(n, *strings):
    return {rank(Permutation.parse(s)) for s in strings}


class TestBitmap:
    def test_empty_full(self):
        empty = PermSetBitmap.empty(4)
        full = PermSetBitmap.full(4)
        assert empty.cardinality() == 0
        assert full.cardinality() == 24
        assert 0 not in empty and 0 in full

    def test_tail_bits_masked(self):
        # 4! = 24 < 64: full() must not set bits past the universe
        full = PermSetBitmap.full(4)
        assert int(full.words[0]) == (1 << 24) - 1

    def test_from_indices_and_ops(self):
        a = PermSetBitmap.from_indices(3, [0, 2, 5])
        b = PermSetBitmap.from_indices(3, [2, 3])
        assert (a & b).indices().tolist() == [2]
        assert (a | b).indices().tolist() == [0, 2, 3, 5]
        assert (a - b).indices().tolist() == [0, 5]
        assert len(a) == 3 and 2 in a and 1 not in a

    def test_bool_round_trip(self):
        mask = np.zeros(120, dtype=bool)
        mask[[0, 63, 64, 119]] = True
        bm = PermSetBitmap.from_bool(5, mask)
        assert bm.cardinality() == 4
        assert np.array_equal(bm.to_bool(), mask)

    def test_errors(self):
        with pytest.raises(ValueError):
            PermSetBitmap.from_indices(3, [6])
        with pytest.raises(ValueError):
            PermSetBitmap.from_bool(3, np.zeros(5, dtype=bool))
        with pytest.raises(ValueError):
            PermSetBitmap.empty(3) & PermSetBitmap.empty(4)
        with pytest.raises(ValueError):
            99 in PermSetBitmap.empty(3)


class TestBuild:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cover_count_identity(self, n, graph):
        g = graph(n)
        per = covers_per_pattern(n)
        assert g.cover_ranks.shape == (factorial(n), per)
        for p in range(g.n_patterns):
            assert g.covers_of(p).cardinality() == per

    @pytest.mark.parametrize("n", range(1, 7))
    def test_succession_identity(self, n, graph):
        g = graph(n)
        sizes = np.diff(g.pattern_indptr)
        assert np.array_equal(sizes, (n + 1) - g.succ_counts.astype(np.int64))
        assert int(sizes.sum()) == factorial(n) * covers_per_pattern(n)
        assert int(g.succ_counts.sum()) == 2 * n * factorial(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_duality_bit_for_bit(self, n, graph):
        g = graph(n)
        from_covers = {
            (p, int(r)) for p in range(g.n_patterns) for r in g.cover_ranks[p]
        }
        from_patterns = {
            (int(q), r)
            for r in range(g.n_covers)
            for q in g.pattern_row(r)
        }
        assert from_covers == from_patterns

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_direct_containment(self, n, graph):
        g = graph(n)
        for p_rank, pi_vals in enumerate(itertools.permutations(range(1, n + 1))):
            pi = Permutation(pi_vals)
            bitmap = g.covers_of(p_rank)
            for r_rank, rho_vals in enumerate(itertools.permutations(range(1, n + 2))):
                assert (r_rank in bitmap) == covers(Permutation(rho_vals), pi)

    def test_n4_double_count(self, graph):
        # sum over S_5 of distinct patterns = 24 * 17
        g = graph(4)
        assert int(np.diff(g.pattern_indptr).sum()) == 24 * 17 == 408

    def test_build_errors(self):
        with pytest.raises(ValueError):
            build_graph(0)
        with pytest.raises(ResourceLimitError, match="limit 8"):
            build_graph(9)
        with pytest.raises(ResourceLimitError, match="limit 3"):
            build_graph(4, max_n=3)

    def test_build_deterministic(self, graph):
        g1 = graph(4)
        g2 = build_graph(4)
        assert np.array_equal(g1.cover_ranks, g2.cover_ranks)
        assert np.array_equal(g1.pattern_data, g2.pattern_data)
        assert np.array_equal(g1.pattern_indptr, g2.pattern_indptr)


class TestQueries:
    def test_patterns_of_examples(self, graph):
        g = graph(3)
        row = g.patterns_of(rank(Permutation.parse("1342")))
        assert {str(unrank(3, int(r))) for r in row.indices()} == {"123", "132", "231"}
        row = g.patterns_of(rank(Permutation.parse("4213")))
        assert {str(unrank(3, int(r))) for r in row.indices()} == {"213", "312", "321"}
        row = g.patterns_of(rank(Permutation.parse("1234")))
        assert {str(unrank(3, int(r))) for r in row.indices()} == {"123"}

    def test_covers_of_examples(self, graph):
        g1 = graph(1)
        assert g1.covers_of(0).indices().tolist() == [0, 1]  # both of S_2

        g2 = graph(2)
        sel = g2.covers_of(rank(Permutation.parse("12")))
        assert sel.cardinality() == 5
        assert rank(Permutation.parse("321")) not in sel  # 321's deletions all give 21

        g3 = graph(3)
        sel = g3.covers_of(rank(Permutation.parse("123")))
        assert sel.cardinality() == 10
        assert rank(Permutation.parse("1234")) in sel

    def test_joint_covers_examples(self, graph):
        g = graph(3)
        r123 = rank(Permutation.parse("123"))
        r132 = rank(Permutation.parse("132"))
        r321 = rank(Permutation.parse("321"))
        joint = g.joint_covers(r123, r132)
        assert {str(unrank(4, int(r))) for r in joint.indices()} == {
            "1243", "1324", "1342", "1423",
        }
        assert g.joint_covers(r123, r321).cardinality() == 0
        assert g.joint_covers(r123, r123).cardinality() == 10

    def test_co_coverable_examples(self, graph):
        g = graph(3)
        r123 = rank(Permutation.parse("123"))
        partners = g.co_coverable(r123)
        assert rank(Permutation.parse("132")) in partners
        assert rank(Permutation.parse("321")) not in partners
        assert r123 not in partners  # excludes itself

        assert graph(1).co_coverable(0).cardinality() == 0

    def test_co_coverable_matches_pairwise_brute_force_n4(self, graph):
        g = graph(4)
        for p in range(g.n_patterns):
            direct = {
                q
                for q in range(g.n_patterns)
                if q != p and g.joint_covers(p, q).cardinality() > 0
            }
            assert set(g.co_coverable(p).indices().tolist()) == direct
            assert len(direct) <= 64

    def test_joint_count_matrix_matches_intersections(self, graph):
        # the sparse pair statistics agree with joint_covers cardinalities
        g = graph(3)
        stats = g.joint_count_matrix()
        shared = {(p, q): g.joint_covers(p, q).cardinality()
                  for p in range(6) for q in range(6) if p != q}
        n_pairs = np.bincount(list(shared.values()), minlength=stats.n_pairs.size)
        n_pairs[0] = 0
        assert np.array_equal(stats.n_pairs, n_pairs)
        partners = [sum(shared[p, q] > 0 for q in range(6) if q != p) for p in range(6)]
        assert stats.partners.tolist() == partners
        four = sorted([p, q] for (p, q), c in shared.items() if c == 4 and p < q)
        assert stats.four_cover_pairs.tolist() == four

    def test_rank_range_errors(self, graph):
        g = graph(3)
        with pytest.raises(ValueError):
            g.covers_of(6)
        with pytest.raises(ValueError):
            g.patterns_of(24)
        with pytest.raises(ValueError):
            g.joint_covers(0, -1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_covers_of_equivariance(self, n, graph):
        # the image of a cover set under each symmetry is the cover set of
        # the transformed pattern
        g = graph(n)
        for op in (reverse, complement, inverse):
            pat_map = {
                p: rank(op(unrank(n, p))) for p in range(g.n_patterns)
            }
            cov_map = {
                r: rank(op(unrank(n + 1, r))) for r in range(g.n_covers)
            }
            for p in range(g.n_patterns):
                image = sorted(cov_map[int(r)] for r in g.cover_ranks[p])
                assert image == g.cover_ranks[pat_map[p]].tolist()


class TestAudit:
    def test_n1_vacuous(self, graph):
        rep = audit_joint_coverage(graph(1))
        assert rep.max_J == 0 and rep.max_C == 0
        assert rep.adjacent_swap_iff_holds
        assert rep.violations == []

    def test_n2_exact(self, graph):
        rep = audit_joint_coverage(graph(2))
        assert rep.max_J == 1
        assert rep.max_C == 4
        assert rep.four_cover_pair_count == 1
        assert rep.iff_adjacent_positions and rep.iff_adjacent_values

    def test_n3_exact_values(self, graph):
        rep = audit_joint_coverage(graph(3))
        assert rep.max_J == 5
        assert rep.max_C == 4
        assert rep.four_cover_pair_count == 10
        assert rep.bounds_ok

    def test_n3_iff_counterexamples_are_the_known_ones(self, graph):
        # The "only if" direction of the adjacent-swap characterization
        # fails: these four pairs share exactly 4 covers but differ by no
        # adjacent-position swap.  The first was verified by hand via
        # insertion enumeration.
        g = graph(3)
        rep = audit_joint_coverage(g)
        assert not rep.adjacent_swap_iff_holds
        from permcover.graph import _adjacent_swap_pairs

        position_pairs, _ = _adjacent_swap_pairs(3)
        extras = {
            tuple(str(unrank(3, r)) for r in pair)
            for pair in set(rep.four_cover_pairs) - position_pairs
        }
        assert extras == {("132", "213"), ("132", "231"), ("213", "312"), ("231", "312")}
        joint = g.joint_covers(
            rank(Permutation.parse("132")), rank(Permutation.parse("213"))
        )
        assert {str(unrank(4, int(r))) for r in joint.indices()} == {
            "1324", "2143", "2413", "3142",
        }

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_adjacent_swaps_always_give_four(self, n, graph):
        # the "if" direction does hold on every audited n
        from permcover.graph import _adjacent_swap_pairs

        rep = audit_joint_coverage(graph(n))
        position_pairs, _ = _adjacent_swap_pairs(n)
        assert position_pairs <= set(rep.four_cover_pairs)

    def test_symmetry_of_co_coverability(self, graph):
        for n in (3, 4, 5):
            g = graph(n)
            stats = g.joint_count_matrix()
            related = np.array([g.co_coverable(p).to_bool() for p in range(g.n_patterns)])
            assert np.array_equal(related, related.T)
            assert np.array_equal(stats.partners, related.sum(axis=1))
            # every ordered pair is counted from both of its patterns
            assert not np.any(stats.n_pairs % 2)
            assert stats.n_pairs.sum() == stats.partners.sum()


def _brute_force_pair_stats(n):
    """N_c, partners per pattern and the four-cover pairs, from itertools
    and np.add.at alone: patterns are ranked by their position in the
    lexicographic itertools enumeration, each cover lists the distinct
    standardized one-letter deletions, and every pair of patterns listed
    by the same cover gains one shared cover."""
    patterns = list(itertools.permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(patterns)}

    def standardize(seq):
        order = sorted(seq)
        return tuple(order.index(v) + 1 for v in seq)

    shared = np.zeros((len(patterns), len(patterns)), dtype=np.int64)
    for cover in itertools.permutations(range(1, n + 2)):
        listed = sorted({index[standardize(cover[:i] + cover[i + 1:])]
                         for i in range(n + 1)})
        pairs = np.array(list(itertools.permutations(listed, 2)), dtype=np.int64)
        if pairs.size:
            np.add.at(shared, (pairs[:, 0], pairs[:, 1]), 1)
    n_pairs = np.bincount(shared.ravel(), minlength=n * n + 2)
    n_pairs[0] = 0
    a, b = np.nonzero(np.triu(shared == 4))
    return n_pairs, (shared > 0).sum(axis=1), np.column_stack((a, b))


class TestPairStats:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_brute_force(self, n, graph):
        g = graph(n)
        n_pairs, partners, four = _brute_force_pair_stats(n)
        stats = g.joint_count_matrix()
        assert np.array_equal(stats.n_pairs, n_pairs[: stats.n_pairs.size])
        assert not n_pairs[stats.n_pairs.size:].any()
        assert np.array_equal(stats.partners, partners)
        assert np.array_equal(stats.four_cover_pairs, four)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_size_does_not_change_the_result(self, block, graph, monkeypatch):
        g = graph(5)
        monkeypatch.setattr(_kernels, "_PAIR_BLOCK", block)
        blocked = _kernels.joint_pair_counts(g.cover_ranks, g.pattern_indptr, g.pattern_data)
        for got, want in zip(blocked, g.joint_count_matrix()):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, n_pairs, max_j, four", [
        (7, [521208, 303432, 9320, 54432], 240, 27216),
        (8, [7681248, 3439392, 61216, 512400], 378, 256200),
    ])
    def test_golden(self, n, n_pairs, max_j, four, graph):
        stats = graph(n).joint_count_matrix()
        assert stats.n_pairs[1:5].tolist() == n_pairs
        assert not stats.n_pairs[5:].any()
        assert int(stats.partners.max()) == max_j
        assert len(stats.four_cover_pairs) == four
