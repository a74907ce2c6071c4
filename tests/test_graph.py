import hashlib
import itertools
import subprocess
import sys
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from permcover import _kernels
from permcover.cover import verify_cover
from permcover.errors import ResourceLimitError
from permcover.graph import (
    CoverageGraph,
    _adjacent_swap_pairs,
    audit_joint_coverage,
    build_graph,
    covers_per_pattern,
    selection_flags,
)
from permcover.perms import (
    SYMMETRY_OPS,
    Permutation,
    complement,
    covers,
    inverse,
    rank,
    reverse,
    symmetry,
    unrank,
)
from permcover.threshold import count_uncovered

needs_vmhwm = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                 reason="needs Linux VmHWM")


def ranks_of(n, *strings):
    return {rank(Permutation.parse(s)) for s in strings}


class TestSelectionFlags:
    def test_ranks_and_mask_agree(self, graph):
        g = graph(3)
        flags = selection_flags(g, [0, 5, 23])
        assert flags.dtype == bool and flags.shape == (24,)
        assert np.flatnonzero(flags).tolist() == [0, 5, 23]
        assert selection_flags(g, flags) is flags
        assert np.array_equal(selection_flags(g, (23, 5, 0, 5)), flags)

    def test_empty_selection(self, graph):
        g = graph(3)
        for empty in ([], (), np.empty(0, dtype=np.int64)):
            assert not selection_flags(g, empty).any()

    def test_rank_out_of_range(self, graph):
        g = graph(3)
        for bad in ([24], [-1], [0, 99]):
            with pytest.raises(ValueError, match="rank out of range"):
                selection_flags(g, bad)

    def test_non_integer_ranks_rejected(self, graph):
        # a rank of any non-integer dtype is an error, never truncated
        g = graph(3)
        for bad in ([0.5], [2.9, 21.2], np.array([1.0]), ["3"]):
            for read in (selection_flags, verify_cover, count_uncovered):
                with pytest.raises(ValueError, match="must be integers"):
                    read(g, bad)

    def test_wrong_length_mask(self, graph):
        with pytest.raises(ValueError, match="expected 24 selection flags"):
            selection_flags(graph(3), np.zeros(6, dtype=bool))


class TestBuild:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cover_count_identity(self, n, graph):
        g = graph(n)
        per = covers_per_pattern(n)
        assert g.cover_ranks.shape == (factorial(n), per)
        for p in range(g.n_patterns):
            assert g.covers_of(p).size == per

    @pytest.mark.parametrize("n", range(1, 7))
    def test_succession_identity(self, n, graph):
        g = graph(n)
        sizes = np.count_nonzero(g.pattern_rows < g.n_patterns, axis=1)
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
            cover_set = set(g.covers_of(p_rank).tolist())
            for r_rank, rho_vals in enumerate(itertools.permutations(range(1, n + 2))):
                assert (r_rank in cover_set) == covers(Permutation(rho_vals), pi)

    def test_n4_double_count(self, graph):
        # sum over S_5 of distinct patterns = 24 * 17
        g = graph(4)
        assert int(np.count_nonzero(g.pattern_rows < g.n_patterns)) == 24 * 17 == 408

    def test_build_errors(self):
        with pytest.raises(ValueError):
            build_graph(0)
        with pytest.raises(ResourceLimitError, match="limit 8"):
            build_graph(9)
        with pytest.raises(ResourceLimitError, match="limit 3"):
            build_graph(4, max_n=3)

    def test_build_reads_no_environment(self, monkeypatch):
        # the enumeration limit is an argument; PERMCOVER_MAX_N is the CLI's
        monkeypatch.setenv("PERMCOVER_MAX_N", "2")
        assert build_graph(3).n == 3
        monkeypatch.setenv("PERMCOVER_MAX_N", "20")
        with pytest.raises(ResourceLimitError, match="limit 8"):
            build_graph(9)

    @pytest.mark.parametrize("length", range(1, 8))
    def test_perms_and_deletions_match_itertools(self, length):
        smaller = {p: i for i, p in enumerate(itertools.permutations(range(1, length)))}
        expected_perms = list(itertools.permutations(range(1, length + 1)))
        expected_dels = []
        for p in expected_perms:
            row = []
            for i in range(length):
                rest = p[:i] + p[i + 1 :]
                row.append(smaller[tuple(x - (x > p[i]) for x in rest)])
            expected_dels.append(row)
        perms, dels = _kernels.perms_and_deletions(length)
        assert perms.dtype == np.uint8 and dels.dtype == np.int64
        assert perms.tolist() == [list(p) for p in expected_perms]
        assert dels.tolist() == expected_dels

    @pytest.mark.parametrize("n, pinned", [
        (7, {
            "cover_ranks": ("int64", (5040, 50),
                            "1d58f540dea94dfd8bebfbd6eeefa495c7a5977cf9194b071525c9fa34de4898"),
            "pattern_rows": ("int32", (40320, 8),
                             "ec609e99b26cfc9213c2e39fbfd78623180307a306e20af1be85716aa01d9500"),
            "pattern_indptr": ("int64", (40321,),
                               "9cf63fe126a70000db785406d24caec8cb239424107d7b4496dcd9ad44a7d4df"),
            "pattern_data": ("int32", (252000,),
                             "861c3de2bc7f1bbfc54d7816f5d5126d9847e288dc5eebd974b17468f95a1494"),
            "succ_counts": ("uint8", (40320,),
                            "33a319f7634ced5b57e70a14668a378a6b53529da7dd1842263df40e66beb62f"),
        }),
        (8, {
            "cover_ranks": ("int64", (40320, 65),
                            "adb35a0215fd962f4906394b4af45e7dd04589aaef417a19096386bd4e70c9e7"),
            "pattern_rows": ("int32", (362880, 9),
                             "53e340b184acf3b92fdff31f206c3d58a5522fb508dc2033745d5abd5745eba9"),
            "pattern_indptr": ("int64", (362881,),
                               "ed1475752167daf0f8c24f1e454b52b7889de8f8dc16a5d3fcd0af518c2b0f8e"),
            "pattern_data": ("int32", (2620800,),
                             "cbc42be1e32acd838621bcb0498c2ae25d75619a88d0105719890c85cd68417f"),
            "succ_counts": ("uint8", (362880,),
                            "6e4686d810dbe39fc9848a00c2dc0ad9f237ce3de7da655e5fd1ad3dbe20b2ef"),
        }),
    ])
    def test_arrays_pinned(self, n, pinned, graph):
        g = graph(n)
        lengths = (n + 1) - g.succ_counts.astype(np.int64)
        arrays = {
            "cover_ranks": g.cover_ranks,
            "pattern_rows": g.pattern_rows,
            # the CSR pair the graph stored before the padded table
            "pattern_indptr": np.concatenate(([0], np.cumsum(lengths))),
            "pattern_data": g.pattern_rows[g.pattern_rows < g.n_patterns],
            "succ_counts": g.succ_counts,
        }
        for name, (dtype, shape, digest) in pinned.items():
            arr = arrays[name]
            assert (arr.dtype, arr.shape) == (np.dtype(dtype), shape), name
            # the cover table is hashed as the int32 it was first pinned in
            hashed = arr.astype(np.int32) if name == "cover_ranks" else arr
            assert hashlib.sha256(hashed.tobytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cover_table_layout(self, n, graph):
        # the one cover table: intp, so it indexes without a cast, and
        # column-major, so the counting kernel reads contiguous columns
        table = graph(n).cover_ranks
        assert table.dtype == np.intp and table.flags.f_contiguous
        assert not table.flags.writeable

    @pytest.mark.parametrize("position, message", [
        (0, "not uniformly"),  # 2413 -> 2431, which 13524 does not contain
        (4, "duplicate pattern"),  # 1342 -> 1423, also its deletion at position 1
    ])
    def test_build_checks_are_live(self, monkeypatch, position, message):
        # 13524 has no succession, so all five deletions are kept; one of
        # their ranks is raised by one
        row = rank(Permutation.parse("13524"))
        real = _kernels.perms_and_deletions

        def one_wrong_rank(length):
            perms, dels = real(length)
            dels[row, position] += 1
            return perms, dels

        monkeypatch.setattr(_kernels, "perms_and_deletions", one_wrong_rank)
        with pytest.raises(RuntimeError, match=message):
            build_graph(4)

    def test_build_deterministic(self, graph):
        g1 = graph(4)
        g2 = build_graph(4)
        assert np.array_equal(g1.cover_ranks, g2.cover_ranks)
        assert np.array_equal(g1.pattern_rows, g2.pattern_rows)
        assert np.array_equal(g1.succ_counts, g2.succ_counts)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_padded_layout(self, n, graph):
        # each row ascends strictly up to its length n+1-succ_counts[r],
        # then holds only the sentinel n!; pattern_row is a read-only view
        g = graph(n)
        rows = g.pattern_rows
        assert rows.dtype == np.int32 and rows.shape == (g.n_covers, n + 1)
        lengths = (n + 1) - g.succ_counts.astype(np.int64)
        real = np.arange(n + 1) < lengths[:, None]
        assert np.array_equal(rows == g.n_patterns, ~real)
        assert rows.min() >= 0 and rows[real].max() < g.n_patterns
        assert np.all(np.diff(rows, axis=1)[real[:, 1:]] > 0)
        for r in range(g.n_covers):
            row = g.pattern_row(r)
            assert row.size == lengths[r] and np.shares_memory(row, rows)
            assert not row.flags.writeable


class TestQueries:
    def test_patterns_of_examples(self, graph):
        g = graph(3)
        row = g.pattern_row(rank(Permutation.parse("1342")))
        assert [str(unrank(3, int(r))) for r in row] == ["123", "132", "231"]
        row = g.pattern_row(rank(Permutation.parse("4213")))
        assert [str(unrank(3, int(r))) for r in row] == ["213", "312", "321"]
        row = g.pattern_row(rank(Permutation.parse("1234")))
        assert [str(unrank(3, int(r))) for r in row] == ["123"]

    def test_covers_of_examples(self, graph):
        g1 = graph(1)
        assert g1.covers_of(0).tolist() == [0, 1]  # both of S_2

        g2 = graph(2)
        sel = g2.covers_of(rank(Permutation.parse("12"))).tolist()
        assert len(sel) == 5 and sel == sorted(sel)
        assert rank(Permutation.parse("321")) not in sel  # 321's deletions all give 21

        g3 = graph(3)
        sel = g3.covers_of(rank(Permutation.parse("123"))).tolist()
        assert len(sel) == 10 and sel == sorted(sel)
        assert rank(Permutation.parse("1234")) in sel

    def test_joint_covers_examples(self, graph):
        g = graph(3)
        r123 = rank(Permutation.parse("123"))
        r132 = rank(Permutation.parse("132"))
        r321 = rank(Permutation.parse("321"))
        joint = g.joint_covers(r123, r132)
        assert [str(unrank(4, int(r))) for r in joint] == ["1243", "1324", "1342", "1423"]
        assert g.joint_covers(r123, r321).size == 0
        assert np.array_equal(g.joint_covers(r123, r123), g.covers_of(r123))

    def test_co_coverable_examples(self, graph):
        g = graph(3)
        r123 = rank(Permutation.parse("123"))
        partners = g.co_coverable(r123).tolist()
        assert partners == sorted(partners)
        assert rank(Permutation.parse("132")) in partners
        assert rank(Permutation.parse("321")) not in partners
        assert r123 not in partners  # excludes itself

        assert graph(1).co_coverable(0).size == 0

    def test_co_coverable_matches_pairwise_brute_force_n4(self, graph):
        g = graph(4)
        for p in range(g.n_patterns):
            direct = {
                q
                for q in range(g.n_patterns)
                if q != p and g.joint_covers(p, q).size > 0
            }
            assert g.co_coverable(p).tolist() == sorted(direct)
            assert len(direct) <= 64

    def test_joint_count_matrix_matches_intersections(self, graph):
        # the sparse pair statistics agree with joint_covers cardinalities
        g = graph(3)
        stats = g.joint_count_matrix()
        shared = {(p, q): g.joint_covers(p, q).size
                  for p in range(6) for q in range(6) if p != q}
        n_pairs = np.bincount(list(shared.values()), minlength=stats.n_pairs.size)
        n_pairs[0] = 0
        assert np.array_equal(stats.n_pairs, n_pairs)
        partners = [sum(shared[p, q] > 0 for q in range(6) if q != p) for p in range(6)]
        assert stats.partners.tolist() == partners
        four = sorted([p, q] for (p, q), c in shared.items() if c == 4 and p < q)
        assert stats.four_cover_pairs.tolist() == four

    def test_queries_return_read_only_views(self, graph):
        # covers_of and pattern_row hand out views of the shared graph arrays
        g = graph(3)
        for view in (g.covers_of(0), g.pattern_row(0)):
            with pytest.raises(ValueError):
                view[0] = 1

    def test_rank_range_errors(self, graph):
        g = graph(3)
        with pytest.raises(ValueError):
            g.covers_of(6)
        with pytest.raises(ValueError):
            g.pattern_row(24)
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
        assert rep["max_J"] == 0 and rep["max_C"] == 0
        assert rep["adjacent_swap_iff_holds"]
        assert rep["violations"] == []

    def test_n2_exact(self, graph):
        rep = audit_joint_coverage(graph(2))
        assert rep["max_J"] == 1
        assert rep["max_C"] == 4
        assert rep["four_cover_pair_count"] == 1
        assert rep["iff_adjacent_positions"] and rep["iff_adjacent_values"]

    def test_n3_exact_values(self, graph):
        rep = audit_joint_coverage(graph(3))
        assert rep["max_J"] == 5
        assert rep["max_C"] == 4
        assert rep["four_cover_pair_count"] == 10

    def test_n3_iff_counterexamples_are_the_known_ones(self, graph):
        # The "only if" direction of the adjacent-swap characterization
        # fails: these four pairs share exactly 4 covers but differ by no
        # adjacent-position swap.  The first was verified by hand via
        # insertion enumeration.
        g = graph(3)
        rep = audit_joint_coverage(g)
        assert not rep["adjacent_swap_iff_holds"]
        position_keys, _ = _adjacent_swap_pairs(3)
        four_pairs = g.joint_count_matrix().four_cover_pairs
        four_keys = four_pairs[:, 0] * 6 + four_pairs[:, 1]
        extras = {
            tuple(str(unrank(3, r)) for r in divmod(int(key), 6))
            for key in np.setdiff1d(four_keys, position_keys)
        }
        assert extras == {("132", "213"), ("132", "231"), ("213", "312"), ("231", "312")}
        joint = g.joint_covers(
            rank(Permutation.parse("132")), rank(Permutation.parse("213"))
        )
        assert [str(unrank(4, int(r))) for r in joint] == ["1324", "2143", "2413", "3142"]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_adjacent_swaps_always_give_four(self, n, graph):
        # the "if" direction does hold on every audited n
        g = graph(n)
        rep = audit_joint_coverage(g)
        four_pairs = g.joint_count_matrix().four_cover_pairs
        assert rep["four_cover_pair_count"] == len(four_pairs)
        position_keys, _ = _adjacent_swap_pairs(n)
        four_keys = four_pairs[:, 0] * factorial(n) + four_pairs[:, 1]
        assert np.isin(position_keys, four_keys).all()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_adjacent_swap_pairs_match_loop(self, n):
        # per-permutation loop over itertools as the reference for the keys
        perms = list(itertools.permutations(range(1, n + 1)))
        index = {p: i for i, p in enumerate(perms)}
        positions, values = set(), set()
        for a, p in enumerate(perms):
            for i in range(n - 1):
                q = list(p)
                q[i], q[i + 1] = q[i + 1], q[i]
                b = index[tuple(q)]
                if a < b:
                    positions.add(a * len(perms) + b)
                    if abs(p[i] - p[i + 1]) == 1:
                        values.add(a * len(perms) + b)
        position_keys, value_keys = _adjacent_swap_pairs(n)
        assert position_keys.dtype == value_keys.dtype == np.int64
        assert position_keys.tolist() == sorted(positions)
        assert value_keys.tolist() == sorted(values)

    @pytest.mark.parametrize("n, missed", [(3, 2), (4, 9), (5, 40), (6, 210)])
    def test_value_swaps_do_not_close_the_gap(self, n, missed, graph):
        # adjacent-value swaps (exchange the values v and v+1, the inverse
        # images of position swaps) all share exactly 4 covers, yet with
        # the position swaps they still miss some four-cover pairs; both
        # swap sets come from itertools alone, ranked lexicographically
        perms = list(itertools.permutations(range(1, n + 1)))
        index = {p: i for i, p in enumerate(perms)}
        positions, values = set(), set()
        for a, p in enumerate(perms):
            for i in range(n - 1):
                b = index[p[:i] + (p[i + 1], p[i]) + p[i + 2:]]
                positions.add((min(a, b), max(a, b)))
                v = {i + 1: i + 2, i + 2: i + 1}  # the values i+1 and i+2 trade places
                b = index[tuple(v.get(x, x) for x in p)]
                values.add((min(a, b), max(a, b)))
        four = set(map(tuple, graph(n).joint_count_matrix().four_cover_pairs.tolist()))
        assert values <= four and positions <= four
        assert len(four - positions - values) == missed

    def test_position_swap_without_four_covers_is_reported(self):
        # this violation never occurs on a correct graph, so feed the audit
        # pair statistics with one position swap (123, 132) dropped
        g = build_graph(3)
        stats = g.joint_count_matrix()
        dropped = [rank(Permutation.parse("123")), rank(Permutation.parse("132"))]
        kept = [pair for pair in stats.four_cover_pairs.tolist() if pair != dropped]
        assert len(kept) == len(stats.four_cover_pairs) - 1
        g._pair_stats = stats._replace(four_cover_pairs=np.array(kept))
        rep = audit_joint_coverage(g)
        assert rep["four_cover_pair_count"] == 9 and not rep["iff_adjacent_positions"]
        missing = [v for v in rep["violations"]
                   if v["kind"] == "adjacent_position_swap_without_4_covers"]
        assert missing == [{
            "kind": "adjacent_position_swap_without_4_covers",
            "pair": ["123", "132"],
            "shared_covers": 4,
        }]

    def test_symmetry_of_co_coverability(self, graph):
        for n in (3, 4, 5):
            g = graph(n)
            stats = g.joint_count_matrix()
            related = np.array([np.isin(np.arange(g.n_patterns), g.co_coverable(p))
                                for p in range(g.n_patterns)])
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

    covers = [sorted({index[standardize(cover[:i] + cover[i + 1:])] for i in range(n + 1)})
              for cover in itertools.permutations(range(1, n + 2))]
    return _shared_cover_stats(covers, len(patterns), n * n + 1)


def _shared_cover_stats(covers, n_patterns, per_pattern):
    """N_c, partners and four-cover pairs of covers given as lists of
    distinct patterns, by counting the shared covers of every ordered pair
    directly."""
    shared = np.zeros((n_patterns, n_patterns), dtype=np.int64)
    for listed in covers:
        pairs = np.array(list(itertools.permutations(listed, 2)), dtype=np.int64)
        if pairs.size:
            np.add.at(shared, (pairs[:, 0], pairs[:, 1]), 1)
    n_pairs = np.bincount(shared.ravel(), minlength=per_pattern + 1)
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
        blocked = _kernels.joint_pair_counts(g.cover_ranks, g.pattern_rows)
        for got, want in zip(blocked, g.joint_count_matrix()):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_four_cover_pairs_closed_under_symmetries(self, n, graph):
        # containment is invariant under reverse, complement and inverse, so
        # the four-cover pair set must be closed under the group they
        # generate; closure under the generators is enough
        four = graph(n).joint_count_matrix().four_cover_pairs
        pairs = set(map(tuple, four.tolist()))
        assert pairs
        for op in SYMMETRY_OPS:
            image = np.array([rank(symmetry(unrank(n, p), op)) for p in range(factorial(n))])
            mapped = set(map(tuple, np.sort(image[four], axis=1).tolist()))
            assert mapped == pairs, op

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

    @needs_vmhwm
    def test_n8_memory_peak(self):
        # The build and the pair statistics share the padded pattern table,
        # so neither copies it.  On Linux, Python 3.11, numpy 2.4 the build
        # plus pair statistics grow the peak after import by ~81 MB, and by
        # ~111 MB when the pair statistics rebuilt the table from a CSR copy.
        assert _peak_growth("", "build_graph(8).joint_count_matrix()") < 96.0

    @needs_vmhwm
    def test_n7_memory_peak(self):
        # At n = 7 a block of uint16 cover lists and its masks take about
        # 0.5 MB, well inside the build's own transients, so the pair
        # statistics leave the post-build peak alone; int64 tables of every
        # run (pattern, value, length) raised it by ~18 MB here.
        assert _peak_growth("g = build_graph(7)", "g.joint_count_matrix()") < 2.0


def _peak_growth(setup, statement):
    """MB by which ``statement`` raises a fresh child's peak RSS after
    ``setup``.  The peak is the child's VmHWM, not ru_maxrss: on Linux a
    child's ru_maxrss starts at its parent's peak, under pytest the whole
    test session's, which would hide the growth."""
    script = (
        "import re, sys; sys.path.insert(0, sys.argv[1])\n"
        "from permcover.graph import build_graph\n"
        "def peak():\n"
        "    status = open('/proc/self/status').read()\n"
        "    return int(re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1)) / 1024\n"
        f"{setup}\n"
        "base = peak()\n"
        f"{statement}\n"
        "print(peak() - base)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).resolve().parents[1] / "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


def _cover_table(covers, n_patterns):
    """(cover_ranks, pattern_rows) for covers given as lists of distinct
    patterns, laid out as in a built graph: each row sorted and padded with
    the sentinel n_patterns, and each pattern's covers in rank order.  The
    np.array call fails unless every pattern has the same number of covers."""
    pattern_rows = np.full((len(covers), max(map(len, covers))), n_patterns, dtype=np.int32)
    for r, row in enumerate(covers):
        pattern_rows[r, : len(row)] = sorted(row)
    cover_ranks = np.array(
        [[r for r, row in enumerate(covers) if p in row] for p in range(n_patterns)],
        dtype=np.int32,
    )
    return cover_ranks, pattern_rows


# Real graphs share at most 4 covers per pair, so these hand-made tables
# check the runs that never occur there.  In the first, patterns 0 and 1
# share 6 covers, the pattern-0 list has a run of 4 (value 2) right after
# one of 6, and rows [2, 3] and [3] carry sentinels.  In the second, the
# pattern-0 list has a run of 4 right before one of 5, and the pattern-2
# list ends with a run of 4.
LONG_RUN_TABLES = [
    [[0, 1, 2]] * 4 + [[0, 1, 3]] * 2 + [[2, 3]] * 2 + [[3]] * 2,
    [[0, 1]] * 4 + [[0, 2]] * 5 + [[1, 3]] * 5 + [[2, 3]] * 4,
]


class TestPairStatsLongRuns:
    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("covers", LONG_RUN_TABLES)
    def test_matches_brute_force(self, covers, block, monkeypatch):
        monkeypatch.setattr(_kernels, "_PAIR_BLOCK", block)
        cover_ranks, pattern_rows = _cover_table(covers, 4)
        got = _kernels.joint_pair_counts(cover_ranks, pattern_rows)
        want = _shared_cover_stats(covers, 4, cover_ranks.shape[1])
        assert max(np.flatnonzero(want[0])) >= 5
        for a, b in zip(got, want):
            assert a.dtype == np.int64
            assert np.array_equal(a, b)

    def test_audit_reports_more_than_4_shared_covers(self):
        # n = 2 with n^2 + 1 = 5 covers per pattern, all shared, and one
        # cover holding only sentinels
        covers = [[0, 1]] * 5 + [[]]
        cover_ranks, pattern_rows = _cover_table(covers, 2)
        succ_counts = np.count_nonzero(pattern_rows == 2, axis=1).astype(np.uint8)
        rep = audit_joint_coverage(CoverageGraph(2, cover_ranks, pattern_rows, succ_counts))
        assert rep["max_C"] == 5 and rep["max_J"] == 1
        assert rep["violations"][0] == {"kind": "pair_cover_count_exceeds_4", "max_C": 5}
