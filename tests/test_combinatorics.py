"""Multi-indices, partitions, and gap-sequence enumeration."""

import itertools
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from verblunsky import gaussian
from verblunsky.combinatorics import (
    MultiIndex,
    MultiplicityVector,
    f_weight,
    gap_sequences,
    gap_sequences_over,
    haar_weight,
    partitions,
)

PROPERTY = settings(max_examples=100)

# known partition counts p(0)..p(10)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


class TestMultiIndex:
    def test_basic_queries(self):
        p = MultiIndex({2: 1, 1: 3})
        assert p.items() == ((1, 3), (2, 1))
        assert p.deg == 5
        assert p.size == 4
        assert p.max_support == 2
        assert p.support() == (1, 2)
        assert p.slots() == (1, 1, 1, 2)
        assert p[1] == 3 and p[7] == 0

    def test_delta(self):
        assert MultiIndex.delta(4) == MultiIndex({4: 1})

    def test_zero_counts_dropped(self):
        assert MultiIndex({1: 2, 3: 0}) == MultiIndex({1: 2})
        assert not MultiIndex({})
        assert MultiIndex({}).max_support == 0
        assert MultiIndex({}).slots() == ()

    def test_add_merges(self):
        a = MultiIndex({1: 1, 2: 1})
        b = MultiIndex({2: 2, 5: 1})
        assert a + b == MultiIndex({1: 1, 2: 3, 5: 1})

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1:1", {1: 1}),
            ("1:2,3:1", {1: 2, 3: 1}),
            ("0", {}),
            ("", {}),
        ],
    )
    def test_from_string(self, text, expected):
        assert MultiIndex.from_string(text) == MultiIndex(expected)

    def test_string_roundtrip(self):
        for text in ("1:1", "2:3,7:1", "0"):
            assert MultiIndex.from_string(text).to_string() == text

    @PROPERTY
    @given(entries=st.dictionaries(st.integers(1, 60), st.integers(1, 12), max_size=6))
    @example(entries={})
    def test_string_roundtrip_property(self, entries):
        x = MultiIndex(entries)
        assert MultiIndex.from_string(x.to_string()) == x

    @PROPERTY
    @given(entries=st.dictionaries(st.integers(0, 60), st.integers(1, 12), max_size=6))
    @example(entries={})
    @example(entries={0: 1})
    def test_multiplicity_vector_roundtrip_property(self, entries):
        x = MultiplicityVector(entries)
        assert MultiplicityVector.from_string(x.to_string()) == x

    @pytest.mark.parametrize("bad", ["x", "1:", "1", "2:0", "0:1", "3:1,2:1", "1:1,1:2"])
    def test_from_string_rejects_and_names_token(self, bad):
        with pytest.raises(ValueError, match="token"):
            MultiIndex.from_string(bad)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex({0: 1})
        with pytest.raises(ValueError):
            MultiplicityVector({-1: 1})

    def test_multiplicity_vector_allows_zero_index(self):
        m = MultiplicityVector.from_string("0:2,3:1")
        assert m[0] == 2
        assert m.deg == 3
        assert m.to_string() == "0:2,3:1"

    def test_hash_distinguishes_types(self):
        assert MultiIndex({1: 1}) != MultiplicityVector({1: 1})
        d = {MultiIndex({1: 1}): "a", MultiplicityVector({1: 1}): "b"}
        assert len(d) == 2


class TestPartitions:
    @pytest.mark.parametrize("d", range(11))
    def test_counts(self, d):
        assert len(partitions(d)) == PARTITION_COUNTS[d]

    def test_every_entry_is_a_partition(self):
        for d in range(9):
            seen = set(partitions(d))
            assert len(seen) == len(partitions(d))
            for L in partitions(d):
                assert L.deg == d

    def test_pinned_order(self):
        assert [dict(L.items()) for L in partitions(3)] == [
            {1: 3},
            {1: 1, 2: 1},
            {3: 1},
        ]
        # descending lexicographic on the density vector (L(1), L(2), ...)
        for d in range(13):
            keys = [
                tuple(L.get(u) for u in range(1, d + 1)) for L in partitions(d)
            ]
            assert keys == sorted(keys, reverse=True)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            partitions(-1)


class TestHaarWeight:
    def test_class_equation(self):
        # conjugacy class sizes of the symmetric group sum to d!
        for d in range(9):
            assert sum(haar_weight(L) for L in partitions(d)) == 1

    @pytest.mark.parametrize(
        "L,w",
        [
            ({1: 3}, Fraction(1, 6)),
            ({1: 1, 2: 1}, Fraction(1, 2)),
            ({3: 1}, Fraction(1, 3)),
            ({2: 2}, Fraction(1, 8)),
        ],
    )
    def test_values(self, L, w):
        assert haar_weight(MultiIndex(L)) == w


class TestFWeight:
    def test_degree_mismatch_is_zero(self):
        assert f_weight(MultiIndex({1: 1}), MultiIndex({2: 1})) == 0

    def test_single_part(self):
        # one part of degree n accepts every partition of n exactly once
        for n in range(1, 7):
            for L in partitions(n):
                assert f_weight(MultiIndex.delta(n), L) == 1

    def test_all_parts_one(self):
        # d labeled singleton parts must each take one unit: d! orderings
        for d in range(1, 7):
            p = MultiIndex({1: d})
            assert f_weight(p, MultiIndex({1: d})) == factorial(d)
            for L in partitions(d):
                if L != MultiIndex({1: d}):
                    assert f_weight(p, L) == 0

    def test_mixed_example(self):
        # parts (1, 2) into {1:3}: choose the singleton (3 ways), rest forced
        assert f_weight(MultiIndex({1: 1, 2: 1}), MultiIndex({1: 3})) == 3
        assert f_weight(MultiIndex({1: 1, 2: 1}), MultiIndex({1: 1, 2: 1})) == 1

    def test_equals_scaled_decomposition_sums(self):
        # the raw engine's sums of 1/prod J! over families, times L!
        for dp in range(7):
            for p in partitions(dp):
                sums = gaussian._decomposition_sums(p)
                for dl in range(7):
                    for L in partitions(dl):
                        l_fact = prod(factorial(c) for _, c in L.items())
                        assert f_weight(p, L) == l_fact * sums.get(L, 0), (p, L)


def _brute_gap_sequences(n, max_index):
    """All valid pair tuples by filtering decreasing 2L-subsets of 0..max_index."""
    found = []
    values = list(range(max_index, -1, -1))
    for L in range(1, n + 1):
        if 2 * L > max_index + 1:
            break
        for combo in itertools.combinations(values, 2 * L):
            pairs = tuple(
                (combo[2 * u], combo[2 * u + 1]) for u in range(L)
            )
            if sum(i - j for i, j in pairs) == n:
                found.append(pairs)
    return sorted(found, key=lambda pairs: (len(pairs), pairs))


class TestGapSequences:
    def test_pinned_order_example(self):
        assert gap_sequences(2, 3) == [((2, 0),), ((3, 1),), ((3, 2), (1, 0))]

    @pytest.mark.parametrize("n,max_index", [(1, 6), (2, 6), (3, 7), (4, 8), (5, 8), (6, 8)])
    def test_matches_brute_force(self, n, max_index):
        assert gap_sequences(n, max_index) == _brute_gap_sequences(n, max_index)

    def test_degree_below_one_raises(self):
        with pytest.raises(ValueError):
            gap_sequences(0, 5)

    def test_restricted_enumeration(self):
        allowed = (0, 2, 3, 5)
        n = 3
        full = set(gap_sequences(n, max(allowed)))
        restricted = set(gap_sequences_over(allowed, n))
        expected = {
            pairs
            for pairs in full
            if all(i in allowed and j in allowed for i, j in pairs)
        }
        assert restricted == expected

    def test_restricted_keeps_sort_order(self):
        assert gap_sequences_over((0, 1, 2, 3, 4, 5), 3) == gap_sequences(3, 5)

    @PROPERTY
    @given(allowed=st.sets(st.integers(0, 9)), n=st.integers(1, 6))
    def test_restricted_is_filtered_brute_force(self, allowed, n):
        # Exactly the brute-force sequences over 0..9 whose indices all lie
        # in the set, in the same order: no check at run time is needed.
        expected = [
            pairs
            for pairs in _brute_gap_sequences(n, 9)
            if all(i in allowed and j in allowed for i, j in pairs)
        ]
        assert gap_sequences_over(tuple(allowed), n) == expected

    @pytest.mark.parametrize("indices", [(-1,), (3, 1, -1), (0, -2, 5, 9)])
    def test_negative_index_raises(self, indices):
        with pytest.raises(ValueError, match="indices must be >= 0"):
            gap_sequences_over(indices, 2)
