"""Margin-constrained multigraph enumeration and interval coloring counts."""

import itertools
from collections import Counter

import pytest
from graph_oracle import unpruned_count, unpruned_graphs, weights

from verblunsky.alphamoments import count_tuples, tuple_counts_all_m
from verblunsky.combinatorics import MultiIndex, MultiplicityVector, partitions
from verblunsky.graphs import (
    MCondGraph,
    c_via_graphs,
    count_colorings,
    enumerate_m_graphs,
)


def _brute_graphs_by_matrix(m):
    """Independent matrix enumeration: raw product space, then filter."""
    verts = list(m.support())
    k = len(verts)
    margins = [m.get(v) for v in verts]
    if k == 0:
        return {()}
    cells = [(i, j) for i in range(k) for j in range(k) if i != j]
    bound = max(margins)
    out = set()
    for values in itertools.product(range(bound + 1), repeat=len(cells)):
        mat = [[0] * k for _ in range(k)]
        for (i, j), v in zip(cells, values):
            mat[i][j] = v
        if any(sum(row) != mg for row, mg in zip(mat, margins)):
            continue
        if any(sum(mat[i][j] for i in range(k)) != margins[j] for j in range(k)):
            continue
        edges = []
        for i in range(k):
            for j in range(k):
                edges.extend([(verts[i], verts[j])] * mat[i][j])
        out.add(tuple(sorted(edges)))
    return out


def _brute_graphs_by_stubs(m):
    """Independent construction: bijections between out-stubs and in-stubs.

    Every balanced multigraph arises from some pairing of the m(v) outgoing
    stubs at v with incoming stubs elsewhere; distinct pairings may coincide
    as edge multisets, so collect a set.
    """
    stubs = [v for v, c in m.items() for _ in range(c)]
    out = set()
    for perm in itertools.permutations(range(len(stubs))):
        edges = tuple(sorted((stubs[k], stubs[p]) for k, p in enumerate(perm)))
        if any(a == b for a, b in edges):
            continue
        out.add(edges)
    return out


SMALL_M = [
    {1: 1, 2: 1},
    {0: 1, 1: 1},
    {1: 2, 2: 1},
    {1: 1, 2: 1, 3: 1},
    {1: 2, 2: 2},
    {1: 1, 2: 2, 4: 1},
    {2: 2, 3: 1, 5: 1},
    {1: 3},
    {0: 2, 2: 1},
]


def _all_budgets(m):
    """Union of the budgeted graph sets over every weight a graph on m can have."""
    return {g.edges for d in range(2 * m.size + 1) for g in enumerate_m_graphs(m, d)}


class TestEnumeration:
    @pytest.mark.parametrize("entries", SMALL_M)
    def test_matches_matrix_brute_force(self, entries):
        m = MultiplicityVector(entries)
        assert _all_budgets(m) == _brute_graphs_by_matrix(m)

    @pytest.mark.parametrize("entries", SMALL_M)
    def test_matches_stub_pairings(self, entries):
        m = MultiplicityVector(entries)
        assert _all_budgets(m) == _brute_graphs_by_stubs(m)

    def test_empty_m(self):
        assert enumerate_m_graphs(MultiplicityVector({}), 0) == [MCondGraph(())]
        assert enumerate_m_graphs(MultiplicityVector({}), 1) == []

    def test_single_vertex_unrealizable(self):
        assert enumerate_m_graphs(MultiplicityVector({3: 2}), 0) == []

    def test_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_m_graphs(MultiplicityVector({1: 13}), 1)

    def test_pruned_sets_equal_unpruned_buckets(self):
        # Every m of size 1..7 on indices 0..6 (3,431 vectors).
        for size in range(1, 8):
            for combo in itertools.combinations_with_replacement(range(7), size):
                m = MultiplicityVector(Counter(combo))
                buckets = {}
                for g in unpruned_graphs(m):
                    up, down = weights(g)
                    assert up == down, (m, g)
                    buckets.setdefault(up, set()).add(g.edges)
                for d in range(5):
                    got = [g.edges for g in enumerate_m_graphs(m, d)]
                    assert len(got) == len(set(got)), (m, d)
                    assert set(got) == buckets.get(d, set()), (m, d)

    def test_margins_balanced(self):
        m = MultiplicityVector({1: 2, 3: 1, 4: 1})
        for g in unpruned_graphs(m):
            outs = {}
            ins = {}
            for a, b in g.edges:
                outs[a] = outs.get(a, 0) + 1
                ins[b] = ins.get(b, 0) + 1
            assert outs == ins == dict(m.items())

    def test_edge_orientation_split(self):
        g = MCondGraph(((1, 4), (4, 2), (2, 1)))
        assert g.up_edges() == ((1, 4),)
        assert g.down_edges() == ((1, 2), (2, 4))
        assert g.up_edges() is g.up_edges()  # computed once per graph


class TestColoringRules:
    def test_parallel_edges_take_color_sets(self):
        # two coincident intervals with two equal budgets: one unordered choice
        g = MCondGraph(((5, 7), (5, 7)))
        assert count_colorings(g, MultiIndex({2: 2}), MultiIndex()) == 1

    def test_distinct_intervals_are_ordered(self):
        g = MCondGraph(((1, 3), (5, 7)))
        assert count_colorings(g, MultiIndex({2: 2}), MultiIndex()) == 2

    def test_nesting_rejected(self):
        g = MCondGraph(((1, 4), (2, 3)))
        assert count_colorings(g, MultiIndex({4: 1}), MultiIndex()) == 0

    def test_crossing_rejected(self):
        g = MCondGraph(((1, 3), (2, 4)))
        assert count_colorings(g, MultiIndex({4: 1}), MultiIndex()) == 0

    def test_shared_endpoint_rejected(self):
        g = MCondGraph(((1, 2), (2, 3)))
        assert count_colorings(g, MultiIndex({2: 1}), MultiIndex()) == 0

    def test_shared_endpoint_fine_across_colors(self):
        g = MCondGraph(((1, 2), (2, 3)))
        assert count_colorings(g, MultiIndex({1: 2}), MultiIndex()) == 2

    def test_disjoint_same_color_allowed(self):
        g = MCondGraph(((1, 2), (3, 4)))
        assert count_colorings(g, MultiIndex({2: 1}), MultiIndex()) == 1

    def test_forced_budget_split(self):
        g = MCondGraph(((1, 4), (2, 3)))
        assert count_colorings(g, MultiIndex({1: 1, 3: 1}), MultiIndex()) == 1

    def test_down_side(self):
        g = MCondGraph(((7, 5),))
        assert count_colorings(g, MultiIndex(), MultiIndex({2: 1})) == 1

    def test_weight_mismatch_zero(self):
        g = MCondGraph(((1, 3),))
        assert count_colorings(g, MultiIndex({1: 1}), MultiIndex()) == 0


class TestAgainstTupleCounts:
    def test_large_spot_instance(self):
        # eight units of budget per side across a five-vertex graph family
        p = MultiIndex({3: 1, 5: 1})
        q = MultiIndex({2: 2, 4: 1})
        m = MultiplicityVector({1: 1, 2: 1, 5: 2, 7: 2})
        graphs = c_via_graphs(p, q, m)
        tuples = count_tuples(p, q, m)
        assert graphs == tuples == 1

    def test_exhaustive_small_sweep(self):
        shapes = []
        for d in range(1, 4):
            for L in partitions(d):
                shapes.append(MultiIndex(dict(L.items())))
        max_index = 4
        for p, q in itertools.product(shapes, shapes):
            realized = tuple_counts_all_m(p, q, max_index)
            for m, count in realized.items():
                assert c_via_graphs(p, q, m) == count
                assert unpruned_count(p, q, m) == count
            # a vector that the tuple side never realizes must color to zero
            probe = MultiplicityVector({1: 1, 4: 1})
            if probe not in realized:
                assert c_via_graphs(p, q, probe) == 0

    def test_fast_variant_agrees_off_support(self):
        p = MultiIndex({2: 1})
        m = MultiplicityVector({1: 2, 2: 1})
        assert c_via_graphs(p, p, m) == unpruned_count(p, p, m)
