"""Graphical recount of the balanced-tuple numbers C(p, q, m).

A multiplicity vector m determines directed multigraphs on supp(m) whose
every vertex has in-degree = out-degree = m(i) and no self-loops; these are
exactly the vertex-identified disjoint cycle covers of the complete directed
multipartite graph with m(i) copies of class i.  Up-edges (i -> j with i < j)
carry the p side, down-edges the q side, with weight |j - i|.

A coloring assigns each up-edge to one of the labeled p-colors (p(u) colors
of budget u) and each down-edge to a labeled q-color, such that every color
class fills its budget exactly and forms a set of strictly disjoint intervals
— equivalently, sorted by endpoint, a valid gap sequence.  Disjointness rules
out crossing, shared endpoints and nesting alike; nesting matters, since two
nested same-color intervals never arise from a single gap sequence.

Summing coloring counts over all m-graphs reproduces the tuple count; the
equality is exercised exhaustively in the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import MultiIndex, MultiplicityVector


@dataclass(frozen=True)
class MCondGraph:
    """Directed multigraph as a sorted edge multiset; margins equal m."""

    edges: tuple[tuple[int, int], ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for e in self.edges for v in e}))

    def up_edges(self) -> tuple[tuple[int, int], ...]:
        """(lo, hi) intervals for edges oriented upward (source < target)."""
        return tuple(sorted((a, b) for a, b in self.edges if a < b))

    def down_edges(self) -> tuple[tuple[int, int], ...]:
        """(lo, hi) intervals for edges oriented downward (source > target)."""
        return tuple(sorted((b, a) for a, b in self.edges if a > b))

    def margins(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for a, _ in self.edges:
            out[a] = out.get(a, 0) + 1
        return out


def enumerate_m_graphs(m: MultiplicityVector) -> list[MCondGraph]:
    """All zero-diagonal multigraphs with in-degree = out-degree = m at each vertex.

    Enumerated as nonnegative integer matrices with equal row and column
    margins m and zero diagonal, one matrix per graph (the edge multiset
    determines and is determined by the matrix).  Guarded to |m| <= 12.
    """
    if m.size > 12:
        raise ValueError("m-graph enumeration guarded to |m| <= 12")
    verts = list(m.support())
    k = len(verts)
    margins = [m.get(v) for v in verts]
    if k == 0:
        return [MCondGraph(())]
    graphs: list[MCondGraph] = []
    col_left = list(margins)

    rows: list[list[int]] = []

    def fill_row(r: int, c: int, left: int, row: list[int]) -> None:
        if c == k:
            if left == 0:
                rows.append(row[:])
                for j in range(k):
                    col_left[j] -= row[j]
                next_row(r + 1)
                for j in range(k):
                    col_left[j] += row[j]
                rows.pop()
            return
        if c == r:
            row[c] = 0
            fill_row(r, c + 1, left, row)
            return
        hi = min(left, col_left[c])
        for take in range(hi, -1, -1):
            row[c] = take
            fill_row(r, c + 1, left - take, row)
        row[c] = 0

    def next_row(r: int) -> None:
        if r == k:
            if all(c == 0 for c in col_left):
                edges = []
                for i, row in enumerate(rows):
                    for j, cnt in enumerate(row):
                        edges.extend([(verts[i], verts[j])] * cnt)
                graphs.append(MCondGraph(tuple(sorted(edges))))
            return
        fill_row(r, 0, margins[r], [0] * k)

    next_row(0)
    return graphs


def _disjoint(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Strictly disjoint intervals: no overlap, no shared endpoint."""
    return a[1] < b[0] or b[1] < a[0]


@lru_cache(maxsize=None)
def _count_side(intervals: tuple[tuple[int, int], ...], budgets: tuple[int, ...]) -> int:
    """Assignments of weighted intervals to labeled budget colors.

    Each color must receive total weight equal to its budget, and its
    intervals must be pairwise strictly disjoint (a gap sequence).  A repeated
    interval (parallel edges) takes an unordered set of distinct colors: the
    tuple families it encodes do not order identical intervals, and a color
    repeated on coincident intervals would violate disjointness anyway.
    """
    from itertools import combinations

    if sum(hi - lo for lo, hi in intervals) != sum(budgets):
        return 0

    distinct: list[tuple[tuple[int, int], int]] = []
    for iv in intervals:
        if distinct and distinct[-1][0] == iv:
            distinct[-1] = (iv, distinct[-1][1] + 1)
        else:
            distinct.append((iv, 1))

    remaining = list(budgets)
    classes: list[list[tuple[int, int]]] = [[] for _ in budgets]

    def rec(idx: int) -> int:
        if idx == len(distinct):
            return 1
        iv, mult = distinct[idx]
        w = iv[1] - iv[0]
        eligible = [
            c
            for c in range(len(budgets))
            if remaining[c] >= w
            and all(_disjoint(iv, other) for other in classes[c])
        ]
        total = 0
        for combo in combinations(eligible, mult):
            for c in combo:
                remaining[c] -= w
                classes[c].append(iv)
            total += rec(idx + 1)
            for c in combo:
                remaining[c] += w
                classes[c].pop()
        return total

    return rec(0)


def _budget_list(p: MultiIndex) -> tuple[int, ...]:
    return tuple(n for n, c in p.items() for _ in range(c))


def count_colorings(G: MCondGraph, p: MultiIndex, q: MultiIndex) -> int:
    """Valid (p, q)-colorings of G; 0 when the total weights miss the degrees."""
    up = _count_side(G.up_edges(), _budget_list(p))
    if up == 0:
        return 0
    return up * _count_side(G.down_edges(), _budget_list(q))


def c_via_graphs(p: MultiIndex, q: MultiIndex, m: MultiplicityVector) -> int:
    """Sum of coloring counts over all m-graphs; equals the tuple count."""
    return sum(count_colorings(G, p, q) for G in _graphs_cached(m))


@lru_cache(maxsize=None)
def _graphs_cached(m: MultiplicityVector) -> tuple[MCondGraph, ...]:
    return tuple(enumerate_m_graphs(m))


@lru_cache(maxsize=None)
def _graphs_by_weight(m: MultiplicityVector) -> dict[tuple[int, int], tuple[MCondGraph, ...]]:
    """m-graphs bucketed by (total up-weight, total down-weight).

    The sweep over many (p, q) pairs only ever needs the bucket matching
    (deg p, deg q); everything else colors to zero.
    """
    buckets: dict[tuple[int, int], list[MCondGraph]] = {}
    for G in _graphs_cached(m):
        key = (
            sum(hi - lo for lo, hi in G.up_edges()),
            sum(hi - lo for lo, hi in G.down_edges()),
        )
        buckets.setdefault(key, []).append(G)
    return {k: tuple(v) for k, v in buckets.items()}


def c_via_graphs_fast(p: MultiIndex, q: MultiIndex, m: MultiplicityVector) -> int:
    """Bucket-pruned variant of :func:`c_via_graphs` for exhaustive sweeps."""
    bucket = _graphs_by_weight(m).get((p.deg, q.deg), ())
    return sum(count_colorings(G, p, q) for G in bucket)
