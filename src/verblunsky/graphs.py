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
equality is exercised exhaustively in the acceptance suite.  Only graphs of
up-weight deg p can color to a nonzero count, so the enumeration takes that
weight d as a budget and prunes every branch that would exceed it.  Their
down-weight is d as well: a balanced graph splits into cycles, and each cycle
climbs as far as it falls.
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


def enumerate_m_graphs(m: MultiplicityVector, d: int) -> list[MCondGraph]:
    """The zero-diagonal m-graphs of up-weight d; their down-weight is d too.

    Enumerated as nonnegative integer matrices with equal row and column
    margins m and zero diagonal, one matrix per graph (the edge multiset
    determines and is determined by the matrix).  Cell (r, c) costs
    take * |v_c - v_r| of its side's budget d, which bounds take; a leaf is
    kept when the up side spent exactly d.  The down side needs no leaf check
    of its own: a balanced graph splits into cycles, and each cycle climbs as
    far as it falls.  Guarded to |m| <= 12.
    """
    if m.size > 12:
        raise ValueError("m-graph enumeration guarded to |m| <= 12")
    verts = list(m.support())
    k = len(verts)
    margins = [m.get(v) for v in verts]
    if k == 0:
        return [MCondGraph(())] if d == 0 else []
    graphs: list[MCondGraph] = []
    col_left = list(margins)

    rows: list[list[int]] = []

    def fill_row(r: int, c: int, left: int, row: list[int], up: int, down: int) -> None:
        if c == k:
            if left == 0:
                rows.append(row[:])
                for j in range(k):
                    col_left[j] -= row[j]
                next_row(r + 1, up, down)
                for j in range(k):
                    col_left[j] += row[j]
                rows.pop()
            return
        if c == r:
            row[c] = 0
            fill_row(r, c + 1, left, row, up, down)
            return
        w = abs(verts[c] - verts[r])
        is_up = c > r
        hi = min(left, col_left[c], (d - (up if is_up else down)) // w)
        for take in range(hi, -1, -1):
            row[c] = take
            if is_up:
                fill_row(r, c + 1, left - take, row, up + take * w, down)
            else:
                fill_row(r, c + 1, left - take, row, up, down + take * w)
        row[c] = 0

    def next_row(r: int, up: int, down: int) -> None:
        if r == k:
            if up == d and all(c == 0 for c in col_left):
                edges = []
                for i, row in enumerate(rows):
                    for j, cnt in enumerate(row):
                        edges.extend([(verts[i], verts[j])] * cnt)
                graphs.append(MCondGraph(tuple(sorted(edges))))
            return
        fill_row(r, 0, margins[r], [0] * k, up, down)

    next_row(0, 0, 0)
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


def count_colorings(G: MCondGraph, p: MultiIndex, q: MultiIndex) -> int:
    """Valid (p, q)-colorings of G; 0 when the total weights miss the degrees."""
    up = _count_side(G.up_edges(), p.slots())
    if up == 0:
        return 0
    return up * _count_side(G.down_edges(), q.slots())


def c_via_graphs(p: MultiIndex, q: MultiIndex, m: MultiplicityVector) -> int:
    """Coloring counts summed over the m-graphs of up-weight deg p; equals the tuple count."""
    return sum(count_colorings(G, p, q) for G in _graphs_cached(m, p.deg))


@lru_cache(maxsize=None)
def _graphs_cached(m: MultiplicityVector, d: int) -> tuple[MCondGraph, ...]:
    return tuple(enumerate_m_graphs(m, d))


# perfbench still binds this name; the next benchmark change (ROADMAP item 4) drops it.
c_via_graphs_fast = c_via_graphs
