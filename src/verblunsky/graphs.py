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

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from .combinatorics import MultiIndex, MultiplicityVector


@dataclass(frozen=True)
class MCondGraph:
    """Directed multigraph as a sorted edge multiset; margins equal m."""

    edges: tuple[tuple[int, int], ...]

    def up_edges(self) -> tuple[tuple[int, int], ...]:
        """(lo, hi) intervals for edges oriented upward (source < target)."""
        return self._intervals[0]

    def down_edges(self) -> tuple[tuple[int, int], ...]:
        """(lo, hi) intervals for edges oriented downward (source > target)."""
        return self._intervals[1]

    @cached_property
    def _intervals(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Both sides' sorted intervals, computed once per graph."""
        up = sorted((a, b) for a, b in self.edges if a < b)
        return tuple(up), tuple(sorted((b, a) for a, b in self.edges if a > b))


def enumerate_m_graphs(m: MultiplicityVector, d: int) -> list[MCondGraph]:
    """The zero-diagonal m-graphs of up-weight d; their down-weight is d too.

    Enumerated as nonnegative integer matrices with equal row and column
    margins m and zero diagonal, one matrix per graph (the edge multiset
    determines and is determined by the matrix).  The off-diagonal cells are
    filled in row-major order, each from its largest feasible take down to 0,
    and the last cell of a row takes what that row has left.  Cell (r, c)
    costs take * |v_c - v_r| of its side's budget d, which bounds take; a leaf
    is kept when the up side spent exactly d and every column is full.  The
    down side needs no leaf check of its own: a balanced graph splits into
    cycles, and each cycle climbs as far as it falls.  Guarded to |m| <= 12.
    """
    if m.size > 12:
        raise ValueError("m-graph enumeration guarded to |m| <= 12")
    verts = m.support()
    k = len(verts)
    row_left = [m[v] for v in verts]
    col_left = row_left[:]
    cells = [(r, c) for r in range(k) for c in range(k) if c != r]
    takes = [0] * len(cells)
    graphs: list[MCondGraph] = []

    def fill(i: int, up: int, down: int) -> None:
        if i == len(cells):
            if up == d and not any(col_left):
                edges = ((verts[r], verts[c]) for (r, c), t in zip(cells, takes) for _ in range(t))
                graphs.append(MCondGraph(tuple(edges)))
            return
        r, c = cells[i]
        w = abs(verts[c] - verts[r])
        left = row_left[r]
        hi = min(left, col_left[c], (d - (up if c > r else down)) // w)
        row_ends = i + 1 == len(cells) or cells[i + 1][0] != r
        for take in range(hi, left - 1 if row_ends else -1, -1):
            takes[i] = take
            row_left[r] = left - take
            col_left[c] -= take
            if c > r:
                fill(i + 1, up + take * w, down)
            else:
                fill(i + 1, up, down + take * w)
            col_left[c] += take
        row_left[r] = left

    fill(0, 0, 0)
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
    if sum(hi - lo for lo, hi in intervals) != sum(budgets):
        return 0

    distinct = list(Counter(intervals).items())  # in sorted order, as intervals are
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
