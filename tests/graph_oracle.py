"""Unpruned m-graph enumeration: the reference for the weight-budgeted one.

This is the full zero-diagonal matrix fill that ``graphs.enumerate_m_graphs``
used before it took a weight budget.  It visits every m-graph whatever its
weights, so the tests compare the pruned sets and counts against it.  It
keeps the row-by-row fill, while the pruned enumerator fills one cell at a
time, so the two share no code structure.
"""

from __future__ import annotations

from functools import lru_cache

from verblunsky.combinatorics import MultiplicityVector
from verblunsky.graphs import MCondGraph, count_colorings


def enumerate_unpruned(m: MultiplicityVector) -> list[MCondGraph]:
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


@lru_cache(maxsize=None)
def unpruned_graphs(m):
    return tuple(enumerate_unpruned(m))


def weights(g):
    """(total up-weight, total down-weight) of an m-graph."""
    return (
        sum(hi - lo for lo, hi in g.up_edges()),
        sum(hi - lo for lo, hi in g.down_edges()),
    )


def unpruned_count(p, q, m):
    """Coloring counts summed over every m-graph, whatever its weights."""
    return sum(count_colorings(g, p, q) for g in unpruned_graphs(m))
