"""Literal balanced-tuple count: the reference for the tuple counter.

This is the product over both sides' gap sequences.  It builds every tuple
family and compares its two index vectors against m, without the transfer
table that ``alphamoments.count_tuples`` walks, so the tests compare the
counter against it.
"""

from __future__ import annotations

import itertools
from collections import Counter

from verblunsky.combinatorics import MultiIndex, MultiplicityVector, gap_sequences_over


def _slot_degrees(p: MultiIndex) -> list[int]:
    return [n for n, c in p.items() for _ in range(c)]


def _vector(tops_side, bottoms_side) -> MultiplicityVector:
    """Tops of one side's sequences plus bottoms of the other side's."""
    counts: Counter[int] = Counter()
    for seq in tops_side:
        for i, _ in seq:
            counts[i] += 1
    for seq in bottoms_side:
        for _, j in seq:
            counts[j] += 1
    return MultiplicityVector(counts)


def literal_count(p: MultiIndex, q: MultiIndex, m: MultiplicityVector) -> int:
    """Number of balanced tuple families with multiplicity vector m.

    Every index of such a family lies in the support of m (each side's index
    multiset equals m), so enumeration is restricted to supp(m).  A family
    counts when p-side tops + q-side bottoms and its mirror, p-side bottoms +
    q-side tops, both equal m.
    """
    allowed = m.support()
    degrees = {*_slot_degrees(p), *_slot_degrees(q)}
    candidates = {n: gap_sequences_over(allowed, n) for n in degrees}
    p_choices = [candidates[n] for n in _slot_degrees(p)]
    q_choices = [candidates[n] for n in _slot_degrees(q)]
    count = 0
    for ps in itertools.product(*p_choices):
        for qs in itertools.product(*q_choices):
            if _vector(ps, qs) == m and _vector(qs, ps) == m:
                count += 1
    return count
