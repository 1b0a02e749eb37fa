"""Literal balanced-tuple count and level-factor product: references for the sweep.

:func:`literal_count` is the product over both sides' gap sequences.  It
builds every tuple family and compares its two index vectors against m,
without the transfer table that ``alphamoments.count_tuples`` walks, so the
tests compare the counter against it.  :func:`term_value` is the closed-form
weight of one multiplicity vector; counts times it must reproduce the exact
sweep's partial sums.  :func:`alpha_joint_moment` is the same product read as
a moment of the alpha law.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial

from verblunsky.combinatorics import MultiIndex, MultiplicityVector, gap_sequences_over


def term_value(m: MultiplicityVector, beta: Fraction) -> Fraction:
    """The level-factor product prod_{N>=1} m(N)! / ((N beta+1)...(N beta+m(N))).

    The N = 0 factor is 1: read literally it would be m(0)! / (1 * 2 * ... *
    m(0)), which already cancels.
    """
    beta = Fraction(beta)
    val = Fraction(1)
    for N, c in m.items():
        if N == 0:
            continue
        val *= factorial(c)
        for s in range(1, c + 1):
            val /= N * beta + s
    return val


def alpha_joint_moment(p: MultiIndex, q: MultiIndex, beta: Fraction) -> Fraction:
    """E of alpha**p (alpha**q)* under the rotation-invariant alpha law.

    Zero off the diagonal; for p = q it is
    prod_n p(n)! / ((n beta + 1) ... (n beta + p(n))), the level factor
    :func:`term_value` of p.
    """
    return term_value(p, beta) if p == q else Fraction(0)


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
