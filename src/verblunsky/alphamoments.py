"""Exact moments under the alpha law and the truncated series for x-moments.

The x-coefficient of degree n expands as a series over gap sequences in the
alpha variables; mixed monomial moments therefore reduce to a sum over tuples
of gap sequences (one per labeled monomial slot) subject to a multiset balance
condition, each tuple contributing a product of rational level factors.

Materializing those tuples is hopeless at the max_index scales the identity
checks need (~1e14 tuples at degree 4, max_index 1e4), so
:func:`alpha_x_moment` runs an exact level-by-level transfer sweep instead:
one state per assignment of (open/closed, remaining gap budget) to the slots,
up to permuting one side's slots, amplitudes carrying the exact rational
weights.  The moves out of a state do not depend on the level t, so they are
tabulated once and shared by all levels, betas and calls.  Reading the
all-closed amplitude after level t yields every partial sum S(t) along the
way, which gives the last-shell truncation diagnostics for free.
Small-max_index brute enumeration of the same sum (:func:`count_tuples` +
term values) cross-checks the sweep in tests.

The diagonal "nice" identity of :func:`nice_identity_check` is the same kind
of sum over gap sequences, with one slot and the level factor 1/(t beta + 1)
at every top and bottom index, so it runs on the same sweep.  All arithmetic
is exact in ``fractions.Fraction``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .combinatorics import (
    GapSequence,
    MultiIndex,
    MultiplicityVector,
    gap_sequences,
    gap_sequences_over,
)
from .gaussian import gaussian_x_moment, variance_pmf

#: The rational type of the exact sums (``perfbench`` reports it).
_mpq = Fraction


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


@dataclass(frozen=True)
class TupleFamily:
    """One gap sequence per labeled monomial slot, both sides."""

    p_seqs: tuple[GapSequence, ...]
    q_seqs: tuple[GapSequence, ...]

    def multiplicity_vector(self) -> MultiplicityVector:
        """Tops of the p-side plus bottoms of the q-side."""
        counts: Counter[int] = Counter()
        for seq in self.p_seqs:
            for i, _ in seq:
                counts[i] += 1
        for seq in self.q_seqs:
            for _, j in seq:
                counts[j] += 1
        return MultiplicityVector(counts)

    def mirror_vector(self) -> MultiplicityVector:
        """Bottoms of the p-side plus tops of the q-side."""
        counts: Counter[int] = Counter()
        for seq in self.p_seqs:
            for _, j in seq:
                counts[j] += 1
        for seq in self.q_seqs:
            for i, _ in seq:
                counts[i] += 1
        return MultiplicityVector(counts)


def _slot_degrees(p: MultiIndex) -> list[int]:
    return [n for n, c in p.items() for _ in range(c)]


def count_tuples(
    p: MultiIndex, q: MultiIndex, m: MultiplicityVector, max_index: int
) -> int:
    """Exact number of balanced tuple families with multiplicity vector m.

    Every index of such a family lies in the support of m (each side's index
    multiset equals m), so enumeration is restricted to supp(m).
    """
    if max_index < m.max_support:
        raise ValueError("max_index must be >= max support of m")
    allowed = m.support()
    candidates: dict[int, list[GapSequence]] = {}
    for n in set(_slot_degrees(p) + _slot_degrees(q)):
        candidates[n] = gap_sequences_over(allowed, n)
    p_choices = [candidates[n] for n in _slot_degrees(p)]
    q_choices = [candidates[n] for n in _slot_degrees(q)]
    count = 0
    for ps in itertools.product(*p_choices):
        for qs in itertools.product(*q_choices):
            fam = TupleFamily(ps, qs)
            if fam.multiplicity_vector() == m and fam.mirror_vector() == m:
                count += 1
    return count


def _side_groups(degrees: list[int], max_index: int):
    """Group one side's slot assignments by the signed top-minus-bottom counter.

    Returns {difference signature: {tops signature: multiplicity}} together
    with a parallel map keyed on bottoms, so both join orientations are cheap.
    """
    choices = [gap_sequences(n, max_index) for n in degrees]
    by_diff_tops: dict[tuple, Counter] = {}
    by_diff_bots: dict[tuple, Counter] = {}
    for family in itertools.product(*choices):
        tops: Counter[int] = Counter()
        bots: Counter[int] = Counter()
        for seq in family:
            for i, j in seq:
                tops[i] += 1
                bots[j] += 1
        signed = {}
        for idx in set(tops) | set(bots):
            d = tops[idx] - bots[idx]
            if d:
                signed[idx] = d
        key = tuple(sorted(signed.items()))
        tkey = tuple(sorted(tops.items()))
        bkey = tuple(sorted(bots.items()))
        by_diff_tops.setdefault(key, Counter())[tkey] += 1
        by_diff_bots.setdefault(key, Counter())[bkey] += 1
    return by_diff_tops, by_diff_bots


def tuple_counts_all_m(
    p: MultiIndex, q: MultiIndex, max_index: int
) -> dict[MultiplicityVector, int]:
    """All nonzero balanced-tuple counts with indices <= max_index, keyed by m.

    Joins the two sides on the signed difference of their top/bottom index
    counters: balance holds iff the differences match, and then
    m = (p-side tops) + (q-side bottoms).
    """
    if p.deg != q.deg:
        return {}
    p_tops, _ = _side_groups(_slot_degrees(p), max_index)
    _, q_bots = _side_groups(_slot_degrees(q), max_index)
    out: dict[MultiplicityVector, int] = {}
    for diff, tops_counter in p_tops.items():
        bots_counter = q_bots.get(diff)
        if not bots_counter:
            continue
        for tkey, cp in tops_counter.items():
            for bkey, cq in bots_counter.items():
                merged: Counter[int] = Counter(dict(tkey))
                for idx, c in bkey:
                    merged[idx] += c
                mv = MultiplicityVector(merged)
                out[mv] = out.get(mv, 0) + cp * cq
    return out


@dataclass(frozen=True)
class TruncatedSumResult:
    """Exact partial sum of the alpha-side series with truncation diagnostics."""

    value: Fraction
    max_index: int
    last_shell: Fraction
    tail_estimate: Fraction


def _canonical(slots, n_p: int) -> tuple[int, ...]:
    """Sort each side's slot codes: slots on one side are interchangeable."""
    return (*sorted(slots[:n_p]), *sorted(slots[n_p:]))


@lru_cache(maxsize=None)
def _transitions(state: tuple[int, ...], n_p: int) -> tuple:
    """One level's moves out of a state: ((mt, ((next, multiplicity), ...)), ...).

    Each slot opens (if closed with budget left), closes (if open) or idles;
    the balance  #(p-closes) + #(q-opens) = #(p-opens) + #(q-closes)  gates
    each combination, and mt is that common count.  Every slot open after the
    level burns one unit of budget.  multiplicity counts the combinations
    that reach the same canonical next state.
    """
    m_side = [(idx < n_p) == bool(enc & 1) for idx, enc in enumerate(state)]
    groups: dict[int, Counter] = {}
    for flips in itertools.product(*[(0, 1) if enc else (0,) for enc in state]):
        mt = sum(f for f, m in zip(flips, m_side) if m)
        if 2 * mt != sum(flips):
            continue
        ns = [e - 2 if e & 1 else e for e in (enc ^ f for enc, f in zip(state, flips))]
        if min(ns) >= 0:
            groups.setdefault(mt, Counter())[_canonical(ns, n_p)] += 1
    return tuple((mt, tuple(g.items())) for mt, g in sorted(groups.items()))


def _level_sweep(
    init: tuple[int, ...], moves, beta: Fraction, max_index: int
) -> tuple[Fraction, Fraction]:
    """Exact transfer sweep over levels 0..max_index.

    A state is a tuple of slot codes, remaining budget * 2 + open flag, and
    ``moves(state)`` is one level's moves out of it in the form
    ((mt, ((next, multiplicity), ...)), ...).  Moves do not depend on the
    level, so they are tabulated once for the states reachable from ``init``:
    3 to 40 for the x-moment pairs of degree <= 4, 2n + 1 for the nice
    identity of degree n.
    Each level multiplies a state's amplitude once per mt by the level factor
    mt! / ((t beta + 1)...(t beta + mt)) and adds it, times the multiplicity,
    to each next state.  Returns (S(max_index), S(max_index - 1)), the
    all-closed amplitudes after the last two levels.
    """
    bu, bv = beta.numerator, beta.denominator
    done = (0,) * len(init)
    table = {}
    todo = [init]
    while todo:
        state = todo.pop()
        if state not in table:
            table[state] = row = moves(state)
            todo.extend(nxt for _, targets in row for nxt, _ in targets)
    top_mt = max(mt for row in table.values() for mt, _ in row)
    amps = {init: Fraction(1)}
    done_prev = done_now = Fraction(0)
    for t in range(max_index + 1):
        fac = [1]
        num = den = 1
        for s in range(1, top_mt + 1):
            num *= s * bv
            den *= t * bu + s * bv
            fac.append(Fraction(num, den))
        new_amps: dict[tuple[int, ...], Fraction] = {}
        get = new_amps.get
        for state, amp in amps.items():
            for mt, targets in table[state]:
                val = amp * fac[mt] if mt else amp
                for nxt, mult in targets:
                    add = val * mult if mult > 1 else val
                    old = get(nxt)
                    new_amps[nxt] = add if old is None else old + add
        amps = new_amps
        if t == max_index - 1:
            done_prev = amps.get(done, done_prev)
        elif t == max_index:
            done_now = amps.get(done, done_now)
    return done_now, done_prev


def alpha_x_moment(
    p: MultiIndex, q: MultiIndex, beta: Fraction, max_index: int
) -> TruncatedSumResult:
    """Exact partial sum of E(x**p (x**q)*) under the alpha law at rational beta.

    The series runs over balanced tuple families with indices <= max_index;
    partial sums are nondecreasing in max_index (all terms positive).  The
    moment vanishes exactly when deg(p) != deg(q).
    """
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError("beta must be a positive rational")
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    zero = Fraction(0)
    if p.deg != q.deg:
        return TruncatedSumResult(zero, max_index, zero, zero)
    if p.deg == 0:
        return TruncatedSumResult(Fraction(1), max_index, zero, zero)
    n_p = p.size
    init = _canonical([2 * d for d in (*_slot_degrees(p), *_slot_degrees(q))], n_p)
    s_now, s_prev = _level_sweep(init, lambda s: _transitions(s, n_p), beta, max_index)
    shell = s_now - s_prev
    return TruncatedSumResult(s_now, max_index, shell, shell * max_index)


def _nice_moves(state: tuple[int]) -> tuple:
    """The nice identity's one slot: idle (mt = 0), or open or close (mt = 1).

    As in :func:`_transitions`, a slot open after the level burns one unit of
    budget; mt = 1 puts the factor 1/(t beta + 1) on each top and bottom index.
    """
    (enc,) = state
    idle = enc - 2 if enc & 1 else enc
    row = [(0, (((idle,), 1),))] if idle >= 0 else []
    if enc:
        row.append((1, (((enc - 1,), 1),)))
    return tuple(row)


def nice_identity_check(
    n: int, beta: Fraction, max_index: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Partial sum of the diagonal gap-sequence series against its closed form.

    lhs sums 1 / ((i beta + 1)(j beta + 1)) over all gap sequences of degree n
    with top index <= max_index (the j = 0 factor is 1); rhs is the Bernoulli
    product variance_pmf(n) at beta; tail is last_shell * max_index.

    lhs is the transfer sweep of one slot with budget n under
    :func:`_nice_moves`, cross-checked against literal enumeration in tests.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    beta = Fraction(beta)
    lhs, prev = _level_sweep((2 * n,), _nice_moves, beta, max_index)
    rhs = variance_pmf(n).evaluate(beta)
    return lhs, rhs, (lhs - prev) * max_index


def tail_gate(shortfall: Fraction, tail: Fraction) -> bool:
    """Verdict of an identity check on shortfall = limit - partial sum.

    The shortfall must be nonnegative (a partial sum of positive terms cannot
    exceed its limit) and at most 10x the last-shell tail estimate (a safety
    factor over the empirical shell decay; no proved remainder bound is
    available).
    """
    return 0 <= shortfall <= 10 * tail


@dataclass(frozen=True)
class CnCheck:
    """One beta's worth of identity comparison, all values exact."""

    beta: Fraction
    gaussian_value: Fraction
    alpha_value: Fraction
    difference: Fraction
    last_shell: Fraction
    tail_estimate: Fraction
    passed: bool


@dataclass(frozen=True)
class CnIdentityReport:
    p: MultiIndex
    q: MultiIndex
    max_index: int
    checks: tuple[CnCheck, ...]
    passed: bool


def verify_cn_identity(
    p: MultiIndex, q: MultiIndex, betas: list[Fraction], max_index: int
) -> CnIdentityReport:
    """Compare the Gaussian-side polynomial against truncated alpha-side sums.

    For each beta the check passes when gaussian - alpha partial sum passes
    :func:`tail_gate`.
    """
    if p.deg != q.deg:
        raise ValueError("verify_cn_identity needs deg(p) = deg(q)")
    gpoly = gaussian_x_moment(p, q)
    checks = []
    for b in betas:
        b = Fraction(b)
        gval = gpoly.evaluate(b)
        res = alpha_x_moment(p, q, b, max_index)
        diff = gval - res.value
        passed = tail_gate(diff, res.tail_estimate)
        checks.append(
            CnCheck(b, gval, res.value, diff, res.last_shell, res.tail_estimate, passed)
        )
    return CnIdentityReport(p, q, max_index, tuple(checks), all(c.passed for c in checks))
