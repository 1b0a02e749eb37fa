"""Exact moments under the alpha law and the truncated series for x-moments.

The x-coefficient of degree n expands as a series over gap sequences in the
alpha variables; mixed monomial moments therefore reduce to a sum over tuples
of gap sequences (one per labeled monomial slot) subject to a multiset balance
condition, each tuple contributing a product of rational level factors.

Materializing those tuples is hopeless at the max_index scales the identity
checks need (~1e14 tuples at degree 4, max_index 1e4), so
:func:`alpha_x_moment` runs an exact level-by-level transfer sweep instead:
one state per assignment of (open/closed, remaining gap budget) to each slot,
events at level t constrained by the balance condition, amplitudes carrying
the exact rational weights.  Reading the all-closed amplitude after level t
yields every partial sum S(t) along the way, which gives the last-shell
truncation diagnostics for free.  Small-max_index brute enumeration of the
same sum (:func:`count_tuples` + term values) cross-checks the sweep in tests.

Arithmetic uses gmpy2 rationals when available (the sweep is exact-rational
bound); the public API speaks ``fractions.Fraction``.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .combinatorics import (
    GapSequence,
    MultiIndex,
    MultiplicityVector,
    gap_sequences,
    gap_sequences_over,
)
from .gaussian import gaussian_x_moment, variance_pmf

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover - gmpy2 is optional
    _mpq = Fraction


def _to_fraction(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


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

    def is_balanced(self) -> bool:
        return self.multiplicity_vector() == self.mirror_vector()


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


def _level_sweep(
    p_deg: list[int], q_deg: list[int], beta: Fraction, max_index: int
) -> tuple[Fraction, Fraction]:
    """Exact transfer sweep over levels 0..max_index.

    Slot state = remaining budget * 2 + open flag.  At each level a slot may
    open (if closed with budget left), close (if open), or idle; the balance
    condition  #(p-closes) + #(q-opens) = #(p-opens) + #(q-closes)  gates each
    event combination, and that common count mt picks up the level factor
    mt! / ((t beta + 1)...(t beta + mt)).  Every open slot burns one unit of
    budget on the ascent to the next level.  Returns (S(max_index),
    S(max_index - 1)), the all-closed amplitudes after the last two levels.
    """
    zero = _mpq(0)
    one = _mpq(1)
    bu, bv = beta.numerator, beta.denominator
    n_p = len(p_deg)
    n_slots = n_p + len(q_deg)
    init = tuple(2 * d for d in (*p_deg, *q_deg))
    done = (0,) * n_slots
    amps = {init: one}
    done_prev = zero
    done_now = zero
    for t in range(max_index + 1):
        fac = [one]
        for s in range(1, n_slots + 1):
            fac.append(fac[-1] * _mpq(s * bv, t * bu + s * bv))
        new_amps: dict[tuple[int, ...], object] = {}
        for state, amp in amps.items():
            choices = []
            for enc in state:
                if enc & 1:
                    choices.append((0, 2))
                elif enc >> 1:
                    choices.append((0, 1))
                else:
                    choices.append((0,))
            for combo in itertools.product(*choices):
                balance = 0
                mt = 0
                for idx, act in enumerate(combo):
                    if not act:
                        continue
                    if (idx < n_p) == (act == 2):
                        # p-close or q-open: the m-side of the balance sheet
                        balance += 1
                        mt += 1
                    else:
                        balance -= 1
                if balance:
                    continue
                ns = list(state)
                ok = True
                for idx, act in enumerate(combo):
                    enc = ns[idx]
                    openf = enc & 1
                    rem = enc >> 1
                    if act == 1:
                        openf = 1
                    elif act == 2:
                        openf = 0
                    if openf:
                        rem -= 1
                        if rem < 0:
                            ok = False
                            break
                    ns[idx] = rem * 2 + openf
                if not ok:
                    continue
                key = tuple(ns)
                val = amp * fac[mt] if mt else amp
                if key in new_amps:
                    new_amps[key] = new_amps[key] + val
                else:
                    new_amps[key] = val
        amps = new_amps
        if t == max_index - 1:
            done_prev = amps.get(done, zero)
        elif t == max_index:
            done_now = amps.get(done, zero)
    return _to_fraction(done_now), _to_fraction(done_prev)


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
    s_now, s_prev = _level_sweep(_slot_degrees(p), _slot_degrees(q), beta, max_index)
    shell = s_now - s_prev
    return TruncatedSumResult(s_now, max_index, shell, shell * max_index)


def nice_identity_check(
    n: int, beta: Fraction, max_index: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Partial sum of the diagonal gap-sequence series against its closed form.

    lhs sums 1 / ((i beta + 1)(j beta + 1)) over all gap sequences of degree n
    with top index <= max_index (the j = 0 factor is 1); rhs is the Bernoulli
    product variance_pmf(n) at beta; tail is last_shell * max_index.

    Runs in O(n^2 max_index) via the top-index recursion
    R(d, M) = R(d, M-1) + sum_g W(M, M-g) R(d-g, M-g-1), cross-checked against
    literal enumeration in tests.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    beta = Fraction(beta)
    bu, bv = beta.numerator, beta.denominator
    zero = _mpq(0)
    one = _mpq(1)
    # hist[k] = column for top bound M-1-k; column[d] = R(d, that bound)
    hist: deque[list] = deque([[one] + [zero] * n])
    r_now = zero
    r_prev = zero
    for M in range(1, max_index + 1):
        col = [one]
        for d in range(1, n + 1):
            val = hist[0][d]
            for g in range(1, min(d, M) + 1):
                w = _mpq(bv * bv, (M * bu + bv) * ((M - g) * bu + bv))
                if g < len(hist):
                    prev = hist[g][d - g]
                elif d == g:
                    prev = one
                else:
                    prev = zero
                if prev:
                    val = val + w * prev
            col.append(val)
        hist.appendleft(col)
        if len(hist) > n + 2:
            hist.pop()
        if M == max_index - 1:
            r_prev = col[n]
        elif M == max_index:
            r_now = col[n]
    lhs = _to_fraction(r_now)
    shell = lhs - _to_fraction(r_prev)
    rhs = variance_pmf(n).evaluate(beta)
    return lhs, rhs, shell * max_index


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

    For each beta the check passes when |gaussian - alpha partial sum| is at
    most 10x the last-shell tail estimate (safety factor over the empirical
    shell decay; no proved remainder bound is available).
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
        passed = abs(diff) <= 10 * res.tail_estimate
        checks.append(
            CnCheck(b, gval, res.value, diff, res.last_shell, res.tail_estimate, passed)
        )
    return CnIdentityReport(p, q, max_index, tuple(checks), all(c.passed for c in checks))
