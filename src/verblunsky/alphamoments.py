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

At small max_index the tuples can be counted outright, and
:func:`count_tuples` and :func:`tuple_counts_all_m` do it on the same
:func:`_transitions` table: integer amplitudes, keyed also by the
multiplicities read so far.  Those counts times :func:`term_value`
cross-check the sweep in tests.  The counts' independent references are the
literal product ``tests/tuple_oracle.literal_count`` and the graph-coloring
counts; neither reads the table.

The "nice" identity of :func:`nice_identity_check` is the CN identity at
p = q = delta_n, E|x_n|**2: its lhs is :func:`alpha_x_moment` and its rhs
the Bernoulli product :func:`~verblunsky.gaussian.variance_pmf`.  All
arithmetic is exact: inside the sweep, amplitudes are integer numerators over
one common denominator reduced once per level, and values cross the API as
``fractions.Fraction``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

from .combinatorics import MultiIndex, MultiplicityVector

# Unused here: perfbench's span bindings look these names up on this module.
from .combinatorics import gap_sequences, gap_sequences_over  # noqa: F401
from .gaussian import gaussian_x_moment, variance_pmf

#: The type of the exact values the sweep returns (``perfbench`` reports it).
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


def _initial_state(p: MultiIndex, q: MultiIndex) -> tuple[int, ...]:
    """Every slot closed with its whole degree as budget, p-side slots first."""
    return _canonical([2 * d for d in (*p.slots(), *q.slots())], p.size)


def _tuple_counts(
    p: MultiIndex, q: MultiIndex, max_index: int, m: MultiplicityVector | None = None
) -> dict[MultiplicityVector, int]:
    """Nonzero balanced-tuple counts with indices <= max_index, keyed by m.

    Walks the :func:`_transitions` table over levels 0..max_index with
    integer amplitudes keyed by (state, ((t, mt), ...) read so far): level t
    is index t, and a move's mt (p-side tops + q-side bottoms at t) is m(t).
    With ``m`` given, only the moves with mt = m(t) are kept.  The families
    are the walks that end all closed.
    """
    if p.deg != q.deg:
        return {}
    if p.deg == 0:
        return {MultiplicityVector(): 1}
    init, n_p = _initial_state(p, q), p.size
    amps = {(init, ()): 1}
    for t in range(max_index + 1):
        want = None if m is None else m[t]
        new_amps: dict[tuple, int] = {}
        for (state, read), amp in amps.items():
            for mt, targets in _transitions(state, n_p):
                if want is not None and mt != want:
                    continue
                now = read + ((t, mt),) if mt else read
                for nxt, mult in targets:
                    new_amps[nxt, now] = new_amps.get((nxt, now), 0) + amp * mult
        amps = new_amps
    done = (0,) * len(init)
    return {MultiplicityVector(dict(read)): c for (s, read), c in amps.items() if s == done}


def count_tuples(
    p: MultiIndex, q: MultiIndex, m: MultiplicityVector, max_index: int
) -> int:
    """Exact number of balanced tuple families with multiplicity vector m.

    Every index of such a family lies in the support of m, so the walk stops
    at its largest index whatever ``max_index`` is.
    """
    if max_index < m.max_support:
        raise ValueError("max_index must be >= max support of m")
    return _tuple_counts(p, q, m.max_support, m).get(m, 0)


def tuple_counts_all_m(
    p: MultiIndex, q: MultiIndex, max_index: int
) -> dict[MultiplicityVector, int]:
    """All nonzero balanced-tuple counts with indices <= max_index, keyed by m."""
    return _tuple_counts(p, q, max_index)


def _level_sweep(
    init: tuple[int, ...], n_p: int, beta: Fraction, max_index: int
) -> tuple[Fraction, Fraction]:
    """Exact transfer sweep over levels 0..max_index.

    A state is a tuple of slot codes, remaining budget * 2 + open flag, the
    first ``n_p`` on the p side.  One level's moves out of a state are
    :func:`_transitions`; they do not depend on the level, so they are
    tabulated once for the states reachable from ``init``: 3 to 40 for the
    x-moment pairs of degree <= 4, and 2n + 1 for (delta_n, delta_n), whose
    two slots open and close in lockstep.
    Amplitudes are integer numerators over one shared denominator D.  With
    beta = bu / bv, level t's factor for mt, mt! / ((t beta + 1)...(t beta + mt)),
    is w[mt] / P_t with integers P_t = prod_{s=1..top_mt} (t bu + s bv) and
    w[mt] = mt! bv**mt prod_{s>mt} (t bu + s bv).  Each level multiplies a
    state's numerator once per mt by w[mt] and adds it, times the
    multiplicity, to each next state; then D *= P_t, and D and every
    numerator are divided by their common gcd, which keeps them from growing
    by a factor P_t per level.  Returns (S(max_index), S(max_index - 1)), the
    all-closed amplitudes after the last two levels, as ``Fraction``s.
    """
    bu, bv = beta.numerator, beta.denominator
    done = (0,) * len(init)
    table = {}
    todo = [init]
    while todo:
        state = todo.pop()
        if state not in table:
            table[state] = row = _transitions(state, n_p)
            todo.extend(nxt for _, targets in row for nxt, _ in targets)
    top_mt = max(mt for row in table.values() for mt, _ in row)
    head = [factorial(mt) * bv**mt for mt in range(top_mt + 1)]
    amps = {init: 1}
    den = 1
    done_prev = done_now = (0, 1)
    for t in range(max_index + 1):
        suffix = [1] * (top_mt + 1)
        for s in range(top_mt, 0, -1):
            suffix[s - 1] = suffix[s] * (t * bu + s * bv)
        w = [h * x for h, x in zip(head, suffix)]
        new_amps: dict[tuple[int, ...], int] = {}
        get = new_amps.get
        for state, amp in amps.items():
            for mt, targets in table[state]:
                val = amp * w[mt]
                for nxt, mult in targets:
                    add = val * mult if mult > 1 else val
                    old = get(nxt)
                    new_amps[nxt] = add if old is None else old + add
        den *= suffix[0]
        g = gcd(den, *new_amps.values())
        if g > 1:
            den //= g
            new_amps = {state: amp // g for state, amp in new_amps.items()}
        amps = new_amps
        if t == max_index - 1:
            done_prev = (amps.get(done, 0), den)
        elif t == max_index:
            done_now = (amps.get(done, 0), den)
    return Fraction(*done_now), Fraction(*done_prev)


def _sweep_args(beta, max_index: int) -> Fraction:
    """beta as a Fraction, once the exact sweep's arguments are known valid."""
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError("beta must be a positive rational")
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    return beta


def alpha_x_moment(
    p: MultiIndex, q: MultiIndex, beta: Fraction, max_index: int
) -> TruncatedSumResult:
    """Exact partial sum of E(x**p (x**q)*) under the alpha law at rational beta.

    The series runs over balanced tuple families with indices <= max_index;
    partial sums are nondecreasing in max_index (all terms positive).  The
    moment vanishes exactly when deg(p) != deg(q).
    """
    beta = _sweep_args(beta, max_index)
    zero = Fraction(0)
    if p.deg != q.deg:
        return TruncatedSumResult(zero, max_index, zero, zero)
    if p.deg == 0:
        return TruncatedSumResult(Fraction(1), max_index, zero, zero)
    s_now, s_prev = _level_sweep(_initial_state(p, q), p.size, beta, max_index)
    shell = s_now - s_prev
    return TruncatedSumResult(s_now, max_index, shell, shell * max_index)


def nice_identity_check(
    n: int, beta: Fraction, max_index: int
) -> tuple[Fraction, Fraction, Fraction]:
    """The CN identity at p = q = delta_n: E|x_n|**2 against its closed form.

    lhs is :func:`alpha_x_moment` of (delta_n, delta_n), the sum of
    1 / ((i beta + 1)(j beta + 1)) over all gap sequences of degree n with
    top index <= max_index (the j = 0 factor is 1); tail is its last-shell
    tail estimate.  rhs is the Bernoulli product variance_pmf(n) at beta,
    which is gaussian_x_moment(delta_n, delta_n).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    delta = MultiIndex.delta(n)
    res = alpha_x_moment(delta, delta, beta, max_index)
    return res.value, variance_pmf(n).evaluate(beta), res.tail_estimate


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
    if not betas:
        raise ValueError("need at least one beta")
    betas = [_sweep_args(b, max_index) for b in betas]
    gpoly = gaussian_x_moment(p, q)
    checks = []
    for b in betas:
        gval = gpoly.evaluate(b)
        res = alpha_x_moment(p, q, b, max_index)
        diff = gval - res.value
        passed = tail_gate(diff, res.tail_estimate)
        checks.append(
            CnCheck(b, gval, res.value, diff, res.last_shell, res.tail_estimate, passed)
        )
    return CnIdentityReport(p, q, max_index, tuple(checks), all(c.passed for c in checks))
