"""Exact moments under the alpha law and the truncated series for x-moments.

The x-coefficient of degree n expands as a series over gap sequences in the
alpha variables; mixed monomial moments therefore reduce to a sum over tuples
of gap sequences (one per labeled monomial slot) subject to a multiset balance
condition, each tuple contributing a product of rational level factors.

Materializing those tuples is hopeless at the max_index scales the identity
checks need (~1e14 tuples at degree 4, max_index 1e4).  An exact level-by-level
transfer sweep sums them instead: one state per assignment of (open/closed,
remaining gap budget) to the slots, up to permuting one side's slots.  The
moves out of a state do not depend on the level t, so :func:`_rows` numbers
the states and tabulates their moves once for all levels, betas and calls.
A state's moves, from :func:`_transitions`, are its two sides' moves joined on
the balance of opening and closing moves; :func:`_side_moves` enumerates one
side's by groups of equal slot codes and is cached, shared by every table (the
transfer-matrix method with states up to symmetry, Stanley, EC1 section 4.7).
Each level of :func:`_level_sweep` is one sparse matrix-vector product on
integer numerators, and the all-closed entry after level t is the partial sum S(t).
:func:`_certificate` sweeps only the first levels and proves from them, by
finite differences in :func:`_prove`, a closed form S(N) = num(N) / den(N) for
all later N: two integer polynomials, whose top differences' ratio is the
limit (``tests/certificate_oracle.py`` proves it by the recurrence identity
instead).  The certificate is numbers only, the two polynomials'
forward differences and the swept partial sums, and :func:`alpha_x_moment`
reads S(N) and the exact tail S(infinity) - S(N) from it.

At small max_index the tuples can be counted outright, and
:func:`count_tuples` and :func:`tuple_counts_all_m` do it on the same
:func:`_transitions`: integer amplitudes, keyed by state and the
multiplicities read so far.  ``literal_count`` in ``tests/tuple_oracle.py``
and the graph-coloring counts are the counts' independent references; neither
reads the moves.

Each comparison of the CN identity's two sides is one :class:`CnCheck` from
:func:`_cn_check`, and ``CnCheck.passed`` is the one place its PASS/FAIL rule
is written: the proved limit is the Gaussian value.  :func:`verify_cn_identity`
makes one check per beta; :func:`nice_identity_check` makes the one at
p = q = delta_n, E|x_n|**2, whose Gaussian value is
:func:`~verblunsky.gaussian.variance_pmf`.  All arithmetic is exact, and
values cross the API as ``fractions.Fraction``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, prod
from operator import mul
from typing import NamedTuple

from .combinatorics import MultiIndex, MultiplicityVector

# Unused here: perfbench's span bindings look these names up on this module.
from .combinatorics import gap_sequences, gap_sequences_over  # noqa: F401
from .gaussian import gaussian_x_moment, variance_pmf

#: The type of the exact values the sweep returns (``perfbench`` reports it).
_mpq = Fraction
_DONE = 1  # the all-closed state's number in every table from _rows


@dataclass(frozen=True)
class TruncatedSumResult:
    """Exact partial sum of the alpha-side series and its exact tail (None if unproved)."""

    value: Fraction
    tail: Fraction | None


def _canonical(slots, n_p: int) -> tuple[int, ...]:
    """Sort each side's slot codes: slots on one side are interchangeable."""
    return (*sorted(slots[:n_p]), *sorted(slots[n_p:]))


@lru_cache(maxsize=None)
def _side_moves(codes: tuple[int, ...], p_side: bool) -> dict[int, tuple]:
    """One side's moves for one level, by balance: {balance: ((mt, next, multiplicity), ...)}.

    ``codes`` is one side's sorted slot codes, and equal codes are interchangeable: of a group of
    n slots with code c, j flip, in C(n, j) ways.  A flipped slot goes to c - 1 (a closed one
    opens and burns one unit of budget, an open one closes); an idle open slot burns one unit,
    c - 2, and an idle closed one stays.  Choices that go negative are dropped.  An mt-flip
    closes a p-side slot or opens a q-side one; mt counts them, and balance is #mt-flips minus
    the other flips.  ``next`` is sorted.  Cached: every table reaches the same few sides.
    """
    moves = {(0, 0, ()): 1}  # (balance, mt, next codes unsorted) -> multiplicity
    for c, group in itertools.groupby(codes):
        n, is_mt, idle = len(list(group)), (c & 1) == p_side, c - 2 if c & 1 else c
        grown = {}
        for (bal, mt, nxt), mult in moves.items():
            for j in range(n + 1 if c else 1):
                if idle >= 0 or j == n:
                    key = (bal + j if is_mt else bal - j, mt + j if is_mt else mt,
                           nxt + (c - 1,) * j + (idle,) * (n - j))
                    grown[key] = grown.get(key, 0) + mult * comb(n, j)
        moves = grown
    table: dict[int, dict] = {}
    for (bal, mt, nxt), mult in moves.items():
        row, key = table.setdefault(bal, {}), (mt, tuple(sorted(nxt)))
        row[key] = row.get(key, 0) + mult
    return {bal: tuple((mt, nxt, mult) for (mt, nxt), mult in row.items())
            for bal, row in table.items()}


def _transitions(state: tuple[int, ...], n_p: int) -> tuple:
    """One level's moves out of a state: ((mt, ((next, multiplicity), ...)), ...).

    The :func:`_side_moves` of the p side and the q side joined on opposite balances, that is
    #(p-closes) + #(q-opens) = #(p-opens) + #(q-closes), with mt that common count.
    multiplicity counts the flip combinations that reach the same canonical next state
    (``tests/transfer_oracle.py`` counts them one flip vector at a time).
    """
    q_moves = _side_moves(state[n_p:], False)
    groups: dict[int, dict] = {}
    for bal, p_row in _side_moves(state[:n_p], True).items():
        for mt_q, nq, mult_q in q_moves.get(-bal, ()):
            for mt_p, np_, mult_p in p_row:
                group = groups.setdefault(mt_p + mt_q, {})
                group[np_ + nq] = group.get(np_ + nq, 0) + mult_p * mult_q
    return tuple((mt, tuple(g.items())) for mt, g in sorted(groups.items()))


def _initial_state(p: MultiIndex, q: MultiIndex) -> tuple[int, ...]:
    """Every slot closed with its whole degree as budget, p-side slots first."""
    return _canonical([2 * d for d in (*p.slots(), *q.slots())], p.size)


def _tuple_counts(
    p: MultiIndex, q: MultiIndex, max_index: int, m: MultiplicityVector | None = None
) -> dict[MultiplicityVector, int]:
    """Nonzero balanced-tuple counts with indices <= max_index, keyed by m.

    Walks :func:`_transitions` over levels 0..max_index with integer amplitudes
    keyed by (state, ((t, mt), ...) read so far): level t is index t, and a
    move's mt (p-side tops + q-side bottoms at t) is m(t).  Only the states
    the walk reaches are tabulated.  With ``m`` given, only the moves with
    mt = m(t) are kept, and while no state has an open slot the walk jumps to
    m's next index: m(t) = 0 forbids opening, so each state stays put.  The
    families are the walks that end all closed.
    """
    if p.deg != q.deg:
        return {}
    if p.deg == 0:
        return {MultiplicityVector(): 1}
    moves: dict[tuple, tuple] = {}
    amps, t = {(_initial_state(p, q), ()): 1}, 0
    while t <= max_index:
        if m is not None and not any(c & 1 for state, _ in amps for c in state):
            t = next((i for i in m.support() if i >= t), max_index)
        want = None if m is None else m[t]
        new_amps: dict[tuple, int] = {}
        for (state, read), amp in amps.items():
            if state not in moves:
                moves[state] = _transitions(state, p.size)
            for mt, targets in moves[state]:
                if want is not None and mt != want:
                    continue
                now = read + ((t, mt),) if mt else read
                for nxt, mult in targets:
                    new_amps[nxt, now] = new_amps.get((nxt, now), 0) + amp * mult
        amps, t = new_amps, t + 1
    return {MultiplicityVector(dict(read)): c for (state, read), c in amps.items()
            if not any(state)}


def count_tuples(p: MultiIndex, q: MultiIndex, m: MultiplicityVector) -> int:
    """Exact number of balanced tuple families with multiplicity vector m.

    Every index of such a family lies in the support of m, so the walk stops
    at its largest index.  Each slot's gap sequence has a pair, and each pair
    puts one index into m, so |m| < p.size + q.size counts 0 without a walk.
    """
    if p.size + q.size > m.size:
        return 0
    return _tuple_counts(p, q, m.max_support, m).get(m, 0)


def tuple_counts_all_m(
    p: MultiIndex, q: MultiIndex, max_index: int
) -> dict[MultiplicityVector, int]:
    """All nonzero balanced-tuple counts with indices <= max_index, keyed by m."""
    return _tuple_counts(p, q, max_index)


@lru_cache(maxsize=None)
def _rows(init: tuple[int, ...], n_p: int) -> tuple[tuple, int]:
    """The level transfer matrix on the slot states reachable from ``init``, and the top mt.

    A state is a tuple of slot codes, remaining budget * 2 + open flag, the first ``n_p`` on
    the p side; there are 3 to 40 for the x-moment pairs of degree <= 4, and up to 889 at
    degree 8.  States are numbered as first reached, breadth first: ``init`` is 0, and the
    all-closed state, which deg p = deg q >= 1 reaches, is :data:`_DONE`.  Row s is state s's
    moves ``(mt, dst, mult)`` from :func:`_transitions`.  Cached: one table per start, shared
    by all levels, betas and calls.
    """
    states = [init, (0,) * len(init)]
    number = {state: s for s, state in enumerate(states)}
    rows = []
    for state in states:  # states grows meanwhile
        row = []
        for mt, targets in _transitions(state, n_p):
            for nxt, mult in targets:
                if nxt not in number:
                    number[nxt] = len(states)
                    states.append(nxt)
                row.append((mt, number[nxt], mult))
        rows.append(tuple(row))
    return tuple(rows), max(mt for row in rows for mt, _, _ in row)


def _level_factors(t: int, beta: Fraction, top_mt: int) -> tuple[int, list[int]]:
    """Level t's (P_t, w): mt! / ((t beta + 1)...(t beta + mt)) = w[mt] / P_t, with beta = bu / bv,
    P_t = prod_{s=1..top_mt} (t bu + s bv) and w[mt] = mt! bv**mt prod_{s>mt} (t bu + s bv)."""
    bu, bv = beta.numerator, beta.denominator
    suffix = [1] * (top_mt + 1)
    for s in range(top_mt, 0, -1):
        suffix[s - 1] = suffix[s] * (t * bu + s * bv)
    return suffix[0], [factorial(mt) * bv**mt * x for mt, x in enumerate(suffix)]


def _step(rows, amps: list[int], w: list[int]) -> list[int]:
    """One level: new[dst] += amps[src] * w[mt] * mult over the nonzero sources' rows."""
    new = [0] * len(rows)
    for src, amp in enumerate(amps):
        if amp:
            for mt, dst, mult in rows[src]:
                new[dst] += amp * (w[mt] * mult)
    return new


def _level_sweep(rows: tuple, factors):
    """Exact transfer sweep on :func:`_rows`: for each level's (P_t, w) in ``factors``, t = 0,
    1, ..., yield (den, amps), ``amps[s] / den`` the amplitude of state s.

    Each level is a fresh list from :func:`_step`; then den *= P_t, and den and every numerator
    are divided by their gcd, which keeps them from growing by P_t per level.
    """
    amps, den = [1] + [0] * (len(rows) - 1), 1
    for p_t, w in factors:
        new, den = _step(rows, amps, w), den * p_t
        g = gcd(den, *new)
        den, amps = den // g, [amp // g for amp in new] if g > 1 else new
        yield den, amps


class _Certificate(NamedTuple):
    """S(N) = num(N) / den(N), two integer polynomials held as their forward differences at 0,
    past the swept levels; S(N) = Fraction(*swept[N]) on them.  Numbers only."""

    num: tuple[int, ...]
    den: tuple[int, ...]
    swept: tuple[tuple[int, int], ...]

    @property
    def limit(self) -> Fraction:
        """S(infinity): the ratio of the two polynomials' top differences."""
        return Fraction(self.num[-1], self.den[-1])

    def partial_sum(self, n: int) -> Fraction:
        if n < len(self.swept):
            return Fraction(*self.swept[n])
        at = [comb(n, i) for i in range(len(self.num))]
        return Fraction(sum(map(mul, at, self.num)), sum(map(mul, at, self.den)))


def _prove(window: list, dens: list[int], k: int) -> tuple | None:
    """(num, den): the closed form of the partial sums, proved from the sweep, or None.

    ``window`` is the sweep's (den, amps) at levels 0 .. k + top_mt + 1, ``dens`` is D(N) =
    prod_{j<d} P_{N-j} there, of degree k = d top_mt.  Each level's den must divide D(N), and
    each u_s(N) = D(N) a_s(N) and D(N) must have vanishing (k+1)-th differences there: integer
    polynomials of degree <= k.  As D(N) P_{N-d} = P_N D(N-1), zero factors included, each sweep
    level a(N) = M(N) a(N-1) / P_N is P_{N-d} u(N) = M(N) u(N-1), of degree <= k + top_mt in N;
    U obeys it at the k + top_mt + 1 levels N >= 1 of the window, so at every N.  Past the window
    N > d, so P_{N-d} > 0 and induction gives U = u, and D, whose roots N = j - s / beta lie
    below d - 1, is nonzero: S(N) = U_DONE(N) / D(N), and (num, den) are their differences at 0.
    ``tests/certificate_oracle.py`` proves the same closed form a second way, by checking the
    recurrence identity on k + 1 levels extended by differences.
    """
    if any(dn % den for dn, (den, _) in zip(dens, window)):
        return None
    u = [[dn // den * a for a in (*amps, den)]  # last: D(N)
         for dn, (den, amps) in zip(dens, window)]
    signed = [(-1) ** (k + 1 - i) * comb(k + 1, i) for i in range(k + 2)]
    if any(sum(map(mul, signed, col[n:])) for col in zip(*u) for n in range(len(u) - k - 1)):
        return None
    heads = [[row[_DONE] for row in u[:k + 1]], [row[-1] for row in u[:k + 1]]]
    for f, j in itertools.product(heads, range(1, k + 1)):
        f[j:] = [b - a for a, b in zip(f[j - 1:], f[j:])]  # f[i] becomes the i-th difference
    return tuple(heads[0]), tuple(heads[1])


@lru_cache(maxsize=None)
def _certificate(p: MultiIndex, q: MultiIndex, beta: Fraction) -> _Certificate | None:
    """:func:`_prove` on levels 0 .. k + top_mt + 1, cached.  Each P_t, t = 1 - d .. k + top_mt
    + 1, is read once: the sweep reads t >= 0, and D(N) is the product of P_{N-d+1} .. P_N."""
    d, (rows, top_mt) = p.deg, _rows(_initial_state(p, q), p.size)
    k = d * top_mt
    factors = [_level_factors(t, beta, top_mt) for t in range(1 - d, k + top_mt + 2)]
    sweep = list(_level_sweep(rows, factors[d - 1:]))
    dens = [prod(p_t for p_t, _ in factors[n:n + d]) for n in range(len(sweep))]
    if (proof := _prove(sweep, dens, k)) is None:
        return None
    return _Certificate(*proof, tuple((amps[_DONE], den) for den, amps in sweep))


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
    moment vanishes exactly when deg(p) != deg(q).  Both value and tail come from
    :func:`_certificate`; if its proof fails, a sweep to max_index gives the value alone.
    """
    beta = _sweep_args(beta, max_index)
    if p.deg != q.deg or p.deg == 0:  # exactly 0, or 1 for the empty monomial
        return TruncatedSumResult(Fraction(p.deg == q.deg), Fraction(0))
    if cert := _certificate(p, q, beta):
        value = cert.partial_sum(max_index)
        return TruncatedSumResult(value, cert.limit - value)
    rows, top_mt = _rows(_initial_state(p, q), p.size)
    factors = (_level_factors(t, beta, top_mt) for t in range(max_index + 1))
    den, amps = next(itertools.islice(_level_sweep(rows, factors), max_index, None))
    return TruncatedSumResult(Fraction(amps[_DONE], den), None)


@dataclass(frozen=True)
class CnCheck:
    """One beta's comparison of the two sides of the CN identity, all exact."""

    beta: Fraction
    gaussian_value: Fraction
    alpha_value: Fraction
    tail: Fraction | None

    @property
    def difference(self) -> Fraction:
        """gaussian - alpha: how far the partial sum falls short of its limit."""
        return self.gaussian_value - self.alpha_value

    @property
    def passed(self) -> bool:
        """tail == difference: the proved limit, alpha + tail, is the Gaussian value."""
        return self.tail == self.difference


@dataclass(frozen=True)
class CnIdentityReport:
    checks: tuple[CnCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _cn_check(p, q, beta: Fraction, max_index: int, gaussian: Fraction) -> CnCheck:
    """The alpha partial sum of (p, q) at beta and its exact tail against the Gaussian value."""
    res = alpha_x_moment(p, q, beta, max_index)
    return CnCheck(beta, gaussian, res.value, res.tail)


def verify_cn_identity(
    p: MultiIndex, q: MultiIndex, betas: list[Fraction], max_index: int
) -> CnIdentityReport:
    """Compare the Gaussian-side polynomial against truncated alpha-side sums,
    one :class:`CnCheck` per beta."""
    if p.deg != q.deg:
        raise ValueError("verify_cn_identity needs deg(p) = deg(q)")
    if not betas:
        raise ValueError("need at least one beta")
    betas = [_sweep_args(b, max_index) for b in betas]
    gpoly = gaussian_x_moment(p, q)
    return CnIdentityReport(tuple(_cn_check(p, q, b, max_index, gpoly.evaluate(b)) for b in betas))


def nice_identity_check(n: int, beta: Fraction, max_index: int) -> CnCheck:
    """The CN identity at p = q = delta_n, E|x_n|**2: the same check as
    ``verify_cn_identity(delta_n, delta_n, [beta], max_index).checks[0]``.

    At N = max_index >= n the alpha value is C(u + n - 1, n) C(N, n) / C(u + N, n), u = 1 / beta
    and C(x, n) = x (x - 1) ... (x - n + 1) / n!, and its limit C(u + n - 1, n) is the Gaussian
    value variance_pmf(n) at beta: the identity holds for every n and beta > 0 (proved in tests).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    beta = _sweep_args(beta, max_index)
    delta = MultiIndex.delta(n)
    return _cn_check(delta, delta, beta, max_index, variance_pmf(n).evaluate(beta))
