"""Exact moment engine for the rotation-invariant coefficient law."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import certificate_oracle
import pytest
import szego_moment_oracle
import transfer_oracle
from tuple_oracle import alpha_joint_moment, literal_count, term_value

from verblunsky import alphamoments
from verblunsky.alphamoments import (
    _DONE,
    CnCheck,
    _canonical,
    _certificate,
    _initial_state,
    _level_factors,
    _level_sweep,
    _prove,
    _rows,
    _step,
    _transitions,
    alpha_x_moment,
    count_tuples,
    nice_identity_check,
    tuple_counts_all_m,
    verify_cn_identity,
)
from verblunsky.combinatorics import MultiIndex, MultiplicityVector, gap_sequences, partitions
from verblunsky.gaussian import gaussian_x_moment, variance_pmf

BETAS = (Fraction(1, 2), Fraction(1), Fraction(2))


def _reference_level_sweep(p_deg, q_deg, beta, max_index):
    """Frozen per-level enumeration that the tabulated sweep replaced.

    At every level and for every per-slot state it enumerates all slot
    actions again, so it shares no table, canonical form or multiplicity
    with :func:`alphamoments._level_sweep`.
    """
    one = Fraction(1)
    bu, bv = beta.numerator, beta.denominator
    n_p = len(p_deg)
    n_slots = n_p + len(q_deg)
    done = (0,) * n_slots
    amps = {tuple(2 * d for d in (*p_deg, *q_deg)): one}
    done_prev = done_now = Fraction(0)
    for t in range(max_index + 1):
        fac = [one]
        for s in range(1, n_slots + 1):
            fac.append(fac[-1] * Fraction(s * bv, t * bu + s * bv))
        new_amps = {}
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
            done_prev = amps.get(done, Fraction(0))
        elif t == max_index:
            done_now = amps.get(done, Fraction(0))
    return done_now, done_prev


def _partial_sums(p_deg, q_deg, beta, max_index):
    """S(0..max_index), the all-closed values of :func:`alphamoments._level_sweep`'s
    stream from the canonical start of p_deg | q_deg, fed each level's factors as
    :func:`alphamoments._certificate` reads them."""
    n_p = len(p_deg)
    rows, top_mt = _rows(_canonical([2 * d for d in (*p_deg, *q_deg)], n_p), n_p)
    factors = [_level_factors(t, beta, top_mt) for t in range(max_index + 1)]
    return [Fraction(amps[_DONE], den) for den, amps in _level_sweep(rows, factors)]


def _sweep(p_deg, q_deg, beta, max_index):
    """(S(max_index), S(max_index - 1)) as the frozen enumeration returns them."""
    sums = [Fraction(0), *_partial_sums(p_deg, q_deg, beta, max_index)]
    return sums[-1], sums[-2]


# Every equal-degree pair of degree <= 3, plus the degree-4 pairs the
# identity-sweep benchmark runs.
SWEEP_PAIRS = [(p, q) for d in (1, 2, 3) for p in partitions(d) for q in partitions(d)] + [
    (MultiIndex.from_string(p), MultiIndex.from_string(q))
    for p, q in (
        ("1:4", "4:1"), ("4:1", "1:4"), ("1:2,2:1", "4:1"), ("4:1", "1:2,2:1"),
        ("1:1,3:1", "1:1,3:1"), ("1:1,3:1", "2:2"), ("2:2", "1:1,3:1"), ("2:2", "2:2"),
    )
]


class TestAlphaJointMoment:
    def test_off_diagonal_vanishes(self):
        for beta in BETAS:
            assert alpha_joint_moment(MultiIndex({1: 2}), MultiIndex({1: 1, 2: 1}), beta) == 0

    def test_diagonal_closed_form(self):
        # E prod |alpha_n|^{2 c_n} = prod c_n! / ((n b + 1) ... (n b + c_n))
        for entries in ({1: 1}, {2: 2}, {1: 2, 3: 1}, {4: 3}):
            p = MultiIndex(entries)
            for beta in BETAS:
                expect = Fraction(1)
                for n, c in p.items():
                    block = Fraction(factorial(c))
                    for s in range(1, c + 1):
                        block /= n * beta + s
                    expect *= block
                assert alpha_joint_moment(p, p, beta) == expect

    def test_square_example_canonical_form(self):
        # E|alpha_2|^4 = (1/2) / (b^2 + (3/2) b + 1/2)
        p = MultiIndex({2: 2})
        for beta in BETAS:
            expect = Fraction(1, 2) / (beta**2 + Fraction(3, 2) * beta + Fraction(1, 2))
            assert alpha_joint_moment(p, p, beta) == expect


class TestTermValue:
    def test_matches_joint_moment(self):
        for entries in ({1: 1}, {1: 2, 2: 1}, {3: 2}):
            m = MultiplicityVector(entries)
            p = MultiIndex(entries)
            for beta in BETAS:
                assert term_value(m, beta) == alpha_joint_moment(p, p, beta)

    def test_index_zero_contributes_nothing(self):
        a = MultiplicityVector({0: 5, 1: 1, 2: 2})
        b = MultiplicityVector({1: 1, 2: 2})
        for beta in BETAS:
            assert term_value(a, beta) == term_value(b, beta)


class TestCountTuples:
    def test_pinned_small_case(self):
        p = MultiIndex({1: 1})
        m = MultiplicityVector({1: 1, 2: 1})
        assert count_tuples(p, p, m) == 1

    def test_all_m_totals_match_single_counts(self):
        p = MultiIndex({1: 1, 2: 1})
        q = MultiIndex({3: 1})
        every = tuple_counts_all_m(p, q, max_index=5)
        assert every  # not empty
        for m, count in every.items():
            assert count == count_tuples(p, q, m)
            assert count == literal_count(p, q, m)
            assert count > 0

    def test_join_matches_literal_product(self):
        # Every same-degree pair of degree <= 3 with every m of size <= 2 deg
        # on indices 0..5, plus two off-degree pairs, whose counts are all 0.
        shapes = [[MultiIndex(dict(L.items())) for L in partitions(d)] for d in range(1, 4)]
        pairs = [(MultiIndex(), MultiIndex())]
        pairs += [(p, q) for same in shapes for p in same for q in same]
        pairs += [(MultiIndex.delta(1), MultiIndex.delta(2)), (MultiIndex({1: 2}), MultiIndex.delta(3))]
        nonzero = 0
        for p, q in pairs:
            for size in range(2 * max(p.deg, q.deg) + 1):
                for combo in itertools.combinations_with_replacement(range(6), size):
                    m = MultiplicityVector(Counter(combo))
                    count = count_tuples(p, q, m)
                    assert count == literal_count(p, q, m), (p, q, m)
                    nonzero += count > 0
        assert nonzero == 287


class TestAlphaXMoment:
    def test_degree_mismatch_is_zero(self):
        res = alpha_x_moment(MultiIndex({1: 1}), MultiIndex({2: 1}), Fraction(1), 50)
        assert res.value == 0
        assert res.tail == 0

    def test_empty_monomial_is_one(self):
        res = alpha_x_moment(MultiIndex(), MultiIndex(), Fraction(1), 10)
        assert res.value == 1

    def test_beta_positive_required(self):
        with pytest.raises(ValueError):
            alpha_x_moment(MultiIndex({1: 1}), MultiIndex({1: 1}), Fraction(-1), 10)

    def test_first_coefficient_telescopes(self):
        # partial sum for |x_1|^2 collapses to 1/b - (1/b)/(N b + 1)
        d = MultiIndex.delta(1)
        for beta in BETAS:
            for N in (1, 2, 17, 400):
                res = alpha_x_moment(d, d, beta, N)
                assert res.value == 1 / beta - (1 / beta) / (N * beta + 1)

    @pytest.mark.parametrize("pq", [
        ("1:1", "1:1"),
        ("2:1", "2:1"),
        ("1:2", "1:2"),
        ("1:2", "2:1"),
        ("1:1,2:1", "3:1"),
        ("3:1", "3:1"),
    ])
    def test_partial_sum_equals_term_enumeration(self, pq):
        # the level-sweep total must reproduce the literal sum over counted
        # multiplicity vectors, count * closed-form term, at small cutoffs
        p = MultiIndex.from_string(pq[0])
        q = MultiIndex.from_string(pq[1])
        for N in (4, 7):
            counts = tuple_counts_all_m(p, q, N)
            for beta in BETAS:
                brute = sum(
                    (c * term_value(m, beta) for m, c in counts.items()),
                    Fraction(0),
                )
                assert alpha_x_moment(p, q, beta, N).value == brute

    def test_partial_sums_monotone_toward_gaussian_value(self):
        p = MultiIndex({2: 1})
        target = gaussian_x_moment(p, p).evaluate(Fraction(1))
        values = [alpha_x_moment(p, p, Fraction(1), N).value for N in (5, 10, 40, 160)]
        gaps = [abs(target - v) for v in values]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < Fraction(1, 50)

    def test_tail_covers_true_remainder(self):
        # The exact tail is the limit's shortfall: a much longer run gains
        # less than it, and partial sum plus tail is the Gaussian value.
        p = MultiIndex({1: 1, 2: 1})
        limit = gaussian_x_moment(p, p).evaluate(Fraction(1))
        far = alpha_x_moment(p, p, Fraction(1), 6000)
        for N in (50, 200, 800):
            res = alpha_x_moment(p, p, Fraction(1), N)
            assert 0 < far.value - res.value < res.tail == limit - res.value
            assert far.tail < res.tail


class TestLevelSweepOracle:
    @pytest.mark.parametrize(
        "p, q", SWEEP_PAIRS, ids=[f"{p.to_string()}|{q.to_string()}" for p, q in SWEEP_PAIRS]
    )
    def test_equals_frozen_enumeration(self, p, q):
        p_deg, q_deg = p.slots(), q.slots()
        for beta in (Fraction(1, 3), Fraction(1), Fraction(3, 2)):
            for N in (0, 1, 2, 5, 17):
                expect = _reference_level_sweep(p_deg, q_deg, beta, N)
                assert _sweep(p_deg, q_deg, beta, N) == expect, (beta, N)

    def test_memoised_table_reused_across_betas(self):
        p_deg, q_deg = [1, 2], [1, 2]
        _sweep(p_deg, q_deg, Fraction(1, 3), 9)
        hits = _rows.cache_info().hits
        got = _sweep(p_deg, q_deg, Fraction(5, 7), 9)
        assert _rows.cache_info().hits > hits
        assert got == _reference_level_sweep(p_deg, q_deg, Fraction(5, 7), 9)

    @pytest.mark.parametrize("pq", [("1:1", "1:1"), ("1:2", "2:1"), ("1:1,2:1", "3:1"),
                                    ("2:2", "1:1,3:1")])
    def test_stream_is_every_partial_sum(self, pq):
        # The stream's all-closed values are S(0), S(1), ...: nondecreasing,
        # since every term is positive, and each one alpha_x_moment's value.
        p, q = (MultiIndex.from_string(x) for x in pq)
        for beta in (Fraction(1, 3), Fraction(2)):
            sums = _partial_sums(p.slots(), q.slots(), beta, 30)
            assert sums == sorted(sums)
            assert sums[-1] > sums[0]
            for t, s in enumerate(sums):
                assert s == alpha_x_moment(p, q, beta, t).value, (beta, t)

    def test_count_tabulates_only_the_states_it_reaches(self, monkeypatch):
        # All 886 states of 2:6|2:6 take tens of milliseconds to tabulate, and
        # 100:6|100:6 has far too many to build; m pins every level's move,
        # and the walk tabulates only the one state it reaches at each level.
        seen = []

        def spy(state, n_p):
            seen.append(state)
            return _transitions(state, n_p)

        monkeypatch.setattr(alphamoments, "_transitions", spy)
        for p, m, calls in (("2:6", "0:6,2:6", 3), ("100:6", "0:6,100:6", 101)):
            seen.clear()
            p = MultiIndex.from_string(p)
            assert count_tuples(p, p, MultiplicityVector.from_string(m)) == 1
            assert len(seen) == len(set(seen)) == calls, p

    def test_transitions_grouped_by_mt(self):
        # 1:2|2:1 from the start: both p-slots closed with budget 1, the
        # q-slot closed with budget 2.  Opening one p-slot needs one q-side
        # open; the two p-slots are interchangeable, so that move has
        # multiplicity 2.
        row = _transitions((2, 2, 4), 2)
        assert [mt for mt, _ in row] == [0, 1]
        assert row[0][1] == (((2, 2, 4), 1),)
        assert row[1][1] == (((1, 2, 3), 2),)

    def test_rows_equal_the_flip_vector_oracle(self):
        # Every reachable row of every equal-degree table through degree 5, as a
        # multiset of (mt, next, multiplicity), against all 2**slots flip vectors.
        def moves(row):
            return Counter((mt, nxt, mult) for mt, targets in row for nxt, mult in targets)

        rows = 0
        for d in range(1, 6):
            for p, q in itertools.product(partitions(d), repeat=2):
                states = [_initial_state(p, q)]
                for state in states:  # breadth first; states grows meanwhile
                    row = _transitions(state, p.size)
                    want = transfer_oracle.transitions(state, p.size)
                    assert moves(row) == moves(want), (p, q, state)
                    states += {nxt: None for _, targets in row for nxt, _ in targets
                               if nxt not in states}
                assert len(states) == len(_rows(states[0], p.size)[0]), (p, q)
                rows += len(states)
        assert rows == 2649


# 355/113 has a large numerator and denominator, so the sweep's common
# denominator mixes many distinct level factors.
DEEP_BETAS = (Fraction(1, 3), Fraction(3, 2), Fraction(355, 113))
DEEP_PAIRS = [(p, q) for d in (1, 2) for p in partitions(d) for q in partitions(d)]


class TestDeepLevels:
    @pytest.mark.parametrize(
        "p, q", DEEP_PAIRS, ids=[f"{p.to_string()}|{q.to_string()}" for p, q in DEEP_PAIRS]
    )
    def test_equals_frozen_enumeration(self, p, q):
        p_deg, q_deg = p.slots(), q.slots()
        for beta in DEEP_BETAS:
            for N in (64, 200):
                expect = _reference_level_sweep(p_deg, q_deg, beta, N)
                assert _sweep(p_deg, q_deg, beta, N) == expect, (beta, N)

    def test_first_coefficient_telescopes(self):
        d = MultiIndex.delta(1)
        for beta in DEEP_BETAS:
            for N in (0, 1, 2, 1000, 12700):
                res = alpha_x_moment(d, d, beta, N)
                assert res.value == 1 / beta - (1 / beta) / (N * beta + 1), (beta, N)


class TestNiceIdentity:
    def test_closed_form_side(self):
        from verblunsky.gaussian import variance_pmf

        for n in (1, 2, 3):
            for beta in BETAS:
                check = nice_identity_check(n, beta, 10)
                assert check.gaussian_value == variance_pmf(n).evaluate(beta)

    def test_partial_sum_approaches_closed_form(self):
        for n in (1, 2, 3):
            for beta in (Fraction(1, 2), Fraction(1)):
                check = nice_identity_check(n, beta, 3000)
                assert 0 < check.difference == check.tail
                assert check.passed

    def test_degree_one_is_exact_telescoping(self):
        for N in (10, 100):
            check = nice_identity_check(1, Fraction(1), N)
            assert check.difference == check.tail == Fraction(1, N + 1)

    def test_equals_literal_enumeration(self):
        def literal_sum(n, beta, N):
            total = Fraction(0)
            for seq in gap_sequences(n, N):
                term = Fraction(1)
                for i, j in seq:
                    term /= (i * beta + 1) * (j * beta + 1)
                total += term
            return total

        for n in (1, 2, 3, 4):
            for beta in (Fraction(1, 3), Fraction(1), Fraction(3, 2)):
                gauss = gaussian_x_moment(MultiIndex.delta(n), MultiIndex.delta(n)).evaluate(beta)
                for N in (0, 1, 2, 5, 12):
                    check = nice_identity_check(n, beta, N)
                    lhs, tail = check.alpha_value, check.tail
                    assert lhs == literal_sum(n, beta, N), (n, beta, N)
                    assert tail == gauss - lhs, (n, beta, N)

    def test_diagonal_slots_move_in_lockstep(self):
        # From (delta_n, delta_n) the balance rule opens and closes both
        # slots together: the reachable states are the 2n + 1 pairs (e, e),
        # and each move reads mt <= 1 once, like the one-slot gap sequence.
        for n in range(1, 9):
            delta = MultiIndex.delta(n)
            seen, todo = set(), [_initial_state(delta, delta)]
            while todo:
                state = todo.pop()
                if state in seen:
                    continue
                seen.add(state)
                for mt, targets in _transitions(state, 1):
                    assert mt in (0, 1), (n, state)
                    assert all(mult == 1 for _, mult in targets), (n, state)
                    todo.extend(nxt for nxt, _ in targets)
            assert seen == {(e, e) for e in range(2 * n + 1)}, n

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_is_the_identity_check_at_delta(self, n):
        # nice-identity and identity share one check object, PASS rule included.
        delta = MultiIndex.delta(n)
        for beta in BETAS:
            for N in (0, 1, 40):
                check = nice_identity_check(n, beta, N)
                assert check == verify_cn_identity(delta, delta, [beta], N).checks[0]


def _binom(x, n):
    """C(x, n) = x (x - 1) ... (x - n + 1) / n! at rational x."""
    return prod((x - i for i in range(n)), start=Fraction(1)) / factorial(n)


def _nice_closed_form(n, N, u):
    """V(n, N) = E|r_N[n]|**2 = C(u + n - 1, n) C(N, n) / C(u + N, n) at u = 1 / beta, and 0
    for n > N, where C(u + N, n) may vanish too."""
    return _binom(u + n - 1, n) * _binom(N, n) / _binom(u + N, n) if n <= N else Fraction(0)


class TestNiceIdentityTheorem:
    """E|x_n|**2 truncated at N >= n: V(n, N) = C(u + n - 1, n) C(N, n) / C(u + N, n), u = 1/beta.

    V(n, N) = E|r_N[n]|**2 obeys V(n, N) = V(n, N-1) + V(N - n, N-1) / (N beta + 1)
    for 1 <= n <= N (the cross term dies with alpha_N's phase), with V(0, N) = 1
    and V(n, 0) = 0.  Relative to the closed form at (n, N), the right side's
    terms are (N - n)(u + N) / (N (u + N - n)) and, with u / (N + u) = 1 /
    (N beta + 1), u n / (N (u + N - n)): C(N-1, n) = C(N, n) (N - n) / N, and
    the rising factorials of C(u + N, n) and C(u + N - n - 1, N - n) telescope.
    So the recursion reduces to (N - n)(u + N) + u n = N (u + N - n), and the
    theorem holds for every N >= n >= 0 and beta > 0.  Its limit C(u + n - 1,
    n) is the Gaussian value, so the nice identity holds for every n.
    """

    BETAS = (Fraction(1, 2), Fraction(1), Fraction(2, 3), Fraction(355, 113))

    def test_reduced_identity(self):
        # Degree <= 2 in each of (n, N, u): zero on a 4 x 4 x 4 grid is zero everywhere.
        for n, N, u in itertools.product(range(4), repeat=3):
            assert (N - n) * (u + N) + u * n == N * (u + N - n), (n, N, u)

    def test_recursion_and_base_cases(self):
        for beta in self.BETAS:
            u = 1 / beta
            assert all(_nice_closed_form(n, 0, u) == 0 for n in range(1, 12))
            for N in range(12):
                assert _nice_closed_form(0, N, u) == 1
                for n in range(1, N + 1):
                    step = _nice_closed_form(N - n, N - 1, u) / (N * beta + 1)
                    assert _nice_closed_form(n, N, u) == _nice_closed_form(n, N - 1, u) + step

    def test_certificate_value_and_tail(self):
        # At d = n, top_mt = 1: the certificate sweeps levels 0 .. n + 2, and N
        # straddles both the first nonzero level n and the switch to the closed form.
        for beta in self.BETAS:
            u = 1 / beta
            for n in range(1, 41):
                delta = MultiIndex.delta(n)
                assert len(_certificate(delta, delta, beta).swept) == n + 3
                limit = _binom(u + n - 1, n)
                assert limit == variance_pmf(n).evaluate(beta)
                for N in (0, n - 1, n, n + 2, n + 3, 1000):
                    check = nice_identity_check(n, beta, N)
                    value = _nice_closed_form(n, N, u)
                    assert (check.alpha_value, check.tail) == (value, limit - value), (n, beta, N)

    def test_heuristic_gap(self):
        # The heuristic law, beta + 1 for beta, has the proved limit C(u' + n - 1, n),
        # u' = 1 / (beta + 1) < u, and C(x + n - 1, n) increases in x > 0.
        for beta in self.BETAS:
            for n in range(1, 41):
                delta = MultiIndex.delta(n)
                heuristic = _certificate(delta, delta, beta + 1).limit
                assert heuristic == _binom(1 / (beta + 1) + n - 1, n) < _binom(1 / beta + n - 1, n)


class TestVerifyCnIdentity:
    def test_degree_mismatch_raises(self):
        with pytest.raises(ValueError):
            verify_cn_identity(MultiIndex({1: 1}), MultiIndex({2: 1}), [Fraction(1)], 10)

    def test_no_beta_raises(self):
        # all() of no checks would otherwise report a vacuous PASS.
        p = MultiIndex({1: 1})
        with pytest.raises(ValueError, match="at least one beta"):
            verify_cn_identity(p, p, [], 10)

    def test_small_diagonal_passes(self):
        p = MultiIndex({2: 1})
        rep = verify_cn_identity(p, p, list(BETAS), 2000)
        assert rep.passed
        assert len(rep.checks) == 3
        for check in rep.checks:
            assert check.passed
            assert check.difference == check.gaussian_value - check.alpha_value

    def test_alpha_side_above_gaussian_fails(self, monkeypatch):
        # A Gaussian value one tail below the alpha partial sum is off by
        # |diff| = tail, but the gate asks for the proved limit itself.
        p, beta, N = MultiIndex({2: 1}), Fraction(1), 200
        res = alpha_x_moment(p, p, beta, N)

        class _Shifted:
            def evaluate(self, b):
                return res.value - res.tail

        monkeypatch.setattr(alphamoments, "gaussian_x_moment", lambda p, q: _Shifted())
        rep = verify_cn_identity(p, p, [beta], N)
        (check,) = rep.checks
        assert check.difference == -check.tail < 0
        assert check.tail == res.tail
        assert not check.passed
        assert not rep.passed

    def test_every_true_identity_passes(self):
        # Every equal-degree pair of degree <= 4 at every max_index 0..12:
        # the proved limit is the Gaussian value even where S(N) is still 0.
        checked = 0
        for p, q in CERT_PAIRS:
            gpoly = gaussian_x_moment(p, q)
            for beta in CERT_BETAS:
                for N in range(13):
                    (check,) = verify_cn_identity(p, q, [beta], N).checks
                    assert check.passed, (p, q, beta, N)
                    assert check.alpha_value + check.tail == gpoly.evaluate(beta)
                    checked += 1
        assert checked == 2535

    def test_mixed_case_passes(self):
        p = MultiIndex({1: 1, 2: 1})
        q = MultiIndex({3: 1})
        rep = verify_cn_identity(p, q, [Fraction(1)], 3000)
        assert rep.passed


# Every equal-degree pair of degree <= 4, at the degenerate betas 1/2 and 1,
# where D(N) vanishes at the window's first levels, and at generic ones.
CERT_PAIRS = [(p, q) for d in (1, 2, 3, 4) for p in partitions(d) for q in partitions(d)]
CERT_BETAS = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(2, 3), Fraction(3, 7))
CERT_CASES = [(p, q, beta) for beta in CERT_BETAS for p, q in CERT_PAIRS]


class TestGatePower:
    """The identity gate rejects the paper's heuristic law.

    Szego's identity turns the Gaussian density into prod (1 - |alpha_n|^2)^{n beta},
    and the volume factor of criterion 08 adds the power n - 1, so the heuristic
    law is |alpha_n|^2 ~ Beta(1, n (beta + 1)): the alpha side at beta + 1.
    """

    CASES = [(MultiIndex({n: 1}), MultiIndex({n: 1})) for n in range(1, 5)] + [
        (MultiIndex({1: 1, 2: 1}), MultiIndex({3: 1})),
        (MultiIndex({1: 2}), MultiIndex({2: 1})),
    ]  # criterion 06

    @pytest.mark.parametrize("p, q", CASES)
    def test_heuristic_law_fails_every_criterion_06_case(self, p, q):
        N = 10**4
        gpoly = gaussian_x_moment(p, q)
        for beta in BETAS:
            res = alpha_x_moment(p, q, beta + 1, N)
            check = CnCheck(beta, gpoly.evaluate(beta), res.value, res.tail)
            assert not check.passed, (p, q, beta)

    @pytest.mark.parametrize(
        "p, q", CERT_PAIRS, ids=[f"{p.to_string()}|{q.to_string()}" for p, q in CERT_PAIRS]
    )
    def test_heuristic_limit_is_proved_below_gaussian(self, p, q):
        # The certificate at beta + 1 proves the heuristic law's limit, G(beta + 1),
        # without assuming the identity.  G is a nonconstant polynomial in
        # 1/beta with nonnegative coefficients, so G(beta + 1) < G(beta) at
        # every beta > 0: the heuristic law misses this moment everywhere.
        gpoly = gaussian_x_moment(p, q)
        coeffs = gpoly.to_map()
        assert min(coeffs.values()) >= 0
        assert any(c and e > 0 for e, c in coeffs.items())
        for beta in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(2, 3)):
            cert = _certificate(p, q, beta + 1)
            assert cert is not None, (p, q, beta)
            assert cert.limit == gpoly.evaluate(beta + 1) < gpoly.evaluate(beta), (p, q, beta)


def _at(diffs, n):
    """The polynomial with forward differences ``diffs`` at 0, evaluated at n."""
    return sum(comb(n, i) * x for i, x in enumerate(diffs))


def _limit(proof, beta):
    """S(infinity) from _prove's (num, den): Delta^k u_DONE(0) / (k! bu**k), the leading
    coefficients of u_DONE and of D, D's being bu**k."""
    num, _ = proof
    k = len(num) - 1
    return Fraction(num[k], factorial(k) * beta.numerator**k)


def _rejected(proof, beta, value):
    return proof is None or _limit(proof, beta) != value


def _old_gate(p, q, law, gauss, n):
    """The retired heuristic rule at the law's partial sum S(n):
    0 <= gauss - S(n) <= 10 n (S(n) - S(n - 1))."""
    now, prev = (alpha_x_moment(p, q, law, m).value for m in (n, n - 1))
    return 0 <= gauss - now <= 10 * n * (now - prev)


def _ingredients(p, q, beta, shifts=None, level_factors=_level_factors):
    """_prove's arguments as _certificate builds them from ``level_factors``, with D made
    of ``shifts`` consecutive P_t instead of deg p, and k = shifts top_mt."""
    rows, top_mt = _rows(_initial_state(p, q), p.size)
    d = p.deg if shifts is None else shifts
    k = d * top_mt
    factors = [level_factors(t, beta, top_mt) for t in range(1 - d, k + top_mt + 2)]
    window = list(_level_sweep(rows, factors[d - 1:]))
    return window, [prod(p_t for p_t, _ in factors[n:n + d]) for n in range(len(window))], k


class TestCertificate:
    """The closed form of the partial sums, proved from the sweep's own levels."""

    def test_proved_and_limit_is_gaussian_value(self):
        assert len(CERT_CASES) == 195
        for p, q, beta in CERT_CASES:
            cert = _certificate(p, q, beta)
            assert cert is not None, (p, q, beta)
            top_mt = _rows(_initial_state(p, q), p.size)[1]
            window, dens, k = _ingredients(p, q, beta)
            assert len(cert.swept) == len(window) == k + top_mt + 2
            proof = _prove(window, dens, k)
            assert proof == (cert.num, cert.den)
            # den is D at every level, zeros included.
            assert [_at(cert.den, n) for n in range(len(dens))] == dens
            limit = _limit(proof, beta)
            assert cert.limit == limit == gaussian_x_moment(p, q).evaluate(beta)

    def test_unreduced_sweep_is_rejected(self):
        # The sweep's levels without its per-level gcd, den = P_0 ... P_N: the same
        # fractions, but den no longer divides D(N) at every level, as it does on the
        # reduced sweep, so u(N) = D(N) a(N) is not read as integers: no proof.
        for p, q, beta in CERT_CASES:
            window, dens, k = _ingredients(p, q, beta)
            rows, top_mt = _rows(_initial_state(p, q), p.size)
            raw, den, amps = [], 1, [1] + [0] * (len(rows) - 1)
            for t in range(len(window)):
                p_t, w = _level_factors(t, beta, top_mt)
                amps, den = _step(rows, amps, w), den * p_t
                raw.append((den, amps))
            assert [[Fraction(a, den) for a in amps] for den, amps in raw] == [
                [Fraction(a, den) for a in amps] for den, amps in window]
            assert any(dn % den for dn, (den, _) in zip(dens, raw)), (p, q, beta)
            assert _prove(raw, dens, k) is None, (p, q, beta)

    def test_agrees_with_the_recurrence_identity_proof(self):
        # Two independent proofs of one closed form: vanishing differences over
        # the swept levels, and the oracle's recurrence check on k + 1 of them.
        cases = CERT_CASES + [(p, q, Fraction(355, 113)) for p, q in CERT_PAIRS]
        for p, q, beta in cases:
            proof = _prove(*_ingredients(p, q, beta))
            assert proof is not None, (p, q, beta)
            assert certificate_oracle.prove(p, q, beta) == proof, (p, q, beta)
        assert len(cases) == 234

    def test_two_builds_compare_equal(self):
        # The certificate is numbers only: a fresh build equals the cached one.
        for p, q, beta in CERT_CASES:
            assert _certificate.__wrapped__(p, q, beta) == _certificate(p, q, beta)

    def test_window_starts_at_level_zero(self):
        # D's roots N = j - s / beta, j < 3, s <= top_mt = 1, are integers at
        # beta = 1 and 1/2 only, and lie in the window: there u(N) = 0 whatever
        # the sweep's value, and the proof still holds from level 0.  They are
        # the den polynomial's roots.
        p, q = MultiIndex.from_string("1:1,2:1"), MultiIndex.from_string("3:1")
        gauss = gaussian_x_moment(p, q)
        assert _rows(_initial_state(p, q), p.size)[1] == 1
        zeros = {Fraction(1): [0, 1], Fraction(1, 2): [0], Fraction(2): [], Fraction(2, 3): []}
        for beta, roots in zeros.items():
            cert = _certificate(p, q, beta)
            assert cert is not None and len(cert.num) == len(cert.den) == 4  # k + 1, k = d top_mt
            assert len(cert.swept) == 6  # k + top_mt + 2
            assert [n for n in range(6) if _at(cert.den, n) == 0] == roots
            for N in range(41):
                res = alpha_x_moment(p, q, beta, N)
                value, _ = _reference_level_sweep([1, 2], [3], beta, N)
                assert (res.value, res.tail) == (value, gauss.evaluate(beta) - value), (beta, N)

    def test_dropped_shift_of_d_is_rejected(self):
        # D(N) without its last shift P_{N-d+1}, and k lowered to match.  At
        # generic beta that drops factors the sweep's denominators need.  At
        # beta = 1/2 and 1 the shifts share factors, but the reduced form still
        # fails over the window from level 0.
        cases = 0
        for p, q, beta in CERT_CASES:
            if p.deg >= 2:
                assert _prove(*_ingredients(p, q, beta, shifts=p.deg - 1)) is None, (p, q, beta)
                cases += 1
        assert cases == 190

    def test_level_factor_missing_from_w_is_rejected(self):
        # Each w[mt], mt < top_mt, in turn without its factor (t bu + top_mt bv),
        # fed through the sweep itself.
        cases = 0
        for p, q, beta in CERT_CASES:
            top_mt = _rows(_initial_state(p, q), p.size)[1]
            gauss = gaussian_x_moment(p, q).evaluate(beta)
            for mt in range(top_mt):

                def mutant(t, beta, top_mt, mt=mt):
                    p_t, w = _level_factors(t, beta, top_mt)
                    if t >= 0:  # the sweep's levels; D(N) also reads P_t at t < 0
                        w[mt] //= t * beta.numerator + top_mt * beta.denominator
                    return p_t, w

                window, dens, k = _ingredients(p, q, beta, level_factors=mutant)
                assert _rejected(_prove(window, dens, k), beta, gauss), (p, q, beta, mt)
                cases += 1
        assert cases == 330

    def test_one_state_off_by_one_is_rejected(self):
        # Every state's amplitude numerator off by one at one seeded level with
        # D(N) != 0.  Where D(N) = 0, u(N) = 0 whatever the value, so the proof
        # cannot see it; test_window_starts_at_level_zero and the Szego
        # recursion oracle check the values there.
        rng, cases = random.Random(29), 0
        for p, q, beta in CERT_CASES:
            window, dens, k = _ingredients(p, q, beta)
            gauss = gaussian_x_moment(p, q).evaluate(beta)
            levels = [n for n, dn in enumerate(dens) if dn]
            for s in range(len(window[0][1])):
                bad = [(den, list(amps)) for den, amps in window]
                bad[rng.choice(levels)][1][s] += 1
                assert _rejected(_prove(bad, dens, k), beta, gauss), (p, q, beta, s)
                cases += 1
        assert cases == 3090

    @pytest.mark.parametrize("p, q", TestGatePower.CASES)
    def test_rejects_what_the_tail_gate_passes(self, p, q):
        # The Gaussian value + 1e-30 and the law at beta (1 +- 1e-5) passed the
        # retired 10x tail gate at N = 10**4; the exact gate fails both.
        gpoly, N = gaussian_x_moment(p, q), 10**4
        for beta in BETAS:
            gauss = gpoly.evaluate(beta)
            res = alpha_x_moment(p, q, beta, N)
            lifted = gauss + Fraction(1, 10**30)
            assert CnCheck(beta, gauss, res.value, res.tail).passed
            assert _old_gate(p, q, beta, lifted, N)
            assert not CnCheck(beta, lifted, res.value, res.tail).passed
            for eps in (Fraction(1, 10**5), Fraction(-1, 10**5)):
                law = beta * (1 + eps)
                res = alpha_x_moment(p, q, law, N)
                assert _old_gate(p, q, law, gauss, N), (p, q, beta, eps)
                assert not CnCheck(beta, gauss, res.value, res.tail).passed, (p, q, beta, eps)
                assert _certificate(p, q, law).limit == gpoly.evaluate(law) != gauss


class TestClosedFormSwitch:
    """The certificate gives S(N) from its stored sweep up to k + top_mt + 1 and
    from the closed form past it; both sides of the switch equal a direct sweep,
    exactly, and the tail is the Gaussian value minus S(N)."""

    def test_equals_direct_sweep_around_the_switch(self):
        rng = random.Random(16)
        deep = [(p, q, Fraction(355, 113)) for p, q in CERT_PAIRS]
        for p, q, beta in rng.sample(CERT_CASES + deep, 60):
            top = len(_certificate(p, q, beta).swept)
            gauss = gaussian_x_moment(p, q).evaluate(beta)
            for n, value in enumerate(_partial_sums(p.slots(), q.slots(), beta, top + 2)):
                res = alpha_x_moment(p, q, beta, n)
                assert (res.value, res.tail) == (value, gauss - value), (p, q, beta, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_nice_identity_equals_direct_sweep(self, n):
        rng = random.Random(n)
        delta = MultiIndex.delta(n)
        for beta in (*CERT_BETAS, Fraction(355, 113)):
            top = len(_certificate(delta, delta, beta).swept)
            gauss = gaussian_x_moment(delta, delta).evaluate(beta)
            for N in {top - 1, top, rng.randint(0, top + 2)}:
                check = nice_identity_check(n, beta, N)
                value, _ = _sweep([n], [n], beta, N)
                assert (check.alpha_value, check.tail) == (value, gauss - value)

    @pytest.mark.parametrize("pq", [("1:1", "1:1"), ("1:2", "2:1"), ("1:1,2:1", "3:1"),
                                    ("2:2", "1:1,3:1")])
    def test_equals_direct_sweep_at_ten_thousand(self, pq):
        p, q = (MultiIndex.from_string(x) for x in pq)
        beta, N = Fraction(2, 3), 10**4
        gauss = gaussian_x_moment(p, q).evaluate(beta)
        res = alpha_x_moment(p, q, beta, N)
        value, _ = _sweep(p.slots(), q.slots(), beta, N)
        assert (res.value, res.tail) == (value, gauss - value)
        if p == q == MultiIndex.delta(p.deg):
            check = nice_identity_check(p.deg, beta, N)
            assert (check.alpha_value, check.tail) == (value, gauss - value)


_power_moment = szego_moment_oracle.power_moment
SZEGO_MUTANTS = {  # (oracle attribute, replacement)
    "shifted law": ("power_moment", lambda a, b, n, beta: _power_moment(a, b, n + 1, beta)),
    "dropped conj": ("flipped", lambda n, k, conj: (n - k, conj)),
    "unbalanced kept": ("power_moment", lambda a, b, n, beta: _power_moment(a, a, n, beta)),
}


class TestSzegoMomentOracle:
    """The alpha side a third way: the Szego recursion in expectation, with no gap
    sequences and no transfer table.  N = 0, 1 and 3 lie in every certificate's
    window, where D(N) may vanish and the proof does not see the values; the
    first two levels past each window are read from the closed form."""

    GRID = [(beta, N) for beta in (Fraction(1, 2), Fraction(1), Fraction(2, 3))
            for N in (0, 1, 3, 6, 10)]

    def test_equals_alpha_x_moment(self):
        # The grid's N <= 10 lies inside the window of 17 of the 39 pairs, so the first
        # two levels past each window, at two more betas, are added.
        cases = [(p, q, beta, N) for beta, N in self.GRID for p, q in CERT_PAIRS]
        for beta in (Fraction(355, 113), Fraction(3, 7)):
            for p, q in CERT_PAIRS:
                top = len(_certificate(p, q, beta).swept)
                cases += [(p, q, beta, top), (p, q, beta, top + 1)]
        memos = {}
        for p, q, beta, N in cases:
            got = szego_moment_oracle.x_moment(p, q, beta, N, memos.setdefault(beta, {}))
            assert got == alpha_x_moment(p, q, beta, N).value, (p, q, beta, N)
        assert len(cases) == 585 + 156

    @pytest.mark.parametrize("mutant", list(SZEGO_MUTANTS))
    def test_mutants_fail(self, mutant, monkeypatch):
        monkeypatch.setattr(szego_moment_oracle, *SZEGO_MUTANTS[mutant])
        beta, memo = Fraction(1, 2), {}
        wrong = [(p, q) for p, q in CERT_PAIRS if p.deg <= 3
                 if szego_moment_oracle.x_moment(p, q, beta, 3, memo)
                 != alpha_x_moment(p, q, beta, 3).value]
        assert wrong, mutant
