"""Exact moment engine for the rotation-invariant coefficient law."""

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from tuple_oracle import literal_count

from verblunsky import alphamoments
from verblunsky.alphamoments import (
    _canonical,
    _initial_state,
    _level_sweep,
    _transitions,
    alpha_joint_moment,
    alpha_x_moment,
    count_tuples,
    nice_identity_check,
    term_value,
    tuple_counts_all_m,
    verify_cn_identity,
)
from verblunsky.combinatorics import MultiIndex, MultiplicityVector, gap_sequences, partitions
from verblunsky.gaussian import gaussian_x_moment

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


def _sweep(p_deg, q_deg, beta, max_index):
    """:func:`alphamoments._level_sweep` from the canonical start of p_deg | q_deg."""
    n_p = len(p_deg)
    init = _canonical([2 * d for d in (*p_deg, *q_deg)], n_p)
    return _level_sweep(init, n_p, beta, max_index)


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
        assert res.tail_estimate == 0

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

    def test_tail_estimate_covers_true_remainder(self):
        # compare against a much longer run standing in for the limit
        p = MultiIndex({1: 1, 2: 1})
        far = alpha_x_moment(p, p, Fraction(1), 6000).value
        for N in (50, 200, 800):
            res = alpha_x_moment(p, p, Fraction(1), N)
            assert abs(far - res.value) <= 10 * res.tail_estimate


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
        hits = _transitions.cache_info().hits
        got = _sweep(p_deg, q_deg, Fraction(5, 7), 9)
        assert _transitions.cache_info().hits > hits
        assert got == _reference_level_sweep(p_deg, q_deg, Fraction(5, 7), 9)

    def test_transitions_grouped_by_mt(self):
        # 1:2|2:1 from the start: both p-slots closed with budget 1, the
        # q-slot closed with budget 2.  Opening one p-slot needs one q-side
        # open; the two p-slots are interchangeable, so that move has
        # multiplicity 2.
        row = _transitions((2, 2, 4), 2)
        assert [mt for mt, _ in row] == [0, 1]
        assert row[0][1] == (((2, 2, 4), 1),)
        assert row[1][1] == (((1, 2, 3), 2),)


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
                assert abs(check.difference) <= 10 * check.tail_estimate
                assert check.passed

    def test_degree_one_is_exact_telescoping(self):
        for N in (10, 100):
            check = nice_identity_check(1, Fraction(1), N)
            assert check.difference == check.tail_estimate == Fraction(1, N + 1)

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
                for N in (0, 1, 2, 5, 12):
                    check = nice_identity_check(n, beta, N)
                    lhs, tail = check.alpha_value, check.tail_estimate
                    assert lhs == literal_sum(n, beta, N), (n, beta, N)
                    assert tail == (lhs - literal_sum(n, beta, N - 1)) * N, (n, beta, N)

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
        # A Gaussian value one tail below the alpha partial sum passes
        # |diff| <= 10 tail, but a partial sum of positive terms cannot
        # exceed its limit, so the sign check must fail it.
        p, beta, N = MultiIndex({2: 1}), Fraction(1), 200
        res = alpha_x_moment(p, p, beta, N)

        class _Shifted:
            def evaluate(self, b):
                return res.value - res.tail_estimate

        monkeypatch.setattr(alphamoments, "gaussian_x_moment", lambda p, q: _Shifted())
        rep = verify_cn_identity(p, p, [beta], N)
        (check,) = rep.checks
        assert check.difference == -check.tail_estimate < 0
        assert abs(check.difference) <= 10 * check.tail_estimate
        assert not check.passed
        assert not rep.passed

    def test_mixed_case_passes(self):
        p = MultiIndex({1: 1, 2: 1})
        q = MultiIndex({3: 1})
        rep = verify_cn_identity(p, q, [Fraction(1)], 3000)
        assert rep.passed
