"""Exact moment engine for the rotation-invariant coefficient law."""

import itertools
from fractions import Fraction
from math import factorial

import pytest

from verblunsky.alphamoments import (
    alpha_joint_moment,
    alpha_x_moment,
    count_tuples,
    nice_identity_check,
    term_value,
    tuple_counts_all_m,
    verify_cn_identity,
)
from verblunsky.combinatorics import MultiIndex, MultiplicityVector, partitions
from verblunsky.gaussian import gaussian_x_moment

BETAS = (Fraction(1, 2), Fraction(1), Fraction(2))


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
        assert count_tuples(p, p, m, max_index=3) == 1

    def test_max_index_guard(self):
        p = MultiIndex({1: 1})
        m = MultiplicityVector({5: 1, 6: 1})
        with pytest.raises(ValueError):
            count_tuples(p, p, m, max_index=4)

    def test_all_m_totals_match_single_counts(self):
        p = MultiIndex({1: 1, 2: 1})
        q = MultiIndex({3: 1})
        every = tuple_counts_all_m(p, q, max_index=5)
        assert every  # not empty
        for m, count in every.items():
            assert count == count_tuples(p, q, m, max_index=5)
            assert count > 0


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


class TestNiceIdentity:
    def test_closed_form_side(self):
        from verblunsky.gaussian import variance_pmf

        for n in (1, 2, 3):
            for beta in BETAS:
                _, rhs, _ = nice_identity_check(n, beta, 10)
                assert rhs == variance_pmf(n).evaluate(beta)

    def test_partial_sum_approaches_closed_form(self):
        for n in (1, 2, 3):
            for beta in (Fraction(1, 2), Fraction(1)):
                lhs, rhs, tail = nice_identity_check(n, beta, 3000)
                assert abs(lhs - rhs) <= 10 * tail

    def test_degree_one_is_exact_telescoping(self):
        for N in (10, 100):
            lhs, rhs, tail = nice_identity_check(1, Fraction(1), N)
            assert rhs - lhs == tail == Fraction(1, N + 1)


class TestVerifyCnIdentity:
    def test_degree_mismatch_raises(self):
        with pytest.raises(ValueError):
            verify_cn_identity(MultiIndex({1: 1}), MultiIndex({2: 1}), [Fraction(1)], 10)

    def test_small_diagonal_passes(self):
        p = MultiIndex({2: 1})
        rep = verify_cn_identity(p, p, list(BETAS), 2000)
        assert rep.passed
        assert len(rep.checks) == 3
        for check in rep.checks:
            assert check.passed
            assert check.difference == check.gaussian_value - check.alpha_value

    def test_mixed_case_passes(self):
        p = MultiIndex({1: 1, 2: 1})
        q = MultiIndex({3: 1})
        rep = verify_cn_identity(p, q, [Fraction(1)], 3000)
        assert rep.passed
