"""Exact moment engine for the Gaussian mode law."""

import itertools
from fractions import Fraction
from math import factorial

import pytest
from f_expansion_oracle import add, gaussian_f_moment, gaussian_x_moment_via_f_expansion, scale
from variance_oracle import a_coefficients, moment_product, multiplicity_free_moment

from verblunsky.combinatorics import MultiIndex, f_weight, partitions
from verblunsky.gaussian import (
    MomentPolynomial,
    gaussian_x_moment,
    gaussian_x_moment_raw,
    variance_pmf,
)


def _small_multi_indices(max_deg):
    """Every multi-index of degree 1..max_deg, grouped by degree."""
    by_deg = {d: [] for d in range(1, max_deg + 1)}
    for d in range(1, max_deg + 1):
        for L in partitions(d):
            by_deg[d].append(MultiIndex(dict(L.items())))
    return by_deg


class TestMomentPolynomial:
    def test_constructors(self):
        assert MomentPolynomial.zero().to_map() == {}
        p = MomentPolynomial.from_terms({2: Fraction(1, 2), 1: 0})
        assert p.to_map() == {2: Fraction(1, 2)}
        assert moment_product(p, MomentPolynomial.from_terms({0: 1})) == p

    def test_algebra_matches_evaluation(self):
        a = MomentPolynomial.from_terms({1: Fraction(1, 3), 4: 2})
        b = MomentPolynomial.from_terms({0: 1, 2: Fraction(-1, 2)})
        for beta in (Fraction(1), Fraction(1, 2), Fraction(7, 3)):
            assert add(a, b).evaluate(beta) == a.evaluate(beta) + b.evaluate(beta)
            assert moment_product(a, b).evaluate(beta) == a.evaluate(beta) * b.evaluate(beta)
            assert scale(a, 5).evaluate(beta) == 5 * a.evaluate(beta)


class TestGaussianFMoment:
    def test_off_diagonal_vanishes(self):
        assert gaussian_f_moment(
            MultiIndex({1: 1}), MultiIndex({2: 1})
        ) == MomentPolynomial.zero()

    def test_diagonal_closed_form(self):
        # E prod |f_n|^{2 c_n} = prod c_n! / (n beta)^{c_n}
        import math

        for entries in ({1: 1}, {2: 3}, {1: 2, 3: 1}, {2: 1, 4: 2}):
            p = MultiIndex(entries)
            expect = Fraction(1)
            for n, c in p.items():
                expect *= Fraction(math.factorial(c), n**c)
            got = gaussian_f_moment(p, p)
            assert got.to_map() == {p.size: expect}


class TestGaussianXMoment:
    def test_variance_identity_small(self):
        for n in range(1, 7):
            d = MultiIndex.delta(n)
            assert gaussian_x_moment(d, d) == variance_pmf(n)

    def test_degree_mismatch_is_zero(self):
        assert gaussian_x_moment(MultiIndex({1: 1}), MultiIndex({2: 1})) == MomentPolynomial.zero()

    def test_known_square_example(self):
        p = MultiIndex({2: 2})
        assert gaussian_x_moment(p, p).to_map() == {
            2: Fraction(1, 2),
            3: Fraction(1),
            4: Fraction(3, 2),
        }

    def test_mixed_product_example(self):
        # E|x_1 x_2|^2; all three engines agree on (1/2) b^-2 + (3/2) b^-3
        p = MultiIndex({1: 1, 2: 1})
        expected = {2: Fraction(1, 2), 3: Fraction(3, 2)}
        assert gaussian_x_moment(p, p).to_map() == expected
        assert gaussian_x_moment_raw(p, p).to_map() == expected
        assert gaussian_x_moment_via_f_expansion(p, p).to_map() == expected

    def test_engines_agree_exhaustively(self):
        by_deg = _small_multi_indices(4)
        for d, idxs in by_deg.items():
            for p, q in itertools.product(idxs, idxs):
                ref = gaussian_x_moment(p, q)
                assert gaussian_x_moment_raw(p, q) == ref
                assert gaussian_x_moment_via_f_expansion(p, q) == ref

    def test_support_cut_debug_assertion(self):
        # gaussian_x_moment skips partitions supported above the smaller
        # max support of p and q; each of them must carry zero weight.
        by_deg = _small_multi_indices(4)
        for d, idxs in by_deg.items():
            for p, q in itertools.product(idxs, idxs):
                cut = min(p.max_support, q.max_support)
                for L in partitions(d):
                    if L.max_support > cut:
                        assert f_weight(p, L) * f_weight(q, L) == 0, (p, q, L)

    def test_symmetry_under_conjugate_swap(self):
        # swapping p and q conjugates the expectation; values here are real
        by_deg = _small_multi_indices(4)
        for d, idxs in by_deg.items():
            for p, q in itertools.product(idxs, idxs):
                assert gaussian_x_moment(p, q) == gaussian_x_moment(q, p)


class TestVariancePmf:
    def test_is_probability_mass(self):
        for n in range(1, 12):
            pmf = variance_pmf(n)
            coeffs = pmf.to_map()
            assert sum(coeffs.values()) == 1
            assert all(c > 0 for c in coeffs.values())
            assert set(coeffs) == set(range(1, n + 1))

    def test_known_values(self):
        assert variance_pmf(1).to_map() == {1: Fraction(1)}
        assert variance_pmf(2).to_map() == {1: Fraction(1, 2), 2: Fraction(1, 2)}
        assert variance_pmf(3).to_map() == {
            1: Fraction(1, 3),
            2: Fraction(1, 2),
            3: Fraction(1, 6),
        }

    def test_equals_literal_product(self):
        # The oracle multiplies out the n linear factors in Fractions, one
        # MomentPolynomial product per factor.
        product = MomentPolynomial.from_terms({0: 1})
        for n in range(1, 41):
            product = moment_product(
                product, MomentPolynomial.from_terms({1: Fraction(1, n), 0: Fraction(n - 1, n)})
            )
            assert variance_pmf(n) == product, n

    def test_product_structure(self):
        # pmf(n) = pmf(n-1) * (convolution with {0: (n-1)/n, 1: 1/n})
        for n in range(2, 10):
            step = MomentPolynomial.from_terms(
                {0: Fraction(n - 1, n), 1: Fraction(1, n)}
            )
            assert variance_pmf(n) == moment_product(variance_pmf(n - 1), step)


class TestMultiplicityFree:
    def test_matches_general_engine(self):
        for d in range(1, 6):
            for p in partitions(d):
                p = MultiIndex(dict(p.items()))
                assert multiplicity_free_moment(p) == gaussian_x_moment(
                    p, MultiIndex.delta(d)
                )


class TestACoefficients:
    def test_sum_to_one(self):
        for n in range(1, 13):
            assert sum(a_coefficients(n)) == 1

    def test_odd_half_sum(self):
        # weights at odd part counts carry exactly half the mass for n >= 2
        for n in range(2, 13):
            coeffs = a_coefficients(n)
            odd = sum(c for k, c in enumerate(coeffs, start=1) if k % 2 == 1)
            assert odd == Fraction(1, 2)

    def test_small_values(self):
        assert a_coefficients(1) == [Fraction(1)]
        assert a_coefficients(2) == [Fraction(1, 2), Fraction(1, 2)]

    def test_engine_and_stirling_forms_agree(self):
        # The partition-sum engine at (delta_n, delta_n) (f_weight = 1), the
        # Bernoulli product, and e_{n-k}(0, ..., n-1) / n! read off
        # prod_j (t + j), over a_coefficients' whole guarded range.
        for n in range(1, 21):
            delta = MultiIndex.delta(n)
            pmf = variance_pmf(n)
            assert gaussian_x_moment(delta, delta) == pmf, n
            poly = [1]  # prod_{j<n} (t + j), ascending in t
            for j in range(n):
                poly = [a + j * b for a, b in zip([0, *poly], [*poly, 0])]
            stirling = [Fraction(c, factorial(n)) for c in poly[1:]]
            assert a_coefficients(n) == [pmf.to_map()[k] for k in range(1, n + 1)] == stirling, n

    def test_guard(self):
        with pytest.raises(ValueError):
            a_coefficients(21)
        with pytest.raises(ValueError):
            a_coefficients(0)
