"""Float-lane recursions: reversed polynomials, measures, series, Jacobians."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from exp_series_oracle import exp_series, exp_series_partition_sum, log_series_loop
from gap_oracle import disk_nonvanishing, x_series_truncated
from hypothesis import example, given, settings
from hypothesis import strategies as st

from verblunsky import opuc
from verblunsky.combinatorics import gap_sequences
from verblunsky.opuc import (
    NotPositiveDefiniteError,
    jacobian_determinant,
    jacobian_determinant_exact,
    log_series,
    measure_density,
    reversed_polynomial,
    szego_identity_gap,
    trig_moments,
    verblunsky_from_moments,
    _integer_det,
    _reversed_exact,
)


SMALL_RATIONAL = st.fractions(min_value=-1, max_value=1, max_denominator=9)


def _random_alpha(rng, N, max_mod=0.6):
    return rng.uniform(0.05, max_mod, N) * np.exp(2j * np.pi * rng.random(N))


class TestReversedPolynomial:
    def test_empty(self):
        np.testing.assert_array_equal(reversed_polynomial([]), [1.0])

    def test_one_step(self):
        a = 0.3 + 0.2j
        np.testing.assert_allclose(reversed_polynomial([a]), [1.0, a])

    def test_two_steps_explicit(self):
        a1, a2 = 0.3 - 0.1j, -0.2 + 0.4j
        r = reversed_polynomial([a1, a2])
        np.testing.assert_allclose(r, [1.0, a1 + a2 * np.conj(a1), a2])

    def test_constant_term_and_leading(self):
        rng = np.random.default_rng(31)
        a = _random_alpha(rng, 7)
        r = reversed_polynomial(a)
        assert r[0] == 1.0
        np.testing.assert_allclose(r[-1], a[-1])

    def test_modulus_bound_enforced(self):
        with pytest.raises(ValueError):
            reversed_polynomial([0.5, 1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="alpha_n"):
            reversed_polynomial([0.5, complex("nan")])

    def test_nonvanishing_on_disk(self):
        rng = np.random.default_rng(32)
        for N in (1, 3, 6):
            assert disk_nonvanishing(reversed_polynomial(_random_alpha(rng, N)))
        # a polynomial with a root inside the disk must be flagged
        assert not disk_nonvanishing([1.0, -2.0])


class TestXSeries:
    def test_matches_polynomial_coefficients(self):
        rng = np.random.default_rng(33)
        a = _random_alpha(rng, 6)
        r = reversed_polynomial(a)
        for n in range(1, 7):
            np.testing.assert_allclose(
                x_series_truncated(a, n, a.size), r[n], atol=1e-12
            )

    def test_callable_rule(self):
        rule = lambda i: 0.5 / i if i <= 4 else 0.0
        seq = np.array([0.5, 0.25, 0.5 / 3, 0.125])
        for n in (1, 2, 3):
            assert x_series_truncated(rule, n, 4) == pytest.approx(
                x_series_truncated(seq, n, 4)
            )

    def test_degree_one_closed_form(self):
        # x_1 truncated at N is sum alpha_{k+1} conj(alpha_k)
        rng = np.random.default_rng(34)
        a = _random_alpha(rng, 5)
        full = np.concatenate([[1.0], a])
        expect = np.sum(full[1:] * np.conj(full[:-1]))
        np.testing.assert_allclose(x_series_truncated(a, 1, 5), expect)


class TestMeasureRoundTrip:
    def test_density_normalized_nonnegative(self):
        rng = np.random.default_rng(35)
        rho = measure_density(_random_alpha(rng, 4), 1024)
        assert rho.min() > 0
        assert rho.mean() == pytest.approx(1.0, abs=1e-12)

    def test_first_moment_sign_convention(self):
        a = 0.5
        c = trig_moments(measure_density([a], 2048), 1)
        assert c[0] == pytest.approx(1.0, abs=1e-12)
        assert c[1] == pytest.approx(-a, abs=1e-10)

    def test_roundtrip(self):
        rng = np.random.default_rng(36)
        for N in (1, 3, 6):
            a = _random_alpha(rng, N)
            c = trig_moments(measure_density(a, 4096), N)
            rec = verblunsky_from_moments(c)
            np.testing.assert_allclose(rec, a, atol=1e-9)

    @pytest.mark.parametrize("grid", [16, 17, 1000, 4096])
    def test_moments_along_last_axis(self, grid):
        # c_k = (1/grid) sum_j rho_j e^{-ik theta_j} on the real FFT: a 2-D
        # call equals the row-wise 1-D calls bit for bit, and each row
        # matches the full complex FFT.
        rng = np.random.default_rng(grid)
        rho = np.exp(rng.standard_normal((5, grid)))
        K = grid // 2 - 1
        rows = trig_moments(rho, K)
        assert rows.shape == (5, K + 1)
        for r, c in zip(rho, rows):
            assert np.array_equal(trig_moments(r, K), c)
            np.testing.assert_allclose(c, np.fft.fft(r)[: K + 1] / grid, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("grid", [16, 17, 31, 1000, 4096, 16384])
    def test_density_matches_complex_fft(self, grid):
        # The autocorrelation on one real FFT against the modulus of the
        # complex FFT of r_N.  On the two smallest grids every N < grid runs,
        # so N >= grid/2 takes the folded spectrum on an even and an odd grid.
        rng = np.random.default_rng(200 + grid)
        for N in range(grid if grid <= 17 else 9):
            for _ in range(5):
                a = _random_alpha(rng, N)
                r = reversed_polynomial(a)
                norm = float(np.prod(1.0 - np.abs(a) ** 2))
                oracle = norm / np.abs(np.fft.ifft(r, n=grid) * grid) ** 2
                np.testing.assert_allclose(measure_density(a, grid), oracle, rtol=1e-11, atol=0)

    def test_roundtrip_margin_at_benchmark_range(self):
        # roundtrip's default tolerance is 1e-9; inputs in the range the
        # benchmark runs (N <= 6, |alpha| <= 0.6, grid 16384) keep a margin of
        # over 1000x below it.
        rng = np.random.default_rng(201)
        for _ in range(200):
            a = _random_alpha(rng, int(rng.integers(1, 7)))
            rec = verblunsky_from_moments(trig_moments(measure_density(a, 16384), a.size))
            assert np.abs(rec - a).max() <= 1e-12, a

    def test_grid_guards(self):
        with pytest.raises(ValueError):
            measure_density([0.1], 8)
        with pytest.raises(ValueError, match="grid too coarse"):
            measure_density([0.1] * 17, 16)  # 18 polynomial coefficients on 16 points
        assert trig_moments(np.ones(64), 31).shape == (32,)
        with pytest.raises(ValueError, match="below grid/2"):
            trig_moments(np.ones(64), 32)

    @pytest.mark.parametrize("alpha", [[0.99999999], [-0.99999999, 0.3]])
    def test_density_lost_to_rounding_is_an_error(self, alpha):
        # |r_N|^2 = (1 - |alpha|)^2 = 1e-16 at the nearest point rounds to 0
        # or below; dividing by it warned and gave an infinite density.
        with np.errstate(all="raise"), pytest.raises(ValueError, match="not positive"):
            measure_density(alpha, 64)

    def test_not_positive_definite_reports_order(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            verblunsky_from_moments([1.0, 2.0])
        assert info.value.order == 1

    @pytest.mark.parametrize(
        "c,order",
        [([0.0, 0.1], 0), ([-1.0, 0.0, 0.0], 0), ([1.0, 0.0, 2.0], 2), ([1.0, 0.5, 2.0, 0.0], 2)],
    )
    def test_not_positive_definite_first_failing_order(self, c, order):
        with pytest.raises(NotPositiveDefiniteError) as info:
            verblunsky_from_moments(c)
        assert info.value.order == order


class TestLogExpSeries:
    def test_inverse_pair(self):
        rng = np.random.default_rng(37)
        f = np.zeros(9, complex)
        f[1:] = 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        x = exp_series(f)
        np.testing.assert_allclose(log_series(x), f, atol=1e-12)

    def test_low_order_relations(self):
        rng = np.random.default_rng(38)
        a = _random_alpha(rng, 5)
        x = reversed_polynomial(a)
        f = log_series(x)
        np.testing.assert_allclose(f[1], -x[1], atol=1e-12)
        np.testing.assert_allclose(f[2], -x[2] + x[1] ** 2 / 2, atol=1e-12)

    def test_partition_sum_oracle(self):
        rng = np.random.default_rng(39)
        f = np.zeros(8, complex)
        f[1:] = 0.4 * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
        np.testing.assert_allclose(
            exp_series(f), exp_series_partition_sum(f), atol=1e-12
        )

    def test_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            log_series([0.9, 0.1])
        with pytest.raises(ValueError):
            exp_series([0.5])


class TestLogSeriesMatchesLoop:
    """The sparse recursion against the frozen full loop, by exact equality."""

    @pytest.mark.parametrize("N", range(1, 9))
    def test_padded_reversed_polynomials(self, N):
        rng = np.random.default_rng(100 + N)
        for a in (_random_alpha(rng, N, max_mod=0.9), _random_alpha(rng, N).real):
            r = reversed_polynomial(a)
            for order in (N, 50, 300):
                x = np.zeros(order + 1, complex)
                x[: r.size] = r
                assert np.array_equal(log_series(x), log_series_loop(x)), (N, order)

    def test_dense_series(self):
        rng = np.random.default_rng(109)
        for n in (2, 9, 40, 120):
            f = np.zeros(n, complex)
            z = rng.standard_normal((2, n - 1))
            f[1:] = (z[0] + 1j * z[1]) / np.arange(1, n)
            x = exp_series(f)
            assert np.array_equal(log_series(x), log_series_loop(x)), n

    def test_szego_gap_unchanged(self, monkeypatch):
        rng = np.random.default_rng(110)
        alphas = [_random_alpha(rng, N, max_mod=0.9) for N in (1, 2, 3, 4) for _ in range(3)]
        gaps = [szego_identity_gap(a, 300) for a in alphas]
        monkeypatch.setattr(opuc, "log_series", log_series_loop)
        assert gaps == [szego_identity_gap(a, 300) for a in alphas]


class TestSzegoIdentity:
    def test_gap_small_and_decaying(self):
        rng = np.random.default_rng(40)
        a = _random_alpha(rng, 4, max_mod=0.5)
        coarse = szego_identity_gap(a, 50)
        fine = szego_identity_gap(a, 200)
        assert fine <= coarse + 1e-15
        assert fine < 1e-8

    def test_single_coefficient_closed_form(self):
        # -log(1 + a z) has |f_m|^2 = |a|^{2m}/m^2; sum m |f_m|^2 -> -log(1-|a|^2)
        a = 0.5
        assert szego_identity_gap([a], 400) == pytest.approx(0.0, abs=1e-12)


class TestJacobian:
    def test_single_coefficient_is_unit(self):
        det, prod = jacobian_determinant(np.array([0.3 + 0.4j]))
        assert prod == 1.0
        assert det == pytest.approx(1.0, rel=1e-8)

    def test_matches_product_at_random_points(self):
        rng = np.random.default_rng(41)
        for N in (2, 3, 4):
            a = _random_alpha(rng, N)
            det, prod = jacobian_determinant(a)
            assert det == pytest.approx(prod, rel=1e-6)

    def test_boundary_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            jacobian_determinant(np.array([1 - 1e-8 + 0j]))
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            jacobian_determinant(np.full(9, 0.1 + 0j))

    def test_exact_identity(self):
        cases = [
            [(Fraction(1, 4), Fraction(1, 8)), (Fraction(1, 3), Fraction(0))],
            [
                (Fraction(1, 2), Fraction(0)),
                (Fraction(-1, 5), Fraction(1, 5)),
                (Fraction(1, 7), Fraction(2, 7)),
            ],
            [
                (Fraction(1, 3), Fraction(-1, 4)),
                (Fraction(-2, 5), Fraction(0)),
                (Fraction(0), Fraction(3, 7)),
                (Fraction(1, 6), Fraction(1, 2)),
            ],
        ]
        for alphas in cases:
            det, prod = jacobian_determinant_exact(alphas)
            assert det == prod
            expect = Fraction(1)
            for n, (re, im) in enumerate(alphas, start=1):
                expect *= (1 - re * re - im * im) ** (n - 1)
            assert prod == expect

    def test_exact_agrees_with_finite_difference(self):
        alphas = [(Fraction(1, 4), Fraction(1, 8)), (Fraction(1, 3), Fraction(0))]
        det_exact, _ = jacobian_determinant_exact(alphas)
        arr = np.array([complex(re, im) for re, im in alphas])
        det_fd, _ = jacobian_determinant(arr)
        assert det_fd == pytest.approx(float(det_exact), rel=1e-7)

    def test_exact_identity_up_to_eight(self):
        # The same N <= 8 bound as the finite-difference Jacobian.
        pool = [(Fraction(1, 3), Fraction(-1, 4)), (Fraction(-2, 5), Fraction(0)),
                (Fraction(0), Fraction(3, 7)), (Fraction(1, 6), Fraction(1, 2)),
                (Fraction(-1, 2), Fraction(-1, 9)), (Fraction(2, 7), Fraction(1, 5)),
                (Fraction(-3, 8), Fraction(1, 3)), (Fraction(1, 9), Fraction(-2, 3))]
        for N in range(5, 9):
            det, prod = jacobian_determinant_exact(pool[:N])
            assert det == prod
            assert prod == jacobian_determinant_exact(pool[:N - 1])[1] * (
                1 - pool[N - 1][0] ** 2 - pool[N - 1][1] ** 2) ** (N - 1)

    def test_exact_size_guard(self):
        with pytest.raises(ValueError, match="N <= 8"):
            jacobian_determinant_exact([(Fraction(1, 10), Fraction(0))] * 9)

    @settings(max_examples=100)
    @given(rows=st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5]),
                 min_size=n, max_size=n), min_size=n, max_size=n)))
    @example(rows=[[0, 1], [1, 0]])  # a zero pivot: one row swap
    @example(rows=[[1, 2], [2, 4]])  # no pivot left: singular
    def test_integer_det_is_permutation_expansion(self, rows):
        n = len(rows)
        expansion = 0
        for perm in itertools.permutations(range(n)):
            term = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
            for i, j in enumerate(perm):
                term *= rows[i][j]
            expansion += term
        assert _integer_det(rows) == expansion

    @settings(max_examples=100)
    @given(pairs=st.integers(1, 8).flatmap(lambda n: st.lists(
        st.tuples(SMALL_RATIONAL, SMALL_RATIONAL).filter(lambda z: z[0] ** 2 + z[1] ** 2 < 1),
        min_size=n, max_size=n)))
    def test_exact_identity_property(self, pairs):
        # The volume identity over random small rationals, N drawn uniformly in 1..8.
        det, prod = jacobian_determinant_exact(pairs)
        assert det == prod

    def test_matches_product_to_rounding(self):
        # Unit-step differences carry no truncation error, only rounding.
        rng = np.random.default_rng(43)
        for N in range(1, 9):
            for _ in range(25):
                a = _random_alpha(rng, N, max_mod=0.7)
                det, prod = jacobian_determinant(a)
                assert det == pytest.approx(prod, rel=1e-12)


def _x_by_gap_sequences(pairs):
    """x_1..x_N as exact (re, im) pairs, summed term by term over gap sequences."""
    def mul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    def coord(i, conj):
        re, im = (1, 0) if i == 0 else pairs[i - 1]
        return (re, -im) if conj else (re, im)

    out = []
    for n in range(1, len(pairs) + 1):
        total = (0, 0)
        for seq in gap_sequences(n, len(pairs)):
            term = (1, 0)
            for i, j in seq:
                term = mul(term, mul(coord(i, False), coord(j, True)))
            total = (total[0] + term[0], total[1] + term[1])
        out.append(total)
    return out


class TestUnitStepPremise:
    @settings(max_examples=60)
    @given(pairs=st.lists(st.tuples(SMALL_RATIONAL, SMALL_RATIONAL), min_size=1, max_size=4))
    def test_x_affine_in_each_coordinate(self, pairs):
        # x(alpha + 2e) - x(alpha) = 2 (x(alpha + e) - x(alpha)) exactly, for
        # each of the 2N unit directions e: the Jacobians' difference premise.
        def x(row):
            out = _reversed_exact(row)
            assert out == _x_by_gap_sequences(row)
            return out

        base = x(pairs)
        for k, (re, im) in enumerate(pairs):
            for dre, dim in ((1, 0), (0, 1)):
                one, two = (
                    x([*pairs[:k], (re + s * dre, im + s * dim), *pairs[k + 1 :]]) for s in (1, 2)
                )
                for b, x1, x2 in zip(base, one, two):
                    assert (x2[0] - b[0], x2[1] - b[1]) == (2 * (x1[0] - b[0]), 2 * (x1[1] - b[1]))

    @settings(max_examples=60)
    @given(pairs=st.lists(st.tuples(SMALL_RATIONAL, SMALL_RATIONAL), min_size=1, max_size=8))
    def test_lattice_recursion_is_scaled_fraction_recursion(self, pairs):
        # With a_n = L alpha_n and scale L, R_N = L**N r_N, all in ints.
        L = math.lcm(*(c.denominator for z in pairs for c in z))
        lattice = [(int(re * L), int(im * L)) for re, im in pairs]
        scaled = _reversed_exact(lattice, L)
        assert all(type(v) is int for z in scaled for v in z)
        exact = _reversed_exact(pairs)
        assert scaled == [(L ** len(pairs) * re, L ** len(pairs) * im) for re, im in exact]
