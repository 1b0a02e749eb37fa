"""Batched kernels against independent oracles: the gap-sequence sum for the
Szego recursion, the partition sum for exp(-f), and a direct Toeplitz solve
and the measure round trip for Levinson."""

import numpy as np
import pytest
from exp_series_oracle import exp_series, exp_series_partition_sum
from gap_oracle import x_series_truncated
from hypothesis import given, settings
from hypothesis import strategies as st

from verblunsky import kernels
from verblunsky.opuc import (
    log_series,
    measure_density,
    reversed_polynomial,
    trig_moments,
)

PROPERTY = settings(max_examples=100)


def _rand_alphas(rng, S, N, top=0.7):
    return np.ascontiguousarray(
        rng.uniform(0.05, top, (S, N)) * np.exp(2j * np.pi * rng.random((S, N)))
    )


def _gap_sum(alphas, K):
    """x_0..x_K of every row by the gap-sequence sum, x_k = 0 above degree N."""
    N = alphas.shape[1]
    return np.array(
        [[1.0] + [x_series_truncated(row, k, N) for k in range(1, K + 1)] for row in alphas]
    )


def _levinson_by_solve(c, K):
    """alpha_1..alpha_K of one moment row, solving for each monic orthogonal
    p_n directly: sum_k c_{j-k} p_n[k] = 0 for j < n, and alpha_n = conj(p_n(0))."""
    out = []
    for n in range(1, K + 1):
        j = np.arange(n)
        d = j[:, None] - j[None, :]
        T = np.where(d >= 0, c[np.abs(d)], np.conj(c[np.abs(d)]))
        out.append(np.conj(np.linalg.solve(T, -np.conj(c[n - j]))[0]))
    return np.array(out)


def _szego_low_samples_first(alphas, K):
    """The low-coefficient recursion with samples on the first axis, as the
    numpy kernel computed it before its state went samples-last."""
    S, N = alphas.shape
    n0 = min(N, K)
    r = np.zeros((S, K + 1), np.complex128)
    r[:, 0] = 1.0
    for n in range(1, n0 + 1):
        a = alphas[:, n - 1][:, None]
        sub = r[:, : n + 1]
        r[:, : n + 1] = sub + a * np.conj(sub[:, ::-1])
    if N > K:
        top = r[:, ::-1].copy()
        low = r
        for n in range(K + 1, N + 1):
            a = alphas[:, n - 1][:, None]
            new_low = low.copy()
            new_low[:, 1:] += a[:, 0][:, None] * np.conj(top[:, :-1])
            new_top = np.empty_like(top)
            new_top[:, :1] = a * np.conj(low[:, :1])
            new_top[:, 1:] = top[:, :-1] + a * np.conj(low[:, 1:])
            low, top = new_low, new_top
        return low
    return r


def _disk_rows(max_rows, max_len, radius):
    """Rows of complex coefficients of modulus at most ``radius``."""
    entry = st.tuples(
        st.floats(0.0, radius), st.floats(0.0, 2 * np.pi, exclude_max=True)
    ).map(lambda t: t[0] * np.exp(1j * t[1]))
    return st.integers(0, max_len).flatmap(
        lambda n: st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=max_rows
        )
    ).map(lambda rows: np.array(rows, np.complex128).reshape(len(rows), -1))


class TestSzegoLow:
    @pytest.mark.parametrize("N,K", [(12, 5), (5, 5), (3, 6), (25, 4)])
    def test_against_scalar(self, N, K):
        # N > K: tracking K+1 coefficients must give bit for bit the low rows
        # of tracking all N+1, since rows <= K depend only on rows <= K; the
        # property test checks the latter against the gap-sequence sum.
        # N <= K: that sum itself.
        rng = np.random.default_rng(50)
        alphas = _rand_alphas(rng, 20, N)
        out = kernels.szego_low_coefficients(alphas, K)
        assert out.shape == (20, K + 1)
        if N > K:
            expect = kernels.szego_low_coefficients(alphas, N)[:, : K + 1]
            assert np.array_equal(out.view(np.float64), expect.view(np.float64))
        else:
            np.testing.assert_allclose(out, _gap_sum(alphas, K), atol=1e-13)

    @PROPERTY
    @given(alphas=_disk_rows(3, 6, 0.99), K=st.integers(0, 7))
    def test_equals_gap_sequence_sum(self, alphas, K):
        np.testing.assert_allclose(
            kernels.szego_low_coefficients(alphas, K), _gap_sum(alphas, K), rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("N,K", [(3, 6), (5, 5), (40, 3), (25, 0), (0, 2)])
    def test_numpy_bitwise_equals_samples_first_recursion(self, N, K):
        # The samples-last kernel must reproduce the samples-first recursion
        # bit for bit, so Monte Carlo streams and reports stay unchanged.
        rng = np.random.default_rng(55)
        alphas = _rand_alphas(rng, 37, N, top=0.95)
        out = kernels.szego_low_coefficients(alphas, K)
        expect = _szego_low_samples_first(alphas, K)
        assert out.shape == expect.shape and out.flags.c_contiguous
        assert np.array_equal(out.view(np.float64), expect.view(np.float64))

    @PROPERTY
    @given(alphas=_disk_rows(4, 12, 0.99), real=st.booleans(), K=st.integers(0, 4),
           data=st.data())
    def test_level_splits_continue_the_state(self, alphas, real, K, data):
        # Levels fed to one state in consecutive slices, empty ones included,
        # give the one-call result bit for bit: the alpha sampler feeds each
        # block's levels to its recursion a step at a time.
        if real:
            alphas = alphas.real + 0j
        S, N = alphas.shape
        levels = np.ascontiguousarray(alphas.T)
        whole = kernels._szego_low_levels(levels, kernels._szego_state(K, S)).copy()
        cuts = sorted(data.draw(st.lists(st.integers(0, N), max_size=6)))
        state = kernels._szego_state(K, S)
        for lo, hi in zip([0, *cuts], [*cuts, N]):
            got = kernels._szego_low_levels(levels[lo:hi], state)
        assert got.tobytes() == whole.tobytes()
        assert whole.tobytes() == kernels.szego_low_coefficients(alphas, K).tobytes()

    def test_batch_equals_scalar_entry_point(self):
        # The Monte Carlo path (a batch, K < N) and the scalar OPUC entry
        # point (one row, K = N) must give bit for bit the same low
        # coefficients.
        rng = np.random.default_rng(51)
        alphas = _rand_alphas(rng, 64, 40)
        out = kernels.szego_low_coefficients(alphas, 7)
        expect = np.array([reversed_polynomial(row)[:8] for row in alphas])
        assert np.array_equal(out.view(np.float64), expect.view(np.float64))

    def test_rejects_one_dimensional_alphas(self):
        with pytest.raises(ValueError):
            kernels.szego_low_coefficients(np.zeros(4, complex), 2)


class TestExpNeg:
    def test_against_scalar(self):
        rng = np.random.default_rng(52)
        f = rng.standard_normal((16, 9)) + 1j * rng.standard_normal((16, 9))
        f[:, 0] = 0.0
        f = np.ascontiguousarray(f)
        out = kernels.exp_neg_series(f)
        for s in range(16):
            np.testing.assert_allclose(out[s], exp_series_partition_sum(f[s]), atol=1e-12)

    @PROPERTY
    @given(f=_disk_rows(3, 7, 1.0))
    def test_equals_partition_sum(self, f):
        f = np.hstack([np.zeros((f.shape[0], 1)), f])
        out = kernels.exp_neg_series(f)
        for row, expect in zip(out, f):
            np.testing.assert_allclose(
                row, exp_series_partition_sum(expect), rtol=1e-12, atol=1e-12
            )

    @PROPERTY
    @given(f=_disk_rows(1, 8, 1.0))
    def test_log_inverts_exp(self, f):
        f = np.concatenate([[0.0], f[0]])
        np.testing.assert_allclose(log_series(exp_series(f)), f, rtol=1e-12, atol=1e-12)

    def test_constant_term_checked(self):
        with pytest.raises(ValueError):
            kernels.exp_neg_series(np.ones((2, 3), complex))

    def test_rejects_one_dimensional_f(self):
        with pytest.raises(ValueError, match="modes"):
            kernels.exp_neg_series(np.zeros(3, complex))


class TestLevinsonBatch:
    def _moment_rows(self, rng, S, N, K):
        rows = []
        ref = []
        for _ in range(S):
            a = _rand_alphas(rng, 1, N, top=0.6)[0]
            c = trig_moments(measure_density(a, 512), K)
            rows.append(c)
            ref.append(_levinson_by_solve(c, K))
        return np.ascontiguousarray(rows), np.array(ref)

    def test_against_scalar(self):
        rng = np.random.default_rng(53)
        c, ref = self._moment_rows(rng, 12, 7, 5)
        out, ok = kernels.levinson_batch(c, 5)
        assert ok.all()
        np.testing.assert_allclose(out, ref, atol=1e-12)

    @PROPERTY
    @given(alphas=_disk_rows(3, 6, 0.4))
    def test_recovers_alpha_from_density_moments(self, alphas):
        # |alpha| <= 0.4 and grid 4096 keep the quadrature error near 1e-13.
        K = alphas.shape[1]
        c = np.array([trig_moments(measure_density(a, 4096), K) for a in alphas])
        out, ok = kernels.levinson_batch(c, K)
        assert ok.all()
        np.testing.assert_allclose(out, alphas, rtol=0, atol=1e-11)

    def test_flags_bad_rows(self):
        rng = np.random.default_rng(54)
        c, _ = self._moment_rows(rng, 3, 6, 4)
        c[1, 1] = 5.0  # |c_1| > c_0 breaks positive definiteness at order 1
        out, ok = kernels.levinson_batch(c, 4)
        assert ok.tolist() == [True, False, True]

    def test_rejects_too_few_moments(self):
        with pytest.raises(ValueError):
            kernels.levinson_batch(np.ones((3, 2), complex), 4)

