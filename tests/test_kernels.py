"""Batched kernels: numba and numpy paths must agree bit-for-bit in spirit."""

import os
import subprocess
import sys

import numpy as np
import pytest

from verblunsky import kernels
from verblunsky.opuc import exp_series, reversed_polynomial, verblunsky_from_moments
from verblunsky.opuc import measure_density, trig_moments

IMPLS = [
    ("numpy", kernels._szego_low_np, kernels._exp_neg_np, kernels._levinson_np),
    ("numba", kernels._szego_low_nb, kernels._exp_neg_nb, kernels._levinson_nb),
]


def _rand_alphas(rng, S, N, top=0.7):
    return np.ascontiguousarray(
        rng.uniform(0.05, top, (S, N)) * np.exp(2j * np.pi * rng.random((S, N)))
    )


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


class TestSzegoLow:
    @pytest.mark.parametrize("name,szego,_e,_l", IMPLS)
    @pytest.mark.parametrize("N,K", [(12, 5), (5, 5), (3, 6), (25, 4)])
    def test_against_scalar(self, name, szego, _e, _l, N, K):
        rng = np.random.default_rng(50)
        alphas = _rand_alphas(rng, 20, N)
        out = szego(alphas, K)
        assert out.shape == (20, K + 1)
        for s in range(20):
            r = reversed_polynomial(alphas[s])
            expect = np.zeros(K + 1, complex)
            take = min(K + 1, r.size)
            expect[:take] = r[:take]
            np.testing.assert_allclose(out[s], expect, atol=1e-13)

    @pytest.mark.parametrize("N,K", [(3, 6), (5, 5), (40, 3), (25, 0), (0, 2)])
    def test_numpy_bitwise_equals_samples_first_recursion(self, N, K):
        # The samples-last kernel must reproduce the samples-first recursion
        # bit for bit, so Monte Carlo streams and reports stay unchanged.
        rng = np.random.default_rng(55)
        alphas = _rand_alphas(rng, 37, N, top=0.95)
        out = kernels._szego_low_np(alphas, K)
        expect = _szego_low_samples_first(alphas, K)
        assert out.shape == expect.shape and out.flags.c_contiguous
        assert np.array_equal(out.view(np.float64), expect.view(np.float64))

    def test_backends_agree(self):
        rng = np.random.default_rng(51)
        alphas = _rand_alphas(rng, 64, 40)
        np.testing.assert_allclose(
            kernels._szego_low_np(alphas, 7),
            kernels._szego_low_nb(alphas, 7),
            atol=1e-13,
        )

    def test_dispatcher_validates_shape(self):
        with pytest.raises(ValueError):
            kernels.szego_low_coefficients(np.zeros(4, complex), 2)


class TestExpNeg:
    @pytest.mark.parametrize("name,_s,expneg,_l", IMPLS)
    def test_against_scalar(self, name, _s, expneg, _l):
        rng = np.random.default_rng(52)
        f = rng.standard_normal((16, 9)) + 1j * rng.standard_normal((16, 9))
        f[:, 0] = 0.0
        f = np.ascontiguousarray(f)
        out = expneg(f)
        for s in range(16):
            np.testing.assert_allclose(out[s], exp_series(f[s]), atol=1e-12)

    def test_constant_term_checked(self):
        with pytest.raises(ValueError):
            kernels.exp_neg_series(np.ones((2, 3), complex))


class TestLevinsonBatch:
    def _moment_rows(self, rng, S, N, K):
        rows = []
        ref = []
        for _ in range(S):
            a = _rand_alphas(rng, 1, N, top=0.6)[0]
            c = trig_moments(measure_density(a, 512), K)
            rows.append(c)
            ref.append(verblunsky_from_moments(c))
        return np.ascontiguousarray(rows), np.array(ref)

    @pytest.mark.parametrize("name,_s,_e,levinson", IMPLS)
    def test_against_scalar(self, name, _s, _e, levinson):
        rng = np.random.default_rng(53)
        c, ref = self._moment_rows(rng, 12, 7, 5)
        out, ok = levinson(c, 5)
        assert ok.all()
        np.testing.assert_allclose(out, ref, atol=1e-12)

    @pytest.mark.parametrize("name,_s,_e,levinson", IMPLS)
    def test_flags_bad_rows(self, name, _s, _e, levinson):
        rng = np.random.default_rng(54)
        c, _ = self._moment_rows(rng, 3, 6, 4)
        c[1, 1] = 5.0  # |c_1| > c_0 breaks positive definiteness at order 1
        out, ok = levinson(c, 4)
        assert ok.tolist() == [True, False, True]

    def test_dispatcher_validates_shape(self):
        with pytest.raises(ValueError):
            kernels.levinson_batch(np.ones((3, 2), complex), 4)


class TestBackendSelection:
    def test_reports_a_backend(self):
        assert kernels.backend_name() in ("numba", "numpy")

    def test_env_flag_forces_numpy(self):
        env = dict(os.environ, VERBLUNSKY_PURE_NUMPY="1")
        out = subprocess.run(
            [sys.executable, "-c", "from verblunsky import kernels; print(kernels.backend_name())"],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == "numpy"

    def test_unset_flag_prefers_numba_when_available(self):
        env = {k: v for k, v in os.environ.items() if k != "VERBLUNSKY_PURE_NUMPY"}
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from verblunsky import kernels; "
                "print(kernels.backend_name(), kernels.HAVE_NUMBA)",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        name, have = out.stdout.split()
        assert name == ("numba" if have == "True" else "numpy")
