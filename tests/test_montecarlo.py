"""Sampler laws, the determinism contract, and the MC estimator wrapper."""

import concurrent.futures
import csv
import decimal
import io
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest
import serial_blocks

from verblunsky import (
    MultiIndex,
    cli,
    montecarlo,
    mc_x_moment,
    pushforward_experiment,
)
from verblunsky.kernels import levinson_batch
from verblunsky.montecarlo import (
    BLOCK_SIZE,
    _worker_chunks,
    mc_reference,
    pushforward_grid,
    sample_alpha_batch,
    sample_f_batch,
)

P1 = MultiIndex({1: 1})


def _band(observed, expected, stderr, sigmas=5.0):
    assert abs(observed - expected) <= sigmas * stderr + 1e-12, (
        f"{observed} vs {expected} (stderr {stderr})"
    )


def _alpha_from_normals(z, beta):
    """(b, N) alpha of one block's level-major normals z (N, b, 2), by the documented formula."""
    z = z[..., 0] + 1j * z[..., 1]
    n = np.arange(1, len(z) + 1)[:, None]
    sq = z.real**2 + z.imag**2
    return (z * np.sqrt(-np.expm1(-sq / (2.0 * n * beta)) / sq)).T


class FixedNormals:
    """A generator stand-in whose normals are the given array."""

    def __init__(self, values):
        self.values = values

    def standard_normal(self, *, out):
        assert out.shape == self.values.shape
        out[...] = self.values
        return out


class TestAlphaSampler:
    def test_moments_match_beta_law(self):
        beta, N, count = 1.0, 3, 40000
        a = sample_alpha_batch(beta, N, count, seed=7)
        for n in range(1, N + 1):
            sq = np.abs(a[:, n - 1]) ** 2
            _band(sq.mean(), 1.0 / (n * beta + 1), sq.std(ddof=1) / math.sqrt(count))
            q4 = sq**2
            _band(
                q4.mean(),
                2.0 / ((n * beta + 1) * (n * beta + 2)),
                q4.std(ddof=1) / math.sqrt(count),
            )

    def test_phase_is_uniform(self):
        a = sample_alpha_batch(0.5, 2, 40000, seed=8)
        m = a.mean(axis=0)
        assert np.all(np.abs(m) < 0.02)
        # Under a uniform phase E[u^k] = E[|alpha|^2 u^k] = 0 for u = alpha/|alpha|
        # and k = 1..4; a wrong complex view or real-only normals break some.
        u = a / np.abs(a)
        for k in range(1, 5):
            for v in (u**k, np.abs(a) ** 2 * u**k):
                for col in v.T:
                    st = montecarlo._stats(col)
                    assert abs(st.mean) <= 5 * st.stderr, (k, st)

    def test_zero_direction_gives_zero_alpha(self):
        # A zero normal pair has no direction; the draw is alpha = 0, not NaN,
        # and nothing warns on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drawn = montecarlo._draw(FixedNormals(np.zeros((5, 7, 2))), np.empty((5, 7, 2)))
            a = montecarlo._alpha_levels(drawn, 1.0)
        assert a.shape == (5, 7)
        assert np.all(np.isfinite(a))
        assert np.all(a == 0)

    @pytest.mark.parametrize("beta", [1 / 3, 2 / 3, 3.0])
    def test_modulus_matches_decimal_reference(self, beta):
        # |alpha_n|^2 = 1 - exp(-|z_n|^2 / (2 n beta)) to a relative 1e-14,
        # against 50 digits, up to n = 10**4 and for small |z| too, where
        # |alpha_n|^2 is tiny.  The earlier 1 - u**(1/(n beta)) of a uniform
        # u (here u = exp(-|z|^2 / 2), rounded) misses that bound at n = 200.
        N, levels = 10**4, [1, 2, 3, 10, 200, 1000, 5000, 10**4]
        z = np.random.default_rng(60).standard_normal((N, 6, 2))
        z[:, 3] = (1e-3, -2e-3)
        z[:, 4] = (3e-8, 1e-8)
        z[:, 5] = (-6.0, 5.5)
        a = montecarlo._alpha_levels(montecarlo._draw(FixedNormals(z), np.empty_like(z)), beta)
        ctx = decimal.Context(prec=50)
        D = decimal.Decimal
        old_err = 0.0
        for n in levels:
            nb = ctx.multiply(n, D(beta))
            for (x, y), got in zip(z[n - 1], a[n - 1]):
                sq = ctx.add(ctx.multiply(D(x), D(x)), ctx.multiply(D(y), D(y)))
                ref = float(ctx.subtract(1, ctx.exp(ctx.minus(ctx.divide(sq, 2 * nb)))))
                assert abs(got.real**2 + got.imag**2 - ref) <= 1e-14 * ref, (n, x, y)
                if n != 200:
                    continue
                # The old formula's error for the uniform u it would have drawn;
                # u rounds to 1 where |z| is tiny, and is then skipped.
                u = float(ctx.exp(ctx.minus(ctx.divide(sq, 2))))
                if u < 1:
                    old_ref = float(ctx.subtract(1, ctx.power(D(u), ctx.divide(1, nb))))
                    old = 1.0 - u ** (1.0 / (n * beta))
                    old_err = max(old_err, abs(old - old_ref) / old_ref)
        assert old_err > 1e-14

    def test_moments_at_workload_truncation(self):
        # E|alpha_n|^2 = 1/(n beta + 1) and E|alpha_n|^4 = 2/((n beta + 1)(n beta + 2))
        # at the first and last of n_trunc = 200 levels, beta = 2/3.
        beta, N, count = 2 / 3, 200, 2 * BLOCK_SIZE
        a = sample_alpha_batch(beta, N, count, seed=61)
        for n in (1, N):
            sq = np.abs(a[:, n - 1]) ** 2
            nb = n * beta
            for values, expect in ((sq, 1 / (nb + 1)), (sq**2, 2 / ((nb + 1) * (nb + 2)))):
                st = montecarlo._stats(values)
                _band(st.mean, expect, st.stderr, sigmas=4.0)

    def test_inside_unit_disk(self):
        a = sample_alpha_batch(2.0, 4, 5000, seed=9)
        assert np.abs(a).max() < 1.0

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            sample_alpha_batch(0.0, 2, 10, seed=0)


@pytest.mark.parametrize("sampler", [
    lambda beta: sample_alpha_batch(beta, 2, 10, seed=0),
    lambda beta: sample_f_batch(beta, 2, 10, seed=0),
    lambda beta: mc_x_moment("gaussian", P1, P1, beta, 8, 10, 0),
    lambda beta: pushforward_experiment(beta, 8, 0.5, 10, 2, seed=0),
], ids=["alpha", "f", "mc", "pushforward"])
def test_samplers_reject_nan_beta(sampler):
    # NaN <= 0 is False and 1/NaN is not inf, so only "not beta > 0" stops it
    # before it turns every draw into NaN.
    with pytest.raises(ValueError, match="beta must be positive"):
        sampler(math.nan)


class TestFSampler:
    def test_moments(self):
        beta, N, count = 0.5, 3, 40000
        f = sample_f_batch(beta, N, count, seed=11)
        assert np.all(f[:, 0] == 0)
        for n in range(1, N + 1):
            sq = np.abs(f[:, n]) ** 2
            _band(sq.mean(), 1.0 / (n * beta), sq.std(ddof=1) / math.sqrt(count))
        q4 = np.abs(f[:, 1]) ** 4
        _band(q4.mean(), 2.0 / beta**2, q4.std(ddof=1) / math.sqrt(count))
        cross = f[:, 1] * np.conj(f[:, 2])
        _band(cross.mean(), 0.0, np.abs(cross).std(ddof=1) / math.sqrt(count))

    @pytest.mark.parametrize("beta,r,modes", [(1.0, 0.9, 64), (0.5, 0.6, 8)])
    def test_field_variance(self, beta, r, modes):
        # X = 2 Re f_+(r) has variance sum_{n <= modes} 2 r^(2n) / (n beta),
        # the covariance behind pushforward_experiment's gamma^2 = 2/beta.
        # The band is 4 standard errors of the sample variance of a Gaussian,
        # var * sqrt(2 / (count - 1)); the scale sqrt(1/(n beta)) fails it.
        count = 20000
        f = sample_f_batch(beta, modes, count, seed=62)
        n = np.arange(1, modes + 1)
        var = float(np.sum(2 * r ** (2 * n) / (n * beta)))

        def sigmas_off(f):
            x = 2 * (f[:, 1:] @ r**n).real
            return abs(x.var(ddof=1) - var) / (var * math.sqrt(2 / (count - 1)))

        assert sigmas_off(f) <= 4
        assert sigmas_off(f * math.sqrt(2)) > 4

    def test_f_modes_writes_f0_and_leaves_later_columns(self):
        # f_0 is written, not inherited from the output buffer, and columns
        # past N are not touched (the pushforward reuses its zero tail).
        beta, N = 0.75, 4
        z = np.random.default_rng(63).standard_normal((5, N, 2))
        out = np.full((5, N + 2), np.nan, np.complex128)
        assert montecarlo._f_modes(z, beta, out) is out
        n = np.arange(1, N + 1)
        assert np.all(out[:, 0] == 0)
        assert np.array_equal(out[:, 1 : N + 1],
                              (z[..., 0] + 1j * z[..., 1]) * np.sqrt(1.0 / (2.0 * n * beta)))
        assert np.all(np.isnan(out[:, N + 1]))


class TestDeterminism:
    def test_same_seed_identical(self):
        a = sample_alpha_batch(1.0, 3, 1000, seed=42)
        b = sample_alpha_batch(1.0, 3, 1000, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        a = sample_alpha_batch(1.0, 3, 100, seed=1)
        b = sample_alpha_batch(1.0, 3, 100, seed=2)
        assert not np.array_equal(a, b)

    def test_worker_count_changes_stream_not_law(self):
        a1 = sample_f_batch(1.0, 2, 999, seed=6, workers=1)
        a3 = sample_f_batch(1.0, 2, 999, seed=6, workers=3)
        assert a1.shape == a3.shape
        assert not np.array_equal(a1, a3)
        np.testing.assert_array_equal(a3, sample_f_batch(1.0, 2, 999, seed=6, workers=3))

    def test_chunk_split(self):
        assert _worker_chunks(10, 3) == [4, 3, 3]
        assert _worker_chunks(4, 4) == [1, 1, 1, 1]
        assert sum(_worker_chunks(100001, 7)) == 100001
        # Independent of the worker count; kept at 10**6 so that an O(workers)
        # regression fails in milliseconds instead of allocating a huge list.
        assert _worker_chunks(3, 10**6) == [1, 1, 1]
        with pytest.raises(ValueError):
            _worker_chunks(5, 0)

    @pytest.mark.parametrize("kind, samples, split", [
        # The first worker spans two blocks and ends on a one-row block; the
        # second has one full block.
        pytest.param("alpha", 2 * BLOCK_SIZE + 1, ((BLOCK_SIZE, 1), (BLOCK_SIZE,)), id="alpha"),
        pytest.param("f", 2 * BLOCK_SIZE + 1, ((BLOCK_SIZE, 1), (BLOCK_SIZE,)), id="f"),
        # Each worker's chunk holds a full block and a partial one.
        pytest.param("alpha", 2 * BLOCK_SIZE + 600, ((BLOCK_SIZE, 300), (BLOCK_SIZE, 300)),
                     id="alpha-partials"),
    ])
    def test_batch_samplers_follow_documented_layout(self, kind, samples, split):
        # Rebuilt from raw PCG64 draws by the module's layout, with two workers:
        # per block, alpha draws standard_normal((N, block, 2)), row n - 1 for
        # alpha_n, and f draws standard_normal((block, N, 2)).
        beta, N, seed, workers = 0.75, 3, 41, 2
        n = np.arange(1, N + 1)
        expect = []
        children = np.random.SeedSequence(seed).spawn(workers)
        for child, blocks in zip(children, split):
            rng = np.random.Generator(np.random.PCG64(child))
            for b in blocks:
                if kind == "alpha":
                    expect.append(_alpha_from_normals(rng.standard_normal((N, b, 2)), beta))
                else:
                    z = rng.standard_normal((b, N, 2))
                    f = (z[:, :, 0] + 1j * z[:, :, 1]) * np.sqrt(1.0 / (2.0 * n * beta))
                    expect.append(np.column_stack([np.zeros(b), f]))
        sampler = sample_alpha_batch if kind == "alpha" else sample_f_batch
        got = sampler(beta, N, samples, seed, workers=workers)
        assert np.array_equal(got, np.concatenate(expect))

    def test_leading_axis_slices_equal_the_whole_draw(self):
        # standard_normal fills in C order from one sequential stream, so
        # uneven leading-axis slices drawn in turn are the whole-array call,
        # and leave the generator where it leaves it.  10**6 values make the
        # ziggurat's rejection branch run.
        shape = (1000, 500, 2)
        whole_rng = np.random.Generator(np.random.PCG64(57))
        whole = whole_rng.standard_normal(shape)
        rng = np.random.Generator(np.random.PCG64(57))
        cuts = [0, 1, 4, 4, 333, 334, 999, 1000]
        parts = [rng.standard_normal((hi - lo, *shape[1:])) for lo, hi in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(parts), whole)
        assert rng.bit_generator.state == whole_rng.bit_generator.state

    def test_idle_workers_get_no_generator(self, monkeypatch):
        # With more workers than samples only the first `samples` workers
        # draw; the idle ones are never spawned, and the draws are those of
        # workers == samples.
        spawned, made = [], []
        pcg64 = np.random.PCG64

        class CountingSeedSequence(np.random.SeedSequence):
            def spawn(self, n):
                spawned.append(n)
                return super().spawn(n)

        def counting(seed):
            made.append(seed)
            return pcg64(seed)

        want = sample_f_batch(1.0, 3, 5, seed=4, workers=5)
        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        monkeypatch.setattr(np.random, "PCG64", counting)
        got = sample_f_batch(1.0, 3, 5, seed=4, workers=10_000)
        assert spawned == [5]
        assert len(made) == 5
        np.testing.assert_array_equal(got, want)


class TestMcXMoment:
    @pytest.mark.parametrize("side", ["gaussian", "alpha"])
    def test_agrees_with_exact_value(self, side):
        stats = mc_x_moment(side, P1, P1, beta=1.0, n_trunc=40, samples=20000, seed=13)
        ref = mc_reference(side, P1, P1, 1.0, 40)
        _band(stats.mean.real, ref, stats.stderr)
        assert abs(stats.mean.imag) < 5 * stats.stderr
        assert stats.count == 20000

    def test_degree_two_gaussian(self):
        p = MultiIndex({1: 1, 2: 1})
        stats = mc_x_moment("gaussian", p, p, beta=2.0, n_trunc=16, samples=30000, seed=14)
        _band(stats.mean.real, mc_reference("gaussian", p, p, 2.0, 16), stats.stderr)

    def test_reproducible(self):
        kw = dict(beta=1.0, n_trunc=8, samples=500, seed=21)
        assert mc_x_moment("gaussian", P1, P1, **kw) == mc_x_moment("gaussian", P1, P1, **kw)

    @pytest.mark.parametrize(
        "p,q,beta,n_trunc,samples,seed,workers,mean,stderr",
        [
            ({1: 2}, {2: 1}, 1.0, 40, 20000, 2024, 1,
             0.9246574554158299 + 0.010241176512894998j, 0.015948629518286305),
            ({1: 2}, {2: 1}, 1.0, 40, 20000, 2024, 3,
             0.9291103613546599 + 0.0020082409940154066j, 0.016585371565408943),
            ({2: 1}, {2: 1}, 0.5, 12, 9000, 5, 2,
             2.149803437174993 - 6.964937841790698e-19j, 0.03803480440291473),
        ],
        # Ids name the inputs only, so re-recording the values keeps the names.
        ids=["p0-q0-1.0-40-20000-2024-1", "p1-q1-1.0-40-20000-2024-3", "p2-q2-0.5-12-9000-5-2"],
    )
    def test_alpha_side_pinned(self, p, q, beta, n_trunc, samples, seed, workers, mean, stderr):
        # Recorded from the level-major layout, one complex normal per
        # coefficient: the alpha-side stream and statistics must not move when
        # the kernel's internals change.
        stats = mc_x_moment(
            "alpha", MultiIndex(p), MultiIndex(q), beta, n_trunc, samples, seed,
            workers=workers,
        )
        assert stats.mean == mean
        assert stats.stderr == stderr
        assert stats.count == samples

    def test_gaussian_side_follows_documented_layout(self, tmp_path):
        # Per block: standard_normal((block, K, 2)) scaled by sqrt(1/(2 n beta)),
        # here with K = 2, two workers and two blocks in each worker's chunk.
        p, q = MultiIndex({2: 1}), MultiIndex({1: 2})
        beta, samples, seed, workers = 0.75, 2 * BLOCK_SIZE + 600, 31, 2
        out = tmp_path / "x.csv"
        stats = mc_x_moment(
            "gaussian", p, q, beta, 8, samples, seed, workers=workers, dump_csv=str(out)
        )
        scale = np.sqrt(1.0 / (2.0 * np.arange(1, 3) * beta))
        expect = []
        children = np.random.SeedSequence(seed).spawn(workers)
        for child, chunk in zip(children, (samples // 2, samples // 2)):
            rng = np.random.Generator(np.random.PCG64(child))
            for b in (BLOCK_SIZE, chunk - BLOCK_SIZE):
                z = rng.standard_normal((b, 2, 2))
                f = (z[:, :, 0] + 1j * z[:, :, 1]) * scale
                x1 = -f[:, 0]
                x2 = -f[:, 1] + f[:, 0] ** 2 / 2
                expect.append(x2 * np.conj(x1**2))
        expect = np.concatenate(expect)
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        got = np.array([complex(float(r), float(i)) for _, r, i in rows])
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-15)
        assert stats.count == samples

    def test_csv_dump(self, tmp_path):
        out = tmp_path / "samples.csv"
        stats = mc_x_moment(
            "alpha", P1, P1, beta=1.0, n_trunc=8, samples=50, seed=4, dump_csv=str(out)
        )
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# raw x-monomial samples")
        assert lines[1].startswith("# columns: index, real, imag")
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 50
        vals = np.array([complex(float(r), float(i)) for _, r, i in rows])
        assert complex(vals.mean()) == pytest.approx(stats.mean, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="side"):
            mc_x_moment("exact", P1, P1, 1.0, 8, 10, 0)
        with pytest.raises(ValueError, match="beta"):
            mc_x_moment("alpha", P1, P1, -1.0, 8, 10, 0)
        with pytest.raises(ValueError, match="too small"):
            mc_x_moment("gaussian", P1, P1, 1e-320, 8, 10, 0)
        with pytest.raises(ValueError, match="degree"):
            mc_x_moment("alpha", P1, MultiIndex({2: 1}), 1.0, 8, 10, 0)
        with pytest.raises(ValueError, match="degree"):
            big = MultiIndex({1: 5})
            mc_x_moment("alpha", big, big, 1.0, 40, 10, 0)
        with pytest.raises(ValueError, match="n_trunc"):
            mc_x_moment("alpha", P1, P1, 1.0, 3, 10, 0)
        with pytest.raises(ValueError, match="samples"):
            mc_x_moment("alpha", P1, P1, 1.0, 8, 1, 0)

    def test_overflowing_samples_raise(self):
        # At beta = 1e-200 the reference 1/beta is a float but the samples'
        # squares are not; an infinite stderr would pass the 4-sigma gate.
        assert mc_reference("gaussian", P1, P1, 1e-200, 8) == 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows a float"):
                mc_x_moment("gaussian", P1, P1, 1e-200, 8, 10, 0)

    def test_reference_values(self):
        assert mc_reference("gaussian", P1, P1, 1, 8) == 1.0
        n_trunc = 25
        expect = Fraction(1, 2) * (1 - Fraction(1, 2 * n_trunc + 1))
        assert mc_reference("alpha", P1, P1, 2, n_trunc) == pytest.approx(float(expect))


class TestCsvDump:
    # NaN, inf and 1e300 (whose square overflows) leave no finite stderr, so
    # the call raises once every row is dumped, and removes the dump.
    NON_FINITE = [0.0, -0.0, 1.5, -2.25e-300, 1e300, math.nan, math.inf, -math.inf, 1 / 3,
                  5e-324]
    # Special floats that keep the stderr finite, so the dump is kept: the
    # only kind of value a kept dump can hold.
    FINITE = [0.0, -0.0, 1.5, -2.25e-300, 1e150, 1 / 3, 5e-324]

    @staticmethod
    def _dump(side, special, path):
        """Run a dumping mc_x_moment whose blocks start with ``special`` in
        both parts; returns each block's monomial values."""
        # Two workers with two blocks each, so rows are numbered across blocks.
        seen = []
        monomial = montecarlo._monomial

        def recording(x, p, q):
            out = monomial(x, p, q)
            out.real[: len(special)] = special
            out.imag[: len(special)] = special[::-1]
            seen.append(out)
            return out

        p, q = MultiIndex({2: 1}), MultiIndex({1: 2})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_monomial", recording)
            mc_x_moment(side, p, q, 0.75, 8, 2 * BLOCK_SIZE + 600, 17, workers=2,
                        dump_csv=str(path))
        return seen

    @pytest.mark.parametrize("side", ["gaussian", "alpha"])
    def test_dump_bytes_match_csv_writer(self, side, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="overflows a float"):
            self._dump(side, self.NON_FINITE, out)
        assert not out.exists()
        seen = self._dump(side, self.FINITE, out)
        assert len(seen) == 4
        expect = io.StringIO()
        expect.write("# raw x-monomial samples, one row per sample\n")
        expect.write("# columns: index, real, imag\n")
        writer = csv.writer(expect)
        for i, v in enumerate(np.concatenate(seen)):
            writer.writerow([i, repr(float(v.real)), repr(float(v.imag))])
        assert out.read_bytes() == expect.getvalue().encode()


class TestPushforward:
    def test_beta_two_runs_without_warning(self):
        # gamma^2 = 2/beta: beta = 2 is subcritical, so nothing guards it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = pushforward_experiment(2.0, 16, 0.9, 40, 2, seed=2)
        assert all(0.0 < st.mean < 1.0 for st in stats)

    def test_parameter_guards(self):
        with pytest.raises(ValueError, match="radius"):
            pushforward_experiment(1.0, 8, 1.0, 10, 2, seed=0)
        with pytest.raises(ValueError, match="grid"):
            pushforward_experiment(1.0, 8, 0.9, 10, 600, seed=0)
        with pytest.raises(ValueError, match="max_alpha"):
            pushforward_experiment(1.0, 8, 0.9, 10, 0, seed=0)
        with pytest.raises(ValueError, match="modes must be >= 0"):
            pushforward_experiment(1.0, -2, 0.5, 10, 2, seed=0)
        with pytest.raises(ValueError, match="two samples"):
            pushforward_experiment(1.0, 8, 0.5, 1, 2, seed=0)

    def test_grid_is_derived_from_modes(self):
        assert [pushforward_grid(m) for m in (0, 256, 257, 1000)] == [1024, 1024, 1028, 4000]

    def test_zero_modes_gives_zero_alpha(self):
        for st in pushforward_experiment(1.0, 0, 0.9, 5, 3, seed=0):
            assert st.mean == 0.0
            assert st.stderr == 0.0
            assert st.count == 5

    def test_small_run_shape_and_bias_direction(self):
        stats = pushforward_experiment(1.0, 32, 0.9, 300, 3, seed=17)
        assert len(stats) == 3
        for n, st in enumerate(stats, start=1):
            assert st.count == 300
            assert 0.0 < st.mean < 1.0 / (n + 1)  # truncation biases downward

    def test_reproducible(self):
        a = pushforward_experiment(1.0, 16, 0.9, 40, 2, seed=23)
        b = pushforward_experiment(1.0, 16, 0.9, 40, 2, seed=23)
        assert a == b

    def test_overflowing_rows_stay_flagged(self):
        # Rows of F on a 1024-point grid, given to the density step as half
        # spectra: (a) e^709 at three points, each finite but with a sum past
        # the largest float; (b) e^711, itself infinite; (c) an ordinary row.
        # Row (a)'s points are about a third of the circle apart, so c_1 and
        # c_2 stay finite and only the c_0 division flags it: Levinson is
        # scale-free, and the raw moments give alpha = 0.
        grid, max_alpha = 1024, 2
        F = np.zeros((3, grid))
        F[0, [0, 341, 683]] = 709.0
        F[1, 7] = 711.0
        F[2] = np.cos(2 * np.pi * np.arange(grid) / grid)
        half = np.fft.rfft(F, axis=1, norm="forward")
        with np.errstate(over="ignore"):
            e = np.exp(np.fft.irfft(half, grid, axis=1, norm="forward"))
            assert np.isfinite(e[0]).all() and np.isinf(e[0].sum())
        assert np.isinf(e[1]).any()
        c = montecarlo._field_moments(half, grid, max_alpha)
        assert c.shape == (3, max_alpha + 1)
        _, ok = levinson_batch(c, max_alpha)
        assert ok.tolist() == [False, False, True]
        assert c[2, 0] == 1.0

    @staticmethod
    def _complex_fft_absq(beta, modes, radius, samples, max_alpha, seed, workers):
        """Frozen complex-FFT pushforward: per-sample |alpha_n|^2, (samples, max_alpha)."""
        grid = pushforward_grid(modes)
        decay = radius ** np.arange(modes + 1)
        absq = np.empty((samples, max_alpha))
        for rng, rows in serial_blocks._draw_blocks(samples, seed, workers):
            b = rows.stop - rows.start
            field = np.zeros((b, grid), np.complex128)
            field[:, : modes + 1] = serial_blocks._f_block(rng, beta, modes, b) * decay
            vals = np.fft.ifft(field, axis=1) * grid
            dens = np.exp(2.0 * vals.real)
            dens /= dens.mean(axis=1, keepdims=True)
            c = np.fft.fft(dens, axis=1)[:, : max_alpha + 1] / grid
            al, ok = levinson_batch(c, max_alpha)
            assert ok.all()
            absq[rows] = np.abs(al) ** 2
        return absq

    @pytest.mark.parametrize("modes", [0, 1, 64, 256, 300])
    @pytest.mark.parametrize("max_alpha", [1, 4, "top"])
    def test_real_ffts_match_complex_ffts(self, modes, max_alpha, monkeypatch):
        # The real-FFT path gives the same per-sample |alpha_n|^2 as full
        # complex FFTs; "top" is grid//2 - 1, the largest max_alpha allowed,
        # at a small radius so the Levinson inversion stays well conditioned.
        grid = pushforward_grid(modes)
        max_alpha, radius = (grid // 2 - 1, 0.3) if max_alpha == "top" else (max_alpha, 0.9)
        args = (1.0, modes, radius, 24, max_alpha, 5)
        columns = []
        stats = montecarlo._stats

        def recording(values):
            columns.append(values.copy())
            return stats(values)

        monkeypatch.setattr(montecarlo, "_stats", recording)
        pushforward_experiment(*args, workers=2)
        got = np.column_stack(columns)
        expect = self._complex_fft_absq(*args, workers=2)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-15)


class TestMcGatePower:
    """Criterion 11's 4-sigma gate rejects the paper's heuristic law.

    The heuristic law is the alpha side at beta + 1 (README "Tests"); its
    x_n moments converge to the Gaussian value at beta + 1, not at beta.
    """

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_heuristic_law_fails_the_mc_gate(self, n, beta):
        p = MultiIndex({n: 1})
        st = mc_x_moment("alpha", p, p, beta + 1, 200, 2 * 10**4, seed=112)
        ref = mc_reference("gaussian", p, p, beta, 200)
        assert abs(st.mean - ref) > 4 * st.stderr, (n, beta, st)


class TestPipeline:
    """Draws on a helper thread, arithmetic on the calling thread: same results.

    ``serial_blocks`` is the serial loop the pipeline replaced; every sampler
    must give exactly its values, CSV bytes and errors.
    """

    P, Q = MultiIndex({2: 1}), MultiIndex({1: 2})
    # pushforward_experiment(beta, modes, radius, samples, max_alpha, seed):
    # at this beta and radius the moments stay positive definite.
    PUSH = (1.0, 8, 0.7)
    # The first 8192-sample block inverts; the second has two samples whose
    # moments are not positive definite (found with the serial loop).
    PEAKED = ["pushforward", "--beta", "1/10", "--modes", "32", "--radius", "0.9",
              "--samples", str(2 * BLOCK_SIZE), "--seed", "3", "--max-alpha", "30"]

    def _check_all(self, count, workers, tmp_path, monkeypatch):
        seed = 1000 + count + workers
        assert np.array_equal(
            sample_alpha_batch(0.75, 6, count, seed, workers=workers),
            serial_blocks.sample_alpha_batch(0.75, 6, count, seed, workers),
        )
        assert np.array_equal(
            sample_f_batch(0.75, 6, count, seed, workers=workers),
            serial_blocks.sample_f_batch(0.75, 6, count, seed, workers),
        )
        averaged = []
        stats = montecarlo._stats

        def recording(values):
            averaged.append(values.copy())
            return stats(values)

        monkeypatch.setattr(montecarlo, "_stats", recording)
        for side in ("gaussian", "alpha"):
            got, want = tmp_path / f"{side}-got.csv", tmp_path / f"{side}-want.csv"
            mc_x_moment(side, self.P, self.Q, 0.75, 12, count, seed, workers=workers,
                        dump_csv=str(got))
            vals = serial_blocks.mc_values(side, self.P, self.Q, 0.75, 12, count, seed, workers,
                                           dump_csv=str(want))
            assert np.array_equal(averaged.pop(), vals)
            assert got.read_bytes() == want.read_bytes()
        pushforward_experiment(*self.PUSH, count, 3, seed, workers=workers)
        absq = serial_blocks.pushforward_absq(*self.PUSH, count, 3, seed, workers)
        assert np.array_equal(np.column_stack(averaged), absq)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("count", [2, 1023, 1025, BLOCK_SIZE, 2 * BLOCK_SIZE + 600])
    def test_matches_serial_loop(self, count, workers, tmp_path, monkeypatch):
        self._check_all(count, workers, tmp_path, monkeypatch)

    def test_inline_finish_matches_serial_loop(self, tmp_path, monkeypatch):
        # Each step drawn on the calling thread as soon as it is submitted:
        # no helper thread, the serial order, the same results.
        class Inline:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                done = Future()
                try:
                    done.set_result(fn(*args))
                except BaseException as exc:
                    done.set_exception(exc)
                return done

        def no_threads(self):
            raise AssertionError("started a thread")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Inline)
        monkeypatch.setattr(threading.Thread, "start", no_threads)
        self._check_all(2 * BLOCK_SIZE + 600, 2, tmp_path, monkeypatch)

    @staticmethod
    def _on(threads, fn):
        """fn, recording the thread of every call in threads."""
        def recorded(*args, **kwargs):
            threads.append(threading.current_thread())
            return fn(*args, **kwargs)

        return recorded

    def test_levinson_failure_on_calling_thread(self, capsys, monkeypatch):
        # The second block's Levinson call fails on the calling thread; every
        # draw was made on the one helper thread, which is gone at the error.
        caller, before = threading.current_thread(), threading.active_count()
        finishers, drawers = [], []
        args = (0.1, 32, 0.9, 2 * BLOCK_SIZE, 30, 3, 1)
        with pytest.raises(ValueError) as want:
            serial_blocks.pushforward_absq(*args)
        assert str(want.value).startswith("2 sample(s) gave non-positive-definite moments")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "levinson_batch", self._on(finishers, montecarlo.levinson_batch))
            mp.setattr(montecarlo, "_draw", self._on(drawers, montecarlo._draw))
            with pytest.raises(ValueError) as got:
                pushforward_experiment(*args[:-1], workers=1)
        assert str(got.value) == str(want.value)
        assert finishers == [caller, caller]
        assert len(drawers) >= 2
        assert len(set(drawers)) == 1 and drawers[0] is not caller
        assert threading.active_count() == before
        assert cli.run(self.PEAKED) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {want.value}\n"
        assert threading.active_count() == before

    def test_memory_error_in_szego_exits_two(self, capsys, monkeypatch):
        # The allocation failure is simulated on the second block's first
        # Szego step, which runs on the calling thread while the helper draws
        # ahead; at n_trunc = 8 each block makes two steps of 4 levels on one
        # recursion state.
        caller = threading.current_thread()
        calls, states, drawers = [], [], []
        szego = montecarlo._szego_low_levels

        def no_memory(alphas, state):
            calls.append(threading.current_thread())
            if not any(state is seen for seen in states):
                states.append(state)
            if len(states) > 1:
                raise MemoryError
            return szego(alphas, state)

        monkeypatch.setattr(montecarlo, "_szego_low_levels", no_memory)
        monkeypatch.setattr(montecarlo, "_draw", self._on(drawers, montecarlo._draw))
        before = threading.active_count()
        code = cli.run(["mc", "--side", "alpha", "--p", "1:1", "--q", "1:1", "--beta", "1",
                        "--samples", str(3 * BLOCK_SIZE), "--seed", "0", "--n-trunc", "8"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "error: MemoryError\n")
        assert calls == [caller] * 3
        assert len(drawers) >= 3
        assert len(set(drawers)) == 1 and drawers[0] is not caller
        assert threading.active_count() == before

    def test_error_on_calling_thread_joins_the_helper(self, monkeypatch):
        # The second block's Szego step fails on the calling thread while the
        # helper draws ahead.  The helper is joined before the error leaves
        # the call, not when its traceback is dropped.
        states = []
        szego = montecarlo._szego_low_levels

        def no_memory(alphas, state):
            if not any(state is seen for seen in states):
                states.append(state)
            if len(states) > 1:
                raise MemoryError
            return szego(alphas, state)

        monkeypatch.setattr(montecarlo, "_szego_low_levels", no_memory)
        before = threading.active_count()
        held = None
        try:
            mc_x_moment("alpha", P1, P1, 1.0, 8, 3 * BLOCK_SIZE, 0)
        except MemoryError:
            held = sys.exc_info()
            assert threading.active_count() == before
        assert held is not None and held[0] is MemoryError

    def test_error_while_drawing_joins_the_helper(self, monkeypatch):
        # The second step's draw fails on the helper while the calling thread
        # still works on the first step; the error is raised where the second
        # step is requested, and the call joins the helper before raising.
        draw, szego = montecarlo._draw, montecarlo._szego_low_levels
        draws = []

        def failing(rng, out):
            draws.append(len(out))
            if len(draws) == 2:
                raise MemoryError
            return draw(rng, out)

        def slow(alphas, state):
            time.sleep(0.05)
            return szego(alphas, state)

        monkeypatch.setattr(montecarlo, "_draw", failing)
        monkeypatch.setattr(montecarlo, "_szego_low_levels", slow)
        before = threading.active_count()
        with pytest.raises(MemoryError):
            mc_x_moment("alpha", P1, P1, 1.0, 8, 2 * BLOCK_SIZE, 0)
        assert threading.active_count() == before

    def test_import_loads_no_executor(self):
        # Only sampling loads concurrent.futures (and logging with it), so
        # commands that never sample do not pay for the import.
        src = os.path.dirname(os.path.dirname(montecarlo.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, verblunsky, verblunsky.cli; print('concurrent.futures' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path), check=True)
        assert out.stdout == "False\n"

    def test_threads_end_with_each_call(self):
        before = threading.active_count()
        sample_alpha_batch(1.0, 3, 3 * BLOCK_SIZE, 5, workers=2)
        mc_x_moment("gaussian", P1, P1, 1.0, 8, 2 * BLOCK_SIZE, 5)
        pushforward_experiment(*self.PUSH, 2 * BLOCK_SIZE, 3, 5)
        assert threading.active_count() == before

    def test_one_helper_thread_per_call(self, tmp_path, monkeypatch):
        # Every draw of a call is made on the same helper thread, which is
        # gone when the call returns.  The arithmetic and the CSV writes run
        # on the calling thread.
        caller, before = threading.current_thread(), threading.active_count()
        drawers, finishers = [], []
        monkeypatch.setattr(montecarlo, "_draw", self._on(drawers, montecarlo._draw))
        for name in ("levinson_batch", "_szego_low_levels", "exp_neg_series"):
            monkeypatch.setattr(montecarlo, name, self._on(finishers, getattr(montecarlo, name)))

        class Writer:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, text):
                finishers.append(threading.current_thread())
                return self.fh.write(text)

        monkeypatch.setattr(montecarlo, "open", lambda *a, **kw: Writer(open(*a, **kw)),
                            raising=False)
        samples = 3 * BLOCK_SIZE + 5
        calls = [
            lambda: sample_alpha_batch(1.0, 3, samples, 5, workers=2),
            lambda: mc_x_moment("alpha", P1, P1, 1.0, 8, samples, 5,
                                dump_csv=str(tmp_path / "alpha.csv")),
            lambda: mc_x_moment("gaussian", P1, P1, 1.0, 8, samples, 5,
                                dump_csv=str(tmp_path / "gaussian.csv")),
            lambda: pushforward_experiment(*self.PUSH, samples, 3, 5),
        ]
        for call in calls:
            drawers.clear()
            call()
            assert len(drawers) >= 3
            assert len(set(drawers)) == 1 and drawers[0] is not caller
            assert threading.active_count() == before
        # Levinson, Szego and exp(-f) calls, and two header lines and a row
        # write per block or step for each dump.
        assert len(finishers) >= 20
        assert set(finishers) == {caller}

    @pytest.mark.parametrize("modes", [8, 300])
    def test_fft_rows_stay_within_step_bound(self, modes, monkeypatch):
        # The grid-wide FFT rows are the one temporary wider than the draws;
        # at any block size they go through irfft at most
        # max(1, _STEP_VALUES // grid) rows at a time, and every row once.
        grid = montecarlo.pushforward_grid(modes)
        step = max(1, montecarlo._STEP_VALUES // grid)
        irfft = np.fft.irfft
        shapes = []

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return irfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", recording)
        for samples in (40, BLOCK_SIZE + 600):
            shapes.clear()
            pushforward_experiment(1.0, modes, 0.7, samples, 3, seed=9)
            assert shapes
            assert max(rows for rows, _ in shapes) <= step
            assert sum(rows for rows, _ in shapes) == samples
            assert {width for _, width in shapes} == {grid // 2 + 1}

    @pytest.mark.parametrize("kind", ["alpha", "f"])
    def test_at_most_two_steps_of_draws_alive(self, kind, monkeypatch):
        # Every draw of a call lands in one of the call's two buffers, in
        # turn, so at most two steps of draws exist at once: the one the
        # calling thread works on and the one being drawn.  Neither buffer
        # outlives the call.  No draw holds more than _STEP_VALUES complex
        # values, unless a single leading row is wider.
        draw = montecarlo._draw
        buffers, shapes = [], []

        def tracking(rng, out):
            buffers.append(out.base)
            shapes.append(out.shape[:2])
            return draw(rng, out)

        monkeypatch.setattr(montecarlo, "_draw", tracking)
        samples = 5 * BLOCK_SIZE
        if kind == "alpha":
            calls = [lambda: sample_alpha_batch(1.0, 4, samples, 8, workers=2),
                     lambda: mc_x_moment("alpha", P1, P1, 1.0, 200, samples, 8)]
        else:
            calls = [lambda: sample_f_batch(1.0, 4, samples, 8, workers=2),
                     lambda: sample_f_batch(1.0, 3 * montecarlo._STEP_VALUES // 2, 3, 8),
                     lambda: mc_x_moment("gaussian", P1, P1, 1.0, 8, samples, 8),
                     lambda: pushforward_experiment(*self.PUSH, samples, 3, 8)]
        for call in calls:
            buffers.clear()
            call()
            assert len(buffers) >= 2
            two = buffers[:2]
            assert two[0] is not two[1]
            assert all(buf is two[k % 2] for k, buf in enumerate(buffers))
            alive = [weakref.ref(buf) for buf in two]
            del two
            buffers.clear()
            assert all(ref() is None for ref in alive)
        assert len(shapes) >= 10
        assert all(lead * width <= montecarlo._STEP_VALUES or lead == 1
                   for lead, width in shapes)
        assert max(lead * width for lead, width in shapes) > montecarlo._STEP_VALUES // 2

    def test_alpha_buffers_sized_by_level_width(self):
        # An alpha level is one block of samples wide, not N: two samples of
        # 10**7 levels step 2**14 levels at a time, so a buffer holds one
        # step of _STEP_VALUES complex values, not a 10**7-value row.
        with montecarlo._pipeline(2, 0, 1, 10**7, level_major=True) as blocks:
            _, steps = next(blocks)
            _, z = next(steps)
            assert z.shape == (montecarlo._STEP_VALUES // 2, 2, 2)
            assert z.base.size <= 2 * montecarlo._STEP_VALUES

    def test_uneven_last_steps_match_serial_loop(self, tmp_path, monkeypatch):
        # At b = 8192 an alpha step is 4 levels, so N = 13 steps 4, 4, 4 and 1
        # levels; a 300-mode pushforward (grid 1200) steps 27 rows, so 100
        # samples step 27, 27, 27 and 19.
        draw = montecarlo._draw
        shapes = []

        def recording(rng, out):
            shapes.append(out.shape[:2])
            return draw(rng, out)

        monkeypatch.setattr(montecarlo, "_draw", recording)
        count, seed = BLOCK_SIZE + 100, 77
        assert np.array_equal(sample_alpha_batch(0.75, 13, count, seed),
                              serial_blocks.sample_alpha_batch(0.75, 13, count, seed, 1))
        assert shapes == [(4, BLOCK_SIZE)] * 3 + [(1, BLOCK_SIZE), (13, 100)]
        averaged = []
        stats = montecarlo._stats

        def recording_stats(values):
            averaged.append(values.copy())
            return stats(values)

        monkeypatch.setattr(montecarlo, "_stats", recording_stats)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        mc_x_moment("alpha", self.P, self.Q, 0.75, 13, count, seed, dump_csv=str(got))
        vals = serial_blocks.mc_values("alpha", self.P, self.Q, 0.75, 13, count, seed, 1,
                                       dump_csv=str(want))
        assert np.array_equal(averaged.pop(), vals)
        assert got.read_bytes() == want.read_bytes()
        shapes.clear()
        pushforward_experiment(1.0, 300, 0.7, 100, 3, seed)
        assert shapes == [(27, 300)] * 3 + [(19, 300)]
        absq = serial_blocks.pushforward_absq(1.0, 300, 0.7, 100, 3, seed, 1)
        assert np.array_equal(np.column_stack(averaged), absq)

    @pytest.mark.parametrize("case", ["mc-alpha", "pushforward"])
    def test_traced_peak_is_bounded_by_the_step(self, case):
        # numpy reports its buffers to tracemalloc, the helper thread's too.
        # Whatever the block size, the draws and the arithmetic take a few
        # steps' worth of complex values; only the per-sample results grow
        # with the sample count.  Two whole 8192 x 200 alpha blocks of draws
        # alone would be 52 MB.
        if case == "mc-alpha":
            samples, per_sample = 2 * BLOCK_SIZE, 16 * 4

            def run():
                mc_x_moment("alpha", P1, P1, 1.0, 200, samples, 0)
        else:
            samples, per_sample = 2000, 16 * 4 * 5

            def run():
                pushforward_experiment(1.0, 256, 0.995, samples, 4, 1)
        bound = 8 * 16 * montecarlo._STEP_VALUES + per_sample * samples
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)
