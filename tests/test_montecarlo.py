"""Sampler laws, the determinism contract, and the MC estimator wrapper."""

import csv
import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from verblunsky import (
    MultiIndex,
    montecarlo,
    mc_x_moment,
    pushforward_experiment,
)
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

    def test_inside_unit_disk(self):
        a = sample_alpha_batch(2.0, 4, 5000, seed=9)
        assert np.abs(a).max() < 1.0

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            sample_alpha_batch(0.0, 2, 10, seed=0)


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
        with pytest.raises(ValueError):
            _worker_chunks(5, 0)


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
             0.9687401832797616 - 0.007011516255775057j, 0.01649204541894402),
            ({1: 2}, {2: 1}, 1.0, 40, 20000, 2024, 3,
             0.9558786582055858 - 0.003761973086421408j, 0.017238005776801454),
            ({2: 1}, {2: 1}, 0.5, 12, 9000, 5, 2,
             2.2028646357454518 + 1.6742745800569068e-18j, 0.03900772189942266),
        ],
    )
    def test_alpha_side_pinned(self, p, q, beta, n_trunc, samples, seed, workers, mean, stderr):
        # Recorded from the samples-first Szego kernel: the alpha-side stream
        # and statistics must not move when the kernel's internals change.
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

    def test_reference_values(self):
        assert mc_reference("gaussian", P1, P1, 1, 8) == 1.0
        n_trunc = 25
        expect = Fraction(1, 2) * (1 - Fraction(1, 2 * n_trunc + 1))
        assert mc_reference("alpha", P1, P1, 2, n_trunc) == pytest.approx(float(expect))


class TestCsvDump:
    SPECIAL = [0.0, -0.0, 1.5, -2.25e-300, 1e300, math.nan, math.inf, -math.inf, 1 / 3, 5e-324]

    # The injected NaN and inf make the summary statistics warn; only the
    # dumped bytes are checked here.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("side", ["gaussian", "alpha"])
    def test_dump_bytes_match_csv_writer(self, side, tmp_path, monkeypatch):
        # Two workers with two blocks each, so rows are numbered across
        # blocks; each block starts with special floats in both parts.
        seen = []
        monomial = montecarlo._monomial

        def recording(x, p, q):
            out = monomial(x, p, q)
            out.real[: len(self.SPECIAL)] = self.SPECIAL
            out.imag[: len(self.SPECIAL)] = self.SPECIAL[::-1]
            seen.append(out)
            return out

        monkeypatch.setattr(montecarlo, "_monomial", recording)
        out = tmp_path / "x.csv"
        p, q = MultiIndex({2: 1}), MultiIndex({1: 2})
        mc_x_moment(side, p, q, 0.75, 8, 2 * BLOCK_SIZE + 600, 17, workers=2, dump_csv=str(out))
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
