"""Seeded Monte Carlo estimators cross-checking the exact moment engines.

Determinism contract
--------------------
All sampling is driven by numpy's PCG64.  A run is parameterized by
``(seed, workers)``: ``SeedSequence(seed).spawn(workers)`` derives one
independent substream per worker, worker ``w`` handles a contiguous chunk of
samples (the first ``samples % workers`` chunks are one larger), and inside a
worker the draws happen in fixed blocks of :data:`BLOCK_SIZE` samples.
Results are reduced in worker order, so identical ``(seed, workers)`` gives
bit-identical streams and statistics; changing ``workers`` changes the
stream but not the distribution.

Per-block draw layout (documented so streams are reproducible from the
description alone):

* alpha sampler: one ``(block, N)`` uniform array ``u`` for the moduli, then
  one ``(block, N)`` uniform array for the phases; ``alpha_n = sqrt(1 -
  u**(1/(n beta))) * exp(2 pi i phase)``;
* f sampler: one ``(block, N, 2)`` standard-normal array ``z``, last axis
  holding the real and imaginary parts; ``f_n = (z[..., 0] + i z[..., 1]) *
  sqrt(1 / (2 n beta))``.

``sample_alpha_batch`` and ``sample_f_batch`` use the requested N and
``pushforward_experiment`` uses N = ``modes``.  ``mc_x_moment`` uses
N = ``n_trunc`` on the alpha side, but N = K, the largest index occurring in
(p, q), on the Gaussian side: it draws only the modes the monomial reads.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .alphamoments import alpha_x_moment
from .combinatorics import MultiIndex
from .gaussian import gaussian_x_moment
from .kernels import exp_neg_series, levinson_batch, szego_low_coefficients

RNG_ALGORITHM = (
    "numpy.random PCG64; per-worker substreams from SeedSequence(seed).spawn(workers)"
)
BLOCK_SIZE = 8192


@dataclass(frozen=True)
class SampleStats:
    """Empirical mean with its standard error over ``count`` samples."""

    mean: complex | float
    stderr: float
    count: int


def _worker_chunks(samples: int, workers: int) -> list[int]:
    if workers < 1:
        raise ValueError("workers must be >= 1")
    base, extra = divmod(samples, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _draw_blocks(samples: int, seed: int, workers: int):
    """Yield ``(rng, rows)`` for every draw block, in worker order.

    ``rows`` is the block's slice of the ``samples`` output rows.  Worker
    ``w`` draws from substream ``SeedSequence(seed).spawn(workers)[w]`` and
    covers a contiguous chunk of rows, in blocks of at most
    :data:`BLOCK_SIZE`.  This is the one place the stream is split.
    """
    chunks = _worker_chunks(samples, workers)
    children = np.random.SeedSequence(seed).spawn(workers)
    start = 0
    for child, chunk in zip(children, chunks):
        rng = np.random.Generator(np.random.PCG64(child))
        stop = start + chunk
        for lo in range(start, stop, BLOCK_SIZE):
            yield rng, slice(lo, min(lo + BLOCK_SIZE, stop))
        start = stop


def _check_beta(beta: float) -> None:
    """The samplers scale by 1/(n beta), so 1/beta must be a finite float."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if math.isinf(1 / beta):
        raise ValueError(f"beta = {beta!r} is too small: 1/beta overflows a float")


def _alpha_block(rng: np.random.Generator, beta: float, N: int, count: int) -> np.ndarray:
    """(count, N) independent draws; |alpha_n|^2 ~ Beta(1, n beta), uniform phase."""
    n = np.arange(1, N + 1, dtype=np.float64)
    u = rng.random((count, N))
    amp = np.sqrt(1.0 - u ** (1.0 / (n * beta)))
    phase = rng.random((count, N))
    return amp * np.exp(2j * np.pi * phase)


def _f_block(rng: np.random.Generator, beta: float, N: int, count: int) -> np.ndarray:
    """(count, N + 1) complex Gaussian modes, column 0 fixed to zero."""
    z = rng.standard_normal((count, N, 2))
    n = np.arange(1, N + 1, dtype=np.float64)
    scale = np.sqrt(1.0 / (2.0 * n * beta))
    out = np.zeros((count, N + 1), np.complex128)
    out[:, 1:] = (z[:, :, 0] + 1j * z[:, :, 1]) * scale
    return out


def sample_alpha_batch(
    beta: float, N: int, count: int, seed: int, *, workers: int = 1
) -> np.ndarray:
    _check_beta(beta)
    out = np.empty((count, N), np.complex128)
    for rng, rows in _draw_blocks(count, seed, workers):
        out[rows] = _alpha_block(rng, beta, N, rows.stop - rows.start)
    return out


def sample_f_batch(
    beta: float, N: int, count: int, seed: int, *, workers: int = 1
) -> np.ndarray:
    _check_beta(beta)
    out = np.empty((count, N + 1), np.complex128)
    for rng, rows in _draw_blocks(count, seed, workers):
        out[rows] = _f_block(rng, beta, N, rows.stop - rows.start)
    return out


def _stats(values: np.ndarray) -> SampleStats:
    count = values.size
    mean = values.mean()
    var = float(np.sum(np.abs(values - mean) ** 2)) / (count - 1)
    stderr = math.sqrt(var / count)
    if values.dtype.kind != "c":
        return SampleStats(float(mean), stderr, count)
    return SampleStats(complex(mean), stderr, count)


def _monomial(x: np.ndarray, p: MultiIndex, q: MultiIndex) -> np.ndarray:
    mono = np.ones(x.shape[0], np.complex128)
    for n, c in p.items():
        mono *= x[:, n] ** c
    for n, c in q.items():
        mono *= np.conj(x[:, n] ** c)
    return mono


def _check_mc_args(side: str, p: MultiIndex, q: MultiIndex, beta: float, n_trunc: int):
    """Checks shared by :func:`mc_x_moment` and :func:`mc_reference`: both reject alike."""
    if side not in ("gaussian", "alpha"):
        raise ValueError("side must be 'gaussian' or 'alpha'")
    _check_beta(beta)
    if p.deg != q.deg:
        raise ValueError("p and q must have equal degree")
    if p.deg > 4:
        raise ValueError("monomial degree above 4 is not supported")
    if n_trunc < 4 * p.deg:
        raise ValueError("n_trunc must be at least four times the degree")


def mc_x_moment(
    side: str,
    p: MultiIndex,
    q: MultiIndex,
    beta: float,
    n_trunc: int,
    samples: int,
    seed: int,
    *,
    workers: int = 1,
    dump_csv=None,
) -> SampleStats:
    """Empirical E[x^p (x^q)^*] under either the Gaussian or the alpha law.

    Only series coefficients up to the largest index K occurring in (p, q)
    can enter the monomial, so the series is evaluated to that order.
    ``side="gaussian"`` draws the modes f_1..f_K and maps them through the
    exp(-f) series; x_n involves f_1..f_n alone, so drawing more modes would
    not change the estimator and ``n_trunc`` only enters the argument checks.
    ``side="alpha"`` draws coefficient sequences of length ``n_trunc`` and
    uses the truncated x series.
    """
    _check_mc_args(side, p, q, beta, n_trunc)
    if samples < 2:
        raise ValueError("need at least two samples")
    K = max([0, *p.support(), *q.support()])
    vals = np.empty(samples, np.complex128)
    # The dump file is opened before any draw, so a bad path fails at once.
    dump = open(dump_csv, "w", newline="") if dump_csv is not None else nullcontext()
    with dump as fh:
        if fh is not None:
            fh.write("# raw x-monomial samples, one row per sample\n")
            fh.write("# columns: index, real, imag\n")
        for rng, rows in _draw_blocks(samples, seed, workers):
            b = rows.stop - rows.start
            if side == "gaussian":
                x = exp_neg_series(_f_block(rng, beta, K, b))
            else:
                alphas = _alpha_block(rng, beta, n_trunc, b)
                x = szego_low_coefficients(alphas, K)
            mono = _monomial(x, p, q)
            vals[rows] = mono
            if fh is not None:
                lines = zip(range(rows.start, rows.stop), mono.real.tolist(), mono.imag.tolist())
                fh.write("".join(f"{i},{re!r},{im!r}\r\n" for i, re, im in lines))
    return _stats(vals)


def mc_reference(side: str, p: MultiIndex, q: MultiIndex, beta, n_trunc: int) -> float:
    """Exact counterpart of :func:`mc_x_moment` for bias-free comparison.

    The Gaussian-side monomial has no truncation error (coefficient x_n only
    involves f_1..f_n), so the full moment applies; the alpha side is
    compared against the partial sum truncated at the same ``n_trunc``.
    """
    _check_mc_args(side, p, q, float(beta), n_trunc)
    b = Fraction(beta)
    if side == "gaussian":
        return float(gaussian_x_moment(p, q).evaluate(b))
    return float(alpha_x_moment(p, q, b, n_trunc).value)


def pushforward_grid(modes: int) -> int:
    """The pushforward quadrature grid, max(1024, 4 * modes)."""
    return max(1024, 4 * modes)


def pushforward_experiment(
    beta: float,
    modes: int,
    radius: float,
    samples: int,
    max_alpha: int,
    seed: int,
    *,
    workers: int = 1,
) -> list[SampleStats]:
    """Empirical E|alpha_n|^2 of the measure with density ∝ e^{2 Re f_+(r e^{i theta})}.

    Each sample draws f_1..f_modes, evaluates the field on a uniform theta
    grid of :func:`pushforward_grid` points at radius ``r``, normalizes the
    density, and recovers alpha_1..alpha_max_alpha from its trigonometric
    moments.  The means are meant to approach 1/(n beta + 1) as (modes,
    radius) grow; the approximation is deliberate and the quality must be
    judged by refining both, not assumed.  ``modes=0`` is the degenerate
    f = 0 path (uniform density, all alpha exactly zero).

    Any beta > 0 is accepted: the field 2 Re f_+ has covariance
    (2/beta) log(1/|2 sin((s - t)/2)|), so gamma**2 = 2/beta in chaos terms
    and the chaos is subcritical for beta > 1.  On the last rung (256 modes,
    radius 0.995, 2,000 samples, seed 120) E|alpha_1|^2 missed 1/(beta + 1) by
    11.2, 9.1, 7.7, 6.7 and 5.3 % at beta = 0.5, 1, 1.5, 2 and 3.  Densities
    too peaked to invert fail the Levinson positive-definiteness check.
    """
    _check_beta(beta)
    if modes < 0:
        raise ValueError("modes must be >= 0")
    if not 0 < radius < 1:
        raise ValueError("radius must lie in (0, 1)")
    if samples < 2:
        raise ValueError("need at least two samples")
    if max_alpha < 1:
        raise ValueError("max_alpha must be >= 1")
    grid = pushforward_grid(modes)
    if max_alpha >= grid // 2:
        raise ValueError("quadrature grid too coarse relative to max_alpha")
    decay = radius ** np.arange(modes + 1)
    absq = np.empty((samples, max_alpha))
    for rng, rows in _draw_blocks(samples, seed, workers):
        b = rows.stop - rows.start
        field = np.zeros((b, grid), np.complex128)
        field[:, : modes + 1] = _f_block(rng, beta, modes, b) * decay
        vals = np.fft.ifft(field, axis=1) * grid
        dens = np.exp(2.0 * vals.real)
        dens /= dens.mean(axis=1, keepdims=True)
        c = np.fft.fft(dens, axis=1)[:, : max_alpha + 1] / grid
        al, ok = levinson_batch(c, max_alpha)
        if not ok.all():
            bad = int((~ok).sum())
            raise ValueError(
                f"{bad} sample(s) gave non-positive-definite moments; "
                "the density is too peaked, lower radius or max_alpha"
            )
        absq[rows] = np.abs(al) ** 2
    return [_stats(absq[:, n]) for n in range(max_alpha)]
