"""Seeded Monte Carlo estimators cross-checking the exact moment engines.

Determinism contract
--------------------
All sampling is driven by numpy's PCG64.  A run is parameterized by
``(seed, workers)``: ``SeedSequence(seed).spawn(workers)`` derives one
independent substream per worker, worker ``w`` handles a contiguous chunk of
samples (the first ``samples % workers`` chunks are one larger; workers past
the ``samples``-th draw nothing and get no substream), and inside a
worker the draws happen in fixed blocks of :data:`BLOCK_SIZE` samples.
Results are reduced in worker order, so identical ``(seed, workers)`` gives
bit-identical streams and statistics; changing ``workers`` changes the
stream but not the distribution.

Per-block draw layout (documented so streams are reproducible from the
description alone):

* alpha sampler: one ``(N, block, 2)`` standard-normal array ``z``,
  level-major: row n - 1 holds alpha_n of every sample in the block, read as
  complex ``z_n = z[n - 1, :, 0] + i z[n - 1, :, 1]``; ``alpha_n = z_n *
  sqrt(-expm1(-|z_n|**2 / (2 n beta)) / |z_n|**2)``, and ``alpha_n = 0``
  where ``|z_n| = 0`` (probability about 2**-104).  |z|**2 / 2 is Exp(1)
  and independent of ``z/|z|``, which is uniform on the circle (Muller
  1959), so ``exp(-|z|**2 / 2)`` is a uniform the direction already carries
  and |alpha_n|**2 = 1 - exp(-|z|**2 / (2 n beta)) is Beta(1, n beta): one
  draw per coefficient serves both modulus and phase;
* f sampler: one ``(block, N, 2)`` standard-normal array ``z``, last axis
  holding the real and imaginary parts; ``f_n = (z[..., 0] + i z[..., 1]) *
  sqrt(1 / (2 n beta))``.

``sample_alpha_batch`` and ``sample_f_batch`` use the requested N and
``pushforward_experiment`` uses N = ``modes``.  ``mc_x_moment`` uses
N = ``n_trunc`` on the alpha side, but N = K, the largest index occurring in
(p, q), on the Gaussian side: it draws only the modes the monomial reads.

Block pipeline
--------------
Every sampler runs one block loop, :func:`_pipeline`.  The calling thread
makes all PCG64 calls, block after block in the order above; the arithmetic
of each block (the alpha transform, the f scaling, the Szego, ``exp(-f)``,
FFT and Levinson kernels, the monomial and the CSV rows) runs on the call's
one helper thread, a single-thread ``ThreadPoolExecutor`` that is shut down
before the call returns, while the next block is drawn.  Its temporaries do
not grow with the block: the alpha transform runs in place on the draws and
the f scaling writes straight into its output; only the pushforward's
``grid``-wide FFT rows outgrow the draws, so they step through the block.
Both steps take at most 2**15 values at a time, in whole levels or rows.
The Szego recursion (state (K + 1, block)), ``exp(-f)`` (K <= 4) and the
Levinson step (whose last bits depend on the row count) each take a whole
block.  Blocks are finished one at a time and in block order, so values,
statistics and ``--dump-csv`` bytes do not depend on thread timing and equal
those of a serial loop.  At most two blocks of draws are alive at once, so
the draws take memory bounded by the block size (16 bytes per sample and
coefficient or mode: 26 MB for an 8192-sample block at N = 200); the
per-sample results still grow with the sample count.  ``workers`` only picks
the substreams; it starts no threads: every call uses one helper thread
whatever ``workers`` is.
"""

from __future__ import annotations

import math
import os
import stat
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .alphamoments import alpha_x_moment
from .combinatorics import MultiIndex
from .gaussian import gaussian_x_moment
from .kernels import _szego_low_levels, exp_neg_series, levinson_batch

# Unused here: perfbench's span bindings look this name up on this module.
from .kernels import szego_low_coefficients  # noqa: F401
from .opuc import trig_moments

RNG_ALGORITHM = (
    "numpy.random PCG64; per-worker substreams from SeedSequence(seed).spawn(workers)"
)
BLOCK_SIZE = 8192
# Values per step of a block's arithmetic, in whole levels or rows: bounds its
# temporaries, not the streams.
_STEP_VALUES = 1 << 15


@dataclass(frozen=True)
class SampleStats:
    """Empirical mean with its standard error over ``count`` samples."""

    mean: complex | float
    stderr: float
    count: int


def _worker_chunks(samples: int, workers: int) -> list[int]:
    """The non-empty chunk sizes, one per drawing worker: at most ``samples``."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    base, extra = divmod(samples, workers)
    return [base + (1 if w < extra else 0) for w in range(min(workers, samples))]


def _draw_blocks(samples: int, seed: int, workers: int):
    """Yield ``(rng, rows)`` for every draw block, in worker order.

    ``rows`` is the block's slice of the ``samples`` output rows.  Worker
    ``w`` draws from substream ``SeedSequence(seed).spawn(workers)[w]`` and
    covers a contiguous chunk of rows, in blocks of at most
    :data:`BLOCK_SIZE`.  This is the one place the stream is split.
    """
    chunks = _worker_chunks(samples, workers)
    # A child's spawn key is (w,) whatever the count, so workers past the
    # last non-empty chunk, which would draw nothing, are never spawned.
    children = np.random.SeedSequence(seed).spawn(len(chunks))
    start = 0
    for child, chunk in zip(children, chunks):
        rng = np.random.Generator(np.random.PCG64(child))
        stop = start + chunk
        for lo in range(start, stop, BLOCK_SIZE):
            yield rng, slice(lo, min(lo + BLOCK_SIZE, stop))
        start = stop


def _check_beta(beta: float) -> None:
    """The samplers scale by 1/(n beta), so 1/beta must be a finite float."""
    if not beta > 0:  # also rejects NaN
        raise ValueError("beta must be positive")
    if math.isinf(1 / beta):
        raise ValueError(f"beta = {beta!r} is too small: 1/beta overflows a float")


def _alpha_draw(rng: np.random.Generator, b: int, N: int) -> np.ndarray:
    """One alpha block's PCG64 call: level-major normals, row n - 1 for alpha_n."""
    return rng.standard_normal((N, b, 2))


def _alpha_levels(z: np.ndarray, beta: float) -> np.ndarray:
    """Level-major (N, b) alpha of an alpha block's draws; |alpha_n|^2 ~ Beta(1, n beta).

    Works in place on the draws, a few whole levels at a time; expm1 gives
    |alpha_n|^2 = 1 - exp(-|z_n|^2 / (2 n beta)) without cancellation.
    """
    a = z.view(np.complex128)[..., 0]
    N, b = a.shape
    div = np.arange(1, N + 1, dtype=np.float64)[:, None] * (-2.0 * beta)
    step = max(1, _STEP_VALUES // b)
    for lo in range(0, N, step):
        w = a[lo : lo + step]
        sq = np.square(w.real)
        sq += np.square(w.imag)
        amp = np.divide(sq, div[lo : lo + step])
        np.expm1(amp, out=amp)
        # A zero direction keeps amp = -0.0, so alpha = z * 0 = 0, not NaN.
        np.divide(amp, sq, out=amp, where=sq > 0)
        np.negative(amp, out=amp)
        np.sqrt(amp, out=amp)
        w *= amp
    return a


def _f_draw(rng: np.random.Generator, b: int, N: int) -> np.ndarray:
    """One f block's PCG64 call."""
    return rng.standard_normal((b, N, 2))


def _f_modes(z: np.ndarray, beta: float, out: np.ndarray) -> np.ndarray:
    """Write f_0 = 0, f_1..f_N of an f block's draws (rows, N, 2) into out[:, :N + 1]."""
    n = np.arange(1, z.shape[1] + 1, dtype=np.float64)
    out[:, 0] = 0
    np.multiply(z.view(np.complex128)[..., 0], np.sqrt(1.0 / (2.0 * n * beta)),
                out=out[:, 1 : len(n) + 1])
    return out


def _pipeline(samples: int, seed: int, workers: int, draw, N: int, finish) -> None:
    """``finish(rows, draw(rng, b, N))`` for every draw block of :func:`_draw_blocks`.

    ``draw`` makes all of a block's PCG64 calls and runs on the calling
    thread, in block order, so the streams are those of a serial loop.
    ``finish`` holds the block's arithmetic and runs on the call's one helper
    thread while the calling thread draws the next block.  Block k + 1 is
    submitted only after block k's finish has returned, so finishes run one
    at a time and in block order, and results do not depend on thread
    timing.  At most two blocks of draws are alive at once: the one being
    finished and the one being drawn.  An error in ``finish`` is raised
    here, and the executor's shutdown joins the helper before the call returns.
    """
    with ThreadPoolExecutor(1, thread_name_prefix="verblunsky-finish") as pool:
        pending = None
        for rng, rows in _draw_blocks(samples, seed, workers):
            drawn = draw(rng, rows.stop - rows.start, N)
            if pending is not None:
                pending.result()
            pending = pool.submit(finish, rows, drawn)
            del drawn
        if pending is not None:
            pending.result()


def sample_alpha_batch(beta: float, N: int, count: int, seed: int, *, workers: int = 1):
    """(count, N) draws of alpha_1..alpha_N, in the alpha layout documented above."""
    _check_beta(beta)
    out = np.empty((count, N), np.complex128)

    def finish(rows, z):
        out[rows] = _alpha_levels(z, beta).T

    _pipeline(count, seed, workers, _alpha_draw, N, finish)
    return out


def sample_f_batch(beta: float, N: int, count: int, seed: int, *, workers: int = 1):
    """(count, N + 1) draws of f_0 = 0, f_1..f_N, in the f layout documented above."""
    _check_beta(beta)
    out = np.empty((count, N + 1), np.complex128)

    def finish(rows, z):
        _f_modes(z, beta, out[rows])

    _pipeline(count, seed, workers, _f_draw, N, finish)
    return out


def _stats(values: np.ndarray) -> SampleStats:
    count = values.size
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean()
        var = float(np.sum(np.abs(values - mean) ** 2)) / (count - 1)
    stderr = math.sqrt(var / count)
    # An infinite stderr would pass any gate: at tiny beta the samples' squares overflow.
    if not math.isfinite(stderr):
        raise ValueError("sample mean or variance overflows a float: beta is too small")
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
    if side == "gaussian":
        draw, N = _f_draw, K

        def x_block(drawn):
            return exp_neg_series(_f_modes(drawn, beta, np.empty((len(drawn), K + 1), complex)))
    else:
        draw, N = _alpha_draw, n_trunc

        def x_block(drawn):
            # One recursion over the whole level-major block: its state is (K+1, b).
            return _szego_low_levels(_alpha_levels(drawn, beta), K)

    vals = np.empty(samples, np.complex128)
    # The dump file is opened before any draw, so a bad path fails at once.
    dump = open(dump_csv, "w", newline="") if dump_csv is not None else nullcontext()
    try:
        with dump as fh:
            if fh is not None:
                fh.write("# raw x-monomial samples, one row per sample\n")
                fh.write("# columns: index, real, imag\n")

            def finish(rows, drawn):
                mono = _monomial(x_block(drawn), p, q)
                vals[rows] = mono
                if fh is not None:
                    lines = zip(range(rows.start, rows.stop), mono.real.tolist(),
                                mono.imag.tolist())
                    fh.write("".join(f"{i},{re!r},{im!r}\r\n" for i, re, im in lines))

            _pipeline(samples, seed, workers, draw, N, finish)
        return _stats(vals)
    except BaseException:
        # A failed run leaves no dump behind; a device or a link is left alone.
        if dump_csv is not None:
            with suppress(OSError):
                if stat.S_ISREG(os.lstat(dump_csv).st_mode):
                    os.remove(dump_csv)
        raise


def mc_reference(side: str, p: MultiIndex, q: MultiIndex, beta, n_trunc: int) -> float:
    """Exact counterpart of :func:`mc_x_moment` for bias-free comparison.

    The Gaussian-side monomial has no truncation error (coefficient x_n only
    involves f_1..f_n), so the full moment applies; the alpha side is
    compared against the partial sum truncated at the same ``n_trunc``.
    """
    _check_mc_args(side, p, q, float(beta), n_trunc)
    b = Fraction(beta)
    exact = (gaussian_x_moment(p, q).evaluate(b) if side == "gaussian"
             else alpha_x_moment(p, q, b, n_trunc).value)
    try:
        return float(exact)
    except OverflowError:
        raise ValueError(
            f"exact {side}-side reference overflows a float at beta = {float(b):g}"
        ) from None


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

    Both transforms are real FFTs.  With c_k = f_k r**k on the half spectrum
    k = 0..grid//2, ``irfft(c, grid) * grid`` is 2 Re sum_{0<k<grid/2}
    c_k e^{i k theta_j} plus the real parts of c_0 and of the Nyquist term
    c_{grid/2}; both vanish because f_0 = 0 and modes <= grid/4 < grid/2, so
    it is exactly 2 Re f_+(r e^{i theta_j}), and ``opuc.trig_moments`` of the
    density's rows gives its moments c_0..c_max_alpha (max_alpha < grid//2).
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
    # The FFT rows are grid wide, wider than the draws: step through the block.
    step = max(1, _STEP_VALUES // grid)
    absq = np.empty((samples, max_alpha))

    def finish(rows, z):
        c = np.empty((len(z), max_alpha + 1), np.complex128)
        # Columns past modes stay zero: each step rewrites only f_0..f_modes.
        buf = np.zeros((min(step, len(z)), grid // 2 + 1), np.complex128)
        for lo in range(0, len(z), step):
            zs = z[lo : lo + step]
            half = _f_modes(zs, beta, buf[: len(zs)])
            half[:, : modes + 1] *= decay
            dens = np.fft.irfft(half, grid, axis=1)
            dens *= grid
            # A field too large for exp gives NaN rows, which Levinson flags as too peaked.
            with np.errstate(over="ignore", invalid="ignore"):
                np.exp(dens, out=dens)
                dens /= dens.mean(axis=1, keepdims=True)
            c[lo : lo + step] = trig_moments(dens, max_alpha)
        # One Levinson call per block: its last bits depend on the batch's row count.
        al, ok = levinson_batch(c, max_alpha)
        if not ok.all():
            bad = int((~ok).sum())
            raise ValueError(
                f"{bad} sample(s) gave non-positive-definite moments; "
                "the density is too peaked, lower radius or max_alpha"
            )
        absq[rows] = np.abs(al) ** 2

    _pipeline(samples, seed, workers, _f_draw, modes, finish)
    return [_stats(absq[:, n]) for n in range(max_alpha)]
