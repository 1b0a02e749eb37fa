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
Every sampler is a plain loop over :func:`_pipeline`, which hands out each
block's draws as consecutive steps: slices of the array's leading axis,
whole alpha levels or whole f rows, each one ``standard_normal`` call of at
most 2**15 complex values (the pushforward sizes its steps by their
``grid``-wide FFT rows instead).  ``standard_normal`` fills in C order from
one sequential stream, so the steps are bit for bit the whole-block draw.
The call's one helper thread makes every PCG64 call, in the order above,
drawing step k + 1 while the calling thread works on step k, into two
per-call buffers in turn: a step's draws are valid only until the next step
is requested, and the draws take about 1 MB whatever the block or sample
count.  All arithmetic and every output write, ``--dump-csv`` rows
included, run on the calling thread in step order, so values, statistics
and CSV bytes do not depend on thread timing and equal those of a serial
loop.  The block stays the unit of the streams and of the block-wide work,
done after its last step: the Szego recursion carries its (2, K + 1, block)
state across the block's level steps, and the alpha side's monomial and CSV
rows and the pushforward's Levinson call (whose last bits depend on the row
count) take a whole block.  An f step holds whole samples, so the
pushforward takes each step's moments (:func:`_field_moments`) and the
Gaussian side finishes ``exp(-f)``, the monomial and the CSV rows step by
step; with K <= 4 a step is the whole block.  The per-sample results still
grow with the sample count.  ``workers`` only picks the substreams: every
call uses one helper thread, a single-thread ``ThreadPoolExecutor`` joined
before the call returns, whatever ``workers`` is.
"""

from __future__ import annotations

import math
import os
import stat
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle, groupby, pairwise
from operator import itemgetter

import numpy as np

from .alphamoments import alpha_x_moment
from .combinatorics import MultiIndex
from .gaussian import gaussian_x_moment
from .kernels import _szego_low_levels, _szego_state, exp_neg_series, levinson_batch

# Unused here: perfbench's span bindings look this name up on this module.
from .kernels import szego_low_coefficients  # noqa: F401
from .opuc import trig_moments

RNG_ALGORITHM = (
    "numpy.random PCG64; per-worker substreams from SeedSequence(seed).spawn(workers)"
)
BLOCK_SIZE = 8192
# Complex values per step of a block's draws and arithmetic, in whole levels or
# rows: bounds the draws' and the temporaries' memory, not the streams.
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


def _draw(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """One step's PCG64 call: fill ``out``, (rows, width, 2), with standard normals."""
    return rng.standard_normal(out=out)


def _alpha_levels(z: np.ndarray, beta: float, lo: int = 0) -> np.ndarray:
    """Level-major alpha_{lo+1}, alpha_{lo+2}, ... of one step's draws (levels, b, 2).

    Works in place on the draws; |alpha_n|^2 ~ Beta(1, n beta), and expm1
    gives |alpha_n|^2 = 1 - exp(-|z_n|^2 / (2 n beta)) without cancellation.
    """
    a = z.view(np.complex128)[..., 0]
    div = np.arange(lo + 1, lo + len(a) + 1, dtype=np.float64)[:, None] * (-2.0 * beta)
    sq = np.square(a.real)
    sq += np.square(a.imag)
    amp = np.divide(sq, div)
    np.expm1(amp, out=amp)
    # A zero direction keeps amp = -0.0, so alpha = z * 0 = 0, not NaN.
    np.divide(amp, sq, out=amp, where=sq > 0)
    np.negative(amp, out=amp)
    np.sqrt(amp, out=amp)
    a *= amp
    return a


def _f_modes(z: np.ndarray, beta: float, out: np.ndarray) -> np.ndarray:
    """Write f_0 = 0, f_1..f_N of f draws (rows, N, 2) into out[:, :N + 1]."""
    n = np.arange(1, z.shape[1] + 1, dtype=np.float64)
    out[:, 0] = 0
    np.multiply(z.view(np.complex128)[..., 0], np.sqrt(1.0 / (2.0 * n * beta)),
                out=out[:, 1 : len(n) + 1])
    return out


@contextmanager
def _pipeline(samples: int, seed: int, workers: int, N: int, *,
              level_major: bool = False, row_values: int | None = None):
    """Iterate over the draw blocks of :func:`_draw_blocks` as ``(rows, steps)``.

    A block's draws are the array of the layout above, ``(N, b, 2)`` if
    ``level_major`` (alpha) and ``(b, N, 2)`` otherwise (f).  ``steps``
    yields it in order as ``(lo, drawn)``: rows ``lo`` onward of its leading
    axis, one :func:`_draw` of at most ``max(1, _STEP_VALUES // row_values)``
    rows, ``row_values`` defaulting to the values in one row of draws.  A
    block with no levels gets one empty step.  ``drawn`` is valid only until
    the next step is requested.  A failed draw raises where its step is
    requested; leaving the ``with`` block, on an error too, joins the helper.
    """
    # Imported here, so commands that never sample do not load it (and logging).
    from concurrent.futures import ThreadPoolExecutor

    # A step holds at most _STEP_VALUES values, or one row if that is wider:
    # an f row is N wide, an alpha level one block of at most BLOCK_SIZE.
    width = min(samples, BLOCK_SIZE) if level_major else N
    size = 2 * min(samples * N, max(_STEP_VALUES, width))
    buffers = cycle([np.empty(size), np.empty(size)])

    def submitted(pool):
        for rng, rows in _draw_blocks(samples, seed, workers):
            b = rows.stop - rows.start
            lead, width = (N, b) if level_major else (b, N)
            step = max(1, _STEP_VALUES // max(1, row_values or width))
            for lo in range(0, max(lead, 1), step):
                shape = (min(step, lead - lo), width, 2)
                out = next(buffers)[: math.prod(shape)].reshape(shape)
                yield rows, lo, pool.submit(_draw, rng, out)

    with ThreadPoolExecutor(1, thread_name_prefix="verblunsky-draw") as pool:
        # pairwise submits the draw of step k + 1 before step k is handed out.
        steps = ((rows, (lo, drawing.result()))
                 for (rows, lo, drawing), _ in pairwise(chain(submitted(pool), [None])))
        yield ((rows, map(itemgetter(1), block)) for rows, block in groupby(steps, itemgetter(0)))


def sample_alpha_batch(beta: float, N: int, count: int, seed: int, *, workers: int = 1):
    """(count, N) draws of alpha_1..alpha_N, in the alpha layout documented above."""
    _check_beta(beta)
    out = np.empty((count, N), np.complex128)
    with _pipeline(count, seed, workers, N, level_major=True) as blocks:
        for rows, steps in blocks:
            for lo, z in steps:
                out[rows, lo : lo + len(z)] = _alpha_levels(z, beta, lo).T
    return out


def sample_f_batch(beta: float, N: int, count: int, seed: int, *, workers: int = 1):
    """(count, N + 1) draws of f_0 = 0, f_1..f_N, in the f layout documented above."""
    _check_beta(beta)
    out = np.empty((count, N + 1), np.complex128)
    with _pipeline(count, seed, workers, N) as blocks:
        for rows, steps in blocks:
            for lo, z in steps:
                _f_modes(z, beta, out[rows.start + lo : rows.start + lo + len(z)])
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
    level_major, N = (False, K) if side == "gaussian" else (True, n_trunc)
    vals = np.empty(samples, np.complex128)
    # The dump file is opened before any draw, so a bad path fails at once.
    dump = open(dump_csv, "w", newline="") if dump_csv is not None else nullcontext()
    try:
        with dump as fh, _pipeline(samples, seed, workers, N, level_major=level_major) as blocks:
            if fh is not None:
                fh.write("# raw x-monomial samples, one row per sample\n")
                fh.write("# columns: index, real, imag\n")
            for start, x in _x_rows(side, blocks, beta, K):
                mono = _monomial(x, p, q)
                stop = start + len(mono)
                vals[start:stop] = mono
                if fh is not None:
                    lines = zip(range(start, stop), mono.real.tolist(), mono.imag.tolist())
                    fh.write("".join(f"{i},{re!r},{im!r}\r\n" for i, re, im in lines))
        return _stats(vals)
    except BaseException:
        # A failed run leaves no dump behind; a device or a link is left alone.
        if dump_csv is not None:
            with suppress(OSError):
                if stat.S_ISREG(os.lstat(dump_csv).st_mode):
                    os.remove(dump_csv)
        raise


def _x_rows(side: str, blocks, beta: float, K: int):
    """Yield ``(start, x)``: the x rows, (rows, K + 1), of samples ``start`` onward."""
    for rows, steps in blocks:
        if side == "gaussian":
            # An f step holds whole samples, so each step finishes its own rows.
            for lo, z in steps:
                f = _f_modes(z, beta, np.empty((len(z), K + 1), np.complex128))
                yield rows.start + lo, exp_neg_series(f)
        else:
            # One recursion per block: its (2, K + 1, b) state carries across the level steps.
            state = _szego_state(K, rows.stop - rows.start)
            for lo, z in steps:
                x = _szego_low_levels(_alpha_levels(z, beta, lo), state)
            yield rows.start, x


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


def _field_moments(half: np.ndarray, grid: int, max_alpha: int) -> np.ndarray:
    """Moments c_0..c_max_alpha, (rows, max_alpha + 1), of each row's density ∝ e^F.

    ``half`` holds the half spectrum of F on a ``grid``-point theta grid, so
    ``irfft`` with ``norm="forward"`` (no 1/grid) gives F itself.  Only the
    moments are divided by c_0: e^F is never normalized on the grid.  A row
    whose e^F or moment sum overflows gets c_0 = inf, so NaN after the
    division, which Levinson flags as too peaked.
    """
    dens = np.fft.irfft(half, grid, axis=1, norm="forward")
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(dens, out=dens)
        c = trig_moments(dens, max_alpha)
        c /= c[:, :1]
    return c


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
    grid of :func:`pushforward_grid` points at radius ``r``, takes the
    trigonometric moments of its exponential, divided by their c_0, and
    recovers alpha_1..alpha_max_alpha from them.  The means are meant to
    approach 1/(n beta + 1) as (modes, radius) grow; the approximation is
    deliberate and the quality must be judged by refining both, not assumed.
    ``modes=0`` is the degenerate f = 0 path (uniform density, all alpha
    exactly zero).

    Any beta > 0 is accepted: the field 2 Re f_+ has covariance
    (2/beta) log(1/|2 sin((s - t)/2)|), so gamma**2 = 2/beta in chaos terms
    and the chaos is subcritical for beta > 1.  On the last rung (256 modes,
    radius 0.995, 2,000 samples, seed 120) E|alpha_1|^2 missed 1/(beta + 1) by
    11.2, 9.1, 7.7, 6.7 and 5.3 % at beta = 0.5, 1, 1.5, 2 and 3.  Densities
    too peaked to invert fail the Levinson positive-definiteness check.

    Both transforms are real FFTs (:func:`_field_moments`).  With h_k =
    f_k r**k on the half spectrum k = 0..grid//2, ``irfft(h, grid,
    norm="forward")`` is 2 Re sum_{0<k<grid/2} h_k e^{i k theta_j} plus the
    real parts of h_0 and of the Nyquist term h_{grid/2}; both vanish because
    f_0 = 0 and modes <= grid/4 < grid/2, so it is exactly 2 Re f_+(r e^{i
    theta_j}).  ``opuc.trig_moments`` of its exponential gives the moments
    c_0..c_max_alpha (max_alpha < grid//2), and dividing them by c_0 gives
    the normalized density's moments, since the FFT is linear.
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
    # The FFT rows are grid wide, wider than the draws: they size the steps.
    # Columns past modes stay zero: each step rewrites only f_0..f_modes.
    buf = np.zeros((min(samples, max(1, _STEP_VALUES // grid)), grid // 2 + 1), np.complex128)
    with _pipeline(samples, seed, workers, modes, row_values=grid) as blocks:
        for rows, steps in blocks:
            c = np.empty((rows.stop - rows.start, max_alpha + 1), np.complex128)
            for lo, z in steps:
                half = _f_modes(z, beta, buf[: len(z)])
                half[:, : modes + 1] *= decay
                c[lo : lo + len(z)] = _field_moments(half, grid, max_alpha)
            # One Levinson call per block: its last bits depend on the batch's row count.
            al, ok = levinson_batch(c, max_alpha)
            if not ok.all():
                bad = int((~ok).sum())
                raise ValueError(
                    f"{bad} sample(s) gave non-positive-definite moments; "
                    "the density is too peaked, lower radius or max_alpha"
                )
            absq[rows] = np.abs(al) ** 2
    return [_stats(absq[:, n]) for n in range(max_alpha)]
