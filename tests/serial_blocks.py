"""The samplers' serial block loop, frozen so the tests can require equal output.

``verblunsky.montecarlo`` draws each block on a helper thread, in bounded steps
into two reused buffers, while the calling thread does the previous step's
arithmetic in place.
This module is the loop it replaced: every block is drawn and then transformed
in full on one thread, and alpha blocks go to the Szego kernel samples-first.
The pipelined samplers must return exactly these values, CSV bytes and errors.
The kernels (Szego, ``exp(-f)``, Levinson and the pushforward's per-row
field moments) are the package's own; only the block loop is frozen here.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from verblunsky.kernels import exp_neg_series, levinson_batch, szego_low_coefficients
from verblunsky.montecarlo import BLOCK_SIZE, _field_moments, pushforward_grid


def _draw_blocks(samples, seed, workers):
    base, extra = divmod(samples, workers)
    chunks = [base + (1 if w < extra else 0) for w in range(min(workers, samples))]
    children = np.random.SeedSequence(seed).spawn(len(chunks))
    start = 0
    for child, chunk in zip(children, chunks):
        rng = np.random.Generator(np.random.PCG64(child))
        stop = start + chunk
        for lo in range(start, stop, BLOCK_SIZE):
            yield rng, slice(lo, min(lo + BLOCK_SIZE, stop))
        start = stop


def _alpha_block(rng, beta, N, count):
    z = rng.standard_normal((N, count, 2)).view(np.complex128)[..., 0]
    n = np.arange(1, N + 1, dtype=np.float64)[:, None]
    sq = np.square(z.real)
    sq += np.square(z.imag)
    amp = np.divide(sq, n * (-2.0 * beta))
    np.expm1(amp, out=amp)
    np.divide(amp, sq, out=amp, where=sq > 0)
    np.negative(amp, out=amp)
    np.sqrt(amp, out=amp)
    z *= amp
    return z.T


def _f_block(rng, beta, N, count):
    z = rng.standard_normal((count, N, 2))
    n = np.arange(1, N + 1, dtype=np.float64)
    scale = np.sqrt(1.0 / (2.0 * n * beta))
    out = np.zeros((count, N + 1), np.complex128)
    out[:, 1:] = (z[:, :, 0] + 1j * z[:, :, 1]) * scale
    return out


def _sample(block, width, beta, N, count, seed, workers):
    out = np.empty((count, width), np.complex128)
    for rng, rows in _draw_blocks(count, seed, workers):
        out[rows] = block(rng, beta, N, rows.stop - rows.start)
    return out


def sample_alpha_batch(beta, N, count, seed, workers):
    return _sample(_alpha_block, N, beta, N, count, seed, workers)


def sample_f_batch(beta, N, count, seed, workers):
    return _sample(_f_block, N + 1, beta, N, count, seed, workers)


def _monomial(x, p, q):
    mono = np.ones(x.shape[0], np.complex128)
    for n, c in p.items():
        mono *= x[:, n] ** c
    for n, c in q.items():
        mono *= np.conj(x[:, n] ** c)
    return mono


def mc_values(side, p, q, beta, n_trunc, samples, seed, workers, dump_csv=None):
    """The per-sample monomial values that ``mc_x_moment`` averages."""
    K = max([0, *p.support(), *q.support()])
    vals = np.empty(samples, np.complex128)
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
                x = szego_low_coefficients(_alpha_block(rng, beta, n_trunc, b), K)
            mono = _monomial(x, p, q)
            vals[rows] = mono
            if fh is not None:
                lines = zip(range(rows.start, rows.stop), mono.real.tolist(), mono.imag.tolist())
                fh.write("".join(f"{i},{re!r},{im!r}\r\n" for i, re, im in lines))
    return vals


def pushforward_absq(beta, modes, radius, samples, max_alpha, seed, workers):
    """The per-sample |alpha_n|^2, (samples, max_alpha), that ``pushforward_experiment`` averages."""
    grid = pushforward_grid(modes)
    decay = radius ** np.arange(modes + 1)
    absq = np.empty((samples, max_alpha))
    for rng, rows in _draw_blocks(samples, seed, workers):
        b = rows.stop - rows.start
        half = np.zeros((b, grid // 2 + 1), np.complex128)
        half[:, : modes + 1] = _f_block(rng, beta, modes, b) * decay
        al, ok = levinson_batch(_field_moments(half, grid, max_alpha), max_alpha)
        if not ok.all():
            bad = int((~ok).sum())
            raise ValueError(
                f"{bad} sample(s) gave non-positive-definite moments; "
                "the density is too peaked, lower radius or max_alpha"
            )
        absq[rows] = np.abs(al) ** 2
    return absq
