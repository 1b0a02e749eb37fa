"""Batched numpy kernels: the one implementation of each OPUC recursion.

Every float-lane Szego recursion, exp(-f) series and Levinson recovery in the
package runs here; the scalar entry points in :mod:`verblunsky.opuc` are
one-row calls into these kernels.  numpy is the only backend: each public
function validates its input and runs the recursion itself.

Kernels:

* ``szego_low_coefficients`` — first K+1 coefficients of the reversed
  polynomial for a batch of coefficient sequences.  One loop over n = 1..N
  tracks only the K+1 lowest and K+1 highest coefficients (the recursion
  couples low[j] to top[j-1]): O(N K) per sample.  The state is samples-last,
  ``low`` and ``conj(top)`` as ``(K+1, S)`` arrays updated in place on
  contiguous rows, and is transposed back to ``(S, K+1)`` once at the end.
  Its output is bitwise equal to the same recursion run with samples on the
  first axis.  The loop itself is ``_szego_low_levels``, which reads the
  coefficients level-major, ``(N, S)`` with row n - 1 holding alpha_n of every
  sample, and advances a ``(2, K+1, S)`` state from ``_szego_state`` in place,
  so the levels may come in consecutive slices: any split gives the one-call
  result bit for bit.  ``szego_low_coefficients`` transposes its ``(S, N)``
  input once and runs it over all levels from a fresh state; the alpha
  sampler, which draws level-major, advances one state per block on the
  calling thread, a step of levels at a time while its helper thread draws
  the next step, so no ``(S, N)`` copy of its draws is made.
* ``exp_neg_series`` — x = exp(-f) series coefficients for a batch of f rows.
* ``levinson_batch`` — Verblunsky coefficients from trigonometric moments for
  a batch of moment rows, with per-sample positive-definiteness flags.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, for run reports."""
    return "numpy"


# -- reversed-polynomial low coefficients ----------------------------------


def szego_low_coefficients(alphas: np.ndarray, K: int) -> np.ndarray:
    """(S, K+1) low coefficients of r_N per sample row of alphas (S, N)."""
    alphas = np.asarray(alphas, dtype=np.complex128)
    if alphas.ndim != 2:
        raise ValueError("alphas must be a (samples, N) array")
    state = _szego_state(K, alphas.shape[0])
    return np.ascontiguousarray(_szego_low_levels(np.ascontiguousarray(alphas.T), state))


def _szego_state(K: int, S: int) -> np.ndarray:
    """The state of r_0 = 1 for :func:`_szego_low_levels`, (2, K+1, S)."""
    state = np.zeros((2, K + 1, S), np.complex128)
    state[:, 0] = 1.0
    return state


def _szego_low_levels(a_levels: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Advance ``state`` over level-major alphas (N, S) in place; return its
    (S, K+1) low coefficients, a view of the state.

    Row n - 1 of ``a_levels`` holds alpha_n of every sample.
    """
    # Samples-last state: row k holds coefficient k of every sample.  low[j] =
    # r_n[j] and ctop[i] = conj(r_n[n - i]), zero past degree n; as conj(a) *
    # low = conj(a * conj(low)), each value is bitwise the recursion on r_n.
    low, ctop = state
    nxt = np.empty_like(ctop)
    tmp = np.empty_like(ctop[1:])
    for a in a_levels:
        np.multiply(np.conj(a), low, out=nxt)
        nxt[1:] += ctop[:-1]
        np.multiply(a, ctop[:-1], out=tmp)
        low[1:] += tmp
        ctop, nxt = nxt, ctop
    if len(a_levels) % 2:  # ctop ended in the buffer nxt started in
        state[1] = ctop
    return low.T


# -- exp(-f) series --------------------------------------------------------


def exp_neg_series(f: np.ndarray) -> np.ndarray:
    """x = exp(-f) coefficients per row, a view of coefficient-major rows; f[:, 0] must be 0."""
    f = np.ascontiguousarray(f, dtype=np.complex128)
    if f.ndim != 2:
        raise ValueError("f must be a (samples, modes+1) array")
    if f.shape[1] and np.abs(f[:, 0]).max() > 1e-12:
        raise ValueError("constant terms must vanish")
    # x_k = sum_{j<=k} (j / k) g_j x_{k-j}, g = -f, added in order of j.
    g = np.negative(f.T, order="C")
    y = np.zeros_like(g)
    y[:1] = 1.0
    term = np.empty_like(g[0])
    for k in range(1, len(g)):
        for j in range(1, k + 1):
            np.multiply(g[j], j / k, out=term)
            term *= y[k - j]
            y[k] += term
    return y.T


# -- batched Levinson ------------------------------------------------------


def levinson_batch(c: np.ndarray, K: int):
    """Per-row Verblunsky recovery from moments c (S, >= K+1).

    Returns (alphas (S, K), ok (S,)); rows with a positive-definiteness
    failure are flagged False and their coefficients are unspecified.  A row's
    last bits can depend on S: numpy may sum each inner product in another
    order once a batch is large (from 2,048 rows in one 12-level test), so a
    row computed alone can differ by rounding from the same row in a large call.
    """
    c = np.ascontiguousarray(c, dtype=np.complex128)
    if c.ndim != 2 or c.shape[1] < K + 1:
        raise ValueError("need a (samples, >= K+1) moment array")
    S = c.shape[0]
    out = np.zeros((S, K), np.complex128)
    ok = np.ones(S, bool)
    p = np.zeros((S, K + 1), np.complex128)
    p[:, 0] = 1.0
    energy = c[:, 0].real.copy()
    ok &= energy > 0
    safe = np.where(energy > 0, energy, 1.0)
    for n in range(1, K + 1):
        inner = np.sum(p[:, :n] * np.conj(c[:, 1 : n + 1]), axis=1)
        a_star = -inner / safe
        aa = np.abs(a_star) ** 2
        ok &= aa < 1.0
        energy = energy * (1.0 - aa)
        ok &= energy > 0
        safe = np.where(energy > 0, energy, 1.0)
        out[:, n - 1] = np.conj(a_star)
        pn = np.zeros_like(p)
        pn[:, 1 : n + 1] = p[:, :n]
        pn[:, :n] += a_star[:, None] * np.conj(p[:, n - 1 :: -1][:, :n])
        p = pn
    return out, ok
