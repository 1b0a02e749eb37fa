"""exp(-f) as a power series, one row at a time and by the partition sum,
and its inverse -log(x) by the full coefficient loop.

``exp_series`` is a one-row call into the batched ``exp(-f)`` kernel;
``exp_series_partition_sum`` is the explicit partition sum, independent of
the kernel's recursion, that the tests check the kernel against.
``log_series_loop`` is the O(len(x)^2) loop of numpy scalars that
``opuc.log_series`` replaced, frozen so that the tests can require the two to
agree exactly.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from verblunsky.combinatorics import partitions
from verblunsky.kernels import exp_neg_series


def exp_series(f) -> np.ndarray:
    """x = exp(-f) truncated at the input length; requires f_0 = 0."""
    fc = np.asarray(f, dtype=np.complex128)
    if fc.size == 0 or abs(fc[0]) > 1e-9:
        raise ValueError("exp_series needs zero constant term")
    return exp_neg_series(fc[None])[0]


def exp_series_partition_sum(f) -> np.ndarray:
    """Oracle for :func:`exp_series` by the explicit partition sum.

    Coefficient n of exp(sum g_u z^u) is sum over partitions J of n of
    g**J / J!; here g = -f.  Exponential cost, for cross-checks only.
    """
    fc = np.asarray(f, dtype=np.complex128)
    if fc.size == 0 or abs(fc[0]) > 1e-9:
        raise ValueError("exp_series needs zero constant term")
    g = -fc
    y = np.zeros(fc.size, dtype=np.complex128)
    y[0] = 1.0
    for n in range(1, fc.size):
        acc = 0.0 + 0.0j
        for J in partitions(n):
            term = 1.0 + 0.0j
            for u, cnt in J.items():
                term *= g[u] ** cnt / factorial(cnt)
            acc += term
        y[n] = acc
    return y


def log_series_loop(x) -> np.ndarray:
    """Oracle for ``opuc.log_series``: the same recursion over every x_{k-j}.

    g_k = x_k - sum_{j=1}^{k-1} (j/k) g_j x_{k-j}, f = -g, in numpy complex128
    scalars, zero terms included.
    """
    xc = np.asarray(x, dtype=np.complex128)
    if xc.size == 0 or abs(xc[0] - 1.0) > 1e-9:
        raise ValueError("log_series needs leading coefficient 1")
    n = xc.size
    g = np.zeros(n, dtype=np.complex128)
    for k in range(1, n):
        acc = xc[k]
        for j in range(1, k):
            acc -= (j / k) * g[j] * xc[k - j]
        g[k] = acc
    return -g
