"""The paper's gap-sequence definition of x_n: the Szego kernel's oracle.

``x_series_truncated`` sums the gap-sequence terms of x_n directly, without
the reversed-polynomial recursion that ``kernels.szego_low_coefficients``
runs, so the tests compare the kernel against it.  ``disk_nonvanishing`` is
the grid check that r_N has no zeros in the closed unit disk.
"""

from __future__ import annotations

import numpy as np

from verblunsky.combinatorics import gap_sequences


def disk_nonvanishing(coeffs, grid: int = 4096) -> bool:
    """Winding-number check that a polynomial has no zeros in the closed disk.

    Evaluates on the uniform grid and requires zero net winding of the
    argument plus a safely positive minimum modulus.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    vals = np.fft.ifft(c, n=max(grid, 4 * c.size)) * max(grid, 4 * c.size)
    if np.abs(vals).min() < 1e-12:
        return False
    angles = np.angle(vals)
    d = np.diff(np.concatenate([angles, angles[:1]]))
    d = (d + np.pi) % (2 * np.pi) - np.pi
    winding = int(round(d.sum() / (2 * np.pi)))
    return winding == 0


def x_series_truncated(alpha, n: int, max_index: int) -> complex:
    """Coefficient x_n as a truncated sum over gap sequences.

    ``alpha`` may be a finite sequence (entries beyond its length count as 0)
    or a callable rule index -> complex; alpha_0 = 1 either way.  For a finite
    sequence of length N and max_index >= N this reproduces coefficient n of
    :func:`reversed_polynomial`.
    """
    if callable(alpha):
        lookup = lambda i: 1.0 if i == 0 else complex(alpha(i))
    else:
        arr = np.atleast_1d(np.asarray(alpha, dtype=np.complex128))

        def lookup(i: int) -> complex:
            if i == 0:
                return 1.0
            return complex(arr[i - 1]) if i <= arr.size else 0.0

    total = 0.0 + 0.0j
    for seq in gap_sequences(n, max_index):
        term = 1.0 + 0.0j
        for i, j in seq:
            term *= lookup(i) * np.conj(lookup(j))
        total += term
    return complex(total)
