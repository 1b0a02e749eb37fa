"""Deterministic machinery for orthogonal polynomials on the unit circle.

Float lane: everything here is double precision (quadrature and series
truncation are inherently approximate); the exact engines live elsewhere.

Conventions used throughout:

* A coefficient sequence ``alpha`` lists alpha_1..alpha_N with |alpha_n| < 1;
  alpha_0 = 1 is implicit.  The sign convention pairs the reversed polynomial
  recursion r_n(z) = r_{n-1}(z) + alpha_n z^n conj(r_{n-1}(1/conj(z)))... in
  coefficient form r_n[k] = r_{n-1}[k] + alpha_n * conj(r_{n-1}[n-k]), so the
  degree-1 example is r_1 = 1 + alpha_1 z.
* Trigonometric moments are c_k = integral of e^{-ik theta} d mu.
* The x/f series pair is x = exp(-f) as formal power series (x_0 = 1, f_0 = 0).
"""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np

from .combinatorics import gap_sequences
from .kernels import exp_neg_series, levinson_batch, szego_low_coefficients


class NotPositiveDefiniteError(ValueError):
    """Toeplitz moment matrix failed positive definiteness at some order."""

    def __init__(self, order: int):
        self.order = order
        super().__init__(f"moment sequence not positive definite at order {order}")


def _check_alpha(alpha) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(alpha, dtype=np.complex128))
    if not np.all(np.abs(arr) < 1.0):  # also rejects NaN
        raise ValueError("need |alpha_n| < 1 for every coefficient")
    return arr


def reversed_polynomial(alpha) -> np.ndarray:
    """Coefficients of r_N(z) = 1 + x_1 z + ... + x_N z^N from alpha_1..alpha_N.

    One recursion step per coefficient, r_n[k] = r_{n-1}[k] + alpha_n *
    conj(r_{n-1}[n-k]), run as one row of
    :func:`~verblunsky.kernels.szego_low_coefficients`.  r_N(0) = 1 always,
    and r_N has no zeros in the closed unit disk (see
    :func:`disk_nonvanishing` for the grid check).
    """
    a = _check_alpha(alpha)
    return szego_low_coefficients(a[None], a.size)[0]


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


def measure_density(alpha, grid: int) -> np.ndarray:
    """Density values of the spectral measure on theta_k = 2 pi k / grid.

    The density is prod_n (1 - |alpha_n|^2) / |r_N(e^{i theta})|^2 against
    normalized Lebesgue measure; its grid average is 1 up to quadrature error.
    """
    if grid < 16:
        raise ValueError("grid must be at least 16")
    a = _check_alpha(alpha)
    r = reversed_polynomial(a)
    if r.size > grid:
        raise ValueError("grid too coarse for the polynomial degree")
    vals = np.fft.ifft(r, n=grid) * grid
    norm = float(np.prod(1.0 - np.abs(a) ** 2)) if a.size else 1.0
    return norm / np.abs(vals) ** 2


def trig_moments(density, K: int) -> np.ndarray:
    """Moments c_0..c_K, c_k = integral of e^{-ik theta} d mu, by discrete sum."""
    rho = np.asarray(density, dtype=np.float64)
    grid = rho.size
    if K >= grid // 2:
        raise ValueError("K must be below grid/2 for trustworthy quadrature")
    return np.fft.fft(rho)[: K + 1] / grid


def verblunsky_from_moments(c) -> np.ndarray:
    """Recover alpha_1..alpha_K from trigonometric moments c_0..c_K.

    Levinson-type recursion on the Toeplitz moment matrix: with monic
    orthogonal p_{n-1}, the next coefficient is alpha_n = p_n(0)^* via
    alpha_n^* = -<z p_{n-1}, 1> / E_{n-1}, and E_n = E_{n-1}(1 - |alpha_n|^2),
    run as one row of :func:`~verblunsky.kernels.levinson_batch`.  Raises
    :class:`NotPositiveDefiniteError` at the first failing order: 0 when
    c_0 <= 0, otherwise the first n with |alpha_n| >= 1.
    """
    cm = np.asarray(c, dtype=np.complex128)
    alphas, ok = levinson_batch(cm[None], cm.size - 1)
    if not ok[0]:
        # The kernel's coefficients are exact up to the first failing order.
        first = int(np.argmax(np.abs(alphas[0]) >= 1.0)) + 1
        raise NotPositiveDefiniteError(first if cm[0].real > 0 else 0)
    return alphas[0]


def log_series(x) -> np.ndarray:
    """f with exp_series(f) = x, i.e. f = -log(x) as a formal power series.

    Standard coefficient recursion for log; requires x_0 = 1.  Note the sign:
    f_1 = -x_1, f_2 = -x_2 + x_1^2 / 2.
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
    from math import factorial

    from .combinatorics import partitions

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


def szego_identity_gap(alpha, M: int) -> float:
    """|exp(-sum_{m<=M} m |f_m|^2) - prod_n (1-|alpha_n|^2)^n|.

    f is the series -log r_N extended to order M; the gap decays geometrically
    in M since r_N is zero-free on a disk of radius > 1.
    """
    a = _check_alpha(alpha)
    if M < a.size:
        raise ValueError(
            f"order must be at least the number of coefficients ({a.size}), got {M}"
        )
    r = reversed_polynomial(a)
    padded = np.zeros(M + 1, dtype=np.complex128)
    padded[: r.size] = r
    f = log_series(padded)
    m = np.arange(M + 1)
    lhs = float(np.exp(-np.sum(m * np.abs(f) ** 2)))
    rhs = float(np.prod((1.0 - np.abs(a) ** 2) ** np.arange(1, a.size + 1))) if a.size else 1.0
    return abs(lhs - rhs)


def _real_coords(z: np.ndarray) -> np.ndarray:
    out = np.empty(2 * z.size)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def jacobian_determinant(alpha, step: float = 1e-6) -> tuple[float, float]:
    """(|det J|, prod_n (1-|alpha_n|^2)^{n-1}) for the alpha -> x coordinate map.

    J is the 2N x 2N real Jacobian of the map sending the real/imaginary parts
    of alpha_1..alpha_N to those of x_1..x_N (the coefficients of the reversed
    polynomial); central finite differences with the given step.  Warns when
    some alpha sits within 1e-6 of the unit circle, where differencing is
    ill-conditioned.
    """
    a = _check_alpha(alpha)
    N = a.size
    if N > 8:
        raise ValueError("finite-difference Jacobian supported for N <= 8")
    if N and np.min(1.0 - np.abs(a) ** 2) < 1e-6:
        warnings.warn(
            "alpha within 1e-6 of the unit circle: Jacobian is ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    # Probe 2j steps real coordinate j up and probe 2j + 1 steps it down; the
    # unchecked kernel is right here, since probes may leave the unit disk.
    probes = np.repeat(_real_coords(a)[None], 4 * N, axis=0)
    j = np.arange(2 * N)
    probes[2 * j, j] += step
    probes[2 * j + 1, j] -= step
    x = szego_low_coefficients(probes[:, 0::2] + 1j * probes[:, 1::2], N)[:, 1:]
    coords = np.empty((4 * N, 2 * N))
    coords[:, 0::2] = x.real
    coords[:, 1::2] = x.imag
    J = ((coords[0::2] - coords[1::2]) / (2 * step)).T
    det = abs(float(np.linalg.det(J))) if N else 1.0
    rhs = float(np.prod((1.0 - np.abs(a) ** 2) ** (np.arange(1, N + 1) - 1))) if N else 1.0
    return det, rhs


# -- exact-mode Jacobian ---------------------------------------------------
# Complex rationals as (re, im) Fraction pairs; enough arithmetic for an
# exact determinant by Gaussian elimination.

_CZERO = (Fraction(0), Fraction(0))
_CONE = (Fraction(1), Fraction(0))


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cconj(a):
    return (a[0], -a[1])


def _cdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    if n == 0:
        raise ZeroDivisionError("complex rational division by zero")
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def _exact_det(mat: list[list[tuple[Fraction, Fraction]]]) -> tuple[Fraction, Fraction]:
    n = len(mat)
    m = [row[:] for row in mat]
    det = _CONE
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != _CZERO), None)
        if pivot is None:
            return _CZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        pv = m[col][col]
        det = _cmul(det, pv)
        for r in range(col + 1, n):
            if m[r][col] == _CZERO:
                continue
            factor = _cdiv(m[r][col], pv)
            m[r] = [_csub(m[r][c], _cmul(factor, m[col][c])) for c in range(n)]
    return (sign * det[0], sign * det[1])


def jacobian_determinant_exact(
    alpha: list[tuple[Fraction, Fraction]],
) -> tuple[Fraction, Fraction]:
    """Exact |det J| and prod (1-|alpha_n|^2)^{n-1} for rational alpha.

    Differentiates the gap-sequence expansion of each x_n in the Wirtinger
    sense (alpha and conj alpha as independent variables) and takes an exact
    determinant of the 2N x 2N complex-rational matrix.  The determinant of
    the block-conjugate structure is real, which is asserted.
    """
    a = [(Fraction(re), Fraction(im)) for re, im in alpha]
    N = len(a)
    if N > 4:
        raise ValueError("exact Jacobian supported for N <= 4")
    if any(re * re + im * im >= 1 for re, im in a):
        raise ValueError("need |alpha_n| < 1 for every coefficient")
    if N == 0:
        return Fraction(1), Fraction(1)
    abar = [_cconj(z) for z in a]

    def avar(i):  # alpha_i with alpha_0 = 1
        return _CONE if i == 0 else a[i - 1]

    def bvar(i):  # conj(alpha_i)
        return _CONE if i == 0 else abar[i - 1]

    # d x_n / d alpha_k and d x_n / d conj(alpha_k), k = 1..N
    dx_da = [[_CZERO] * N for _ in range(N)]
    dx_db = [[_CZERO] * N for _ in range(N)]
    for n in range(1, N + 1):
        for seq in gap_sequences(n, N):
            pairs = list(seq)
            for pos, (i, j) in enumerate(pairs):
                rest = _CONE
                for pos2, (i2, j2) in enumerate(pairs):
                    if pos2 == pos:
                        continue
                    rest = _cmul(rest, _cmul(avar(i2), bvar(j2)))
                if i >= 1:
                    dx_da[n - 1][i - 1] = _cadd(dx_da[n - 1][i - 1], _cmul(rest, bvar(j)))
                if j >= 1:
                    dx_db[n - 1][j - 1] = _cadd(dx_db[n - 1][j - 1], _cmul(rest, avar(i)))

    # Assemble [[dx/da, dx/db], [conj(dx/db), conj(dx/da)]]
    mat: list[list[tuple[Fraction, Fraction]]] = []
    for n in range(N):
        mat.append(dx_da[n] + dx_db[n])
    for n in range(N):
        mat.append([_cconj(v) for v in dx_db[n]] + [_cconj(v) for v in dx_da[n]])
    det = _exact_det(mat)
    assert det[1] == 0, "Jacobian determinant of the conjugate structure must be real"
    rhs = Fraction(1)
    for n in range(1, N + 1):
        re, im = a[n - 1]
        rhs *= (1 - re * re - im * im) ** (n - 1)
    return abs(det[0]), rhs
