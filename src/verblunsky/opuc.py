"""Deterministic machinery for orthogonal polynomials on the unit circle.

Float lane: everything here is double precision (quadrature and series
truncation are inherently approximate), except the exact Jacobian, which runs
on an integer lattice; the other exact engines live elsewhere.

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
from math import lcm

import numpy as np

# Unused here: perfbench's span bindings look this name up on this module.
from .combinatorics import gap_sequences  # noqa: F401
from .kernels import levinson_batch, szego_low_coefficients


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
    and r_N has no zeros in the closed unit disk.
    """
    a = _check_alpha(alpha)
    return szego_low_coefficients(a[None], a.size)[0]


def measure_density(alpha, grid: int) -> np.ndarray:
    """Density values of the spectral measure on theta_k = 2 pi k / grid.

    The density is prod_n (1 - |alpha_n|^2) / |r_N(e^{i theta})|^2 against
    normalized Lebesgue measure; its grid average is 1 up to quadrature error.
    |r_N|^2 = sum_{|m|<=N} s_m e^{i m theta}, s_m = sum_l r_{l+m} conj(r_l), is
    one real inverse FFT of s_0..s_N, with s folded onto m mod grid when
    2N >= grid.  Its relative rounding error is about eps (||r_N||_1/|r_N|)^2,
    not eps ||r_N||_1/|r_N| as for a complex FFT's modulus: larger only where
    |r_N| is small, where the peaked density's quadrature error dominates.
    """
    if grid < 16:
        raise ValueError("grid must be at least 16")
    r = reversed_polynomial(alpha)  # validates alpha
    N = r.size - 1
    if N >= grid:
        raise ValueError("grid too coarse for the polynomial degree")
    s = np.correlate(r, r, "full")  # s[N + m] = s_m for m = -N..N
    spec = s[N:]
    if 2 * N >= grid:
        spec = np.zeros(grid, dtype=np.complex128)
        np.add.at(spec, np.arange(-N, N + 1) % grid, s)
    vals = np.fft.irfft(spec[: grid // 2 + 1], grid)
    vals *= grid
    if not np.all(vals > 0):  # |r_N|^2 > 0 on the circle, unless lost to rounding
        raise ValueError("|r_N|^2 is not positive on the grid: alpha too close to the unit circle")
    norm = float(np.prod(1.0 - np.abs(np.asarray(alpha, dtype=np.complex128)) ** 2))
    return np.divide(norm, vals, out=vals)


def trig_moments(density, K: int) -> np.ndarray:
    """Moments c_0..c_K, c_k = integral of e^{-ik theta} d mu, by discrete sum.

    The sum runs along the last axis: one row of moments per row of ``density``.
    """
    rho = np.asarray(density, dtype=np.float64)
    grid = rho.shape[-1]
    if K >= grid // 2:
        raise ValueError("K must be below grid/2 for trustworthy quadrature")
    return np.fft.rfft(rho, axis=-1)[..., : K + 1] / grid


def verblunsky_from_moments(c) -> np.ndarray:
    """Recover alpha_1..alpha_K from trigonometric moments c_0..c_K.

    Levinson-type recursion on the Toeplitz moment matrix: with monic
    orthogonal p_{n-1}, the next coefficient is alpha_n = p_n(0)^* via
    alpha_n^* = -<z p_{n-1}, 1> / E_{n-1}, and E_n = E_{n-1}(1 - |alpha_n|^2),
    run as one row of :func:`~verblunsky.kernels.levinson_batch`.  Raises
    :class:`NotPositiveDefiniteError` at the first failing order: 0 when
    c_0 <= 0, otherwise the first n with |alpha_n| >= 1.  Being one row, the
    result can differ in its last bits from the same row inside a large
    ``levinson_batch`` call.
    """
    cm = np.asarray(c, dtype=np.complex128)
    alphas, ok = levinson_batch(cm[None], cm.size - 1)
    if not ok[0]:
        # The kernel's coefficients are exact up to the first failing order.
        first = int(np.argmax(np.abs(alphas[0]) >= 1.0)) + 1
        raise NotPositiveDefiniteError(first if cm[0].real > 0 else 0)
    return alphas[0]


def log_series(x) -> np.ndarray:
    """f with exp(-f) = x, i.e. f = -log(x) as a formal power series.

    Standard coefficient recursion for log, g_k = x_k - sum_j (j/k) g_j
    x_{k-j} with f = -g; requires x_0 = 1.  Note the sign: f_1 = -x_1,
    f_2 = -x_2 + x_1^2 / 2.  The sum runs over a tap list of the nonzero
    x_i, i descending, in Python complex arithmetic, so the cost is
    O(len(x) * nonzero terms): the Szego-padded r_N has N + 1 of them.  Terms
    are taken in j = k - i ascending order, as in the frozen full O(len(x)^2)
    loop, so term for term this is the loop's arithmetic and the result is
    bitwise equal to the loop's whenever every partial g is finite, except
    that a zero coefficient may differ in sign.  A skipped term is a signed
    zero then; with an infinite g the loop's inf * 0 would be NaN.
    """
    xc = np.asarray(x, dtype=np.complex128)
    if xc.size == 0 or abs(xc[0] - 1.0) > 1e-9:
        raise ValueError("log_series needs leading coefficient 1")
    xs = xc.tolist()
    taps = [(i, xs[i]) for i in range(len(xs) - 1, 0, -1) if xs[i]]
    g = [0j] * len(xs)
    for k in range(1, len(xs)):
        acc = xs[k]
        for i, xi in taps:
            if i < k:
                acc -= (k - i) / k * g[k - i] * xi
        g[k] = acc
    return -np.array(g)


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
    rhs = float(np.prod((1.0 - np.abs(a) ** 2) ** np.arange(1, a.size + 1)))
    return abs(lhs - rhs)


def _unit_probes(pairs: list, unit=1) -> list[list]:
    """alpha, then alpha + unit and alpha + unit i at each coordinate: 2N + 1 rows.

    Coordinates are (re, im) pairs of floats, or of ints on a lattice of step
    ``unit``.  Each gap-sequence term of x_n reads alpha_k or conj(alpha_k) at
    most once (the flattened indices strictly decrease), so x_n is affine in
    each alpha_k and x(probe) - x(alpha) is the exact derivative along that
    direction.  Both Jacobians share its bound N <= 8."""
    if len(pairs) > 8:
        raise ValueError("Jacobian supported for N <= 8")
    rows = [list(pairs)]
    for k, (re, im) in enumerate(pairs):
        for dre, dim in ((unit, 0), (0, unit)):
            rows.append([*pairs[:k], (re + dre, im + dim), *pairs[k + 1 :]])
    return rows


def _volume_product(pairs: list):
    """prod_n (1 - |alpha_n|^2)^{n-1} over (re, im) pairs."""
    out = 1
    for n, (re, im) in enumerate(pairs):
        out *= (1 - re * re - im * im) ** n
    return out


def jacobian_determinant(alpha) -> tuple[float, float]:
    """(|det J|, prod_n (1-|alpha_n|^2)^{n-1}) for the alpha -> x coordinate map.

    J is the 2N x 2N real Jacobian of the map sending the real/imaginary parts
    of alpha_1..alpha_N to those of x_1..x_N (the coefficients of the reversed
    polynomial).  x is affine in each coordinate (see :func:`_unit_probes`),
    so its columns are the exact unit-step differences, evaluated in floats
    by the Szego kernel.  Warns when some alpha sits within 1e-6 of the unit
    circle, where the relative gap to the vanishing product is ill-conditioned.
    """
    a = _check_alpha(alpha)
    N = a.size
    pairs = [(float(z.real), float(z.imag)) for z in a]
    # The unchecked kernel is right here, since probes leave the unit disk.
    probes = np.array([[complex(*z) for z in row] for row in _unit_probes(pairs)])
    if N and np.min(1.0 - np.abs(a) ** 2) < 1e-6:
        warnings.warn(
            "alpha within 1e-6 of the unit circle: Jacobian is ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    x = szego_low_coefficients(probes, N)[:, 1:]
    d = x[1:] - x[0]  # one row per direction: J transposed, same |det|
    J = np.stack([d.real, d.imag], axis=-1).reshape(2 * N, 2 * N)
    return abs(float(np.linalg.det(J))), float(_volume_product(pairs))


def _reversed_exact(pairs: list, scale=1) -> list:
    """R_N[1..N] = scale**N x_1..x_N, exact (re, im) pairs: R_n[k] = scale R_{n-1}[k] +
    a_n conj(R_{n-1}[n-k]), a_n = alpha_n at scale 1, a_n = L alpha_n at scale L."""
    r = [(1, 0)]
    for ar, ai in pairs:
        r = [(scale * xr + ar * yr + ai * yi, scale * xi + ai * yr - ar * yi)
             for (xr, xi), (yr, yi) in zip([*r, (0, 0)], [(0, 0), *reversed(r)])]
    return r[1:]


def _integer_det(rows: list[list[int]]) -> int:
    """Determinant of a square int matrix by fraction-free (Bareiss) elimination;
    each step's 2x2 minors divide exactly by the previous pivot (Sylvester)."""
    m, sign, prev = list(rows), 1, 1
    while m:
        pivot = next((r for r, row in enumerate(m) if row[0]), None)
        if pivot is None:
            return 0
        if pivot:
            m[0], m[pivot] = m[pivot], m[0]
            sign = -sign
        (p, *top), *rest = m
        m = [[(p * x - f * y) // prev for x, y in zip(xs, top)] for f, *xs in rest]
        prev = p
    return sign * prev


def jacobian_determinant_exact(
    alpha: list[tuple[Fraction, Fraction]],
) -> tuple[Fraction, Fraction]:
    """Exact |det J| and prod (1-|alpha_n|^2)^{n-1} for rational alpha.

    The unit-step differences of :func:`jacobian_determinant` on the Gaussian
    integers a_n = L alpha_n, L the lcm of all denominators, probes stepping by
    L: x_k = R_N[k] / L**N, so |det J| = |det L**N J| / L**(2 N**2), in ints.
    """
    a = [(Fraction(re), Fraction(im)) for re, im in alpha]
    if any(re * re + im * im >= 1 for re, im in a):
        raise ValueError("need |alpha_n| < 1 for every coefficient")
    L = lcm(*(c.denominator for z in a for c in z))
    lattice = [(int(re * L), int(im * L)) for re, im in a]
    base, *moved = [_reversed_exact(row, L) for row in _unit_probes(lattice, L)]
    J = [[v for (xr, xi), (br, bi) in zip(x, base) for v in (xr - br, xi - bi)] for x in moved]
    return Fraction(abs(_integer_det(J)), L ** (2 * len(a) ** 2)), Fraction(_volume_product(a))
