"""Alpha-side x-moments from the Szego recursion in expectation: a third route.

The exact alpha side (``alphamoments``) and its checks (``tuple_oracle``) both
start from gap-sequence combinatorics.  This oracle starts from r_N itself.
Under the alpha law the coefficients alpha_1, alpha_2, ... are independent,
|alpha_n|^2 ~ Beta(1, n beta) with a uniform phase, and x_k truncated to
indices <= N is r_N[k].  Each factor of E[prod r_N[k_i] prod conj(r_N[l_j])]
expands by one step of the recursion

    r_N[k] = r_{N-1}[k] + alpha_N conj(r_{N-1}[N - k]),

and alpha_N, independent of r_{N-1}, leaves the weight E[alpha_N**a
conj(alpha_N)**b] on each term.  r_N[0] = 1, r_N[k] = 0 for k > N, and r_0 = 1.
Neither gap sequences nor the transfer table appear.  Not called by the
package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, prod


def power_moment(a: int, b: int, n: int, beta: Fraction) -> Fraction:
    """E[alpha_n**a conj(alpha_n)**b]: 0 unless a = b, as the phase is uniform, and
    E|alpha_n|^(2a) = a! / ((n beta + 1)...(n beta + a)) for |alpha_n|^2 ~ Beta(1, n beta)."""
    if a != b:
        return Fraction(0)
    return Fraction(factorial(a)) / prod(n * beta + s for s in range(1, a + 1))


def flipped(n: int, k: int, conj: bool) -> tuple[int, bool]:
    """The factor that the alpha_n term of r_n[k] (or of its conjugate) carries: r_{n-1}[n - k],
    conjugated iff the factor was not."""
    return n - k, not conj


def factor_moment(factors: tuple, n: int, beta: Fraction, memo: dict) -> Fraction:
    """E of the product of r_n[k] (conj(r_n[k]) where conj) over the sorted (k, conj) ``factors``.

    Equal factors are one group: choosing f of its c members to flip counts
    comb(c, f) times.  ``memo`` holds one beta's values, keyed by (n, factors).
    """
    if not factors:
        return Fraction(1)
    if factors[-1][0] > n:
        return Fraction(0)
    if (n, factors) in memo:
        return memo[n, factors]
    groups = sorted(set(factors))
    counts = [factors.count(g) for g in groups]
    total = Fraction(0)
    for flips in itertools.product(*(range(c + 1) for c in counts)):
        a = sum(f for (_, conj), f in zip(groups, flips) if not conj)
        b = sum(f for (_, conj), f in zip(groups, flips) if conj)
        weight = power_moment(a, b, n, beta)
        if not weight:
            continue
        rest = []
        for (k, conj), c, f in zip(groups, counts, flips):
            weight *= comb(c, f)
            rest += [(k, conj)] * (c - f) + [flipped(n, k, conj)] * f
        rest = tuple(sorted(x for x in rest if x[0]))  # r[0] = 1
        total += weight * factor_moment(rest, n - 1, beta, memo)
    memo[n, factors] = total
    return total


def x_moment(p, q, beta: Fraction, max_index: int, memo: dict | None = None) -> Fraction:
    """E[x**p conj(x)**q] over the coefficients alpha_1..alpha_max_index, with x_k = r_N[k]
    at N = max_index: ``alpha_x_moment(p, q, beta, max_index).value`` by the recursion.
    Pass one ``memo`` dict per beta to share values across calls."""
    factors = sorted([(k, False) for k in p.slots()] + [(k, True) for k in q.slots()])
    return factor_moment(tuple(factors), max_index, Fraction(beta), {} if memo is None else memo)
