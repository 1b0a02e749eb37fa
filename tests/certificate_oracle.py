"""The certificate's closed form proved a second way: by the recurrence identity.

``alphamoments._prove`` proves S(N) = u(N) / (scale D(N)) from the sweep's
own levels by finite differences.  :func:`recurrence_proof` proves it by the
recurrence identity instead: it reads u on k + 1 levels only, extends each
state's polynomial top_mt + 1 levels by its vanishing (k+1)-th differences,
and checks the one-level recurrence P_{N-d} u(N) = M(N) u(N-1) on the
extension with the sweep's step.  :func:`prove` runs it on the sweep's levels
N0 .. N0 + k of (p, q, beta).  The tests require both proofs to return the
same (scale, diffs).  Not called by the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from math import comb, lcm, prod

from verblunsky.alphamoments import (
    _DONE,
    _initial_state,
    _level_factors,
    _level_sweep,
    _rows,
    _step,
    _window,
)


def recurrence_proof(rows, factors, d: int, n0: int, window: list) -> tuple | None:
    """(scale, diffs): u_DONE's forward differences at n0, proved, or None.

    ``window`` is the sweep's (den, amps) at levels n0 .. n0 + k and ``factors``
    is t -> (P_t, w).  Each state's u_s(N) = scale D(N) a_s(N) is read there as an
    integer polynomial of degree <= k, extended top_mt + 1 levels by its vanishing
    (k+1)-th differences.  As D(N) / D(N-1) = P_N / P_{N-d}, the sweep's step a(N)
    = M(N) a(N-1) / P_N is P_{N-d} u(N) = M(N) u(N-1), of degree <= k + top_mt in
    N: true at the k + top_mt + 1 levels from n0 + 1, it is true for every N, and
    induction from n0 gives u(N) = scale D(N) a(N) at every N >= n0 (D has no
    integer root >= n0, and P_{N-d} divides D(N-1)).
    """
    def denominator(n: int) -> int:
        return prod(factors(n - j)[0] for j in range(d))
    k, top_mt = len(window) - 1, len(factors(0)[1]) - 1
    ratios = [Fraction(denominator(n0 + i), den) for i, (den, _) in enumerate(window)]
    scale = lcm(*(r.denominator for r in ratios))
    cols = [[r.numerator * scale // r.denominator * a[s] for r, (_, a) in zip(ratios, window)]
            for s in range(len(rows))]
    step = [(-1) ** (j + 1) * comb(k + 1, j) for j in range(1, k + 2)]
    for col in cols:
        for _ in range(top_mt + 1):
            col.append(sum(c * col[-j] for j, c in enumerate(step, 1)))
    for n in range(1, k + top_mt + 2):
        new = _step(rows, [col[n - 1] for col in cols], factors(n0 + n)[1])
        p_shift = factors(n0 + n - d)[0]
        if any(p_shift * col[n] != x for col, x in zip(cols, new)):
            return None
    u = cols[_DONE]
    diffs = [sum((-1) ** (i - j) * comb(i, j) * u[j] for j in range(i + 1)) for i in range(k + 1)]
    return scale, tuple(diffs)


def prove(p, q, beta: Fraction) -> tuple | None:
    """:func:`recurrence_proof` of (p, q) at beta, on the sweep's levels N0 .. N0 + k."""
    (n0, k), init = _window(p, q, beta), _initial_state(p, q)
    rows, top_mt = _rows(init, p.size)
    window = list(itertools.islice(_level_sweep(init, p.size, beta), n0, n0 + k + 1))
    factors = partial(_level_factors, beta=beta, top_mt=top_mt)
    return recurrence_proof(rows, factors, p.deg, n0, window)
