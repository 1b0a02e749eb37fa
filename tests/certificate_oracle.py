"""The certificate's closed form proved a second way: by the recurrence identity.

``alphamoments._prove`` proves S(N) = u(N) / D(N) from the sweep's own
levels by finite differences, and returns both polynomials' forward
differences at 0; it requires each level's reduced denominator to divide
D(N).  :func:`recurrence_proof` keeps the general form u(N) / (scale D(N)),
scale the lcm of the denominators of D(N) / den, which is 1 on the reduced
sweep, and proves it by the recurrence
identity instead: it reads u on k + 1 levels only, extends each state's
polynomial top_mt + 1 levels by its vanishing (k+1)-th differences, and checks
the one-level recurrence P_{N-d} u(N) = M(N) u(N-1) on the extension with the
sweep's step.  It forms D from its own product of level denominators.
:func:`prove` runs it on the sweep's levels 0 .. k of (p, q, beta).  The tests
require both proofs to return the same (num, den).  Not called by the package.
"""

from __future__ import annotations

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
)


def recurrence_proof(rows, factors, d: int, window: list) -> tuple | None:
    """(num, den): the forward differences at 0 of u_DONE and of scale D, proved, or None.

    ``window`` is the sweep's (den, amps) at levels 0 .. k and ``factors`` is
    t -> (P_t, w).  Each state's u_s(N) = scale D(N) a_s(N) is read there as an
    integer polynomial U_s of degree <= k, extended top_mt + 1 levels by its
    vanishing (k+1)-th differences.  As D(N) P_{N-d} = P_N D(N-1), zero factors
    included, the sweep's step a(N) = M(N) a(N-1) / P_N is P_{N-d} u(N) =
    M(N) u(N-1), of degree <= k + top_mt in N: true of U at the k + top_mt + 1
    levels from 1, it is true for every N.  U = u on levels 0 .. k, and past
    them N > d, so P_{N-d} > 0 and induction gives U = u at every N.  D, a
    product of k linear factors in N, is its own degree-k polynomial.
    """
    def denominator(n: int) -> int:
        return prod(factors(n - j)[0] for j in range(d))

    def differences(values: list[int]) -> tuple[int, ...]:
        return tuple(sum((-1) ** (i - j) * comb(i, j) * values[j] for j in range(i + 1))
                     for i in range(k + 1))

    k, top_mt = len(window) - 1, len(factors(0)[1]) - 1
    ratios = [Fraction(denominator(n), den) for n, (den, _) in enumerate(window)]
    scale = lcm(*(r.denominator for r in ratios))
    cols = [[r.numerator * scale // r.denominator * a[s] for r, (_, a) in zip(ratios, window)]
            for s in range(len(rows))]
    step = [(-1) ** (j + 1) * comb(k + 1, j) for j in range(1, k + 2)]
    for col in cols:
        for _ in range(top_mt + 1):
            col.append(sum(c * col[-j] for j, c in enumerate(step, 1)))
    for n in range(1, k + top_mt + 2):
        new = _step(rows, [col[n - 1] for col in cols], factors(n)[1])
        p_shift = factors(n - d)[0]
        if any(p_shift * col[n] != x for col, x in zip(cols, new)):
            return None
    return differences(cols[_DONE]), differences([scale * denominator(n) for n in range(k + 1)])


def prove(p, q, beta: Fraction) -> tuple | None:
    """:func:`recurrence_proof` of (p, q) at beta, on the sweep's levels 0 .. k = d top_mt."""
    rows, top_mt = _rows(_initial_state(p, q), p.size)
    factors = partial(_level_factors, beta=beta, top_mt=top_mt)
    window = list(_level_sweep(rows, map(factors, range(p.deg * top_mt + 1))))
    return recurrence_proof(rows, factors, p.deg, window)
