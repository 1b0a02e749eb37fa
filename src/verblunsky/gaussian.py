"""Exact mixed moments of the low x-coefficients under the Gaussian field law.

Everything here is symbolic in beta: results are polynomials in beta**-1 with
rational coefficients (:class:`MomentPolynomial`).  The main engine
:func:`gaussian_x_moment` sums over integer partitions with conjugacy-class
weights; :func:`gaussian_x_moment_raw` recomputes the same moment by brute
enumeration of decomposition families and exists purely as an oracle.  The
diagonal moment at p = q = delta_n is the closed-form Bernoulli product
:func:`variance_pmf`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Mapping

from .combinatorics import MultiIndex, f_weight, haar_weight, partitions


@dataclass(frozen=True)
class MomentPolynomial:
    """Polynomial in beta**-1 with nonnegative rational coefficients.

    Stored as an exponent -> coefficient map; ``terms[k]`` multiplies beta**-k.
    """

    terms: tuple[tuple[int, Fraction], ...] = field(default=())

    @classmethod
    def from_terms(cls, terms: Mapping[int, Fraction | int]) -> MomentPolynomial:
        cleaned = {k: Fraction(c) for k, c in terms.items() if c}
        return cls(tuple(sorted(cleaned.items())))

    @classmethod
    def zero(cls) -> MomentPolynomial:
        return cls()

    def evaluate(self, beta: Fraction | int) -> Fraction:
        beta = Fraction(beta)
        return sum((c / beta**k for k, c in self.terms), Fraction(0))

    def to_map(self) -> dict[int, Fraction]:
        return dict(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "MomentPolynomial(0)"
        body = " + ".join(f"({c})b^-{k}" if k else f"{c}" for k, c in self.terms)
        return f"MomentPolynomial({body})"


def gaussian_x_moment(p: MultiIndex, q: MultiIndex) -> MomentPolynomial:
    """E of x**p (x**q)* as a polynomial in beta**-1 (partition-sum engine).

    Vanishes unless deg(p) = deg(q) = d; otherwise sums, over partitions L of
    d supported up to min(max supp p, max supp q), the conjugacy-class weight
    times the two decomposition counts, contributing at exponent |L|.
    """
    d = p.deg
    if d != q.deg:
        return MomentPolynomial.zero()
    cut = min(p.max_support, q.max_support)
    out: dict[int, Fraction] = {}
    for L in partitions(d):
        if L.max_support > cut:
            continue
        w = f_weight(p, L) * f_weight(q, L)
        if w:
            k = L.size
            out[k] = out.get(k, Fraction(0)) + haar_weight(L) * w
    return MomentPolynomial.from_terms(out)


def _decomposition_sums(p: MultiIndex) -> dict[MultiIndex, Fraction]:
    """Map sum-of-parts M -> sum over decomposition families of 1/prod(J!).

    Families assign one partition J of n to each labeled slot (n, r), r <= p(n);
    J! means prod_u J(u)!.
    """
    acc: dict[MultiIndex, Fraction] = {MultiIndex(): Fraction(1)}
    for n in p.slots():
        nxt: dict[MultiIndex, Fraction] = {}
        for M, val in acc.items():
            for J in partitions(n):
                jfact = 1
                for _, c in J.items():
                    jfact *= factorial(c)
                key = M + J
                nxt[key] = nxt.get(key, Fraction(0)) + val / jfact
        acc = nxt
    return acc


def gaussian_x_moment_raw(p: MultiIndex, q: MultiIndex) -> MomentPolynomial:
    """Oracle for :func:`gaussian_x_moment` by direct decomposition enumeration.

    Sums over pairs of decomposition families with equal part sums M the value
    M! / (prod J! prod K! prod_u u**M(u)) at exponent |M|.  Guarded to degree 8.
    """
    if max(p.deg, q.deg) > 8:
        raise ValueError("raw decomposition sum guarded to degree <= 8")
    if p.deg != q.deg:
        return MomentPolynomial.zero()
    left = _decomposition_sums(p)
    right = _decomposition_sums(q)
    out: dict[int, Fraction] = {}
    for M, lval in left.items():
        rval = right.get(M)
        if rval is None:
            continue
        mid = Fraction(1)
        for u, c in M.items():
            mid *= Fraction(factorial(c), u**c)
        k = M.size
        out[k] = out.get(k, Fraction(0)) + lval * rval * mid
    return MomentPolynomial.from_terms(out)


def variance_pmf(n: int) -> MomentPolynomial:
    """prod_{k=1}^{n} ((1/k) beta**-1 + (k-1)/k), expanded exactly.

    The probability generating function of a sum of independent Bernoulli
    variables with success probabilities 1/k: c(n, j) / n! at beta**-j, with c
    the unsigned Stirling numbers of the first kind."""
    if n < 1:
        raise ValueError("variance_pmf needs n >= 1")
    c, nfact = [1], factorial(n)
    for k in range(1, n + 1):  # c(k, j) = c(k-1, j-1) + (k-1) c(k-1, j), j = 0..k
        c = [a + (k - 1) * b for a, b in zip([0, *c], [*c, 0])]
    return MomentPolynomial.from_terms({j: Fraction(cj, nfact) for j, cj in enumerate(c)})
