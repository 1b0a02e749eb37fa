"""Gaussian x-moments by expansion into f-monomials: a reference for the engines.

Each x_n is written as its exponential-series polynomial in the Gaussian
f-variables, the x-monomials are multiplied out symbolically, and the
diagonal f-moment formula is applied monomial by monomial.  It shares no code
with the partition engine or the raw decomposition sum in
``verblunsky.gaussian``, so the tests compare both against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from verblunsky.combinatorics import MultiIndex, partitions
from verblunsky.gaussian import MomentPolynomial


def add(a: MomentPolynomial, b: MomentPolynomial) -> MomentPolynomial:
    """The sum of two polynomials in beta**-1, coefficient by coefficient."""
    out = a.to_map()
    for k, c in b.terms:
        out[k] = out.get(k, Fraction(0)) + c
    return MomentPolynomial.from_terms(out)


def scale(a: MomentPolynomial, c: Fraction | int) -> MomentPolynomial:
    """Every coefficient of a times the constant c."""
    c = Fraction(c)
    return MomentPolynomial.from_terms({k: c * v for k, v in a.terms})


def gaussian_f_moment(p: MultiIndex, q: MultiIndex) -> MomentPolynomial:
    """E of f**p (f**q)* for the independent complex Gaussians f_n.

    Nonzero only on the diagonal p = q, where it is
    prod_n p(n)! / n**p(n) times beta**-|p|.
    """
    if p != q:
        return MomentPolynomial.zero()
    value = Fraction(1)
    for n, c in p.items():
        value *= Fraction(factorial(c), n**c)
    return MomentPolynomial.from_terms({p.size: value})


def _exp_neg_f_coefficient(n: int) -> dict[MultiIndex, Fraction]:
    """Coefficient of z**n in exp(-sum f_u z**u) as a polynomial in the f_u.

    Monomials are multi-indices A in the f-variables; the coefficient of f**A
    is (-1)**|A| / A!.
    """
    out: dict[MultiIndex, Fraction] = {}
    for A in partitions(n):
        denom = 1
        for _, c in A.items():
            denom *= factorial(c)
        out[A] = Fraction((-1) ** A.size, denom)
    return out


def gaussian_x_moment_via_f_expansion(p: MultiIndex, q: MultiIndex) -> MomentPolynomial:
    """Second oracle: expand the x-monomials into f-monomials and integrate.

    Writes each x_n as its exponential-series polynomial in the f-variables,
    multiplies out x**p and x**q symbolically, and applies the diagonal
    Gaussian moment formula monomial by monomial.  Independent of both the
    partition engine and the raw decomposition sum.
    """

    def monomial_poly(mi: MultiIndex) -> dict[MultiIndex, Fraction]:
        poly: dict[MultiIndex, Fraction] = {MultiIndex(): Fraction(1)}
        for n, c in mi.items():
            factor = _exp_neg_f_coefficient(n)
            for _ in range(c):
                nxt: dict[MultiIndex, Fraction] = {}
                for A, ca in poly.items():
                    for B, cb in factor.items():
                        key = A + B
                        nxt[key] = nxt.get(key, Fraction(0)) + ca * cb
                poly = nxt
        return poly

    poly_p = monomial_poly(p)
    poly_q = monomial_poly(q)
    out = MomentPolynomial.zero()
    for A, ca in poly_p.items():
        cb = poly_q.get(A)
        if cb is None:
            continue
        out = add(out, scale(gaussian_f_moment(A, A), ca * cb))
    return out
