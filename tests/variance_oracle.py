"""Closed forms read off the Bernoulli product ``variance_pmf``.

:func:`moment_product` multiplies two moment polynomials;
:func:`multiplicity_free_moment` multiplies diagonal variances with it, which
the tests compare against the partition engine's (p, delta_d) cross moment;
:func:`a_coefficients` lists the product's coefficients, which the tests
compare against its conjugacy-class and Stirling forms.  None is called
by the package.
"""

from __future__ import annotations

from fractions import Fraction

from verblunsky.combinatorics import MultiIndex
from verblunsky.gaussian import MomentPolynomial, variance_pmf


def moment_product(a: MomentPolynomial, b: MomentPolynomial) -> MomentPolynomial:
    """a * b as polynomials in beta**-1, by the literal double sum."""
    out: dict[int, Fraction] = {}
    for k1, c1 in a.terms:
        for k2, c2 in b.terms:
            out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + c1 * c2
    return MomentPolynomial.from_terms(out)


def multiplicity_free_moment(p: MultiIndex) -> MomentPolynomial:
    """prod_n variance_pmf(n)**p(n); equals the (p, delta_d) cross moment."""
    out = MomentPolynomial.from_terms({0: 1})
    for n, c in p.items():
        base = variance_pmf(n)
        for _ in range(c):
            out = moment_product(out, base)
    return out


def a_coefficients(n: int) -> list[Fraction]:
    """Coefficients (a_1, ..., a_n) of variance_pmf(n) in beta**-1.

    Equivalently the conjugacy-class weights of partitions of n summed by
    length, and e_{n-k}(0, 1, ..., n-1) / n!; tests compare those forms.
    """
    if not 1 <= n <= 20:
        raise ValueError("a_coefficients supported for 1 <= n <= 20")
    terms = variance_pmf(n).to_map()
    return [terms.get(k, Fraction(0)) for k in range(1, n + 1)]
