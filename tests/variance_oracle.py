"""Closed forms read off the Bernoulli product ``variance_pmf``.

:func:`multiplicity_free_moment` multiplies diagonal variances, which the
tests compare against the partition engine's (p, delta_d) cross moment;
:func:`a_coefficients` lists the product's coefficients, which the tests
compare against its conjugacy-class and Stirling forms.  Neither is called
by the package.
"""

from __future__ import annotations

from fractions import Fraction

from verblunsky.combinatorics import MultiIndex
from verblunsky.gaussian import MomentPolynomial, variance_pmf


def multiplicity_free_moment(p: MultiIndex) -> MomentPolynomial:
    """prod_n variance_pmf(n)**p(n); equals the (p, delta_d) cross moment."""
    out = MomentPolynomial.one()
    for n, c in p.items():
        base = variance_pmf(n)
        for _ in range(c):
            out = out * base
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
