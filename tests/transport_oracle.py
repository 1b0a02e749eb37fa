"""The Gaussian side as a transportation sum over integer tables.

With u = 1/beta, X(s) = exp(-f(s)) has the x_k as its coefficients, and
E|f_n|^2 = 1/(n beta) gives

    E[prod_i X(s_i) conj(prod_j X(t_j))] = prod_{i,j} (1 - s_i t_j)**(-u).

E[x^p conj(x^q)] is this kernel's coefficient of prod_i s_i**a_i
prod_j t_j**b_j, where a lists p's slot indices and b lists q's, each index
repeated as often as it occurs.  Expanding every factor by the binomial
series gives

    G_{p,q}(beta) = sum_M prod_{i,j} C(u + M_ij - 1, M_ij)

over the nonnegative integer matrices M with row sums a and column sums b
(Diaconis-Gamburd 2004).  At beta = 1 every factor is 1, so G(1) counts
those tables.  The kernel is the Cauchy kernel of the Jack inner product
with parameter u (Macdonald, section VI.10).  None of this is called by the
package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from variance_oracle import moment_product

from verblunsky.combinatorics import MultiIndex
from verblunsky.gaussian import MomentPolynomial

ONE = MomentPolynomial.from_terms({0: 1})


@lru_cache(maxsize=None)
def _entry(m: int) -> MomentPolynomial:
    """C(u + m - 1, m) = u (u + 1) ... (u + m - 1) / m!, with u = 1/beta."""
    coeffs = [Fraction(1)]
    for k in range(m):
        coeffs = [(k * lo + hi) / (k + 1) for lo, hi in zip([*coeffs, 0], [0, *coeffs])]
    return MomentPolynomial.from_terms(dict(enumerate(coeffs)))


def _rows(total: int, caps: tuple[int, ...]):
    """Every row of nonnegative entries summing to ``total``, entry j at most caps[j]."""
    for head in product(*(range(c + 1) for c in caps[:-1])):
        last = total - sum(head)
        if 0 <= last <= caps[-1]:
            yield (*head, last)


def transport_moment(p: MultiIndex, q: MultiIndex) -> MomentPolynomial:
    """G_{p,q} = sum over tables M of prod C(u + M_ij - 1, M_ij), in u = 1/beta.

    Fills M one row at a time; the column sums still to be met are the state.
    """
    a, b = p.slots(), q.slots()
    if sum(a) != sum(b):
        return MomentPolynomial.zero()

    @lru_cache(maxsize=None)
    def rest(i: int, cols: tuple[int, ...]) -> MomentPolynomial:
        if i == len(a):
            return ONE
        out: dict[int, Fraction] = {}
        for row in _rows(a[i], cols):
            term = rest(i + 1, tuple(c - m for c, m in zip(cols, row)))
            for m in row:
                term = moment_product(term, _entry(m))
            for k, c in term.terms:
                out[k] = out.get(k, Fraction(0)) + c
        return MomentPolynomial.from_terms(out)

    return rest(0, b)
