"""Multi-indices, integer partitions as densities, and gap sequences.

A multi-index is a finite map ``index -> count`` (counts > 0).  Partitions of
``d`` are identified with their density vectors, i.e. multi-indices ``L`` with
``sum(u * L(u)) = d``.  Gap sequences are the interlaced decreasing index
lists ``i(1) > j(1) > ... > i(L) > j(L) >= 0`` whose gaps ``i(u) - j(u)`` sum
to a prescribed degree, written as tuples of ``(i, j)`` pairs; they index the
series expansion of the low-order coefficients of reversed orthogonal
polynomials.

Enumeration orders are fixed (documented per function) so downstream reports
are byte-for-byte reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterator, Mapping


class MultiIndex:
    """Finite map from positive index to positive count, immutable and hashable.

    ``deg`` is ``sum(n * count)`` and ``size`` is ``sum(count)``.
    """

    __slots__ = ("_items",)
    _min_index = 1

    def __init__(self, entries: Mapping[int, int] | None = None):
        items = []
        if entries:
            for n in sorted(entries):
                c = entries[n]
                if c == 0:
                    continue
                if n < self._min_index or c < 0:
                    raise ValueError(
                        f"bad {type(self).__name__} entry {n}:{c} "
                        f"(index >= {self._min_index}, count > 0 required)"
                    )
                items.append((int(n), int(c)))
        self._items = tuple(items)

    # -- constructors ------------------------------------------------------

    @classmethod
    def delta(cls, n: int):
        return cls({n: 1})

    @classmethod
    def from_string(cls, text: str):
        """Parse the ``"n:count,n:count"`` format with strictly increasing n."""
        entries: dict[int, int] = {}
        last = None
        text = text.strip()
        if text in ("", "0"):
            return cls()
        for token in text.split(","):
            head, sep, tail = token.partition(":")
            try:
                if not sep:
                    raise ValueError
                n, c = int(head), int(tail)
            except ValueError:
                raise ValueError(f"bad multi-index token {token!r} (want n:count)") from None
            if c <= 0 or n < cls._min_index:
                raise ValueError(
                    f"bad multi-index token {token!r} "
                    f"(index >= {cls._min_index} and count > 0 required)"
                )
            if last is not None and n <= last:
                raise ValueError(f"multi-index indices must increase: token {token!r}")
            last = n
            entries[n] = c
        return cls(entries)

    # -- queries -----------------------------------------------------------

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    def get(self, n: int) -> int:
        for m, c in self._items:
            if m == n:
                return c
        return 0

    __getitem__ = get

    def support(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self._items)

    def slots(self) -> tuple[int, ...]:
        """One entry per labeled slot: each index repeated ``count`` times, increasing."""
        return tuple(n for n, c in self._items for _ in range(c))

    @property
    def max_support(self) -> int:
        """Largest index present (0 when empty)."""
        return self._items[-1][0] if self._items else 0

    @property
    def deg(self) -> int:
        return sum(n * c for n, c in self._items)

    @property
    def size(self) -> int:
        return sum(c for _, c in self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __add__(self, other):
        merged = dict(self._items)
        for n, c in other.items():
            merged[n] = merged.get(n, 0) + c
        return type(self)(merged)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._items == other._items

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._items))

    def to_string(self) -> str:
        return ",".join(f"{n}:{c}" for n, c in self._items) if self._items else "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self._items)!r})"


class MultiplicityVector(MultiIndex):
    """Multi-index whose indexing starts at 0 (index 0 allowed)."""

    __slots__ = ()
    _min_index = 0


@lru_cache(maxsize=None)
def partitions(d: int) -> tuple[MultiIndex, ...]:
    """All densities L with deg(L) = d, in descending lexicographic density order.

    The order pins e.g. ``partitions(3)`` to ({1:3}, {1:1,2:1}, {3:1}).  It is
    the generation order: part sizes u = 1, 2, ... in turn, L(u) largest first.
    """
    if d < 0:
        raise ValueError("partitions of a negative integer")

    def densities(u: int, left: int) -> Iterator[dict[int, int]]:
        if left == 0:
            yield {}
        elif u <= left:
            for c in range(left // u, -1, -1):
                for rest in densities(u + 1, left - c * u):
                    yield {u: c, **rest}

    return tuple(MultiIndex(L) for L in densities(1, d))


def haar_weight(L: MultiIndex) -> Fraction:
    """Reciprocal stabilizer size 1 / prod_u (L(u)! * u**L(u)) of a cycle type."""
    denom = 1
    for u, c in L.items():
        denom *= factorial(c) * u**c
    return Fraction(1, denom)


@lru_cache(maxsize=None)
def f_weight(p: MultiIndex, L: MultiIndex) -> int:
    """Number of weighted decompositions of L into parts of degrees given by p.

    Sums, over all families (J_part) indexed by the labeled parts of p with
    deg(J_part) = part degree and sum of parts = L, the multinomial
    prod_u L(u)! / prod_parts J_part(u)!.  Zero when deg(L) != deg(p).
    Recurses on the smallest part n of p: each partition J of n takes
    prod_u comb(L(u), J(u)) of the multinomial, and the rest of p decomposes
    what J leaves of L.
    """
    if p.deg != L.deg:
        return 0
    if not p:
        return 1
    n, c = p.items()[0]
    rest = MultiIndex({**dict(p.items()), n: c - 1})
    total = 0
    for J in partitions(n):
        mult = prod(comb(L[u], ju) for u, ju in J.items())
        if mult:
            left = dict(L.items())
            for u, ju in J.items():
                left[u] -= ju
            total += mult * f_weight(rest, MultiIndex(left))
    return total


def gap_sequences(n: int, max_index: int) -> list[tuple[tuple[int, int], ...]]:
    """All gap sequences of degree n with top index <= max_index.

    Each is a tuple of ``(i, j)`` pairs.  Sorted by (number of pairs, pairs
    ascending); e.g. degree 2 up to index 3 gives ((2, 0),), ((3, 1),),
    ((3, 2), (1, 0)).
    """
    if n < 1:
        raise ValueError("gap sequences need degree n >= 1")
    return gap_sequences_over(tuple(range(max_index + 1)), n)


def gap_sequences_over(indices: tuple[int, ...], n: int) -> list[tuple[tuple[int, int], ...]]:
    """Gap sequences of degree n whose every index lies in the given set.

    Tuples of ``(i, j)`` pairs, in the order of :func:`gap_sequences`.  Each
    index is picked below the one before it, so every sequence strictly
    decreases by construction.
    """
    allowed = sorted(set(indices))
    if allowed and allowed[0] < 0:
        raise ValueError(f"gap sequence indices must be >= 0, got {allowed[0]}")
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(degree: int, pos_limit: int, acc: list[tuple[int, int]]) -> None:
        if degree == 0:
            out.append(tuple(acc))
            return
        for ti in range(pos_limit, -1, -1):
            i = allowed[ti]
            if i < 1:
                break
            for tj in range(ti - 1, -1, -1):
                j = allowed[tj]
                gap = i - j
                if gap > degree:
                    break
                acc.append((i, j))
                rec(degree - gap, tj - 1, acc)
                acc.pop()

    rec(n, len(allowed) - 1, [])
    out.sort(key=lambda s: (len(s), s))
    return out
