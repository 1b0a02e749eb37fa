"""Multi-indices, integer partitions as densities, and gap sequences.

A multi-index is a finite map ``index -> count`` (counts > 0).  Partitions of
``d`` are identified with their density vectors, i.e. multi-indices ``L`` with
``sum(u * L(u)) = d``.  Gap sequences are the interlaced decreasing index
lists ``i(1) > j(1) > ... > i(L) > j(L) >= 0`` whose gaps ``i(u) - j(u)`` sum
to a prescribed degree; they index the series expansion of the low-order
coefficients of reversed orthogonal polynomials.

Enumeration orders are fixed (documented per function) so downstream reports
are byte-for-byte reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterator, Mapping


class MultiIndex:
    """Finite map from positive index to positive count, immutable and hashable.

    ``deg`` is ``sum(n * count)``, ``size`` is ``sum(count)`` and ``length``
    the number of distinct indices.
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

    @property
    def length(self) -> int:
        return len(self._items)

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


@dataclass(frozen=True)
class GapSequence:
    """Pairs ``[(i(1), j(1)), ..., (i(L), j(L))]`` strictly decreasing when flattened."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        flat = [x for pair in self.pairs for x in pair]
        if flat and flat[-1] < 0:
            raise ValueError(f"gap sequence indices must be >= 0: {self.pairs}")
        if any(a <= b for a, b in zip(flat, flat[1:])):
            raise ValueError(f"gap sequence must strictly decrease: {self.pairs}")

    @property
    def degree(self) -> int:
        return sum(i - j for i, j in self.pairs)

    @property
    def top(self) -> int:
        return self.pairs[0][0] if self.pairs else 0

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@lru_cache(maxsize=None)
def partitions(d: int) -> tuple[MultiIndex, ...]:
    """All densities L with deg(L) = d, in descending lexicographic density order.

    The order pins e.g. ``partitions(3)`` to ({1:3}, {1:1,2:1}, {3:1}).
    """
    if d < 0:
        raise ValueError("partitions of a negative integer")

    out: list[MultiIndex] = []

    def rec(remaining: int, max_part: int, acc: dict[int, int]) -> None:
        if remaining == 0:
            out.append(MultiIndex(acc))
            return
        for part in range(min(remaining, max_part), 0, -1):
            acc[part] = acc.get(part, 0) + 1
            rec(remaining - part, part, acc)
            acc[part] -= 1
            if not acc[part]:
                del acc[part]

    rec(d, d, {})

    def density_key(L: MultiIndex) -> tuple[int, ...]:
        return tuple(L.get(u) for u in range(1, d + 1))

    out.sort(key=density_key, reverse=True)
    return tuple(out)


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
    """
    if p.deg != L.deg:
        return 0
    parts = [n for n, c in p.items() for _ in range(c)]

    @lru_cache(maxsize=None)
    def rec(idx: int, rem: tuple[tuple[int, int], ...]) -> int:
        if idx == len(parts):
            return 1 if not rem else 0
        rem_map = dict(rem)
        total = 0
        for J in partitions(parts[idx]):
            mult = 1
            for u, ju in J.items():
                ru = rem_map.get(u, 0)
                if ju > ru:
                    mult = 0
                    break
                mult *= comb(ru, ju)
            if not mult:
                continue
            nxt = dict(rem_map)
            for u, ju in J.items():
                nxt[u] -= ju
                if not nxt[u]:
                    del nxt[u]
            total += mult * rec(idx + 1, tuple(sorted(nxt.items())))
        return total

    result = rec(0, L.items())
    rec.cache_clear()
    return result


def gap_sequences(n: int, max_index: int) -> list[GapSequence]:
    """All gap sequences of degree n with top index <= max_index.

    Sorted by (number of pairs, flattened index list ascending); e.g. degree 2
    up to index 3 gives [(2,0)], [(3,1)], [(3,2),(1,0)].
    """
    if n < 1:
        raise ValueError("gap sequences need degree n >= 1")
    return gap_sequences_over(tuple(range(max_index + 1)), n)


def gap_sequences_over(indices: tuple[int, ...], n: int) -> list[GapSequence]:
    """Gap sequences of degree n whose every index lies in the given set."""
    allowed = sorted(set(indices))
    out: list[GapSequence] = []

    def rec(degree: int, pos_limit: int, acc: list[tuple[int, int]]) -> None:
        if degree == 0:
            out.append(GapSequence(tuple(acc)))
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
    out.sort(key=lambda s: (len(s.pairs), s.pairs))
    return out
