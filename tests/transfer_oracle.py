"""One level's moves out of a transfer state, by trying every flip vector.

``alphamoments._transitions`` joins two cached one-side tables built by
groups of equal slot codes.  :func:`transitions` is the direct definition it
must agree with: every one of the 2**slots flip vectors, kept when it is
balanced and no slot's budget goes negative.  The tests compare the two rows
as multisets.  Not called by the package.
"""

from __future__ import annotations

import itertools
from collections import Counter


def _canonical(slots, n_p: int) -> tuple[int, ...]:
    return (*sorted(slots[:n_p]), *sorted(slots[n_p:]))


def transitions(state: tuple[int, ...], n_p: int) -> tuple:
    """One level's moves out of a state: ((mt, ((next, multiplicity), ...)), ...).

    Each slot opens (if closed with budget left), closes (if open) or idles;
    the balance  #(p-closes) + #(q-opens) = #(p-opens) + #(q-closes)  gates
    each combination, and mt is that common count.  Every slot open after the
    level burns one unit of budget.  multiplicity counts the combinations
    that reach the same canonical next state.
    """
    m_side = [(idx < n_p) == bool(enc & 1) for idx, enc in enumerate(state)]
    groups: dict[int, Counter] = {}
    for flips in itertools.product(*[(0, 1) if enc else (0,) for enc in state]):
        mt = sum(f for f, m in zip(flips, m_side) if m)
        if 2 * mt != sum(flips):
            continue
        ns = [e - 2 if e & 1 else e for e in (enc ^ f for enc, f in zip(state, flips))]
        if min(ns) >= 0:
            groups.setdefault(mt, Counter())[_canonical(ns, n_p)] += 1
    return tuple((mt, tuple(g.items())) for mt, g in sorted(groups.items()))
