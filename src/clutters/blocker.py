"""Blockers: the clutter of inclusion-minimal transversals.

The blocker lives on the same ground set and its rows are the minimal sets
meeting every row of the source.  Blocking is an involution, and it swaps
deletion with contraction.  Two degenerate cases fall straight out of the
definition: a clutter with no rows blocks to the single empty row, and a
clutter whose sole row is empty blocks to no rows at all.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .core import Clutter, row_sort_key
from .errors import ForeignElement, TooLarge


def is_transversal(M: Clutter, S: Iterable[str]) -> bool:
    """True iff S meets every row of M."""
    S = frozenset(S)
    if not S <= M.ground:
        stray = sorted(S - M.ground)
        raise ForeignElement(f"not ground elements: {' '.join(stray)}")
    return all(S & A for A in M.rows)


def blocker(M: Clutter) -> Clutter:
    """The blocker of M, computed by incremental row-by-row dualization.

    Maintains the minimal transversals of the rows processed so far.  A new
    row A keeps the partial transversals already meeting it and extends each
    other one, t, to t | {a} for every a in A.  Nothing kept is dominated, and
    no two new candidates dominate each other.  t | {a} meets A only in a, so
    it is dominated exactly when it contains a kept set that meets A only in
    a.  One pass over the partial transversals splits off the missed ones and
    indexes the kept ones that meet A once, by that element, and each
    candidate is tested only against the index entry for its a.
    """
    partial = {frozenset()}
    for A in sorted(M.rows, key=row_sort_key):
        missed, meeting = [], set()
        holders = {a: [] for a in A}  # a -> kept sets k with k & A == {a}
        for t in partial:
            hit = t & A
            if not hit:
                missed.append(t)
                continue
            meeting.add(t)
            if len(hit) == 1:
                (a,) = hit
                holders[a].append(t)
        for t in missed:
            for a in A:
                c = t | {a}
                if not any(k <= c for k in holders[a]):
                    meeting.add(c)
        partial = meeting
    return Clutter(M.ground, frozenset(partial))


def blocker_by_enumeration(M: Clutter) -> Clutter:
    """The blocker by direct subset enumeration; the independent slow route.

    Scans subsets in ascending cardinality and keeps each transversal that
    contains no previously kept one.  Limited to 20 ground elements.
    """
    if len(M.ground) > 20:
        raise TooLarge("subset enumeration is limited to 20 elements")
    elems = sorted(M.ground)
    kept = []
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            S = frozenset(combo)
            if any(t <= S for t in kept):
                continue
            if all(S & A for A in M.rows):
                kept.append(S)
    return Clutter(M.ground, frozenset(kept))
