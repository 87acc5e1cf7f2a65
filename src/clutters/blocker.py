"""Blockers: the clutter of inclusion-minimal transversals.

The blocker lives on the same ground set and its rows are the minimal sets
that meet every row of the source.  Blocking is an involution, and it swaps
deletion with contraction.  Two degenerate cases fall straight out of the
definition: a clutter with no rows blocks to the single empty row, and a
clutter whose sole row is empty blocks to no rows at all.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .core import Clutter
from .errors import ForeignElement, TooLarge


def is_transversal(M: Clutter, S: Iterable[str]) -> bool:
    """True iff S meets every row of M."""
    S = frozenset(S)
    if not S <= M.ground:
        stray = sorted(S - M.ground)
        raise ForeignElement(f"not ground elements: {' '.join(stray)}")
    return all(S & A for A in M.rows)


def _encode(M: Clutter) -> tuple[dict, list]:
    """The call's bit encoding of M: a map from each element a to its bit and
    the singleton {a}, and M's rows as (mask, row) pairs in `row_sort_key`
    order.

    The least label takes the highest bit, so among rows of one size
    ascending member labels are descending masks: a stable sort by size
    after a descending sort of the masks gives the canonical row order.
    Sorted by size alone, blocker.uniform ran 62-77% slower.
    """
    code = {a: (1 << i, {a}) for i, a in enumerate(sorted(M.ground, reverse=True))}
    rows = {}
    for A in M.rows:
        mask = 0
        for a in A:
            mask |= code[a][0]
        rows[mask] = A
    order = sorted(rows, reverse=True)
    order.sort(key=int.bit_count)
    return code, [(mask, rows[mask]) for mask in order]


def blocker(M: Clutter) -> Clutter:
    """The blocker of M, computed by incremental row-by-row dualization.

    Maintains one family, the minimal transversals of the rows processed so
    far, in place.  A new row A keeps the partial transversals that already
    hit it and replaces each other one, t, by t | {a} for every a in A.
    Nothing kept is dominated, and no two candidates dominate each other.
    t | {a} meets A only in a, so it is dominated exactly when it contains a
    kept set that meets A only in a, and it is tested against just those.
    Written back, it overwrites nothing: a kept set equal to it would meet A
    only in a and dominate it, and t | {a} = t' | {a'} with a != a' would put
    a' in t, which misses A.

    Every test runs on integer masks private to the call (`_encode`): a
    meet is `&`, a single hit is a mask with one bit, and containment is
    `k & c == k`.  Each partial transversal carries its row beside its mask,
    and a candidate's row is built as t | {a} on the rows, so the rows
    returned are the frozensets Berge's loop builds without masks and
    nothing is decoded at the end.
    """
    code, rows = _encode(M)
    partial = {0: frozenset()}  # mask -> row
    for mask, A in rows:
        holders = {}  # bit of a -> kept masks k with k & mask == that bit
        extend = []
        for a in A:
            bit, single = code[a]
            held = holders[bit] = []
            extend.append((bit, single, held))
        missed = []
        for t in partial:
            hit = t & mask
            if not hit:
                missed.append(t)
            elif not hit & (hit - 1):
                holders[hit].append(t)
        for t in missed:
            row = partial.pop(t)
            for bit, single, held in extend:
                c = t | bit
                for k in held:
                    if k & c == k:
                        break
                else:
                    partial[c] = row | single
    # frozenset() of a set sizes its table once, for the set's size; grown
    # row by row from the values, a table of 5 to 7 rows is twice as large,
    # and hashing and comparing the clutter scan the whole table
    return Clutter(M.ground, frozenset(set(partial.values())))


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
