"""Labeled minor containment and exhaustive minor enumeration.

A minor keeps its labels: N is a minor of M when E(N) is a subset of E(M)
and some split of the remaining elements into deletions and contractions
turns M into exactly N.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .core import Clutter, MinorSpec, apply_minor, contract, delete

_KEEP, _DELETE, _CONTRACT = 0, 1, 2


def _spec_for(elems: list, assignment: tuple) -> MinorSpec:
    deletes = frozenset(e for e, a in zip(elems, assignment) if a == _DELETE)
    contracts = frozenset(e for e, a in zip(elems, assignment) if a == _CONTRACT)
    return MinorSpec(deletes, contracts)


def _traces_cover(C: Clutter, N: Clutter) -> bool:
    """True iff every row of N is the trace A & E(N) of some row A of C."""
    missing = set(N.rows)
    for A in C.rows:
        missing.discard(A & N.ground)
        if not missing:
            return True
    return not missing


def has_minor(M: Clutter, N: Clutter) -> MinorSpec | None:
    """A witness spec turning M into N, or None.

    The removed elements are decided depth-first in ascending label order,
    delete before contract, and the first hit wins: the same witness as a
    base-2 counter over all 2^k specs, so it is deterministic.  Each tree
    edge is one deletion or contraction.  A subtree is pruned when some row
    of N is not the trace A & E(N) of any row A of the current clutter: every
    row of a minor below is such a trace, and each step down only drops or
    shrinks rows outside E(N), so the set of traces never grows.
    M is a minor of itself via the empty spec.
    """
    if not N.ground <= M.ground:
        return None
    removed = sorted(M.ground - N.ground)
    C, deletes = M, frozenset()
    untried = []  # (clutter, its deletions) whose contract branch is pending
    while True:
        if _traces_cover(C, N):
            if C.ground == N.ground:
                if C.rows == N.rows:
                    return MinorSpec(deletes, frozenset(removed) - deletes)
            else:
                v = removed[len(M.ground) - len(C.ground)]
                untried.append((C, deletes))
                C, deletes = delete(C, v), deletes | {v}
                continue
        if not untried:
            return None
        C, deletes = untried.pop()
        C = contract(C, removed[len(M.ground) - len(C.ground)])


def is_proper_minor(M: Clutter, N: Clutter) -> bool:
    """True iff N is a minor of M produced by at least one removal."""
    return N.ground < M.ground and has_minor(M, N) is not None


def all_minors(M: Clutter) -> Iterator[tuple]:
    """Every (spec, minor) over the 3^|E| keep/delete/contract assignments.

    Deterministic: assignments run as a base-3 counter over ascending
    elements with keep < delete < contract.
    """
    elems = sorted(M.ground)
    for assignment in itertools.product(
        (_KEEP, _DELETE, _CONTRACT), repeat=len(elems)
    ):
        spec = _spec_for(elems, assignment)
        yield spec, apply_minor(M, spec)
