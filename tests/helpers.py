"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own enumeration and minimality code
so they can serve as independent cross-checks.
"""

import itertools

from clutters.core import Clutter, MinorSpec, Separation, apply_minor

F = frozenset


def all_subsets(ground):
    elems = sorted(ground)
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            yield F(combo)


def naive_antichain_families(ground):
    """Every antichain family over the given ground, by filtering all 2^(2^n)
    subset families.  Usable up to four elements."""
    subsets = list(all_subsets(ground))
    for picks in itertools.product((0, 1), repeat=len(subsets)):
        family = [s for s, p in zip(subsets, picks) if p]
        if all(
            not (a <= b or b <= a)
            for a, b in itertools.combinations(family, 2)
        ):
            yield F(family)


def naive_clutters(ground):
    ground = F(ground)
    for family in naive_antichain_families(ground):
        yield Clutter(ground, family)


def naive_separation(M):
    """The lexicographically first separation by brute force over all 2^(n-1)
    left parts that contain the least element, or None if M is connected."""
    elems = sorted(M.ground)
    if len(elems) <= 1:
        return None
    least, rest = elems[0], elems[1:]
    combos = sorted(
        combo for r in range(len(rest)) for combo in itertools.combinations(rest, r)
    )
    for combo in combos:
        left = F((least,) + combo)
        right = M.ground - left
        if all(A <= left or A <= right for A in M.rows):
            return Separation(left, right)
    return None


def naive_contract(M, v):
    """Strip v from every row, then keep the rows no other stripped row lies
    strictly inside: a pairwise minimality filter."""
    stripped = {A - {v} for A in M.rows}
    return Clutter(
        M.ground - {v}, F(S for S in stripped if not any(T < S for T in stripped))
    )


def naive_has_minor(M, N):
    """The first spec turning M into N over all 2^k delete/contract
    assignments of the removed elements, run as a base-2 counter over
    ascending labels with delete before contract; None if there is none.
    Each spec goes through `apply_minor`, whose `contract` the tests check
    against `naive_contract`."""
    if not N.ground <= M.ground:
        return None
    removed = sorted(M.ground - N.ground)
    for assignment in itertools.product((1, 2), repeat=len(removed)):
        spec = MinorSpec(
            F(e for e, a in zip(removed, assignment) if a == 1),
            F(e for e, a in zip(removed, assignment) if a == 2),
        )
        if apply_minor(M, spec) == N:
            return spec
    return None
