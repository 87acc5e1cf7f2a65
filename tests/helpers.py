"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own enumeration and minimality code
so they can serve as independent cross-checks.
"""

import itertools

from clutters.core import Clutter, Separation

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
