"""Which forms of the splitter theorem hold, counted over every connected
pair (M, N) at n <= 4, N a connected proper minor of M.

A splitter for the pair is an element e outside E(N) such that M\\e or M/e
is connected and keeps N as a minor.  The existential form asks for one
splitter, the every-element form for every e outside E(N) to be one.  The
census uses only delete, contract, is_connected, has_minor and
connected_proper_minors; the README section "Which forms hold" gives the
counts.
"""

import functools

import pytest

from clutters.core import contract, delete, is_connected, new_clutter
from clutters.enumeration import connected_proper_minors, enumerate_connected, verify_theorem
from clutters.minor import has_minor


def keeps(R, N):
    return is_connected(R) and has_minor(R, N) is not None


def is_splitter(M, N, e):
    return keeps(delete(M, e), N) or keeps(contract(M, e), N)


def classes(M):
    """(minimal, twinned): the elements whose set of rows properly contains
    no other element's, and those that share their set of rows with
    another; the minimal and twin black vertices of M's incidence graph."""
    star = {e: frozenset(A for A in M.rows if e in A) for e in M.ground}
    minimal = {e for e in M.ground if not any(star[u] < star[e] for u in M.ground)}
    twinned = {e for e in M.ground if any(u != e and star[u] == star[e] for u in M.ground)}
    return minimal, twinned


@functools.cache
def census(n):
    """(M, N, candidates, splitters) for every pair on n elements."""
    rows = []
    for M in enumerate_connected(n):
        for N in connected_proper_minors(M):
            candidates = M.ground - N.ground
            splitters = frozenset(e for e in candidates if is_splitter(M, N, e))
            rows.append((M, N, candidates, splitters))
    return rows


def first_class(M, splitters):
    minimal, twinned = classes(M)
    if splitters & minimal:
        return "minimal"
    if splitters & twinned:
        return "twin"
    return "rest" if splitters else "none"


@pytest.mark.parametrize("n,pairs,fails,fails_big_n", [(3, 61, 27, 0), (4, 1806, 840, 108)])
def test_every_element_form_fails_widely(n, pairs, fails, fails_big_n):
    rows = census(n)
    failed = [(M, N) for M, N, candidates, splitters in rows if splitters != candidates]
    assert len(rows) == pairs
    assert len(failed) == fails
    assert sum(1 for _, N in failed if len(N.ground) >= 2) == fails_big_n


def test_smallest_every_element_witness():
    M = new_clutter("1234", ["12", "13", "14", "23"])
    N = new_clutter("23", ["23"])
    assert N in connected_proper_minors(M)
    assert not is_connected(delete(M, "1"))  # {23} leaves 4 isolated
    assert not is_connected(contract(M, "1"))  # {2}, {3}, {4}
    assert keeps(delete(M, "4"), N)


@pytest.mark.parametrize(
    "n,counts",
    [
        (3, {"minimal": 52, "twin": 0, "rest": 0, "none": 9}),
        (4, {"minimal": 1762, "twin": 24, "rest": 4, "none": 16}),
    ],
)
def test_first_class_that_holds_a_splitter(n, counts):
    found = dict.fromkeys(counts, 0)
    for M, _, _, splitters in census(n):
        found[first_class(M, splitters)] += 1
    assert found == counts
    # the pairs with no splitter are the verifier's counterexamples
    (result,) = verify_theorem(n).results
    assert len(result.counterexamples) == counts["none"]


def test_rest_only_pairs_are_the_triples_through_one_element():
    # M: the three triples that contain c; N: U(2,3) on the other three
    # elements; the only splitter is M/c, so minimal-first is a heuristic
    rest = [(M, N, s) for M, N, _, s in census(4) if first_class(M, s) == "rest"]
    expected = []
    for c in "1234":
        others = [e for e in "1234" if e != c]
        pairs = [a + b for i, a in enumerate(others) for b in others[i + 1 :]]
        M = new_clutter("1234", [c + p for p in pairs])
        expected.append((M, new_clutter(others, pairs), frozenset(c)))
    assert sorted(map(repr, rest)) == sorted(map(repr, expected))
    for M, N, (c,) in expected:
        assert contract(M, c) == N and not keeps(delete(M, c), N)
