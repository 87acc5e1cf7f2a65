"""Exhaustive clutter generation and the verification harness.

Every antichain over a small labeled ground set is generated exactly once by
canonical growth: subsets are fixed in a canonical order and an antichain is
built by choosing an increasing sequence of pairwise incomparable subsets.
The verify_* functions machine-check the splitter theorem and the identity
propositions over the full enumeration and render deterministic plain-text
reports; counterexamples are report content, not errors.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Iterator

from . import core, graphview, minor
from .blocker import blocker
from .core import Clutter, _Record, canonical_serialize
from .errors import TooLarge

MAX_GROUND = 5


def _ground_labels(n: int) -> list:
    if not 0 <= n <= MAX_GROUND:
        raise TooLarge(f"n must be between 0 and {MAX_GROUND}, got {n}")
    return [str(i + 1) for i in range(n)]


def enumerate_clutters(n: int) -> Iterator[Clutter]:
    """Every clutter on ground {'1'..str(n)}, exactly once, deterministically.

    The subsets are indexed in row_sort_key order, so a subset never lies
    inside a later one.  above[i] holds the later indices whose subsets
    contain subset i, and a growing antichain carries the union of above[i]
    over its chosen i: the indices it may no longer take.
    """
    labels = _ground_labels(n)
    ground = frozenset(labels)
    subsets = sorted(
        (
            frozenset(combo)
            for r in range(n + 1)
            for combo in itertools.combinations(labels, r)
        ),
        key=core.row_sort_key,
    )
    count = len(subsets)
    above = [
        frozenset(j for j in range(i + 1, count) if s <= subsets[j])
        for i, s in enumerate(subsets)
    ]

    def grow(start: int, chosen: list, barred: frozenset) -> Iterator[Clutter]:
        yield Clutter(ground, frozenset(chosen))
        for i in range(start, count):
            if i not in barred:
                yield from grow(i + 1, chosen + [subsets[i]], barred | above[i])

    yield from grow(0, [], frozenset())


def enumerate_connected(n: int) -> Iterator[Clutter]:
    """The connected members of enumerate_clutters(n)."""
    return (M for M in enumerate_clutters(n) if core.is_connected(M))


def _inline(M: Clutter) -> str:
    return canonical_serialize(M).strip().replace("\n", "; ")


class CheckResult(_Record):
    """One verifier check: how many cases it tested and passed, and the
    counterexample lines of the ones that failed."""

    __slots__ = ("name", "tested", "passed", "counterexamples")

    def summary_line(self) -> str:
        return (
            f"{self.name}: tested={self.tested} passed={self.passed} "
            f"counterexamples={len(self.counterexamples)}"
        )


class VerificationReport(_Record):
    """The check results of one verifier run, in order."""

    __slots__ = ("results",)

    def render(self) -> str:
        lines = []
        for result in self.results:
            lines.append(result.summary_line())
            lines.extend("  " + item for item in result.counterexamples)
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        return self.render()

    @property
    def counterexample_count(self) -> int:
        return sum(len(r.counterexamples) for r in self.results)


def _connected_minors(key: tuple, memo: dict, members: list) -> tuple:
    """(C is connected, S(C)) for the clutter C whose (ground, rows) pair is
    key, where S(C) is every connected minor of C, C itself included if it
    is connected.  S(C) is an int bitset over members: bit i stands for
    members[i], the run's i-th connected minor in first-met order.

    Every proper minor of C is a minor of a single removal, so
    S(C) = ({C} if C is connected) | the S of each C\\v and C/v, whose keys
    core._removals gives together from one pass over C's rows.  memo maps
    each key to its entry, so each clutter's S and connectivity are computed
    once per memo.  A removal's entry is read with memo.get in the loop
    below, as in _removal_minors, and only a miss costs a call, which
    computes that entry: at n=4, 126 calls for 1,296 lookups.
    core._spans tests the key itself, and a Clutter is built only for a
    connected C, the member that takes the next bit.  The key's two
    frozensets hash and compare in C, not through Clutter's Python-level
    methods, and the unions are int ors.  memo is a plain dict because a
    recursive closure under functools.cache is a reference cycle, which
    only the cycle collector frees.
    """
    entry = memo.get(key)
    if entry is None:
        ground, rows = key
        bits = 0
        for v in ground:
            for R in core._removals(ground, rows, v):
                entry = memo.get(R)
                if entry is None:
                    entry = _connected_minors(R, memo, members)
                bits |= entry[1]
        connected = core._spans(ground, rows)
        if connected:
            bits |= 1 << len(members)
            members.append(Clutter(ground, rows))
        entry = memo[key] = (connected, bits)
    return entry


def _removal_minors(M: Clutter, memo: dict, members: list) -> tuple:
    """(the union of S(R) over M's single removals R, the union over the
    connected R), as bitsets over members: M's connected proper minors, and
    those that are a minor of a connected single removal.  Each element's
    pair M\\v, M/v comes from one core._removals call, and each R's entry
    is a memo.get, with a _connected_minors call only on a miss."""
    minors = reach = 0
    for v in M.ground:
        for R in core._removals(M.ground, M.rows, v):
            entry = memo.get(R)
            if entry is None:
                entry = _connected_minors(R, memo, members)
            connected, bits = entry
            minors |= bits
            if connected:
                reach |= bits
    return minors, reach


def _in_witness_order(M: Clutter, bits: int, members: list) -> list:
    """The members that bits stands for, as M's minors in first-witness order.

    Two or more are sorted by minor._first_witness, one has_minor search
    each.  A lone member is already in order and costs no search: each
    failing M of verify_theorem at n=4 and 5 has one failure, while at n=3
    the nine failures lie on four M."""
    found = []
    while bits:
        low = bits & -bits
        found.append(members[low.bit_length() - 1])
        bits ^= low
    if len(found) > 1:
        found.sort(key=lambda N: minor._first_witness(M, N))
    return found


def connected_proper_minors(M: Clutter) -> list:
    """Distinct connected proper minors of M, in first-witness order."""
    members = []
    minors, _ = _removal_minors(M, {}, members)
    return _in_witness_order(M, minors, members)


def _splitter_failures(M: Clutter, memo: dict, members: list) -> tuple:
    """(tested, failures) for a connected clutter M: tested counts M's
    connected proper minors N, and failures lists, in first-witness order,
    those for which no single removal R of M is connected with N as a minor.

    N passes iff N is in S(R) for a connected R, so the failures are
    _removal_minors' first union less its second, found with no per-pair
    test.  memo and members are _connected_minors', shared across the M of
    one run.
    """
    minors, reach = _removal_minors(M, memo, members)
    return minors.bit_count(), _in_witness_order(M, minors & ~reach, members)


def verify_theorem(n: int) -> VerificationReport:
    """Check the splitter property on every connected clutter M on exactly n
    labeled elements against each of its connected proper minors N (see
    _splitter_failures).  One memo lives for the call and holds the entry
    of each clutter on n-1 or fewer elements that occurs, and members the
    connected ones, which the memo's bitsets index.
    """
    memo, members = {}, []
    tested = 0
    failures = []
    for M in enumerate_clutters(n):
        if core.is_connected(M):
            count, failed = _splitter_failures(M, memo, members)
            tested += count
            failures += [f"M=({_inline(M)})  N=({_inline(N)})" for N in failed]
    passed = tested - len(failures)
    result = CheckResult(f"theorem n={n}", tested, passed, tuple(failures))
    return VerificationReport((result,))


class _Removal(_Record):
    """A single removal R = M\\v or M/v as the identity families use it:
    the (ground, rows) pairs of R\\w and R/w keyed by the element w, the
    (ground, rows) pair of R's blocker, and R's incidence graph."""

    __slots__ = ("deleted", "contracted", "blocker", "graph")


_FAMILIES = (
    "deletion-contraction-commutativity",
    "blocker-involution",
    "duality-swap",
    "connectivity-equivalence",
    "twin-contraction",
    "deletion-graph-correspondence",
)


def verify_identities(n: int) -> VerificationReport:
    """Check the identity families over every clutter on exactly n elements:
    commutativity of deletion/contraction, blocker involution, the duality
    swap, the connectivity equivalence, twin contraction, and the
    deletion/graph correspondence.

    One pass over enumerate_clutters(n).  Each family takes its cases in
    (M, v[, v']) order from values computed once per run, and keeps its own
    tally, counted in bulk for each M on k elements: k * (k - 1) ordered
    pairs for commutativity, one case each for the involution and the
    connectivity equivalence, k for the duality swap and for the graph
    correspondence, and, if M is connected, its elements with a twin for
    twin contraction.  A passing case costs no call beyond the primitive it
    verifies; only a failing one calls fail, which writes its line.  A
    removal is its (ground, rows) pair, as in _connected_minors: one
    core._removals call gives M\\v and M/v from one pass over M's rows,
    and the families compare pairs, whose frozensets compare in C.  Every
    single removal of M is one of the clutters on the n-1 elements left, and
    each of those is the removal of many M.  So two functools.cache wrappers
    that live for the call hold the blocker of every M and, keyed by pair,
    for each clutter on n-1 elements that occurs, its removals, its blocker
    and its incidence graph: the only removals built as a Clutter.  M's own
    removals and graph and the removals of its blocker serve that M alone;
    they are computed directly and dropped once M is done, which keeps the
    caches to one blocker per M plus the clutters on n-1 elements; no
    reference cycle holds them, so they are freed when the call returns.
    """
    if not 0 <= n <= 4:
        raise TooLarge(f"identity verification supports n between 0 and 4, got {n}")
    removals, graph = core._removals, graphview.incidence_graph
    tested = dict.fromkeys(_FAMILIES, 0)
    failures = {name: [] for name in _FAMILIES}
    blocker_of = functools.cache(blocker)

    def fail(name: str, M: Clutter, *where: str) -> None:
        marks = "".join(f" {k}={x}" for k, x in zip(("v", "v'"), where))
        failures[name].append(f"M=({_inline(M)}){marks}")

    def split(ground: frozenset, rows: frozenset, elems: Iterable[str]) -> tuple:
        # the pairs of (ground, rows)\v and (ground, rows)/v, keyed by v
        deleted, contracted = {}, {}
        for v in elems:
            deleted[v], contracted[v] = removals(ground, rows, v)
        return deleted, contracted

    @functools.cache
    def removal(key: tuple) -> _Removal:
        R = Clutter(*key)
        B = blocker(R)
        return _Removal(*split(*key, R.ground), (B.ground, B.rows), graph(R))

    for M in enumerate_clutters(n):
        elems = sorted(M.ground)
        k = len(elems)
        deleted, contracted = split(M.ground, M.rows, elems)
        b, G = blocker_of(M), graph(M)
        D = {v: removal(R) for v, R in deleted.items()}
        C = {v: removal(R) for v, R in contracted.items()}
        tested["deletion-contraction-commutativity"] += k * (k - 1)
        for v, w in itertools.permutations(elems, 2):
            # M\v\w = M\w\v, M/v/w = M/w/v and M\v/w = M/w\v
            if not (
                D[v].deleted[w] == D[w].deleted[v]
                and C[v].contracted[w] == C[w].contracted[v]
                and D[v].contracted[w] == C[w].deleted[v]
            ):
                fail("deletion-contraction-commutativity", M, v, w)
        tested["blocker-involution"] += 1
        if blocker_of(b) != M:
            fail("blocker-involution", M)
        tested["duality-swap"] += k
        for v in elems:
            # blocker(M\v) = b/v and blocker(M/v) = b\v
            b_deleted, b_contracted = removals(b.ground, b.rows, v)
            if not (D[v].blocker == b_contracted and C[v].blocker == b_deleted):
                fail("duality-swap", M, v)
        connected = core.is_connected(M)
        tested["connectivity-equivalence"] += 1
        if not graphview._connectivity_agrees(M, G, connected):
            fail("connectivity-equivalence", M)
        if connected:
            twinned = [v for v in elems if graphview.twins(G, v)]
            tested["twin-contraction"] += len(twinned)
            for v in twinned:
                if not (
                    C[v].graph == graphview.remove_black_vertex(G, v)
                    and core._spans(*contracted[v])
                ):
                    fail("twin-contraction", M, v)
        tested["deletion-graph-correspondence"] += k
        for v in elems:
            if D[v].graph != graphview.delete_closed_neighbourhood(G, v):
                fail("deletion-graph-correspondence", M, v)
    results = (
        CheckResult(name, count, count - len(failures[name]), tuple(failures[name]))
        for name, count in tested.items()
    )
    return VerificationReport(tuple(results))
