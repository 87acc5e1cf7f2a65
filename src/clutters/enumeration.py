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


def _subsets(labels: list) -> tuple:
    """(subsets, above): every subset of labels as a frozenset, in
    row_sort_key order, so that a subset never lies inside a later one, and
    above[i], the later indices whose subsets contain subset i."""
    subsets = sorted(
        (
            frozenset(combo)
            for r in range(len(labels) + 1)
            for combo in itertools.combinations(labels, r)
        ),
        key=core.row_sort_key,
    )
    count = len(subsets)
    above = [
        frozenset(j for j in range(i + 1, count) if s <= subsets[j])
        for i, s in enumerate(subsets)
    ]
    return subsets, above


def _antichains(items: list, above: list, chosen, start=0, barred=frozenset()) -> Iterator:
    """Every antichain that grows chosen by _subsets' subsets from index
    start on, chosen itself first.  items[i] stands for subset i, and a
    grown antichain is chosen | items[i] over its new subsets i: the
    one-row frozensets of enumerate_clutters give its rows, the row bits of
    verify_theorem its row bitset, so both walk the antichains in one
    order.  barred is the union of above[i] over the chosen i: the indices
    chosen may no longer take."""
    yield chosen
    for i in range(start, len(items)):
        if i not in barred:
            yield from _antichains(items, above, chosen | items[i], i + 1, barred | above[i])


def enumerate_clutters(n: int) -> Iterator[Clutter]:
    """Every clutter on ground {'1'..str(n)}, exactly once, deterministically,
    in _antichains' order."""
    labels = _ground_labels(n)
    ground = frozenset(labels)
    subsets, above = _subsets(labels)
    items = [frozenset((s,)) for s in subsets]
    for rows in _antichains(items, above, frozenset()):
        yield Clutter(ground, rows)


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


def _bits(x: int) -> Iterator[int]:
    """The indices of x's set bits, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class _Code:
    """One run's encoding of the clutters on subsets of some labels as int
    keys.  The sorted labels get bits 0, 1, ..., so a set of labels is a
    mask s, and a clutter is the key (g, R): g its ground's mask, and R an
    int with bit s set for each row whose mask is s.

    The tables are the run's, built for its 2^n masks: elems[s], the bits
    of s as a tuple of element indices; sets[s], its labels as a frozenset,
    and masks, the inverse map; and lacks[v], the bits s of the masks
    without element v, so that R & lacks[v] keeps the rows without v."""

    __slots__ = ("elems", "sets", "masks", "lacks")

    def __init__(self, labels: Iterable[str]):
        labels = sorted(labels)
        n = len(labels)
        masks = range(1 << n)
        # Lists, and each tuple made from a list: a tuple made from a
        # generator is allocated at a guessed size and resized, so a run's
        # freed tuples pile up on the interpreter's per-size free lists
        # (0.6 MB more peak RSS over 2,000 runs at n=4).
        self.elems = [tuple([i for i in range(n) if s >> i & 1]) for s in masks]
        self.sets = [frozenset(labels[i] for i in elems) for elems in self.elems]
        self.masks = dict(zip(self.sets, masks))
        self.lacks = [sum(1 << s for s in masks if not s >> v & 1) for v in range(n)]

    def key(self, M: Clutter) -> tuple:
        masks = self.masks
        return masks[M.ground], sum(1 << masks[A] for A in M.rows)

    def clutter(self, key: tuple) -> Clutter:
        g, R = key
        sets = self.sets
        return Clutter(sets[g], frozenset(map(sets.__getitem__, _bits(R))))

    def connected(self, g: int, R: int) -> bool:
        """core._spans of the clutter (g, R), on tuples of element indices."""
        elems = self.elems
        return core._spans(elems[g], map(elems.__getitem__, _bits(R)))


def _removal_keys(g: int, R: int, v: int, code: _Code) -> tuple:
    """The keys of M\\v and M/v for the clutter M = (g, R) and an element v
    of g, as core._removals gives their (ground, rows) pairs.

    Both have the ground g less v's bit b.  The rows without v, kept, are
    M\\v's rows.  A row with v has its mask's bit b set, so stripping v
    moves its bit down by b places: stripped holds the stripped rows.  When
    there are none the two keys are one.  Otherwise M/v's rows are the
    stripped rows and each kept row that contains none of them: kept less
    the up-closure of stripped within the ground left, which each element
    u grows by one shift-or, adding u to every mask without it.
    """
    b = 1 << v
    rest = g ^ b
    lacks = code.lacks
    kept = R & lacks[v]
    stripped = (R ^ kept) >> b
    if not stripped:
        key = (rest, R)
        return key, key
    up = stripped
    for u in code.elems[rest]:
        up |= (up & lacks[u]) << (1 << u)
    return (rest, kept), (rest, stripped | kept & ~up)


def _connected_minors(key: tuple, memo: dict, members: list, code: _Code) -> tuple:
    """(C is connected, S(C)) for the clutter C with this key, where S(C) is
    every connected minor of C, C itself included if it is connected.  S(C)
    is an int bitset over members: bit i stands for members[i], the key of
    the run's i-th connected minor in first-met order.

    Every proper minor of C is a minor of a single removal, so
    S(C) = ({C} if C is connected) | the S of each C\\v and C/v, which is
    _removal_minors' first union.  memo maps each key to its entry, so each
    clutter's S and connectivity are computed once per memo; a removal's
    entry is read with memo.get in _removal_minors, and only a miss costs a
    call, which computes that entry: at n=4, 126 calls for 1,296 lookups.
    Keys, bitsets and unions are ints, and no Clutter is built.  The memo
    is a plain dict passed in, because a recursive closure under
    functools.cache is a reference cycle, which only the cycle collector
    frees.
    """
    entry = memo.get(key)
    if entry is None:
        bits, _ = _removal_minors(key, memo, members, code)
        connected = code.connected(*key)
        if connected:
            bits |= 1 << len(members)
            members.append(key)
        entry = memo[key] = (connected, bits)
    return entry


def _removal_minors(key: tuple, memo: dict, members: list, code: _Code) -> tuple:
    """(the union of S(R) over the single removals R of the clutter with
    this key, the union over the connected R), as bitsets over members: its
    connected proper minors, and those that are a minor of a connected
    single removal.  Each element's pair of removal keys comes from one
    _removal_keys call, and each R's entry is a memo.get, with a
    _connected_minors call only on a miss."""
    g, R = key
    minors = reach = 0
    for v in code.elems[g]:
        for removal in _removal_keys(g, R, v, code):
            entry = memo.get(removal)
            if entry is None:
                entry = _connected_minors(removal, memo, members, code)
            connected, bits = entry
            minors |= bits
            if connected:
                reach |= bits
    return minors, reach


def _in_witness_order(key: tuple, bits: int, members: list, code: _Code) -> list:
    """The members that bits stands for, as clutters, in first-witness order
    as minors of the clutter M with this key.

    Two or more are sorted by minor._first_witness, one has_minor search
    each, which costs M's Clutter.  A lone member is already in order and
    costs no search: each failing M of verify_theorem at n=4 and 5 has one
    failure, while at n=3 the nine failures lie on four M."""
    found = [code.clutter(members[i]) for i in _bits(bits)]
    if len(found) > 1:
        M = code.clutter(key)
        found.sort(key=lambda N: minor._first_witness(M, N))
    return found


def connected_proper_minors(M: Clutter) -> list:
    """Distinct connected proper minors of M, in first-witness order."""
    code = _Code(M.ground)
    key, members = code.key(M), []
    minors, _ = _removal_minors(key, {}, members, code)
    return _in_witness_order(key, minors, members, code)


def _splitter_failures(key: tuple, memo: dict, members: list, code: _Code) -> tuple:
    """(tested, failures) for the connected clutter M with this key: tested
    counts M's connected proper minors N, and failures lists, as clutters
    in first-witness order, those for which no single removal R of M is
    connected with N as a minor.

    N passes iff N is in S(R) for a connected R, so the failures are
    _removal_minors' first union less its second, found with no per-pair
    test.  memo, members and code are _connected_minors', shared across
    the M of one run.
    """
    minors, reach = _removal_minors(key, memo, members, code)
    failed = _in_witness_order(key, minors & ~reach, members, code)
    return minors.bit_count(), failed


def verify_theorem(n: int) -> VerificationReport:
    """Check the splitter property on every connected clutter M on exactly n
    labeled elements against each of its connected proper minors N (see
    _splitter_failures).

    The M come from _antichains as row bitsets of one _Code, and their
    connectivity from core._spans, so a Clutter is built only for a failing
    M and its failing N, for the report line.  One memo lives for the call
    and holds the entry of each clutter on n-1 or fewer elements that
    occurs, and members the keys of the connected ones, which the memo's
    bitsets index.
    """
    labels = _ground_labels(n)
    code = _Code(labels)
    subsets, above = _subsets(labels)
    items = [1 << code.masks[s] for s in subsets]
    g = (1 << n) - 1
    memo, members = {}, []
    tested = 0
    failures = []
    for R in _antichains(items, above, 0):
        if code.connected(g, R):
            key = (g, R)
            count, failed = _splitter_failures(key, memo, members, code)
            tested += count
            if failed:
                M = _inline(code.clutter(key))
                failures += [f"M=({M})  N=({_inline(N)})" for N in failed]
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
    removal is its (ground, rows) pair: one core._removals call gives M\\v
    and M/v from one pass over M's rows, and the families compare pairs,
    whose frozensets compare in C.  Every
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
    if not 0 <= n <= 5:
        raise TooLarge(f"identity verification supports n between 0 and 5, got {n}")
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
