"""Exhaustive clutter generation and the verification harness.

Every antichain over a small labeled ground set is generated exactly once by
canonical growth: subsets are fixed in a canonical order and an antichain is
built by choosing an increasing sequence of pairwise incomparable subsets.
The verify_* functions machine-check the splitter theorem and the identity
propositions over the full enumeration and render deterministic plain-text
reports; counterexamples are report content, not errors.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from . import core, graphview
from .blocker import blocker
from .core import Clutter, _Record, canonical_serialize
from .errors import TooLarge

MAX_GROUND = 5


def _ground_labels(n: int) -> list:
    if not 0 <= n <= MAX_GROUND:
        raise TooLarge(f"n must be between 0 and {MAX_GROUND}, got {n}")
    return [str(i + 1) for i in range(n)]


def enumerate_clutters(n: int) -> Iterator[Clutter]:
    """Every clutter on ground {'1'..str(n)}, exactly once, deterministically."""
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

    def grow(start: int, chosen: list) -> Iterator[Clutter]:
        yield Clutter(ground, frozenset(chosen))
        for i in range(start, len(subsets)):
            s = subsets[i]
            # subsets come in row_sort_key order, so s never lies inside an earlier t
            if not any(t <= s for t in chosen):
                yield from grow(i + 1, chosen + [s])

    yield from grow(0, [])


def enumerate_connected(n: int) -> Iterator[Clutter]:
    """The connected members of enumerate_clutters(n)."""
    return (M for M in enumerate_clutters(n) if core.is_connected(M))


def _inline(M: Clutter) -> str:
    return canonical_serialize(M).strip().replace("\n", "; ")


class CheckResult(_Record):
    """One verifier check: how many cases it tested and passed, and the
    counterexample lines of the ones that failed."""

    name: str
    tested: int
    passed: int
    counterexamples: tuple

    def summary_line(self) -> str:
        return (
            f"{self.name}: tested={self.tested} passed={self.passed} "
            f"counterexamples={len(self.counterexamples)}"
        )


class VerificationReport(_Record):
    """The check results of one verifier run, in order."""

    results: tuple

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


def _connected_minors(C: Clutter, rest: tuple, memo: dict) -> tuple:
    """The distinct connected minors of C reached by keeping, deleting or
    contracting each element of the ascending tuple rest.

    They come in first-witness order of the base-3 counter over rest with
    keep < delete < contract, the order of minor.all_minors, with the
    disconnected minors dropped.  Deletion and contraction commute, so a
    sub-walk's result depends only on its clutter and the elements still to
    decide; memo holds each one computed so far, the leaves (C, ()) included,
    so each clutter's connectivity is decided once per memo.
    """
    found = memo.get((C, rest))
    if found is None:
        if rest:
            v, tail = rest[0], rest[1:]
            found = tuple(
                dict.fromkeys(
                    _connected_minors(C, tail, memo)
                    + _connected_minors(core.delete(C, v), tail, memo)
                    + _connected_minors(core.contract(C, v), tail, memo)
                )
            )
        else:
            found = (C,) if core.is_connected(C) else ()
        memo[(C, rest)] = found
    return found


def _walk(C: Clutter, memo: dict) -> tuple:
    """Every distinct connected minor of C, C itself included if connected."""
    return _connected_minors(C, tuple(sorted(C.ground)), memo)


def connected_proper_minors(M: Clutter) -> list:
    """Distinct connected proper minors of M, in first-witness order."""
    return [N for N in _walk(M, {}) if N.ground != M.ground]


def verify_theorem(n: int) -> VerificationReport:
    """Check the splitter property on every connected clutter M on exactly n
    labeled elements against each of its connected proper minors N.

    A pair passes iff N is a minor of some single removal M\\v or M/v that
    stays connected.  M and those removals are walked through one memo that
    lives for the call, so every sub-walk and every clutter's connectivity
    is computed once per run.
    """
    memo = {}
    tested = passed = 0
    failures = []
    for M in enumerate_clutters(n):
        if not _connected_minors(M, (), memo):  # the memoised is_connected(M)
            continue
        reach = set()
        for v in sorted(M.ground):
            for R in (core.delete(M, v), core.contract(M, v)):
                if _connected_minors(R, (), memo):
                    reach.update(_walk(R, memo))
        for N in _walk(M, memo):
            if N.ground == M.ground:
                continue
            tested += 1
            if N in reach:
                passed += 1
            else:
                failures.append(f"M=({_inline(M)})  N=({_inline(N)})")
    result = CheckResult(f"theorem n={n}", tested, passed, tuple(failures))
    return VerificationReport((result,))


class _Removal(_Record):
    """A single removal R = M\\v or M/v as the identity families use it:
    R\\w and R/w keyed by the element w, R's blocker and R's incidence graph."""

    deleted: dict
    contracted: dict
    blocker: Clutter
    graph: graphview.IncidenceGraph


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
    tally.  Every single removal M\\v or M/v is one of the clutters on the
    n-1 elements left, and each of those is the removal of many M.  So one
    memo that lives for the call, keyed by primitive and clutter value,
    holds the blocker of every M and, for each clutter on n-1 elements that
    occurs, its removals, its blocker and its incidence graph.  M's own
    removals and graph and the removals of its blocker serve that M alone;
    they are computed directly and dropped once M is done, which keeps the
    memo to one blocker per M plus the clutters on n-1 elements.
    """
    if not 0 <= n <= 4:
        raise TooLarge(f"identity verification supports n between 0 and 4, got {n}")
    delete, contract, graph = core.delete, core.contract, graphview.incidence_graph
    tested = dict.fromkeys(_FAMILIES, 0)
    failures = {name: [] for name in _FAMILIES}
    memo = {}

    def record(name: str, holds: bool, M: Clutter, *where: str) -> None:
        tested[name] += 1
        if not holds:
            marks = "".join(f" {k}={x}" for k, x in zip(("v", "v'"), where))
            failures[name].append(f"M=({_inline(M)}){marks}")

    def once(primitive, C: Clutter):
        """primitive(C), computed once per run for each clutter value C."""
        value = memo.get((primitive, C))
        if value is None:
            value = memo[primitive, C] = primitive(C)
        return value

    def removal(R: Clutter) -> _Removal:
        return _Removal(
            {w: delete(R, w) for w in R.ground},
            {w: contract(R, w) for w in R.ground},
            blocker(R),
            graph(R),
        )

    for M in enumerate_clutters(n):
        elems = sorted(M.ground)
        deleted = {v: delete(M, v) for v in elems}
        contracted = {v: contract(M, v) for v in elems}
        b, G = once(blocker, M), graph(M)
        D = {v: once(removal, R) for v, R in deleted.items()}
        C = {v: once(removal, R) for v, R in contracted.items()}
        for v, w in itertools.permutations(elems, 2):
            # M\v\w = M\w\v, M/v/w = M/w/v and M\v/w = M/w\v
            holds = (
                D[v].deleted[w] == D[w].deleted[v]
                and C[v].contracted[w] == C[w].contracted[v]
                and D[v].contracted[w] == C[w].deleted[v]
            )
            record("deletion-contraction-commutativity", holds, M, v, w)
        record("blocker-involution", once(blocker, b) == M, M)
        for v in elems:
            # blocker(M\v) = b/v and blocker(M/v) = b\v
            holds = D[v].blocker == contract(b, v) and C[v].blocker == delete(b, v)
            record("duality-swap", holds, M, v)
        connected = core.is_connected(M)
        holds = graphview._connectivity_agrees(M, G, connected)
        record("connectivity-equivalence", holds, M)
        if connected:
            for v in elems:
                if graphview.twins(G, v):
                    holds = (
                        C[v].graph == graphview.remove_black_vertex(G, v)
                        and core.is_connected(contracted[v])
                    )
                    record("twin-contraction", holds, M, v)
        for v in elems:
            holds = D[v].graph == graphview.delete_closed_neighbourhood(G, v)
            record("deletion-graph-correspondence", holds, M, v)
    results = (
        CheckResult(name, count, count - len(failures[name]), tuple(failures[name]))
        for name, count in tested.items()
    )
    return VerificationReport(tuple(results))
