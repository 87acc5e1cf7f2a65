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
from dataclasses import dataclass
from typing import Iterator

from . import core, graphview
from .blocker import blocker
from .core import Clutter, canonical_serialize
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    tested: int
    passed: int
    counterexamples: tuple

    def summary_line(self) -> str:
        return (
            f"{self.name}: tested={self.tested} passed={self.passed} "
            f"counterexamples={len(self.counterexamples)}"
        )


@dataclass(frozen=True)
class VerificationReport:
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


def _tally(name: str, cases: Iterator[tuple], holds, label) -> CheckResult:
    """Count the cases of one identity family; label names each failure."""
    tested = passed = 0
    failures = []
    for case in cases:
        tested += 1
        if holds(*case):
            passed += 1
        else:
            failures.append(label(*case))
    return CheckResult(name, tested, passed, tuple(failures))


def _commutes(M: Clutter, v: str, w: str) -> bool:
    delete, contract = core.delete, core.contract
    return (
        delete(delete(M, v), w) == delete(delete(M, w), v)
        and contract(contract(M, v), w) == contract(contract(M, w), v)
        and contract(delete(M, v), w) == delete(contract(M, w), v)
    )


def _swaps_duality(M: Clutter, v: str, b: Clutter) -> bool:
    return blocker(core.delete(M, v)) == core.contract(b, v) and blocker(
        core.contract(M, v)
    ) == core.delete(b, v)


def _contracts_twin(M: Clutter, v: str, G: graphview.IncidenceGraph) -> bool:
    contracted = core.contract(M, v)
    return graphview.incidence_graph(
        contracted
    ) == graphview.remove_black_vertex(G, v) and core.is_connected(contracted)


def _deletes_neighbourhood(M: Clutter, v: str, G: graphview.IncidenceGraph) -> bool:
    direct = graphview.incidence_graph(core.delete(M, v))
    return direct == graphview.delete_closed_neighbourhood(G, v)


def _with_elements(clutters: Iterator[Clutter], extra) -> Iterator[tuple]:
    """(M, v, extra(M)) for every element v of every clutter M."""
    for M in clutters:
        side = extra(M)
        for v in sorted(M.ground):
            yield M, v, side


def _with_twins(n: int) -> Iterator[tuple]:
    for M, v, G in _with_elements(enumerate_connected(n), graphview.incidence_graph):
        if graphview.twins(G, v):
            yield M, v, G


def _label_m(M: Clutter, *_) -> str:
    return f"M=({_inline(M)})"


def _label_mv(M: Clutter, v: str, *_) -> str:
    return f"M=({_inline(M)}) v={v}"


def verify_identities(n: int) -> VerificationReport:
    """Check the identity families over every clutter on exactly n elements:
    commutativity of deletion/contraction, blocker involution, the duality
    swap, the connectivity equivalence, twin contraction, and the
    deletion/graph correspondence."""
    if not 0 <= n <= 4:
        raise TooLarge(f"identity verification supports n between 0 and 4, got {n}")
    families = (
        (
            "deletion-contraction-commutativity",
            (
                (M, v, w)
                for M in enumerate_clutters(n)
                for v, w in itertools.permutations(sorted(M.ground), 2)
            ),
            _commutes,
            lambda M, v, w: f"M=({_inline(M)}) v={v} v'={w}",
        ),
        (
            "blocker-involution",
            ((M,) for M in enumerate_clutters(n)),
            lambda M: blocker(blocker(M)) == M,
            _label_m,
        ),
        (
            "duality-swap",
            _with_elements(enumerate_clutters(n), blocker),
            _swaps_duality,
            _label_mv,
        ),
        (
            "connectivity-equivalence",
            ((M,) for M in enumerate_clutters(n)),
            graphview.graph_connected_iff_clutter_connected,
            _label_m,
        ),
        ("twin-contraction", _with_twins(n), _contracts_twin, _label_mv),
        (
            "deletion-graph-correspondence",
            _with_elements(enumerate_clutters(n), graphview.incidence_graph),
            _deletes_neighbourhood,
            _label_mv,
        ),
    )
    return VerificationReport(tuple(_tally(*family) for family in families))
