"""Splitter steps and chains.

Given connected clutters M and N with N a proper minor of M, find_splitter
looks for a single element whose deletion or contraction stays connected and
keeps N as a minor, and chain iterates that search down to N.  When no such
element exists the search raises TheoremCounterexample; counterexample_report
renders the full forensic picture of such a failure.
"""

from __future__ import annotations

from . import core, graphview, minor
from .core import Clutter, MinorSpec, _Record, canonical_serialize
from .errors import PreconditionViolation, TheoremCounterexample

DELETE = "delete"
CONTRACT = "contract"


class SplitterStep(_Record):
    """One step of a splitter chain: the element deleted or contracted, and
    the clutter it leaves."""

    __slots__ = ("element", "op", "result")  # op is DELETE or CONTRACT


class SplitterChain(_Record):
    """A clutter and the splitter steps taken from it, in order."""

    __slots__ = ("start", "steps")

    @property
    def final(self) -> Clutter:
        return self.steps[-1].result if self.steps else self.start


def _apply(M: Clutter, v: str, op: str) -> Clutter:
    return core.delete(M, v) if op == DELETE else core.contract(M, v)


def _ranked(M: Clutter, N: Clutter):
    """candidate_elements' order, lazily: each minimal element as soon as
    it is classed, then the elements with twins, then the rest, each group
    ascending.

    An element u != v in no row without v has its rows inside v's.  So v is
    minimal when no row holds v or every such u lies in every row with v,
    and otherwise v has a twin when some such u does.  One pass over M's
    rows classes v, and it stops once every u != v has shown up in a row
    without v.
    """
    twinned, rest = [], []
    others = len(M.ground) - 1
    for v in sorted(M.ground - N.ground):
        common = None  # the elements in every row with v
        outside = set()  # the elements in some row without v
        for A in M.rows:
            if v in A:
                common = A if common is None else common & A
            else:
                outside.update(A)
                if len(outside) == others:
                    break  # no u has its rows inside v's: v is minimal
        inside = M.ground - outside  # v and the u in no row without v
        if common is None or inside <= common:
            yield v
        elif len(inside & common) > 1:  # v and a twin
            twinned.append(v)
        else:
            rest.append(v)
    yield from twinned
    yield from rest


def candidate_elements(M: Clutter, N: Clutter) -> list:
    """Candidate removal order: minimal black vertices first, then elements
    with twins, then the rest, ascending within each class.

    The classes mirror where connectivity-preserving removals tend to live;
    they affect only which witness is found, never whether one exists.
    Both rules compare elements' sets of rows, which is their neighbourhoods
    in M's incidence graph up to row_key, an injection, so no graph is
    built.  A splitter step ranks lazily and classes only the candidates it
    tries; this full list costs one pass over the rows per element.
    """
    return list(_ranked(M, N))


def _problems(result: Clutter, N: Clutter, witness):
    """What result lacks as a splitter step towards N, lazily: "result
    disconnected", then "target not a minor of result".

    witness, a spec turning result into N or None if none is known, answers
    the second without a search.  Returns the witness given or found, or
    None.
    """
    if not core.is_connected(result):
        yield "result disconnected"
    if witness is None:
        witness = minor.has_minor(result, N)
        if witness is None:
            yield "target not a minor of result"
    return witness


def _attempts(M: Clutter, N: Clutter, spec):
    """Every candidate removal from M towards N, in search order.

    Yields (element, op, result, problems) for each element in
    candidate_elements order, delete before contract.  problems is
    _problems' iterator: the report reads it whole, a step search only up to
    the first problem, so a disconnected result gets no minor test.  An
    empty one marks a splitter step.

    spec is a witness turning M into N, or None.  Removing v as spec does
    keeps N a minor by spec less v, so that attempt gets no minor search.
    """
    for v in _ranked(M, N):
        for op in (DELETE, CONTRACT):
            witness = None
            if spec is not None and v in (spec.deletes if op == DELETE else spec.contracts):
                witness = MinorSpec(spec.deletes - {v}, spec.contracts - {v})
            result = _apply(M, v, op)
            yield v, op, result, _problems(result, N, witness)


def _step(M: Clutter, N: Clutter, spec) -> tuple:
    """The first splitter step from M towards N, and a witness turning its
    result into N; spec turns M into N, other preconditions are the caller's."""
    for v, op, result, problems in _attempts(M, N, spec):
        try:
            next(problems)
        except StopIteration as no_problem:
            return SplitterStep(v, op, result), no_problem.value
    raise TheoremCounterexample(
        "no single-element removal preserves connectivity and the minor", M, N
    )


def _require_connected(M: Clutter, N: Clutter) -> None:
    if not core.is_connected(M):
        raise PreconditionViolation("M is not connected")
    if not core.is_connected(N):
        raise PreconditionViolation("N is not connected")


def find_splitter(M: Clutter, N: Clutter) -> SplitterStep:
    """One connectivity- and minor-preserving removal step from M towards N."""
    _require_connected(M, N)
    spec = minor.has_minor(M, N) if N.ground < M.ground else None
    if spec is None:
        raise PreconditionViolation("N is not a proper minor of M")
    return _step(M, N, spec)[0]


def chain(M: Clutter, N: Clutter) -> SplitterChain:
    """A chain of splitter steps from M down to exactly N."""
    _require_connected(M, N)
    spec = minor.has_minor(M, N)
    if spec is None:
        raise PreconditionViolation("N is not a minor of M")
    steps = []
    current = M
    while current != N:
        # current != N and N a minor of current imply N is a proper minor
        step, spec = _step(current, N, spec)
        steps.append(step)
        current = step.result
    return SplitterChain(M, tuple(steps))


def chain_to_empty(M: Clutter) -> SplitterChain:
    """Reduce a connected clutter on a nonempty ground set to an empty-ground one.

    The target keeps M's empty row if it has one, since the empty row
    survives every minor.  On a nonempty ground the only connected clutter
    with an empty row is ({x}; {∅}) (see core.is_connected), so its chain
    ends at (∅; {∅}).
    """
    if not M.ground:
        raise PreconditionViolation("ground set is already empty")
    return chain(M, Clutter(frozenset(), M.rows & {frozenset()}))


def _indented(M: Clutter) -> list:
    """M's canonical text as lines, each indented by two spaces."""
    return ["  " + line for line in canonical_serialize(M).splitlines()]


def format_step(step: SplitterStep) -> str:
    """One step as text: the operation line, then the result indented."""
    return "\n".join([f"{step.op} {step.element}", *_indented(step.result)]) + "\n"


def format_chain(chain_value: SplitterChain) -> str:
    return "".join(format_step(step) for step in chain_value.steps)


def counterexample_report(M: Clutter, N: Clutter) -> str:
    """Forensic text for a failed splitter search.

    Lists, for every candidate element and operation, whether connectivity or
    minor containment failed, then the structural analysis of M's incidence
    graph: minimal black vertices, twins, and good components (minimal ones
    flagged).
    """
    out = ["splitter search failed: every candidate fails", "", "M:"]
    out += _indented(M)
    out.append("N:")
    out += _indented(N)
    out.append("")
    out.append("candidates:")
    # listed ascending, whatever order the search used; the sort is stable,
    # so each element keeps _attempts' delete before contract
    attempts = sorted(_attempts(M, N, minor.has_minor(M, N)), key=lambda a: a[0])
    out += [
        f"  {op} {v}: " + ("; ".join(problems) or "works")
        for v, op, _, problems in attempts
    ] or ["  (none)"]
    G = graphview.incidence_graph(M)
    out.append("")
    out.append("incidence graph analysis of M:")
    minimal = core._members(graphview.minimal_black_vertices(G))
    out.append("  minimal black vertices: " + minimal)
    twin_lines = []
    for v in sorted(G.black):
        mates = sorted(graphview.twins(G, v))
        if mates:
            twin_lines.append(f"  twins of {v}: " + " ".join(mates))
    out += twin_lines or ["  twins: none"]
    out.append("  good components:")
    comp_lines = []
    for u, comp, is_minimal in graphview._flagged_good_components(G):
        names = " ".join(
            name for _, name in sorted(comp, key=graphview.vertex_sort_key)
        )
        mark = " (minimal)" if is_minimal else ""
        comp_lines.append(f"    u={u}: {{{names}}}{mark}")
    out += comp_lines or ["    (none)"]
    return "\n".join(out) + "\n"
