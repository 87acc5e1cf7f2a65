"""Circuit-presented matroids as clutter sources.

Matroids here exist only to feed fixtures into the clutter machinery: a
matroid is its ground set plus its family of circuits, bases are derived by
brute force over subsets, duals as the blocker of the bases.  The circuit
axioms are checked exhaustively whenever circuits come from a caller or a
file; `uniform` and `direct_sum` build valid families and skip that scan.
Intended for grounds of a dozen elements or fewer.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from . import core
from .blocker import blocker
from .core import Clutter, _Record, new_clutter, row_sort_key
from .errors import BadRank, CircuitAxiomViolation, GroundOverlap, ParseError


class CircuitMatroid(_Record):
    """A matroid given by its ground set and its family of circuits."""

    __slots__ = ("ground", "circuits")


def _valid_family(ground: Iterable[str], circuits: Iterable[Iterable[str]]) -> CircuitMatroid:
    """Validate labels and the antichain property only; for circuit families
    that satisfy the circuit axioms by construction."""
    as_clutter = new_clutter(ground, circuits)
    return CircuitMatroid(as_clutter.ground, as_clutter.rows)


def new_matroid(ground: Iterable[str], circuits: Iterable[Iterable[str]]) -> CircuitMatroid:
    """Validate labels, the antichain property, and circuit elimination."""
    N = _valid_family(ground, circuits)
    if frozenset() in N.circuits:
        raise CircuitAxiomViolation("the empty set cannot be a circuit")
    ordered = sorted(N.circuits, key=row_sort_key)
    for C1, C2 in itertools.combinations(ordered, 2):
        for e in C1 & C2:
            union_minus = (C1 | C2) - {e}
            if not any(C3 <= union_minus for C3 in N.circuits):
                raise CircuitAxiomViolation(
                    f"no circuit inside ({{{' '.join(sorted(C1))}}} | "
                    f"{{{' '.join(sorted(C2))}}}) - {e}"
                )
    return N


def circuits_clutter(N: CircuitMatroid) -> Clutter:
    """The clutter whose rows are the circuits of N."""
    return Clutter(N.ground, N.circuits)


def _independent(N: CircuitMatroid, S: frozenset) -> bool:
    return not any(C <= S for C in N.circuits)


def bases(N: CircuitMatroid) -> frozenset:
    """Maximal circuit-free subsets, by brute force over all subsets."""
    elems = sorted(N.ground)
    independents = [
        frozenset(combo)
        for r in range(len(elems) + 1)
        for combo in itertools.combinations(elems, r)
        if _independent(N, frozenset(combo))
    ]
    top = max(len(S) for S in independents)  # all bases are equicardinal
    return frozenset(S for S in independents if len(S) == top)


def dual(N: CircuitMatroid) -> CircuitMatroid:
    """The dual matroid: its circuits are the blocker of the bases of N, the
    minimal sets meeting every basis.  Result is re-validated against the
    circuit axioms."""
    return new_matroid(N.ground, blocker(Clutter(N.ground, bases(N))).rows)


def direct_sum(N1: CircuitMatroid, N2: CircuitMatroid) -> CircuitMatroid:
    """Disjoint union of grounds and circuits.  Each circuit meets one
    ground only, so elimination holds because it holds in each summand."""
    overlap = N1.ground & N2.ground
    if overlap:
        raise GroundOverlap(f"shared elements: {' '.join(sorted(overlap))}")
    return _valid_family(N1.ground | N2.ground, N1.circuits | N2.circuits)


def uniform(r: int, n: int, labels: Iterable[str] | None = None) -> CircuitMatroid:
    """The uniform matroid of rank r on n elements: circuits are all
    (r+1)-subsets, which satisfy circuit elimination by construction.
    Default labels are '1'..'n'."""
    if not 0 <= r <= n:
        raise BadRank(f"rank {r} not in 0..{n}")
    if labels is None:
        labels = [str(i + 1) for i in range(n)]
    labels = list(labels)
    if len(labels) != n:
        raise BadRank(f"expected {n} labels, got {len(labels)}")
    circuits = [set(combo) for combo in itertools.combinations(sorted(labels), r + 1)]
    return _valid_family(labels, circuits)


# Cycle space of the complete graph on four vertices a,b,c,d: one label per
# edge, four triangles and three 4-cycles.
_K4_CIRCUITS = (
    ("ab", "ac", "bc"),
    ("ab", "ad", "bd"),
    ("ac", "ad", "cd"),
    ("bc", "bd", "cd"),
    ("ab", "ac", "bd", "cd"),
    ("ab", "ad", "bc", "cd"),
    ("ac", "ad", "bc", "bd"),
)


def k4_graphic_matroid() -> CircuitMatroid:
    """The graphic matroid of the complete graph K4, over its six edge labels."""
    return new_matroid(("ab", "ac", "ad", "bc", "bd", "cd"), _K4_CIRCUITS)


def is_connected(N: CircuitMatroid) -> bool:
    """True iff no bipartition of the ground keeps every circuit inside one
    part: the circuit clutter is connected."""
    return core.is_connected(circuits_clutter(N))


MATROID_HEADER = "matroid-circuits"


def serialize_matroid(N: CircuitMatroid) -> str:
    """Matroid fixture text: a header line, then the circuit clutter."""
    return MATROID_HEADER + "\n" + core.canonical_serialize(circuits_clutter(N))


def parse_matroid(text: str) -> CircuitMatroid:
    """Parse the fixture format; circuit axioms are validated on load."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0].strip() != MATROID_HEADER:
        raise ParseError(f"first line must be '{MATROID_HEADER}'")
    as_clutter = core.parse_clutter("\n".join(lines[1:]))
    return new_matroid(as_clutter.ground, as_clutter.rows)
