"""Bipartite incidence graphs of clutters.

Black vertices are ground elements, white vertices are rows, and an edge
joins an element to each row containing it.  White vertices are identified
by the canonical key 'r:' + comma-joined ascending members ('r:-' for the
empty row), so graphs of equal clutters are identical objects, not merely
isomorphic.  Black and white names are disjoint, since a label may not start
with 'r:' and every row key does; so components and graph_connected work on
the plain names.  In mixed vertex sets (components, neighbourhoods) a vertex
is the tagged pair ('black', element) or ('white', row key).
"""

from __future__ import annotations

from . import core
from .core import Clutter, _Record
from .errors import NoTwin, NotBlack, NotMinimal, VertexNotFound

BLACK = "black"
WHITE = "white"

Vertex = tuple  # (BLACK, element) | (WHITE, row key)


def row_key(row: frozenset) -> str:
    """Canonical white-vertex name for a row."""
    return "r:" + (",".join(sorted(row)) if row else "-")


class IncidenceGraph(_Record):
    """The bipartite incidence graph of a clutter: black vertices are its
    elements, white vertices its rows, and each element is joined to the
    rows that contain it.  No name is both black and white."""

    # black: the element labels; white: the row keys; edges: the (element,
    # row key) pairs
    __slots__ = ("black", "white", "edges")


class Neighbourhood(_Record):
    """A vertex of an incidence graph with its open and closed neighbourhoods."""

    # center: a tagged Vertex; open: its adjacent vertices; closed: open | {center}
    __slots__ = ("center", "open", "closed")


def incidence_graph(M: Clutter) -> IncidenceGraph:
    """The bipartite incidence graph of a clutter."""
    keys = {A: row_key(A) for A in M.rows}
    edges = frozenset((v, w) for A, w in keys.items() for v in A)
    return IncidenceGraph(M.ground, frozenset(keys.values()), edges)


def _require_black(G: IncidenceGraph, v: str) -> None:
    if v in G.black:
        return
    if v in G.white:
        raise NotBlack(f"{v!r} is a white vertex")
    raise VertexNotFound(f"no vertex {v!r}")


def vertex_sort_key(vertex: Vertex) -> tuple:
    """Deterministic vertex order: by name, black before white at equal name."""
    kind, name = vertex
    return (name, 0 if kind == BLACK else 1)


def neighbourhood(G: IncidenceGraph, vertex: Vertex) -> Neighbourhood:
    """Open and closed neighbourhoods of a tagged vertex.

    Raises VertexNotFound for anything that is not a vertex of G, a list
    with a vertex's items or a pair with an unhashable name included.
    """
    kind, name = vertex if isinstance(vertex, tuple) and len(vertex) == 2 else (None, None)
    try:
        if kind == BLACK and name in G.black:
            open_ = frozenset((WHITE, w) for v, w in G.edges if v == name)
        elif kind == WHITE and name in G.white:
            open_ = frozenset((BLACK, v) for v, w in G.edges if w == name)
        else:
            raise KeyError(vertex)
    except (KeyError, TypeError):  # no such vertex, or an unhashable name
        raise VertexNotFound(f"no vertex {vertex!r}") from None
    return Neighbourhood(vertex, open_, open_ | {vertex})


def components(G: IncidenceGraph) -> list:
    """Connected components as frozensets of tagged vertices, ordered by each
    part's least vertex."""
    part = core._parts(G.black | G.white, G.edges)
    # disjoint names sort as vertex_sort_key sorts their tagged vertices; a
    # dict keeps each part's first position; parts are lists, keyed by id
    met = {id(part[x]): part[x] for x in sorted(part)}
    black = G.black
    return [frozenset((BLACK if x in black else WHITE, x) for x in xs) for xs in met.values()]


def graph_connected(G: IncidenceGraph) -> bool:
    """True iff the graph has at most one connected component."""
    return core._spans(G.black | G.white, G.edges)


def graph_connected_iff_clutter_connected(M: Clutter) -> bool:
    """Self-check of the connectivity equivalence.

    Clutter connectivity and graph connectivity agree for every clutter except
    ({x}; {∅}), which counts as connected while its incidence graph is not
    (see core.is_connected); that clutter returns True.  Any other clutter
    returns False exactly when the two notions disagree, which the identity
    verifier counts as a counterexample.
    """
    return _connectivity_agrees(M, incidence_graph(M), core.is_connected(M))


def _connectivity_agrees(M: Clutter, G: IncidenceGraph, connected: bool) -> bool:
    """graph_connected_iff_clutter_connected(M) given M's incidence graph G
    and connected = core.is_connected(M), for callers that already hold both."""
    exceptional = len(M.ground) == 1 and M.rows == frozenset({frozenset()})
    return exceptional or connected == graph_connected(G)


def delete_closed_neighbourhood(G: IncidenceGraph, v: str) -> IncidenceGraph:
    """Remove a black vertex, its white neighbours, and all incident edges.

    When G is the incidence graph of M this is exactly the incidence graph of
    M with v deleted.
    """
    _require_black(G, v)
    gone_whites = {w for u, w in G.edges if u == v}
    return IncidenceGraph(
        G.black - {v},
        G.white - gone_whites,
        frozenset(edge for edge in G.edges if edge[1] not in gone_whites),
    )


def remove_black_vertex(G: IncidenceGraph, v: str) -> IncidenceGraph:
    """Remove a black vertex only, re-keying whites to their remaining members.

    Raises ValueError if two whites would collide after re-keying; this cannot
    happen when v has a twin.
    """
    _require_black(G, v)
    kept = {w: set() for w in G.white}  # each white's black neighbours but v
    for u, w in G.edges:
        if u != v:
            kept[w].add(u)
    mapping = {w: row_key(us) for w, us in kept.items()}
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("removing this black vertex merges white vertices")
    return IncidenceGraph(
        G.black - {v},
        frozenset(mapping.values()),
        frozenset((u, mapping[w]) for u, w in G.edges if u != v),
    )


def twins(G: IncidenceGraph, v: str) -> frozenset:
    """All black vertices other than v with the same open neighbourhood."""
    _require_black(G, v)
    hoods = _white_neighbours(G)
    mine = hoods.pop(v)
    return frozenset(u for u, ws in hoods.items() if ws == mine)


def _white_neighbours(G: IncidenceGraph) -> dict:
    """Each black vertex mapped to the set of its white neighbours' names."""
    hoods = {v: set() for v in G.black}
    for v, w in G.edges:
        hoods[v].add(w)
    return hoods


def contract_twin(M: Clutter, v: str) -> Clutter:
    """Contract an element that has a twin in the incidence graph.

    The result's incidence graph equals G(M) with the black vertex v removed,
    and contracting a twin of a connected clutter keeps it connected; the
    twin-contraction identity family checks both.
    """
    if not twins(incidence_graph(M), v):
        raise NoTwin(f"element {v!r} has no twin")
    return core.contract(M, v)


def minimal_black_vertices(G: IncidenceGraph) -> frozenset:
    """Black vertices whose open neighbourhood properly contains no other's."""
    hoods = _white_neighbours(G)
    return frozenset(v for v, ns in hoods.items() if not any(ws < ns for ws in hoods.values()))


def good_components(G: IncidenceGraph, u: str) -> list:
    """Components of G minus the closed neighbourhood of a minimal black vertex."""
    _require_black(G, u)
    if u not in minimal_black_vertices(G):
        raise NotMinimal(f"black vertex {u!r} is not minimal")
    return components(delete_closed_neighbourhood(G, u))


def _flagged_good_components(G: IncidenceGraph) -> list:
    """(u, component, is_minimal) for every good component, u ascending: a
    component is minimal iff it properly contains no other good component's
    vertex set."""
    pairs = [
        (u, comp)
        for u in sorted(minimal_black_vertices(G))
        for comp in components(delete_closed_neighbourhood(G, u))
    ]
    return [(u, comp, not any(d < comp for _, d in pairs)) for u, comp in pairs]


def minimal_good_components(G: IncidenceGraph) -> list:
    """All (u, component) pairs whose component properly contains no other
    good component's vertex set."""
    return [(u, comp) for u, comp, minimal in _flagged_good_components(G) if minimal]


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(G: IncidenceGraph) -> str:
    """DOT rendering: black vertices filled, white unfilled, deterministic order."""
    lines = ["graph {"]
    for v in sorted(G.black):
        lines.append(f"  {_quote(v)} [style=filled, fillcolor=black, fontcolor=white];")
    for w in sorted(G.white):
        lines.append(f"  {_quote(w)};")
    for v, w in sorted(G.edges):
        lines.append(f"  {_quote(v)} -- {_quote(w)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
