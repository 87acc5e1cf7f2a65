"""Incidence graphs, connectivity transfer, twins, and good components."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import frozen_parts, naive_separation
from clutters import core, graphview
from clutters.core import contract, delete, find_separation, is_connected, new_clutter
from clutters.enumeration import enumerate_clutters, verify_theorem
from clutters.errors import NoTwin, NotBlack, NotMinimal, VertexNotFound
from clutters.graphview import (
    BLACK,
    WHITE,
    components,
    contract_twin,
    delete_closed_neighbourhood,
    good_components,
    graph_connected,
    graph_connected_iff_clutter_connected,
    incidence_graph,
    minimal_black_vertices,
    minimal_good_components,
    neighbourhood,
    remove_black_vertex,
    to_dot,
    twins,
    vertex_sort_key,
)
from clutters.matroid import circuits_clutter, uniform

F = frozenset


def C(ground, *rows):
    return new_clutter(ground, rows)


PATH = C("123", "12", "23")


class TestIncidenceGraph:
    def test_single_row(self):
        G = incidence_graph(C("12", "12"))
        assert G.black == F("12")
        assert G.white == F({"r:1,2"})
        assert G.edges == F({("1", "r:1,2"), ("2", "r:1,2")})

    def test_empty_row_is_isolated_white(self):
        G = incidence_graph(new_clutter("1", [[]]))
        assert G.black == F("1")
        assert G.white == F({"r:-"})
        assert G.edges == F()

    def test_empty_clutter(self):
        G = incidence_graph(C(""))
        assert G.black == G.white == G.edges == F()

    def test_white_neighbourhoods_form_antichain(self):
        for M in enumerate_clutters(3):
            G = incidence_graph(M)
            adj = {
                w: F(v for v, w2 in G.edges if w2 == w) for w in G.white
            }
            for u in G.white:
                for w in G.white:
                    if u != w:
                        assert not adj[u] <= adj[w]


class TestComponents:
    def test_two_parts(self):
        G = incidence_graph(C("12", "1", "2"))
        assert components(G) == [
            F({(BLACK, "1"), (WHITE, "r:1")}),
            F({(BLACK, "2"), (WHITE, "r:2")}),
        ]

    def test_one_part(self):
        assert len(components(incidence_graph(C("12", "12")))) == 1

    def test_empty_graph(self):
        assert components(incidence_graph(C(""))) == []

    def test_deterministic_part_order(self):
        G = incidence_graph(C("123"))
        assert components(G) == [
            F({(BLACK, "1")}),
            F({(BLACK, "2")}),
            F({(BLACK, "3")}),
        ]


class TestVertexSortKey:
    def test_by_name_then_black_before_white(self):
        # a label never starts with 'r:', so graphs of clutters never tie on
        # a name; the key still orders a tie, black first
        vertices = [(WHITE, "b"), (BLACK, "b"), (WHITE, "a"), (BLACK, "c")]
        assert sorted(vertices, key=vertex_sort_key) == [
            (WHITE, "a"),
            (BLACK, "b"),
            (WHITE, "b"),
            (BLACK, "c"),
        ]


def scan_open(G, vertex):
    """Open neighbourhood of a tagged vertex by a scan of the edge set."""
    kind, name = vertex
    if kind == BLACK:
        return F((WHITE, w) for v, w in G.edges if v == name)
    return F((BLACK, v) for v, w in G.edges if w == name)


def scan_components(G):
    """Components by merging the parts of each edge's two ends, ordered by
    each part's least vertex."""
    parts = [F({(BLACK, v)}) for v in G.black] + [F({(WHITE, w)}) for w in G.white]
    for v, w in G.edges:
        ends = [p for p in parts if (BLACK, v) in p or (WHITE, w) in p]
        parts = [p for p in parts if p not in ends] + [F().union(*ends)]
    return sorted(parts, key=lambda p: vertex_sort_key(min(p, key=vertex_sort_key)))


def scan_remove_black(G, v):
    """The graph of the rows of G less v, each row read by an edge scan, or
    None where two of them become one."""
    rows = [F(u for _, u in scan_open(G, (WHITE, w))) - {v} for w in G.white]
    if len(set(rows)) < len(rows):
        return None
    return incidence_graph(core.Clutter(G.black - {v}, F(rows)))


class TestComponentsSampled:
    """components against the scan_components oracle on larger graphs, and on
    the graphs derived from them, which have isolated vertices of both colours."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sampled(self, data):
        n = data.draw(st.integers(min_value=0, max_value=12), label="n")
        labels = [str(i + 1) for i in range(n)]  # "10" sorts before "2"
        row = st.frozensets(st.sampled_from(labels), max_size=5) if labels else st.just(F())
        drawn = set(data.draw(st.lists(row, max_size=16), label="rows"))
        rows = [A for A in drawn if not any(B < A for B in drawn)]
        G = incidence_graph(new_clutter(labels, rows))
        assert components(G) == scan_components(G)
        for v in sorted(G.black):
            derived = delete_closed_neighbourhood(G, v)
            assert components(derived) == scan_components(derived)
            try:
                derived = remove_black_vertex(G, v)
            except ValueError:  # two whites would merge
                continue
            assert components(derived) == scan_components(derived)


class TestOneConnectivityRoutine:
    """Clutter connectivity and incidence-graph connectivity both come from
    core._parts; graphview has no traversal of its own."""

    ASKS = {
        "components": lambda: components(incidence_graph(PATH)),
        "graph_connected": lambda: graph_connected(incidence_graph(PATH)),
        "good_components": lambda: good_components(incidence_graph(PATH), "1"),
        "is_connected": lambda: is_connected(PATH),
        "find_separation": lambda: find_separation(PATH),
    }

    @pytest.mark.parametrize("name", ASKS)
    def test_reaches_parts(self, monkeypatch, name):
        calls = []
        real = core._parts

        def counted(vertices, edges):
            calls.append(vertices)
            return real(vertices, edges)

        monkeypatch.setattr(core, "_parts", counted)
        self.ASKS[name]()
        assert calls


class TestOneSpanningTest:
    """Clutter connectivity, incidence-graph connectivity and the theorem
    verifier's memo all answer "connected?" with core._spans."""

    ASKS = {
        "graph_connected": lambda: graph_connected(incidence_graph(PATH)),
        "is_connected": lambda: is_connected(PATH),
        "verify_theorem": lambda: verify_theorem(3),
    }

    @pytest.mark.parametrize("name", ASKS)
    def test_reaches_spans(self, monkeypatch, name):
        calls = []
        real = core._spans

        def counted(vertices, edges):
            calls.append(vertices)
            return real(vertices, edges)

        monkeypatch.setattr(core, "_spans", counted)
        self.ASKS[name]()
        assert calls


class TestPartsStopAtSpanningMerge:
    """core._parts reads no edge after the merge that leaves one part
    holding every vertex, and its answers stay those of the oracles."""

    def test_dense_clutter_reads_few_rows(self):
        M = circuits_clutter(uniform(3, 11))
        rows = sorted(M.rows, key=core.row_sort_key)  # a fixed order, not hash order
        read = []

        def counted():
            for A in rows:
                read.append(A)
                yield A

        part = core._parts(M.ground, counted())
        assert frozen_parts(part) == {M.ground}
        assert len(rows) == 330
        assert len(read) < 20

    # {4, 5} joins {1, 2, 3, 4} to {5, 6}: listed last, it makes the spanning merge
    EDGES = [F("12"), F("34"), F("56"), F("23"), F("45")]

    def test_spanning_merge_on_the_last_edge(self):
        ground = F("123456")
        for order in itertools.permutations(self.EDGES):
            assert frozen_parts(core._parts(ground, order)) == {ground}
        M = new_clutter(ground, self.EDGES)
        assert is_connected(M)
        assert find_separation(M) is None
        assert naive_separation(M) is None
        G = incidence_graph(M)
        # the graph's edges row by row, on the plain names that components
        # passes: the last edge joins 5 and 6 to the part of 1, 2, 3, 4 and
        # the white vertex of {4, 5}, so it makes the spanning merge
        edges = [(v, graphview.row_key(A)) for A in self.EDGES for v in sorted(A)]
        assert set(edges) == G.edges
        vertices = G.black | G.white
        assert not core._spans(vertices, edges[:-1])
        part = core._parts(vertices, edges)
        assert frozen_parts(part) == {F(x for _, x in p) for p in scan_components(G)}
        assert components(G) == scan_components(G)

    def test_no_spanning_merge_with_an_element_in_no_row(self):
        M = new_clutter("1234567", self.EDGES)
        assert not is_connected(M)
        assert find_separation(M) == naive_separation(M)
        G = incidence_graph(M)
        assert components(G) == scan_components(G)


class TestGraphReadsItsEdges:
    def test_primitives_leave_a_plain_value(self):
        used = incidence_graph(PATH)
        for x in [(BLACK, v) for v in used.black] + [(WHITE, w) for w in used.white]:
            neighbourhood(used, x)
        components(used)
        graph_connected(used)
        minimal_black_vertices(used)
        minimal_good_components(used)
        to_dot(used)
        for v in sorted(used.black):
            delete_closed_neighbourhood(used, v)
            remove_black_vertex(used, v)
            twins(used, v)
        good_components(used, "1")
        fresh = incidence_graph(PATH)
        assert not hasattr(used, "__dict__")
        assert used == fresh
        assert hash(used) == hash(fresh)

    def test_agrees_with_edge_scans_everywhere(self):
        for n in range(5):
            for M in enumerate_clutters(n):
                G = incidence_graph(M)
                vertices = [(BLACK, v) for v in G.black] + [(WHITE, w) for w in G.white]
                for x in vertices:
                    nb = neighbourhood(G, x)
                    assert nb.open == scan_open(G, x)
                    assert nb.closed == scan_open(G, x) | {x}
                for v in G.black:
                    mine = scan_open(G, (BLACK, v))
                    assert twins(G, v) == F(
                        u for u in G.black if u != v and scan_open(G, (BLACK, u)) == mine
                    )
                assert minimal_black_vertices(G) == F(
                    v
                    for v in G.black
                    if not any(
                        scan_open(G, (BLACK, u)) < scan_open(G, (BLACK, v))
                        for u in G.black
                    )
                )
                assert components(G) == scan_components(G)
                assert graph_connected(G) == (len(scan_components(G)) <= 1)
                for v in G.black:
                    expected = scan_remove_black(G, v)
                    if expected is None:
                        with pytest.raises(ValueError):
                            remove_black_vertex(G, v)
                    else:
                        assert remove_black_vertex(G, v) == expected


class TestConnectivityEquivalence:
    def test_exceptional_clutter(self):
        M = new_clutter("1", [[]])
        assert is_connected(M)
        assert not graph_connected(incidence_graph(M))
        assert graph_connected_iff_clutter_connected(M)

    def test_both_connected(self):
        assert graph_connected_iff_clutter_connected(PATH)

    def test_both_disconnected(self):
        assert graph_connected_iff_clutter_connected(C("12", "1", "2"))

    def test_holds_everywhere(self):
        for n in range(5):
            for M in enumerate_clutters(n):
                assert graph_connected_iff_clutter_connected(M)


class TestNeighbourhood:
    def test_black_center(self):
        nb = neighbourhood(incidence_graph(PATH), (BLACK, "2"))
        assert nb.open == F({(WHITE, "r:1,2"), (WHITE, "r:2,3")})
        assert nb.closed == nb.open | {(BLACK, "2")}

    def test_white_center(self):
        nb = neighbourhood(incidence_graph(PATH), (WHITE, "r:1,2"))
        assert nb.open == F({(BLACK, "1"), (BLACK, "2")})

    def test_unknown_vertex(self):
        with pytest.raises(VertexNotFound):
            neighbourhood(incidence_graph(PATH), (BLACK, "9"))

    @pytest.mark.parametrize(
        "vertex",
        [
            ("grey", "2"),
            (BLACK, "r:1,2"),
            (WHITE, "2"),
            (BLACK, "1", "x"),
            [BLACK, "1"],
            (BLACK, ["1"]),
        ],
        ids=[
            "wrong-tag",
            "white-name-as-black",
            "black-name-as-white",
            "not-a-pair",
            "unhashable-list",
            "unhashable-name",
        ],
    )
    def test_malformed_vertex(self, vertex):
        with pytest.raises(VertexNotFound):
            neighbourhood(incidence_graph(PATH), vertex)


class TestDeleteClosedNeighbourhood:
    def test_cut_vertex(self):
        G = delete_closed_neighbourhood(incidence_graph(PATH), "2")
        assert G.black == F("13")
        assert G.white == F()
        assert G.edges == F()

    def test_leaves_untouched_whites(self):
        G = delete_closed_neighbourhood(incidence_graph(C("12", "12")), "1")
        assert G.black == F("2") and G.white == F()

    def test_degree_zero_vertex(self):
        G0 = incidence_graph(C("12", "2"))
        G = delete_closed_neighbourhood(G0, "1")
        assert G == incidence_graph(C("2", "2"))

    def test_matches_clutter_deletion_everywhere(self):
        for n in range(4):
            for M in enumerate_clutters(n):
                G = incidence_graph(M)
                for v in sorted(M.ground):
                    assert incidence_graph(delete(M, v)) == delete_closed_neighbourhood(G, v)


@pytest.mark.parametrize(
    "operation", [delete_closed_neighbourhood, remove_black_vertex, twins, good_components]
)
class TestBlackVertexRequired:
    def test_white_vertex_rejected(self, operation):
        with pytest.raises(NotBlack):
            operation(incidence_graph(C("12", "12")), "r:1,2")

    def test_unknown_vertex(self, operation):
        with pytest.raises(VertexNotFound):
            operation(incidence_graph(C("12", "12")), "9")


class TestTwins:
    def test_pair(self):
        assert twins(incidence_graph(C("12", "12")), "1") == F("2")

    def test_no_twin_on_path(self):
        assert twins(incidence_graph(PATH), "2") == F()

    def test_triple(self):
        assert twins(incidence_graph(C("123", "123")), "1") == F("23")

    def test_symmetric_and_transitive(self):
        for M in enumerate_clutters(3):
            G = incidence_graph(M)
            mates = {v: twins(G, v) for v in sorted(M.ground)}
            for v, vs in mates.items():
                for u in vs:
                    assert v in mates[u]
                    for w in mates[u]:
                        if w != v:
                            assert w in mates[v]


class TestContractTwin:
    def test_pair(self):
        assert contract_twin(C("12", "12"), "1") == C("2", "2")

    def test_triple(self):
        assert contract_twin(C("123", "123"), "3") == C("12", "12")

    def test_triangle_has_no_twins(self):
        M = C("123", "12", "13", "23")
        for v in sorted(M.ground):
            with pytest.raises(NoTwin):
                contract_twin(M, v)

    def test_graph_equality_and_connectivity_everywhere(self):
        for n in range(5):
            for M in enumerate_clutters(n):
                if not is_connected(M):
                    continue
                G = incidence_graph(M)
                for v in sorted(M.ground):
                    if twins(G, v):
                        out = contract_twin(M, v)
                        assert out == contract(M, v)
                        assert incidence_graph(out) == remove_black_vertex(G, v)
                        assert is_connected(out)


class TestMinimalBlackVertices:
    def test_path_endpoints(self):
        assert minimal_black_vertices(incidence_graph(PATH)) == F("13")

    def test_equal_neighbourhoods_all_minimal(self):
        assert minimal_black_vertices(incidence_graph(C("12", "12"))) == F("12")

    def test_isolated_vertex_is_minimal(self):
        assert "1" in minimal_black_vertices(incidence_graph(C("12", "2")))


class TestGoodComponents:
    def test_path_endpoint(self):
        G = incidence_graph(PATH)
        assert good_components(G, "1") == [
            F({(BLACK, "2"), (BLACK, "3"), (WHITE, "r:2,3")})
        ]

    def test_matching(self):
        G = incidence_graph(C("12", "1", "2"))
        assert good_components(G, "1") == [F({(BLACK, "2"), (WHITE, "r:2")})]

    def test_star(self):
        G = incidence_graph(C("c12", "c1", "c2"))
        assert good_components(G, "1") == [
            F({(BLACK, "2"), (BLACK, "c"), (WHITE, "r:2,c")})
        ]

    def test_non_minimal_vertex_rejected(self):
        with pytest.raises(NotMinimal):
            good_components(incidence_graph(PATH), "2")


class TestMinimalGoodComponents:
    def test_matching_all_minimal(self):
        G = incidence_graph(C("12", "1", "2"))
        assert minimal_good_components(G) == [
            ("1", F({(BLACK, "2"), (WHITE, "r:2")})),
            ("2", F({(BLACK, "1"), (WHITE, "r:1")})),
        ]

    def test_empty_clutter(self):
        assert minimal_good_components(incidence_graph(C(""))) == []

    def test_flagged_sets_contain_no_smaller_good_component(self):
        for M in enumerate_clutters(3):
            G = incidence_graph(M)
            every = [
                comp
                for u in sorted(minimal_black_vertices(G))
                for comp in good_components(G, u)
            ]
            for _, comp in minimal_good_components(G):
                assert not any(other < comp for other in every)


class TestRemoveBlackVertex:
    def test_rekeys_whites(self):
        G = remove_black_vertex(incidence_graph(C("12", "12")), "1")
        assert G == incidence_graph(C("2", "2"))

    def test_collision_rejected(self):
        # removing 1 would merge rows {1,2} and {2}
        G = incidence_graph(C("12", "2"))
        G = graphview.IncidenceGraph(
            G.black, G.white | F({"r:1,2"}), G.edges | F({("1", "r:1,2"), ("2", "r:1,2")})
        )
        with pytest.raises(ValueError):
            remove_black_vertex(G, "1")


class TestToDot:
    def test_empty(self):
        assert to_dot(incidence_graph(C(""))) == "graph {\n}\n"

    def test_isolated_pair(self):
        assert to_dot(incidence_graph(new_clutter("1", [[]]))) == (
            "graph {\n"
            '  "1" [style=filled, fillcolor=black, fontcolor=white];\n'
            '  "r:-";\n'
            "}\n"
        )

    def test_single_edge_pair(self):
        assert to_dot(incidence_graph(C("12", "12"))) == (
            "graph {\n"
            '  "1" [style=filled, fillcolor=black, fontcolor=white];\n'
            '  "2" [style=filled, fillcolor=black, fontcolor=white];\n'
            '  "r:1,2";\n'
            '  "1" -- "r:1,2";\n'
            '  "2" -- "r:1,2";\n'
            "}\n"
        )
