"""Splitter steps, chains, and counterexample forensics."""

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clutters import graphview, minor, splitter
from clutters.core import (
    Clutter,
    MinorSpec,
    apply_minor,
    canonical_serialize,
    contract,
    delete,
    is_connected,
    new_clutter,
)
from clutters.enumeration import (
    connected_proper_minors,
    enumerate_clutters,
    enumerate_connected,
)
from clutters.errors import ClutterError, PreconditionViolation, TheoremCounterexample
from clutters.graphview import incidence_graph, minimal_black_vertices
from clutters.matroid import circuits_clutter, uniform
from clutters.minor import all_minors, has_minor, is_proper_minor
from clutters.splitter import (
    SplitterStep,
    candidate_elements,
    chain,
    chain_to_empty,
    counterexample_report,
    find_splitter,
    format_chain,
    format_step,
)
from helpers import (
    all_subsets,
    connected_rows,
    naive_candidate_elements,
    naive_chain_steps,
    naive_separation,
)

F = frozenset


def C(ground, *rows):
    return new_clutter(ground, rows)


TRIANGLE = C("123", "12", "13", "23")


def plain_search(M, N):
    """Reference search in plain ascending order; success oracle only."""
    for v in sorted(M.ground - N.ground):
        for op, fn in (("delete", delete), ("contract", contract)):
            result = fn(M, v)
            if is_connected(result) and has_minor(result, N) is not None:
                return v, op
    return None


class TestFindSplitter:
    def test_delete_witness(self):
        step = find_splitter(TRIANGLE, C("12", "12"))
        assert (step.element, step.op) == ("3", "delete")
        assert step.result == C("12", "12")

    def test_to_empty_from_single_row(self):
        step = find_splitter(C("12", "12"), C(""))
        assert (step.element, step.op) == ("1", "delete")
        assert step.result == C("2")

    def test_disconnected_target_rejected(self):
        # {1},{2} admits the separation ({1},{2}), so it fails the preconditions
        with pytest.raises(PreconditionViolation, match="^N is not connected$"):
            find_splitter(TRIANGLE, C("12", "1", "2"))

    def test_disconnected_source_rejected(self):
        with pytest.raises(PreconditionViolation, match="^M is not connected$"):
            find_splitter(C("12", "1", "2"), C(""))

    def test_equal_clutters_rejected(self):
        with pytest.raises(PreconditionViolation, match="^N is not a proper minor of M$"):
            find_splitter(TRIANGLE, TRIANGLE)

    def test_non_minor_rejected(self):
        with pytest.raises(PreconditionViolation):
            find_splitter(TRIANGLE, C("12", "1"))
        with pytest.raises(PreconditionViolation, match="^N is not a proper minor of M$"):
            find_splitter(TRIANGLE, C("4", "4"))

    def test_step_invariants(self):
        step = find_splitter(TRIANGLE, C(""))
        assert is_connected(step.result)
        assert has_minor(step.result, C("")) is not None

    def test_known_counterexample_path(self):
        # both removals from the path either disconnect or lose the minor
        M = C("123", "12", "23")
        N = new_clutter("3", [[]])
        assert is_connected(M) and is_connected(N) and is_proper_minor(M, N)
        with pytest.raises(TheoremCounterexample) as info:
            find_splitter(M, N)
        assert info.value.M == M and info.value.N == N

    def test_known_counterexample_wheel(self):
        M = C("1234", "123", "14", "24", "34")
        N = new_clutter("4", [[]])
        assert is_connected(M) and is_connected(N) and is_proper_minor(M, N)
        with pytest.raises(TheoremCounterexample):
            find_splitter(M, N)

    def test_guided_order_matches_plain_order_success(self):
        for n in range(4):
            for M in enumerate_clutters(n):
                if not is_connected(M):
                    continue
                targets = set()
                from clutters.minor import all_minors

                for _, N in all_minors(M):
                    if N.ground < M.ground and is_connected(N):
                        targets.add(N)
                for N in targets:
                    expected = plain_search(M, N) is not None
                    try:
                        step = find_splitter(M, N)
                        got = True
                        assert is_connected(step.result)
                        assert has_minor(step.result, N) is not None
                    except TheoremCounterexample:
                        got = False
                    assert got == expected


class TestChain:
    def test_equal_clutters_give_empty_chain(self):
        out = chain(TRIANGLE, TRIANGLE)
        assert out.steps == ()
        assert out.final == TRIANGLE

    def test_three_steps_to_empty(self):
        out = chain(TRIANGLE, C(""))
        assert len(out.steps) == 3
        assert out.final == C("")
        for step in out.steps:
            assert is_connected(step.result)

    def test_one_step(self):
        out = chain(TRIANGLE, C("12", "12"))
        assert len(out.steps) == 1

    def test_each_step_removes_one_element(self):
        out = chain(TRIANGLE, C(""))
        sizes = [len(TRIANGLE.ground)] + [len(s.result.ground) for s in out.steps]
        assert sizes == [3, 2, 1, 0]

    def test_disconnected_input_rejected(self):
        with pytest.raises(PreconditionViolation, match="^M is not connected$"):
            chain(C("12", "1", "2"), C(""))
        with pytest.raises(PreconditionViolation, match="^N is not connected$"):
            chain(TRIANGLE, C("12", "1", "2"))

    def test_non_minor_rejected(self):
        with pytest.raises(PreconditionViolation, match="^N is not a minor of M$"):
            chain(C("123", "12", "23"), TRIANGLE)

    def test_counterexample_carries_the_failing_pair(self):
        M = C("123", "12", "23")
        N = new_clutter("3", [[]])
        with pytest.raises(TheoremCounterexample) as info:
            chain(M, N)
        assert (info.value.M, info.value.N) == (M, N)


class TestChainToEmpty:
    def test_single_element(self):
        out = chain_to_empty(C("1", "1"))
        assert [(s.element, s.op) for s in out.steps] == [("1", "delete")]
        assert out.final == C("")

    def test_sole_empty_row_targets_empty_ground_variant(self):
        # the empty row never disappears, so the chain ends at ({},{()})
        out = chain_to_empty(new_clutter("1", [[]]))
        assert len(out.steps) == 1
        assert out.final == new_clutter("", [[]])

    def test_two_steps(self):
        out = chain_to_empty(C("12", "12"))
        assert len(out.steps) == 2
        assert all(is_connected(s.result) for s in out.steps)

    def test_empty_ground_rejected(self):
        with pytest.raises(PreconditionViolation, match="^ground set is already empty$"):
            chain_to_empty(C(""))

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionViolation, match="^M is not connected$"):
            chain_to_empty(C("123", "12"))

    def test_all_connected_small_clutters(self):
        for n in range(1, 4):
            for M in enumerate_clutters(n):
                if not is_connected(M):
                    continue
                out = chain_to_empty(M)
                assert len(out.steps) == n
                assert not out.final.ground
                assert all(is_connected(s.result) for s in out.steps)


class TestNegativeControl:
    def test_cut_vertex_breaks_both_operations(self):
        M = new_clutter("avb", [["a", "v"], ["v", "b"]])
        assert is_connected(M)
        assert not is_connected(delete(M, "v"))
        assert not is_connected(contract(M, "v"))


class TestFormatting:
    def test_step_format(self):
        step = SplitterStep("3", "delete", C("12", "12"))
        assert format_step(step) == "delete 3\n  elements 1 2\n  row 1 2\n"

    def test_chain_format(self):
        out = chain_to_empty(C("12", "12"))
        assert format_chain(out) == "delete 1\n  elements 2\ndelete 2\n  elements\n"


class TestCounterexampleReport:
    def test_lists_all_candidates_for_forced_failure(self):
        # the report renders any pair, even a disconnected M find_splitter rejects
        M = C("1234", "12", "34")
        N = C("12", "12")
        report = counterexample_report(M, N)
        for token in ["delete 3", "contract 3", "delete 4", "contract 4"]:
            assert token in report

    def test_includes_graph_analysis(self):
        M = C("123", "12", "23")
        N = new_clutter("3", [[]])
        report = counterexample_report(M, N)
        minimal = " ".join(sorted(minimal_black_vertices(incidence_graph(M))))
        assert f"minimal black vertices: {minimal}" in report
        assert "good components:" in report

    def test_real_counterexample_is_fully_blocked(self):
        M = C("123", "12", "23")
        N = new_clutter("3", [[]])
        report = counterexample_report(M, N)
        assert ": works" not in report
        assert report.count("disconnected") + report.count("not a minor") >= 4

    def test_candidates_listed_in_ascending_order(self):
        # the search tries c first (a minimal black vertex), the report lists
        # elements ascending, delete before contract
        M = C("abcde", "ce", "abd", "abe")
        N = C("bd", "bd")
        assert candidate_elements(M, N) == ["c", "a", "e"]
        assert counterexample_report(M, N) == (
            "splitter search failed: every candidate fails\n"
            "\n"
            "M:\n"
            "  elements a b c d e\n"
            "  row c e\n"
            "  row a b d\n"
            "  row a b e\n"
            "N:\n"
            "  elements b d\n"
            "  row b d\n"
            "\n"
            "candidates:\n"
            "  delete a: result disconnected; target not a minor of result\n"
            "  contract a: works\n"
            "  delete c: works\n"
            "  contract c: result disconnected\n"
            "  delete e: result disconnected\n"
            "  contract e: result disconnected; target not a minor of result\n"
            "\n"
            "incidence graph analysis of M:\n"
            "  minimal black vertices: c d\n"
            "  twins of a: b\n"
            "  twins of b: a\n"
            "  good components:\n"
            "    u=c: {a b d e r:a,b,d r:a,b,e} (minimal)\n"
            "    u=d: {a b c e r:a,b,e r:c,e} (minimal)\n"
        )

    def test_target_not_a_minor(self):
        # no witness to hand on: every attempt gets the minor test
        M, N = C("123", "12", "23"), C("13", "13")
        assert has_minor(M, N) is None
        assert counterexample_report(M, N) == (
            "splitter search failed: every candidate fails\n"
            "\n"
            "M:\n"
            "  elements 1 2 3\n"
            "  row 1 2\n"
            "  row 2 3\n"
            "N:\n"
            "  elements 1 3\n"
            "  row 1 3\n"
            "\n"
            "candidates:\n"
            "  delete 2: result disconnected; target not a minor of result\n"
            "  contract 2: result disconnected; target not a minor of result\n"
            "\n"
            "incidence graph analysis of M:\n"
            "  minimal black vertices: 1 3\n"
            "  twins: none\n"
            "  good components:\n"
            "    u=1: {2 3 r:2,3} (minimal)\n"
            "    u=3: {1 2 r:1,2} (minimal)\n"
        )

    def test_no_candidates(self):
        report = counterexample_report(TRIANGLE, TRIANGLE)
        assert "candidates:\n  (none)\n\n" in report


class TestCandidateOrder:
    """candidate_elements ranks by row membership; the incidence-graph
    ranking is its oracle."""

    def test_every_target_ground_exhaustive(self):
        checked = 0
        for n in range(5):
            for M in enumerate_clutters(n):
                for keep in all_subsets(M.ground):
                    N = new_clutter(keep, [])
                    assert candidate_elements(M, N) == naive_candidate_elements(M, N), M
                    checked += 1
        assert checked == 2 * 1 + 3 * 2 + 6 * 4 + 20 * 8 + 168 * 16

    def test_empty_target_ground_n5_exhaustive(self):
        N = C("")
        checked = 0
        for M in enumerate_clutters(5):
            assert candidate_elements(M, N) == naive_candidate_elements(M, N), M
            checked += 1
        assert checked == 7581

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sampled(self, data):
        n = data.draw(st.integers(min_value=0, max_value=12), label="n")
        labels = [str(i + 1) for i in range(n)]  # "10" sorts before "2"
        shape = data.draw(st.sampled_from(["random", "uniform", "twins"]), label="shape")
        if shape == "uniform":
            r = data.draw(st.integers(min_value=0, max_value=n), label="r")
            M = circuits_clutter(uniform(r, n, labels))
        else:
            row = st.frozensets(st.sampled_from(labels), max_size=5) if labels else st.just(F())
            drawn = set(data.draw(st.lists(row, max_size=16), label="rows"))
            rows = [A for A in drawn if not any(B < A for B in drawn)]
            if shape == "twins" and n:
                # each new label joins exactly the rows of a drawn old one, so
                # the two are twins; the rows stay an antichain
                mates = data.draw(st.lists(st.sampled_from(labels), max_size=4), label="mates")
                for i, v in enumerate(mates):
                    w = f"t{i}"
                    labels = labels + [w]
                    rows = [A | {w} if v in A else A for A in rows]
            M = new_clutter(labels, rows)
        pool = st.sampled_from(sorted(M.ground)) if M.ground else st.nothing()
        N = new_clutter(data.draw(st.frozensets(pool), label="keep"), [])
        assert candidate_elements(M, N) == naive_candidate_elements(M, N)


def wide_pair(data):
    """A connected clutter M on 6 to 11 elements, in the uniform, random or
    twins shape, and a connected minor N of M under a random mixed spec."""
    n = data.draw(st.integers(min_value=6, max_value=11), label="n")
    shape = data.draw(st.sampled_from(["random", "uniform", "twins"]), label="shape")
    k = data.draw(st.integers(min_value=1, max_value=3), label="k") if shape == "twins" else 0
    labels = [str(i + 1) for i in range(n - k)]  # "10" sorts before "2"
    if shape == "uniform":
        r = data.draw(st.integers(min_value=1, max_value=n - 1), label="r")
        M = circuits_clutter(uniform(r, n, labels))
    else:
        row = st.frozensets(st.sampled_from(labels), min_size=1, max_size=5)
        drawn = set(data.draw(st.lists(row, max_size=16), label="rows"))
        M = connected_rows(labels, [A for A in drawn if not any(B < A for B in drawn)])
        # each new label joins exactly the rows of a drawn old one, so the two
        # are twins, and M stays a connected antichain
        mates = data.draw(st.lists(st.sampled_from(labels), min_size=k, max_size=k))
        for i, v in enumerate(mates):
            rows = [A | {f"t{i}"} if v in A else A for A in M.rows]
            M = new_clutter(sorted(M.ground) + [f"t{i}"], rows)
    assert is_connected(M) and len(M.ground) == n
    ops = data.draw(st.lists(st.sampled_from("kkkdc"), min_size=n, max_size=n), label="ops")
    spec = {op: F(v for v, o in zip(sorted(M.ground), ops) if o == op) for op in "kdc"}
    N = apply_minor(M, MinorSpec(spec["d"], spec["c"]))
    # delete the smaller side of a separation until N is connected
    while (sep := naive_separation(N)) is not None:
        for v in min(sep.right, sep.left, key=len):
            N = delete(N, v)
    return M, N


STUCK = "TheoremCounterexample: no single-element removal preserves connectivity and the minor"


def naive_text(M, N, limit=None):
    """naive_chain_steps as outcome renders the library's answer."""
    try:
        return "".join(naive_chain_steps(M, N, limit))
    except StopIteration:
        return STUCK


class TestWideGrounds:
    """The splitter search against the incidence-graph oracle on grounds
    beyond the exhaustive pins."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_search_matches_naive(self, data):
        M, N = wide_pair(data)
        assert candidate_elements(M, N) == naive_candidate_elements(M, N)
        assert outcome(lambda: chain(M, N), format_chain) == naive_text(M, N)
        if N != M:
            assert outcome(lambda: find_splitter(M, N), format_step) == naive_text(M, N, 1)
        assert outcome(lambda: chain_to_empty(M), format_chain) == naive_text(M, C(""))


class TestNoIncidenceGraph:
    """Splitter steps and chains rank candidates without building an
    incidence graph; only the counterexample report analyses one."""

    U39 = circuits_clutter(uniform(3, 9, [f"e{i}" for i in range(9)]))

    def test_steps_and_chains(self, monkeypatch):
        def refuse(M):
            raise AssertionError("incidence_graph called")

        monkeypatch.setattr(graphview, "incidence_graph", refuse)
        M = self.U39
        N = apply_minor(M, MinorSpec(F({"e1", "e4", "e6"}), F({"e2"})))
        step = find_splitter(M, N)
        assert has_minor(step.result, N) is not None
        assert chain(M, N).final == N
        assert chain_to_empty(M).final == C("")

    def test_counterexample_report_analyses_the_graph(self, monkeypatch):
        calls = []
        real = graphview.incidence_graph

        def counted(M):
            calls.append(M)
            return real(M)

        monkeypatch.setattr(graphview, "incidence_graph", counted)
        M = C("abc", "ab", "bc")
        report = counterexample_report(M, new_clutter("c", [[]]))
        assert "minimal black vertices: a c" in report
        assert calls == [M]


class RankPasses(frozenset):
    """Rows that count the passes the candidate ranking makes over them."""

    passes = 0

    def __iter__(self):
        if sys._getframe(1).f_code is splitter._ranked.__code__:
            RankPasses.passes += 1
        return super().__iter__()


class ReadRows(frozenset):
    """Rows handed out in a fixed order that count how many are read."""

    def __new__(cls, rows):
        self = super().__new__(cls, rows)
        self.order, self.read = list(rows), 0
        return self

    def __iter__(self):
        for A in self.order:
            self.read += 1
            yield A


class TestStepWork:
    def test_ranking_stops_once_every_other_element_is_outside(self):
        # the first row read avoids 1 and holds 2, 3 and 4, so no element
        # has its rows inside 1's: 1 is minimal, and no further row is read
        rows = ReadRows([F("234"), F("12"), F("13"), F("14")])
        M = Clutter(F("1234"), rows)
        assert next(splitter._ranked(M, C(""))) == "1"
        assert rows.read == 1

    def test_disconnected_candidate_gets_no_minor_test(self, monkeypatch):
        calls, real = [], minor.has_minor
        monkeypatch.setattr(minor, "has_minor", lambda M, N: calls.append(M) or real(M, N))
        M, N = C("123", "123"), C("12", "12")
        step = find_splitter(M, N)
        assert (step.element, step.op) == ("3", "contract")
        # only the precondition: the first candidate M\3 = ({1 2}; -) is
        # disconnected, so the search asks nothing more about it, and the
        # precondition's witness contracts 3, so M/3 keeps N by what is left
        assert calls == [M]
        calls.clear()
        report = counterexample_report(M, N)
        assert "delete 3: result disconnected; target not a minor of result" in report
        assert delete(M, "3") in calls

    U39 = TestNoIncidenceGraph.U39

    def test_chain_to_empty_searches_only_for_contractions(self, monkeypatch):
        # the precondition's witness deletes every element, so each deletion
        # step is answered by what is left of it; a contraction step is not,
        # and gets one search, whose witness then answers the deletions after
        calls, real = [], minor.has_minor
        monkeypatch.setattr(minor, "has_minor", lambda M, N: calls.append(M) or real(M, N))
        out = chain_to_empty(self.U39)
        assert [s.op for s in out.steps] == ["delete"] * 5 + ["contract"] * 2 + ["delete"] * 2
        assert calls == [self.U39, out.steps[5].result, out.steps[6].result]

    @pytest.mark.parametrize("target", ["empty", "minor"])
    def test_steps_rank_one_element_and_hand_on_witnesses(self, target):
        M = self.U39
        if target == "empty":
            N = C("")
        else:
            N = apply_minor(M, MinorSpec(F({"e1", "e4", "e6"}), F({"e2"})))
        expected = chain(M, N).steps
        spec = has_minor(M, N)
        for want in expected:
            RankPasses.passes = 0
            step, spec = splitter._step(Clutter(M.ground, RankPasses(M.rows)), N, spec)
            assert step == want
            # every candidate of a uniform clutter is minimal, so the step
            # classes the one it tries and no other
            assert RankPasses.passes == 1
            assert apply_minor(step.result, spec) == N
            M = step.result
        assert M == N


# sha256 values taken from the implementation that ranked candidates with
# three filtered lists and flagged good components through an any_comp loop
REPORT_SHA256 = "36fccd95d3503748fb2b0cf19704abd6b755773940a498acdd0b26542a159eb3"
SEARCH_SHA256 = "55548ca48a74b5a59a2e2af5c3ab754e3550435791e1ba3e357a1dd064ed0930"


def outcome(call, render):
    """render(call()), or the domain error it raises as 'type: message'."""
    try:
        return render(call())
    except ClutterError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestPinnedOutputs:
    def test_report_text_pinned(self):
        digest = hashlib.sha256()
        pairs = 0
        for n in range(5):
            for M in enumerate_connected(n):
                for N in connected_proper_minors(M):
                    pairs += 1
                    digest.update(counterexample_report(M, N).encode())
        assert pairs == 1877
        assert digest.hexdigest() == REPORT_SHA256

    def test_search_text_pinned(self):
        # candidate order, find_splitter and chain for every distinct minor N
        # of every clutter M, then chain_to_empty on M
        digest = hashlib.sha256()
        pairs = 0
        for n in range(5):
            for M in enumerate_clutters(n):
                for N in dict.fromkeys(N for _, N in all_minors(M)):
                    pairs += 1
                    text = (
                        canonical_serialize(M)
                        + canonical_serialize(N)
                        + " ".join(candidate_elements(M, N))
                        + "\n"
                        + outcome(lambda: find_splitter(M, N), format_step)
                        + "\n"
                        + outcome(lambda: chain(M, N), format_chain)
                        + "\n"
                    )
                    digest.update(text.encode())
                if M.ground:
                    text = outcome(lambda: chain_to_empty(M), format_chain) + "\n"
                    digest.update(text.encode())
        assert pairs == 6643
        assert digest.hexdigest() == SEARCH_SHA256
