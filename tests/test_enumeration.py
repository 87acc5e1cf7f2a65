"""Exhaustive enumeration counts and the verification harness."""

import functools
import gc
import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    connected_rows,
    naive_clutters,
    naive_identity_report,
    naive_splitter_failures,
    predicted_counterexamples,
)
from clutters import core, enumeration, graphview, minor
from clutters.blocker import blocker
from clutters.core import Clutter, canonical_serialize, is_connected, new_clutter
from clutters.enumeration import (
    _Code,
    _connected_minors,
    connected_proper_minors,
    enumerate_clutters,
    enumerate_connected,
    verify_identities,
    verify_theorem,
)
from clutters.errors import TheoremCounterexample, TooLarge
from clutters.minor import all_minors, has_minor
from clutters.splitter import find_splitter

F = frozenset

ANTICHAIN_COUNTS = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}
CONNECTED_COUNTS = {0: 2, 1: 3, 2: 1, 3: 5, 4: 84}


class TestEnumerateClutters:
    @pytest.mark.parametrize("n,count", sorted(ANTICHAIN_COUNTS.items()))
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_clutters(n)) == count

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_naive_family_filter(self, n):
        ground = [str(i + 1) for i in range(n)]
        expected = set(naive_clutters(ground))
        got = list(enumerate_clutters(n))
        assert len(got) == len(expected)
        assert set(got) == expected

    def test_each_exactly_once(self):
        got = list(enumerate_clutters(4))
        assert len(got) == len(set(got))

    def test_includes_degenerates(self):
        got = set(enumerate_clutters(2))
        assert new_clutter("12", []) in got
        assert new_clutter("12", [[]]) in got

    def test_everything_validates(self):
        for M in enumerate_clutters(4):
            assert new_clutter(M.ground, M.rows) == M

    def test_deterministic_order(self):
        assert list(enumerate_clutters(3)) == list(enumerate_clutters(3))

    @pytest.mark.parametrize("n", range(6))
    def test_order_matches_chosen_scan(self, n):
        # element by element: 7581 clutters at n=5
        assert list(enumerate_clutters(n)) == list(helpers.naive_enumerate_clutters(n))

    def test_too_large(self):
        with pytest.raises(TooLarge):
            list(enumerate_clutters(6))


class TestEnumerateConnected:
    @pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_connected(n)) == count

    def test_all_connected(self):
        for M in enumerate_connected(3):
            assert is_connected(M)

    def test_n1_members(self):
        got = set(enumerate_connected(1))
        assert got == {
            new_clutter("1", []),
            new_clutter("1", [[]]),
            new_clutter("1", [["1"]]),
        }


# Exhaustively established by this harness and confirmed by an independent
# brute-force search: the splitter property fails exactly on pairs whose
# target is a single element with one empty row.
THEOREM_FACTS = {
    0: (0, 0),
    1: (4, 0),
    2: (6, 0),
    3: (61, 9),
    4: (1806, 16),
    5: (261321, 25),
}

# sha256 of verify_theorem(n).render() as produced by the per-pair
# find_splitter verifier this one replaced
THEOREM_REPORT_SHA256 = {
    4: "64d64fca54f76c009fe7a286ea4453b3a28ea7e390df31c1afb3a291c50d9544",
    5: "e089372013b223ba1ef1a78d30201067e4f87b9e0262aea30917c1a2bfedf8a9",
}

# sha256 of verify_identities(4).render() as produced when every incidence-graph
# function still scanned the edge set on its own
IDENTITIES_REPORT_SHA256 = "3ef7fdd35a2a086c4318e7491f5b015f541caf99a5223c4e1cb36942f350407d"

# sha256 of verify_identities(n).render() for n<4 as produced by the verifier
# that walked the enumeration once per family
SMALL_IDENTITIES_REPORT_SHA256 = {
    0: "2b634e6ebe94d4eaa1fe95c89feb4ab23916ecdfb499ea14c7e17ba47b598911",
    1: "5707703317b53b3df2d333d5fc79de22a52813bf103573d549837fcc4914c083",
    2: "c98b290e4818ad333bbd4cf4c13b77344f1a1f5f4cd45d8e75107b1a410b0437",
    3: "1ca6aba2524e723c1b4059bc6d8301a911677fcf6b805b5eae1d663217f2fad8",
}


_delete, _contract, _removals = core.delete, core.contract, core._removals
_incidence_graph = graphview.incidence_graph


def delete_keeping_no_empty_row(M, v):
    R = _delete(M, v)
    return Clutter(R.ground, R.rows - {F()})


def removals_keeping_no_empty_row(ground, rows, v):
    (rest, kept), contracted = _removals(ground, rows, v)
    return (rest, kept - {F()}), contracted


def contract_unfiltered_at_last_element(M, v):
    # strips v from every row but keeps the non-minimal results when v is
    # M's largest element, so the order of two contractions starts to matter
    if v != max(M.ground):
        return _contract(M, v)
    return Clutter(M.ground - {v}, F(A - {v} for A in M.rows))


def removals_unfiltered_at_last_element(ground, rows, v):
    deleted, contracted = _removals(ground, rows, v)
    if v == max(ground):
        contracted = (ground - {v}, F(A - {v} for A in rows))
    return deleted, contracted


def graph_without_last_element_edges(M):
    G = _incidence_graph(M)
    last = max(G.black, default=None)
    edges = F(e for e in G.edges if e[0] != last)
    return graphview.IncidenceGraph(G.black, G.white, edges)


def whites_kept_at_last_element(real):
    """The graph primitive real, except that at G's largest black vertex v
    it drops only v's edges and keeps every white vertex as it was: right
    when no row holds v."""

    def fault(G, v):
        if v != max(G.black):
            return real(G, v)
        edges = F(e for e in G.edges if e[0] != v)
        return graphview.IncidenceGraph(G.black - {v}, G.white, edges)

    return fault


def blocker_without_last_row(M):
    b = blocker(M)
    rows = sorted(b.rows, key=core.row_sort_key)
    return Clutter(b.ground, F(rows[:-1]))


# faulty primitives for the identity verifier: each entry is the
# monkeypatch.setattr triples that install the fault, then the families it
# breaks at n=4; the verifier takes M\v and M/v from core._removals and the
# oracle from core.delete and core.contract, and the blocker is bound by name
# in both, so the removal and blocker faults are installed at both bindings
FAULTS = {
    "delete-keeps-no-empty-row": (
        (
            (core, "delete", delete_keeping_no_empty_row),
            (core, "_removals", removals_keeping_no_empty_row),
        ),
        {
            "deletion-contraction-commutativity",
            "duality-swap",
            "deletion-graph-correspondence",
        },
    ),
    "contract-unfiltered-at-last-element": (
        (
            (core, "contract", contract_unfiltered_at_last_element),
            (core, "_removals", removals_unfiltered_at_last_element),
        ),
        {"deletion-contraction-commutativity", "duality-swap"},
    ),
    "graph-drops-last-element": (
        ((graphview, "incidence_graph", graph_without_last_element_edges),),
        {
            "connectivity-equivalence",
            "twin-contraction",
            "deletion-graph-correspondence",
        },
    ),
    "blocker-drops-last-row": (
        (
            (enumeration, "blocker", blocker_without_last_row),
            (helpers, "blocker", blocker_without_last_row),
        ),
        {"blocker-involution", "duality-swap"},
    ),
}


# graph primitives that whites_kept_at_last_element breaks, each mapped to
# the one family it then breaks in part at n=4; outside FAULTS, whose faults
# break two families or more
GRAPH_FAULTS = {
    "delete_closed_neighbourhood": "deletion-graph-correspondence",
    "remove_black_vertex": "twin-contraction",
}


def install(fault, monkeypatch):
    patches, broken = FAULTS[fault]
    for target, name, value in patches:
        monkeypatch.setattr(target, name, value)
    return broken


@functools.lru_cache(maxsize=None)
def theorem_report(n):
    return verify_theorem(n)


def inline(M):
    return canonical_serialize(M).strip().replace("\n", "; ")


def independent_pairs(n):
    """(M, N) for each connected M and distinct connected proper minor N,
    recounted from all_minors without the verifier's walk."""
    for M in enumerate_connected(n):
        distinct = {N for _, N in all_minors(M) if N.ground < M.ground}
        for N in distinct:
            if is_connected(N):
                yield M, N


def first_witness_order(M):
    """M's distinct connected proper minors in all_minors order."""
    order = {}
    for _, N in all_minors(M):
        if N.ground != M.ground and is_connected(N):
            order.setdefault(N, len(order))
    return list(order)


class TestVerifyTheorem:
    @pytest.mark.parametrize("n,facts", sorted(THEOREM_FACTS.items()))
    def test_pair_and_counterexample_counts(self, n, facts):
        tested, failures = facts
        report = theorem_report(n)
        (result,) = report.results
        assert result.tested == tested
        assert result.passed == tested - failures
        assert len(result.counterexamples) == failures

    def test_pair_count_cross_check(self):
        # independent recount of deduplicated connected proper minors
        for n in range(4):
            independent = sum(1 for _ in independent_pairs(n))
            (result,) = verify_theorem(n).results
            assert result.tested == independent

    @pytest.mark.parametrize("n", range(5))
    def test_counterexamples_are_exactly_find_splitter_failures(self, n):
        (result,) = theorem_report(n).results
        reported = set(result.counterexamples)
        expected = set()
        for M, N in independent_pairs(n):
            try:
                find_splitter(M, N)
            except TheoremCounterexample:
                expected.add(f"M=({inline(M)})  N=({inline(N)})")
        assert reported == expected
        assert len(result.counterexamples) == len(reported)

    @pytest.mark.parametrize("n", sorted(THEOREM_REPORT_SHA256))
    def test_report_bytes_pinned(self, n):
        text = theorem_report(n).render()
        assert hashlib.sha256(text.encode()).hexdigest() == THEOREM_REPORT_SHA256[n]

    def test_counterexamples_all_have_empty_row_targets(self):
        for n in (3, 4):
            (result,) = verify_theorem(n).results
            for item in result.counterexamples:
                assert item.endswith("row -)")

    def test_report_bytes_reproducible(self):
        assert verify_theorem(3).render() == verify_theorem(3).render()

    def test_summary_field_order(self):
        line = verify_theorem(2).results[0].summary_line()
        assert line == "theorem n=2: tested=6 passed=6 counterexamples=0"

    def test_connected_proper_minors_first_witness_order(self):
        for n in range(5):
            for M in enumerate_connected(n):
                assert connected_proper_minors(M) == first_witness_order(M)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_connected_proper_minors_first_witness_order_sampled(self, data):
        numbers = st.lists(st.integers(1, 12), unique=True, max_size=7)
        labels = [str(i) for i in data.draw(numbers, label="labels")]  # "10" < "2"
        row = st.frozensets(st.sampled_from(labels), max_size=4) if labels else st.just(F())
        drawn = set(data.draw(st.lists(row, max_size=8), label="rows"))
        M = new_clutter(labels, [A for A in drawn if not any(B < A for B in drawn)])
        assert connected_proper_minors(M) == first_witness_order(M)

    def test_shared_memo_does_not_leak_between_clutters(self):
        # one memo across every clutter at n<=4, connected or not, walked
        # forwards and then again backwards once it holds every other S(C);
        # bit i of an entry's bitset stands for members[i], the key of a
        # clutter under the run's one encoding of the labels 1..4
        memo, members, code = {}, [], _Code("1234")
        clutters = [C for n in range(5) for C in enumerate_clutters(n)]
        oracle = {C: {N for _, N in all_minors(C) if is_connected(N)} for C in clutters}
        for C in clutters + clutters[::-1]:
            connected, bits = _connected_minors(code.key(C), memo, members, code)
            assert bits >> len(members) == 0
            found = {code.clutter(N) for i, N in enumerate(members) if bits >> i & 1}
            assert connected == (helpers.naive_separation(C) is None)
            assert found == oracle[C]
        assert len(set(members)) == len(members)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_splitter_failures_match_oracle_on_six_labels(self, data):
        # past the enumeration cap, the per-M routine meets a brute-force
        # oracle in its count and in its ordered failure list; the closed
        # form's clutters are drawn too, so that some failure lists are not
        # empty
        if data.draw(st.booleans(), label="closed form"):
            M, _ = data.draw(st.sampled_from(predicted_counterexamples(6)), label="M")
        else:
            labels = [str(i + 1) for i in range(6)]
            row = st.frozensets(st.sampled_from(labels), min_size=1, max_size=5)
            drawn = set(data.draw(st.lists(row, max_size=10), label="rows"))
            M = connected_rows(labels, [A for A in drawn if not any(B < A for B in drawn)])
        expected = naive_splitter_failures(M)
        code = _Code(M.ground)
        assert enumeration._splitter_failures(code.key(M), {}, [], code) == expected

    @pytest.mark.parametrize("n,failures,calls", [(3, 9, 9), (4, 16, 0), (5, 25, 0)])
    def test_has_minor_called_only_to_order_failures(self, n, failures, calls, monkeypatch):
        # one search per failure of an M with two or more: at n=3 the nine
        # failures lie on four M, at n=4 and 5 each on its own M
        counted, real = [], minor.has_minor
        monkeypatch.setattr(minor, "has_minor", lambda M, N: counted.append(N) or real(M, N))
        (result,) = verify_theorem(n).results
        assert len(result.counterexamples) == failures
        assert len(counted) == calls

    def test_memo_compares_no_clutter_and_tests_each_connectivity_once(self, monkeypatch):
        # the memo keys on int (g, R) pairs and stores each clutter's flag,
        # so no Clutter.__eq__ or __hash__ runs (1,438 __eq__ calls with
        # Clutter keys).  core._spans runs once per clutter M at n=4 and once
        # per memo entry, each on the key's element tuples, and is_connected
        # not at all; a Clutter is built only for each of the 16 failing M
        # and its one failing N, not per M, per memo entry or per removal
        calls = {"eq": 0, "hash": 0, "_spans": 0, "is_connected": 0, "Clutter": 0}
        real_eq, real_spans, real_connected = Clutter.__eq__, core._spans, core.is_connected
        real_init, real_hash = Clutter.__init__, Clutter.__hash__

        def counted_eq(a, b):
            calls["eq"] += 1
            return real_eq(a, b)

        def counted_hash(M):
            calls["hash"] += 1
            return real_hash(M)

        def counted_spans(vertices, edges):
            calls["_spans"] += 1
            return real_spans(vertices, edges)

        def counted_connected(M):
            calls["is_connected"] += 1
            return real_connected(M)

        def counted_init(self, ground, rows):
            calls["Clutter"] += 1
            real_init(self, ground, rows)

        memo, members, code = {}, [], _Code("1234")
        for M in enumerate_connected(4):
            enumeration._splitter_failures(code.key(M), memo, members, code)
        # the 40 connected clutters on 3 or fewer of the 4 labels
        assert (len(memo), len(members)) == (126, 40)
        monkeypatch.setattr(Clutter, "__eq__", counted_eq)
        monkeypatch.setattr(Clutter, "__hash__", counted_hash)
        monkeypatch.setattr(core, "_spans", counted_spans)
        monkeypatch.setattr(core, "is_connected", counted_connected)
        monkeypatch.setattr(Clutter, "__init__", counted_init)
        (result,) = verify_theorem(4).results
        assert result.tested == 1806
        assert calls == {
            "eq": 0,
            "hash": 0,
            "_spans": 168 + 126,
            "is_connected": 0,
            "Clutter": 16 + 16,
        }

    def test_connected_proper_minors_deduplicates(self):
        M = new_clutter("12", [["1", "2"]])
        values = connected_proper_minors(M)
        assert len(values) == len(set(values))

    def test_traced_peak_memory_bounded(self):
        # the memo's int keys and bitsets at n=5 peak near 0.2 MB, where
        # (ground, rows) keys of frozensets peaked at 0.77 MB
        verify_theorem(5)  # any lazily built module state is not the run's
        tracemalloc.start()
        try:
            verify_theorem(5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 500_000


def assert_removal_keys_decode_to_removals(M, code):
    """For each element v of M, the two keys that _removal_keys gives decode
    to the (ground, rows) pairs of core._removals, and M's key to M."""
    key = code.key(M)
    assert code.clutter(key) == M
    for v in sorted(M.ground):
        index = code.masks[F({v})].bit_length() - 1
        keys = enumeration._removal_keys(*key, index, code)
        decoded = tuple((R.ground, R.rows) for R in map(code.clutter, keys))
        assert decoded == core._removals(M.ground, M.rows, v), (M, v)


class TestRemovalKeys:
    """The theorem verifier's int-keyed removals against the frozenset ones."""

    def test_every_clutter_up_to_five(self):
        # the 7,780 clutters on 0..5 labels, under one encoding of 1..5
        code = _Code("12345")
        count = 0
        for n in range(6):
            for M in enumerate_clutters(n):
                assert_removal_keys_decode_to_removals(M, code)
                count += 1
        assert count == sum(ANTICHAIN_COUNTS.values()) == 7780

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_six_to_eight_labels(self, data):
        # "2" and "10" in every draw, so string order and number order differ
        pool = st.sampled_from([1, 3, 4, 5, 6, 7, 8, 9, 11, 12])
        others = st.lists(pool, unique=True, min_size=4, max_size=6)
        labels = [str(i) for i in [2, 10] + data.draw(others, label="labels")]
        row = st.frozensets(st.sampled_from(labels), max_size=len(labels))
        drawn = set(data.draw(st.lists(row, max_size=12), label="rows"))
        M = new_clutter(labels, [A for A in drawn if not any(B < A for B in drawn)])
        assert_removal_keys_decode_to_removals(M, _Code(labels))

    def test_labels_take_bits_in_sorted_order(self):
        code = _Code(["2", "10", "1"])  # sorted: "1" < "10" < "2"
        assert [code.masks[F({label})] for label in ("1", "10", "2")] == [1, 2, 4]
        M = new_clutter(["1", "10", "2"], [["10", "2"], ["1"]])
        assert code.key(M) == (0b111, 1 << 0b110 | 1 << 0b001)


def contract_keys_unfiltered_at_last_element(real):
    """_removal_keys, except that at the largest element of g the M/v key
    keeps every stripped and every untouched row, minimal or not."""

    def fault(g, R, v, code):
        deleted, contracted = real(g, R, v, code)
        if v == code.elems[g][-1]:
            kept = deleted[1]
            contracted = (deleted[0], kept | (R ^ kept) >> (1 << v))
        return deleted, contracted

    return fault


def memo_marking_disconnected_connected(real):
    """_connected_minors, except that the memo entry of a disconnected
    clutter says it is connected."""

    def fault(key, memo, members, code):
        _, bits = real(key, memo, members, code)
        entry = memo[key] = (True, bits)
        return entry

    return fault


class TestTheoremFaults:
    """A fault in the theorem verifier's kernel moves its n=4 report off the
    pinned bytes."""

    @pytest.mark.parametrize(
        "name,fault",
        [
            ("_removal_keys", contract_keys_unfiltered_at_last_element),
            ("_connected_minors", memo_marking_disconnected_connected),
        ],
    )
    def test_fault_moves_report(self, name, fault, monkeypatch):
        monkeypatch.setattr(enumeration, name, fault(getattr(enumeration, name)))
        text = verify_theorem(4).render()
        assert hashlib.sha256(text.encode()).hexdigest() != THEOREM_REPORT_SHA256[4]


def in_witness_order(M, bits, members):
    """enumeration._in_witness_order for a Clutter M and members listed as
    clutters, each encoded by one _Code of M's labels."""
    code = _Code(M.ground)
    keys = [code.key(N) for N in members]
    return enumeration._in_witness_order(code.key(M), bits, keys, code)


class TestInWitnessOrder:
    """_in_witness_order on members listed against first-witness order, so
    that only its sort can put them right."""

    def test_one_bit_is_its_member_with_no_search(self, monkeypatch):
        M = new_clutter("12", [["1", "2"]])
        members = first_witness_order(M)[::-1]
        monkeypatch.setattr(minor, "has_minor", lambda M, N: pytest.fail("has_minor ran"))
        for i, N in enumerate(members):
            assert in_witness_order(M, 1 << i, members) == [N]
        assert in_witness_order(M, 0, members) == []

    def test_two_bits_sorted(self):
        # ({1}; {1}) has exactly two connected proper minors: ([]; no row) by
        # deleting 1 and ([]; {}) by contracting it
        M = new_clutter("1", [["1"]])
        order = first_witness_order(M)
        assert order == [Clutter(F(), F()), Clutter(F(), F({F()}))]
        members = order[::-1]
        assert in_witness_order(M, 0b11, members) == order

    @pytest.mark.parametrize("n", [2, 3])
    def test_three_or_more_bits_sorted(self, n):
        for M in enumerate_connected(n):
            order = first_witness_order(M)
            members = order[::-1]
            for chosen in (order, order[:3], order[1::2]):
                if len(chosen) >= 3:
                    bits = sum(1 << members.index(N) for N in chosen)
                    assert in_witness_order(M, bits, members) == chosen


class TestKnownCounterexamples:
    """The closed form of the splitter-property failures (README, "Known
    counterexamples") against the verifier and against its case proof."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_closed_form_is_the_failure_set(self, n):
        # theorem_report shares its n=5 run with the pinned-hash test
        (result,) = theorem_report(n).results
        predicted = {
            f"M=({inline(M)})  N=({inline(N)})" for M, N in predicted_counterexamples(n)
        }
        assert len(predicted) == n * n
        assert set(result.counterexamples) == predicted

    @pytest.mark.parametrize("n,failures", [(0, 0), (1, 0), (2, 0), (3, 9), (4, 300)])
    def test_chain_form_fails_exactly_on_targets_x_empty_row(self, n, failures):
        def reach(M):
            # Reach(M) = {M} | the Reach of each connected single removal of M
            if M not in memo:
                removals = [core.delete(M, v) for v in M.ground]
                removals += [core.contract(M, v) for v in M.ground]
                memo[M] = {M}.union(*(reach(R) for R in removals if is_connected(R)))
            return memo[M]

        memo = {}
        missed = 0
        for M, N in independent_pairs(n):
            chained = N in reach(M)
            assert chained != (len(N.ground) == 1 and N.rows == {F()}), (M, N)
            missed += not chained
        assert missed == failures

    @pytest.mark.parametrize("n", range(3, 13))
    def test_every_predicted_pair_fails_over_its_single_removals(self, n):
        for M, N in predicted_counterexamples(n):
            assert is_connected(M) and is_connected(N)
            assert N.ground < M.ground and has_minor(M, N) is not None
            for v in sorted(M.ground):
                for R in (core.delete(M, v), core.contract(M, v)):
                    assert not is_connected(R) or has_minor(R, N) is None, (M, v)


class TestVerifyIdentities:
    def test_zero_violations_up_to_four(self):
        for n in range(5):
            report = verify_identities(n)
            assert report.counterexample_count == 0
            for result in report.results:
                assert result.passed == result.tested

    def test_family_lines(self):
        text = verify_identities(2).render()
        for family in [
            "deletion-contraction-commutativity:",
            "blocker-involution:",
            "duality-swap:",
            "connectivity-equivalence:",
            "twin-contraction:",
            "deletion-graph-correspondence:",
        ]:
            assert family in text
        for line in text.strip().splitlines():
            assert " tested=" in line and " passed=" in line and " counterexamples=" in line

    def test_reproducible(self):
        assert verify_identities(3).render() == verify_identities(3).render()

    def test_report_bytes_pinned(self):
        text = verify_identities(4).render()
        assert hashlib.sha256(text.encode()).hexdigest() == IDENTITIES_REPORT_SHA256

    @pytest.mark.parametrize("n", sorted(SMALL_IDENTITIES_REPORT_SHA256))
    def test_small_report_bytes_pinned(self, n):
        text = verify_identities(n).render()
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == SMALL_IDENTITIES_REPORT_SHA256[n]

    @pytest.mark.parametrize("n", range(5))
    def test_matches_naive_oracle(self, n):
        assert verify_identities(n).render() == naive_identity_report(n).render()

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_matches_naive_oracle_under_a_fault(self, fault, monkeypatch):
        # a primitive that both routes call goes wrong the same way for both,
        # so the failure lines must agree in text and order, not just in count
        broken = install(fault, monkeypatch)
        report = verify_identities(4)
        assert len(broken) >= 2
        assert {r.name for r in report.results if r.counterexamples} == broken
        assert report.render() == naive_identity_report(4).render()

    @pytest.mark.parametrize("fault", sorted(GRAPH_FAULTS))
    def test_failures_confined_to_one_graph_family(self, fault, monkeypatch):
        # the tallies are counted in bulk and the failures one by one: a
        # family that fails in part must still report tested, passed and its
        # lines as the per-case oracle does
        family = GRAPH_FAULTS[fault]
        real = getattr(graphview, fault)
        monkeypatch.setattr(graphview, fault, whites_kept_at_last_element(real))
        report = verify_identities(4)
        assert {r.name for r in report.results if r.counterexamples} == {family}
        (result,) = (r for r in report.results if r.name == family)
        assert 0 < result.passed < result.tested
        assert report.render() == naive_identity_report(4).render()

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_small_matches_naive_oracle_under_a_fault(self, fault, n, monkeypatch):
        install(fault, monkeypatch)
        assert verify_identities(n).render() == naive_identity_report(n).render()

    def test_primitive_calls_bounded(self, monkeypatch):
        # every single removal of a clutter on 4 elements is one of the 80
        # clutters on 3 of them: their removals, blockers and graphs are
        # computed once per run, M's own and its blocker's once per M; each
        # (clutter, element) pair's M\v and M/v come from one _removals call.
        # Only the blocker cache and the involution check compare or hash a
        # Clutter: 336 hashes, one per lookup of each M and of its blocker,
        # and 336 comparisons, one per cache hit (each of the 168 clutters is
        # looked up as an M and as a blocker) and one per involution check.
        # Each graph family calls the primitive it verifies once per case
        graph_calls = (
            "graph_connected",
            "twins",
            "remove_black_vertex",
            "delete_closed_neighbourhood",
        )
        kinds = ("_removals", "delete", "contract", "graphs", "blockers", "eq", "hash")
        calls = dict.fromkeys(kinds + graph_calls + ("graph_inits",), 0)

        def counted(kind, fn):
            def wrapper(*args):
                calls[kind] += 1
                return fn(*args)

            return wrapper

        for name in ("_removals", "delete", "contract"):
            monkeypatch.setattr(core, name, counted(name, getattr(core, name)))
        monkeypatch.setattr(
            graphview, "incidence_graph", counted("graphs", graphview.incidence_graph)
        )
        for name in graph_calls:
            monkeypatch.setattr(graphview, name, counted(name, getattr(graphview, name)))
        Graph = graphview.IncidenceGraph
        monkeypatch.setattr(Graph, "__init__", counted("graph_inits", Graph.__init__))
        monkeypatch.setattr(enumeration, "blocker", counted("blockers", blocker))
        monkeypatch.setattr(Clutter, "__eq__", counted("eq", Clutter.__eq__))
        monkeypatch.setattr(Clutter, "__hash__", counted("hash", Clutter.__hash__))
        verify_identities(4)
        # 1,584 = 168 * 4 * 2 pairs of M and of its blocker + 80 * 3 of the
        # clutters on 3 elements; 168 + 80 graphs and blockers
        assert (calls["_removals"], calls["delete"], calls["contract"]) == (1584, 0, 0)
        assert calls["graphs"] <= 168 + 80
        assert calls["blockers"] <= 168 + 80
        assert (calls["eq"], calls["hash"]) == (168 + 168, 168 + 168)
        # one connectivity test per M, one twins call per element of each of
        # the 84 connected M, one removal per twinned element, one deletion
        # per (M, element); 972 = 248 + 52 + 672 graphs built
        assert [calls[name] for name in graph_calls] == [168, 84 * 4, 52, 168 * 4]
        assert calls["graph_inits"] == 168 + 80 + 52 + 168 * 4

    @pytest.mark.parametrize("n,pairs", [(3, 54), (4, 648)])
    def test_theorem_builds_each_removal_pair_in_one_call(self, n, pairs, monkeypatch):
        # the theorem verifier takes the keys of M\v and M/v from one
        # _removal_keys call per (clutter, element) pair it visits, and never
        # calls the frozenset removals
        calls = {"_removal_keys": 0, "_removals": 0, "delete": 0, "contract": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(enumeration, "_removal_keys")
        for name in ("_removals", "delete", "contract"):
            counted(core, name)
        verify_theorem(n)
        assert calls == {"_removal_keys": pairs, "_removals": 0, "delete": 0, "contract": 0}

    def test_traced_peak_memory_bounded(self):
        verify_identities(4)  # any lazily built module state is not the run's
        tracemalloc.start()
        try:
            verify_identities(4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_too_large(self):
        with pytest.raises(TooLarge):
            verify_identities(5)


@pytest.mark.parametrize("verify", [verify_identities, verify_theorem], ids=["identities", "theorem"])
def test_run_memos_freed_without_cycle_collector(verify):
    # a memo caught in a reference cycle outlives the run until gc collects it
    verify(4)  # any lazily built module state is not the run's
    gc.disable()
    tracemalloc.start()
    try:
        verify(4)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < peak / 4
