"""Blocker computation and the duality identities."""

import importlib
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clutters.blocker import _encode, blocker, blocker_by_enumeration, is_transversal
from clutters.core import Clutter, contract, delete, new_clutter, row_sort_key
from clutters.enumeration import enumerate_clutters
from clutters.errors import ForeignElement, TooLarge
from clutters.matroid import circuits_clutter, uniform
from helpers import frozenset_blocker

F = frozenset


def C(ground, *rows):
    return new_clutter(ground, rows)


def antichain(rows):
    """The inclusion-minimal sets among rows."""
    rows = set(rows)
    return [A for A in rows if not any(B < A for B in rows)]


class TestIsTransversal:
    def test_hits_every_row(self):
        assert is_transversal(C("123", "12", "23"), "2")

    def test_misses_a_row(self):
        assert not is_transversal(C("123", "12", "23"), "1")

    def test_vacuous(self):
        assert is_transversal(C(""), "")
        assert is_transversal(C("12"), "")

    def test_foreign_element(self):
        with pytest.raises(ForeignElement):
            is_transversal(C("12", "12"), "3")


class TestBlocker:
    def test_path(self):
        assert blocker(C("123", "12", "23")) == C("123", "2", "13")

    def test_no_rows_blocks_to_empty_row(self):
        assert blocker(C("12")) == new_clutter("12", [[]])

    def test_empty_row_blocks_to_no_rows(self):
        assert blocker(new_clutter("12", [[]])) == C("12")

    def test_matching(self):
        assert blocker(C("12", "1", "2")) == C("12", "12")

    def test_rows_are_minimal_transversals(self):
        M = C("1234", "12", "34", "13")
        b = blocker(M)
        for row in b.rows:
            assert is_transversal(M, row)
            for e in row:
                assert not is_transversal(M, row - {e})


class TestBothRoutesAgree:
    def test_exhaustive_small(self):
        for n in range(6):
            for M in enumerate_clutters(n):
                assert blocker(M) == blocker_by_enumeration(M)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sampled(self, data):
        # n <= 5 is covered exhaustively above
        n = data.draw(st.integers(min_value=6, max_value=12), label="n")
        labels = [str(i + 1) for i in range(n)]  # "10" sorts before "2"
        row = st.frozensets(st.sampled_from(labels), min_size=1, max_size=5)
        drawn = data.draw(st.lists(row, min_size=4, max_size=16), label="rows")
        M = new_clutter(labels, antichain(drawn))
        assert blocker(M) == blocker_by_enumeration(M)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sampled_wide_rows(self, data):
        # rows of up to n - 1 elements, so that a partial transversal often
        # meets a new row twice and is kept without being indexed
        n = data.draw(st.integers(min_value=6, max_value=12), label="n")
        labels = [str(i + 1) for i in range(n)]
        row = st.frozensets(st.sampled_from(labels), min_size=1, max_size=n - 1)
        drawn = data.draw(st.lists(row, min_size=2, max_size=10), label="rows")
        M = new_clutter(labels, antichain(drawn))
        assert blocker(M) == blocker_by_enumeration(M)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sampled_above_enumeration_limit(self, data):
        # blocker_by_enumeration stops at 20 elements; at most 8 rows of at
        # most 3 elements keep the blocker within 3^8 rows
        n = data.draw(st.integers(min_value=21, max_value=40), label="n")
        labels = [str(i + 1) for i in range(n)]
        row = st.frozensets(st.sampled_from(labels), min_size=1, max_size=3)
        drawn = data.draw(st.lists(row, min_size=1, max_size=8), label="rows")
        M = new_clutter(labels, antichain(drawn))
        assert blocker(M) == frozenset_blocker(M)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sampled_dense_uniform_rows(self, data):
        # at least 20 of the k-subsets of 8 to 11 labels: most rows miss only
        # a few partial transversals, so nearly every one is carried over
        # unchanged while the missed ones are replaced in the same family
        n = data.draw(st.integers(min_value=8, max_value=11), label="n")
        k = data.draw(st.integers(min_value=2, max_value=4), label="k")
        labels = [str(i + 1) for i in range(n)]
        subsets = [F(c) for c in itertools.combinations(labels, k)]
        drawn = data.draw(st.lists(st.sampled_from(subsets), min_size=20, unique=True), label="rows")
        row = st.frozensets(st.sampled_from(labels), min_size=1, max_size=n - 1)
        drawn += data.draw(st.lists(row, max_size=3), label="other rows")
        M = new_clutter(labels, antichain(drawn))
        assert blocker(M) == blocker_by_enumeration(M)

    def test_enumeration_limit(self, monkeypatch):
        # 20 elements are scanned at every size 0..20, 21 are refused; the
        # 2^20 subsets themselves are not built, only the sizes are recorded
        sizes = []
        scan = SimpleNamespace(combinations=lambda elems, r: sizes.append((len(elems), r)) or ())
        monkeypatch.setattr(importlib.import_module("clutters.blocker"), "itertools", scan)
        labels = [str(i + 1) for i in range(21)]
        M = C(labels[:20], labels[:20])
        assert blocker_by_enumeration(M) == Clutter(M.ground, F())
        assert sizes == [(20, r) for r in range(21)]
        with pytest.raises(TooLarge):
            blocker_by_enumeration(C(labels, labels))

    def test_frozenset_oracle_exhaustive_small(self):
        for n in range(5):
            for M in enumerate_clutters(n):
                assert frozenset_blocker(M) == blocker_by_enumeration(M)

    def test_uniform_closed_form(self):
        # the minimal sets meeting every (r+1)-subset are the (n-r)-subsets
        for n in range(12):
            for r in range(n + 1):
                U = circuits_clutter(uniform(r, n))
                expected = C(U.ground, *itertools.combinations(sorted(U.ground), n - r))
                assert blocker(U) == expected


class TestEncoding:
    """Grounds wider than a machine word, and labels whose order, insertion
    order and bit order all differ."""

    def test_uniform_rank_one_above_64_elements(self):
        # the minimal sets meeting every pair are the (n-1)-subsets
        for n in range(65, 71):
            U = circuits_clutter(uniform(1, n))
            expected = C(U.ground, *itertools.combinations(sorted(U.ground), n - 1))
            assert blocker(U) == expected

    def test_disjoint_pairs_among_isolated_elements(self):
        # one element from each of k disjoint pairs: 2^k rows
        isolated = [f"z{i}" for i in range(65)]
        for k in range(7):
            pairs = [(f"p{i}", f"q{i}") for i in range(k)]
            ground = isolated + [e for pair in pairs for e in pair]
            b = blocker(C(ground, *pairs))
            assert len(b.rows) == 2**k
            assert b == C(ground, *itertools.product(*pairs))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_relabeling_commutes(self, data):
        n = data.draw(st.integers(min_value=0, max_value=10), label="n")
        labels = [str(i + 1) for i in range(n)]
        row = st.frozensets(st.sampled_from(labels), max_size=n) if n else st.just(F())
        drawn = data.draw(st.lists(row, max_size=10), label="rows")
        M = new_clutter(labels, antichain(drawn))
        names = st.text(alphabet="ab019xZ", min_size=2, max_size=4)
        image = data.draw(st.lists(names, min_size=n, max_size=n, unique=True), label="image")
        rename = dict(zip(labels, image))
        order = data.draw(st.permutations(labels), label="order")  # insertion order

        def relabel(K):
            ground = F(rename[e] for e in order if e in K.ground)
            rows = (F(rename[e] for e in order if e in A) for A in K.rows)
            return Clutter(ground, F(rows))

        assert blocker(relabel(M)) == relabel(blocker(M))


class TestRowOrder:
    """`_encode` lists the rows in `row_sort_key` order.  The order changes
    only speed, not the blocker, but by much: it keeps Berge's intermediate
    family small, and with the rows of one size in hash order
    blocker.uniform on the large-inputs units ran 62-77% slower."""

    def test_exhaustive_small(self):
        for n in range(6):
            for M in enumerate_clutters(n):
                _, rows = _encode(M)
                assert [A for _, A in rows] == sorted(M.rows, key=row_sort_key)

    def test_numeric_labels_sort_as_text(self):
        # "10" < "11" < "9" as text, so {10, 11} comes before {10, 9}
        M = C(["9", "10", "11", "2", "1"], ["9", "10"], ["10", "11"], ["2"], ["1", "9"])
        _, rows = _encode(M)
        assert [A for _, A in rows] == [F({"2"}), F({"1", "9"}), F({"10", "11"}), F({"10", "9"})]
        assert [A for _, A in rows] == sorted(M.rows, key=row_sort_key)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sampled(self, data):
        n = data.draw(st.integers(min_value=6, max_value=70), label="n")
        labels = [str(i + 1) for i in range(n)]
        row = st.frozensets(st.sampled_from(labels), min_size=1, max_size=6)
        M = new_clutter(labels, antichain(data.draw(st.lists(row, max_size=20), label="rows")))
        _, rows = _encode(M)
        assert [A for _, A in rows] == sorted(M.rows, key=row_sort_key)


class TestInvolution:
    def test_exhaustive(self):
        for n in range(5):
            for M in enumerate_clutters(n):
                assert blocker(blocker(M)) == M

    def test_degenerate_conventions(self):
        empty = C("")
        assert blocker(blocker(empty)) == empty


class TestDualitySwap:
    def test_exhaustive(self):
        for n in range(4):
            for M in enumerate_clutters(n):
                b = blocker(M)
                for v in sorted(M.ground):
                    assert blocker(delete(M, v)) == contract(b, v)
                    assert blocker(contract(M, v)) == delete(b, v)


class TestOutputValidity:
    def test_blocker_rows_form_antichain(self):
        for M in enumerate_clutters(3):
            b = blocker(M)
            assert new_clutter(b.ground, b.rows) == b
