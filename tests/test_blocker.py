"""Blocker computation and the duality identities."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clutters.blocker import blocker, blocker_by_enumeration, is_transversal
from clutters.core import contract, delete, new_clutter
from clutters.enumeration import enumerate_clutters
from clutters.errors import ForeignElement
from clutters.matroid import circuits_clutter, uniform

F = frozenset


def C(ground, *rows):
    return new_clutter(ground, rows)


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
        drawn = set(data.draw(st.lists(row, min_size=4, max_size=16), label="rows"))
        M = new_clutter(labels, [A for A in drawn if not any(B < A for B in drawn)])
        assert blocker(M) == blocker_by_enumeration(M)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sampled_wide_rows(self, data):
        # rows of up to n - 1 elements, so that a partial transversal often
        # meets a new row twice and is kept without being indexed
        n = data.draw(st.integers(min_value=6, max_value=12), label="n")
        labels = [str(i + 1) for i in range(n)]
        row = st.frozensets(st.sampled_from(labels), min_size=1, max_size=n - 1)
        drawn = set(data.draw(st.lists(row, min_size=2, max_size=10), label="rows"))
        M = new_clutter(labels, [A for A in drawn if not any(B < A for B in drawn)])
        assert blocker(M) == blocker_by_enumeration(M)

    def test_uniform_closed_form(self):
        # the minimal sets meeting every (r+1)-subset are the (n-r)-subsets
        for n in range(12):
            for r in range(n + 1):
                U = circuits_clutter(uniform(r, n))
                expected = C(U.ground, *itertools.combinations(sorted(U.ground), n - r))
                assert blocker(U) == expected


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
