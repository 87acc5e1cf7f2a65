"""Labeled minor containment against a sequential-ordering oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_subsets, naive_clutters, naive_has_minor
from clutters import core, minor
from clutters.core import MinorSpec, apply_minor, contract, delete, new_clutter
from clutters.enumeration import enumerate_clutters
from clutters.matroid import circuits_clutter, uniform
from clutters.minor import all_minors, has_minor, is_proper_minor

F = frozenset


def C(ground, *rows):
    return new_clutter(ground, rows)


def sequential_minor_oracle(M, N):
    """True iff some ordered sequence of per-element operations turns M into N.

    Tries every permutation of the removed elements with every delete/contract
    choice; independent of apply_minor's canonical order.
    """
    if not N.ground <= M.ground:
        return False
    removed = sorted(M.ground - N.ground)
    for perm in itertools.permutations(removed):
        for ops in itertools.product((delete, contract), repeat=len(perm)):
            out = M
            for e, op in zip(perm, ops):
                out = op(out, e)
            if out == N:
                return True
    return False


class TestHasMinor:
    def test_contract_witness(self):
        M = C("123", "12", "13", "23")
        N = C("12", "1", "2")
        assert has_minor(M, N) == MinorSpec(F(), F("3"))

    def test_self_minor(self):
        M = C("123", "12", "23")
        assert has_minor(M, M) == MinorSpec(F(), F())

    def test_delete_and_contract_differ(self):
        M = C("12", "12")
        assert has_minor(M, C("1", "1")) == MinorSpec(F(), F("2"))
        assert has_minor(M, C("1")) == MinorSpec(F("2"), F())

    def test_not_a_minor(self):
        assert has_minor(C("12", "12"), C("12", "1")) is None
        assert has_minor(C("1", "1"), C("12", "12")) is None

    def test_empty_clutter_reachable_unless_sole_row_empty(self):
        assert has_minor(C("12", "12"), C("")) is not None
        assert has_minor(new_clutter("1", [[]]), C("")) is None

    def test_witness_prefers_deletes(self):
        # element 1 is in no row, so delete and contract agree; delete wins
        M = C("12", "2")
        assert has_minor(M, C("2", "2")) == MinorSpec(F("1"), F())


class TestIsProperMinor:
    def test_self_is_not_proper(self):
        M = C("12", "12")
        assert not is_proper_minor(M, M)

    def test_empty_clutter_is_proper_minor(self):
        assert is_proper_minor(C("12", "12"), C(""))

    def test_deletion_witness(self):
        assert is_proper_minor(C("12", "1", "2"), C("1", "1"))


class TestAllMinors:
    def test_counts(self):
        assert sum(1 for _ in all_minors(C(""))) == 1
        assert sum(1 for _ in all_minors(C("12", "12"))) == 9
        assert sum(1 for _ in all_minors(C("123", "12", "23"))) == 27

    def test_single_element_order(self):
        M = C("1", "1")
        out = list(all_minors(M))
        assert out[0] == (MinorSpec(F(), F()), M)
        assert out[1] == (MinorSpec(F("1"), F()), C(""))
        assert out[2] == (MinorSpec(F(), F("1")), new_clutter("", [[]]))

    def test_results_valid_and_recoverable(self):
        for M in enumerate_clutters(3):
            for spec, N in all_minors(M):
                assert new_clutter(N.ground, N.rows) == N
                witness = has_minor(M, N)
                assert witness is not None
                assert apply_minor(M, witness) == N

    def test_deterministic(self):
        M = C("123", "12", "13")
        assert list(all_minors(M)) == list(all_minors(M))


class TestOracleAgreement:
    def test_exhaustive_small(self):
        # every clutter on {1,2,3} against every clutter on every subset
        targets = [
            N for sub in all_subsets("123") for N in naive_clutters(sub)
        ]
        for M in enumerate_clutters(3):
            for N in targets:
                got = has_minor(M, N)
                expected = sequential_minor_oracle(M, N)
                assert (got is not None) == expected
                assert got == naive_has_minor(M, N)
                if got is not None:
                    assert apply_minor(M, got) == N

    def test_spot_checks_larger(self):
        M = C("1234", "12", "23", "34")
        for N in [
            C("12", "12"),
            C("12", "1", "2"),
            new_clutter("4", [[]]),
            C(""),
            C("123", "12", "23"),
        ]:
            assert (has_minor(M, N) is not None) == sequential_minor_oracle(M, N)


def labels_of(n):
    return [str(i + 1) for i in range(n)]  # "10" sorts before "2"


def subsets_of(labels, max_size=None):
    return st.frozensets(st.sampled_from(labels), max_size=max_size) if labels else st.just(F())


def drawn_clutter(data, labels, max_rows):
    drawn = set(data.draw(st.lists(subsets_of(labels, 4), max_size=max_rows)))
    return new_clutter(labels, [A for A in drawn if not any(B < A for B in drawn)])


class TestFirstWitness:
    """has_minor returns the first witness of the 2^k base-2 counter."""

    def test_every_minor_exhaustive(self):
        pairs = 0
        for n in range(5):
            for M in enumerate_clutters(n):
                for N in dict.fromkeys(N for _, N in all_minors(M)):
                    assert has_minor(M, N) == naive_has_minor(M, N), (M, N)
                    pairs += 1
        assert pairs == 6643

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_hits_sampled(self, data):
        n = data.draw(st.integers(min_value=0, max_value=12), label="n")
        M = drawn_clutter(data, labels_of(n), 10)
        deletes = data.draw(subsets_of(sorted(M.ground)), label="deletes")
        contracts = data.draw(subsets_of(sorted(M.ground - deletes)), label="contracts")
        N = apply_minor(M, MinorSpec(deletes, contracts))
        witness = has_minor(M, N)
        assert witness == naive_has_minor(M, N)
        assert apply_minor(M, witness) == N

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_arbitrary_targets_sampled(self, data):
        # mostly misses: N is any clutter on a subset of M's ground
        n = data.draw(st.integers(min_value=0, max_value=12), label="n")
        M = drawn_clutter(data, labels_of(n), 10)
        keep = data.draw(subsets_of(sorted(M.ground)), label="keep")
        N = drawn_clutter(data, sorted(keep), 4)
        assert has_minor(M, N) == naive_has_minor(M, N)


def miss_candidates(keep):
    """Clutters on `keep` that no uniform-matroid clutter has as a minor once
    `keep` has four or more elements (every such minor is uniform): a path of
    2-rows, and the 3-subsets of `keep` less the first."""
    path = new_clutter(keep, [keep[i : i + 2] for i in range(len(keep) - 1)])
    triples = list(itertools.combinations(sorted(keep), 3))
    return [path, new_clutter(keep, triples[1:])]


class TestTraceSearch:
    """has_minor searches the deletion set over the rows' traces on E(N)."""

    def test_exhaustive_n4(self):
        # every clutter on {1,2,3,4} against every clutter on every subset
        targets = [N for sub in all_subsets("1234") for N in naive_clutters(sub)]
        pairs = 0
        for M in enumerate_clutters(4):
            for N in targets:
                assert has_minor(M, N) == naive_has_minor(M, N), (M, N)
                pairs += 1
        assert pairs == 50064

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_dense_sampled(self, data):
        n = data.draw(st.integers(min_value=1, max_value=9), label="n")
        r = data.draw(st.integers(min_value=0, max_value=n), label="r")
        labels = data.draw(st.permutations([chr(ord("a") + i) for i in range(12)]))[:n]
        M = circuits_clutter(uniform(r, n, labels))
        deletes = data.draw(subsets_of(labels), label="deletes")
        contracts = data.draw(subsets_of(sorted(M.ground - deletes)), label="contracts")
        hit = apply_minor(M, MinorSpec(deletes, contracts))
        keep = data.draw(st.lists(st.sampled_from(labels), unique=True), label="keep")
        for N in [hit, *miss_candidates(keep)]:
            witness = has_minor(M, N)
            assert witness == naive_has_minor(M, N), (M, N)
            if witness is not None:
                assert apply_minor(M, witness) == N

    @pytest.mark.parametrize("n", [10, 11])
    def test_uniform_large_seeded(self, n):
        # U(3,10) and U(3,11): many rows share each trace, and the bad-row
        # test runs at every backtrack
        rng = random.Random(n)
        labels = labels_of(n)
        M = circuits_clutter(uniform(3, n, labels))
        for k in (5, 6):
            targets = miss_candidates(rng.sample(labels, k))
            for c in range(4):
                keep = rng.sample(labels, k)
                removed = [v for v in labels if v not in keep]
                rng.shuffle(removed)
                targets.append(apply_minor(M, MinorSpec(F(removed[c:]), F(removed[:c]))))
            witnesses = [has_minor(M, N) for N in targets]
            assert [w is None for w in witnesses] == [True] * 2 + [False] * 4
            for N, witness in zip(targets, witnesses):
                assert witness == naive_has_minor(M, N), (M, N)
                if witness is not None:
                    assert apply_minor(M, witness) == N

    @pytest.mark.parametrize(
        "spec",
        [
            MinorSpec(frozenset("6789A"), frozenset("B")),  # a contraction
            MinorSpec(frozenset("6789AB"), frozenset()),  # deleting all
            None,  # a miss
        ],
        ids=["hit", "all-delete hit", "miss"],
    )
    def test_builds_no_clutter(self, spec, monkeypatch):
        M = circuits_clutter(uniform(3, 11, "123456789AB"))
        N = miss_candidates(list("12345"))[0] if spec is None else apply_minor(M, spec)
        calls = []
        for name in ("delete", "contract", "apply_minor"):

            def counted(*args, _real=getattr(core, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(core, name, counted)
            monkeypatch.setattr(minor, name, counted, raising=False)
        witness = has_minor(M, N)
        assert calls == []
        assert witness == spec
