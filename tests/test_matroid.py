"""Circuit matroids, duals, and their clutter specializations."""

import functools
import itertools

import pytest

from helpers import naive_separation
from clutters import matroid
from clutters.blocker import blocker
from clutters.core import Clutter, contract, delete, is_connected, new_clutter
from clutters.enumeration import enumerate_clutters
from clutters.errors import (
    BadRank,
    CircuitAxiomViolation,
    GroundOverlap,
    ParseError,
)
from clutters.matroid import (
    bases,
    circuits_clutter,
    direct_sum,
    dual,
    k4_graphic_matroid,
    new_matroid,
    parse_matroid,
    serialize_matroid,
    uniform,
)

F = frozenset


def two_copies_of_u13():
    return direct_sum(uniform(1, 3), uniform(1, 3, labels=["4", "5", "6"]))


class TestNewMatroid:
    def test_empty_circuit_rejected(self):
        with pytest.raises(CircuitAxiomViolation):
            new_matroid("12", [[]])

    def test_elimination_axiom_rejected(self):
        # {1,2} and {2,3} share 2 but no circuit sits inside {1,3}
        with pytest.raises(CircuitAxiomViolation):
            new_matroid("123", [["1", "2"], ["2", "3"]])

    def test_valid_family_accepted(self):
        N = new_matroid("123", [["1", "2"], ["2", "3"], ["1", "3"]])
        assert N.circuits == F({F("12"), F("23"), F("13")})

    def test_scan_accepts_constructed_families(self):
        # uniform and direct_sum skip the elimination scan as valid by
        # construction; the scan must agree
        fixtures = [uniform(r, n) for n in range(8) for r in range(n + 1)]
        fixtures += [
            two_copies_of_u13(),
            direct_sum(uniform(1, 3), uniform(0, 0, labels=[])),
            direct_sum(uniform(1, 2), uniform(0, 1, labels=["3"])),
        ]
        for N in fixtures:
            assert new_matroid(N.ground, N.circuits) == N


class TestUniform:
    def test_rank_two_of_four(self):
        N = uniform(2, 4)
        assert N.circuits == F(
            {F("123"), F("124"), F("134"), F("234")}
        )

    def test_free_matroid_has_no_circuits(self):
        assert uniform(3, 3).circuits == F()

    def test_rank_zero_gives_loops(self):
        assert uniform(0, 2).circuits == F({F("1"), F("2")})

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            uniform(3, 2)
        with pytest.raises(BadRank):
            uniform(-1, 2)

    def test_custom_labels(self):
        N = uniform(1, 2, labels=["x", "y"])
        assert N.ground == F({"x", "y"})


class TestCircuitsClutter:
    def test_rank_one(self):
        M = circuits_clutter(uniform(1, 3))
        assert M == new_clutter("123", [["1", "2"], ["1", "3"], ["2", "3"]])

    def test_circuit_is_whole_ground(self):
        assert circuits_clutter(uniform(2, 3)).rows == F({F("123")})

    def test_free(self):
        assert circuits_clutter(uniform(2, 2)).rows == F()


class TestBases:
    def test_rank_one(self):
        assert bases(uniform(1, 3)) == F({F("1"), F("2"), F("3")})

    def test_rank_two_of_three(self):
        assert bases(uniform(2, 3)) == F({F("12"), F("13"), F("23")})

    def test_free(self):
        assert bases(uniform(2, 2)) == F({F("12")})

    def test_all_loops(self):
        assert bases(uniform(0, 2)) == F({F()})


class TestDual:
    def test_u13(self):
        assert dual(uniform(1, 3)) == uniform(2, 3)

    def test_involution(self):
        for N in [uniform(1, 3), uniform(2, 4), k4_graphic_matroid()]:
            assert dual(dual(N)) == N

    def test_free_dualizes_to_loops(self):
        assert dual(uniform(3, 3)) == uniform(0, 3)

    def test_matches_subset_scan(self):
        # oracle: minimal nonempty sets meeting every basis, by ascending scan
        def scan_dual_circuits(N):
            kept = []
            for r in range(1, len(N.ground) + 1):
                for combo in itertools.combinations(sorted(N.ground), r):
                    S = F(combo)
                    if not any(t <= S for t in kept) and all(S & B for B in bases(N)):
                        kept.append(S)
            return F(kept)

        fixtures = [uniform(r, n) for n in range(6) for r in range(n + 1)]
        for N in fixtures + [k4_graphic_matroid()]:
            assert dual(N).circuits == scan_dual_circuits(N)


class TestDirectSum:
    def test_disjoint_union(self):
        N = two_copies_of_u13()
        assert len(N.ground) == 6
        assert len(N.circuits) == 6
        assert all(len(c) == 2 for c in N.circuits)

    def test_empty_ground_identity(self):
        N = uniform(1, 3)
        assert direct_sum(N, uniform(0, 0, labels=[])) == N

    def test_overlap_rejected(self):
        with pytest.raises(GroundOverlap):
            direct_sum(uniform(1, 3), uniform(1, 3))

    def test_sum_clutter_is_disconnected(self):
        assert not is_connected(circuits_clutter(two_copies_of_u13()))


class TestK4:
    def test_circuit_count(self):
        assert len(k4_graphic_matroid().circuits) == 7

    def test_sixteen_spanning_trees(self):
        assert len(bases(k4_graphic_matroid())) == 16

    def test_self_dual_circuit_count(self):
        assert len(dual(k4_graphic_matroid()).circuits) == 7


class TestConnectivityTransfer:
    def test_matches_clutter_connectivity(self):
        # against the brute-force bipartition scan, not the library's own check
        fixtures = [
            uniform(1, 3),
            uniform(2, 3),
            uniform(2, 4),
            uniform(0, 2),
            uniform(2, 2),
            two_copies_of_u13(),
            k4_graphic_matroid(),
        ]
        for N in fixtures:
            expected = naive_separation(circuits_clutter(N)) is None
            assert matroid.is_connected(N) == expected


class TestBlockerDualBases:
    def test_blocker_rows_are_dual_bases(self):
        fixtures = [
            uniform(1, 3),
            uniform(2, 3),
            uniform(2, 4),
            two_copies_of_u13(),
            k4_graphic_matroid(),
        ]
        for N in fixtures:
            assert blocker(circuits_clutter(N)).rows == bases(dual(N))

    def test_blocker_connectivity_not_invariant(self):
        N = two_copies_of_u13()
        M = circuits_clutter(N)
        assert not is_connected(M)
        assert is_connected(blocker(M))
        assert min(len(c) for c in dual(N).circuits) >= 3


class TestMinorCompatibility:
    def test_deletion_matches_uniform_minor(self):
        for r in range(0, 4):
            for n in range(max(r, 1), 5):
                N = uniform(r, n)
                M = circuits_clutter(N)
                v = sorted(N.ground)[-1]
                shrunk = uniform(min(r, n - 1), n - 1, labels=sorted(N.ground - {v}))
                assert delete(M, v) == circuits_clutter(shrunk)

    def test_contraction_matches_uniform_minor(self):
        # loopless only: contracting a loop leaves the empty row behind,
        # which circuit clutters never carry
        for r in range(1, 4):
            for n in range(r, 5):
                N = uniform(r, n)
                M = circuits_clutter(N)
                v = sorted(N.ground)[-1]
                shrunk = uniform(r - 1, n - 1, labels=sorted(N.ground - {v}))
                assert contract(M, v) == circuits_clutter(shrunk)

    def test_loop_contraction_diverges(self):
        M = circuits_clutter(uniform(0, 2))
        assert contract(M, "1") == new_clutter("2", [[]])

    def test_clutter_minors_are_matroid_minors_except_loop_contraction(self):
        # matroid minors from their definitions: N\e keeps the circuits
        # avoiding e; N/e has the minimal sets C - e, except that contracting
        # a loop deletes it
        def matroid_delete(N, e):
            return F(C for C in N.circuits if e not in C)

        def matroid_contract(N, e):
            if F({e}) in N.circuits:
                return matroid_delete(N, e)
            shrunk = {C - {e} for C in N.circuits}
            return F(S for S in shrunk if not any(T < S for T in shrunk))

        matroids = [uniform(r, n) for n in range(6) for r in range(n + 1)]
        matroids += [
            k4_graphic_matroid(),
            direct_sum(uniform(1, 2), uniform(0, 1, labels=["3"])),
        ]
        elements = loops = 0
        for N in matroids:
            M = circuits_clutter(N)
            for e in sorted(N.ground):
                elements += 1
                is_loop = F({e}) in N.circuits
                loops += is_loop
                rest = N.ground - {e}
                assert delete(M, e) == Clutter(rest, matroid_delete(N, e))
                agrees = contract(M, e) == Clutter(rest, matroid_contract(N, e))
                assert agrees == (not is_loop)
        assert (len(matroids), elements, loops) == (23, 79, 16)


# matroids on n labeled elements, OEIS A058673
MATROID_COUNTS = {0: 1, 1: 2, 2: 5, 3: 16, 4: 68, 5: 406}
# (connected M, distinct connected proper matroid minor N) pairs per n
MATROID_SPLITTER_PAIRS = {0: 0, 1: 2, 2: 5, 3: 20, 4: 175, 5: 2894}


def all_matroids(n):
    """The circuit clutter of every matroid on '1'..str(n): the clutters with
    no empty row that pass new_matroid's circuit-elimination scan."""
    for M in enumerate_clutters(n):
        if F() in M.rows:
            continue
        try:
            new_matroid(M.ground, M.rows)
        except CircuitAxiomViolation:
            continue
        yield M


def matroid_removals(M):
    """M\\e and M/e of a circuit clutter for every e, where contracting a
    loop deletes it."""
    for e in sorted(M.ground):
        yield delete(M, e)
        yield delete(M, e) if F({e}) in M.rows else contract(M, e)


@functools.lru_cache(maxsize=None)
def matroid_minors(M):
    """Every matroid minor of the circuit clutter M, M included."""
    return F({M}).union(*(matroid_minors(R) for R in matroid_removals(M)))


class TestMatroidSplitterProperty:
    """The abstract's special case: for connected matroids M and N, with N a
    proper minor of M, some M\\e or M/e stays connected and keeps N as a
    minor.  Under matroid minors no empty row arises, so the clutter
    counterexamples (targets ({x}; {∅})) have no counterpart here."""

    @pytest.mark.parametrize("n,count", sorted(MATROID_COUNTS.items()))
    def test_matroid_counts(self, n, count):
        assert sum(1 for _ in all_matroids(n)) == count

    @pytest.mark.parametrize("n", sorted(MATROID_SPLITTER_PAIRS))
    def test_no_counterexamples(self, n):
        tested = failures = 0
        for M in all_matroids(n):
            if not is_connected(M):
                continue
            reach = F().union(
                *(matroid_minors(R) for R in matroid_removals(M) if is_connected(R))
            )
            for N in matroid_minors(M):
                if N.ground != M.ground and is_connected(N):
                    tested += 1
                    failures += N not in reach
        assert (tested, failures) == (MATROID_SPLITTER_PAIRS[n], 0)


class TestFileFormat:
    def test_round_trip(self):
        for N in [uniform(1, 3), uniform(0, 2), k4_graphic_matroid()]:
            assert parse_matroid(serialize_matroid(N)) == N

    def test_header_line(self):
        text = serialize_matroid(uniform(1, 2))
        assert text.splitlines()[0] == "matroid-circuits"

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_matroid("elements 1 2\nrow 1 2\n")

    def test_axioms_validated_on_load(self):
        bad = "matroid-circuits\nelements 1 2 3\nrow 1 2\nrow 2 3\n"
        with pytest.raises(CircuitAxiomViolation):
            parse_matroid(bad)

    def test_comments_ignored(self):
        text = "# fixture\nmatroid-circuits\nelements 1 2\nrow 1 2\n"
        assert parse_matroid(text) == uniform(1, 2)
