"""Clutter construction, minors, separations, and the text format."""

import inspect
import itertools
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    frozen_parts,
    naive_canonical_serialize,
    naive_contract,
    naive_delete,
    naive_separation,
)
import clutters
from clutters import core
from clutters.core import (
    Clutter,
    MinorSpec,
    Separation,
    apply_minor,
    canonical_serialize,
    contract,
    delete,
    find_separation,
    is_connected,
    new_clutter,
    parse_clutter,
)
from clutters.enumeration import enumerate_clutters
from clutters.errors import (
    AntichainViolation,
    BadLabel,
    DuplicateLabel,
    ElementNotFound,
    ForeignElement,
    InvalidSpec,
    ParseError,
)
from clutters.matroid import circuits_clutter, uniform

F = frozenset


def C(ground, *rows):
    return new_clutter(ground, rows)


def key(M):
    """M's (ground, rows) pair, the form core._removals returns."""
    return M.ground, M.rows


def removals(M, v):
    return core._removals(M.ground, M.rows, v)


class TestNewClutter:
    def test_valid(self):
        M = C("123", "12", "23")
        assert M.ground == F("123")
        assert M.rows == F({F("12"), F("23")})

    def test_empty(self):
        M = C("")
        assert M.ground == F() and M.rows == F()

    def test_antichain_violation(self):
        with pytest.raises(AntichainViolation):
            C("12", "1", "12")
        # the containing row is not the last in row order, so the first row
        # must be compared with every later one, not only the last
        with pytest.raises(AntichainViolation, match=r"^row \{1\} is contained in \{1 2\}$"):
            C("123", "1", "12", "23")

    def test_foreign_element(self):
        with pytest.raises(ForeignElement):
            C("12", "13")

    def test_duplicate_label(self):
        # the message names each repeated label once, and no other label
        with pytest.raises(DuplicateLabel, match="^duplicated labels: a c$"):
            new_clutter(["c", "a", "b", "a", "c"], [])

    # 'r:x' would share its name with the incidence-graph vertex of row {x}
    @pytest.mark.parametrize(
        "label", ["-", "a b", "a,b", "", "a\tb", 7, "r:", "r:x"]
    )
    def test_bad_label(self, label):
        with pytest.raises(BadLabel):
            new_clutter([label], [])

    @pytest.mark.parametrize("label", ["r", "xr:", "R:x", "r-x"])
    def test_near_reserved_labels_accepted(self, label):
        assert new_clutter([label], [[label]]).ground == F({label})

    def test_duplicate_rows_collapse(self):
        M = new_clutter("12", [["1", "2"], ["2", "1"]])
        assert len(M.rows) == 1

    def test_empty_row_is_sole_row(self):
        M = new_clutter("1", [[]])
        assert M.rows == F({F()})
        with pytest.raises(AntichainViolation):
            new_clutter("1", [[], ["1"]])


class TestDelete:
    def test_drops_rows_containing_element(self):
        assert delete(C("123", "12", "23"), "2") == C("13")

    def test_keeps_rows_avoiding_element(self):
        assert delete(C("123", "12", "23"), "1") == C("23", "23")

    def test_no_rows(self):
        assert delete(C("1"), "1") == C("")

    def test_missing_element(self):
        with pytest.raises(ElementNotFound):
            delete(C("1"), "2")
        with pytest.raises(ElementNotFound):
            removals(C("1"), "2")

    def test_matches_row_filter_exhaustive(self):
        # _removals builds M\v beside M/v, so it meets the same oracle
        checked = 0
        for n in range(6):
            for M in enumerate_clutters(n):
                for v in M.ground:
                    assert delete(M, v) == naive_delete(M, v), (M, v)
                    assert removals(M, v)[0] == key(naive_delete(M, v)), (M, v)
                checked += 1
        assert checked == 7780


class TestContractCases:
    """contract and _removals over every clutter on n <= 5 and every element v."""

    @staticmethod
    def cases():
        for n in range(6):
            for M in enumerate_clutters(n):
                for v in sorted(M.ground):
                    yield M, v

    def test_element_in_no_row_shares_the_rows(self):
        checked = 0
        for M, v in self.cases():
            (_, deleted), (_, contracted) = removals(M, v)
            if not any(v in A for A in M.rows):
                assert contract(M, v).rows is M.rows
                assert deleted is M.rows and contracted is M.rows
                checked += 1
            else:
                assert deleted is not M.rows and contracted is not M.rows
        assert checked == 946

    def test_singleton_row_contracts_to_the_empty_row(self):
        checked = 0
        for M, v in self.cases():
            if F({v}) in M.rows:
                assert contract(M, v) == Clutter(M.ground - {v}, F({F()}))
                assert removals(M, v)[1] == key(contract(M, v))
                checked += 1
        assert checked == 931


class TestContract:
    def test_neighbours_become_singletons(self):
        M = new_clutter("avb", [["a", "v"], ["v", "b"]])
        assert contract(M, "v") == C("ab", "a", "b")

    def test_empty_row_absorbs(self):
        assert contract(C("12", "1", "2"), "1") == new_clutter("2", [[]])

    def test_minimality_filter(self):
        assert contract(C("123", "12", "13", "23"), "3") == C("12", "1", "2")

    def test_missing_element(self):
        with pytest.raises(ElementNotFound):
            contract(C("1", "1"), "2")
        with pytest.raises(ElementNotFound):
            removals(C("1", "1"), "2")

    def test_matches_pairwise_filter_exhaustive(self):
        checked = 0
        for n in range(6):
            for M in enumerate_clutters(n):
                for v in M.ground:
                    assert contract(M, v) == naive_contract(M, v), (M, v)
                    expected = (key(naive_delete(M, v)), key(naive_contract(M, v)))
                    assert removals(M, v) == expected, (M, v)
                checked += 1
        assert checked == 7780

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_pairwise_filter_sampled(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12), label="n")
        labels = [str(i + 1) for i in range(n)]  # "10" sorts before "2"
        row = st.frozensets(st.sampled_from(labels), max_size=5)
        drawn = set(data.draw(st.lists(row, max_size=16), label="rows"))
        M = new_clutter(labels, [A for A in drawn if not any(B < A for B in drawn)])
        v = data.draw(st.sampled_from(labels), label="v")
        assert contract(M, v) == naive_contract(M, v)
        assert removals(M, v) == (key(naive_delete(M, v)), key(naive_contract(M, v)))


class TestApplyMinor:
    def test_mixed_spec(self):
        M = C("123", "12", "23")
        spec = MinorSpec(F("1"), F("3"))
        assert apply_minor(M, spec) == C("2", "2")

    def test_empty_spec_is_identity(self):
        M = C("123", "12", "23")
        assert apply_minor(M, MinorSpec(F(), F())) == M

    def test_delete_everything(self):
        M = C("12", "12")
        assert apply_minor(M, MinorSpec(F("12"), F())) == C("")

    def test_overlapping_spec(self):
        with pytest.raises(InvalidSpec):
            apply_minor(C("12", "12"), MinorSpec(F("1"), F("1")))

    def test_foreign_spec(self):
        with pytest.raises(InvalidSpec):
            apply_minor(C("12", "12"), MinorSpec(F("3"), F()))

    def test_order_independence_exhaustive(self):
        # canonical order equals every sequential interleaving, n <= 3
        for M in enumerate_clutters(3):
            elems = sorted(M.ground)
            for assignment in itertools.product((0, 1, 2), repeat=len(elems)):
                removed = [
                    (e, a) for e, a in zip(elems, assignment) if a != 0
                ]
                spec = MinorSpec(
                    F(e for e, a in removed if a == 1),
                    F(e for e, a in removed if a == 2),
                )
                expected = apply_minor(M, spec)
                for perm in itertools.permutations(removed):
                    out = M
                    for e, a in perm:
                        out = delete(out, e) if a == 1 else contract(out, e)
                    assert out == expected


class TestCommutativity:
    def test_all_three_clauses_exhaustive(self):
        for M in enumerate_clutters(3):
            for v, w in itertools.permutations(sorted(M.ground), 2):
                assert delete(delete(M, v), w) == delete(delete(M, w), v)
                assert contract(contract(M, v), w) == contract(contract(M, w), v)
                assert contract(delete(M, v), w) == delete(contract(M, w), v)


class TestAntichainPreservation:
    def test_delete_and_contract_stay_valid(self):
        for M in enumerate_clutters(3):
            for v in sorted(M.ground):
                for out in (delete(M, v), contract(M, v)):
                    # re-validation must not raise
                    assert new_clutter(out.ground, out.rows) == out


class TestFindSeparation:
    def test_witness(self):
        assert find_separation(C("12", "1", "2")) == Separation(F("1"), F("2"))

    def test_straddling_row(self):
        assert find_separation(C("12", "12")) is None

    def test_single_element_empty_row(self):
        assert find_separation(new_clutter("1", [[]])) is None

    def test_no_rows_two_elements(self):
        sep = find_separation(C("123"))
        assert sep == Separation(F("1"), F("23"))

    def test_deterministic_least_witness(self):
        # least element goes left; lexicographically first left part wins
        M = C("1234", "12", "34")
        assert find_separation(M) == Separation(F("12"), F("34"))

    def test_matches_bipartition_scan_exhaustive(self):
        checked = 0
        for n in range(6):
            for M in enumerate_clutters(n):
                assert find_separation(M) == naive_separation(M), M
                assert is_connected(M) == (naive_separation(M) is None), M
                checked += 1
        assert checked == 7780

    def test_string_order_of_labels(self):
        # "10" < "2" < "3": the least element is "10", and lex order is by string
        M = new_clutter(["2", "3", "10"], [["2"], ["3", "10"]])
        assert find_separation(M) == Separation(F({"10", "3"}), F({"2"}))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_bipartition_scan_sampled(self, data):
        n = data.draw(st.integers(min_value=0, max_value=12), label="n")
        labels = [str(i + 1) for i in range(n)]  # "10" sorts before "2"
        row = st.frozensets(st.sampled_from(labels), max_size=4) if labels else st.just(F())
        drawn = set(data.draw(st.lists(row, max_size=12), label="rows"))
        rows = [A for A in drawn if not any(B < A for B in drawn)]
        M = new_clutter(labels, rows)
        assert find_separation(M) == naive_separation(M)
        assert is_connected(M) == (naive_separation(M) is None)


class TestPartsOnLongPaths:
    """core._parts on paths, whose edges in order each grow one part by one
    vertex: union by size relabels only the smaller side of each merge."""

    @pytest.mark.parametrize("n", [4000, 8000])
    def test_in_order_and_reversed(self, n):
        edges = [(i, i + 1) for i in range(n)]
        for order in (edges, edges[::-1]):
            assert frozen_parts(core._parts(range(n + 1), order)) == {F(range(n + 1))}

    @pytest.mark.parametrize("n", [4000, 8000])
    def test_one_middle_edge_missing(self, n):
        middle = n // 2
        edges = [(i, i + 1) for i in range(n) if i != middle]
        expected = {F(range(middle + 1)), F(range(middle + 1, n + 1))}
        assert frozen_parts(core._parts(range(n + 1), edges)) == expected


class TestDenseConnectivity:
    """Dense clutters, where most rows lie inside a part already joined and
    the component pass passes them over."""

    @staticmethod
    def check(M):
        assert find_separation(M) == naive_separation(M), M
        assert is_connected(M) == (naive_separation(M) is None)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_uniform_sampled(self, data):
        n = data.draw(st.integers(min_value=0, max_value=12), label="n")
        r = data.draw(st.integers(min_value=0, max_value=n), label="r")
        self.check(circuits_clutter(uniform(r, n)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_many_rows_sampled(self, data):
        # rows of one size drawn inside one or two blocks of the labels, at
        # least as many rows as elements; two blocks are never joined
        n = data.draw(st.integers(min_value=1, max_value=12), label="n")
        labels = [str(i + 1) for i in range(n)]  # "10" sorts before "2"
        cut = data.draw(st.integers(min_value=1, max_value=n), label="cut")
        size = data.draw(st.integers(min_value=1, max_value=4), label="size")
        pool = [
            F(combo)
            for block in (labels[:cut], labels[cut:])
            for combo in itertools.combinations(block, size)
        ]
        assume(len(pool) >= n)
        rows = data.draw(
            st.lists(st.sampled_from(pool), min_size=n, max_size=3 * n, unique=True),
            label="rows",
        )
        self.check(new_clutter(labels, rows))


class TestIsConnected:
    def test_empty_clutter(self):
        assert is_connected(C(""))

    def test_no_rows_disconnected(self):
        assert not is_connected(C("123"))

    def test_path(self):
        assert is_connected(C("123", "12", "23"))

    def test_forty_element_path(self):
        labels = [str(i + 1) for i in range(40)]
        M = new_clutter(labels, [labels[i : i + 2] for i in range(39)])
        assert is_connected(M)
        assert not is_connected(delete(M, "20"))

    def test_degenerate_cases(self):
        assert is_connected(C("1"))
        assert is_connected(new_clutter("", [[]]))
        assert is_connected(new_clutter("1", [[]]))
        assert not is_connected(new_clutter("12", [[]]))


class TestSerialization:
    def test_format(self):
        assert canonical_serialize(C("12", "12")) == "elements 1 2\nrow 1 2\n"

    def test_empty_row_marker(self):
        assert canonical_serialize(new_clutter("1", [[]])) == "elements 1\nrow -\n"

    def test_empty_clutter(self):
        assert canonical_serialize(C("")) == "elements\n"

    def test_row_order_cardinality_then_lex(self):
        M = C("123", "23", "1")
        assert canonical_serialize(M) == "elements 1 2 3\nrow 1\nrow 2 3\n"

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\nelements 1 2\n\nrow 1 2\n"
        assert parse_clutter(text) == C("12", "12")

    def test_round_trip_exhaustive(self):
        for n in range(5):
            for M in enumerate_clutters(n):
                assert parse_clutter(canonical_serialize(M)) == M

    def test_serialization_injective(self):
        texts = {canonical_serialize(M) for M in enumerate_clutters(3)}
        assert len(texts) == 20

    def test_matches_naive_oracle_exhaustive(self):
        for n in range(6):
            for M in enumerate_clutters(n):
                assert canonical_serialize(M) == naive_canonical_serialize(M)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_naive_oracle_sampled(self, data):
        numbers = st.lists(st.integers(1, 12), unique=True, max_size=8)
        labels = [str(i) for i in data.draw(numbers, label="labels")]  # "10" < "2"
        row = st.frozensets(st.sampled_from(labels), max_size=4) if labels else st.just(F())
        drawn = set(data.draw(st.lists(row, max_size=10), label="rows"))  # may hold {}
        M = new_clutter(labels, [A for A in drawn if not any(B < A for B in drawn)])
        assert canonical_serialize(M) == naive_canonical_serialize(M)

    def test_multi_digit_labels_sort_as_text(self):
        M = new_clutter(["2", "10", "3"], [["2", "10"], ["3"]])
        assert canonical_serialize(M) == "elements 10 2 3\nrow 3\nrow 10 2\n"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "rows 1\n",
            "elements 1\nrow\n",
            "elements 1\nboom 1\n",
            "elements a b\nrow - a\n",  # '-' is the empty row, never a member
            "elements a b\nrow a -\n",
            "elements a\nrow - -\n",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_clutter(text)

    def test_parse_validates(self):
        with pytest.raises(AntichainViolation):
            parse_clutter("elements 1 2\nrow 1\nrow 1 2\n")


def test_package_all_lists_every_public_name():
    # the package binds a module's names only once the module has run, and
    # dir() lists them all before that
    public = {
        name
        for name in dir(clutters)
        if not name.startswith("_")
        and not isinstance(getattr(clutters, name), types.ModuleType)
    }
    assert set(clutters.__all__) == public
    for name in clutters.__all__:
        value = getattr(clutters, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("clutters.")
        assert value is getattr(module, name)
    assert clutters.blocker is sys.modules["clutters.blocker"].blocker
    assert clutters.core is core
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        clutters.nonesuch


# Eight threads use the package for the first time at once, each running
# `core` and `minor`; prints the threads still alive and the errors raised.
FIRST_USE = """\
import sys, threading
sys.path.insert(0, sys.argv[1])
sys.setswitchinterval(1e-6)
import clutters
barrier = threading.Barrier(8)
errors = []
def first_use():
    barrier.wait()
    try:
        M = clutters.new_clutter(["a", "b"], [["a", "b"]])
        clutters.has_minor(M, M)
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=first_use) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
print(sum(thread.is_alive() for thread in threads), errors)
"""


def test_first_use_from_many_threads():
    # a submodule runs under a lock, so no thread reads it half-run
    src = str(Path(clutters.__file__).resolve().parents[1])
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-c", FIRST_USE, src],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert proc.stdout == "0 []\n"


def test_record_constructors_take_exactly_their_fields():
    # each record class's compiled __init__ names its fields, in order, and
    # takes no *args or **kwargs, so a constructor stays one call with one
    # slot write per field
    for cls in core._Record.__subclasses__():
        code = cls.__init__.__code__
        assert code.co_varnames[: code.co_argcount] == ("self",) + cls._fields
        assert code.co_kwonlyargcount == 0
        assert not code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS)
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
