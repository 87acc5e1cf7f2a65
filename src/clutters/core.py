"""Clutters and their minors.

A clutter is a finite ground set together with a family of pairwise
incomparable subsets, called rows.  Deleting an element drops it from the
ground set along with every row containing it; contracting an element strips
it from every row and keeps only the inclusion-minimal results.  Both
operations preserve the antichain property, and their order never matters.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from operator import attrgetter

from .errors import (
    AntichainViolation,
    BadLabel,
    DuplicateLabel,
    ElementNotFound,
    ForeignElement,
    InvalidSpec,
    ParseError,
)


def _members(labels: Iterable[str]) -> str:
    """Labels ascending and space-separated, or the token '-' when there are
    none, as the line format writes an empty row."""
    return " ".join(sorted(labels)) or "-"


def row_sort_key(row: frozenset) -> tuple:
    """Canonical row order: by cardinality, then by ascending member labels."""
    return (len(row), tuple(sorted(row)))


class _Record:
    """Base of the package's immutable values.

    A record class names its fields, in order, as its `__slots__`.  A record
    is built from its fields by position or keyword, cannot be changed after
    construction, equals only a record of the same class with equal fields,
    hashes as the tuple of its fields, and pickles and copies by calling its
    class with its fields.  Fields are not inherited: every record class
    derives from `_Record` directly.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = fields = cls.__slots__
        # __init__(self, <fields>) is compiled for each class, as dataclasses
        # does: Python binds the fields by position or keyword and raises the
        # TypeError, and each value goes to its slot's own setter, which
        # bypasses the guarded __setattr__.  A generic __init__(*args,
        # **kwargs) made verify-theorem p50 go from 2.08 to 2.21 ms, slower
        # in 6 of 6 bench pairs (Python 3.11, shared 2-vCPU VM)
        namespace = {f"_set_{name}": vars(cls)[name].__set__ for name in fields}
        body = "".join(f"\n    _set_{name}(self, {name})" for name in fields)
        exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        if len(fields) > 1:
            values = attrgetter(*fields)
        else:  # attrgetter of one name returns the bare value, not a tuple
            values = lambda record: tuple(getattr(record, f) for f in fields)
        cls._values = staticmethod(values)  # record -> tuple of its fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # unpickling and copying call the class, not the guarded __setattr__
        return (self.__class__, self._values(self))


class Clutter(_Record):
    """Immutable clutter value; construct through new_clutter or parse_clutter."""

    __slots__ = ("ground", "rows")

    def __repr__(self) -> str:
        g = " ".join(sorted(self.ground))
        rs = ", ".join(
            "{" + " ".join(sorted(r)) + "}" for r in sorted(self.rows, key=row_sort_key)
        )
        return f"Clutter([{g}] {rs})" if rs else f"Clutter([{g}])"


class Separation(_Record):
    """A bipartition of the ground set with every row inside one part."""

    __slots__ = ("left", "right")


class MinorSpec(_Record):
    """Disjoint delete/contract element sets describing a minor."""

    __slots__ = ("deletes", "contracts")

    def __repr__(self) -> str:
        d, c = _members(self.deletes), _members(self.contracts)
        return f"MinorSpec(deletes {d}, contracts {c})"


def _check_label(label) -> str:
    if not isinstance(label, str) or not label:
        raise BadLabel(f"labels must be non-empty text, got {label!r}")
    if any(ch.isspace() for ch in label) or "," in label or label == "-":
        # whitespace breaks the line format, ',' breaks row keys, '-' is the
        # empty-row marker; all three would destroy serialization round-trips
        raise BadLabel(f"label {label!r} contains a reserved character")
    if label.startswith("r:"):
        # incidence graphs name row vertices 'r:<members>'
        raise BadLabel(f"label {label!r} uses the reserved row prefix 'r:'")
    return label


def new_clutter(ground: Iterable[str], rows: Iterable[Iterable[str]]) -> Clutter:
    """Validate raw input and build a clutter.

    Raises BadLabel, DuplicateLabel, ForeignElement or AntichainViolation.
    """
    labels = [_check_label(e) for e in ground]
    if len(labels) != len(set(labels)):
        dupes = sorted(e for e, count in Counter(labels).items() if count > 1)
        raise DuplicateLabel(f"duplicated labels: {' '.join(dupes)}")
    ground_set = frozenset(labels)
    row_sets = frozenset(frozenset(r) for r in rows)
    for r in row_sets:
        for e in r:
            if e not in ground_set:
                raise ForeignElement(f"row member {e!r} is not a ground element")
    ordered = sorted(row_sets, key=row_sort_key)
    for i, small in enumerate(ordered):
        for big in ordered[i + 1 :]:
            if small < big:
                raise AntichainViolation(
                    f"row {{{' '.join(sorted(small))}}} is contained in "
                    f"{{{' '.join(sorted(big))}}}"
                )
    return Clutter(ground_set, row_sets)


def delete(M: Clutter, v: str) -> Clutter:
    """Remove v from the ground set and discard every row containing it."""
    if v not in M.ground:
        raise ElementNotFound(f"no element {v!r}")
    return Clutter(M.ground - {v}, frozenset(A for A in M.rows if v not in A))


def contract(M: Clutter, v: str) -> Clutter:
    """Strip v from every row and keep the inclusion-minimal results: the
    clutter of _removals' M/v pair, which shares M's rows if no row holds v."""
    return Clutter(*_removals(M.ground, M.rows, v)[1])


def _removals(ground: frozenset, rows: frozenset, v: str) -> tuple:
    """The (ground, rows) pairs of delete(M, v) and contract(M, v) for the
    clutter M = (ground, rows), built without a clutter from one pass that
    splits the rows into the untouched ones, M\\v's rows, and those that
    held v, stripped of it.

    When no row holds v the two pairs are one, which shares M's rows object,
    whose hash is already cached.  Otherwise M/v's rows are the stripped rows
    and each untouched row that contains no stripped row: both kinds form
    antichains, and a stripped row A - {v} never contains an untouched row,
    which would then lie inside the row A.
    """
    if v not in ground:
        raise ElementNotFound(f"no element {v!r}")
    vs = frozenset((v,))
    rest = ground - vs
    kept, stripped = [], []
    for A in rows:
        if v in A:
            stripped.append(A - vs)
        else:
            kept.append(A)
    if not stripped:
        key = (rest, rows)
        return key, key
    minimal = set(stripped)
    for A in kept:
        for S in stripped:
            if S <= A:
                break
        else:
            minimal.add(A)
    return (rest, frozenset(kept)), (rest, frozenset(minimal))


def apply_minor(M: Clutter, spec: MinorSpec) -> Clutter:
    """Apply a minor spec in the canonical order: deletions first, ascending label.

    Any interleaving gives the same result, so the canonical choice is safe.
    """
    deletes = frozenset(spec.deletes)
    contracts = frozenset(spec.contracts)
    if deletes & contracts:
        raise InvalidSpec("delete and contract sets overlap")
    if not deletes <= M.ground or not contracts <= M.ground:
        raise InvalidSpec("spec mentions elements outside the ground set")
    out = M
    for v in sorted(deletes):
        out = delete(out, v)
    for v in sorted(contracts):
        out = contract(out, v)
    return out


def _parts(vertices: Iterable, edges: Iterable) -> dict:
    """Each vertex's part: its component in the hypergraph with these vertices
    and edges (collections of vertices), such as the elements and the rows.

    A part is a list of its members, and every member maps to that one list
    object, so parts compare by identity.  Union by size (Tarjan 1975): an
    edge merges each part it meets into the largest one met so far, and only
    the smaller part's members are relabeled.  A vertex is relabeled only
    when its part at least doubles, so the work is linear in the total edge
    size plus V log V for V vertices, whatever order the edges come in.
    Once a part holds every vertex the map is final, and the remaining edges
    are not read; an edge inside one part, which dense clutters make the
    common case, merges nothing.
    """
    part = {v: [v] for v in vertices}
    whole = len(part)
    for edge in edges:
        big = None
        for v in edge:
            small = part[v]
            if big is None:
                big = small
            elif small is not big:
                if len(small) > len(big):
                    big, small = small, big
                big += small
                for u in small:
                    part[u] = big
        if big is not None and len(big) == whole:
            break
    return part


def _spans(vertices: Iterable, edges: Iterable) -> bool:
    """True iff the hypergraph with these vertices and edges has at most one
    component: the first vertex's part holds every vertex."""
    part = _parts(vertices, edges)
    return len(next(iter(part.values()), ())) == len(part)


def find_separation(M: Clutter) -> Separation | None:
    """A witness separation, or None if the clutter is connected.

    Deterministic: of the valid left parts containing the least element, the
    one whose sorted tuple comes first lexicographically wins.  The valid left
    parts are the proper unions of components that include the least
    element's component, so the winner is built greedily: while the smallest
    element still outside lies below the largest element inside, and its
    component does not complete the ground, take that component in too.
    """
    if not M.ground:
        return None
    part = _parts(M.ground, M.rows)
    elems = sorted(M.ground)
    left = set(part[elems[0]])
    if len(left) == len(elems):
        return None
    for e in elems:
        if e in left:
            continue
        if e > max(left) or len(left) + len(part[e]) == len(elems):
            break
        left.update(part[e])
    left = frozenset(left)
    return Separation(left, M.ground - left)


def is_connected(M: Clutter) -> bool:
    """True iff the clutter admits no separation: the hypergraph of its rows
    over its elements has at most one component.

    An empty row joins no elements, so ({x}; {∅}) counts as connected, as
    does any clutter on at most one element.  It is the only clutter whose
    incidence graph disagrees: there the empty row is an isolated white
    vertex beside the black vertex x.
    """
    return _spans(M.ground, M.rows)


def canonical_serialize(M: Clutter) -> str:
    """Bit-exact canonical text; equal clutters serialize identically.

    Line 1 lists the ground ascending; each row line lists members ascending,
    with the empty row written as 'row -'.  Rows are ordered by cardinality,
    then lexicographically: row_sort_key's order.

    Each row is sorted once, into a (cardinality, members) key that both
    orders the rows and gives the line.  Over every clutter on n<=5 elements
    a call takes about 7.3 µs, where sorting each row again for its line, as
    row_sort_key and _members would, took about 10 µs (Python 3.11, 2-vCPU
    VM).
    """
    lines = ["elements" + "".join(" " + e for e in sorted(M.ground))]
    for _, members in sorted([(len(row), sorted(row)) for row in M.rows]):
        lines.append("row " + (" ".join(members) or "-"))
    return "\n".join(lines) + "\n"


def parse_clutter(text: str) -> Clutter:
    """Parse the canonical clutter format; '#' lines and blank lines are ignored."""
    lines = [
        ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")
    ]
    if not lines:
        raise ParseError("no content: expected an 'elements' line")
    head = lines[0].split()
    if head[0] != "elements":
        raise ParseError(f"first line must start with 'elements', got {lines[0]!r}")
    ground = head[1:]
    rows = []
    for ln in lines[1:]:
        tokens = ln.split()
        if tokens[0] != "row":
            raise ParseError(f"expected a 'row' line, got {ln!r}")
        if len(tokens) == 1:
            raise ParseError("empty row must be written 'row -'")
        members = tokens[1:]
        if "-" in members and members != ["-"]:
            raise ParseError(f"'-' marks the empty row and stands alone, got {ln!r}")
        rows.append([] if members == ["-"] else members)
    return new_clutter(ground, rows)
