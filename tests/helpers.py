"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own enumeration and minimality code
so they can serve as independent cross-checks.  The identity-family oracle
is the exception: it walks enumerate_clutters in the verifier's order, one
generator per family, so that its report can be compared byte for byte.
"""

import itertools

from clutters import core, graphview
from clutters.blocker import blocker
from clutters.core import Clutter, MinorSpec, Separation, apply_minor, row_sort_key
from clutters.enumeration import (
    CheckResult,
    VerificationReport,
    enumerate_clutters,
    enumerate_connected,
)
from clutters.minor import all_minors, has_minor

F = frozenset


def all_subsets(ground):
    elems = sorted(ground)
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            yield F(combo)


def naive_antichain_families(ground):
    """Every antichain family over the given ground, by filtering all 2^(2^n)
    subset families.  Usable up to four elements."""
    subsets = list(all_subsets(ground))
    for picks in itertools.product((0, 1), repeat=len(subsets)):
        family = [s for s, p in zip(subsets, picks) if p]
        if all(
            not (a <= b or b <= a)
            for a, b in itertools.combinations(family, 2)
        ):
            yield F(family)


def naive_clutters(ground):
    ground = F(ground)
    for family in naive_antichain_families(ground):
        yield Clutter(ground, family)


def naive_enumerate_clutters(n):
    """enumerate_clutters(n) the slow way: canonical growth over the subsets
    in row_sort_key order, each candidate tested against every chosen subset.
    No subset lies inside an earlier one, so only a chosen subset inside the
    candidate bars it."""
    labels = [str(i + 1) for i in range(n)]
    ground = F(labels)
    subsets = sorted(all_subsets(labels), key=row_sort_key)

    def grow(start, chosen):
        yield Clutter(ground, F(chosen))
        for i in range(start, len(subsets)):
            s = subsets[i]
            if not any(t <= s for t in chosen):
                yield from grow(i + 1, chosen + [s])

    yield from grow(0, [])


def predicted_counterexamples(n):
    """The closed-form family of splitter-property failures on the ground
    '1'..str(n), n >= 3, as (M, N) pairs.

    For each c in E and each A within E - c with |A| >= n - 2, M has the
    rows {c, a} for a in A and the row E - c.  The target is
    N = ({x}; {empty row}), where x = c if A = E - c and otherwise x is the
    one element of E - c - A.  So n choices of c and n of x give n² pairs.
    """
    ground = [str(i + 1) for i in range(n)]
    pairs = []
    for c in ground:
        rest = [e for e in ground if e != c]
        for x in [c] + rest:
            rows = [[c, a] for a in rest if a != x] + [rest]
            pairs.append((core.new_clutter(ground, rows), core.new_clutter([x], [[]])))
    return pairs


def frozenset_blocker(M):
    """The blocker by Berge's row-by-row loop with every test on frozensets:
    the algorithm of `blocker` without its bit encoding.  An oracle for
    grounds above the 20 elements that `blocker_by_enumeration` covers.

    For each row A in canonical order, the partial transversals meeting A
    are kept, and each missed one t is extended to t | {a} for every a in A
    unless that contains a kept set meeting A in a alone."""
    partial = {F()}
    for A in sorted(M.rows, key=row_sort_key):
        missed, meeting = [], set()
        holders = {a: [] for a in A}  # a -> kept sets k with k & A == {a}
        for t in partial:
            hit = t & A
            if not hit:
                missed.append(t)
                continue
            meeting.add(t)
            if len(hit) == 1:
                (a,) = hit
                holders[a].append(t)
        for t in missed:
            for a in A:
                c = t | {a}
                if not any(k <= c for k in holders[a]):
                    meeting.add(c)
        partial = meeting
    return Clutter(M.ground, F(partial))


def naive_separation(M):
    """The lexicographically first separation by brute force over all 2^(n-1)
    left parts that contain the least element, or None if M is connected."""
    elems = sorted(M.ground)
    if len(elems) <= 1:
        return None
    least, rest = elems[0], elems[1:]
    combos = sorted(
        combo for r in range(len(rest)) for combo in itertools.combinations(rest, r)
    )
    for combo in combos:
        left = F((least,) + combo)
        right = M.ground - left
        if all(A <= left or A <= right for A in M.rows):
            return Separation(left, right)
    return None


def connected_rows(labels, rows):
    """A connected antichain on labels built from the antichain rows of
    nonempty sets: each element in no row joins the first row, then, while a
    separation splits the ground, one row from each side merge into their
    union.  A row inside the union lies inside one of the two, so the rows
    stay an antichain."""
    rows = list(rows) or [F(labels)]
    rows[0] = rows[0].union(set(labels).difference(*rows))
    while (sep := naive_separation(core.new_clutter(labels, rows))) is not None:
        A = next(R for R in rows if R <= sep.left)
        B = next(R for R in rows if R <= sep.right)
        rows = [R for R in rows if R not in (A, B)] + [A | B]
    return core.new_clutter(labels, rows)


def naive_canonical_serialize(M):
    """canonical_serialize the slow way: the rows ordered by a (cardinality,
    sorted members) key, and each row sorted again for its line, '-' when
    it is empty."""
    lines = ["elements" + "".join(" " + e for e in sorted(M.ground))]
    for row in sorted(M.rows, key=lambda row: (len(row), tuple(sorted(row)))):
        lines.append("row " + (" ".join(sorted(row)) or "-"))
    return "\n".join(lines) + "\n"


def naive_splitter_failures(M):
    """(tested, failures) of the splitter property for a connected M by
    brute force: tested counts M's connected proper minors, met through
    all_minors, and failures lists, in all_minors order, those that no
    connected single removal of M has among its all_minors."""
    proper = [
        N
        for N in dict.fromkeys(N for _, N in all_minors(M))
        if N.ground != M.ground and naive_separation(N) is None
    ]
    removals = [f(M, v) for v in M.ground for f in (naive_delete, naive_contract)]
    reach = set()
    for R in removals:
        if naive_separation(R) is None:
            reach.update(N for _, N in all_minors(R))
    return len(proper), [N for N in proper if N not in reach]


def frozen_parts(part):
    """The distinct parts of a core._parts map, each frozen once, after
    checking that every vertex lies in the part it maps to."""
    frozen = {}  # id of each part -> the part, frozen
    for v, members in part.items():
        if id(members) not in frozen:
            frozen[id(members)] = F(members)
        assert v in frozen[id(members)]
    return set(frozen.values())


def naive_delete(M, v):
    """Drop v from the ground and keep the rows that avoid it."""
    return Clutter(M.ground - {v}, F(A for A in M.rows if v not in A))


def naive_contract(M, v):
    """Strip v from every row, then keep the rows no other stripped row lies
    strictly inside: a pairwise minimality filter."""
    stripped = {A - {v} for A in M.rows}
    return Clutter(
        M.ground - {v}, F(S for S in stripped if not any(T < S for T in stripped))
    )


def naive_has_minor(M, N):
    """The first spec turning M into N over all 2^k delete/contract
    assignments of the removed elements, run as a base-2 counter over
    ascending labels with delete before contract; None if there is none.
    Each spec goes through `apply_minor`, whose `contract` the tests check
    against `naive_contract`."""
    if not N.ground <= M.ground:
        return None
    removed = sorted(M.ground - N.ground)
    for assignment in itertools.product((1, 2), repeat=len(removed)):
        spec = MinorSpec(
            F(e for e, a in zip(removed, assignment) if a == 1),
            F(e for e, a in zip(removed, assignment) if a == 2),
        )
        if apply_minor(M, spec) == N:
            return spec
    return None


def naive_candidate_elements(M, N):
    """The splitter candidate order ranked on M's incidence graph: minimal
    black vertices first, then elements with twins, then the rest, ascending
    within each class."""
    G = graphview.incidence_graph(M)
    minimal = graphview.minimal_black_vertices(G)
    return sorted(
        sorted(M.ground - N.ground),
        key=lambda v: 0 if v in minimal else 1 if graphview.twins(G, v) else 2,
    )


def naive_chain_steps(M, N, limit=None):
    """The splitter chain from M down to N as a list of formatted steps, each
    the first connected removal keeping N as a minor in
    naive_candidate_elements order, delete before contract; at most limit
    steps if given.  A step with no such removal raises StopIteration."""
    out = []
    while M != N and len(out) != limit:
        M, text = next(
            (R, f"{op} {v}\n")
            for v in naive_candidate_elements(M, N)
            for op, R in (("delete", core.delete(M, v)), ("contract", core.contract(M, v)))
            if core.is_connected(R) and has_minor(R, N) is not None
        )
        body = core.canonical_serialize(M).splitlines()
        out.append(text + "".join(f"  {line}\n" for line in body))
    return out


def _tally(name, cases, holds, label):
    """Count the cases of one identity family; label names each failure."""
    tested = passed = 0
    failures = []
    for case in cases:
        tested += 1
        if holds(*case):
            passed += 1
        else:
            failures.append(label(*case))
    return CheckResult(name, tested, passed, tuple(failures))


def _commutes(M, v, w):
    delete, contract = core.delete, core.contract
    return (
        delete(delete(M, v), w) == delete(delete(M, w), v)
        and contract(contract(M, v), w) == contract(contract(M, w), v)
        and contract(delete(M, v), w) == delete(contract(M, w), v)
    )


def _swaps_duality(M, v, b):
    return blocker(core.delete(M, v)) == core.contract(b, v) and blocker(
        core.contract(M, v)
    ) == core.delete(b, v)


def _contracts_twin(M, v, G):
    contracted = core.contract(M, v)
    return graphview.incidence_graph(
        contracted
    ) == graphview.remove_black_vertex(G, v) and core.is_connected(contracted)


def _deletes_neighbourhood(M, v, G):
    direct = graphview.incidence_graph(core.delete(M, v))
    return direct == graphview.delete_closed_neighbourhood(G, v)


def _with_elements(clutters, extra):
    """(M, v, extra(M)) for every element v of every clutter M."""
    for M in clutters:
        side = extra(M)
        for v in sorted(M.ground):
            yield M, v, side


def _with_twins(n):
    for M, v, G in _with_elements(enumerate_connected(n), graphview.incidence_graph):
        if graphview.twins(G, v):
            yield M, v, G


def _inline(M):
    return core.canonical_serialize(M).strip().replace("\n", "; ")


def _label_m(M, *_):
    return f"M=({_inline(M)})"


def _label_mv(M, v, *_):
    return f"M=({_inline(M)}) v={v}"


def naive_identity_report(n):
    """verify_identities(n) the slow way: one enumeration and one generator
    per family, every removal and blocker recomputed for each case."""
    families = (
        (
            "deletion-contraction-commutativity",
            (
                (M, v, w)
                for M in enumerate_clutters(n)
                for v, w in itertools.permutations(sorted(M.ground), 2)
            ),
            _commutes,
            lambda M, v, w: f"M=({_inline(M)}) v={v} v'={w}",
        ),
        (
            "blocker-involution",
            ((M,) for M in enumerate_clutters(n)),
            lambda M: blocker(blocker(M)) == M,
            _label_m,
        ),
        (
            "duality-swap",
            _with_elements(enumerate_clutters(n), blocker),
            _swaps_duality,
            _label_mv,
        ),
        (
            "connectivity-equivalence",
            ((M,) for M in enumerate_clutters(n)),
            graphview.graph_connected_iff_clutter_connected,
            _label_m,
        ),
        ("twin-contraction", _with_twins(n), _contracts_twin, _label_mv),
        (
            "deletion-graph-correspondence",
            _with_elements(enumerate_clutters(n), graphview.incidence_graph),
            _deletes_neighbourhood,
            _label_mv,
        ),
    )
    return VerificationReport(tuple(_tally(*family) for family in families))
