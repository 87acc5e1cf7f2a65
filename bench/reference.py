"""Independent reference implementations the benchmark checks outputs against.

Nothing here imports `clutters`: a clutter is a pair (ground, rows) of a
frozenset of labels and a frozenset of frozensets.  Every routine is written
from the definitions (or from the documented output formats) so that a defect
in the program under test cannot also hide in its own oracle.
"""

from __future__ import annotations

import itertools


def make(ground, rows):
    return frozenset(ground), frozenset(frozenset(r) for r in rows)


def minimal(sets):
    kept = []
    for s in sorted(set(sets), key=len):
        if not any(t <= s for t in kept):
            kept.append(s)
    return frozenset(kept)


def delete(C, v):
    ground, rows = C
    return ground - {v}, frozenset(r for r in rows if v not in r)


def contract(C, v):
    ground, rows = C
    return ground - {v}, minimal(r - {v} for r in rows)


def apply(C, deletes, contracts):
    for v in deletes:
        C = delete(C, v)
    for v in contracts:
        C = contract(C, v)
    return C


def connected(C):
    """Union-find over rows: elements sharing a row are joined; the clutter is
    connected iff at most one class remains (empty rows join nothing)."""
    ground, rows = C
    parent = {v: v for v in ground}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for row in rows:
        members = list(row)
        for w in members[1:]:
            parent[root(w)] = root(members[0])
    return len({root(v) for v in ground}) <= 1


def minor_specs(C, target_ground):
    """Every (deletes, contracts) split of E(C) - target_ground, in the
    documented search order: a base-2 counter over ascending labels, delete
    before contract, the least label most significant."""
    removed = sorted(C[0] - target_ground)
    for bits in itertools.product((0, 1), repeat=len(removed)):
        yield (
            tuple(v for v, b in zip(removed, bits) if b == 0),
            tuple(v for v, b in zip(removed, bits) if b == 1),
        )


def first_minor_spec(C, N):
    """The first spec in search order turning C into N, or None (brute force)."""
    if not N[0] <= C[0]:
        return None
    for deletes, contracts in minor_specs(C, N[0]):
        if apply(C, deletes, contracts) == N:
            return deletes, contracts
    return None


def is_transversal(rows, S):
    return all(S & r for r in rows)


def is_minimal_transversal(rows, S):
    return is_transversal(rows, S) and not any(
        is_transversal(rows, S - {v}) for v in S
    )


def blocker(C):
    """Minimal transversals by subset enumeration in ascending size."""
    ground, rows = C
    kept = []
    for k in range(len(ground) + 1):
        for combo in itertools.combinations(sorted(ground), k):
            S = frozenset(combo)
            if not any(t <= S for t in kept) and is_transversal(rows, S):
                kept.append(S)
    return ground, frozenset(kept)


# --- splitter search, from its documented candidate order --------------------


def _row_sets(C):
    """For each element, the set of rows containing it."""
    ground, rows = C
    return {v: frozenset(r for r in rows if v in r) for v in ground}


def candidates(M, N):
    """Removable elements: minimal black vertices of the incidence graph, then
    elements with a twin, then the rest, ascending within each class."""
    adj = _row_sets(M)
    pool = sorted(M[0] - N[0])
    minimal_black = {v for v in M[0] if not any(adj[u] < adj[v] for u in M[0])}
    twinned = {v for v in pool if any(u != v and adj[u] == adj[v] for u in M[0])}
    return (
        [v for v in pool if v in minimal_black]
        + [v for v in pool if v not in minimal_black and v in twinned]
        + [v for v in pool if v not in minimal_black and v not in twinned]
    )


def _remove(M, v, op):
    return delete(M, v) if op == "delete" else contract(M, v)


def splitter_step(M, N):
    """(op, element, result) of the first working removal, or None."""
    for v in candidates(M, N):
        for op in ("delete", "contract"):
            result = _remove(M, v, op)
            if connected(result) and first_minor_spec(result, N) is not None:
                return op, v, result
    return None


def splitter_chain(M, N):
    steps = []
    while M != N:
        step = splitter_step(M, N)
        if step is None:
            return None
        steps.append(step)
        M = step[2]
    return steps


def empty_target(M):
    empty_row = frozenset({frozenset()})
    return frozenset(), empty_row if M[1] == empty_row else frozenset()


# --- documented text formats -------------------------------------------------


def _row_key(row):
    return len(row), tuple(sorted(row))


def serialize(C):
    ground, rows = C
    lines = ["elements" + "".join(" " + v for v in sorted(ground))]
    for row in sorted(rows, key=_row_key):
        lines.append("row " + (" ".join(sorted(row)) if row else "-"))
    return "\n".join(lines) + "\n"


def format_spec(spec):
    if spec is None:
        return "none\n"
    deletes, contracts = spec
    return (
        f"deletes {' '.join(sorted(deletes)) or '-'}\n"
        f"contracts {' '.join(sorted(contracts)) or '-'}\n"
    )


def format_steps(steps):
    out = []
    for op, v, result in steps:
        out.append(f"{op} {v}\n")
        out.extend("  " + line + "\n" for line in serialize(result).splitlines())
    return "".join(out)


def _quote(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot(C):
    ground, rows = C

    def white(row):
        return "r:" + (",".join(sorted(row)) if row else "-")

    lines = ["graph {"]
    for v in sorted(ground):
        lines.append(f"  {_quote(v)} [style=filled, fillcolor=black, fontcolor=white];")
    for w in sorted(white(r) for r in rows):
        lines.append(f"  {_quote(w)};")
    for v, w in sorted((v, white(r)) for r in rows for v in r):
        lines.append(f"  {_quote(v)} -- {_quote(w)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def report_head(M, N):
    """The deterministic opening of a failed-splitter report on stderr: the
    pair, then the outcome of every candidate removal."""
    out = ["splitter search failed: every candidate fails", "", "M:"]
    out += ["  " + ln for ln in serialize(M).splitlines()]
    out.append("N:")
    out += ["  " + ln for ln in serialize(N).splitlines()]
    out += ["", "candidates:"]
    for v in sorted(M[0] - N[0]):
        for op in ("delete", "contract"):
            result = _remove(M, v, op)
            problems = []
            if not connected(result):
                problems.append("result disconnected")
            if first_minor_spec(result, N) is None:
                problems.append("target not a minor of result")
            out.append(f"  {op} {v}: " + ("; ".join(problems) or "works"))
    return "\n".join(out) + "\n\nincidence graph analysis of M:\n"
