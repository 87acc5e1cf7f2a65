"""The benchmark's workloads: seeded inputs, one round of units, and oracles.

A workload builds its inputs once (`build`, the timed set-up) and then
describes one round as a list of units.  A unit is one call the loop times:
one `verify_*` call, one primitive call, or one CLI command.  Each unit
carries its own oracle, written against `reference` and never against the
function under test.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

SRC = Path(__file__).resolve().parent.parent / "src"  # the package under test


@dataclass
class Unit:
    name: str  # call class, e.g. "has_minor.miss"; the same for every seed
    ops: int  # operations the unit performs, for throughput
    run: Callable[[], object]
    check: Callable[[object], bool]


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _labels(rng, n):
    """n distinct short labels in random order."""
    pool = [f"{a}{i}" for a in "abcdefghjkmnpqrstuvwxyz" for i in range(100)]
    return rng.sample(pool, n)


def _value(C):
    """A `clutters.Clutter` as a reference pair."""
    return C.ground, C.rows


# --- verify-theorem / verify-identities ---------------------------------------

THEOREM_N = 4
THEOREM_SUMMARY = "theorem n=4: tested=1806 passed=1790 counterexamples=16"
THEOREM_PAIRS = 1806
_COUNTEREXAMPLE = re.compile(r"^  M=\((.*)\)  N=\(elements (\S+); row -\)$")

IDENTITY_COUNTS = (
    ("deletion-contraction-commutativity", 2016),
    ("blocker-involution", 168),
    ("duality-swap", 672),
    ("connectivity-equivalence", 168),
    ("twin-contraction", 52),
    ("deletion-graph-correspondence", 672),
)


def _parse_inline(text):
    """'elements 1 2; row 1 2; row -' -> reference clutter."""
    parts = text.split("; ")
    head = parts[0].split()
    if head[0] != "elements":
        raise ValueError(text)
    rows = []
    for part in parts[1:]:
        tokens = part.split()
        if tokens[0] != "row":
            raise ValueError(text)
        rows.append([] if tokens[1:] == ["-"] else tokens[1:])
    return ref.make(head[1:], rows)


def check_theorem_report(report):
    """1806 pairs, 16 counterexamples, each a distinct connected M on 1..4
    with target ({x}; {empty row}) for some element x of M."""
    lines = report.render().splitlines()
    if len(lines) != 17 or lines[0] != THEOREM_SUMMARY:
        return False
    seen = set()
    for line in lines[1:]:
        match = _COUNTEREXAMPLE.match(line)
        if match is None:
            return False
        M = _parse_inline(match.group(1))
        x = match.group(2)
        if M[0] != frozenset("1234") or x not in M[0] or not ref.connected(M):
            return False
        seen.add((M, x))
    return len(seen) == 16


def check_identities_report(report):
    expected = "".join(
        f"{name}: tested={count} passed={count} counterexamples=0\n"
        for name, count in IDENTITY_COUNTS
    )
    return report.render() == expected


class Workload:
    name = ""
    in_children = False  # True when units run as child processes


class VerifyTheorem(Workload):
    name = "verify-theorem"

    def build(self, clutters, seed, workdir):
        return None  # exhaustive: no inputs to make

    def round(self, clutters, inputs, in_process):
        return [
            Unit("verify_theorem", THEOREM_PAIRS,
                 lambda: clutters.verify_theorem(THEOREM_N), check_theorem_report)
        ]


class VerifyIdentities(Workload):
    name = "verify-identities"

    def build(self, clutters, seed, workdir):
        return None

    def round(self, clutters, inputs, in_process):
        cases = sum(count for _, count in IDENTITY_COUNTS)
        return [
            Unit("verify_identities", cases,
                 lambda: clutters.verify_identities(THEOREM_N), check_identities_report)
        ]


# --- large-inputs ----------------------------------------------------------------

UNIFORM = ((2, 8), (3, 9), (3, 10), (3, 11))  # (rank, elements) of each M
TARGET_SIZES = (5, 6)  # labels kept in each has_minor target
HIT_CONTRACTS = (0, 1, 2, 3)  # contracted elements in a hit's hidden spec
# is_connected calls per size of sparse connected clutter.  The two largest
# sizes get five each so that the p90 rank of a round falls inside their
# cost tier rather than on the edge between tiers.
SPARSE_CALLS = {12: 4, 13: 4, 14: 4, 15: 4, 16: 5, 17: 5}
# Sizes of the disconnected ones, so that an is_connected that wrongly
# answers True cannot pass.
DISCONNECTED_SIZES = (12, 13)


def _sparse_connected(rng, labels):
    """A random spanning tree of 2-rows plus two 3-rows that contain none of
    them: sparse and connected, so is_connected must scan every bipartition."""
    order = labels[:]
    rng.shuffle(order)
    rows = {frozenset((order[i], order[rng.randrange(i)])) for i in range(1, len(order))}
    extra = set()
    while len(extra) < 2:
        triple = frozenset(rng.sample(labels, 3))
        if not any(r <= triple for r in rows):
            extra.add(triple)
    return ref.make(labels, rows | extra)


def _sparse_disconnected(rng, labels):
    """Two sparse connected clutters side by side, on a random split of the
    labels: is_connected must find the separation."""
    cut = len(labels) // 2
    left = _sparse_connected(rng, labels[:cut])
    right = _sparse_connected(rng, labels[cut:])
    return ref.make(labels, left[1] | right[1])


def _hyperpath(labels):
    """3-rows, each sharing one element with the next; with an even number
    of labels the last row wraps round to the first label."""
    n = len(labels)
    rows = [labels[i:i + 3] for i in range(0, n - 2, 2)]
    if (n - 1) % 2:
        rows.append([labels[-2], labels[-1], labels[0]])
    return ref.make(labels, rows)


def _miss_targets(keep):
    """Clutters on `keep` that are not minors of a uniform-matroid clutter
    (every such minor is uniform): a path of 2-rows, and the 3-subsets of
    `keep` less one."""
    path = ref.make(keep, [keep[i:i + 2] for i in range(len(keep) - 1)])
    triples = sorted(sorted(c) for c in itertools.combinations(keep, 3))
    return [path, ref.make(keep, triples[1:])]


class LargeInputs(Workload):
    name = "large-inputs"

    def build(self, clutters, seed, workdir):
        rng = _rng(self.name, seed)
        new = clutters.new_clutter
        cases = []  # (class, callable name, args as clutters, reference args)

        for r, n in UNIFORM:
            labels = _labels(rng, n)
            M = clutters.circuits_clutter(clutters.uniform(r, n, labels))
            refM = _value(M)
            cases.append(("is_connected.uniform", "is_connected", (M,), (refM,)))
            cases.append(("blocker.uniform", "blocker", (M,), (refM,)))
            cases.append(("chain_to_empty", "chain_to_empty", (M,), (refM,)))
            for k in TARGET_SIZES:
                for c in HIT_CONTRACTS:
                    keep = rng.sample(labels, k)
                    removed = [v for v in labels if v not in keep]
                    rng.shuffle(removed)
                    refN = ref.apply(refM, removed[c:], removed[:c])
                    N = new(refN[0], refN[1])
                    cases.append(("has_minor.hit", "has_minor", (M, N), (refM, refN)))
                    if k == TARGET_SIZES[0] and c == 1:
                        cases.append(("chain", "chain", (M, N), (refM, refN)))
                for refN in _miss_targets(rng.sample(labels, k)):
                    N = new(refN[0], refN[1])
                    cases.append(("has_minor.miss", "has_minor", (M, N), (refM, refN)))

        for n, calls in SPARSE_CALLS.items():
            for _ in range(calls):
                refC = _sparse_connected(rng, _labels(rng, n))
                C = new(refC[0], refC[1])
                cases.append(("is_connected.sparse", "is_connected", (C,), (refC,)))
            refH = _hyperpath(_labels(rng, n))
            H = new(refH[0], refH[1])
            cases.append(("blocker.hyperpath", "blocker", (H,), (refH,)))
            refT = _sparse_connected(rng, _labels(rng, n))
            T = new(refT[0], refT[1])
            cases.append(("blocker.sparse", "blocker", (T,), (refT,)))
        for n in DISCONNECTED_SIZES:
            refD = _sparse_disconnected(rng, _labels(rng, n))
            D = new(refD[0], refD[1])
            cases.append(("is_connected.disconnected", "is_connected", (D,), (refD,)))

        rng.shuffle(cases)
        return cases

    def round(self, clutters, cases, in_process):
        units = []
        for cls, fname, args, refargs in cases:
            # looked up per call, so a traced round calls the traced binding
            units.append(Unit(cls, 1, lambda f=fname, a=args: getattr(clutters, f)(*a),
                              lambda out, f=fname, a=refargs: _CHECKS[f](out, *a)))
        return units


def _check_connected(out, C):
    return out is ref.connected(C)


def _check_has_minor(out, M, N):
    if out is None:  # a miss: confirm by brute force over every spec
        return ref.first_minor_spec(M, N) is None
    deletes, contracts = out.deletes, out.contracts
    return (
        not deletes & contracts
        and deletes | contracts == M[0] - N[0]
        and ref.apply(M, sorted(deletes), sorted(contracts)) == N
    )


def _check_chain_steps(M, steps, target):
    """Each step removes one element of the previous clutter by its named
    operation, stays connected, and the last result is the target."""
    current = M
    for step in steps:
        if step.op not in ("delete", "contract") or step.element not in current[0]:
            return False
        remove = ref.delete if step.op == "delete" else ref.contract
        expected, current = remove(current, step.element), _value(step.result)
        if current != expected or not ref.connected(current):
            return False
    return current == target


def _check_chain(out, M, N):
    return _value(out.start) == M and _check_chain_steps(M, out.steps, N)


def _check_chain_to_empty(out, M):
    return _value(out.start) == M and _check_chain_steps(M, out.steps, ref.empty_target(M))


def _check_blocker(out, M):
    ground, rows = _value(out)
    return (
        ground == M[0]
        and all(ref.is_minimal_transversal(M[1], T) for T in rows)
        # blocking is an involution, so M's rows are minimal transversals of
        # the blocker: a cheap necessary check that no row is missing
        and all(ref.is_minimal_transversal(rows, A) for A in M[1])
    )


_CHECKS = {
    "is_connected": _check_connected,
    "has_minor": _check_has_minor,
    "chain": _check_chain,
    "chain_to_empty": _check_chain_to_empty,
    "blocker": _check_blocker,
}


# --- cli-fixtures -------------------------------------------------------------


def _small_connected(rng, labels):
    """A random spanning tree of 2-rows plus two random 2-rows."""
    order = labels[:]
    rng.shuffle(order)
    rows = [frozenset((order[i], order[rng.randrange(i)])) for i in range(1, len(order))]
    rows += [frozenset(rng.sample(labels, 2)) for _ in range(2)]
    return ref.make(labels, rows)


def _random_minor(rng, M):
    """M with two random elements deleted and a third contracted."""
    removed = rng.sample(sorted(M[0]), 3)
    return ref.apply(M, removed[1:], removed[:1])


def _connected_minor(rng, M):
    """A connected proper minor N of M that has a splitter chain from M."""
    elems = sorted(M[0])
    while True:
        k = rng.randrange(2, len(elems) - 1)
        removed = rng.sample(elems, k)
        c = rng.randrange(k + 1)
        N = ref.apply(M, removed[c:], removed[:c])
        if N[1] and ref.connected(N) and ref.splitter_chain(M, N) is not None:
            return N


def _non_minor(rng, M):
    """A 3-label path that is not a minor of M (brute force)."""
    elems = sorted(M[0])
    while True:
        keep = rng.sample(elems, 3)
        N = ref.make(keep, [keep[:2], keep[1:]])
        if ref.first_minor_spec(M, N) is None:
            return N


MALFORMED = "elements a b\nrows a b\n"


class CliFixtures(Workload):
    name = "cli-fixtures"
    in_children = True

    def build(self, clutters, seed, workdir):
        """Write the fixture files; returns {key: (path, reference clutter)}."""
        rng = _rng(self.name, seed)
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        P = _small_connected(rng, _labels(rng, 7))
        U = _value(clutters.circuits_clutter(clutters.uniform(2, 5, _labels(rng, 5))))
        K4 = _value(clutters.circuits_clutter(clutters.k4_graphic_matroid()))
        half = _labels(rng, 6)
        D = ref.make(half, [half[0:2], half[1:3], half[3:5], half[4:6]])
        a, b, c = sorted(_labels(rng, 3))
        path3 = ref.make((a, b, c), [(a, b), (b, c)])
        end3 = ref.make((c,), [()])
        # A pair on which plain ascending order would pick another step than
        # the candidate classes do; the labels keep their relative order.
        a, b, c, d, e = sorted(_labels(rng, 5))
        ordered = ref.make((a, b, c, d, e), [(c, e), (a, b, d), (a, b, e)])
        ordered_sub = ref.make((b, d), [(b, d)])
        fixtures = {
            "P": P, "U": U, "K4": K4, "D": D, "path3": path3, "end3": end3,
            "ordered": ordered, "ordered_sub": ordered_sub,
            "P_hit": _random_minor(rng, P),
            "P_miss": _non_minor(rng, P),
            "P_sub": _connected_minor(rng, P),
            "U_sub": _connected_minor(rng, U),
        }
        files = {}
        for key, C in fixtures.items():
            path = workdir / f"{key}.txt"
            path.write_text(ref.serialize(C), encoding="utf-8")
            files[key] = (str(path), C)
        bad = workdir / "malformed.txt"
        bad.write_text(MALFORMED, encoding="utf-8")
        files["malformed"] = (str(bad), None)
        return files

    def commands(self, files):
        """(class, argv, expected exit code, expected stdout, stderr check)."""
        f = {key: path for key, (path, _) in files.items()}
        C = {key: value for key, (_, value) in files.items()}
        def empty(err):
            return err == ""

        def error_line(err):
            return err.startswith("error: ") and err.count("\n") == 1

        def counterexample(err):
            first, _, rest = err.partition("\n")
            return first.startswith("error: ") and rest.startswith(
                ref.report_head(C["path3"], C["end3"])
            )

        out = []
        for key in ("P", "U", "K4"):
            out.append(("show", ["show", f[key]], 0, ref.serialize(C[key]), empty))
        out.append(("connected", ["connected", f["P"]], 0, "", empty))
        out.append(("connected.no", ["connected", f["D"]], 1, "", empty))
        for key in ("P_hit", "P_miss"):
            spec = ref.first_minor_spec(C["P"], C[key])
            out.append(("minor", ["minor", f["P"], f[key]], 0, ref.format_spec(spec), empty))
        for M, N in (("P", "P_sub"), ("U", "U_sub"), ("ordered", "ordered_sub")):
            step = ref.splitter_step(C[M], C[N])
            out.append(("splitter", ["splitter", f[M], f[N]], 0, ref.format_steps([step]), empty))
            steps = ref.splitter_chain(C[M], C[N])
            out.append(("chain", ["chain", f[M], f[N]], 0, ref.format_steps(steps), empty))
        for key in ("U", "K4"):
            steps = ref.splitter_chain(C[key], ref.empty_target(C[key]))
            out.append(("chain.empty", ["chain", f[key]], 0, ref.format_steps(steps), empty))
        for key in ("P", "U"):
            out.append(("blocker", ["blocker", f[key]], 0, ref.serialize(ref.blocker(C[key])), empty))
        for key in ("P", "K4"):
            out.append(("dot", ["dot", f[key]], 0, ref.dot(C[key]), empty))
        out.append(("splitter.counterexample", ["splitter", f["path3"], f["end3"]], 2, "",
                    counterexample))
        out.append(("show.malformed", ["show", f["malformed"]], 65, "", error_line))
        return out

    def round(self, clutters, files, in_process):
        units = []
        for cls, argv, code, stdout, stderr_ok in self.commands(files):
            run = _in_process(clutters, argv) if in_process else _subprocess(argv)
            units.append(Unit(cls, 1, run,
                              lambda out, c=code, s=stdout, e=stderr_ok:
                                  out[0] == c and out[1] == s and e(out[2])))
        return units


def _subprocess(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "clutters.cli", *argv]

    def run():
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=60)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    return run


def _in_process(clutters, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = clutters.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return run


WORKLOADS = {
    w.name: w for w in (VerifyTheorem(), VerifyIdentities(), LargeInputs(), CliFixtures())
}
