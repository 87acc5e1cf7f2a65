"""In-memory span tracer for the public functions of the `clutters` modules.

The tracer replaces each traced function wherever it is bound: in its own
module (so calls inside that module go through the wrapper too), in modules
that imported it by name (`minor.apply_minor`, `enumeration.blocker`,
`cli.blocker`, ...) and in the package namespace.  Modules that reach a
function through its module (`core.is_connected` from `splitter`,
`enumeration`, `cli`) see the wrapper through the module binding.

A span is (name, start, end, parent), kept in parallel lists and written out
when the run ends.  A call that returns a generator gets one span for the
call and one span per `next()` on the generator, so lazily produced work
(`all_minors`, `enumerate_clutters`) is attributed to the function that
produces it.  Work counts are kept at the same boundaries.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

# Public functions traced per module.  Sort keys and `core.minimal_sets` stay
# untraced: they run inside every other primitive and would turn the trace
# into a trace of the tracer (`minimal_sets` time counts as its caller's).
TRACED = {
    "core": (
        "new_clutter", "parse_clutter", "delete", "contract", "apply_minor",
        "find_separation", "is_connected", "canonical_serialize",
    ),
    "minor": ("has_minor", "is_proper_minor", "all_minors"),
    "splitter": (
        "candidate_elements", "find_splitter", "chain", "chain_to_empty",
        "format_step", "format_chain", "counterexample_report",
    ),
    "blocker": ("blocker", "blocker_by_enumeration", "is_transversal"),
    "graphview": (
        "incidence_graph", "neighbourhood", "components", "graph_connected",
        "graph_connected_iff_clutter_connected", "delete_closed_neighbourhood",
        "remove_black_vertex", "twins", "contract_twin", "minimal_black_vertices",
        "good_components", "minimal_good_components", "to_dot",
    ),
    "enumeration": (
        "enumerate_clutters", "enumerate_connected", "connected_proper_minors",
        "verify_theorem", "verify_identities",
    ),
    "matroid": (
        "new_matroid", "circuits_clutter", "bases", "dual", "direct_sum",
        "uniform", "k4_graphic_matroid", "is_connected", "serialize_matroid",
        "parse_matroid",
    ),
    "cli": ("main",),
}

NEXT = "/next"  # suffix of the span name of one step of a traced generator


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self._stack = [-1]
        self._bindings = []  # (namespace, attribute, original)

    # -- recording -------------------------------------------------------

    def _open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index):
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def _traced_generator(self, name, gen, on_item):
        step = name + NEXT
        while True:
            index = self._open(step)
            try:
                item = next(gen)
            except StopIteration:
                self._close(index)
                return
            except BaseException:
                self._close(index)
                raise
            self._close(index)
            if on_item is not None:
                on_item(self.counts, item)
            yield item

    def wrap(self, name, fn, on_result=None, on_error=None, item_hooks=None):
        """`item_hooks`, for a generator function, makes one item counter per
        call, so a counter can keep state for that call alone."""
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(index)
                if on_error is not None:
                    on_error(self.counts, exc)
                raise
            self._close(index)
            if inspect.isgenerator(result):
                on_item = item_hooks() if item_hooks is not None else None
                return self._traced_generator(name, result, on_item)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package="clutters"):
        """Replace every traced function at each of its bindings."""
        hooks = _hooks()
        replacement = {}
        for module_name, functions in TRACED.items():
            module = sys.modules[f"{package}.{module_name}"]
            for fname in functions:
                original = getattr(module, fname)
                name = f"{module_name}.{fname}"
                replacement[id(original)] = (
                    original, self.wrap(name, original, **hooks.get(name, {}))
                )
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        for namespace in namespaces:
            for attribute, value in list(vars(namespace).items()):
                if id(value) in replacement and replacement[id(value)][0] is value:
                    self._bindings.append((namespace, attribute, value))
                    setattr(namespace, attribute, replacement[id(value)][1])

    def uninstall(self):
        for namespace, attribute, original in reversed(self._bindings):
            setattr(namespace, attribute, original)
        self._bindings.clear()

    # -- analysis ---------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                handle.write("\t".join(map(str, row)) + "\n")

    def metrics(self):
        """The per-layer metrics (without trace.overhead_ratio)."""
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child_time[self.parents[i]] += durations[i]
        self_time = Counter()
        calls = Counter()
        for i in range(n):
            self_time[self.names[i]] += durations[i] - child_time[i]
            calls[self.names[i]] += 1

        # Parents precede children, so one forward pass finds, for each span,
        # whether a has_minor or find_splitter span encloses it.
        under_has_minor = [False] * n
        under_splitter = [False] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                under_has_minor[i] = under_has_minor[p] or self.names[p] == "minor.has_minor"
                under_splitter[i] = under_splitter[p] or self.names[p] == "splitter.find_splitter"
        apply_under_has_minor = sum(
            1 for i in range(n) if under_has_minor[i] and self.names[i] == "core.apply_minor"
        )
        checks_under_splitter = sum(
            1 for i in range(n)
            if under_splitter[i] and self.names[i] in ("core.is_connected", "minor.has_minor")
        )

        def c(*names):
            return sum(calls[name] for name in names)

        def s(*names):
            return sum(self_time[name] for name in names) / 1e9

        def module_calls(module):
            return sum(v for k, v in calls.items() if k.startswith(module + ".") and NEXT not in k)

        def module_self(module):
            return sum(v for k, v in self_time.items() if k.startswith(module + ".")) / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        k = self.counts
        has_minor = c("minor.has_minor")
        find_splitter = c("splitter.find_splitter")
        return {
            "core.is_connected.calls": (c("core.is_connected"), "count"),
            "core.is_connected.self_s": (s("core.is_connected", "core.find_separation"), "s"),
            "core.delete_contract.calls": (c("core.delete", "core.contract"), "count"),
            "core.delete_contract.self_s": (s("core.delete", "core.contract"), "s"),
            "core.apply_minor.calls": (c("core.apply_minor"), "count"),
            "core.apply_minor.self_s": (s("core.apply_minor"), "s"),
            "core.parse.self_s": (s("core.parse_clutter", "core.new_clutter"), "s"),
            "minor.has_minor.calls": (has_minor, "count"),
            "minor.has_minor.self_s": (s("minor.has_minor"), "s"),
            "minor.has_minor.hit_ratio": (ratio(k["has_minor.hits"], has_minor), "ratio"),
            "minor.apply_per_has_minor": (ratio(apply_under_has_minor, has_minor), "ratio"),
            "minor.all_minors.yielded": (k["all_minors.yielded"], "count"),
            "minor.all_minors.distinct_ratio": (
                ratio(k["all_minors.distinct"], k["all_minors.yielded"]), "ratio"
            ),
            "splitter.find_splitter.calls": (find_splitter, "count"),
            "splitter.find_splitter.self_s": (s("splitter.find_splitter"), "s"),
            "splitter.counterexamples": (k["splitter.counterexamples"], "count"),
            "splitter.checks_per_call": (ratio(checks_under_splitter, find_splitter), "ratio"),
            "splitter.chain.steps": (k["chain.steps"], "count"),
            "splitter.report.self_s": (s("splitter.counterexample_report"), "s"),
            "blocker.calls": (module_calls("blocker"), "count"),
            "blocker.self_s": (module_self("blocker"), "s"),
            "blocker.rows_out": (k["blocker.rows_out"], "count"),
            "graphview.calls": (module_calls("graphview"), "count"),
            "graphview.self_s": (module_self("graphview"), "s"),
            "enumeration.clutters": (k["enumeration.clutters"], "count"),
            "enumeration.pairs": (k["enumeration.pairs"], "count"),
            "enumeration.self_s": (module_self("enumeration"), "s"),
            "matroid.calls": (module_calls("matroid"), "count"),
            "matroid.self_s": (module_self("matroid"), "s"),
            "cli.main.self_s": (s("cli.main"), "s"),
        }


def _count_has_minor(counts, spec):
    counts["has_minor.hits"] += spec is not None


def _count_counterexample(counts, exc):
    if type(exc).__name__ == "TheoremCounterexample":
        counts["splitter.counterexamples"] += 1


def _count_chain(counts, chain):
    counts["chain.steps"] += len(chain.steps)


def _count_blocker(counts, result):
    counts["blocker.rows_out"] += len(result.rows)


def _count_pairs(counts, minors):
    counts["enumeration.pairs"] += len(minors)


def _clutter_items():
    def on_item(counts, clutter):
        counts["enumeration.clutters"] += 1

    return on_item


def _minor_items():
    seen = set()  # distinct minors of this one all_minors call

    def on_item(counts, item):
        counts["all_minors.yielded"] += 1
        if item[1] not in seen:
            seen.add(item[1])
            counts["all_minors.distinct"] += 1

    return on_item


def _hooks():
    return {
        "minor.has_minor": {"on_result": _count_has_minor},
        "minor.all_minors": {"item_hooks": _minor_items},
        "splitter.find_splitter": {"on_error": _count_counterexample},
        "splitter.chain": {"on_result": _count_chain},
        "blocker.blocker": {"on_result": _count_blocker},
        "enumeration.enumerate_clutters": {"item_hooks": _clutter_items},
        "enumeration.connected_proper_minors": {"on_result": _count_pairs},
    }
