"""Clutters: antichain hypergraphs with minors, blockers, and splitter chains.

`import clutters` runs no library module.  Each submodule is put in
`sys.modules` unrun and is compiled and run when one of its attributes is
first read: by `clutters.has_minor`, by `from clutters.core import Clutter`,
or by `import clutters.core`, which reads the module's `__spec__`.  So
`clutters show` runs `core` and `errors` only, and an error inside a
submodule is raised at its first use, not at `import clutters`.  The
submodules are registered up front, not imported by `__getattr__` on
demand, because the benchmark's tracer looks up
`sys.modules["clutters.<module>"]` for every module it traces.

When a submodule's code has run, its public names are bound here, as an
eager import would bind them, so a later `clutters.<name>` costs what it did
then; `__getattr__` serves only a name whose module has not run.  A name is
never bound from a read: the tracer runs every module it traces before it
replaces any binding, so it finds and restores these bindings too.
"""

import _thread
import importlib.util
import sys
import types

# defining module -> its public names, each listed once
_EXPORTS = {
    "blocker": ("blocker", "blocker_by_enumeration", "is_transversal"),
    "core": (
        "Clutter", "MinorSpec", "Separation", "apply_minor", "canonical_serialize",
        "contract", "delete", "find_separation", "is_connected", "new_clutter",
        "parse_clutter",
    ),
    "enumeration": (
        "enumerate_clutters", "enumerate_connected", "verify_identities",
        "verify_theorem",
    ),
    "graphview": (
        "IncidenceGraph", "components", "contract_twin", "delete_closed_neighbourhood",
        "good_components", "graph_connected", "graph_connected_iff_clutter_connected",
        "incidence_graph", "minimal_black_vertices", "minimal_good_components",
        "remove_black_vertex", "to_dot", "twins",
    ),
    "matroid": (
        "CircuitMatroid", "bases", "circuits_clutter", "direct_sum", "dual",
        "k4_graphic_matroid", "new_matroid", "parse_matroid", "serialize_matroid",
        "uniform",
    ),
    "minor": ("all_minors", "has_minor", "is_proper_minor"),
    "splitter": (
        "SplitterChain", "SplitterStep", "chain", "chain_to_empty",
        "counterexample_report", "find_splitter", "format_chain", "format_step",
    ),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)

_LOCK = _thread.RLock()
_RUNNING = set()  # modules whose code the lock's holder is running now


class _Unrun(types.ModuleType):
    """A registered submodule whose code has not run.  The first attribute
    read runs it, under one lock, and only then makes it a plain module and
    binds its public names in the package, so another thread that reads it
    meanwhile waits and never sees it half-run.
    (`importlib.util.LazyLoader` in Python 3.11 makes the module plain first:
    four threads calling `clutters.new_clutter` at once raised
    `AttributeError` in 19 of 20 runs.)  While the code runs, the running
    thread reads the module as it stands, as in an import cycle."""

    def __getattribute__(self, attr):
        get = types.ModuleType.__getattribute__
        with _LOCK:
            if type(self) is _Unrun and self not in _RUNNING:
                _RUNNING.add(self)
                try:
                    get(self, "__spec__").loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _RUNNING.discard(self)
                exported = _EXPORTS.get(get(self, "__name__").rpartition(".")[2], ())
                globals().update((name, get(self, name)) for name in exported)
        return get(self, attr)


def _register(module):
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    unrun = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    unrun.__class__ = _Unrun
    return unrun


_SUBMODULES = {module: _register(module) for module in (*_EXPORTS, "errors")}
_MODULE_OF = {
    name: _SUBMODULES[module] for module, names in _EXPORTS.items() for name in names
}


def __getattr__(name):
    # reading a public name runs its module, which binds the name here; a
    # public name wins, so `clutters.blocker` is the function, and every
    # other submodule name gives the submodule
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(module, name)
    module = _SUBMODULES.get(name)
    if module is not None:
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
