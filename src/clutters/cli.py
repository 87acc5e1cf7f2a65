"""Command-line front end.

Batch subcommands over clutter files in the canonical text format.  Results
go to stdout, diagnostics to stderr; exit codes: 0 success (or 'connected'),
1 disconnected, 2 domain error, 64 usage error, 65 unreadable or malformed
input, 74 failed write to stdout (a closed pipe, a full device, or a
descriptor 1 closed at start-up).
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys

# every command needs `core` and `errors`; each handler imports the module it
# runs, so a command compiles and runs no other library module
from . import core
from .core import Clutter
from .errors import ClutterError, ParseError, TheoremCounterexample


def _load(path: str) -> Clutter:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    except OSError as exc:
        # an unreadable input file, kept apart from a failed write to stdout
        raise ParseError(str(exc)) from None
    return core.parse_clutter(text)


def _print_clutter(M: Clutter) -> None:
    sys.stdout.write(core.canonical_serialize(M))


def cmd_show(args) -> int:
    _print_clutter(_load(args.file))
    return 0


def cmd_delete(args) -> int:
    _print_clutter(core.delete(_load(args.file), args.element))
    return 0


def cmd_contract(args) -> int:
    _print_clutter(core.contract(_load(args.file), args.element))
    return 0


def cmd_blocker(args) -> int:
    from .blocker import blocker

    _print_clutter(blocker(_load(args.file)))
    return 0


def cmd_connected(args) -> int:
    return 0 if core.is_connected(_load(args.file)) else 1


def _format_minor_spec(spec: core.MinorSpec) -> str:
    deletes, contracts = core._members(spec.deletes), core._members(spec.contracts)
    return f"deletes {deletes}\ncontracts {contracts}\n"


def cmd_minor(args) -> int:
    from . import minor

    spec = minor.has_minor(_load(args.file_m), _load(args.file_n))
    sys.stdout.write("none\n" if spec is None else _format_minor_spec(spec))
    return 0


def cmd_splitter(args) -> int:
    from . import splitter

    step = splitter.find_splitter(_load(args.file_m), _load(args.file_n))
    sys.stdout.write(splitter.format_step(step))
    return 0


def cmd_chain(args) -> int:
    from . import splitter

    M = _load(args.file_m)
    if args.file_n is None:
        result = splitter.chain_to_empty(M)
    else:
        result = splitter.chain(M, _load(args.file_n))
    sys.stdout.write(splitter.format_chain(result))
    return 0


def cmd_dot(args) -> int:
    from . import graphview

    sys.stdout.write(graphview.to_dot(graphview.incidence_graph(_load(args.file))))
    return 0


def cmd_verify(args) -> int:
    from . import enumeration

    run_theorem = args.theorem or not args.identities
    run_identities = args.identities or not args.theorem
    if run_identities:
        sys.stdout.write(enumeration.verify_identities(args.n).render())
    if run_theorem:
        sys.stdout.write(enumeration.verify_theorem(args.n).render())
    return 0


class _Parser(argparse.ArgumentParser):
    """Help text lets a failed stdout's OSError out, where argparse swallows
    it, and a usage error never writes to stdout."""

    def error(self, message):
        if sys.stderr is None:  # argparse would print the usage to stdout instead
            self.exit(2)
        super().error(message)

    def _print_message(self, message, file=None):
        if file is not sys.stdout:  # usage errors, on stderr, keep argparse's handling
            return super()._print_message(message, file)
        file.write(message)  # help text: a failure reaches main, which exits 74


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clutters",
        description="Clutter minors, blockers, connectivity, splitter chains, "
        "and exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("show", help="parse a clutter file and print it canonically")
    p.add_argument("file")
    p.set_defaults(handler=cmd_show)

    p = sub.add_parser("delete", help="delete an element")
    p.add_argument("file")
    p.add_argument("-e", "--element", required=True)
    p.set_defaults(handler=cmd_delete)

    p = sub.add_parser("contract", help="contract an element")
    p.add_argument("file")
    p.add_argument("-e", "--element", required=True)
    p.set_defaults(handler=cmd_contract)

    p = sub.add_parser("blocker", help="print the blocker")
    p.add_argument("file")
    p.set_defaults(handler=cmd_blocker)

    p = sub.add_parser(
        "connected", help="exit 0 if the clutter is connected, 1 otherwise"
    )
    p.add_argument("file")
    p.set_defaults(handler=cmd_connected)

    p = sub.add_parser("minor", help="print a witness minor spec, or 'none'")
    p.add_argument("file_m")
    p.add_argument("file_n")
    p.set_defaults(handler=cmd_minor)

    p = sub.add_parser("splitter", help="print one splitter step from M towards N")
    p.add_argument("file_m")
    p.add_argument("file_n")
    p.set_defaults(handler=cmd_splitter)

    p = sub.add_parser(
        "chain", help="print a splitter chain (default target: empty clutter)"
    )
    p.add_argument("file_m")
    p.add_argument("file_n", nargs="?", default=None)
    p.set_defaults(handler=cmd_chain)

    p = sub.add_parser("dot", help="print the incidence graph in DOT format")
    p.add_argument("file")
    p.set_defaults(handler=cmd_dot)

    p = sub.add_parser("verify", help="run the exhaustive verification harness")
    p.add_argument("--n", type=int, required=True, metavar="K")
    p.add_argument("--identities", action="store_true")
    p.add_argument("--theorem", action="store_true")
    p.set_defaults(handler=cmd_verify)

    return parser


class _ClosedStdout(io.TextIOBase):
    """sys.stdout when descriptor 1 was closed at start-up: a write fails as
    a write to a closed descriptor does, and there is nothing to flush."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def _silence_stdout() -> None:
    """Point file descriptor 1 at the null device, so that the interpreter's
    flush of stdout at exit has nothing left to fail on."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (OSError, ValueError):  # stdout without a file descriptor
        pass


def _diagnose(text: str) -> None:
    """Write diagnostics to stderr.  A closed or full stderr loses them, but
    the exit code stays the one documented for the failure."""
    if sys.stderr is None:  # descriptor 2 was closed when the interpreter started
        return
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        pass


def main(argv: list | None = None) -> int:
    if sys.stdout is None:  # descriptor 1 was closed when the interpreter started
        sys.stdout = _ClosedStdout()
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on usage problems, 0 on --help
            code = 64 if exc.code not in (0, None) else 0
        else:
            code = args.handler(args)
        sys.stdout.flush()
        return code
    except ParseError as exc:
        _diagnose(f"error: {exc}\n")
        return 65
    except TheoremCounterexample as exc:
        from . import splitter

        _diagnose(f"error: {exc}\n" + splitter.counterexample_report(exc.M, exc.N))
        return 2
    except ClutterError as exc:
        _diagnose(f"error: {exc}\n")
        return 2
    except OSError as exc:
        # _load turns read errors into ParseError, so this is stdout failing
        _diagnose(f"error: {exc}\n")
        _silence_stdout()
        return 74


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
