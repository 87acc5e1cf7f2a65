"""A mutation sweep over one module of the package, standard library only.

    python tools/mutate.py src/clutters/minor.py tests/test_minor.py
    python tools/mutate.py src/clutters/minor.py tests/test_minor.py --list
    python tools/mutate.py src/clutters/minor.py tests/test_minor.py --only 3,17

Each mutant changes one site of the module: a comparison (`<`/`<=`,
`>`/`>=`, `==`/`!=`, `in`/`not in`, `is`/`is not`), `and`/`or`, `&`/`|`,
`+`/`-` (also augmented), an integer constant n to n + 1, a dropped `not`,
`any`/`all`, a one-argument `x.pop(k)` read as the lookup `x[k]`, which
leaves the entry in place, or a statement expression, `break` or
`continue` replaced by `pass`.  Annotations are left alone.  The module is
written back from its syntax tree (`ast.unparse`), so the unmutated rewrite
runs first and must pass.

All work happens in a copy of `src/`, `tests/`, `bench/` (which the tracer
test reads) and `pyproject.toml` in a temporary directory; the checkout is
never written.  One pytest subprocess runs at a time, each limited to five
times the unmutated run of the same tests plus 10 s and to 1 GiB of
address space (the whole suite peaks near 70 MB), and a mutant that times
out or runs out of memory counts as killed.  Without the memory limit, a
mutant that lets `enumerate_clutters(6)` run builds millions of clutters
and takes gigabytes.  Hypothesis runs with a fixed seed, no example
database and no shrinking (a `conftest.py` in the copy's root), so a sweep
is repeatable and a failing example costs no search for a smaller one.

Phase 1 runs every mutant against the module's own test file and stops at
the first failure.  Phase 2 runs the survivors against the whole suite
(`tests/`) and kills a mutant when a test fails that passes unmutated, so
a test that already fails does not count.  It runs the unmutated suite
once, then each survivor with the tests that failed there deselected, and
stops at the first failure, which is new.  Test files run in name order,
except that the files of the last kill run first.  If the unmutated suite
fails without naming a test (an exit code of its own, or a file that does
not collect), there is nothing to deselect, and each survivor runs the
whole suite.  The survivors are printed last.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.Add: ast.Sub, ast.Sub: ast.Add,
}
QUANTIFIERS = {"any": "all", "all": "any"}
MEMORY = 1 << 30  # bytes of address space for each pytest run
PROFILE = """\
from hypothesis import Phase, settings

settings.register_profile(
    "mutate", database=None, phases=[Phase.explicit, Phase.reuse, Phase.generate]
)
settings.load_profile("mutate")
"""


def alternatives(node):
    """The mutants of one site, each a new node to put in place of node."""
    if isinstance(node, ast.Compare):
        for j, op in enumerate(node.ops):
            if type(op) in SWAPS:
                new = copy.deepcopy(node)
                new.ops[j] = SWAPS[type(op)]()
                yield new
    elif isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
        new = copy.deepcopy(node)
        new.op = SWAPS[type(node.op)]()
        yield new
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield copy.deepcopy(node.operand)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield ast.Constant(node.value + 1)
    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in QUANTIFIERS:
        new = copy.deepcopy(node)
        new.func.id = QUANTIFIERS[node.func.id]
        yield new
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr == "pop" and len(node.args) == 1 and not node.keywords):
        value, key = copy.deepcopy(node.func.value), copy.deepcopy(node.args[0])
        yield ast.Subscript(value, key, ast.Load())
    elif isinstance(node, ast.Expr) and not isinstance(node.value, ast.Constant):
        yield ast.Pass()
    elif isinstance(node, (ast.Break, ast.Continue)):
        yield ast.Pass()


class Sites(ast.NodeTransformer):
    """Numbers the sites in a fixed walk order; puts mutant `target` in place."""

    def __init__(self, target=None):
        self.target, self.found = target, []

    def visit(self, node):
        if isinstance(node, ast.arg):
            return node
        if isinstance(node, ast.AnnAssign):
            node.value = node.value and self.visit(node.value)
            return node
        for new in alternatives(node):
            self.found.append((node.lineno, ast.unparse(node), ast.unparse(new)))
            if len(self.found) - 1 == self.target:
                return ast.copy_location(new, node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            returns, node.returns = node.returns, None
            self.generic_visit(node)
            node.returns = returns
            return node
        return self.generic_visit(node)


def mutant(source, target=None):
    """(the module rewritten with mutant `target` in place, every site)."""
    sites = Sites(target)
    tree = sites.visit(ast.parse(source))
    return ast.unparse(tree) + "\n", sites.found


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def pytest(copy_root, targets, timeout, first_failure, deselect=()):
    """The failed test ids of one run, or None if it timed out.  A run that
    fails without naming a test (a collection or import error) gets the id
    of its exit code."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", "--continue-on-collection-errors", *targets]
    if first_failure:
        cmd.append("-x")
    for test in deselect:
        cmd += ["--deselect", test]
    env = dict(os.environ, PYTHONPATH=str(copy_root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, cwd=copy_root, env=env, capture_output=True,
                              text=True, timeout=timeout, preexec_fn=cap_memory)
    except subprocess.TimeoutExpired:
        return None
    failed = {line.split(" ", 1)[1].split(" - ")[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    if proc.returncode not in (0, 1) or (proc.returncode and not failed):
        failed.add(f"exit {proc.returncode}")
    return failed


def sweep(module, tests, only):
    source = (ROOT / module).read_text()
    original, sites = mutant(source)
    chosen = only if only is not None else range(len(sites))
    if any(not 0 <= i < len(sites) for i in chosen):
        sys.exit(f"{module} has sites 0 to {len(sites) - 1}")
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy_root = Path(tmp)
        for tree in ("src", "tests", "bench"):
            shutil.copytree(ROOT / tree, copy_root / tree,
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy(ROOT / "pyproject.toml", copy_root)
        (copy_root / "conftest.py").write_text(PROFILE)
        target = copy_root / module

        def run(text, targets, first_failure, limit, deselect=()):
            target.write_text(text)
            try:
                return pytest(copy_root, targets, limit, first_failure, deselect)
            finally:
                target.write_text(source)

        start = time.perf_counter()
        if run(original, [tests], True, None):
            sys.exit(f"{tests} fails on the unmutated rewrite of {module}")
        limit = 5 * (time.perf_counter() - start) + 10
        survivors = []
        for i in chosen:
            failed = run(mutant(source, i)[0], [tests], True, limit)
            line, before, after = sites[i]
            status = "timeout" if failed is None else "killed" if failed else "survived"
            print(f"[{i}] line {line}: {before} -> {after}: {status}", file=sys.stderr)
            if status == "survived":
                survivors.append(i)

        killed_by_suite = []
        if survivors:
            files = sorted(p.relative_to(copy_root).as_posix()
                           for p in (copy_root / "tests").glob("test_*.py"))
            start = time.perf_counter()
            baseline = run(original, files, False, None)
            limit = 5 * (time.perf_counter() - start) + 10
            print(f"unmutated, the suite fails {sorted(baseline)}", file=sys.stderr)
            # a test id names its file and test; an `exit N` or a file that
            # does not collect cannot be deselected, and under -x a collection
            # error would stop every run before its first test
            selective = all("::" in test for test in baseline)
            deselect = sorted(baseline) if selective else ()
            for i in survivors:
                failed = run(mutant(source, i)[0], files, selective, limit, deselect)
                new = {"timeout"} if failed is None else failed - baseline
                if new:
                    killed_by_suite.append(i)
                    print(f"[{i}] killed by the suite: {sorted(new)}", file=sys.stderr)
                    # neighbouring sites tend to fall to the same file, so
                    # the files that killed this mutant run first from now on
                    first = sorted({test.split("::")[0] for test in new} & set(files))
                    files = first + [f for f in files if f not in first]

    print(f"{module}: {len(chosen)} mutants, {len(survivors)} survived {tests}, "
          f"{len(survivors) - len(killed_by_suite)} survived the suite")
    for i in survivors:
        if i not in killed_by_suite:
            line, before, after = sites[i]
            print(f"  [{i}] line {line}: {before} -> {after}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module to mutate, relative to the repository root")
    parser.add_argument("tests", help="the module's own test file, relative to the root")
    parser.add_argument("--only", help="comma-separated site numbers to run")
    parser.add_argument("--list", action="store_true", help="list the sites and exit")
    args = parser.parse_args(argv)
    if args.list:
        for i, (line, before, after) in enumerate(mutant((ROOT / args.module).read_text())[1]):
            print(f"[{i}] line {line}: {before} -> {after}")
        return
    only = None if args.only is None else [int(i) for i in args.only.split(",")]
    sweep(args.module, args.tests, only)


if __name__ == "__main__":
    main()
