"""Alternating A/B runs of the benchmark: a base revision against the working tree.

    python tools/ab.py --workload verify-identities
    python tools/ab.py --workload large-inputs --base HEAD~1 --seed 4

The base side is a fresh `git archive` of --base (default HEAD; once the
change is committed, give its parent, as in the second line).  The change
side is a copy of the working tree's tracked files, as `git ls-files` lists
them, with their working-tree content, so staged new files are included and
untracked ones are not.  Both copies live in one temporary directory that is
removed at the end; the checkout, `bench/` included, is never written.
If the working tree does not differ from --base, the script stops before
any run, since the pairs would compare a revision with itself.

Each of the 10 pairs runs `bench/run.py`, unchanged and with its own
defaults for the run length and tracing, once in each copy,
alternating which side runs first.  Every run has PYTHONDONTWRITEBYTECODE=1
and neither copy holds a `__pycache__`, so both sides compile their source at
each start, as the benchmark does in a fresh checkout.  A run that exits
non-zero or reports a wrong output stops the script with exit code 1.

Last, for each end-to-end metric that BENCHMARK.json names, one line: the
base's median and quartiles over its runs, the change's median, the change
in percent, and the pairs the change won (better by the metric's direction;
ties count for neither side).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def git(*args: str) -> bytes:
    return subprocess.run(("git", "-C", str(ROOT)) + args, check=True, capture_output=True).stdout


def export_base(rev: str, dest: Path) -> None:
    """A fresh copy of rev's committed files."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as archive:
        # the "data" filter exists from Python 3.10.12 and 3.11.4 on; the
        # archive is the repository's own, so older versions extract as is
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)


def export_working_tree(dest: Path) -> None:
    """A copy of the working tree's tracked files, as they are on disk."""
    for name in git("ls-files", "-z").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_bench(checkout: Path, args) -> dict:
    """The metrics of one timed bench run in checkout: name -> value."""
    command = [
        sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"error: bench run in {checkout.name} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(name: str, better: str, base: list, change: list) -> str:
    """One metric's line: base median (quartiles) -> change median, wins."""
    if len(base) > 1:
        q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    else:
        q1 = q3 = base[0]
    b, c = statistics.median(base), statistics.median(change)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, change))
    percent = f"{(c / b - 1) * 100:+.1f}%" if b else "n/a"
    return (
        f"{name:22} {b:12.4f} ({q1:.4f}-{q3:.4f}) -> {c:12.4f}  {percent:>7}  "
        f"change better in {wins}/{len(base)}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", default="HEAD", help="git revision of the base side")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if subprocess.run(("git", "-C", str(ROOT), "diff", "--quiet", args.base)).returncode == 0:
        parser.error(f"the working tree does not differ from {args.base}; pass another --base")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="clutters-ab-") as tmp:
        base, change = Path(tmp, "base"), Path(tmp, "change")
        export_base(args.base, base)
        export_working_tree(change)
        runs = {base: [], change: []}
        for i in range(PAIRS):
            order = (base, change) if i % 2 == 0 else (change, base)
            for side in order:
                runs[side].append(run_bench(side, args))
            first = order[0].name
            values = "  ".join(
                f"{m['name']}={runs[base][-1][m['name']]:.4f}/{runs[change][-1][m['name']]:.4f}"
                for m in metrics
            )
            print(f"pair {i + 1} ({first} first) base/change: {values}", flush=True)

    print(f"# {args.workload} seed={args.seed} base={args.base}")
    print(f"{'metric':22} {'base median (Q1-Q3)':>30}    {'change median':>12}")
    for m in metrics:
        name = m["name"]
        base_values = [r[name] for r in runs[base]]
        change_values = [r[name] for r in runs[change]]
        print(summary(name, m["better"], base_values, change_values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
