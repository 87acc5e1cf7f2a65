"""Benchmark of the `clutters` package, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Every workload is a closed loop with one client in one process and
one thread (`jobs=1`).

--trace 0  times whole rounds of the workload for S seconds with tracing off
           and reports the end-to-end metrics.
--trace 1  traces the set-up and one round with spans around the package's
           public functions and reports the per-layer metrics; further
           traced and untraced rounds, alternating, give the overhead ratio.

Every output is checked against the oracles in `workloads.py`.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full result, with the
environment, goes to bench/out/result-<workload>-trace<k>.json and, for a
traced run, the spans to bench/out/spans-<workload>.tsv.  Workload choice and
the metric map are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import Tracer
from workloads import SRC, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPEATS = 7  # fresh-interpreter set-ups per timed run; setup_s is their median
IMPORT_REPEATS = 10  # (bare, import) interpreter pairs for cli.import_s
OVERHEAD_ROUNDS = 3  # extra traced and untraced rounds for the overhead ratio


class Judge:
    """Checks every unit output: by the unit's oracle the first time it
    passes, and by equality with that verified output afterwards."""

    def __init__(self, units):
        self.units = units
        self.verified = {}
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.examples = {}  # call class -> its first wrong output

    def __call__(self, index, output):
        self.attempted += 1
        if index in self.verified:
            ok = output == self.verified[index]
        else:
            try:
                ok = bool(self.units[index].check(output))
            except Exception:  # an output the oracle cannot read is wrong
                ok = False
            if ok:
                self.verified[index] = output
        if not ok:
            name = self.units[index].name
            self.failed += 1
            self.failures[name] += 1
            self.examples.setdefault(name, getattr(output, "text", repr(output))[:500])


class Raised:
    """The output of a unit that raised instead of returning."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return False


def call(unit):
    try:
        return unit.run()
    except Exception as exc:  # a failing unit is counted, not fatal
        return Raised(exc)


def run_round(units, judge, latencies=None):
    """One pass over the units; returns its wall seconds.  With `latencies`,
    appends each unit's duration to its own list."""
    wall = 0
    for index, unit in enumerate(units):
        t0 = time.perf_counter()
        output = call(unit)
        dt = time.perf_counter() - t0
        wall += dt
        if latencies is not None:
            latencies[index].append(dt)
        judge(index, output)
    return wall


def setup_probe(workload, seed, k):
    """Wall time of a fresh interpreter that imports the package and builds
    the workload's inputs."""
    workdir = OUT / f"setup-{os.getpid()}-{k}"
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(workdir)]
    try:
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def import_seconds():
    """Fresh-process `import clutters` minus a bare interpreter start: the
    median over back-to-back pairs, since the host's phases shift both."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    differences = []
    for _ in range(IMPORT_REPEATS):
        pair = []
        for code in ("pass", "import clutters"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            pair.append(time.perf_counter() - t0)
        differences.append(pair[1] - pair[0])
    return statistics.median(differences)


def timed_run(clutters, workload, seed, seconds, workdir):
    inputs = workload.build(clutters, seed, workdir)
    units = workload.round(clutters, inputs, in_process=False)
    judge = Judge(units)
    run_round(units, judge)  # warm-up; its outputs go through the oracles
    # Child units repeat the same commands every round, so the warm-up round
    # reaches their peak; it is read now because set-up probes are children too.
    children_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    # Set-up probes are spread over the run, between rounds, so that their
    # median samples the same phases of the host as the rounds do; the time
    # they take is added to the deadline.
    latencies = [[] for _ in units]
    setups = []
    rounds = 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:  # whole rounds, so every class counts equally
        run_round(units, judge, latencies)
        rounds += 1
        due = start + len(setups) * seconds / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and time.perf_counter() >= due:
            setups.append(setup_probe(workload.name, seed, len(setups)))
            deadline += setups[-1]
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_probe(workload.name, seed, len(setups)))

    if workload.in_children:
        peak_rss_mb = children_peak_kb / 1024
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # The host's speed drifts in phases of seconds, so a unit's latency is the
    # fastest of its repeats in the run; percentiles are taken over the units.
    best = sorted(min(times) for times in latencies)
    p90 = statistics.quantiles(best, n=10)[8] if len(best) > 1 else best[0]
    metrics = {
        "throughput_ops_per_s": (sum(u.ops for u in units) / sum(best), "ops/s"),
        "latency_p50_ms": (statistics.median(best) * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    every = [t for times in latencies for t in times]
    extra = {
        "rounds": rounds,
        "units_per_round": len(units),
        "latency_samples": len(every),
        "all_samples_p50_ms": statistics.median(every) * 1000,
        "call_classes": dict(Counter(u.name for u in units)),
    }
    return metrics, judge, extra


def traced_run(clutters, workload, seed, workdir):
    tracer = Tracer()
    tracer.install()
    try:
        inputs = workload.build(clutters, seed, workdir)
    finally:
        tracer.uninstall()
    units = workload.round(clutters, inputs, in_process=True)
    judge = Judge(units)
    run_round(units, judge)  # warm-up, untraced

    tracer.install()
    try:
        traced = [run_round(units, judge)]
    finally:
        tracer.uninstall()
    # Further traced rounds, alternating with untraced ones, only time the
    # overhead; their spans go to a throwaway tracer so counts stay per round.
    plain = []
    for _ in range(OVERHEAD_ROUNDS):
        plain.append(run_round(units, judge))
        throwaway = Tracer()
        throwaway.install()
        try:
            traced.append(run_round(units, judge))
        finally:
            throwaway.uninstall()

    metrics = tracer.metrics()
    metrics["cli.import_s"] = (import_seconds(), "s")
    traced_wall, plain_wall = statistics.median(traced), statistics.median(plain)
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}.tsv")
    extra = {"spans": len(tracer.names), "traced_round_s": traced_wall,
             "untraced_round_s": plain_wall}
    return metrics, judge, extra


def _git_revision():
    """The checkout's revision from .git, without running git; 'unknown' in
    a plain source tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        if (git / ref_name).is_file():
            return (git / ref_name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_quota():
    """CPUs allowed by the cgroup v2 quota, or None if unlimited or unreadable."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
    except (OSError, ValueError):
        return None
    return None if quota == "max" else int(quota) / int(period)


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_quota": _cpu_quota(),
        "git_revision": _git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": 1,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "clutters" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'clutters'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import clutters
    import clutters.cli  # noqa: F401  (traced, and run in process by cli-fixtures)

    if not Path(clutters.__file__).resolve().is_relative_to(SRC):
        print(f"error: clutters imported from {clutters.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            metrics, judge, extra = traced_run(clutters, workload, args.seed, workdir)
        else:
            metrics, judge, extra = timed_run(clutters, workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    error_ratio = judge.failed / judge.attempted
    print(f"# clutters benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:36} {value:16.6f} {unit}")
    print(f"{'error_ratio':36} {error_ratio:16.6f} ratio "
          f"({judge.failed} of {judge.attempted} units)")
    print("detail " + json.dumps(extra, sort_keys=True))
    for name, count in sorted(judge.failures.items()):
        print(f"FAILED {name}: {count}; first: {judge.examples[name]}", file=sys.stderr)

    result = {
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, environment=env, error_ratio=error_ratio, detail=extra,
                  failures=dict(judge.failures))
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
