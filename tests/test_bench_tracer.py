"""The benchmark tracer's table of traced functions matches the package.

bench/tracer.py looks each name up with getattr and no default, so a
function removed or renamed here would break `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "bench" / "tracer.py"


def load_traced_table():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize(
    "module_name,function_name",
    [(m, f) for m, names in sorted(load_traced_table().items()) for f in names],
)
def test_traced_name_resolves(module_name, function_name):
    module = importlib.import_module(f"clutters.{module_name}")
    assert callable(getattr(module, function_name))


# What `bench/run.py --trace 1` does, in a fresh interpreter: import the
# package and its CLI, install the tracer, read every package-level name for
# the first time and call one, uninstall.  Prints what the test checks.
ROUND_TRIP = """\
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[2])
bench_tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_tracer)
import clutters, clutters.cli
missing = sorted(m for m in bench_tracer.TRACED if "clutters." + m not in sys.modules)
tracer = bench_tracer.Tracer()
tracer.install()
for name in clutters.__all__:
    getattr(clutters, name)
clutters.new_clutter(["a"], [["a"]])
tracer.uninstall()
kept = []
for name in clutters.__all__:
    value = getattr(clutters, name)
    module = sys.modules.get(value.__module__)
    if not value.__module__.startswith("clutters.") or getattr(module, name) is not value:
        kept.append(name)
print(json.dumps({"missing": missing, "spans": tracer.names, "kept": kept}))
"""


def test_package_names_untraced_after_uninstall():
    # a package-level name first read while the tracer is installed must not
    # keep the tracer's wrapper once it is uninstalled
    proc = subprocess.run(
        [sys.executable, "-c", ROUND_TRIP, str(ROOT / "src"), str(TRACER_PATH)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    result = json.loads(proc.stdout)
    assert result["missing"] == []
    assert result["spans"] == ["core.new_clutter"]
    assert result["kept"] == []
