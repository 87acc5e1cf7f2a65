"""The benchmark tracer's table of traced functions matches the package.

bench/tracer.py looks each name up with getattr and no default, so a
function removed or renamed here would break `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
