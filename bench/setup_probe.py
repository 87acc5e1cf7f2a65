"""Build one workload's inputs in a fresh interpreter, then exit.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

run.py times whole runs of this script for the setup_s metric: interpreter
start, `import clutters` and the workload's input construction.
"""

import sys

from workloads import SRC, WORKLOADS

sys.path.insert(0, str(SRC))
import clutters  # noqa: E402

WORKLOADS[sys.argv[1]].build(clutters, int(sys.argv[2]), sys.argv[3])
