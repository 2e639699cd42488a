"""Time one workload's set-up in a fresh interpreter and print the seconds.

The clock starts before numpy and dais are imported, so the figure covers
imports, input generation and warm-up.  Used by run.py:

    python3 bench/setup_child.py <workload> <seed>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    print(time.perf_counter() - START)
