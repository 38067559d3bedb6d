"""Run one benchmark workload; the last output line is the JSON result.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

See ``perfbench/README.md`` for the workloads and metrics.
"""

import time

T0 = time.perf_counter()

import pathlib  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], T0))
