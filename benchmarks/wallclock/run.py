"""The ``BENCHMARK.json`` command:
``python3 benchmarks/wallclock/run.py --workload W --seed N --seconds S --trace 0|1``.

Run as a script from the root of a checkout; puts that root on ``sys.path``
so the package imports the same way as under ``python -m benchmarks.wallclock``.
"""

import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    from benchmarks.wallclock.cli import driver

    sys.exit(driver())
