"""One fresh start-up for ``setup_s``: import quadcurl, do a workload's lazy set-up.

Usage: ``python3 bench/startup.py <workload>``.  Prints ``time.monotonic()``
at the end of set-up; the caller subtracts the time at which it started this
interpreter.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import quadcurl  # noqa: E402
import workloads  # noqa: E402

workloads.prepare(quadcurl, sys.argv[1])
print(time.monotonic())
