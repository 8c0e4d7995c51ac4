"""Time one set-up of an in-process workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED CYCLES

Prints the CPU seconds from before ``import eidothermo`` to a workload
constructed for CYCLES cycles: import, model construction and input
generation.
"""

import sys
import time

start = time.process_time()

import workloads  # noqa: E402  (imports no eidothermo module itself)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), int(sys.argv[3]))
print(repr(time.process_time() - start))
