"""Set-up probe: import what a workload calls and build its inputs, then report.

Run as ``python3 perfbench/probe.py <workload> <seed>`` in a fresh
interpreter. It prints ``time.perf_counter()`` at the moment the inputs are
built; perf_counter reads the system-wide monotonic clock on Linux, so the
parent subtracts the instant it spawned the probe. Then it prints the
trimmed mean time of the host reference kernel, measured right after.
"""
import sys
import time

import workloads
from hostref import RefKernel, trimmed_mean

REF_REPEATS = 25

if __name__ == "__main__":
    workloads.require_src()
    workloads.build(sys.argv[1], int(sys.argv[2])).prepare(0)
    done = time.perf_counter()
    kernel = RefKernel()
    print(repr(done), repr(trimmed_mean([kernel.time_s() for _ in range(REF_REPEATS)])))
