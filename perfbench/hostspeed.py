"""Host-speed calibration for the end-to-end times.

On a small shared host the same work runs at anything from 1x to 2x its
fastest speed, in phases that last from seconds to minutes, and CPU time
drifts with wall time.  A raw median then moves with the host as much
as with the program.  So the benchmark times a fixed kernel right before
and right after each stretch of pass work and scales the stretch to the
speed at which the kernel takes REFERENCE_S:

    reported = measured * REFERENCE_S / mean(kernel before, kernel after)

The kernel shares no code with the program (pure-Python float, heap and
list work plus small numpy array arithmetic, the mix the workloads
run), so a change to the program cannot move it.  It runs in a child
process of its own (HostClock), never in the process that runs the
workload, so nothing the program leaves behind there (live heap, GC
generations, allocator state) can change the divisor.  The benchmark
waits while the kernel runs, so the two never compete for a CPU.

    python3 perfbench/hostspeed.py

reads one line per request on stdin and answers each with the kernel's
time in seconds; it exits at end of input.

A set-up probe is a fresh interpreter, and much of it is the bare start:
exec, page faults and numpy's import from disk.  That part follows the
host's disk and exec phases more than its CPU phases, so the kernel
tracks it badly.  Each probe is therefore timed right after a fresh
interpreter that only imports numpy (START_COMMAND).  That start is
replaced by its reference time, and only the rest of the probe, the
program's own part, is scaled by the kernel:

    reported = START_REFERENCE_S + (probe - start) * scale(before, after)

A program change moves the probe and not the start, so it moves the
reported set-up by the seconds it adds to the raw one, taken to the
reference speed.
"""
from __future__ import annotations

import heapq
import math
import subprocess
import sys
from time import perf_counter

import numpy as np

# Kernel time that defines the reference speed: about its median on a
# 2-CPU Intel Xeon virtual machine (Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.028

# The bare interpreter start taken off each set-up probe, and the time that
# replaces it: about its median on the same machine, started by run.py
# between passes.
START_COMMAND = (sys.executable, "-c", "import numpy")
START_REFERENCE_S = 0.22


def kernel_s() -> float:
    """Wall time of one run of the fixed calibration kernel (~30 ms)."""
    t0 = perf_counter()
    heap: list = []
    x, acc = 0.1, 0.0
    for i in range(20000):
        x = (x * 3.9) % 1.0
        heapq.heappush(heap, (x, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        acc += math.sqrt(x) * x
    a = np.arange(12.0).reshape(3, 4)
    for i in range(1500):
        b = a @ a.T + i
        acc += float((b * b).sum())
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel went non-finite")
    return perf_counter() - t0


def scale(before_s: float, after_s: float) -> float:
    """Factor that takes a time measured between two kernel runs to the
    reference speed."""
    return REFERENCE_S / (0.5 * (before_s + after_s))


class HostClock:
    """The calibration kernel, run on request in a child process.

    Use it as a context manager: leaving the block ends the child and
    waits for it.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.kernel_s()     # the first run pays for imports and page faults

    def kernel_s(self) -> float:
        """Wall time of one kernel run in the child."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed process ended early")
        return float(line)

    def close(self) -> None:
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "HostClock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(kernel_s()), flush=True)
