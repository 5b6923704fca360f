"""Machine speed, sampled while the program runs, to take host noise out of times.

The benchmark was written on a 2-vCPU virtual machine whose cores are shared
with other tenants. There, the same pure-Python loop switches between two
speeds, about 1.7x apart, many times a second, and the share of slow time
drifts over minutes. Wall times of the same code then move by 30-50% from
one run to the next; a minimum or a median over a run does not help, since a
whole run can sit in a slow phase.

`SpeedProbe` runs a fixed kernel in a background thread every few
milliseconds, on the same CPU as the program (the process is pinned to one
CPU), and records when each kernel ran and how long it took. An op that ran
from t0 to t1 is then reported as

    (t1 - t0 - kernel time inside it) * REFERENCE_KERNEL_S / mean kernel time near it

that is, in seconds at the machine speed at which the kernel takes
`REFERENCE_KERNEL_S`. The kernel does not use the package and keeps no object
alive, so it cannot change what the program computes; it costs about 1-2%
of the run. Code that slows down by another factor than the kernel does when
the host is busy keeps part of the noise.
"""

from __future__ import annotations

import bisect
import itertools
import os
import threading
import time

# Kernel time at the fast speed of the machine the benchmark was written on
# (a 2-vCPU shared Intel Xeon VM, CPython 3.11.7): the 5th percentile of
# about 10^4 probe kernels run beside the enumerate and large-file ops. It
# only fixes the unit; every reported time scales with it.
REFERENCE_KERNEL_S = 17.3e-6
PERIOD_S = 0.002
# Kernels this far around an op are averaged into its speed, so that even a
# short op has a few near it.
WINDOW_S = 0.02
_FLAVORS = ("A", "B", "C")


def kernel() -> int:
    """A fixed pure-Python loop in the style of the program's node rule:
    every flavor triple along a 4-edge path, tested as all equal or all
    distinct. On the machine the benchmark was written on, this kernel's
    speed tracked the solver's, the renderer's and the parser's better than
    plain dict and arithmetic loops did."""
    n = 0
    for a, b, c, d in itertools.product(_FLAVORS, repeat=4):
        if len({a, b, c}) in (1, 3) and len({b, c, d}) in (1, 3):
            n += 1
    return n


def pin_to_one_cpu() -> None:
    """Keep the program, its probe thread and its children on one CPU, so the
    probe measures the CPU the program runs on."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            start = clock()
            kernel()
            end = clock()
            self.starts.append(start)
            self.ends.append(end)

    def __enter__(self) -> "SpeedProbe":
        kernel()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, t0: float, t1: float) -> float:
        """The op from t0 to t1, in seconds at the reference speed."""
        starts, ends = self.starts, self.ends
        n = len(ends)  # the thread may be between its two appends
        lo = bisect.bisect_left(starts, t0 - WINDOW_S, 0, n)
        hi = bisect.bisect_right(ends, t1 + WINDOW_S, 0, n)
        if hi <= lo:  # no kernel near the op (the probe thread was starved): take the nearest ones
            lo, hi = max(0, lo - 2), min(n, hi + 2)
        if hi <= lo:
            raise RuntimeError("the speed probe recorded no kernel")
        near = [ends[k] - starts[k] for k in range(lo, hi)]
        inside = sum(ends[k] - starts[k] for k in range(lo, hi) if starts[k] >= t0 and ends[k] <= t1)
        return (t1 - t0 - inside) * REFERENCE_KERNEL_S * len(near) / sum(near)
