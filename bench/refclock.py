"""Time measured in runs of a fixed reference kernel.

The benchmark shares a 2-vCPU virtual machine with other tenants.  Its
speed moves by up to half from one minute to the next (a fixed
pure-Python loop takes 15 ms while the sibling hardware thread is idle
and 22 ms or more while it is busy), and neither wall time nor process
CPU time removes that.  So every operation is timed in units of a
reference kernel: a small loop of Python-level float and numpy work, the
same mix the program's RK4 loops run.  The kernel is run at the start
and end of each operation and, by SIGALRM, every PERIOD seconds in
between.  Each stretch of the operation's own work between two kernel
runs is divided by the local kernel time (a rolling median of the nearby
runs), and the stretches are summed.  Kernel time itself is left out.
"""

import signal
import statistics
import time

import numpy as np

PERIOD = 0.25  # seconds of wall time between kernel runs inside an operation
WINDOW = 2  # kernel runs on each side that make up the rolling median
KERNEL_STEPS = 2500
#: One kernel run in seconds at the reference speed: about its median time
#: on the 2-vCPU Xeon (2.1 GHz) the benchmark was tuned on.  Kernel units
#: times KERNEL_S are the "reference seconds" the benchmark reports.
KERNEL_S = 0.02


def kernel():
    """About 20 ms of small numpy and float work at the machine's usual speed."""
    x = np.array([0.1, -0.2])
    v = np.array([0.3, 0.05])
    acc = 0.0
    for k in range(KERNEL_STEPS):
        a = -x - 0.1 * v + 0.5 * np.sin(x)
        v = v + 0.01 * a
        x = x + 0.01 * v
        acc += float(x[0]) * 1e-3 - acc * 1e-4 + (k % 7) * 1e-9
    return acc


class ReferenceClock:
    """Times callables in reference-kernel units; see the module docstring."""

    def __init__(self, period=PERIOD):
        """period=None samples the kernel only at the start and end of a call."""
        self.period = period
        self._runs = []  # (start, seconds) of every kernel run in the current call
        self._busy = False
        kernel()  # warm up: numpy ufunc loops and the interpreter's caches

    def _sample(self):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self._runs.append((start, time.perf_counter() - start))
        self._busy = False

    def _on_alarm(self, signum, frame):
        self._sample()

    def measure(self, fn):
        """Run fn; return (its result or exception, kernel units, seconds of own work)."""
        self._runs = []
        self._sample()
        if self.period is not None:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            outcome = fn()
        except Exception as exc:  # handed to the caller, which counts it
            outcome = exc
        finally:
            if self.period is not None:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        self._sample()
        units, seconds = self._units()
        return outcome, units, seconds

    def _units(self):
        runs = self._runs
        kernel_times = [seconds for _, seconds in runs]
        units = seconds_total = 0.0
        for k in range(len(runs) - 1):
            work = runs[k + 1][0] - (runs[k][0] + runs[k][1])
            lo, hi = max(0, k - WINDOW + 1), min(len(runs), k + WINDOW + 1)
            units += work / statistics.median(kernel_times[lo:hi])
            seconds_total += work
        return units, seconds_total
