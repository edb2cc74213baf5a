"""Wall time rescaled to a fixed host speed.

The benchmark host is a share of a busy machine. The same pure-Python code
runs up to about 1.8 times slower in one second than in the next, with CPU
time equal to wall time, so the slowdown is the host's and not preemption.
A median over batches cannot remove it, because its slow and fast phases
last from a fraction of a second to minutes.

So while the measured code runs, a timer interrupts it every TICK_S and times
a fixed pure-Python reference kernel. Each stretch of measured code between
two ticks is scaled by REF_KERNEL_S / (kernel time at the tick that ends the
stretch) and the stretches are summed: that is the wall time the code would
take on a host that runs the kernel in REF_KERNEL_S. The kernel's own time is
left out of both the raw and the rescaled figures.
"""

from __future__ import annotations

import bisect
import signal
import time
from math import gcd

TICK_S = 0.05
# Median kernel time on the baseline host (2-core Intel Xeon VM, Python 3.11).
# It only sets the scale of the rescaled figures.
REF_KERNEL_S = 0.0025


def kernel() -> int:
    """Fixed pure-Python work: modular arithmetic, gcd and dict traffic."""
    x, acc, seen = 12345, 0, {}
    for _ in range(3000):
        x = (x * 1103515245 + 12345) % 2147483647
        acc += gcd(x, 30030) + x % 97
        seen[x & 255] = acc
    return acc + len(seen)


class RefClock:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.kernel_s: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        kernel()
        self.starts.append(t)
        self.kernel_s.append(time.perf_counter() - t)

    def start(self) -> None:
        for _ in range(10):  # warm the kernel's code paths before timing it
            kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        """Stop the timer; a last tick closes the final stretch."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def seconds(self, a: float, b: float) -> tuple[float, float]:
        """(raw, rescaled) seconds of measured code in [a, b], after stop()."""
        raw = ref = 0.0
        prev = a
        k = bisect.bisect_left(self.starts, a)
        while True:
            t, d = self.starts[k], self.kernel_s[k]
            stretch = min(t, b) - prev
            raw += stretch
            ref += stretch * REF_KERNEL_S / d
            if t >= b:
                return raw, ref
            prev = t + d
            k += 1
