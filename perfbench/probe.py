"""CPU-speed probe: rescales wall time to a fixed reference speed.

On a shared machine the CPU speed a process gets can swing by half or
more within seconds, in spells too long for any affordable run to
average away. While installed, `SpeedProbe` interrupts the process at a
fixed interval (SIGALRM, handled in the main thread) and times a fixed
reference loop of interpreter work. Over a region of net wall time T in
which the loop took p_1..p_n seconds, the work costs
T * mean(REFERENCE_LOOP_S / p_i) reference seconds: when the machine
slows down, the loop slows down with it and the figure stays put.

REFERENCE_LOOP_S only sets the scale. It is roughly the loop's duration
on the reference machine (2-vCPU Xeon VM, Python 3.11) when it
interrupts a workload, so reference seconds read close to wall seconds
there. The probe's own time is counted so callers can subtract it; at
the default interval it is about 0.2% of the run.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REFERENCE_LOOP_S = 100e-6
LOOPS = 400


def reference_loop() -> int:
    """Fixed interpreter work: arithmetic, tuples, dict reads and writes."""
    table: dict = {}
    acc = 0
    for i in range(LOOPS):
        key = (i & 31, i & 7)
        acc += table.get(key, i) * 3 % 7
        table[key] = acc
    return acc


class SpeedProbe:
    """Install with ``with SpeedProbe() as probe:``; read after exit."""

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_loop()
        self.samples.append(perf_counter() - start)

    @property
    def probe_s(self) -> float:
        """Time the probe itself took so far."""
        return sum(self.samples)

    def ref_seconds(self, net_s: float) -> float:
        """``net_s`` wall seconds at the reference speed."""
        if not self.samples:
            raise RuntimeError("region too short for the speed probe")
        return net_s * statistics.fmean(REFERENCE_LOOP_S / p for p in self.samples)
