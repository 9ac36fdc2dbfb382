"""Machine-speed probe, so that timings compare across runs on a shared host.

On a host shared with other tenants the speed of a vCPU steps between
levels: the probe below takes about 0.55, 0.7 or 1.05 ms, in CPU time as
much as in wall time, for stretches of seconds to minutes, and runs made
minutes apart land on different levels.  A timed run therefore interleaves
the probe with the program's operations and scales the latency of an
operation by ``REFERENCE_S`` over the median time of the probes taken
during its pass (with the bursts just before and after it).  A scaled time
is the time the operation would take with the machine at the speed where
the probe takes ``REFERENCE_S``.  Only workloads whose time goes, like the
probe's, to the interpreter are scaled (``SCALED`` in ``workloads.py``).

The probe is the benchmark's own code, integer arithmetic and small-tuple
dict updates like the program's own inner loops; it calls nothing in
arbozeta, so no change to the program can make it faster or slower.
"""
from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.001  # about the probe's median on a 2-vCPU Xeon VM
INTERVAL_S = 0.03    # least time between two probes taken by tick()
BURST = 5            # probes taken before the first pass and after each pass


def probe() -> int:
    total, counts = 0, {}
    for i in range(2500):
        total += i * i % 7
        key = (i % 31, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return total + len(counts)


class Pace:
    """Probe times taken during one run, and the scale they give each pass."""

    def __init__(self, probing: bool = True):
        self.probing = probing  # when False, nothing is probed and nothing scaled
        self.took: list[float] = []  # duration of each probe, in order
        self._next = 0.0 if probing else float("inf")

    def sample(self):
        collecting = gc.isenabled()
        gc.disable()  # the program's heap must not make the probe slower
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.took.append(end - start)
        self._next = end + INTERVAL_S

    def tick(self):
        """Probe, unless the last probe ended less than INTERVAL_S ago."""
        if time.perf_counter() >= self._next:
            self.sample()

    def burst(self):
        for _ in range(BURST if self.probing else 0):
            self.sample()

    def scaled(self, latencies: list[float], since: int) -> list[float]:
        """Latencies times REFERENCE_S over the median of the probes from
        number ``since`` on."""
        if not self.probing:
            return list(latencies)
        scale = REFERENCE_S / statistics.median(self.took[since:])
        return [latency * scale for latency in latencies]
