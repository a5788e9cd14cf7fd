"""Host-speed probe: a fixed kernel timed throughout a run.

On a small shared virtual machine the host runs the same code up to half
slower for seconds to minutes at a time, on each CPU independently, in CPU
time as much as in wall time.  A fixed kernel that owes nothing to the
package, timed at regular intervals in the same thread as the ops, slows
with them; dividing op times by its median over the run (relative to
``REF_PROBE_NS``) gives op times at a fixed host speed, to first order,
which is what one run can be compared with another by.

The kernel mixes what the package spends its time in: interpreted float
arithmetic on 3-element numpy arrays, as in the simulation loops, and a
frequency response evaluated on a 2048-point grid, as in the
transfer-function code.  The arithmetic half alone slows with the host
clearly more than the ops do, so it over-corrects them; the array half
slows less.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array

import numpy as np

# median probe time on the reference host (2-vCPU Intel Xeon virtual
# machine at 2.1 GHz, Python 3.11, numpy 2.4) in its quiet periods; a run
# whose probes take this long reports op times equal to its wall times
REF_PROBE_NS = 450_000
PROBE_INTERVAL_S = 0.1

_V0 = np.array([0.3, -0.2, 0.1])
_DV = np.array([0.05, 0.02, -0.01])
_JW = 2j * np.pi * np.logspace(-1.0, 2.0, 2048)


def probe_kernel():
    v = _V0.copy()
    s = 0.0
    for _ in range(100):
        v = v * 0.999 + _DV
        s += math.sqrt(float(v @ v)) * 0.5 - s * 1e-3
    h = (_JW + 3.0) / (_JW * _JW + 0.4 * _JW + 100.0) * np.exp(-0.01 * _JW)
    return s + float(np.abs(h).sum() + np.unwrap(np.angle(h)).sum())


class HostProbe:
    """Probe samples taken on a timer signal between ``start`` and ``stop``."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.samples_ns = array("q")
        # time spent in probes, so callers can take it out of what they time
        self.spent_ns = 0
        self._old_handler = None

    def _probe(self, *_):
        t0 = self.clock()
        probe_kernel()
        t1 = self.clock()
        self.samples_ns.append(t1 - t0)
        self.spent_ns += self.clock() - t0

    def start(self, interval_s=PROBE_INTERVAL_S):
        self._old_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._old_handler is not None:
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None

    def slowdown(self):
        """Median probe time over the reference one (> 1: slower host)."""
        return statistics.median(self.samples_ns) / REF_PROBE_NS
