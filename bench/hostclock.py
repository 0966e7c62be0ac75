"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
tens of percent within a minute; the process's CPU time drifts with its
wall time, so neither clock alone makes runs comparable.  A HostClock
therefore samples the host's speed while the workload runs: a SIGALRM
every INTERVAL_S interrupts the main thread between bytecodes and times a
fixed pure-Python kernel (dict, set, tuple and int work, like sftcd's own)
on the thread's CPU clock.  The CPU clock keeps the sample honest when the
workload's own child processes compete for the cores.

span(a, b) turns a perf_counter interval of the workload into
(raw_s, ref_s): raw_s is the interval without the time spent in the
handler, ref_s weighs each stretch between two samples by CAL_REF_S over
the median kernel time of the nearby samples, that is, it gives the
seconds the interval would take on a host that runs the kernel in
CAL_REF_S.  The kernel lives here and never changes with sftcd, so a
change to sftcd moves ref_s as it moves raw_s, while the host's drift
cancels out.
"""
from __future__ import annotations

import signal
import statistics
from bisect import bisect_right
from time import perf_counter, thread_time

INTERVAL_S = 0.05
# The kernel's CPU time at the median speed of the host the benchmark was
# written on (Intel Xeon, 2 vCPUs, Python 3.11.7).
CAL_REF_S = 0.002
WINDOW = 9  # samples in the median around each stretch (about 0.45 s)
PAD = 9  # samples taken when the clock stops, so that short phases have a window


def kernel(n=2500):
    groups = {}
    acc = 0
    for i in range(n):
        key = (i * 7919) % 1009
        members = groups.get(key)
        if members is None:
            groups[key] = members = set()
        members.add(i & 63)
        acc += len(members)
        acc ^= hash((key, i & 7, acc & 255)) & 1023
        acc = (acc << 1 | acc >> 9) & 0x3FF
    return acc


class HostClock:
    def __init__(self):
        self.samples = []  # (begin, end, kernel CPU seconds)
        self._ks = None

    def _sample(self, *_):
        begin = perf_counter()
        c0 = thread_time()
        kernel()
        cpu = thread_time() - c0
        self.samples.append((begin, perf_counter(), cpu))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(PAD):
            self._sample()
        cpu = [s[2] for s in self.samples]
        half = WINDOW // 2
        self._ks = [
            statistics.median(cpu[max(0, i - half):i + half + 1]) for i in range(len(cpu))
        ]
        self._begins = [s[0] for s in self.samples]
        self._ends = [s[1] for s in self.samples]

    def slowdown(self):
        """Median kernel time over CAL_REF_S: above 1 on a slow host."""
        return statistics.median(s[2] for s in self.samples) / CAL_REF_S

    def span(self, a, b):
        """(raw_s, ref_s) of the perf_counter interval [a, b]."""
        raw = ref = 0.0
        cur = a
        j = bisect_right(self._ends, a)
        while j < len(self.samples) and self._begins[j] < b:
            stretch = max(0.0, min(self._begins[j], b) - cur)
            raw += stretch
            ref += stretch * CAL_REF_S / self._ks[j]
            cur = max(cur, self._ends[j])
            j += 1
        stretch = max(0.0, b - cur)
        raw += stretch
        ref += stretch * CAL_REF_S / self._ks[min(j, len(self._ks) - 1)]
        return raw, ref


class NullClock:
    """No sampling: both times are the plain interval (traced runs)."""

    def start(self):
        pass

    def stop(self):
        pass

    def slowdown(self):
        return None

    def span(self, a, b):
        return b - a, b - a
