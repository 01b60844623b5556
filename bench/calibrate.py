"""Machine-speed samples that scale timings to one reference speed.

On the 2-CPU shared machine this benchmark was tuned on (x86_64, Python
3.11), the speed of pure-Python code changes by up to 2x from second to
second, for reasons outside the process: the median of 20 consecutive
``wide_star`` ticks moved between 11 and 24 ms within one process, and
whole runs could fall in a fast or a slow phase, so raw medians of the
same code differed by 30% between runs.

While a measured process runs, ``run.py`` times a fixed piece of
interpreter work every ``PERIOD_S`` on a thread of its own, which runs on
the otherwise idle second CPU. A measured interval is reported as
``raw * REFERENCE_NS / probe``, where ``probe`` is the mean probe time
during the interval: the time the interval would have taken while the
probe ran in ``REFERENCE_NS``. Over 25 calls of ``wide_star``'s ``btt
run`` command, this cut the spread of their times (standard deviation over
mean) from 17% raw to 4%; probes taken just before and after each call
gave 18%. Raw times are kept beside the scaled ones in the record that
``run.py`` writes.
"""

from __future__ import annotations

import bisect
import threading
import time

# Probe time in the machine's faster phase; any fixed value would do, this
# one keeps scaled figures close to raw ones on that machine.
REFERENCE_NS = 220_000
PERIOD_S = 0.01
# An interval is scaled by the probes within this margin of it.
WINDOW_NS = 15_000_000

# The probe does what a tick of a large tree does most: it looks keys up
# in a table of about 2 MB, writes results back, and allocates and keeps a
# small object per step. So, like a tick, it feels contention for the
# shared caches and the memory bus as well as for the core. It runs in
# ``run.py``'s process, so its allocations do not touch the measured one.
_SIZE = 16384
_KEYS = tuple(f"key{i}" for i in range(_SIZE))
_TABLE = dict.fromkeys(_KEYS, 0)


class _Event:
    __slots__ = ("step", "key")

    def __init__(self, step, key):
        self.step = step
        self.key = key


def _work(table=_TABLE, keys=_KEYS):
    events = []
    j = 0
    for i in range(600):
        j = (j + 7919) & (_SIZE - 1)
        k = keys[j]
        table[k] = (table[k] + i) & 0xFFFF
        events.append(_Event(i, k))
    return events


def probe_ns():
    """Fastest of three runs of the fixed work, in nanoseconds."""
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        _work()
        ns = time.perf_counter_ns() - start
        if best is None or ns < best:
            best = ns
    return best


class Timeline:
    """Probe results by the ``perf_counter_ns`` time they were taken at.

    ``perf_counter_ns`` reads the system-wide monotonic clock on Linux, so
    intervals measured in a child process can be looked up here.
    """

    def __init__(self):
        self.times = []
        self.probes = []

    def sample(self):
        start = time.perf_counter_ns()
        ns = probe_ns()
        self.times.append(start + ns // 2)
        self.probes.append(ns)

    def speed_ns(self, start, end):
        """Mean probe time around [start, end], or the nearest probe's."""
        lo = bisect.bisect_left(self.times, start - WINDOW_NS)
        hi = bisect.bisect_right(self.times, end + WINDOW_NS)
        if lo < hi:
            return sum(self.probes[lo:hi]) / (hi - lo)
        if not self.times:
            return REFERENCE_NS
        mid = (start + end) // 2
        i = min(range(len(self.times)), key=lambda k: abs(self.times[k] - mid))
        return self.probes[i]

    def scale(self, start, end):
        """Duration of [start, end] in nanoseconds, at reference speed."""
        return (end - start) * REFERENCE_NS / self.speed_ns(start, end)


class Sampler:
    """Context manager that fills a Timeline from a thread until it exits."""

    def __init__(self):
        self.timeline = Timeline()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            self.timeline.sample()
            self._stop.wait(PERIOD_S)

    def __enter__(self):
        self._thread.start()
        return self.timeline

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        if self._thread.is_alive():
            raise RuntimeError("speed sampler thread did not stop")
