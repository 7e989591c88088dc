"""Host time rescaled to a reference host speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds (neighbours, frequency).  A fixed pure-Python probe
(a small cache model) runs every :data:`PERIOD_S` seconds from a
``SIGALRM`` handler, in the benchmark's own thread, so it samples the
host's speed inside the very window being measured.  A measured interval is then

* stripped of the probe time that fell inside it, and
* scaled by ``REF_PROBE_S / mean probe duration`` over the interval:
  the seconds the same work would take on the reference host, where one
  probe takes exactly :data:`REF_PROBE_S`.

The raw host seconds are kept next to every scaled figure.  The probe
touches no simulator state, so simulated outputs are unchanged (the
fingerprints check that).
"""

from __future__ import annotations

import bisect
import signal
import time

#: Seconds between probes.
PERIOD_S = 0.025
#: Probe duration on the reference host.
REF_PROBE_S = 1.0e-3
#: Probes closer than this to an interval also describe its host speed
#: (an interval shorter than the period may contain none).
MARGIN_S = 0.25


class _ProbeCache:
    """A small set-associative LRU cache model: the probe does the kind
    of work the simulator does (list and attribute traffic, method
    calls, branches), so the two respond alike to the host's speed.
    It shares no code with the program under test."""

    __slots__ = ("sets", "mask", "ways", "hits", "misses", "cycles")

    def __init__(self, n_sets: int = 64, ways: int = 8):
        self.sets = [[] for _ in range(n_sets)]
        self.mask = n_sets - 1
        self.ways = ways
        self.hits = 0
        self.misses = 0
        self.cycles = 0.0

    def access(self, line: int) -> bool:
        ways = self.sets[line & self.mask]
        if line in ways:
            self.hits += 1
            self.cycles += 4.0
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            return True
        self.misses += 1
        self.cycles += 40.0
        if len(ways) >= self.ways:
            ways.pop(0)
        ways.append(line)
        return False


def _probe_loop(cache: _ProbeCache) -> None:
    access = cache.access
    x = 0
    for _ in range(1100):
        x = (x * 1103515245 + 12345) & 0xFFFF
        access(x & 1023)


class HostClock:
    """Periodic speed probe plus interval scaling (use as a context)."""

    def __init__(self):
        self._cache = _ProbeCache()
        self.stamps: list = []
        self.durations: list = []
        self._spent: list = [0.0]

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe_loop(self._cache)
        t1 = time.perf_counter()
        self.stamps.append(t0)
        self.durations.append(t1 - t0)
        self._spent.append(self._spent[-1] + t1 - t0)

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_free(self) -> float:
        """A host clock that stands still while a probe runs."""
        return time.perf_counter() - self._spent[-1]

    def raw(self, start: float, end: float) -> float:
        """Host seconds of ``[start, end)`` minus the probes inside."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_left(self.stamps, end)
        return end - start - (self._spent[hi] - self._spent[lo])

    def speed(self, start: float, end: float) -> float:
        """Reference-host seconds per host second around the interval."""
        lo = bisect.bisect_left(self.stamps, start - MARGIN_S)
        hi = bisect.bisect_right(self.stamps, end + MARGIN_S)
        if hi <= lo:
            raise RuntimeError("no host-speed probe near the interval")
        mean = (self._spent[hi] - self._spent[lo]) / (hi - lo)
        return REF_PROBE_S / mean

    def seconds(self, start: float, end: float) -> float:
        """``[start, end)`` in reference-host seconds."""
        return self.raw(start, end) * self.speed(start, end)
