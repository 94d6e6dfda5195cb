"""Host-speed sampling, to take other tenants' load out of pass times.

On a shared virtual machine the same code runs at very different speeds
from one moment to the next: other tenants' load on the host slows it by
up to 70%, in bursts from milliseconds to minutes, and process CPU time
slows with it.  Wall time of a pass then says as much about the
neighbours as about the program.

While a ``HostSpeed`` sampler runs, SIGALRM fires every ``PERIOD``
seconds and its handler times a fixed probe: 800 dictionary updates,
about 70 us on an idle core.  The handler runs in the main thread
between bytecodes (a long NumPy call delays it until the call returns),
so no thread or process is added and nothing runs beside the program.
The probe's first updates also refill the caches the program has just
used, so it slows both when the core is shared and when the memory
system is; a probe of only in-cache work tracked the NumPy-bound sweep
workload less well.

``adjusted(start, wall)`` turns a timed interval into the time it would
have taken on a core that runs the probe in ``REFERENCE`` seconds: the
interval minus the probes inside it, times the mean over the probes
around it of ``REFERENCE`` / probe duration.  Uniform-in-time samples of
1 / duration average to the work the core did per second over the
interval.  The probe is the same code in every version of hgspec, so a
change to hgspec moves the adjusted time and not the probe.
"""

from __future__ import annotations

import bisect
import signal
import time

#: seconds between probes
PERIOD = 0.02
#: the probe's duration that adjusted times are scaled to (seconds); about
#: the fastest it runs on an Intel Xeon vCPU under KVM
REFERENCE = 70e-6
#: probes this many seconds before and after an interval also count
#: towards its speed, so that a short interval still has some
MARGIN = 0.25

_KEYS = range(800)


class HostSpeed:
    """Times a fixed probe on SIGALRM and converts wall times with it.

    Use as a context manager; ``adjusted`` and ``slowdown`` read the
    probes taken before the ``with`` block ended.  This module imports
    only small standard modules (not ``statistics``, which loads
    ``random``, ``fractions`` and ``decimal``), so that a fresh
    interpreter timing an import with it has loaded little the timed
    import would need.
    """

    def __init__(self):
        # one append per probe, so a probe interrupted by the next one
        # still records a consistent pair
        self.samples: list[tuple[float, float]] = []
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def probe(self) -> None:
        """Time the probe once now (the alarm handler calls this)."""
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for key in _KEYS:
            counts[key & 63] = counts.get(key & 63, 0) + key
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.sort()
        self.starts = [s for s, _ in self.samples]
        self.durations = [d for _, d in self.samples]

    def slowdown(self) -> float:
        """Median probe duration over ``REFERENCE``."""
        ordered = sorted(self.durations)
        return ordered[len(ordered) // 2] / REFERENCE

    def adjusted(self, start: float, wall: float) -> float:
        """``wall`` seconds from ``start``, on a core at reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + wall)
        near = self.durations[
            bisect.bisect_left(self.starts, start - MARGIN):
            bisect.bisect_left(self.starts, start + wall + MARGIN)]
        if not near:
            raise ValueError(f"no probe within {MARGIN} s of an interval of "
                             f"{wall:.3f} s")
        speed = sum(REFERENCE / d for d in near) / len(near)
        return (wall - sum(self.durations[lo:hi])) * speed
