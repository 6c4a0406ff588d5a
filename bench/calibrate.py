"""Scale measured times to a reference machine speed.

On a shared host the CPU's speed flips between levels about 1.7 times apart,
often several times a second, while neighbours load the machine; that would
swamp any regression bound.  While ``Speed`` is started, a SIGPROF handler
times a small fixed pure-Python probe (a Cayley-table scan in the program's
style, written here so that no change to the program can change it) every
PROBE_INTERVAL_S of the process's CPU time, inside operations as well as
between them.  The probe runs once untimed first: a cold probe's time
depends on what the program left in the caches, and in trials it tracked
the program's speed about half as well.

A time measured over [start, end] is reported multiplied by the mean, over
the probes taken in that interval, of REFERENCE_S over the probe's time:
seconds on a machine where the probe takes REFERENCE_S.  Since the probes
run at even steps of CPU time, the mean weighs every stretch of the interval
by its length, so a speed flip halfway through an operation scales only the
half it slowed.  An interval holding fewer than MIN_SAMPLES probes (a short
operation) is widened to the nearest MIN_SAMPLES.  The probes' own time is
taken out of every time they fall in (``probed``).  Both sides of any
comparison run the same probe at the same rate, so the scaling cannot
favour one of them.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time

# About the median probe time within a run on the machine the benchmark was
# defined on.
REFERENCE_S = 0.0002
PROBE_INTERVAL_S = 0.02
MIN_SAMPLES = 6

_N = 7
_TABLE = tuple(tuple((x - y) % _N for y in range(_N)) for x in range(_N))
_TEXT = "\n".join(" ".join(str(v) for v in row) for row in _TABLE)


def kernel() -> int:
    """Parse a table, scan an identity over all triples, test some maps."""
    rows = [tuple(int(tok) for tok in line.split()) for line in _TEXT.splitlines()]
    kernels = [frozenset(x for x in range(_N) if rows[x][y] == 0) for y in range(_N)]

    def commutes(d, x, y):
        return d[rows[x][y]] == rows[d[x]][y]

    maps = []
    for shift in range(_N):
        d = tuple((x + shift) % _N for x in range(_N))
        if all(commutes(d, x, y) for x in range(_N) for y in range(_N)):
            maps.append(d)
    bad = 0
    for x in range(_N):
        tx = rows[x]
        for y in range(_N):
            txy, ty = tx[y], rows[y]
            for z in range(_N):
                if rows[rows[ty[z]][tx[z]]][txy] != 0:
                    bad += 1
    return bad + len(json.dumps({"maps": sorted(maps),
                                 "kernels": [sorted(k) for k in kernels]}))


class Speed:
    """Probe timings taken through a run, and the scale they imply."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent: list[float] = []  # with the untimed run
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        """Time the probe once; a no-op inside another sample."""
        if self._busy:
            return
        self._busy = True
        try:
            begin = self.clock()
            kernel()
            start = self.clock()
            kernel()
            end = self.clock()
            self.at.append((start + end) / 2)
            self.took.append(end - start)
            self.spent.append(end - begin)
        finally:
            self._busy = False

    def start(self) -> None:
        """Sample every PROBE_INTERVAL_S of CPU time until ``stop``."""
        self._previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S over the probe time in [start, end]."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return statistics.fmean(REFERENCE_S / took for took in self.took[lo:hi])

    def probed(self, start: float, end: float) -> float:
        """Seconds spent in probes taken within [start, end]."""
        return sum(self.spent[bisect.bisect_left(self.at, start):
                              bisect.bisect_right(self.at, end)])

    def median(self) -> float:
        return statistics.median(self.took)
