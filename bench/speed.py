"""The host's speed, sampled inside a benchmark instance.

The host's speed switches between a fast and a slow mode every few seconds,
and nothing inside the machine shows it (see README.md). So while an
untraced instance runs, an interval timer interrupts it every
``INTERVAL_S`` and times a fixed slice of pure-Python work, which uses
nothing from graphdiv. The signal handler runs between two bytecodes of
whatever the instance is doing, set-up included. A slice's factor is
``REFERENCE_S`` over the slice's time, below 1 on a host slower than the
reference. A span of the instance is reported net of the slices inside it
and multiplied by the mean factor of those slices (or of the two around it,
if it holds none): its time on a host where the slice takes
``REFERENCE_S``.

The slow mode does not slow all code alike. On one machine, record time of
the three workloads grew 1.35x to 1.6x in it, a plain arithmetic loop 1.3x
to 1.5x and a recursive bitmask clique search 1.75x to 1.9x. So the slice is
both, in about equal time, which grew 1.5x where ``perfect-weighted`` grew
1.53x.
"""

import bisect
import itertools
import random
import signal
import statistics
import time

REFERENCE_S = 0.0016
INTERVAL_S = 0.05
LOOP_ITERATIONS = 14_000


def _clique_number(adj, cand):
    if not cand:
        return 0
    low = cand & -cand
    v = low.bit_length() - 1
    without = _clique_number(adj, cand ^ low)
    if without >= (cand & adj[v]).bit_count() + 1:
        return without
    return max(without, 1 + _clique_number(adj, cand & adj[v]))


def _random_graphs(count=4, n=20):
    rng = random.Random(0)
    graphs = []
    for _ in range(count):
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        graphs.append(adj)
    return graphs


def _slice(graphs):
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    for adj in graphs:
        total += _clique_number(adj, (1 << len(adj)) - 1)
    return total


class Speed:
    """Slices taken while the timer runs: start times, durations and
    factors, all on the ``time.monotonic()`` clock."""

    def __init__(self):
        self.graphs = _random_graphs()
        self.starts, self.took, self.factors = [], [], []
        self.running = False

    def start(self):
        """Take a slice, then one every ``INTERVAL_S`` until ``stop``."""
        self._on_alarm(None, None)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.running = True

    def stop(self):
        """Stop the timer, if it was started, and take a last slice."""
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._on_alarm(None, None)
            self.running = False
        self._took_sums = [0.0, *itertools.accumulate(self.took)]

    def _on_alarm(self, signum, frame):
        started = time.monotonic()
        _slice(self.graphs)
        took = time.monotonic() - started
        self.starts.append(started)
        self.took.append(took)
        self.factors.append(REFERENCE_S / took)

    def net(self, a, b):
        """Seconds from ``a`` to ``b`` less the slices taken in between."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        return b - a - (self._took_sums[hi] - self._took_sums[lo])

    def scaled(self, a, b):
        """``net(a, b)`` at the reference speed."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        return self.net(a, b) * statistics.fmean(self.factors[lo:hi])
