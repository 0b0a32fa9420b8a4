"""Machine-speed probe: rescales timed work to a fixed reference speed.

The benchmark shares a few cores of a host with other tenants, and this
host's speed for one thread swings by up to a factor of two within
seconds as the neighbours' load comes and goes.  A median over one run
then depends on how much of the run fell in the slow spells.

While an op runs, a SIGALRM handler times :func:`reference` (fixed
pure-Python work, 0.4 to 0.8 ms) every ``PERIOD_S`` seconds of wall time (``COLD_START_PERIOD_S`` in a cold
start, which lasts under a second),
and once more at the start and at the end.  Each stretch of program time
between two reference samples is rescaled by ``REFERENCE_S`` over the
mean of those two samples, so a stretch run while the machine was slow
counts as the time it would have taken at the reference speed.  The
rescaled sum is :attr:`Probe.scaled_s`; the program time without the
reference samples is :attr:`Probe.wall_s`.  A slower program shows in
full, since the reference does not change; a slower machine mostly does
not.

Python runs the handler between bytecodes of the main thread, so a long
C call (a large NumPy draw, say) delays it and that stretch is rescaled
by the samples on either side.  The reference imports nothing, so the probe can run in a cold start before NumPy is imported.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
COLD_START_PERIOD_S = 0.02
# About the median time of reference() on the machine the baseline was
# recorded on (2-core Xeon, Python 3.11.7), which ranged from 0.4 ms in a
# fast spell to 0.8 ms.  Any fixed value works: it sets the speed that
# scaled times refer to.
REFERENCE_S = 0.0007


def reference() -> float:
    """A fixed amount of interpreter work.

    Half is float arithmetic in a tight loop, half allocates small dicts,
    strings and tuples.  The first half alone tracks the program's loops
    but not a cold start's imports; together they track both.
    """
    s = 0.0
    d = {}
    for i in range(1200):
        x = i * 0.001
        s += (1.0 + x) ** 0.5 / (1.0 + x * x)
        d[i & 63] = (x, s)
    objs = []
    for i in range(300):
        objs.append({"a": i, "b": str(i), "c": (i, i + 1)})
        if i % 8 == 0:
            objs[i // 2]["b"] += "x"
    return s + len(d) + len("".join(o["b"] for o in objs[::16]))


class Probe:
    """Time a stretch of work in the calling (main) thread; see the module doc."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[tuple[float, float]] = []  # (start, end) of each reference run
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.reference_s = 0.0  # time spent in reference samples

    def _sample(self) -> None:
        t0 = time.perf_counter()
        reference()
        self.samples.append((t0, time.perf_counter()))

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        """End the stretch and compute ``wall_s`` and ``scaled_s``."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)
        wall = scaled = 0.0
        for prev, nxt in zip(self.samples, self.samples[1:]):
            stretch = nxt[0] - prev[1]
            ref = 0.5 * ((prev[1] - prev[0]) + (nxt[1] - nxt[0]))
            wall += stretch
            scaled += stretch * REFERENCE_S / ref
        self.wall_s, self.scaled_s = wall, scaled
        self.reference_s = sum(end - start for start, end in self.samples)
