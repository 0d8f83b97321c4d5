"""Host-speed calibration: a fixed kernel timed next to every measurement.

On a shared host the speed of one core swings by up to 2x for tens of
seconds at a time, and CPU time swings with it, so the median wall time of
a run of 40 seconds mostly says what the host was doing during those seconds.
The benchmark therefore times a fixed calibration kernel around every
timed operation (and every set-up probe) and reports each timing scaled to
a nominal host speed:

    scaled = wall * NOMINAL_S / mean(kernel time before, kernel time after)

The kernel is a run of the benchmark's own pure-Python E_p^(m) products on
fixed matrices, about 40 ms long: the same kind of interpreter-bound integer
work as the program's ring products and its Python-int solver.  On the
2-vCPU host of README.md its time followed the slow spells of every
workload; an element-wise numpy kernel did not, and taking it into the mix
made the scaled figures noisier.  At times the host flips between its fast
and slow speed within a second; a kernel of a few milliseconds then catches
one speed or the other, while 40 ms average over both, as the operations
timed between two kernels do.
The kernel does not import ``epm``, so no change to the program can move it,
and the cyclic garbage collector is off while it runs, so the program's heap
does not leak into it.  A change that makes the program faster or slower
moves the scaled figure in proportion.
"""

from __future__ import annotations

import gc
import random
import time

import reference

# Near the fastest the kernel ran on a core of that host; scaled timings
# read in seconds at that speed.  It is a fixed unit, not a tuned value:
# changing it rescales every scaled figure alike.
NOMINAL_S = 0.036

P, M, REPS = 5, 14, 128


class Calibrator:
    def __init__(self):
        rng = random.Random(0)
        self.a = reference.random_member(P, M, rng)
        self.b = reference.random_member(P, M, rng)
        self.samples: list[float] = []

    def measure(self) -> float:
        """Seconds the kernel takes now."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(REPS):
                reference.mul(P, self.a, self.b)
            seconds = time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(seconds)
        return seconds


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time taken between two kernel measurements
    into seconds at the nominal host speed."""
    return NOMINAL_S / ((before + after) / 2)
