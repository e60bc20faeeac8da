"""Host speed sampled during a measured call, so run_s can be scaled to a
fixed host speed.

On a shared host the speed one process gets drifts by a fifth or more over
tens of seconds, with nothing of its own changing: the same 20 s fit took
from 16 to 26 s from one call to the next, and almost none of it was time
stolen by the hypervisor.  It is contention for the caches and memory that
the host's tenants share.  A timer interrupts the measured call every
``INTERVAL_S`` of wall time; its handler times a fixed reference, a random
gather over an array about the size of the core's L2 cache, on the same
thread, so each sample sees the caches of the core the call runs on at that
moment.  The gather runs once untimed first, so the timed pass finds its
arrays in cache whatever the measured call had been doing.  Its median
during the four workloads, whose working sets run from a few MB to 300 MB,
differed by 6% at most, while the host moved it by 20%.

The call's wall time times ``NOMINAL_S`` over the median sample is the time
the call would take on a host that runs the reference in ``NOMINAL_S``.  The
reference is benchmark code, so a change to the package moves the scaled
time as it moves the wall time.  The reference sees only part of the
slowdown the fits suffer, so scaling narrows the spread of run_s rather
than removing it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.1
# median reference time on a 2-vCPU Intel Xeon VM with 2 MB of L2 per core
NOMINAL_S = 500e-6

_rng = np.random.default_rng(0)
_DATA = _rng.random(1 << 17)              # 1 MB
_ORDER = _rng.permutation(_DATA.size)     # 1 MB of indices


def reference() -> float:
    """Seconds taken by one random gather over ``_DATA``."""
    t0 = time.perf_counter()
    _DATA[_ORDER].sum()
    return time.perf_counter() - t0


@contextmanager
def sampling(samples: list):
    """Append one reference time to ``samples`` every ``INTERVAL_S`` while
    the block runs; the handler runs on the main thread."""
    def handler(signum, frame):
        reference()
        samples.append(reference())

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def scaled(seconds: float, samples) -> float:
    """Wall time scaled to the nominal host speed; unscaled without samples."""
    if not samples:
        return seconds
    return seconds * NOMINAL_S / statistics.median(samples)
