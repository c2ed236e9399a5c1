"""CPU clock and host-speed calibration for the irrev benchmark.

Times are CPU seconds (user + system) of a process and of the child
processes it waited for.  On a shared host that is not enough: the same work
runs at two speeds 1.4x to 1.7x apart, the machine switching between them
every few seconds to minutes, so raw CPU seconds of the same job list differ
by a quarter or more from one run to the next.  calibrate() times a fixed
kernel of the benchmark's own code, which the program under test cannot
change.  The package's jobs do not all feel the slow state alike: the
interpreter-bound optimizer and branch-and-bound slow down most, the dense
numpy grid of the oracle least.  The kernel mixes the same kinds of work
(tuple-keyed dict updates, small numpy reductions, passes over a large
array), so that it slows down by a factor in between.  A time measured
between two calibrations is scaled by CALIBRATION_REF_S over their mean:
seconds at the host speed the constant was taken at.
"""

from __future__ import annotations

import gc
import resource
import time

import numpy

# Median time of calibrate() on the reference machine (2-vCPU x86_64 VM,
# Python 3.11, numpy 2.4) in its usual, slower state.
CALIBRATION_REF_S = 0.0105

_IDX = numpy.arange(200) % 7
_ARR = numpy.arange(200.0)
# The large-array part works in place on buffers allocated once, so that the
# state the program leaves the allocator in does not change its cost.
_BIG = numpy.linspace(0.0, 1.0, 240_000)
_BUF = numpy.empty_like(_BIG)


def cpu_seconds() -> float:
    """CPU seconds (user + system) of this process and its waited-for children."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


def calibrate() -> float:
    """CPU seconds of the fixed reference kernel, with the collector off so
    that garbage the program left behind does not bill it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        counts: dict = {}
        for i in range(14_000):
            key = (i % 97, i % 89, i % 83)
            counts[key] = counts.get(key, 0) + 1
        a = _ARR.copy()
        for _ in range(900):
            numpy.bincount(_IDX, weights=a, minlength=7)
            a = numpy.log2(a + 1.0)
        numpy.copyto(_BUF, _BIG)
        for _ in range(6):
            numpy.multiply(_BUF, _BUF, out=_BUF)
            numpy.add(_BUF, 1.0, out=_BUF)
            numpy.sqrt(_BUF, out=_BUF)
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into
    seconds at the reference speed."""
    return CALIBRATION_REF_S / ((before + after) / 2)
