"""Host-speed probes, taken between the timed calls of the in-process phases.

A shared virtual machine runs the same single-threaded code at speeds up
to about 2x apart, and the speed drifts over seconds to minutes, far
more than the change a benchmark must resolve.  A probe times a fixed
kernel that does no work of the program's: a pure-Python loop plus the
NumPy sorts, scatters and gathers the store's vector kernels are made
of.  Each timed call of the ingest and analytics phases is bracketed by
probes, and its time is rescaled to a host on which one probe takes
``REFERENCE_S``::

    normalized = measured * REFERENCE_S / mean(probe before, probe after)

so a slow minute of the host slows the probe as much as the program and
divides out.  A change to the program moves the measured time and not
the probe: the probe runs with the garbage collector off, on its own
inputs, between the timed calls.  A change that left the program busy
in a background thread would slow the probe too and part of its cost
would divide out; the in-process phases start no threads today, and the
traced run's busy times are not rescaled.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Seconds a typical probe takes on the reference host (a 2-vCPU x86 KVM
#: guest).  Rescaled times read like times on that host, whichever host
#: runs the benchmark; only their ratio between commits matters.
REFERENCE_S = 0.007
#: A probe is the fastest of this many runs of the kernel, so a timer
#: tick or an interrupt inside one run does not count.
REPEATS = 3

#: Wall seconds spent in :func:`probe` so far, so that a caller can take
#: probe time out of a phase's wall time.
spent_s = 0.0

_rng = np.random.default_rng(0x5EED)
_KEYS = _rng.integers(0, 1 << 20, 20_000)
_TABLE = np.zeros(1 << 20, dtype=np.int64)


def _kernel() -> int:
    acc = 0
    for i in range(20_000):
        acc += i & 7
    order = np.argsort(_KEYS, kind="stable")
    acc += int(np.unique(_KEYS[order]).shape[0])
    _TABLE[_KEYS] += 1
    return acc + int(_TABLE[_KEYS].sum())


def probe() -> float:
    """Seconds the kernel takes now (fastest of :data:`REPEATS` runs)."""
    global spent_s
    start = time.perf_counter()
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()
        spent_s += time.perf_counter() - start


def normalize(times, probes) -> np.ndarray:
    """Rescale ``times[i]`` by the mean of ``probes[i]`` and ``probes[i+1]``.

    ``times`` has shape (..., n) and ``probes`` (..., n + 1): the probes
    taken before each timed call and one after the last.
    """
    times = np.asarray(times, dtype=float)
    probes = np.asarray(probes, dtype=float)
    around = (probes[..., :-1] + probes[..., 1:]) / 2.0
    return times * (REFERENCE_S / around)
