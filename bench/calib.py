"""Calibration kernel that tracks the host's speed.

On a shared host the same pure-Python work can take twice as long from one
second to the next.  The benchmark times a fixed kernel (arithmetic plus a
memory walk) next to every timed operation and reports times at reference
speed:

    reported = wall time * KERNEL_REF_S / (kernel time around the operation)

so a uniform slowdown of the host cancels out while a slower program does
not.  Raw wall-clock figures are kept in the result file.

The kernel time around an operation is the mean of the samples taken just
before it, just after it and, for in-process operations, every
SAMPLE_EVERY_S during it (from a timer signal; the time the samples take
is not counted as the operation's).  Operations that run a child process
(CLI calls, set-up) add a memory walk to the kernel: start-up and imports
slow with memory contention that arithmetic alone does not feel.
"""

import functools
import math
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# kernel times that define reference speed (about their median times on the
# 2-vCPU x86_64 host the benchmark was sized on)
KERNEL_REF_S = 0.5e-3
MEMORY_REF_S = 0.4e-3
BUFFER_BYTES = 8 << 20  # larger than the caches: the walk feels memory contention


def _kernel():
    """Fraction, complex and int arithmetic and list indexing: the mix that
    ginv's exact, float and finite-ring code runs."""
    acc, z, s = Fraction(0), 0j, 0
    table = list(range(64))
    for i in range(1, 160):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        z = z * (0.5 + 0.25j) + i
        s = table[(s * 31 + i) & 63]
    return acc, z, s


@functools.cache
def _buffer() -> np.ndarray:
    return np.ones(BUFFER_BYTES, dtype=np.uint8)


def _memory_walk():
    """A strided read of a buffer larger than the caches.  Process start-up
    and imports (the cli workload) slow with memory contention that the
    arithmetic kernel alone does not feel."""
    return int(_buffer()[::128].sum())


def _median3(fn) -> float:
    times = []
    for _ in range(3):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


def kernel_s(memory: bool = False) -> float:
    """The host's speed as a time: the arithmetic kernel, or with `memory`
    the geometric mean of it and the memory walk, each scaled to its
    reference.  Each is the median of three runs (one run alone is as noisy
    as the host).  In-process ops are arithmetic-bound; a child process
    spends much of its life loading code, so it is timed with `memory`."""
    k = _median3(_kernel)
    if not memory:
        return k
    return KERNEL_REF_S * math.sqrt(k / KERNEL_REF_S * _median3(_memory_walk) / MEMORY_REF_S)


def buffer_mb() -> float:
    """Memory the walk's buffer holds in this process (0 if never used)."""
    return BUFFER_BYTES / 2**20 if _buffer.cache_info().currsize else 0.0


SAMPLE_EVERY_S = 0.25


class Speed:
    """Times operations and scales them to reference speed.  In-process ops
    are also sampled during the op; ops that run a child process are not
    (the kernel would compete with the child for the pinned CPU) and use
    the memory-walk kernel."""

    def __init__(self, in_process: bool):
        self.sample_during = in_process
        self.memory = not in_process
        self.last = kernel_s(self.memory)
        self._during: list[float] = []
        self._paused = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self._during.append(kernel_s())
        self._paused += time.perf_counter() - t

    def time(self, fn):
        """Run fn(); return (result, exception, wall seconds, reference-speed
        seconds)."""
        self._during, self._paused = [], 0.0
        old = None
        if self.sample_during:
            old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        res = exc = None
        t = time.perf_counter()
        try:
            res = fn()
        except Exception as e:  # the caller records it as a failed op
            exc = e
        wall = time.perf_counter() - t
        if self.sample_during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall -= self._paused
        before, self.last = self.last, kernel_s(self.memory)
        k = statistics.fmean([before, *self._during, self.last])
        return res, exc, wall, wall * KERNEL_REF_S / k


def to_reference(wall_s: float, k_before: float, k_after: float) -> float:
    return wall_s * KERNEL_REF_S / (0.5 * (k_before + k_after))
