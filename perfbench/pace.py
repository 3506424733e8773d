"""The machine's pace, sampled next to each timed operation.

On a shared virtual machine the same code can run 1.5-1.8x slower for
seconds to minutes at a time, whatever this process does. Wall times taken
minutes apart then differ by more than any change worth measuring. So the
pace of a fixed calibration kernel is sampled before and after every timed
operation, and during it every SAMPLE_EVERY_S from a timer signal, and the
operation's wall time is rescaled to a reference pace:

    paced_s = wall_s * REFERENCE_BLOCK_S / mean(pace samples)

A slow spell stretches the operation and the blocks around it alike and
cancels out; a slower engine stretches only the operation and shows in
full. The kernel mixes the kinds of work the engine does: a pure-Python
dynamic-programming loop (like DTW), dictionary and string work (like
entity linking) and a numpy matrix-vector product (like the cosine scan).
It never calls the engine, so no change to the engine moves it.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

import numpy as np

# A block is BLOCK_REPS kernel calls, and a pace sample the median of
# SAMPLE_BLOCKS blocks (the first may find the kernel's data evicted by the
# engine). Samples are taken before and after an operation, and every
# SAMPLE_EVERY_S seconds during it, from a timer signal.
BLOCK_REPS = 3
SAMPLE_BLOCKS = 3
SAMPLE_EVERY_S = 0.2
# The nominal block time. Paced seconds are seconds on a machine where one
# block takes exactly this long; a 2-vCPU Xeon VM, with one BLAS thread,
# takes 0.55-0.7 ms in its fast spells and 0.9-1.3 ms in its slow ones.
REFERENCE_BLOCK_S = 0.6e-3

_rng = random.Random(0)
_XS = [_rng.random() for _ in range(32)]
_YS = [_rng.random() for _ in range(32)]
_WORDS = [f"w{_rng.randrange(300)}" for _ in range(300)]
_MATRIX = np.random.default_rng(0).standard_normal((512, 64))
_VECTOR = _MATRIX[0].copy()


def kernel() -> tuple[float, int, int]:
    inf = float("inf")
    prev = [0.0] + [inf] * len(_YS)
    for x in _XS:
        cur = [inf] * (len(_YS) + 1)
        for j, y in enumerate(_YS, 1):
            m = prev[j - 1]
            if prev[j] < m:
                m = prev[j]
            if cur[j - 1] < m:
                m = cur[j - 1]
            cur[j] = (x - y) * (x - y) + m
        prev = cur
    seen: dict[str, int] = {}
    for word in _WORDS:
        key = word.upper() + "x"
        seen[key] = seen.get(key, 0) + 1
    best = [int(np.argmax(_MATRIX @ (_VECTOR + i))) for i in range(4)]
    return prev[-1], len(seen), sum(best)


def block() -> float:
    """Seconds one block takes now. The garbage collector is off meanwhile,
    so that a collection of the engine's objects does not land in it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(BLOCK_REPS):
            kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def sample() -> float:
    """Seconds one block takes now, as the median of a few."""
    return statistics.median(block() for _ in range(SAMPLE_BLOCKS))


class Paced:
    """Times operations in wall seconds and in paced seconds. With
    ``in_flight`` false, the pace is sampled only around each operation,
    so that no sample runs inside the engine's traced spans."""

    def __init__(self, in_flight: bool = True):
        self.in_flight = in_flight
        self.blocks: list[float] = []  # every pace sample of the run
        self._inner: list[float] = []
        self._stolen = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._inner.append(sample())
        self._stolen += time.perf_counter() - t0

    def time(self, fn, *args, **kwargs):
        """(fn's result, wall seconds, paced seconds). The wall time leaves
        out the blocks run during the operation; the pace is the mean of
        the samples before, during and after it."""
        before = sample()
        self._inner, self._stolen = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        if self.in_flight:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        after = sample()
        wall = elapsed - self._stolen
        samples = [before, *self._inner, after]
        self.blocks += samples
        return result, wall, wall * REFERENCE_BLOCK_S / statistics.fmean(samples)
