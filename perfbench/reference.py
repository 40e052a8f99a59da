"""A fixed reference workload that tracks how fast the machine runs right now.

On a shared virtual machine the host speed drifts by tens of percent over
tens of seconds.  The benchmark times this loop next to every timed call
and reports times scaled to a fixed reference speed, so that drift common
to both cancels.  The loop uses no hqca code: a change to the simulator
cannot move it.  It mixes the two kinds of work hqca does: interpreter work
on tuples, dicts and strings with a blake2b hash, and numpy work on a fresh
2^16-amplitude complex vector (allocation, axis moves, a 4x4 product).
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

# seconds the loop takes at the reference speed; scaled times are reported
# as if every reference loop had taken exactly this long
REF_S = 0.01

_ROW = tuple("•01→gm←▷tWSI" * 4)
_MAT = np.arange(16, dtype=complex).reshape(4, 4) / 16.0


def _interpreter(rounds: int) -> int:
    acc = 0
    index = {}
    for i in range(rounds):
        row = list(_ROW)
        j, k = i % len(row), (i + 1) % len(row)
        row[j], row[k] = row[k], row[j]
        key = (i & 7, tuple(row))
        index[key] = index.get(key, 0) + 1
        h = hashlib.blake2b(repr(key).encode(), digest_size=8)
        acc ^= int.from_bytes(h.digest(), "big")
    return acc


def _vector(rounds: int, n: int = 16) -> float:
    a = np.ones(2 ** n, dtype=complex)
    for i in range(rounds):
        p = i % (n - 1)
        b = np.moveaxis(a.reshape([2] * n), (p, p + 1), (0, 1))
        shape = b.shape
        b = _MAT @ b.reshape(4, -1)
        a = np.ascontiguousarray(
            np.moveaxis(b.reshape(shape), (0, 1), (p, p + 1))).reshape(-1)
        a /= np.abs(a[0]) or 1.0
    return float(a[0].real)


def measure() -> float:
    """Seconds for one pass of the reference loop (about REF_S when quiet)."""
    t0 = time.perf_counter()
    _interpreter(600)
    _vector(4)
    return time.perf_counter() - t0


class Timer:
    """Times calls and the reference loop after each one.

    A call's reference time is the mean of the reference just before and
    just after it; its scaled time is raw * REF_S / reference.  After a
    long call the loop runs several times (one per CALL_PER_LOOP_S of
    call time, at most MAX_LOOPS) and its median is taken, so that the
    loop's own jitter weighs less where it would scale more.
    """

    CALL_PER_LOOP_S = 0.25
    MAX_LOOPS = 9

    def __init__(self, loops=True):
        """loops=False times calls alone and reports them unscaled."""
        self.loops = loops
        self.last = statistics.median(
            measure() for _ in range(3)) if loops else REF_S
        self.loop_s = 0.0  # time spent in reference loops after calls

    def time(self, fn):
        """(result, raw seconds, reference seconds)."""
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        if not self.loops:
            return out, raw, REF_S
        loops = min(self.MAX_LOOPS, 1 + int(raw / self.CALL_PER_LOOP_S))
        t1 = time.perf_counter()
        ref = statistics.median(measure() for _ in range(loops))
        self.loop_s += time.perf_counter() - t1
        mean, self.last = (self.last + ref) / 2, ref
        return out, raw, mean
