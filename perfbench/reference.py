"""A fixed reference computation that gauges how fast the host runs right now.

On a shared host the same workload run can take 30 % longer in one minute
than in the next, and such swings outlast any one timed run.  The benchmark
times this computation right before and right after every workload run and
reports the run's time as a multiple of it, which cancels most of that drift.

The computation mixes the two kinds of work the program spends its time on:
row operations of a partially pivoted LU on a small dense matrix (many small
numpy calls) and a pure-Python integer and dict loop.  It holds no large
array, so it does not raise the process's peak memory.  It is the
benchmark's own code and calls nothing in the package, so a change to the
program never changes it.
"""

from __future__ import annotations

from time import perf_counter, process_time

import numpy as np

LU_SIZE = 100
LU_REPS = 80
LOOP_ITERS = 800_000

_MATRIX = np.random.default_rng(0).standard_normal((LU_SIZE, LU_SIZE)) + LU_SIZE * np.eye(LU_SIZE)


def _lu(matrix: np.ndarray) -> np.ndarray:
    a = matrix.copy()
    for k in range(a.shape[0] - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if p != k:
            a[[k, p], :] = a[[p, k], :]
        a[k + 1 :, k] /= a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return a


def _loop() -> int:
    total, seen = 0, {}
    for i in range(LOOP_ITERS):
        total += i * i % 7
        seen[i & 255] = total
    return total


def reference_times() -> tuple[float, float]:
    """(wall s, CPU s) of one pass of the reference computation."""
    t0, c0 = perf_counter(), process_time()
    for _ in range(LU_REPS):
        _lu(_MATRIX)
    _loop()
    return perf_counter() - t0, process_time() - c0
