"""Machine-speed calibration for the benchmark's end-to-end times.

The benchmark runs on a few vCPUs of a shared host, whose CPU speed drifts
by tens of percent over seconds to minutes.  A fixed calibration chunk
slows with it.  The worker times CAL_CHUNKS chunks after set-up and after
every CLI call, outside the timed steps, and rescales each step's time to
the reference speed, at which one chunk takes CAL_REF_S.

A chunk is half interpreter work (a dict loop) and half native numeric
work (single-threaded BLAS matrix products), as eigm's time is: on
recordings, the loop alone tracked the interpreter-heavy workloads well
and the sweeps badly, the products alone the reverse, and their sum all
four.  The chunk uses no eigm code, so no change to eigm moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CAL_CHUNKS = 3
CAL_LOOP = 50_000
CAL_MATMULS = 10
# near the median chunk time on the 2-vCPU Xeon VM where the bounds were
# set (0.016 s over forty 30-second runs); it only scales the figures
CAL_REF_S = 0.015

_MAT = np.random.default_rng(0).random((256, 256))


def calibrate() -> list[float]:
    """The times of CAL_CHUNKS calibration chunks."""
    times = []
    for _ in range(CAL_CHUNKS):
        t0 = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(CAL_LOOP):
            k = i % 977
            d[k] = d.get(k, 0) + i
        for _ in range(CAL_MATMULS):
            _MAT @ _MAT
        times.append(time.perf_counter() - t0)
    return times


def normalize(seconds: float, chunks: list[float]) -> float:
    """``seconds`` at the reference speed, from the chunks around the step."""
    return seconds * CAL_REF_S / statistics.median(chunks)
