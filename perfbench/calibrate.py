"""Host-speed calibration: a fixed task timed next to every rotation cycle.

On a shared host the same code runs at a speed that drifts by tens of
percent over seconds to minutes (neighbours on the core, frequency changes),
far more than the differences the benchmark must resolve.  The benchmark
therefore times this task, which uses none of the library, before and after
every cycle and scales the cycle's block times by ``REF_CAL_S`` over the
task's time: the end-to-end figures read as if the host always ran the task in
``REF_CAL_S``.  The task mixes the three kinds of work the workloads do:
scalar Python arithmetic (the noise and symbol generators), small numpy
arrays (the transform stages and chains) and float text formatting and
parsing (the CSV sample files).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: Scale of the normalised figures: the task's median time on a 2-core
#: Intel Xeon virtual machine (Python 3.11, numpy 2.4).  It fixes units only.
REF_CAL_S = 0.0115


def _scalar() -> float:
    z, acc, mask = 12345, 0.0, (1 << 64) - 1
    for _ in range(1500):
        z = (z + 0x9E3779B97F4A7C15) & mask
        x = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        u = ((x >> 11) + 0.5) / (1 << 53)
        acc += math.sqrt(-2.0 * math.log(u)) * math.cos(2 * math.pi * u)
    return acc


def _arrays() -> float:
    a = np.arange(256, dtype=np.complex128)
    acc = 0.0
    for _ in range(150):
        b = np.fft.fft(a.reshape(16, 16), axis=0).T.reshape(-1) * 0.5
        a = np.roll(b, 3) + np.concatenate([b[-4:], b[:-4]])
        acc += float(np.abs(a).max())
        a = a / acc
    return acc


def _text() -> float:
    text = "".join(f"{i},{i * 0.1234567!r},{-i * 0.7654321!r}\n" for i in range(1500))
    return sum(float(line.split(",")[1]) for line in text.splitlines())


def calibration_s() -> float:
    """Seconds one run of the calibration task takes now."""
    t0 = perf_counter()
    _scalar()
    _arrays()
    _text()
    return perf_counter() - t0
