"""Machine-speed calibration for the end-to-end timings.

On a 2-core Intel Xeon virtual machine whose cores are shared with other
tenants, the same `solve --n 1` request took 30 ms in one second and 60 ms in
the next, and its CPU time rose with its wall time: the slowdown is in the
shared hardware, not in scheduling.  A fixed kernel timed just before and
after each request slows by the same factor.  Over 80 s of alternating fast
and slow periods on that machine, request time over kernel time stayed within
±4% while raw request time varied ±30%.

The kernel is a frozen Dormand-Prince loop over NumPy 3-vectors, the same
mix of small-array arithmetic and `math` calls as the program's hot path.
It is benchmark code: no change to the package changes its cost.  A sample
is the fastest of a few short runs with the garbage collector off, as in
`timeit`: garbage the program left behind is not collected on the kernel's
clock, and a preemption that hits one run is dropped.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

#: Kernel time that defines a reference millisecond.  A request that takes
#: x ms of wall time while the kernel takes REFERENCE_S is reported as x ms.
REFERENCE_S = 1.0e-3
#: NumPy import time that defines a reference second of set-up time.  Most of
#: the package's import time is NumPy's import, and the two slow down together
#: while the kernel slows more: between the machine's fast and slow periods
#: the package import time changed by 25%, its ratio to NumPy's import time
#: (measured just before it, in another fresh interpreter) by 8%.
NUMPY_IMPORT_S = 0.075

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_STEPS = 20
#: Kernel runs per sample; the sample is the fastest.
_RUNS = 3


def _rhs(t: float, y: np.ndarray) -> np.ndarray:
    w = y[2]
    fpp = math.copysign(math.exp(math.log(abs(w)) / 1.0), w) if abs(w) > 1e-300 else 0.0
    return np.array([y[1], fpp, -y[0] * fpp * 0.5])


def _kernel() -> np.ndarray:
    y = np.array([0.0, 0.0, 1.0])
    h, t = 0.01, 0.0
    k = [_rhs(t, y)] + [y] * 6
    for _ in range(_STEPS):
        for s in range(1, 7):
            stage = y + h * sum(a * ki for a, ki in zip(_A[s], k))
            k[s] = _rhs(t + h, stage)
        y, k[0], t = stage, k[6], t + h
    return y


def kernel_seconds() -> float:
    """Fastest wall time of _RUNS kernel runs, collector off (about 1 ms on an idle core)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(_RUNS):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best
