"""Host speed, measured with a fixed kernel that does what a trial does.

The shared 2-vCPU hosts this benchmark runs on change speed by 20–60% over
seconds to minutes, and user CPU time changes with wall time, so it is not
steal time that a CPU clock would remove.  The measuring loop therefore
times this kernel between passes: a pass's wall time divided by the host
speed around it is the time that pass would have taken on the reference
host.  The kernel uses numpy and Python only, never beamlink, so a change
to the program cannot move it.

One unit of the kernel is what one trial of the two 1-worker workloads
does: a few small-matrix svd/solve/norm calls with Python glue (the pair
solve of dense_capacity), then one QPSK packet drawn, mapped, mixed through
a 4x2 channel with noise, equalized by pseudoinverse, sliced and counted
(the packet path of link_sweep).
"""
from __future__ import annotations

import time

import numpy as np

UNITS = 80
# seconds UNITS units take on the reference host: the median on the 2-vCPU
# host the benchmark was built on (Python 3.11, numpy 2.4, OpenBLAS)
REFERENCE_S = 0.050

_POINTS = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2)


def _unit(rng: np.random.Generator, a: np.ndarray, b: np.ndarray) -> int:
    for _ in range(4):
        _, s, _ = np.linalg.svd(a)
        x = np.linalg.solve(a + s[0] * np.eye(4), b)
        r = float(np.linalg.norm(x)) / (1.0 + float(s[-1]))
        a = a * (1.0 - 1e-9 * r)
    bits = rng.integers(0, 2, size=2304)
    index = (bits[0::2] << 1) | bits[1::2]
    symbols = _POINTS[index].reshape(2, 576)
    h = a[:, :2]
    noise = rng.standard_normal((4, 576)) + 1j * rng.standard_normal((4, 576))
    y = h @ symbols + 0.1 * noise
    equalized = np.linalg.pinv(h) @ y
    sliced = np.argmin(np.abs(equalized[..., None] - _POINTS), axis=-1)
    return int(np.count_nonzero(sliced.reshape(-1) != index))


def kernel_seconds(units: int = UNITS) -> float:
    """Wall time of `units` kernel units; the inputs are the same on every call."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
    b = rng.standard_normal(4) + 0j
    start = time.perf_counter()
    for _ in range(units):
        _unit(rng, a, b)
    return time.perf_counter() - start


def host_speed(kernel_s: float) -> float:
    """Speed of the host relative to the reference host: above 1 is faster."""
    return REFERENCE_S / kernel_s
