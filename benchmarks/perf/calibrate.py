"""Machine-speed compensation for a shared, noisy host.

The seed box is a 2-vCPU microVM whose speed follows its neighbours: a
fixed piece of pure NumPy/Python work swings by +-20% between runs and
stays slow or fast for tens of seconds, so no amount of averaging
*within* a run steadies a wall-clock number (sizing runs: the same seed
read 14.7 to 21.2 generations/s). What does steady it is measuring the
machine next to the workload: ``kernel`` below is a fixed unit of work
that shares no code with the repository - so a change to the system
cannot speed it up - and every measurement window is scaled by how long
the kernel took around that window, relative to ``NOMINAL_S``:

    reported rate    = measured rate    * (kernel_s / NOMINAL_S)
    reported latency = measured latency / (kernel_s / NOMINAL_S)

i.e. numbers are stated at the reference speed at which the kernel
takes ``NOMINAL_S``. The raw readings are printed beside them. The
kernel mixes interpreter work with small-array NumPy calls, like the
layers it stands beside; latency under a fixed offered load is not
linear in machine speed, so there the scaling removes only part of the
swing.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: seconds one ``kernel()`` takes on the seed box when its neighbours
#: are quiet; frozen, so reported numbers stay comparable across PRs
NOMINAL_S = 0.0009

_rng = np.random.default_rng(20200823)
_STATE = _rng.random((150, 1, 12))
_WEIGHTS = _rng.random((150, 12, 12))
_GATHER = _rng.integers(0, 150, size=150)


def kernel() -> float:
    """Seconds one fixed unit of benchmark-owned work takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(4000):
        total += i * i % 7
    state = _STATE
    for _ in range(40):
        state = np.tanh(np.matmul(state, _WEIGHTS))[_GATHER]
    return time.perf_counter() - start


def burst(n: int = 9) -> list[float]:
    """``n`` kernel samples back to back (a quiescent moment between
    two measurement windows)."""
    return [kernel() for _ in range(n)]


def speed_factor(samples) -> float:
    """How much slower than the reference the machine ran while
    ``samples`` were taken (> 1: slower)."""
    return statistics.median(samples) / NOMINAL_S
