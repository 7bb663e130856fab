"""Machine-speed probe, recorded with every result.

On a shared 2-vCPU KVM guest the CPU alternates, within seconds, between a
fast state and one up to twice as slow, and the share of time spent slow
drifts over minutes. Wall and CPU time of a job move together with it, and
the load average does not show it. Timing a fixed kernel between jobs does,
so a run taken while the box was busy can be recognised.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on a 2-vCPU Intel Xeon KVM guest (python 3.11, numpy 2.4) in
# its fast state.
FAST_S = 0.065

_N = 3000
_PASSES = 2500


def kernel_s() -> float:
    """Time one pass of a fixed mix of small numpy calls and Python
    bookkeeping, the kind of work the program does on every step."""
    rng = np.random.default_rng(0)
    soc = rng.random(_N)
    mode = (soc * 4).astype(np.int8)
    ids = np.arange(_N)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(_PASSES):
        mask = (mode == (i & 3)) & (soc < (i % 97) / 97.0)
        acc += soc[mask].sum() + np.where(mask, soc, 0.0).sum() + ids[mask].size
        acc += {"step": i}["step"] * 1e-9
    return time.perf_counter() - t0
