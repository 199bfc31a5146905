"""Host-speed calibration for a shared, noisy machine.

On the 2-vCPU host the benchmark was defined on, other tenants share the
physical cores, and the speed of the same single-threaded code drifts by
20-50% over seconds to minutes.  The drift moves most kernels alike, so
the harness times a fixed kernel in a short block before and after every
round and every set-up, and reports

    seconds = wall seconds * REFERENCE_S / mean(block before, block after)

where a block is the median of BLOCK_SAMPLES kernel timings.  On that host
this cut the ten-run spread of the criterion-6 scan time from 0.20 to 0.04
(interquartile range over median).  The kernel uses only Python and NumPy,
never the package, so a change to the package cannot move it.  It mixes
the kinds of work the workloads do: interpreted Python, NumPy calls on
tiny arrays, and LAPACK on a mid-sized matrix.  The harness records the
unscaled wall times beside the scaled ones.
"""
from __future__ import annotations

import statistics

import numpy as np

#: Median kernel time on the reference host: Intel Xeon at 2.1 GHz, 2 vCPUs,
#: Python 3.11.7, NumPy 2.4.6 with scipy-openblas 0.3.31, one BLAS thread.
REFERENCE_S = 0.0058
BLOCK_SAMPLES = 15


class Calibration:
    def __init__(self, clock):
        self.clock = clock
        rng = np.random.default_rng(0)
        self.mid = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.tiny = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        #: median kernel seconds of each block, in the order taken
        self.blocks: list[float] = []

    def kernel(self) -> float:
        t0 = self.clock()
        total = 0
        for i in range(20000):
            total += i * i
        for _ in range(150):
            np.linalg.svd(self.tiny @ self.tiny, compute_uv=False)
        for _ in range(2):
            np.linalg.svd(self.mid)
        return self.clock() - t0

    def block(self) -> None:
        self.blocks.append(statistics.median(self.kernel() for _ in range(BLOCK_SAMPLES)))

    def scale_since_previous_block(self) -> float:
        """Take a block; return the factor for whatever ran since the one before."""
        self.block()
        return REFERENCE_S / statistics.fmean(self.blocks[-2:])
