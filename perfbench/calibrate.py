"""Machine-speed calibration for timings on a shared, drifting machine.

A 2-vCPU 2 GHz virtual machine shared with other tenants changes speed by
up to 1.6x between windows of a few seconds to minutes (a fixed numpy loop
ran at 2.2 ms per repeat in one window and 3.5 ms in the next, with no
steal time reported), so raw op times of two runs of the same code differ
by that much.  The bench therefore times a fixed reference kernel - small
numpy calls plus interpreter work, the mix tgkit's ops are made of -
between ops, and reports each op's (and set-up probe's) time scaled to a
machine on which the kernel takes REFERENCE_MS: t * REFERENCE_MS /
kernel_ms, with kernel_ms the median of the kernel samples taken within
WINDOW_S seconds of it.  Raw times are printed next to the scaled ones.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_MS = 0.7      # kernel time in a fast window of a 2 GHz VM vCPU
WINDOW_S = 2.0          # half-width of the window whose samples scale an op
SAMPLE_EVERY_S = 0.1    # minimum spacing of kernel samplings between ops
SAMPLE_REPEATS = 3      # kernel runs per sampling

_A = np.linspace(-1.0, 1.0, 64).reshape(4, 4, 4)
_V = np.array([0.3, -0.2, 0.5, 0.1])
_S = np.eye(4) * 3.0 + np.outer(_V, _V)


def kernel():
    """Fixed work; never changes, so its time measures the machine.

    Mostly the einsum/matmul chain of a search-objective evaluation, with
    some small LAPACK calls (as in Christoffel symbols and the gram gates)
    and interpreter work; on a drifting machine each part tracked the ops
    that are made of it (correlation 0.7-0.8 over two minutes), while
    LAPACK alone did not track the search-bound ops.
    """
    acc = 0.0
    for k in range(25):
        m = np.einsum('ijk,k->ij', _A, _V)
        p = np.eye(4) - np.outer(_V, _V)
        x = p @ m @ p
        g = np.einsum('ij,ijk->k', x, _A)
        acc += float(np.sum(x * x)) + float(np.linalg.norm(g))
        if k % 3 == 0:
            acc += float(np.linalg.cholesky(_S)[0, 0] + np.linalg.inv(_S)[0, 0])
        for j in range(20):
            acc += j * 1e-3
    return acc


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Calibration:
    """Kernel samples taken between ops, and the per-op scale they give."""

    def __init__(self):
        self.at = []
        self.took = []

    def maybe_sample(self):
        now = time.perf_counter()
        if not self.at or now - self.at[-1] >= SAMPLE_EVERY_S:
            for _ in range(SAMPLE_REPEATS):
                self.took.append(time_kernel())
                self.at.append(now)

    def kernel_s(self, t):
        """Median kernel time of the samples within WINDOW_S of time t."""
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        window = self.took[lo:hi] or self.took
        return statistics.median(window)

    def scale(self, started, latencies):
        """Latencies scaled to a machine where the kernel takes REFERENCE_MS."""
        ref = REFERENCE_MS * 1e-3
        return [lat * ref / self.kernel_s(t) for t, lat in zip(started, latencies)]
