"""Machine-speed references for correcting timings on a shared machine.

On a machine shared with other tenants, the same solve can take 2x longer
for tens of seconds at a time. A fixed kernel that does the kind of work the
measured code does is timed next to every measured interval; ``factor``
scales a raw time to what it would have been at the kernel's nominal speed.
The kernels do not touch splitqp, so a change to splitqp moves corrected
times exactly as it moves raw ones.

Two kernels, because contention slows interpreter-bound and memory-bound
code by different amounts: ``InterpreterKernel`` (small matrix-vector
products, clipping and norms in a Python loop, like a solver iteration at
n <= 60, or an import) and ``MemoryKernel`` (matrix-vector products with a
450x300 matrix and triangular solves of order 300, like an iteration at
n=300). Nominal times are from an idle 2-core x86-64 VM (Python 3.11,
OpenBLAS, 1 thread).
"""

import time

import numpy as np
import scipy.linalg


class InterpreterKernel:
    NOMINAL_S = 0.0025

    def __init__(self):
        self.M = np.cos(np.arange(64 * 64).reshape(64, 64) * 0.37) / 8.0
        self.B = np.sin(np.arange(200 * 200).reshape(200, 200) * 0.11)
        self.C = np.cos(np.arange(200 * 40).reshape(200, 40) * 0.13)

    def measure(self):
        """Seconds the kernel takes now."""
        a = np.linspace(-1.0, 1.0, 64)
        t0 = time.perf_counter()
        for _ in range(200):
            c = np.clip(self.M @ a, -0.5, 0.5)
            a = c / (1.0 + float(np.max(np.abs(c))))
        for _ in range(5):
            self.B @ self.C
        return time.perf_counter() - t0


class MemoryKernel:
    NOMINAL_S = 0.0035

    def __init__(self):
        self.A = np.sin(np.arange(450 * 300).reshape(450, 300) * 0.11)
        S = np.sin(np.arange(300 * 300).reshape(300, 300) * 0.11)
        self.cho = scipy.linalg.cho_factor(S @ S.T + 300.0 * np.eye(300), lower=True)
        self.x = np.ones(300)
        self.y = np.ones(450)

    def measure(self):
        """Seconds the kernel takes now."""
        t0 = time.perf_counter()
        for _ in range(20):
            self.A @ self.x
            scipy.linalg.cho_solve(self.cho, self.A.T @ self.y)
        return time.perf_counter() - t0


def factor(kernel, kernel_s):
    """Multiplier from a raw time to the time at ``kernel``'s nominal speed."""
    return kernel.NOMINAL_S / kernel_s
