"""A fixed reference kernel, timed next to the ops to factor out machine speed.

On a shared host the speed of one core changes by up to 1.6x within
seconds and drifts over minutes, so raw op times from two runs differ by
more than a regression bound.  Each op's time is also reported divided
by the time of this kernel measured just before and just after it; the
kernel mixes what the workloads spend their time on: interpreted Python,
numpy vector arithmetic and a sparse LU solve.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_N = 60
_LAPLACE_1D = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N, _N))
_LAPLACE = (sp.kron(sp.eye(_N), _LAPLACE_1D) + sp.kron(_LAPLACE_1D, sp.eye(_N))).tocsc()
_RHS = np.ones(_N * _N)
_X = np.linspace(0.0, 1.0, 200_000)


def _kernel():
    acc = 0.0
    for i in range(30_000):
        acc += i * 0.5
    float(np.sum(np.sin(_X) * np.exp(-_X)))
    spla.spsolve(_LAPLACE, _RHS)
    return acc


def reference_seconds(repeats=3):
    """Fastest of ``repeats`` timings of the kernel (about 12 ms each)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
