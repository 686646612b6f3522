"""Fixed reference kernels that measure the machine's current speed.

On a shared host the speed of this process changes by up to 1.9x for tens
of seconds at a time, and not by the same factor for every kind of code: in
one slow stretch a Python loop over small numpy arrays ran 1.75-1.9x
slower, a plain Python loop 1.5x and a dense LAPACK eigensolve 1.2-1.3x.
So every timed step of a workload is bracketed by the reference kernel of
its own kind, and the benchmark reports step time over reference time.  The kernels never call
``sgfem1d``: a change to the program cannot move them.
"""

import time

import numpy as np
import scipy.linalg

# interpreter-bound: a Python loop over small arrays, shaped like an element
# loop of assembly or a quadrature sum, then a plain Python loop of about the
# same length (about 2 ms together on one core).  Small-array numpy calls
# slowed more than the workloads in slow stretches and plain Python less;
# half of each tracked the source and eigen ladders best.
_NODES = np.linspace(-1.0, 1.0, 7)
_ELEMENTS = 120
_LOOP = 16000

# LAPACK-bound: eigenvalues of a fixed dense SPD matrix, large enough to
# leave the core's caches like the large cell's solves (about 30 ms)
_rng = np.random.default_rng(12345)
_B = _rng.standard_normal((700, 700))
_SPD = _B @ _B.T + 700.0 * np.eye(700)
del _rng, _B


def _interp():
    acc = 0.0
    for e in range(_ELEMENTS):
        x = 0.5 * (e + (_NODES + 1.0) / 2.0)
        w = np.sin(x) * x + 1.0
        acc += float(np.outer(w, w).sum()) / (e + 1)
    n = 0
    for i in range(_LOOP):
        n += (i * i) % 7
    return acc + n


def _lapack():
    return float(scipy.linalg.eigh(_SPD, eigvals_only=True)[0])


KERNELS = {"interp": _interp, "lapack": _lapack}


def measure(kind):
    """Wall time of one run of the reference kernel of this kind."""
    kernel = KERNELS[kind]
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t
