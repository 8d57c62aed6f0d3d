"""Machine-speed correction for timings on a shared machine.

On a host shared with other tenants the same computation runs up to 1.6x
slower, in stretches from milliseconds to minutes. :func:`kernel` is a fixed
computation, independent of perispec, that mixes interpreter work, batched
small-matrix numpy calls and one dense LAPACK call like perispec does. The
benchmark runs it between operations; its times say how fast the machine was
around each operation, and :func:`corrected_times` rescales every wall time
to the reference speed. Edit the kernel and REFERENCE_KERNEL_S together.
"""

from time import perf_counter

import numpy as np

# kernel() on an idle 2.1 GHz Xeon vCPU, one BLAS thread (Python 3.11, numpy 2.4)
REFERENCE_KERNEL_S = 0.007

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((64, 4, 4)) + 1j * _rng.standard_normal((64, 4, 4))
_DENSE = _rng.standard_normal((48, 48))


def kernel() -> float:
    """Run the fixed computation once and return its wall time in seconds."""
    start = perf_counter()
    total = 0.0
    for _ in range(40):
        w = np.linalg.eigvalsh(_SMALL @ _SMALL.conj().transpose(0, 2, 1))
        total += float(w[0, 0]) + sum(j * 0.5 for j in range(200))
    np.linalg.svd(_DENSE)
    return perf_counter() - start


def corrected_times(walls: list[float], kernels: list[float]) -> list[float]:
    """Wall times at the reference speed.

    ``kernels[m]`` ran just before the m-th timed call and ``kernels[m + 1]``
    just after it; the call's wall time is scaled by REFERENCE_KERNEL_S over
    their mean."""
    return [
        wall * REFERENCE_KERNEL_S / (0.5 * (kernels[m] + kernels[m + 1]))
        for m, wall in enumerate(walls)
    ]
