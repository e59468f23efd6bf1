"""Machine-speed calibration for the timed commands.

The 2-core machine the benchmark was sized on runs the same code up to 1.7x
faster for stretches of 10 to 30 seconds, longer than a run, and a median
over one run cannot remove that.  So the child times a small fixed kernel
between commands, at least every ``EVERY`` seconds, and each command's time
is rescaled by ``nominal / (median of the nearest calibrations)``: the time
the command would have taken at the speed where the kernel takes its nominal
time.  Raw times are reported next to the rescaled ones.

Different code speeds up by different amounts, so a workload names the
kernel that tracked its commands best on the sizing machine: interpreter,
Fraction and small-LAPACK work for scans and exact elimination; that plus
JSON parsing, sorting and a BLAS product for the short, import- and
file-heavy commands (and for interpreter start-up).
"""

from __future__ import annotations

import bisect
import json
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

EVERY = 0.05
NEAREST = 3  # calibrations used on each side of a command

_eigvalsh = np.linalg.eigvalsh  # bound now, so a tracer patching numpy does not see it
_MATRIX = np.array([[2.0, 1.0, 0.0, 1.0], [1.0, -3.0, 1.0, 0.0],
                    [0.0, 1.0, 1.0, 2.0], [1.0, 0.0, 2.0, -1.0]])
_SQUARE = np.random.default_rng(0).random((160, 160))
_DOC = json.dumps([{"k": i, "v": [i * 0.5, str(i), None]} for i in range(600)])


def _interpreter() -> None:
    total = Fraction(0)
    for k in range(1, 40):
        total += Fraction(k, k + 1) * total + 1
    acc = 0
    for k in range(3000):
        acc += k * k % 7
    for _ in range(20):
        _eigvalsh(_MATRIX)


def _broad() -> None:
    _interpreter()
    json.loads(_DOC)
    sorted(range(3000), key=lambda x: (x * 7919) % 3001)
    _SQUARE @ _SQUARE


# name: (kernel, seconds it takes on the sizing machine at its usual speed)
KERNELS = {"interpreter": (_interpreter, 0.001), "broad": (_broad, 0.003)}


def calibrate(kernel: str) -> float:
    """Seconds for one kernel, best of three so that an interrupt does not count."""
    work = KERNELS[kernel][0]
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        work()
        best = min(best, perf_counter() - start)
    return best


def rescale(times, starts, calibrations, kernel: str) -> list[float]:
    """Times at the kernel's nominal speed.

    ``calibrations`` is a time-ordered list of (timestamp, kernel seconds);
    a command started at ``starts[i]`` uses the NEAREST calibrations before
    its start and the NEAREST after its end.
    """
    nominal = KERNELS[kernel][1]
    stamps = [stamp for stamp, _ in calibrations]
    out = []
    for start, seconds in zip(starts, times):
        before = bisect.bisect_right(stamps, start)
        after = bisect.bisect_left(stamps, start + seconds)
        near = calibrations[max(0, before - NEAREST):before] + calibrations[after:after + NEAREST]
        out.append(seconds * nominal / statistics.median(k for _, k in near))
    return out
