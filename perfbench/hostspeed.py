"""Host speed, measured by timing fixed calibration loops.

On a shared host the CPU time of identical work is not constant.  While
other tenants load the physical machine, back-to-back identical roundtrip
ops took from 72 ms to 200 ms of CPU each within four minutes, and the
median of 10-second windows moved by a factor of two, with nothing waiting
inside the machine.  CPU time shields a measurement from other processes
in the same machine, not from the host.

The benchmark therefore times a fixed loop between ops and scales each
op's times to the reference speed at which the loop takes ``REFERENCE_MS``
of CPU.  A loop tracks the host's effect on a workload only if it does the
same kind of work, so there are two: interpretive Python work (tuples,
strings, dict updates, a sort) and the encoder's kind of work (numpy
broadcasts and exponentials, and ``math.fsum`` called row by row).  Loops
are timed with ``thread_time``, so threads or child processes the program
leaves running cannot make the host look slower.
"""

import math
import time

REFERENCE_MS = 10.0


def _python_loop() -> None:
    table = {}
    for i in range(12000):
        key = (f"t{i % 97}", i & 7)
        table[key] = table.get(key, 0) + len(key[0])
    sorted(table.items())


def _numpy_loop() -> None:
    # Imported here: set-up probes import this module before their clock
    # starts, and importing numpy is part of the program's set-up.
    import numpy as np

    keys = np.linspace(-1.0, 1.0, 90 * 90 * 4).reshape(90, 90, 4)
    query = np.linspace(0.5, -0.5, 90 * 4).reshape(90, 4)
    for _ in range(8):
        scores = (keys * query[None, :, :]).sum(axis=-1)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        for row in weights:
            math.fsum(row)


LOOPS = {"python": _python_loop, "numpy": _numpy_loop}


def calibration_ms(kind: str = "python") -> float:
    """CPU milliseconds this thread spends on one calibration loop."""
    start = time.thread_time()
    LOOPS[kind]()
    return (time.thread_time() - start) * 1000
