"""The reference kernel and the reference start: fixed pieces of work
that measure the machine's speed of the moment.

On a shared host the speed one process gets drifts by up to 2x within
seconds and from one minute to the next, and it moves the reference
kernel and cyclex alike.  The benchmark times the kernel right before
every experiment (and once after the last) and reports each
experiment's time scaled to a machine on which the kernel takes
``REFERENCE_S``:

    scaled time = wall time * REFERENCE_S / mean kernel time before and after

The kernel does what `cyclex run` spends most of its time on, without
cyclex: alternating projections between two balls on 3-vectors with
small numpy operations, and a CSV of the iterates written to memory.  A
change to cyclex cannot change it.

Set-up time is scaled the same way by the reference start, a fresh
interpreter that imports numpy (``START_COMMAND``): the host's slow
spells stretch process start and imports more than they stretch the
kernel.

    scaled set-up = median wall set-up * REFERENCE_START_S / median start
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

# The kernel's time on the reference machine.  The 2-vCPU virtual
# machine the baselines were measured on ran it in 1.0 to 2.2 ms.
REFERENCE_S = 1.0e-3

# The reference start's time on the reference machine, and its command
# (arguments to the interpreter).  The 2-vCPU machine ran it in 0.11 to
# 0.22 s.
REFERENCE_START_S = 0.15
START_COMMAND = ("-c", "import numpy; print('ready', flush=True)")

_CENTERS = (np.array([0.3, -0.2, 0.1]), np.array([2.05, 0.4, -0.3]))
_STEPS = 60


def kernel() -> int:
    """The fixed work: 120 ball projections and their CSV rows."""
    x = np.array([3.0, 1.0, -2.0])
    rows = []
    for k in range(_STEPS):
        for i, c in enumerate(_CENTERS):
            y = x - c
            norm = float(np.linalg.norm(y))
            if norm > 1.0:
                x = c + y * (1.0 / norm)
            rows.append([k, i] + [repr(float(v)) for v in x])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return len(buf.getvalue())


def time_kernel() -> float:
    """Wall seconds of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
