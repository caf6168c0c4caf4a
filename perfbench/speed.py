"""Scale measured wall times to a fixed reference speed of the machine.

On a shared machine the speed a process gets drifts by tens of percent
over seconds and over minutes, for all code alike: a fixed pure-Python
loop, a LAPACK eigensolve and a scalar library case slow down and speed up
together, and process CPU time drifts with wall time, so it does not help.
A run that lands in a slow phase would read 1.5x slower with unchanged code.

So every timed operation is bracketed by a fixed reference loop
(``reference_s``), and its wall time is scaled by
``NOMINAL_S / (mean of the loop's time just before and just after it)``.
The loop's time jitters by tens of percent from one 10 ms run to the
next, so after a long operation it is run several times, SHARE of the
operation's time in all, and its mean time is used. The loops on either
side of an operation show the speed it saw best when it is short: for
2-3 s table calls the scaled and the raw times spread alike, so
table_bulk makes more, shorter calls instead.
The scaled figure is the wall time the operation would take at the speed
at which the loop takes NOMINAL_S. Measured on a 2-vCPU Intel Xeon VM,
scaling cut the spread (quartile distance / median) of the medians of
12- and 25-second windows over five minutes from 0.20 to 0.03-0.06 for
scalar library cases, from 0.12-0.19 to 0.02-0.03 for an eigensolve,
and from 0.10 to 0.05-0.07 for a CLI call.
The reference loop is benchmark code, so a change to iondecoh moves the
scaled times exactly as much as the wall times. Raw wall times are kept
beside the scaled ones in every result file.

This module uses only the standard library, so the lib_scalar child can
time its own reference loops without loading anything else.
"""

import time

LOOPS = 200_000
NOMINAL_S = 0.011  # about the loop's median time on the VM above
SHARE = 0.05  # reference time after an operation, as a share of its wall time


def reference_s(repeats: int = 1) -> float:
    """Mean wall time of ``repeats`` runs of the fixed reference loop."""
    start = time.perf_counter()
    for _ in range(repeats):
        total = 0
        for i in range(LOOPS):
            total += i
    return (time.perf_counter() - start) / repeats


def factor(before: float, after: float) -> float:
    """Scale for an operation between two reference loops of these times."""
    return NOMINAL_S / (0.5 * (before + after))


class Clock:
    """Keeps the last reference time; ``scale`` times a new one after an operation."""

    def __init__(self):
        self.last = reference_s()
        self.factors = []

    def scale(self, wall: float) -> float:
        after = reference_s(max(1, round(SHARE * wall / NOMINAL_S)))
        f = factor(self.last, after)
        self.last = after
        self.factors.append(f)
        return wall * f
