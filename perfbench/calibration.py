"""Host-speed calibration: a fixed kernel timed around every measured phase.

The host is shared, so the same code runs at different speeds from one
second to the next: on a 2-core VM the speed of one pass of the kernel
below drifts by about 20% with a correlation time of one to two
seconds, and six identical 3 s builds took from 2.4 s to 4.5 s.  Each
timed phase is therefore bracketed by a fixed kernel (a numpy sort plus
a pure-Python loop, the two kinds of work the program does), run for
``CAL_WINDOW_S`` on each side.  A timing is then reported scaled to a
fixed reference calibration time: ``normalized = raw * REF_CAL_S /
cal_s``.  A rate scales the other way.  The run record keeps ``raw`` and
``cal_s`` beside each normalized value, so a reader can undo the
scaling.  A short window (three passes) did not track the drift; half a
second on each side cut the spread of those builds from 90% to 27%
(min to max).

This module deliberately imports nothing from the program under test.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Optional

import numpy as np

__all__ = [
    "REF_CAL_S",
    "Bracket",
    "Calibrator",
    "bracket",
    "calibrate",
    "normalize_rate",
    "normalize_time",
]

#: The calibration time the reported timings are scaled to: roughly what
#: one kernel pass takes on an idle 2-core x86-64 container.
REF_CAL_S = 0.020

#: Seconds of kernel passes on each side of a phase.
CAL_WINDOW_S = 0.5

_SORT_N = 100_000
_LOOP_N = 120_000


def _kernel_once(data: np.ndarray) -> float:
    np.sort(data, kind="quicksort")
    acc = 0
    for i in range(_LOOP_N):
        acc += (i * 7) ^ (acc & 1023)
    return float(acc)


def calibrate(window_s: float = CAL_WINDOW_S) -> float:
    """Mean wall seconds of one pass of the fixed kernel, over passes
    run back to back for about ``window_s`` (at least two)."""
    data = np.random.default_rng(12345).random(_SORT_N)
    passes = 0
    start = time.perf_counter()
    while True:
        _kernel_once(data)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= 2 and elapsed >= window_s:
            return elapsed / passes


def normalize_time(raw_s: float, cal_s: float) -> float:
    """A duration scaled to the reference host speed."""
    return raw_s * REF_CAL_S / cal_s


def normalize_rate(raw_per_s: float, cal_s: float) -> float:
    """A rate (work per second) scaled to the reference host speed."""
    return raw_per_s * cal_s / REF_CAL_S


class Calibrator:
    """One calibration process pinned to each CPU this process may run
    on.  :meth:`measure` runs the kernel on all of them at once and
    returns the mean pass time: the host's CPUs drift independently, and
    the program's serving phases use all of them."""

    def __init__(self):
        try:
            cpus = sorted(os.sched_getaffinity(0))
        except AttributeError:  # no affinity API: one unpinned process
            cpus = [-1]
        self._procs = [
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--cpu", str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for cpu in cpus
        ]

    def measure(self, window_s: float = CAL_WINDOW_S) -> float:
        for p in self._procs:
            p.stdin.write(f"{window_s}\n")
            p.stdin.flush()
        times = [float(p.stdout.readline()) for p in self._procs]
        return sum(times) / len(times)

    def close(self) -> None:
        """Stop every calibration process and wait for it (idempotent)."""
        for p in self._procs:
            if p.poll() is None:
                p.stdin.close()
            p.wait(timeout=30)
            p.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Bracket:
    """One bracketed phase: raw seconds and the mean of the calibration
    times taken just before and just after it."""

    def __init__(self, raw_s: float = 0.0, cal_before_s: float = 0.0,
                 cal_after_s: float = 0.0):
        self.raw_s = raw_s
        self.cal_before_s = cal_before_s
        self.cal_after_s = cal_after_s

    @property
    def cal_s(self) -> float:
        return 0.5 * (self.cal_before_s + self.cal_after_s)

    @property
    def normalized_s(self) -> float:
        return normalize_time(self.raw_s, self.cal_s)

    def record(self) -> dict:
        return {
            "raw_s": self.raw_s,
            "cal_s": self.cal_s,
            "ref_cal_s": REF_CAL_S,
            "normalized_s": self.normalized_s,
        }


@contextmanager
def bracket(cal: Calibrator, before: Optional[Bracket] = None):
    """Time the body, with a calibration window on each side of it.
    Back-to-back phases share a window: pass the previous phase's
    bracket as ``before``.  A body that times its own work (a child
    process) may overwrite ``raw_s``."""
    b = Bracket(cal_before_s=before.cal_after_s if before is not None else cal.measure())
    b.raw_s = None
    t0 = time.perf_counter()
    try:
        yield b
    finally:
        if b.raw_s is None:
            b.raw_s = time.perf_counter() - t0
        b.cal_after_s = cal.measure()


def _serve(cpu: int) -> None:
    """The calibration process: pin, then answer one window per line."""
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    for line in sys.stdin:
        print(calibrate(float(line)), flush=True)


if __name__ == "__main__":
    _serve(int(sys.argv[sys.argv.index("--cpu") + 1]))
