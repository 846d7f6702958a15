"""Fault injection for the serving stack (the chaos harness's hooks).

The resilience layer's claims — bounded responses on slow queries, dead
workers, torn artifact writes — are only credible if the failures can be
*produced on demand* against the real code paths.  This module is the
lever: a process-global :data:`FAULTS` injector with a small set of
**named fault points** compiled into the serving stack::

    artifact.load       fired on every load_artifact call
    artifact.save       fired at each save stage (see below)
    engine.query_batch  fired on every DistanceOracle.query_batch call
    service.handle      fired inside admission, before dispatch (behind
                        the HTTP front end, coalesced single queries
                        fire it once per *flush*, in the flush worker —
                        a delay stalls the whole micro-batch, exactly
                        like every member request stalling)
    coalesce.flush      fired in the coalescer's flush worker before the
                        batched gather; an ``error`` fault maps to a
                        per-request 500 for every parked query
    sharded.worker      fired inside a ShardedOracle shard worker, per
                        received request (a ``kill`` here is a shard
                        worker dying mid-burst — what the sharded
                        supervision ladder must survive)

Disarmed (the default), ``fire`` is one attribute read and a branch —
zero overhead on the serving hot path.  Arm programmatically::

    from repro.oracle.faults import FAULTS
    FAULTS.arm("service.handle", "delay", seconds=0.2)
    FAULTS.arm("sharded.worker", "kill", times=1)
    FAULTS.arm("artifact.save", "error", stage="manifest")  # torn write

or from the environment (read once at import; forked shard workers
inherit it), e.g.::

    REPRO_FAULTS="service.handle=delay:seconds=0.2,sharded.worker=kill"

Fault kinds:

* ``delay`` — sleep ``seconds`` at the point (drives deadline expiry);
* ``error`` — raise :class:`InjectedFault` (a torn artifact write is an
  ``error`` fault gated on a ``stage``: ``save_artifact`` fires the
  point after every write stage, so the injection simulates a crash
  with exactly that much data on disk);
* ``kill`` — ``SIGKILL`` the *current process* (meaningful at
  ``sharded.worker``: the forked shard worker dies mid-request, which is
  what the pool supervisor must survive).

Gating parameters:

* ``times=N`` — the fault fires N times in this process, then disarms;
* ``times_file=PATH`` — a cross-process budget: the file holds an
  integer, each firing atomically decrements it (``fcntl`` lock), and a
  zero budget skips the fault.  This is how a chaos test kills exactly
  one pool worker across forked processes (every fork inherits the
  armed injector; only one wins the decrement);
* ``stage=NAME`` — fire only when the instrumented point passes a
  matching ``stage`` (the ``artifact.save`` write stages).

A malformed ``REPRO_FAULTS`` raises :class:`ValueError` at import —
a typo'd chaos spec must not silently test nothing.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "ENV_FAULTS_VAR",
    "FAULTS",
    "FAULT_POINTS",
    "FaultInjector",
    "InjectedFault",
]

ENV_FAULTS_VAR = "REPRO_FAULTS"

#: Every fault point compiled into the stack (``arm`` validates names).
FAULT_POINTS = (
    "artifact.load",
    "artifact.save",
    "engine.query_batch",
    "service.handle",
    "coalesce.flush",
    "sharded.worker",
)

_KINDS = ("delay", "error", "kill")


class InjectedFault(RuntimeError):
    """Raised by an armed ``error`` fault; names its fault point."""


@dataclass
class _Fault:
    kind: str
    seconds: float = 0.0
    times: Optional[int] = None
    times_file: Optional[str] = None
    stage: Optional[str] = None


def _consume_times_file(path: str) -> bool:
    """Atomically decrement the integer budget in ``path``; False when
    the budget is spent (or the file is gone) — the fault is skipped."""
    try:
        fd = os.open(path, os.O_RDWR)
    except OSError:
        return False
    try:
        try:
            import fcntl

            fcntl.flock(fd, fcntl.LOCK_EX)
        except ImportError:  # non-POSIX: best-effort, unlocked
            pass
        left_raw = os.read(fd, 64).strip()
        try:
            left = int(left_raw or b"0")
        except ValueError:
            return False
        if left <= 0:
            return False
        os.lseek(fd, 0, os.SEEK_SET)
        os.ftruncate(fd, 0)
        os.write(fd, str(left - 1).encode())
        return True
    finally:
        os.close(fd)


class FaultInjector:
    """A registry of armed faults keyed by fault point (thread-safe).

    One fault per point: ``arm`` replaces any previous fault at that
    point.  ``fire`` is the instrumented side — a no-op unless armed.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._faults: Dict[str, _Fault] = {}
        self._armed = False  # fast-path flag, read without the lock

    # ------------------------------------------------------------------
    @property
    def armed(self) -> bool:
        """Whether any fault is currently armed."""
        return self._armed

    def arm(
        self,
        point: str,
        kind: str,
        *,
        seconds: float = 0.0,
        times: Optional[int] = None,
        times_file: Optional[str] = None,
        stage: Optional[str] = None,
    ) -> None:
        """Arm one fault at ``point`` (replacing any fault already
        there).  Unknown points and kinds fail loudly."""
        if point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; expected one of "
                f"{FAULT_POINTS}"
            )
        if kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {_KINDS}"
            )
        if times is not None and times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        with self._lock:
            self._faults[point] = _Fault(
                kind=kind, seconds=float(seconds), times=times,
                times_file=times_file, stage=stage,
            )
            self._armed = True

    def disarm(self, point: Optional[str] = None) -> None:
        """Disarm one point, or everything when ``point`` is None."""
        with self._lock:
            if point is None:
                self._faults.clear()
            else:
                self._faults.pop(point, None)
            self._armed = bool(self._faults)

    def arm_from_env(self, spec: Optional[str] = None) -> int:
        """Arm faults from a ``REPRO_FAULTS``-style spec string
        (``point=kind[:key=val[:key=val]]``, comma-separated); returns
        the number of faults armed.  Malformed specs raise."""
        if spec is None:
            spec = os.environ.get(ENV_FAULTS_VAR, "")
        count = 0
        for part in (p.strip() for p in spec.split(",")):
            if not part:
                continue
            point, sep, rest = part.partition("=")
            if not sep or not rest:
                raise ValueError(
                    f"{ENV_FAULTS_VAR}: malformed fault {part!r}; expected "
                    "point=kind[:key=val...]"
                )
            kind, *opts = rest.split(":")
            kwargs: Dict[str, object] = {}
            for opt in opts:
                key, osep, value = opt.partition("=")
                if not osep:
                    raise ValueError(
                        f"{ENV_FAULTS_VAR}: malformed option {opt!r} in "
                        f"{part!r}; expected key=value"
                    )
                if key == "seconds":
                    kwargs[key] = float(value)
                elif key == "times":
                    kwargs[key] = int(value)
                elif key in ("times_file", "stage"):
                    kwargs[key] = value
                else:
                    raise ValueError(
                        f"{ENV_FAULTS_VAR}: unknown fault option {key!r} "
                        f"in {part!r}"
                    )
            self.arm(point.strip(), kind.strip(), **kwargs)  # type: ignore[arg-type]
            count += 1
        return count

    # ------------------------------------------------------------------
    def fire(self, point: str, stage: Optional[str] = None) -> None:
        """The instrumented side: act on an armed fault at ``point``.

        Disarmed (the common case) this is one attribute read and a
        branch.  ``stage`` is matched against the fault's ``stage``
        gate when one is set."""
        if not self._armed:
            return
        self._fire_slow(point, stage)

    def _fire_slow(self, point: str, stage: Optional[str]) -> None:
        with self._lock:
            fault = self._faults.get(point)
            if fault is None:
                return
            if fault.stage is not None and fault.stage != stage:
                return
            if fault.times is not None:
                fault.times -= 1
                if fault.times <= 0:
                    self._faults.pop(point, None)
                    self._armed = bool(self._faults)
            if fault.times_file is not None:
                if not _consume_times_file(fault.times_file):
                    return
            kind, seconds = fault.kind, fault.seconds
        # Act outside the lock: a sleeping fault must not serialize
        # every other fire() in the process.
        if kind == "delay":
            time.sleep(seconds)
        elif kind == "error":
            raise InjectedFault(
                f"injected fault at {point!r}"
                + (f" (stage {stage!r})" if stage else "")
            )
        elif kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)


#: The process-global injector every fault point fires through.
FAULTS = FaultInjector()
FAULTS.arm_from_env()
