"""Deterministic replay of a recorded shared-memory run.

:class:`ShmReplayScheduler` is the recorded step sequence as a
scheduler of :class:`repro.shm.runtime.Runtime`.  The AMP replay lives
in :mod:`repro.trace.replay`, so each replay loads only the kernel it
replays.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..shm.runtime import Scheduler
from .divergence import ReplayDivergence
from .events import CRASH, DECIDE, READ, SNAPSHOT, STEP, WRITE, TraceEvent

_SHM_STEPLIKE = frozenset({READ, WRITE, SNAPSHOT, STEP, DECIDE})


class ShmReplayScheduler(Scheduler):
    """Replay a recorded shared-memory run's step sequence and crashes.

    Every executed step left exactly one event in the trace (a
    ``read``/``write``/``snapshot``/``step``, or the ``decide`` of the
    process's final resume), so the pid sequence of those events *is*
    the schedule; ``crash`` events are re-injected at their recorded
    step numbers via ``crash_now``.
    """

    def __init__(self, events: Sequence[TraceEvent]) -> None:
        self._steps = [e.pid for e in events if e.kind in _SHM_STEPLIKE]
        self._crashes: Dict[int, List[int]] = {}
        for e in events:
            if e.kind == CRASH:
                self._crashes.setdefault(int(e.time), []).append(e.pid)
        self._next = 0

    def crash_now(self, step_no: int, runnable: Sequence[int]) -> Sequence[int]:
        return tuple(self._crashes.get(step_no, ()))

    def choose(self, step_no: int, runnable: Sequence[int]) -> int:
        if self._next >= len(self._steps):
            raise ReplayDivergence(
                f"replayed run wants a step beyond the recorded {len(self._steps)}"
            )
        pid = self._steps[self._next]
        self._next += 1
        if pid not in runnable:
            raise ReplayDivergence(
                f"recorded step #{self._next - 1} on {pid}, "
                f"but {pid} is not runnable in replay"
            )
        return pid
