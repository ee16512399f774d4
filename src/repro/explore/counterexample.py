"""Counterexamples as concrete, replayable schedules.

A violation found by exploration is only as good as its repro.  A
:class:`Counterexample` therefore carries the *recorded trace* of the
violating schedule (captured through the kernel's own ``sink=`` hook)
plus a replay closure that re-executes it through the PR 3 replay
machinery — :class:`~repro.trace.shm_replay.ShmReplayScheduler` for shared
memory, :func:`~repro.trace.replay.replay` for AMP, a re-run under
:class:`~repro.explore.sync_model.ScriptedAdversary` for the
(deterministic) synchronous kernel.  ``replays_identically()`` asserts
the byte-identity contract: the replayed event log has the same
:func:`~repro.trace.events.trace_hash` as the recording.

The failure report renders the schedule, the hash, and the ASCII
space-time diagram of the violating run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..trace.diagram import render_space_time
from ..trace.events import TraceEvent, trace_hash


@dataclass
class Counterexample:
    """A violating schedule, its recorded trace, and how to replay it."""

    kernel: str
    schedule: Tuple[object, ...]
    events: List[TraceEvent]
    trace_hash: str
    #: Re-executes the schedule through the replay machinery with a
    #: fresh sink and returns the replayed event list.
    _replayer: Callable[[], List[TraceEvent]] = field(repr=False)
    #: Optional human-readable forms of the schedule entries.
    described: Tuple[str, ...] = ()

    def replay(self) -> Tuple[str, List[TraceEvent]]:
        """Replay the schedule; returns ``(replayed trace_hash, events)``."""
        events = self._replayer()
        return trace_hash(events), list(events)

    def replays_identically(self) -> bool:
        """Does the replay reproduce the recording byte-for-byte?"""
        return self.replay()[0] == self.trace_hash

    def diagram(self, columns: int = 16) -> str:
        """ASCII space-time diagram of the violating run."""
        return render_space_time(self.events, columns=columns)

    def report(self, header: Optional[str] = None) -> str:
        """The failure report: schedule, hash, and space-time diagram."""
        lines = [header or f"counterexample ({self.kernel} schedule, "
                           f"{len(self.schedule)} choices)"]
        shown = self.described or tuple(repr(c) for c in self.schedule)
        lines.append("  schedule: " + " ; ".join(shown))
        lines.append(f"  trace_hash: {self.trace_hash}")
        lines.append(self.diagram())
        return "\n".join(lines)
