"""Deterministic record/replay from captured schedules.

A recorded AMP trace *is* a schedule: the sequence of processed
deliveries, timer firings, crashes, and drops, in exactly the order the
event loop took them.  :class:`ReplayRuntime` re-executes the same
protocol against that sequence directly — no delay model, no adversary,
no crash schedule — so a violating run found by a random sweep becomes
a minimal, self-contained repro: the protocol plus one JSONL file.

The replay is *checked*: every send the re-executed protocol emits is
matched against the recorded one (same src, dst, payload ``repr``, in
the same global order), a send with no recorded counterpart or a
recorded send never re-issued is a mismatch, and every recorded
delivery must find its pending send.  Any mismatch raises
:exc:`ReplayDivergence` — the
protocol is nondeterministic beyond its seeded RNG, which is itself a
finding.

Identity guarantee (asserted by the tests): replaying a capture with a
fresh sink produces an event log with the **same** :func:`~repro.trace.events.trace_hash`
as the original, and the :class:`~repro.amp.network.AmpRunResult`\\ s
agree on decisions, message/payload counts, decision times, and final
virtual time.

Shared-memory runs replay through :class:`ShmReplayScheduler` (the
recorded step sequence as a scheduler); synchronous runs are already
deterministic given their crash schedule and adversary, so their trace
is a proof object rather than a replay input.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

from ..amp.network import AmpRunResult, AsyncProcess, AsyncRuntime
from ..core.exceptions import ConfigurationError, ModelViolation
from ..core.volume import payload_units
from ..shm.runtime import Scheduler
from .events import (
    CRASH,
    DECIDE,
    DELIVER,
    DROP,
    READ,
    RECOVER,
    SEND,
    SNAPSHOT,
    STEP,
    TIMER,
    WRITE,
    TraceEvent,
)
from .sink import TraceSink

#: The event kinds that *drive* an AMP replay (everything the original
#: event loop processed, in processing order).
SCHEDULE_KINDS = frozenset({DELIVER, DROP, TIMER, CRASH, RECOVER})


class ReplayDivergence(ModelViolation):
    """The re-executed protocol departed from the recorded run."""


def schedule_of(events: Sequence[TraceEvent]) -> List[TraceEvent]:
    """The replayable schedule slice of a recorded AMP trace."""
    return [e for e in events if e.kind in SCHEDULE_KINDS]


class ReplayRuntime(AsyncRuntime):
    """Re-execute fresh processes under a recorded AMP schedule.

    Parameters mirror :class:`~repro.amp.network.AsyncRuntime` where
    they still apply; the delay model, crash schedule, and adversarial
    machinery are replaced by the trace.  ``seed`` must equal the
    original run's seed (it feeds the per-process RNGs the protocol
    consumed).
    """

    def __init__(
        self,
        processes: Sequence[AsyncProcess],
        events: Sequence[TraceEvent],
        seed: int = 0,
        failure_detector: Optional[object] = None,
        sink: Optional[TraceSink] = None,
    ) -> None:
        super().__init__(
            processes,
            failure_detector=failure_detector,
            seed=seed,
            quiesce_when_decided=False,
            sink=sink,
        )
        self._schedule = schedule_of(events)
        self._recorded_sends: Dict[int, TraceEvent] = {
            e.data["send_seq"]: e for e in events if e.kind == SEND
        }
        #: send_seq → (src, dst, payload, units) re-issued by the protocol.
        #: Entries are retained after delivery: with a duplicating link the
        #: same send_seq is delivered more than once.
        self._pending_sends: Dict[int, Tuple[int, int, object, int]] = {}
        self._pending_timers: Dict[int, Tuple[int, object]] = {}
        self._replay_send_seq = 0
        self._replay_timer_seq = 0
        # Loss drops recorded *immediately after* their send are the
        # runtime's inline style (the link model lost the message at
        # send time, mid-handler); they must be re-emitted right after
        # the matching re-issued send to keep the event log byte-
        # identical, and skipped at their schedule position.  A loss
        # drop elsewhere (the explorer's at-choice style) replays at its
        # schedule position as usual.
        self._inline_losses = set()
        for prev, e in zip(events, list(events)[1:]):
            if (
                e.kind == DROP
                and e.data.get("reason") == "loss"
                and "timer_seq" not in e.data
                and prev.kind == SEND
                and prev.data["send_seq"] == e.data["send_seq"]
            ):
                self._inline_losses.add(e.data["send_seq"])
        # Recovery restores constructed in-memory state: snapshot it for
        # every pid the recorded run recovered (mirrors AsyncRuntime).
        for e in events:
            if e.kind == RECOVER and e.pid not in self._initial_state:
                self._initial_state[e.pid] = copy.deepcopy(
                    vars(self.processes[e.pid])
                )

    # -- protocol-facing plumbing (indexed, not scheduled) -----------------

    def _send(self, src: int, dsts: Sequence[int], payload: object) -> None:
        if src in self.crashed:
            return
        payload_repr = repr(payload)
        units = payload_units(payload)
        recorded_sends = self._recorded_sends
        sink = self._sink
        for dst in dsts:
            seq = self._replay_send_seq
            self._replay_send_seq = seq + 1
            recorded = recorded_sends.get(seq)
            if recorded is None:
                raise ReplayDivergence(
                    f"send #{seq} {src}→{dst} {payload_repr} has no recorded "
                    f"counterpart (the recording has {len(recorded_sends)} sends)"
                )
            data = recorded.data
            if (
                data["src"] != src
                or data["dst"] != dst
                or data["payload"] != payload_repr
            ):
                raise ReplayDivergence(
                    f"send #{seq} diverged: recorded "
                    f"{data['src']}→{data['dst']} {data['payload']}, "
                    f"replayed {src}→{dst} {payload_repr}"
                )
            self._pending_sends[seq] = (src, dst, payload, units)
            self.messages_sent += 1
            self.payload_sent += units
            if sink is not None:
                sink.amp_send(seq, src, dst, payload, units, self.now)
                if seq in self._inline_losses:
                    sink.amp_drop(seq, self.now, reason="loss")

    def _set_timer(self, pid: int, delay: float, name: object) -> None:
        if delay < 0:
            raise ConfigurationError("timer delay must be >= 0")
        seq = self._replay_timer_seq
        self._replay_timer_seq += 1
        self._pending_timers[seq] = (pid, name)
        if self._sink is not None:
            self._sink.amp_timer_set(seq, pid)

    # -- the replay loop ---------------------------------------------------

    def run(self, until: Optional[float] = None) -> AmpRunResult:
        if until is not None:
            raise ConfigurationError(
                "replay re-executes one recorded run() to completion; "
                "segmented runs are not replayable"
            )
        if not self._started:
            self._started = True
            if self.failure_detector is not None and hasattr(
                self.failure_detector, "attach"
            ):
                self.failure_detector.attach(self)
            for pid in range(self.n):
                if pid not in self.crashed:
                    self.processes[pid].on_start(self.contexts[pid])
        for event in self._schedule:
            if event.time > self.now:
                self.now = event.time
            if event.kind == CRASH:
                self.crashed.add(event.pid)
                if self._sink is not None:
                    self._sink.amp_crash(event.pid, self.now)
            elif event.kind == RECOVER:
                self._handle_recover(event.pid)
            elif event.kind == DROP:
                if "timer_seq" in event.data:
                    self._pending_timers.pop(event.data["timer_seq"], None)
                    if self._sink is not None:
                        self._sink.amp_drop_timer(
                            event.data["timer_seq"],
                            self.now,
                            reason=event.data["reason"],
                        )
                elif event.data["send_seq"] not in self._inline_losses:
                    if self._sink is not None:
                        self._sink.amp_drop(
                            event.data["send_seq"],
                            self.now,
                            reason=event.data["reason"],
                        )
            elif event.kind == DELIVER:
                self._replay_delivery(event)
            elif event.kind == TIMER:
                self._replay_timer(event)
        if self._replay_send_seq < len(self._recorded_sends):
            raise ReplayDivergence(
                f"replay re-issued {self._replay_send_seq} sends, "
                f"the recording has {len(self._recorded_sends)}"
            )
        return self.result()

    def _replay_delivery(self, event: TraceEvent) -> None:
        seq = event.data["send_seq"]
        pending = self._pending_sends.get(seq)
        if pending is None:
            raise ReplayDivergence(
                f"recorded delivery of send #{seq} has no pending send in replay"
            )
        src, dst, payload, units = pending
        if dst in self.crashed or self.contexts[dst].halted:
            raise ReplayDivergence(
                f"recorded delivery to {dst} but {dst} is dead in replay"
            )
        self.messages_delivered += 1
        self.payload_delivered += units
        if self._sink is not None:
            self._sink.amp_deliver(seq, src, dst, payload, self.now)
        self.processes[dst].on_message(self.contexts[dst], src, payload)

    def _replay_timer(self, event: TraceEvent) -> None:
        seq = event.data["timer_seq"]
        pending = self._pending_timers.pop(seq, None)
        if pending is None:
            raise ReplayDivergence(
                f"recorded timer #{seq} was never set during replay"
            )
        pid, name = pending
        if pid != event.pid:
            raise ReplayDivergence(
                f"timer #{seq} diverged: recorded on {event.pid}, replayed on {pid}"
            )
        if self._sink is not None:
            self._sink.amp_timer(seq, pid, name, self.now)
        self.processes[pid].on_timer(self.contexts[pid], name)


def replay(
    processes: Sequence[AsyncProcess],
    events: Sequence[TraceEvent],
    seed: int = 0,
    failure_detector: Optional[object] = None,
    sink: Optional[TraceSink] = None,
) -> AmpRunResult:
    """Re-execute ``processes`` under a recorded schedule (see module doc).

    ``processes`` must be *fresh* instances of the same protocol with
    the same parameters, and ``seed`` the original run's seed.
    """
    return ReplayRuntime(
        processes, events, seed=seed, failure_detector=failure_detector, sink=sink
    ).run()


# -- shared-memory replay ----------------------------------------------------

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
