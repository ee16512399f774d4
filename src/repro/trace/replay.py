"""Deterministic record/replay from captured schedules.

A recorded AMP trace *is* a schedule: the sequence of processed
deliveries, timer firings, crashes, recoveries and drops, in exactly
the order the run took them.  :class:`ReplayRuntime` re-executes the
same protocol against that sequence directly — no delay model, no
adversary, no crash schedule — so a violating run found by a random
sweep becomes a minimal, self-contained repro: the protocol plus one
JSONL file.  It is a :class:`~repro.amp.network.DrivenRuntime` that
takes one step per recorded event, at the event's time: the runtime
class the explorer drives with its choices, so explorer
counterexamples replay through the code that recorded them.

The replay is *checked*: every send the re-executed protocol emits is
matched against the recorded one (same src, dst, payload ``repr``, in
the same global order), a send with no recorded counterpart or a
recorded send never re-issued is a mismatch, and every recorded
delivery, timer or drop must find its send or timer pending (and a
delivery or timer its process alive).  Any mismatch raises
:exc:`ReplayDivergence` — the protocol is nondeterministic beyond its
seeded RNG, which is itself a finding.

Identity guarantee (asserted by the tests): replaying a capture with a
fresh sink produces an event log with the **same** :func:`~repro.trace.events.trace_hash`
as the original, and the :class:`~repro.amp.network.AmpRunResult`\\ s
agree on decisions, message/payload counts, decision times, and final
virtual time.

Shared-memory runs replay through
:class:`~repro.trace.shm_replay.ShmReplayScheduler` (the recorded step
sequence as a scheduler), in a module of its own, so that each replay
loads only the kernel it replays; synchronous runs are already
deterministic given their crash schedule and adversary, so their trace
is a proof object rather than a replay input.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..amp.network import AmpRunResult, AsyncProcess, DrivenRuntime
from ..core.exceptions import ConfigurationError
from .divergence import ReplayDivergence
from .events import CRASH, DELIVER, DROP, RECOVER, SEND, TIMER, TraceEvent
from .sink import TraceSink

#: The event kinds that *drive* an AMP replay (everything the original
#: event loop processed, in processing order).
SCHEDULE_KINDS = frozenset({DELIVER, DROP, TIMER, CRASH, RECOVER})


def schedule_of(events: Sequence[TraceEvent]) -> List[TraceEvent]:
    """The replayable schedule slice of a recorded AMP trace."""
    return [e for e in events if e.kind in SCHEDULE_KINDS]


class ReplayRuntime(DrivenRuntime):
    """Re-execute fresh processes under a recorded AMP schedule.

    Parameters mirror :class:`~repro.amp.network.AsyncRuntime` where
    they still apply; the delay model, crash schedule, and adversarial
    machinery are replaced by the trace.  ``seed`` must equal the
    original run's seed (it feeds the per-process RNGs the protocol
    consumed).
    """

    divergence = ReplayDivergence

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
            seed=seed,
            sink=sink,
            failure_detector=failure_detector,
            # Recovery restores constructed in-memory state: snapshot
            # every pid the recorded run recovered.
            recoverable={e.pid for e in events if e.kind == RECOVER},
        )
        self._schedule = schedule_of(events)
        self._recorded_sends: Dict[int, TraceEvent] = {
            e.data["send_seq"]: e for e in events if e.kind == SEND
        }
        # The event loop's link model loses a copy inline, mid-handler:
        # its loss drop follows the send at the send's own time, and is
        # re-emitted right after the re-issued send instead of at its
        # schedule position.  A later loss (the explorer's "lose"
        # choice, a tick or more after the send) replays in place.
        events = list(events)
        self._inline_losses.update(
            e.data["send_seq"]
            for prev, e in zip(events, events[1:])
            if e.kind == DROP
            and e.data.get("reason") == "loss"
            and "timer_seq" not in e.data
            and prev.kind == SEND
            and prev.data["send_seq"] == e.data["send_seq"]
            and prev.time == e.time
        )

    def _send(self, src: int, dsts: Sequence[int], payload: object) -> None:
        if src not in self.crashed:
            payload_repr = repr(payload)
            recorded_sends = self._recorded_sends
            for seq, dst in enumerate(dsts, self._send_counter):
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
        super()._send(src, dsts, payload)

    def run(self, until: Optional[float] = None) -> AmpRunResult:
        if until is not None:
            raise ConfigurationError(
                "replay re-executes one recorded run() to completion; "
                "segmented runs are not replayable"
            )
        self.start()
        for event in self._schedule:
            if event.time > self.now:
                self.now = event.time
            kind, data = event.kind, event.data
            # Entries stay pending after a delivery or a drop: with a
            # duplicating link one send_seq names several copies.
            if kind == DELIVER:
                self.deliver(data["send_seq"], keep=True)
            elif kind == TIMER:
                self.fire_timer(data["timer_seq"], event.pid)
            elif kind == CRASH:
                self.crash(event.pid)
            elif kind == RECOVER:
                self.recover(event.pid)
            elif "timer_seq" in data:
                self.drop_timer(data["timer_seq"], data["reason"])
            elif data["send_seq"] not in self._inline_losses:
                self.lose(data["send_seq"], data["reason"], keep=True)
        if self._send_counter < len(self._recorded_sends):
            raise ReplayDivergence(
                f"replay re-issued {self._send_counter} sends, "
                f"the recording has {len(self._recorded_sends)}"
            )
        return self.result()


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

