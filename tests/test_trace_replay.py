"""Record → replay determinism, divergence detection, and shm replay.

The acceptance bar from the issue: a captured AMP trace replays
deterministically — same decisions, same message/payload counts, and a
byte-identical event log (``trace_hash``) — with the adversary (delay
model + crash schedule) detached.
"""

import random

import pytest

from repro.amp import HeartbeatOmega, PartialSynchronyDelay, make_replicated_machine
from repro.amp.consensus.benor import make_benor
from repro.amp.network import AsyncProcess, AsyncRuntime, CrashAt, UniformDelay
from repro.core.seqspec import counter_spec
from repro.shm.runtime import Runtime, make_registers, read, write
from repro.shm.schedulers import CrashAfterScheduler, RandomScheduler
from repro.trace import (
    DELIVER,
    SEND,
    MemorySink,
    TraceEvent,
    ReplayDivergence,
    ReplayRuntime,
    ShmReplayScheduler,
    decisions,
    replay,
    schedule_of,
    trace_hash,
)


def random_benor_setup(seed):
    """Protocol + adversary parameters derived from one sweep seed."""
    rng = random.Random(seed)
    n = rng.choice([4, 5, 7])
    t = (n - 1) // 2
    inputs = [rng.randint(0, 1) for _ in range(n)]
    crashes = [
        CrashAt(
            pid=pid,
            time=rng.uniform(0.5, 4.0),
            drop_in_flight=rng.choice([0.0, 0.5, 1.0]),
        )
        for pid in rng.sample(range(n), rng.randint(0, t))
    ]
    delay = UniformDelay(0.1, rng.uniform(0.5, 2.5))
    return n, t, inputs, crashes, delay


def capture_benor(seed):
    n, t, inputs, crashes, delay = random_benor_setup(seed)
    sink = MemorySink()
    result = AsyncRuntime(
        make_benor(n, t, inputs),
        delay_model=delay,
        crashes=crashes,
        max_crashes=t,
        seed=seed,
        sink=sink,
    ).run()
    return n, t, inputs, result, sink.events


class TestAmpReplayDeterminism:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_sweep_replays_byte_identically(self, seed):
        """Capture a randomized Ben-Or run (random n, inputs, crash
        schedule, delay model), then replay with the adversary detached:
        every observable and the full event log must match."""
        n, t, inputs, original, events = capture_benor(seed)
        replay_sink = MemorySink()
        replayed = replay(
            make_benor(n, t, inputs), events, seed=seed, sink=replay_sink
        )
        assert replayed.outputs == original.outputs
        assert replayed.decided == original.decided
        assert replayed.crashed == original.crashed
        assert replayed.decision_times == original.decision_times
        assert replayed.messages_sent == original.messages_sent
        assert replayed.messages_delivered == original.messages_delivered
        assert replayed.payload_sent == original.payload_sent
        assert replayed.payload_delivered == original.payload_delivered
        assert replayed.final_time == original.final_time
        assert trace_hash(replay_sink.events) == trace_hash(events)

    def test_replay_needs_no_adversary_arguments(self):
        """The schedule alone pins the run: ReplayRuntime takes no delay
        model and no crash schedule, yet reproduces crashes."""
        n, t, inputs, original, events = capture_benor(2)
        runtime = ReplayRuntime(make_benor(n, t, inputs), events, seed=2)
        result = runtime.run()
        assert result.crashed == original.crashed
        assert result.outputs == original.outputs

    def test_heartbeat_detector_replays(self):
        """A heartbeat detector trusts whoever it heard from lately, so
        replay must route each delivery through the hook it wraps."""
        n = 3

        def replicas():
            commands = [[("increment", (10**pid,))] for pid in range(n)]
            return make_replicated_machine(
                n, 1, counter_spec, commands, poll_interval=1.0
            )

        sink = MemorySink()
        original = AsyncRuntime(
            replicas(),
            delay_model=PartialSynchronyDelay(gst=6.0, delta=1.0, chaos_max=4.0),
            failure_detector=HeartbeatOmega(n, timeout=5.0),
            crashes=[CrashAt(0, 3.0)],
            max_crashes=1,
            seed=9,
            sink=sink,
        ).run()
        replay_sink = MemorySink()
        replayed = replay(
            replicas(),
            sink.events,
            seed=9,
            failure_detector=HeartbeatOmega(n, timeout=5.0),
            sink=replay_sink,
        )
        assert trace_hash(replay_sink.events) == trace_hash(sink.events)
        assert replayed == original

    def test_sanitized_set_payload_replays(self):
        """A sanitized run records frozen payloads; a frozen set prints
        as the plain set the unsanitized replay re-issues."""

        class SetBroadcaster(AsyncProcess):
            def on_start(self, ctx):
                ctx.broadcast([ctx.pid, {"k": {1, 2}}])

        sink = MemorySink()
        original = AsyncRuntime(
            [SetBroadcaster() for _ in range(3)], sanitize=True, sink=sink
        ).run()
        assert sink.events[0].data["payload"] == "[0, {'k': {1, 2}}]"
        replay_sink = MemorySink()
        replayed = replay(
            [SetBroadcaster() for _ in range(3)], sink.events, sink=replay_sink
        )
        assert trace_hash(replay_sink.events) == trace_hash(sink.events)
        assert replayed == original

    def test_sanitized_shrunken_set_replays(self):
        """A set that grew and then shrank iterates in a different order
        from a fresh copy of it; the frozen payload keeps the source's
        order, so the recording and its unsanitized replay agree."""

        def shrunken():
            values = set(range(10))
            for value in (0, 1, 2, 3, 4, 5, 6, 9):
                values.discard(value)
            return values

        class ShrunkenSetBroadcaster(AsyncProcess):
            def on_start(self, ctx):
                ctx.broadcast(shrunken())

            def on_message(self, ctx, src, message):
                ctx.decide(list(message))

        sink = MemorySink()
        original = AsyncRuntime(
            [ShrunkenSetBroadcaster() for _ in range(2)], sanitize=True, sink=sink
        ).run()
        assert sink.events[0].data["payload"] == repr(shrunken()) == "{7, 8}"
        replay_sink = MemorySink()
        replayed = replay(
            [ShrunkenSetBroadcaster() for _ in range(2)],
            sink.events,
            sink=replay_sink,
        )
        assert trace_hash(replay_sink.events) == trace_hash(sink.events)
        assert replayed == original

    def test_decisions_helper_matches_result(self, trace_artifact):
        n, t, inputs, original, events = capture_benor(5)
        replayed = replay(
            make_benor(n, t, inputs), events, seed=5, sink=trace_artifact
        )
        assert decisions(trace_artifact.events) == {
            pid: repr(replayed.outputs[pid])
            for pid in range(n)
            if replayed.decided[pid]
        }
        assert decisions(events) == decisions(trace_artifact.events)

    def test_schedule_of_filters_schedule_kinds(self):
        _, _, _, _, events = capture_benor(1)
        schedule = schedule_of(events)
        assert schedule, "a Ben-Or run must schedule deliveries"
        assert not any(e.kind == SEND for e in schedule)
        assert sum(1 for e in schedule if e.kind == DELIVER) == sum(
            1 for e in events if e.kind == DELIVER
        )


class TestAmpReplayDivergence:
    def test_wrong_protocol_diverges(self):
        """Replaying a different protocol under the schedule is caught,
        not silently mis-executed."""
        n, t, inputs, _, events = capture_benor(4)
        flipped = [1 - b for b in inputs]
        with pytest.raises(ReplayDivergence):
            replay(make_benor(n, t, flipped), events, seed=4)

    def test_wrong_seed_diverges(self):
        """Ben-Or's coin flips come from the seeded per-process RNGs;
        split inputs force coin rounds, so a wrong seed re-issues
        different payloads and the divergence check fires."""
        inputs = [0, 1, 0, 1]
        sink = MemorySink()
        AsyncRuntime(
            make_benor(4, 1, inputs),
            delay_model=UniformDelay(0.1, 1.0),
            seed=9,
            sink=sink,
        ).run()
        with pytest.raises(ReplayDivergence):
            replay(make_benor(4, 1, inputs), sink.events, seed=10)

    def test_tampered_payload_is_rejected(self):
        """Editing a recorded send's payload breaks re-execution
        identity and is caught at the matching re-issued send."""
        n, t, inputs, _, events = capture_benor(3)
        tampered = list(events)
        i = next(i for i, e in enumerate(events) if e.kind == SEND)
        event = events[i]
        tampered[i] = event.__class__(
            seq=event.seq,
            kind=event.kind,
            pid=event.pid,
            time=event.time,
            lamport=event.lamport,
            vc=event.vc,
            data={**event.data, "payload": "('forged', 0)"},
        )
        with pytest.raises(ReplayDivergence):
            replay(make_benor(n, t, inputs), tampered, seed=3)

    def test_delivery_of_unsent_seq_is_rejected(self):
        """A deliver event naming a send_seq the protocol never issued
        dangles.  (A *repeated* delivery of a real send is legal now:
        duplicating links deliver one send several times, so pending
        sends are retained rather than consumed.)"""
        n, t, inputs, _, events = capture_benor(3)
        i, dup = next(
            (i, e) for i, e in enumerate(events) if e.kind == DELIVER
        )
        phantom = TraceEvent(
            seq=dup.seq,
            kind=DELIVER,
            pid=dup.pid,
            time=dup.time,
            lamport=dup.lamport,
            vc=dup.vc,
            data={**dict(dup.data), "send_seq": 999_999},
        )
        broken = events[: i + 1] + [phantom] + events[i + 1 :]
        with pytest.raises(ReplayDivergence):
            replay(make_benor(n, t, inputs), broken, seed=3)


class Hello(AsyncProcess):
    """p0 sends ``"hello"`` to p1 and decides; p1 decides on receipt and
    answers ``"ack"`` only when ``reply`` is set."""

    def __init__(self, reply):
        self.reply = reply

    def on_start(self, ctx):
        if ctx.pid == 0:
            ctx.send(1, "hello")
            ctx.decide("sent")

    def on_message(self, ctx, src, payload):
        if payload == "hello":
            ctx.decide("heard")
            if self.reply:
                ctx.send(0, "ack")


class TestAmpReplaySendCounts:
    """Regression: a send with no recorded counterpart, or a recorded
    send never re-issued, used to replay silently with different
    message counts."""

    @staticmethod
    def record(reply):
        sink = MemorySink()
        result = AsyncRuntime(
            [Hello(reply), Hello(reply)], delay_model=UniformDelay(0.1, 1.0), sink=sink
        ).run()
        return result, sink.events

    def test_extra_send_diverges(self):
        recorded, events = self.record(reply=False)
        assert recorded.messages_sent == 1
        with pytest.raises(ReplayDivergence, match="no recorded counterpart"):
            replay([Hello(True), Hello(True)], events)

    def test_missing_send_diverges(self):
        recorded, events = self.record(reply=True)
        # Both decided before the ack arrived: the run stopped with it in
        # flight, so no schedule event ever names it.
        assert recorded.messages_sent == 2
        assert recorded.messages_delivered == 1
        with pytest.raises(ReplayDivergence, match="re-issued 1 sends"):
            replay([Hello(False), Hello(False)], events)

    def test_matching_protocol_replays(self):
        recorded, events = self.record(reply=True)
        assert replay([Hello(True), Hello(True)], events) == recorded


class TestShmReplay:
    def run_once(self, scheduler, sink=None):
        def program(pid, registers):
            yield from write(registers[pid], pid * 10)
            a = yield from read(registers[(pid + 1) % len(registers)])
            b = yield from read(registers[(pid + 2) % len(registers)])
            return (a, b)

        registers = make_registers("r", 4, initial=-1)
        runtime = Runtime(scheduler, sink=sink)
        for pid in range(4):
            runtime.spawn(pid, program(pid, registers))
        return runtime.run()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_schedule_with_crashes_replays(self, seed):
        scheduler = CrashAfterScheduler(
            RandomScheduler(seed=seed), crash_after={seed % 4: 1 + seed % 2}
        )
        sink = MemorySink()
        original = self.run_once(scheduler, sink)
        replay_sink = MemorySink()
        replayed = self.run_once(ShmReplayScheduler(sink.events), replay_sink)
        assert replayed.outputs == original.outputs
        assert replayed.crashed == original.crashed
        assert replayed.total_steps == original.total_steps
        assert trace_hash(replay_sink.events) == trace_hash(sink.events)

    def test_foreign_schedule_diverges(self):
        """A 3-process trace cannot drive a 4-process run to completion."""

        def short_program(pid, registers):
            yield from write(registers[pid], pid)
            return pid

        registers = make_registers("s", 3, initial=0)
        runtime = Runtime(RandomScheduler(seed=0), sink=(sink := MemorySink()))
        for pid in range(3):
            runtime.spawn(pid, short_program(pid, registers))
        runtime.run()

        with pytest.raises(ReplayDivergence):
            self.run_once(ShmReplayScheduler(sink.events))
